"""GCN forward, MLP scoring, gradients vs finite differences, AdamW, checkpoints."""

from __future__ import annotations

import ast
import copy
import dataclasses
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from opflow import nn
from opflow.errors import DataError
from opflow.nn import (
    SCORE_CLAMP,
    ModelParams,
    adamw_init,
    adamw_step,
    backward,
    bce_loss,
    forward_loss,
    gcn_forward,
    gumbel_noise,
    gumbel_sigmoid,
    init_params,
    load_checkpoint,
    normalized_adjacency,
    save_checkpoint,
    score_edges,
    sigmoid,
)

from conftest import (
    FOLD_RTOL,
    dense_features,
    dense_forward,
    finite_difference_grads,
    max_relative_gradient_error,
    traced_peak_mib,
)


def tiny_params(d=2, h=2, m=3, seed=0) -> ModelParams:
    return init_params(dim_in=d, dim_hidden=h, mlp_hidden=m, seed=seed)


def identity_gcn_params(d: int) -> ModelParams:
    return dataclasses.replace(tiny_params(d=d, h=d), gcn_w1=np.eye(d), gcn_w2=np.eye(d))


# ---------------------------------------------------------------------------
# GCN forward
# ---------------------------------------------------------------------------


class TestGCNForward:
    def test_hand_computed_path_graph(self):
        # Path 0 -> 1 -> 2 with identity weights.  Undirected support plus
        # self-loops gives degrees (2, 3, 2); every normalized coefficient and
        # both layers are written out by hand below.
        r6 = math.sqrt(6.0)
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        a[1, 2] = 1.0
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

        s = normalized_adjacency(a)
        expect_s = np.array(
            [
                [1 / 2, 1 / r6, 0.0],
                [1 / r6, 1 / 3, 1 / r6],
                [0.0, 1 / r6, 1 / 2],
            ]
        )
        np.testing.assert_allclose(s, expect_s, atol=1e-15)

        h1 = np.array(
            [
                [0.5, 1 / r6],
                [2 / r6, 1 / 3 + 1 / r6],
                [0.5, 1 / r6 + 0.5],
            ]
        )
        h2 = np.array(
            [
                [
                    0.5 * 0.5 + (1 / r6) * (2 / r6),
                    0.5 * (1 / r6) + (1 / r6) * (1 / 3 + 1 / r6),
                ],
                [
                    (1 / r6) * 0.5 + (1 / 3) * (2 / r6) + (1 / r6) * 0.5,
                    (1 / r6) * (1 / r6) + (1 / 3) * (1 / 3 + 1 / r6) + (1 / r6) * (1 / r6 + 0.5),
                ],
                [
                    (1 / r6) * (2 / r6) + 0.5 * 0.5,
                    (1 / r6) * (1 / 3 + 1 / r6) + 0.5 * (1 / r6 + 0.5),
                ],
            ]
        )
        # Node 2's own row as the task row: the features are x itself.
        got = gcn_forward(identity_gcn_params(2), x, a, 2, x[2][None])
        np.testing.assert_allclose(got[0], h2, atol=1e-10)

    def test_single_node_no_edges(self):
        # Degree 1 (self-loop only) so the node just passes through both layers.
        p = tiny_params(d=3, h=4, seed=7)
        x = np.array([[0.3, -0.7, 1.1]])
        a = np.zeros((1, 1))
        expect = np.maximum(np.maximum(x @ p.gcn_w1, 0.0) @ p.gcn_w2, 0.0)
        np.testing.assert_allclose(gcn_forward(p, x, a, 0, x[0][None])[0], expect, atol=1e-14)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(42)
        p = tiny_params(d=5, h=6, seed=3)
        for _ in range(100):
            v = rng.integers(2, 9)
            x = rng.normal(size=(v, 5))
            a = (rng.random((v, v)) < 0.3).astype(float)
            np.fill_diagonal(a, 0.0)
            perm = rng.permutation(v)
            # The last node's own row is the task row; it moves with the nodes.
            row = x[v - 1][None]
            h = gcn_forward(p, x, a, v - 1, row)[0]
            moved = int(np.argsort(perm)[v - 1])
            h_perm = gcn_forward(p, x[perm], a[np.ix_(perm, perm)], moved, row)[0]
            np.testing.assert_allclose(h_perm, h[perm], atol=1e-10)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(11)
        p = tiny_params(d=4, h=3, seed=5)
        a = (rng.random((6, 6)) < 0.4).astype(float)
        np.fill_diagonal(a, 0.0)
        x = rng.normal(size=(6, 4))
        rows = rng.normal(size=(3, 4))
        hb = gcn_forward(p, x, a, 5, rows)
        for k in range(3):
            single = gcn_forward(p, x, a, 5, rows[k : k + 1])[0]
            np.testing.assert_allclose(hb[k], single, atol=1e-14)

    def test_directed_edges_use_undirected_support(self):
        p = identity_gcn_params(1)
        x = np.array([[1.0], [2.0]])
        a_fwd = np.array([[0.0, 1.0], [0.0, 0.0]])
        a_rev = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            gcn_forward(p, x, a_fwd, 1, x[1][None]), gcn_forward(p, x, a_rev, 1, x[1][None]),
            atol=1e-15,
        )


class TestScoreEdges:
    def test_hand_computed_scalar_chain(self):
        # dim_hidden 1, mlp_hidden 1: omega = w3*relu(w2*relu(z.w1 + b1) + b2) + b3
        p = dataclasses.replace(
            tiny_params(d=1, h=1, m=1),
            mlp_w1=np.array([[0.5], [-1.0], [2.0]]),
            mlp_b1=np.array([0.1]),
            mlp_w2=np.array([[3.0]]),
            mlp_b2=np.array([-0.2]),
            mlp_w3=np.array([[-2.0]]),
            mlp_b3=np.array([0.25]),
        )
        h = np.array([[1.0], [2.0], [0.5]])  # nodes 0, 1; task = 2
        edge_index = np.array([[0, 1]])
        inner = max(1.0 * 0.5 + 2.0 * -1.0 + 0.5 * 2.0 + 0.1, 0.0)  # 0.0 after relu? -0.4 -> 0
        mid = max(3.0 * inner - 0.2, 0.0)
        expect = -2.0 * mid + 0.25
        got = score_edges(p, h, edge_index, task_index=2)
        np.testing.assert_allclose(got, [expect], atol=1e-15)

    def test_batched_scores_match_single(self):
        rng = np.random.default_rng(2)
        p = tiny_params(d=3, h=4, m=5, seed=9)
        hb = rng.normal(size=(4, 6, 4))
        edges = np.array([[0, 1], [2, 3], [1, 4]])
        out = score_edges(p, hb, edges, task_index=5)
        assert out.shape == (4, 3)
        for k in range(4):
            np.testing.assert_allclose(out[k], score_edges(p, hb[k], edges, 5), atol=1e-14)


# ---------------------------------------------------------------------------
# Relaxation and loss
# ---------------------------------------------------------------------------


class TestGumbelSigmoid:
    def test_inference_bypasses_noise(self):
        omega = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(gumbel_sigmoid(omega), sigmoid(omega), atol=0)
        assert gumbel_sigmoid(np.array([0.0]))[0] == 0.5

    def test_lower_temperature_sharpens(self):
        omega = np.array([-2.0, -0.5, 0.5, 2.0])
        soft = np.abs(gumbel_sigmoid(omega, tau=1.0) - 0.5)
        sharp = np.abs(gumbel_sigmoid(omega, tau=0.25) - 0.5)
        assert np.all(sharp > soft)

    def test_noise_is_applied_before_temperature(self):
        omega = np.array([0.3])
        noise = np.array([0.7])
        np.testing.assert_allclose(
            gumbel_sigmoid(omega, tau=2.0, noise=noise), sigmoid(np.array([0.5])), atol=1e-15
        )

    def test_seeded_noise_is_reproducible(self):
        g1 = gumbel_noise(np.random.default_rng(5), (3, 4))
        g2 = gumbel_noise(np.random.default_rng(5), (3, 4))
        np.testing.assert_array_equal(g1, g2)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DataError):
            gumbel_sigmoid(np.array([0.0]), tau=0.0)


class TestSigmoid:
    def test_matches_scipy_expit_within_four_eps(self):
        expit = pytest.importorskip("scipy.special").expit
        x = np.concatenate([
            np.linspace(-709.0, 709.0, 200_001),
            np.random.default_rng(0).normal(scale=4.0, size=200_000),
        ])
        np.testing.assert_allclose(sigmoid(x), expit(x), rtol=4 * np.finfo(float).eps, atol=0)

    def test_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_importing_opflow_loads_no_scipy(self):
        code = "import sys, opflow; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout == "[]\n"


def test_declared_dependencies_are_the_imported_modules():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0] for dep in project["dependencies"]}
    imported = set()
    for path in (root / "src" / "opflow").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert declared == imported - set(sys.stdlib_module_names)


class TestBCELoss:
    def test_coin_flip_scores_give_ln2(self):
        loss = bce_loss(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_perfect_scores_clamp_bounded(self):
        loss = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert 0.0 < loss <= 1e-6

    def test_batch_mean_of_edge_means(self):
        scores = np.array([[0.9, 0.1], [0.5, 0.5]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        per_sample = [
            -(math.log(0.9) + math.log(0.9)) / 2.0,
            -(math.log(0.5) + math.log(0.5)) / 2.0,
        ]
        assert abs(bce_loss(scores, labels) - sum(per_sample) / 2.0) < 1e-12


# ---------------------------------------------------------------------------
# Gradients vs central finite differences
# ---------------------------------------------------------------------------


def random_instance(seed: int, batch: int = 1):
    rng = np.random.default_rng(seed)
    v = int(rng.integers(3, 9))
    d, h, m = 4, 5, 6
    p = init_params(dim_in=d, dim_hidden=h, mlp_hidden=m, seed=seed + 1)
    # Jitter the biases: zero biases can park a dead ReLU row exactly on the
    # kink, where central differences measure the kink rather than the
    # gradient.
    for name in ("mlp_b1", "mlp_b2", "mlp_b3"):
        arr = getattr(p, name)
        arr += rng.normal(scale=0.05, size=arr.shape)
    x = rng.normal(size=(v, d))
    task_rows = rng.normal(size=(batch, d)) if batch > 1 else x[v - 1][None]
    a = (rng.random((v, v)) < 0.4).astype(float)
    np.fill_diagonal(a, 0.0)
    pairs = [(i, j) for i in range(v - 1) for j in range(v - 1) if i != j]
    take = rng.choice(len(pairs), size=min(len(pairs), 5), replace=False)
    edge_index = np.array([pairs[int(t)] for t in take])
    e = len(edge_index)
    labels = rng.integers(0, 2, size=(batch, e)).astype(float)
    noise = rng.gumbel(size=(batch, e))
    return p, x, a, edge_index, v - 1, labels, noise, task_rows


def einsum_reference_backward(cache) -> dict[str, np.ndarray]:
    """The backward pass of ``dense_forward`` written with ``np.einsum``
    contractions and ``np.add.at`` scatters: slow, but each line is the
    textbook formula."""
    p = cache.params
    b, n_edges = cache.omega.shape
    h = p.dim_hidden
    sc = np.clip(cache.scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    d_omega = (sc - cache.labels) / (n_edges * b) / cache.tau

    grads = {}
    grads["mlp_w3"] = np.einsum("bem,be->m", cache.a2, d_omega)[:, None]
    grads["mlp_b3"] = np.array([d_omega.sum()])
    d_p2 = d_omega[..., None] * p.mlp_w3[:, 0] * (cache.p2 > 0)
    grads["mlp_w2"] = np.einsum("bem,ben->mn", cache.a1, d_p2)
    grads["mlp_b2"] = d_p2.sum(axis=(0, 1))
    d_p1 = (d_p2 @ p.mlp_w2.T) * (cache.p1 > 0)
    grads["mlp_w1"] = np.einsum("bek,bem->km", cache.zc, d_p1)
    grads["mlp_b1"] = d_p1.sum(axis=(0, 1))
    d_zc = d_p1 @ p.mlp_w1.T

    d_h2 = np.zeros_like(cache.h2)
    np.add.at(d_h2, (slice(None), cache.edge_index[:, 0]), d_zc[:, :, :h])
    np.add.at(d_h2, (slice(None), cache.edge_index[:, 1]), d_zc[:, :, h : 2 * h])
    d_h2[:, cache.task_index, :] += d_zc[:, :, 2 * h :].sum(axis=1)

    d_z2 = d_h2 * (cache.z2 > 0)
    grads["gcn_w2"] = np.einsum("bvh,bvk->hk", cache.m2, d_z2)
    d_z1 = (cache.s.T @ (d_z2 @ p.gcn_w2.T)) * (cache.z1 > 0)
    grads["gcn_w1"] = np.einsum("bvd,bvh->dh", cache.m1, d_z1)
    return grads


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_finite_differences(self, seed):
        p, x, a, edges, task, labels, noise, rows = random_instance(seed)
        args = (x, a, edges, task, labels)
        _, cache = forward_loss(p, *args, task_rows=rows, tau=1.0, noise=noise)
        analytic = backward(cache)

        def loss_fn(q):
            return forward_loss(q, *args, task_rows=rows, tau=1.0, noise=noise)[0]

        numeric = finite_difference_grads(loss_fn, p, step=1e-4)
        assert max_relative_gradient_error(analytic, numeric) <= 1e-4

    def test_matches_fd_with_temperature_and_batch(self):
        p, x, a, edges, task, labels, noise, rows = random_instance(17, batch=3)
        args = (x, a, edges, task, labels)
        _, cache = forward_loss(p, *args, task_rows=rows, tau=0.7, noise=noise)
        analytic = backward(cache)

        def loss_fn(q):
            return forward_loss(q, *args, task_rows=rows, tau=0.7, noise=noise)[0]

        numeric = finite_difference_grads(loss_fn, p, step=1e-4)
        assert max_relative_gradient_error(analytic, numeric) <= 1e-4

    def test_duplicated_sample_leaves_mean_gradient_unchanged(self):
        p, x, a, edges, task, labels, noise, rows = random_instance(23)
        _, cache1 = forward_loss(p, x, a, edges, task, labels, task_rows=rows, noise=noise)
        g1 = backward(cache1)
        rows2, labels2, noise2 = (np.concatenate([v, v]) for v in (rows, labels, noise))
        _, cache2 = forward_loss(p, x, a, edges, task, labels2, task_rows=rows2, noise=noise2)
        g2 = backward(cache2)
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-14)

    def test_matches_einsum_scatter_reference(self):
        # Batched, with candidate edges sharing sources (0, 2) and
        # destinations (3, 1): a scatter that drops or double-counts a
        # duplicate index moves a gradient far beyond float rounding, which
        # the finite-difference tolerance above could miss.
        rng = np.random.default_rng(101)
        b, v = 4, 7
        p = init_params(dim_in=5, dim_hidden=6, mlp_hidden=4, seed=13)
        for name in ("mlp_b1", "mlp_b2", "mlp_b3"):
            arr = getattr(p, name)
            arr += rng.normal(scale=0.05, size=arr.shape)
        x = rng.normal(size=(v, 5))
        rows = rng.normal(size=(b, 5))
        a = (rng.random((v, v)) < 0.4).astype(float)
        np.fill_diagonal(a, 0.0)
        edges = np.array([[0, 1], [0, 3], [0, 4], [2, 3], [5, 3], [2, 1], [4, 5]])
        labels = rng.integers(0, 2, size=(b, len(edges))).astype(float)
        noise = rng.gumbel(size=(b, len(edges)))
        _, cache = forward_loss(p, x, a, edges, 6, labels, task_rows=rows, tau=0.8, noise=noise)
        got = backward(cache)
        _, dense = dense_forward(
            p, dense_features(x, 6, rows), a, edges, 6, labels, tau=0.8, noise=noise
        )
        want = einsum_reference_backward(dense)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].shape == want[name].shape
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=0, err_msg=name)

    def test_saturated_scores_give_clamp_scale_gradients(self):
        # Drive omega hugely positive on a label-1 edge: the clamp leaves only
        # a ~1e-7-scale residual gradient signal.
        p, x, a, edges, task, labels, _, rows = random_instance(31)
        p = dataclasses.replace(p, mlp_b3=np.array([60.0]))
        labels = np.ones_like(labels)
        _, cache = forward_loss(p, x, a, edges, task, labels, task_rows=rows)
        grads = backward(cache)
        worst = max(np.max(np.abs(g)) for g in grads.values())
        assert worst <= 1e-6


class TestOneSetOfActivations:
    """``backward`` reads its ReLU masks off the cached outputs, multiplies
    them into its gradients in place and drops each (B, E, M) and (B, V, .)
    gradient after its last reader."""

    def test_backward_leaves_the_cache_unchanged_and_repeats_bitwise(self):
        p, x, a, edges, task, rows, labels, noise = dead_unit_instance(0, 3)
        _, cache = forward_loss(p, x, a, edges, task, labels, task_rows=rows, tau=0.8, noise=noise)
        arrays = {
            f.name: getattr(cache, f.name)
            for f in dataclasses.fields(cache)
            if isinstance(getattr(cache, f.name), np.ndarray)
        }
        arrays.update(p.arrays())
        before = {name: arr.copy() for name, arr in arrays.items()}
        first, second = backward(cache), backward(cache)
        for name, arr in arrays.items():
            assert arr.tobytes() == before[name].tobytes(), name
        assert first.keys() == second.keys()
        for name in first:
            assert first[name].tobytes() == second[name].tobytes(), name

    def test_relu_output_mask_is_the_input_mask(self):
        z = np.array([np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.0, -2.0])
        np.testing.assert_array_equal(np.maximum(z, 0.0) > 0, z > 0)

    def test_one_step_holds_one_set_of_activations(self, planted_default):
        # One forward_loss plus backward at B = 64 on the planted corpus, with
        # the default widths (H 256, M 128) and no workspace: measured 17.8
        # MiB, and the bound leaves 29% on top.  Keeping backward's ten
        # gradients bound to the end, as a plain write-up does, read 34.4 MiB.
        from opflow import construct

        graph, samples = planted_default.graph, planted_default.samples[:64]
        inputs = construct._model_inputs(graph)
        labels = np.stack([construct.build_labels(graph, s.workflow) for s in samples])
        rows = np.stack([construct._EMBEDDER.embed_text(s.task_text) for s in samples])
        noise = np.random.default_rng(0).gumbel(size=labels.shape)
        p = init_params(seed=0)

        def step():
            _, cache = forward_loss(
                p, inputs.base_x, inputs.adjacency, inputs.edge_index, inputs.task_index, labels,
                task_rows=rows, noise=noise,
            )
            backward(cache)

        assert traced_peak_mib(step) <= 23.0


def row_normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """Mean aggregation ``D^-1 (A + I)``: a propagation matrix that is not
    symmetric, so a row taken for a column cannot cancel out."""
    u = ((a + a.T) > 0).astype(np.float64)
    np.fill_diagonal(u, 1.0)
    return u / u.sum(axis=1, keepdims=True)


class TestFoldMatchesDense:
    """``forward_loss``/``backward`` (GCN layer 1 as a shared product plus a
    rank-1 task term, edge MLP layer 1 split per node) against the dense
    per-sample forward and the einsum/``add.at`` backward."""

    @pytest.mark.parametrize("support", ["symmetric", "row-normalized"])
    @pytest.mark.parametrize("task_linked", [True, False])
    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_and_gradients_match(self, monkeypatch, support, task_linked, batch, seed):
        if support == "row-normalized":
            monkeypatch.setattr(nn, "normalized_adjacency", row_normalized_adjacency)
        rng = np.random.default_rng(500 + seed)
        v, d = int(rng.integers(4, 9)), 5
        task = v - 1
        p = init_params(dim_in=d, dim_hidden=6, mlp_hidden=4, seed=seed)
        for name in ("mlp_b1", "mlp_b2", "mlp_b3"):
            getattr(p, name)[...] += rng.normal(scale=0.05, size=getattr(p, name).shape)
        x = rng.normal(size=(v, d))  # a non-zero task row, which task_rows replaces
        a = (rng.random((v, v)) < 0.4).astype(float)
        np.fill_diagonal(a, 0.0)
        a[task], a[:, task] = 0.0, 0.0
        if task_linked:
            a[task, 0] = 1.0
        # Twice as many edges as operations: sources and destinations repeat.
        edges = rng.integers(0, task, size=(2 * task, 2))
        # batch None: one sample whose task row is x's own.
        rows = x[task][None] if batch is None else rng.normal(size=(batch, d))
        labels = rng.integers(0, 2, size=(len(rows), len(edges))).astype(float)
        noise = rng.gumbel(size=(len(rows), len(edges)))

        loss, cache = forward_loss(
            p, x, a, edges, task, labels, task_rows=rows, tau=0.8, noise=noise
        )
        got = backward(cache)
        want_loss, dense = dense_forward(
            p, dense_features(x, task, rows), a, edges, task, labels, tau=0.8, noise=noise
        )
        want = einsum_reference_backward(dense)

        assert loss == pytest.approx(want_loss, rel=FOLD_RTOL, abs=0)
        np.testing.assert_allclose(cache.scores, dense.scores, rtol=FOLD_RTOL, atol=0)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].shape == want[name].shape, name
            scale = np.max(np.abs(want[name]))
            assert scale > 0, name
            assert np.max(np.abs(got[name] - want[name])) <= FOLD_RTOL * scale, name


def serving_instance(seed: int):
    """Read-only graph inputs with a task row that the task rows replace, as
    ``construct._ModelInputs`` hands them to the serving forward."""
    rng = np.random.default_rng(700 + seed)
    v, d = int(rng.integers(4, 10)), 5
    task = v - 1
    p = init_params(dim_in=d, dim_hidden=8, mlp_hidden=8, seed=seed)
    for name in ("mlp_b1", "mlp_b2", "mlp_b3"):
        getattr(p, name)[...] += rng.normal(scale=0.05, size=getattr(p, name).shape)
    x = rng.normal(size=(v, d))
    a = (rng.random((v, v)) < 0.4).astype(float)
    np.fill_diagonal(a, 0.0)
    a[task, : int(rng.integers(1, task + 1))] = 1.0
    edges = rng.integers(0, task, size=(2 * task, 2))
    rows = rng.normal(size=(int(rng.integers(1, 4)), d))
    for array in (x, a):
        array.setflags(write=False)
    return p, x, a, edges, task, rows


def served_logits(p, x, a, edges, task, rows):
    return score_edges(p, gcn_forward(p, x, a, task, rows), edges, task)


def dead_unit_instance(seed: int, batch: int):
    """Inputs and params that leave all-zero input columns at every weight
    product: feature buckets that no op or task row fills, GCN units held
    negative by non-positive weights on non-negative inputs, and edge-MLP
    units held negative by their bias."""
    rng = np.random.default_rng(900 + seed)
    v, d = int(rng.integers(5, 9)), 8
    task = v - 1
    p = init_params(dim_in=d, dim_hidden=8, mlp_hidden=6, seed=seed)
    for name in ("mlp_b1", "mlp_b2", "mlp_b3"):
        getattr(p, name)[...] += rng.normal(scale=0.05, size=getattr(p, name).shape)
    x = np.abs(rng.normal(size=(v, d)))
    rows = np.abs(rng.normal(size=(batch, d)))
    x[:, :3] = 0.0  # buckets 0-2 empty for every op, 2-4 for every task row
    rows[:, 2:5] = 0.0
    p.gcn_w1[:, :3] = -np.abs(p.gcn_w1[:, :3])  # GCN layer-1 units 0-2 never fire
    p.gcn_w2[:, :2] = -np.abs(p.gcn_w2[:, :2])  # GCN layer-2 units 0-1 never fire
    p.mlp_b1[:2] = p.mlp_b2[:2] = -50.0  # edge-MLP units 0-1 of both layers never fire
    a = (rng.random((v, v)) < 0.4).astype(float)
    np.fill_diagonal(a, 0.0)
    a[task, : int(rng.integers(1, task + 1))] = 1.0
    edges = rng.integers(0, task, size=(2 * task, 2))
    labels = rng.integers(0, 2, size=(batch, len(edges))).astype(float)
    noise = rng.gumbel(size=(batch, len(edges)))
    for array in (x, a):
        array.setflags(write=False)
    return p, x, a, edges, task, rows, labels, noise


class TestServingFold:
    """``gcn_forward`` with task rows and ``score_edges`` (the folded forward,
    memoized for read-only params) against the dense per-sample forward."""

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_scores_match_dense(self, read_only, seed):
        p, x, a, edges, task, rows = serving_instance(seed)
        if read_only:
            p = p.read_only()
        labels = np.zeros((len(rows), len(edges)))
        _, dense = dense_forward(p, dense_features(x, task, rows), a, edges, task, labels)
        for _ in range(2):  # with read-only params the second call is a memo hit
            scores = gumbel_sigmoid(served_logits(p, x, a, edges, task, rows))
            np.testing.assert_allclose(scores, dense.scores, rtol=FOLD_RTOL, atol=0)
        assert (p._memo is not None) == read_only

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])  # one task row takes BLAS's vector path
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scores_with_dead_units_match_dense(self, read_only, batch, seed):
        p, x, a, edges, task, rows, labels, _ = dead_unit_instance(seed, batch)
        _, dense = dense_forward(p, dense_features(x, task, rows), a, edges, task, labels)
        if read_only:
            p = p.read_only()
        for _ in range(2):  # with read-only params the second call is a memo hit
            scores = gumbel_sigmoid(served_logits(p, x, a, edges, task, rows))
            np.testing.assert_allclose(scores, dense.scores, rtol=FOLD_RTOL, atol=0)

    def test_memo_gives_bitwise_the_unmemoized_scores(self):
        p, x, a, edges, task, rows = serving_instance(4)
        frozen = p.read_only()
        want = served_logits(p, x, a, edges, task, rows)
        for _ in range(3):
            assert np.array_equal(served_logits(frozen, x, a, edges, task, rows), want)
        # Other graph inputs replace the memoized ones, and coming back recomputes them.
        _, x2, a2, edges2, task2, rows2 = serving_instance(5)
        other = served_logits(p, x2, a2, edges2, task2, rows2)
        assert np.array_equal(served_logits(frozen, x2, a2, edges2, task2, rows2), other)
        assert np.array_equal(served_logits(frozen, x, a, edges, task, rows), want)

    def test_writable_params_leave_no_memo_entry(self):
        p, x, a, edges, task, rows = serving_instance(7)
        served_logits(p, x, a, edges, task, rows)
        assert p._memo is None
        p.gcn_w1.setflags(write=False)  # read-only, yet it could be made writable again
        p = dataclasses.replace(p)
        served_logits(p, x, a, edges, task, rows)
        assert p._memo is None

    @pytest.mark.parametrize("read_only", [False, True])
    def test_fields_cannot_be_rebound(self, read_only):
        p = serving_instance(6)[0]
        if read_only:
            p = p.read_only()
        for field in dataclasses.fields(ModelParams):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field.name, getattr(p, field.name))

    def test_pair_weights_are_built_once_per_params(self, monkeypatch):
        p, x, a, edges, task, rows = serving_instance(8)
        p = p.read_only()
        calls = []
        real = nn._pair_weights
        monkeypatch.setattr(nn, "_pair_weights", lambda *args: calls.append(args) or real(*args))
        want = served_logits(p, x, a, edges, task, rows)
        for _ in range(3):
            assert np.array_equal(served_logits(p, x, a, edges, task, rows), want)
        assert len(calls) == 1

    def test_replaced_params_get_a_memo_of_their_own(self):
        p, x, a, edges, task, rows = serving_instance(9)
        p = p.read_only()
        want = served_logits(p, x, a, edges, task, rows)
        fresh = dataclasses.replace(p)
        assert "_memo" not in vars(fresh)
        assert np.array_equal(served_logits(fresh, x, a, edges, task, rows), want)
        assert fresh._memo is not None and fresh._memo is not p._memo

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_a_copy_leaves_the_memo_behind(self, how):
        p, x, a, edges, task, rows = serving_instance(10)
        p = p.read_only()
        served_logits(p, x, a, edges, task, rows)
        assert p._memo is not None
        clone = copy.deepcopy(p) if how == "deepcopy" else pickle.loads(pickle.dumps(p))
        assert "_memo" not in vars(clone)
        assert np.array_equal(served_logits(clone, x, a, edges, task, rows), served_logits(p, x, a, edges, task, rows))
        for name in ("gcn_w1", "mlp_w1"):
            getattr(clone, name)[...] *= -0.5  # the copy's arrays are writable
        changed = served_logits(clone, x, a, edges, task, rows)
        assert not np.array_equal(changed, served_logits(p, x, a, edges, task, rows))
        assert np.array_equal(changed, served_logits(clone.copy(), x, a, edges, task, rows))
        assert clone._memo is None


# ---------------------------------------------------------------------------
# Products that skip all-zero input columns
# ---------------------------------------------------------------------------


class TestDeadUnits:
    """The training fold, whose weight products skip input columns that are
    zero in every row, against the dense forward and the einsum backward on
    inputs where many columns are zero (``TestServingFold`` serves them too)."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_instance_has_dead_and_live_columns_at_every_site(self, batch, seed):
        p, x, a, edges, task, rows, labels, noise = dead_unit_instance(seed, batch)
        _, cache = forward_loss(p, x, a, edges, task, labels, task_rows=rows, noise=noise)
        inputs = {
            "x0": (cache.x0, slice(0, 3)), "task_rows": (rows, slice(2, 5)),
            "m2": (cache.m2, slice(0, 3)), "h2": (cache.h2, slice(0, 2)),
            "a1": (cache.a1, slice(0, 2)), "a2": (cache.a2, slice(0, 2)),
        }
        for name, (arr, forced) in inputs.items():
            dead = ~nn._rows(arr).any(axis=0)
            assert dead[forced].all() and not dead.all(), name

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_and_gradients_match_einsum_reference(self, batch, seed):
        p, x, a, edges, task, rows, labels, noise = dead_unit_instance(seed, batch)
        loss, cache = forward_loss(p, x, a, edges, task, labels, task_rows=rows, tau=0.8, noise=noise)
        got = backward(cache)
        want_loss, dense = dense_forward(
            p, dense_features(x, task, rows), a, edges, task, labels, tau=0.8, noise=noise
        )
        want = einsum_reference_backward(dense)
        assert loss == pytest.approx(want_loss, rel=FOLD_RTOL, abs=0)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].shape == want[name].shape, name
            scale = np.max(np.abs(want[name]))
            assert scale > 0, name
            assert np.max(np.abs(got[name] - want[name])) <= FOLD_RTOL * scale, name
        # A dead unit's weights get no gradient; the skipped block stays exactly 0.
        assert not got["gcn_w2"][:3].any() and not got["mlp_w2"][:2].any()


class TestLiveColumnProducts:
    def test_no_dead_column_is_bitwise_the_plain_product(self):
        rng = np.random.default_rng(0)
        a, w = rng.normal(size=(3, 4, 6)), rng.normal(size=(6, 5))
        assert np.array_equal(nn._times(a, w), (a.reshape(-1, 6) @ w).reshape(3, 4, 5))
        x, dy = rng.normal(size=(7, 6)), rng.normal(size=(7, 5))
        assert np.array_equal(nn._outer(x, dy), x.T @ dy)

    def test_every_column_dead_gives_exact_zeros(self):
        rng = np.random.default_rng(1)
        for shape in [(3, 4, 6), (1, 6), (6,)]:
            got = nn._times(np.zeros(shape), rng.normal(size=(6, 5)))
            assert got.shape == shape[:-1] + (5,) and not got.any()
        for x, dy in [(np.zeros((7, 6)), rng.normal(size=(7, 5))), (rng.normal(size=(7, 6)), np.zeros((7, 5)))]:
            got = nn._outer(x, dy)
            assert got.shape == (6, 5) and not got.any()

    def test_skips_only_columns_zero_in_every_row(self):
        rng = np.random.default_rng(2)
        a, w = rng.normal(size=(4, 6)), rng.normal(size=(6, 5))
        a[:, [1, 4]] = 0.0
        a[0, 3] = 0.0  # zero in one row only: column 3 stays live
        want = a @ w
        np.testing.assert_allclose(nn._times(a, w), want, rtol=1e-14, atol=1e-15)
        w[[1, 4]] = np.inf  # rows only dead columns meet are never read
        np.testing.assert_allclose(nn._times(a, w), want, rtol=1e-14, atol=1e-15)
        dy = rng.normal(size=(4, 3))
        dy[:, 0] = 0.0
        got = nn._outer(a, dy)
        np.testing.assert_allclose(got, a.T @ dy, rtol=1e-14, atol=1e-15)
        assert not got[[1, 4]].any() and not got[:, 0].any()
        a[2, 1] = np.nan  # NaN is nonzero: its column is live and spreads as in a @ w
        with np.errstate(invalid="ignore"):
            assert np.isnan(nn._times(a, w)[2]).all()


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def scalar_param(value: float) -> ModelParams:
    p = tiny_params(d=1, h=1, m=1, seed=0)
    for arr in p.arrays().values():
        arr[...] = 0.0
    p.gcn_w1[...] = value
    return p


class TestAdamW:
    def test_first_step_without_decay(self):
        p = scalar_param(1.0)
        grads = {k: np.zeros_like(a) for k, a in p.arrays().items()}
        grads["gcn_w1"] = np.array([[1.0]])
        state = adamw_init(p)
        adamw_step(p, grads, state, lr=1e-4, weight_decay=0.0)
        # m_hat = v_hat = 1 exactly after bias correction at t=1.
        expect = 1.0 - 1e-4 * (1.0 / (1.0 + 1e-8))
        assert abs(p.gcn_w1[0, 0] - expect) < 1e-18
        assert state.t == 1

    def test_decay_is_decoupled_from_gradient(self):
        p = scalar_param(2.0)
        grads = {k: np.zeros_like(a) for k, a in p.arrays().items()}
        state = adamw_init(p)
        adamw_step(p, grads, state, lr=1e-4, weight_decay=1e-2)
        # Zero gradient: the only movement is lr * wd * theta.
        assert abs(p.gcn_w1[0, 0] - (2.0 - 1e-4 * 1e-2 * 2.0)) < 1e-18

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(77)
        results = []
        for _ in range(2):
            p = init_params(dim_in=3, dim_hidden=4, mlp_hidden=5, seed=1)
            state = adamw_init(p)
            g_rng = np.random.default_rng(88)
            for _ in range(5):
                grads = {k: g_rng.normal(size=a.shape) for k, a in p.arrays().items()}
                adamw_step(p, grads, state)
            results.append({k: a.copy() for k, a in p.arrays().items()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_descends_a_quadratic(self):
        p = scalar_param(1.0)
        state = adamw_init(p)
        for _ in range(2000):
            grads = {k: np.zeros_like(a) for k, a in p.arrays().items()}
            grads["gcn_w1"] = np.array([[2.0 * p.gcn_w1[0, 0]]])
            adamw_step(p, grads, state, lr=1e-2, weight_decay=0.0)
        assert abs(p.gcn_w1[0, 0]) < 1e-3


# ---------------------------------------------------------------------------
# Initialization and checkpoints
# ---------------------------------------------------------------------------


class TestInitParams:
    def test_glorot_bounds_and_zero_biases(self):
        p = init_params(dim_in=384, dim_hidden=256, mlp_hidden=128, seed=1)
        limit1 = math.sqrt(6.0 / (384 + 256))
        assert np.max(np.abs(p.gcn_w1)) <= limit1
        assert np.abs(np.mean(p.gcn_w1)) < limit1 / 20
        assert np.all(p.mlp_b1 == 0) and np.all(p.mlp_b3 == 0)
        assert p.gcn_w1.dtype == np.float64

    def test_seed_controls_draws(self):
        a = init_params(dim_in=8, dim_hidden=4, mlp_hidden=4, seed=5)
        b = init_params(dim_in=8, dim_hidden=4, mlp_hidden=4, seed=5)
        c = init_params(dim_in=8, dim_hidden=4, mlp_hidden=4, seed=6)
        np.testing.assert_array_equal(a.gcn_w1, b.gcn_w1)
        assert not np.array_equal(a.gcn_w1, c.gcn_w1)

    @pytest.mark.parametrize("value", [True, 2.5, "3", None, -1, 0])
    @pytest.mark.parametrize("name", ["dim_in", "dim_hidden", "mlp_hidden", "seed"])
    def test_sizes_and_seed_must_be_whole_numbers_in_range(self, name, value):
        small = {"dim_in": 3, "dim_hidden": 2, "mlp_hidden": 2, "seed": 0}
        if not (name == "seed" and value == 0):
            with pytest.raises(DataError, match=name):
                init_params(**small | {name: value})
        p = init_params(**small | {name: np.int64(3)})
        np.testing.assert_array_equal(p.gcn_w1, init_params(**small | {name: 3}).gcn_w1)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        p = init_params(dim_in=12, dim_hidden=7, mlp_hidden=5, seed=99)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, seed=1234)
        loaded, seed = load_checkpoint(path)
        assert seed == 1234
        assert (loaded.dim_in, loaded.dim_hidden, loaded.mlp_hidden) == (12, 7, 5)
        for name, arr in p.arrays().items():
            np.testing.assert_array_equal(arr, loaded.arrays()[name])
        save_checkpoint(tmp_path / "again.ckpt", loaded, seed=1234)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_failed_save_leaves_the_earlier_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(dim_in=12, dim_hidden=7, mlp_hidden=5, seed=1), seed=1)
        before = path.read_bytes()

        class FailingArray:  # fails once the header and seven arrays are written
            ndim, shape = 1, (1,)

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        p = dataclasses.replace(init_params(dim_in=12, dim_hidden=7, mlp_hidden=5, seed=2), mlp_b3=FailingArray())
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, p, seed=2)
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() == before

    def test_save_syncs_the_whole_file_before_the_swap(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):  # a file by its size, its directory by its path
            st = os.fstat(fd)
            calls.append(("fsync", tmp_path if os.path.samestat(st, os.stat(tmp_path)) else st.st_size))
            real_fsync(fd)

        def replace_file(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace_file)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(dim_in=3, dim_hidden=2, mlp_hidden=2), seed=0)
        assert calls == [
            ("fsync", path.stat().st_size), ("replace", ".model.ckpt.tmp", "model.ckpt"), ("fsync", tmp_path)
        ]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", ["header", "shapes", "payload"])
    def test_truncated_file_is_data_error(self, tmp_path, cut):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(dim_in=3, dim_hidden=2, mlp_hidden=2), seed=0)
        raw = path.read_bytes()
        header = 4 + struct.calcsize("<IIIIQI")
        path.write_bytes(raw[: {"header": 10, "shapes": header + 6, "payload": len(raw) - 3}[cut]])
        with pytest.raises(DataError, match=f"truncated.*{cut}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "offset, value, message",
        [(28, 0xFFFFFFFF, "expected 8 arrays"), (32, 0xFFFFFFFF, "truncated.*shapes")],
    )
    def test_corrupt_counts_are_data_errors(self, tmp_path, offset, value, message):
        # offset 28 is the array count, 32 the first array's ndim.
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(dim_in=3, dim_hidden=2, mlp_hidden=2), seed=0)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gcn_w2", "mlp_w2"])
    def test_non_finite_parameter_is_data_error(self, tmp_path, name, value):
        p = init_params(dim_in=3, dim_hidden=4, mlp_hidden=4, seed=0)
        getattr(p, name)[2, 1] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, seed=0)
        with pytest.raises(DataError, match=f"'{name}'.*NaN or infinite"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        p = init_params(dim_in=2, dim_hidden=2, mlp_hidden=2, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, seed=0)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataError):
            load_checkpoint(path)
