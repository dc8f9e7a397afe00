"""Acceptance gate: one test per quantitative requirement, in order.

Each test prints a single visible ``[PASS]``/``[FAIL]`` line (bypassing
pytest's capture) with the measured values, then asserts the gate.  The slow
shared fixtures (planted corpus, both training runs) live in conftest.py.

Requirement 8 is expected to FAIL: at the pinned training configuration
(20 epochs, batch 64, learning rate 1e-4, decoupled weight decay 1e-2,
seeded uniform fan-balanced init, unit-norm hashed features) the optimizer's
total parameter movement is bounded by learning_rate x steps = 0.016 per
coordinate over the 160 available steps, roughly two orders of magnitude
short of the logit swing the gate needs.  The test trains faithfully at the
pinned configuration, reports the measured numbers, and fails honestly; a
control run at learning rate 1e-2 on the same pipeline passes the same
gates (reported alongside) showing the implementation, not the math, is
sound.  See README, "Known acceptance failure".
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from opflow.construct import (
    DecodeConfig,
    edge_f1,
    generate,
    generate_synthetic_corpus,
    save_samples,
)
from opflow.graph import (
    condition_on_task,
    merge_workflows,
    parse_workflow,
    serialize_workflow,
)
from opflow.harness import ablate_pruning, make_workload, run_serving_sim, sweep_batch_sizes
from opflow.kvstore import CacheStore, read_delta, read_kv, sparsify, write_delta, write_kv
from opflow.nn import (
    backward,
    forward_loss,
    gcn_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from opflow.oracle import KVOracle, KVTensor, OracleConfig
from opflow.pruning import PlanPolicy, write_trace_log

from conftest import (
    doc_json,
    finite_difference_grads,
    make_workflow_doc,
    max_relative_gradient_error,
)


def _report(capsys, name: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}", flush=True)


def _chain_doc(chain_id: int, length: int, rng: np.random.Generator) -> dict:
    """A linear workflow whose instructions are unique random word strings."""
    ids = [f"C{chain_id:02d}_OP{i}" for i in range(length)]
    ops = {}
    for i, op_id in enumerate(ids):
        words = " ".join(f"w{int(w):03d}" for w in rng.integers(0, 240, size=6))
        ops[op_id] = f"chain {chain_id} step {i} {words}"
    edges = list(zip(ids, ids[1:]))
    return make_workflow_doc(f"WF_CHAIN_{chain_id:02d}", ops, edges)


@pytest.fixture(scope="module")
def chain_pairs():
    """25 eight-op chains -> exactly 200 (path, op) fetch pairs."""
    rng = np.random.default_rng(2024)
    workflows = [parse_workflow(doc_json(_chain_doc(c, 8, rng))) for c in range(25)]
    graph = merge_workflows(workflows)
    pairs = []
    for workflow in workflows:
        chain = [op for op, _ in workflow.edges] + [workflow.edges[-1][1]]
        pairs.append(((), chain[0]))
        for j in range(1, len(chain)):
            pairs.append((tuple(chain[:j]), chain[j]))
    assert len(pairs) == 200
    return graph, pairs


# ---------------------------------------------------------------------------
# 1-2: cache store vs oracle
# ---------------------------------------------------------------------------


def test_01_exact_decomposition_at_full_energy(chain_pairs, capsys):
    graph, pairs = chain_pairs
    oracle = KVOracle(OracleConfig())
    store = CacheStore(graph, "differential", oracle=oracle, energy_target=1.0)
    start = time.perf_counter()
    mismatches = 0
    for path, op_id in pairs:
        if path:
            store.insert_residual(path, op_id)
        kv, result = store.fetch(path, op_id)
        expect = oracle.stateful_segment(store.prefix_tokens(path), store.op_tokens(op_id))
        ok = (
            result.flag == "hit"
            and kv.keys.dtype == expect.keys.dtype
            and np.array_equal(kv.keys, expect.keys)
            and np.array_equal(kv.values, expect.values)
            and kv.position_offset == expect.position_offset
        )
        mismatches += 0 if ok else 1
    elapsed = time.perf_counter() - start
    passed = mismatches == 0 and elapsed < 30.0
    _report(
        capsys, "1 exact decomposition",
        passed, f"200 pairs, {mismatches} mismatches, {elapsed:.1f}s (< 30s)",
    )
    assert passed


def test_02_bounded_loss_at_95_percent_energy(chain_pairs, capsys):
    graph, pairs = chain_pairs
    oracle = KVOracle(OracleConfig())
    store = CacheStore(graph, "differential", oracle=oracle, energy_target=0.95)
    bound_scale = np.sqrt(0.05)
    worst = -np.inf
    checked = 0
    for path, op_id in pairs:
        if not path:
            continue
        store.insert_residual(path, op_id)
        kv, result = store.fetch(path, op_id)
        assert result.flag == "hit"
        full = oracle.stateful_segment(store.prefix_tokens(path), store.op_tokens(op_id))
        base = oracle.base_segment(store.op_tokens(op_id), len(store.prefix_tokens(path)))
        err = np.sqrt(
            np.sum((kv.keys.astype(np.float64) - full.keys) ** 2)
            + np.sum((kv.values.astype(np.float64) - full.values) ** 2)
        )
        delta_norm = np.sqrt(
            np.sum((full.keys.astype(np.float64) - base.keys) ** 2)
            + np.sum((full.values.astype(np.float64) - base.values) ** 2)
        )
        worst = max(worst, float(err - bound_scale * delta_norm))
        checked += 1
    passed = checked == 175 and worst <= 1e-6
    _report(
        capsys, "2 bounded loss at 95% energy",
        passed, f"{checked} pairs, worst excess over sqrt(0.05)*||delta|| = {worst:.3e} (<= 1e-6)",
    )
    assert passed


# ---------------------------------------------------------------------------
# 3-5: serving memory and pruning
# ---------------------------------------------------------------------------


def test_03_memory_dominance_and_reduction(planted_default, control_params, capsys):
    corpus = planted_default
    workload = make_workload(corpus, n_requests=50, seed=11, overlap=0.67)
    node_sets = [{op for edge in target for op in edge} for target in workload.targets]
    overlaps = [len(a & b) / len(a | b) for a, b in combinations(node_sets, 2)]
    mean_overlap = float(np.mean(overlaps))
    sizes = {
        mode: run_serving_sim(corpus.graph, control_params, workload, mode).memory.total_bytes
        for mode in ("stateless", "differential", "stateful")
    }
    ratio = sizes["differential"] / sizes["stateful"]
    passed = (
        mean_overlap >= 0.5
        and sizes["stateless"] <= sizes["differential"] <= sizes["stateful"]
        and sizes["differential"] <= 0.5 * sizes["stateful"]
    )
    _report(
        capsys, "3 memory dominance and reduction",
        passed,
        f"overlap {mean_overlap:.3f} (>= 0.5); "
        f"{sizes['stateless']} <= {sizes['differential']} <= {sizes['stateful']} bytes; "
        f"differential/stateful = {ratio:.3f} (gate <= 0.5, i.e. >= 2x reduction; "
        f"achieved {1 / ratio:.1f}x)",
    )
    assert passed


def test_04_batch_decoupling_slopes(planted_default, control_params, capsys):
    corpus = planted_default
    workload = make_workload(corpus, n_requests=50, seed=11, overlap=0.5)
    assert workload.batch_sizes == (10, 20, 30, 40, 50)
    sweep = sweep_batch_sizes(corpus.graph, control_params, workload)
    stateful = sweep.slope("stateful")
    differential = sweep.slope("differential")
    stateless = sweep.slope("stateless")
    passed = (
        stateful > 0
        and differential <= 0.25 * stateful
        and abs(stateless) < 0.01 * stateful
    )
    _report(
        capsys, "4 batch decoupling",
        passed,
        f"slopes bytes/request: stateful {stateful:.0f}, "
        f"differential {differential:.0f} (<= 0.25x), "
        f"stateless {stateless:.0f} (|.| < 1%x)",
    )
    assert passed


def test_05_pruning_on_zipf_traces(planted_default, control_params, capsys):
    corpus = planted_default
    workload = make_workload(
        corpus, n_requests=50, seed=11, overlap=0.5,
        distribution="zipf", ensure_coverage=False,
    )
    report = ablate_pruning(
        corpus.graph, control_params, workload, PlanPolicy(k=2), verify_fetches=True
    )
    passed = (
        report.bytes_pruned < report.bytes_unpruned
        and report.unpruned.verified is True
        and report.pruned.verified is True
    )
    _report(
        capsys, "5 pruning on skewed traces",
        passed,
        f"bytes {report.bytes_unpruned} -> {report.bytes_pruned} (strictly smaller); "
        f"fetch contracts verified in both runs: "
        f"{report.unpruned.verified}/{report.pruned.verified}",
    )
    assert passed


# ---------------------------------------------------------------------------
# 6-7: network correctness
# ---------------------------------------------------------------------------


def _reference_gcn(x, adj, w1, w2):
    """Independent longhand transcription of the two-layer propagation."""
    sym = ((adj + adj.T) > 0).astype(float)
    np.fill_diagonal(sym, 0.0)
    support = sym + np.eye(len(adj))
    degree = support.sum(axis=1)
    scale = 1.0 / np.sqrt(np.outer(degree, degree))
    s = support * scale
    h1 = np.maximum(s @ (x @ w1), 0.0)
    return np.maximum(s @ (h1 @ w2), 0.0)


def test_06_gcn_forward_and_equivariance(capsys):
    rng = np.random.default_rng(42)
    worst_forward = 0.0
    # Three-node hand instances: directed path, triangle, isolated last node.
    adjs = [
        np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float),
        np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float),
        np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float),
    ]
    for adj in adjs:
        params = init_params(dim_in=4, dim_hidden=5, seed=int(adj.sum()))
        x = rng.normal(size=(3, 4))
        expected = _reference_gcn(x, adj, params.gcn_w1, params.gcn_w2)
        # The served form: the last node's own row passed as the task row.
        got = gcn_forward(params, x, adj, 2, x[2][None])[0]
        worst_forward = max(worst_forward, float(np.max(np.abs(got - expected))))

    worst_perm = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 10))
        params = init_params(dim_in=4, dim_hidden=6, seed=trial)
        x = rng.normal(size=(n, 4))
        adj = (rng.random((n, n)) < 0.4).astype(float)
        np.fill_diagonal(adj, 0.0)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        task, row = n - 1, x[n - 1][None]  # the task index moves with the nodes
        h = gcn_forward(params, x, adj, task, row)[0]
        moved = int(np.argsort(perm)[task])
        h_permuted = gcn_forward(params, p @ x, p @ adj @ p.T, moved, row)[0]
        worst_perm = max(worst_perm, float(np.max(np.abs(p @ h - h_permuted))))

    passed = worst_forward <= 1e-10 and worst_perm <= 1e-10
    _report(
        capsys, "6 GCN forward and equivariance",
        passed,
        f"hand-instance max |diff| {worst_forward:.2e} (<= 1e-10); "
        f"equivariance over 100 graphs max |diff| {worst_perm:.2e} (<= 1e-10)",
    )
    assert passed


def test_07_gradient_fidelity(capsys):
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(3, 9))  # at most 8 nodes
        params = init_params(dim_in=4, dim_hidden=5, mlp_hidden=6, seed=trial)
        for name in ("mlp_b1", "mlp_b2", "mlp_b3"):
            getattr(params, name)[...] += rng.normal(scale=0.05, size=getattr(params, name).shape)
        x = rng.normal(size=(n, 4))
        adj = (rng.random((n, n)) < 0.5).astype(float)
        np.fill_diagonal(adj, 0.0)
        ops = n - 1  # last row plays the task node
        candidates = [(i, j) for i in range(ops) for j in range(ops) if i != j]
        take = rng.choice(len(candidates), size=min(len(candidates), 6), replace=False)
        edge_index = np.array([candidates[int(t)] for t in take])
        labels = rng.integers(0, 2, size=len(edge_index)).astype(float)
        noise = rng.gumbel(size=len(edge_index))

        # One sample whose task row is the task node's own.
        args = (x, adj, edge_index, ops, labels[None])
        _, cache = forward_loss(params, *args, task_rows=x[ops][None], tau=1.0, noise=noise[None])
        analytic = backward(cache)

        def loss_fn(q):
            return forward_loss(q, *args, task_rows=x[ops][None], tau=1.0, noise=noise[None])[0]

        numeric = finite_difference_grads(loss_fn, params, step=1e-4)
        worst = max(worst, max_relative_gradient_error(analytic, numeric))
    passed = worst <= 1e-4
    _report(
        capsys, "7 gradient fidelity",
        passed, f"20 instances, worst relative error {worst:.3e} (<= 1e-4)",
    )
    assert passed


# ---------------------------------------------------------------------------
# 8: the learning gate (expected honest failure; see module docstring)
# ---------------------------------------------------------------------------


def test_08_learning_on_planted_corpus(planted_default, default_training, control_training, capsys):
    corpus = planted_default
    result, elapsed = default_training
    initial, final = result.epoch_losses[0], result.epoch_losses[-1]
    ratio = final / initial
    held_out = list(corpus.samples[500:600])
    scores = [
        edge_f1(generate(corpus.graph, result.params, s.task_text).edges, s.workflow.edges)
        for s in held_out
    ]
    f1 = float(np.mean(scores))

    # Control at learning rate 1e-2, identical pipeline otherwise: shows the
    # implementation can learn this corpus when the step budget allows.
    control_ratio = control_training.epoch_losses[-1] / control_training.epoch_losses[0]
    control_f1 = float(
        np.mean([
            edge_f1(generate(corpus.graph, control_training.params, s.task_text).edges, s.workflow.edges)
            for s in held_out
        ])
    )

    passed = elapsed < 300.0 and ratio < 0.5 and f1 >= 0.9
    _report(
        capsys, "8 learning at the pinned configuration",
        passed,
        f"loss {initial:.4f} -> {final:.4f} (ratio {ratio:.3f}, gate < 0.5), "
        f"held-out edge-F1 {f1:.3f} (gate >= 0.9), {elapsed:.0f}s (< 300s). "
        f"[informational control @ lr=1e-2, not a substitute for the gate: "
        f"ratio {control_ratio:.3f}, F1 {control_f1:.3f}] "
        f"Expected failure: movement budget lr*steps = 1.6e-2/coordinate "
        f"cannot span the needed logit swing; see README.",
    )
    assert passed


# ---------------------------------------------------------------------------
# 9: structural validity
# ---------------------------------------------------------------------------


def test_09_structural_validity(planted_default, control_params, capsys):
    corpus = planted_default
    graph = corpus.graph
    candidate_edges = set(graph.edge_list)
    node_ids = set(graph.node_ids)
    param_sets = [init_params(seed=s) for s in range(4)] + [control_params]
    texts = [s.task_text for s in corpus.samples[:200]]
    decode = DecodeConfig(theta_min=0.5)
    bad = 0
    total = 0
    for params in param_sets:
        for text in texts:
            workflow = generate(graph, params, text, decode)
            total += 1
            g = nx.DiGraph()
            g.add_nodes_from(workflow.nodes)
            g.add_edges_from(workflow.edges)
            ok = (
                set(workflow.edges) <= candidate_edges
                and set(workflow.nodes) <= node_ids
                and nx.is_directed_acyclic_graph(g)
                and (len(workflow.nodes) <= 1 or nx.is_weakly_connected(g))
            )
            bad += 0 if ok else 1

    count_violations = 0
    rng = np.random.default_rng(5)
    for n in range(1, 51):
        ids = {f"OP_{i:02d}": f"step number {i} of plan {n} token {int(rng.integers(1_000_000))}"
               for i in range(n)}
        chain = list(ids)
        doc = make_workflow_doc(f"WF_N{n:02d}", ids, list(zip(chain, chain[1:])))
        g = merge_workflows([parse_workflow(doc_json(doc))])
        task_graph = condition_on_task(g, "some task")
        if len(task_graph.node_ids) != n + 1:
            count_violations += 1
        if len(task_graph.edge_list) != len(g.edge_list) + 2 * n:
            count_violations += 1

    passed = bad == 0 and count_violations == 0 and total == 1000
    _report(
        capsys, "9 structural validity",
        passed,
        f"{total} generated workflows, {bad} invalid; "
        f"task-graph size identities checked for 1..50 operations, "
        f"{count_violations} violations",
    )
    assert passed


# ---------------------------------------------------------------------------
# 10: format fidelity
# ---------------------------------------------------------------------------


def test_10_format_fidelity(wf_math_001_text, tmp_path, capsys):
    first = parse_workflow(wf_math_001_text)
    second = parse_workflow(serialize_workflow(first))
    round_trip_ok = second == first

    params = init_params(seed=3)
    ckpt_a = tmp_path / "a.bin"
    ckpt_b = tmp_path / "b.bin"
    save_checkpoint(ckpt_a, params, seed=3)
    loaded, seed = load_checkpoint(ckpt_a)
    save_checkpoint(ckpt_b, loaded, seed=seed)
    checkpoint_ok = ckpt_a.read_bytes() == ckpt_b.read_bytes() and all(
        np.array_equal(getattr(loaded, name), getattr(params, name))
        for name in ("gcn_w1", "gcn_w2", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "mlp_w3", "mlp_b3")
    )

    rng = np.random.default_rng(0)
    cfg = OracleConfig()
    kv = KVTensor(
        np.concatenate(
            [
                rng.normal(size=(cfg.layers, cfg.heads, 5, cfg.head_dim)).astype(np.float32),
                rng.normal(size=(cfg.layers, cfg.heads, 5, cfg.head_dim)).astype(np.float32),
            ],
            axis=3,
        ),
        position_offset=7,
    )
    kv_a, kv_b = tmp_path / "a.kv", tmp_path / "b.kv"
    write_kv(kv_a, kv)
    write_kv(kv_b, read_kv(kv_a))
    kv_ok = kv_a.read_bytes() == kv_b.read_bytes()

    base = KVTensor(
        np.concatenate(
            [
                kv.keys + rng.normal(size=kv.keys.shape).astype(np.float32),
                kv.values + rng.normal(size=kv.values.shape).astype(np.float32),
            ],
            axis=3,
        ),
        position_offset=7,
    )
    delta = sparsify(kv, base, 0.95)
    dl_a, dl_b = tmp_path / "a.delta", tmp_path / "b.delta"
    write_delta(dl_a, delta)
    write_delta(dl_b, read_delta(dl_a))
    delta_ok = dl_a.read_bytes() == dl_b.read_bytes()

    passed = round_trip_ok and checkpoint_ok and kv_ok and delta_ok
    _report(
        capsys, "10 format fidelity",
        passed,
        f"workflow document round-trip {'ok' if round_trip_ok else 'BROKEN'}; "
        f"checkpoint bitwise {'ok' if checkpoint_ok else 'BROKEN'}; "
        f"KV file bitwise {'ok' if kv_ok else 'BROKEN'}; "
        f"delta file bitwise {'ok' if delta_ok else 'BROKEN'}",
    )
    assert passed


# ---------------------------------------------------------------------------
# 11: CLI determinism
# ---------------------------------------------------------------------------


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "opflow.cli", *args],
        capture_output=True, text=True, check=False,
    )


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_11_cli_determinism(tmp_path, capsys):
    corpus = generate_synthetic_corpus(vocab_size=8, n_tasks=16, seed=0)
    wfdir = tmp_path / "workflows"
    wfdir.mkdir()
    for wf_id, workflow in sorted({s.workflow.id: s.workflow for s in corpus.samples}.items()):
        (wfdir / f"{wf_id}.json").write_text(serialize_workflow(workflow))
    save_samples(tmp_path / "samples.tsv", list(corpus.samples))
    traces = [(f"T{r}", [corpus.entry_id, *corpus.route_chains[r]])
              for r in range(corpus.n_routes)]
    traces.append(("T0_again", [corpus.entry_id, *corpus.route_chains[0]]))
    write_trace_log(tmp_path / "traces.log", traces)

    failures: list[str] = []

    def check(label: str, runner) -> None:
        """Run the command twice into sibling dirs; everything must match."""
        out_a, out_b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        result_a = runner(out_a)
        result_b = runner(out_b)
        if result_a.returncode != 0 or result_b.returncode != 0:
            failures.append(f"{label}: nonzero exit ({result_a.returncode}/{result_b.returncode}"
                            f" stderr {result_a.stderr.strip()[:120]!r})")
            return
        if result_a.stdout.replace(str(out_a), "") != result_b.stdout.replace(str(out_b), ""):
            failures.append(f"{label}: stdout differs")
        tree_a, tree_b = _tree_bytes(out_a), _tree_bytes(out_b)
        if sorted(tree_a) != sorted(tree_b):
            failures.append(f"{label}: file sets differ")
            return
        for rel, blob in tree_a.items():
            if tree_b[rel] != blob:
                failures.append(f"{label}: {rel} differs")

    check("build-graph", lambda out: _run_cli(
        "build-graph", "--workflows", str(wfdir), "--out", str(out)))

    graph_file = tmp_path / "build-graph_a" / "graph.json"

    check("train", lambda out: _run_cli(
        "train", "--graph", str(graph_file), "--workflows", str(wfdir),
        "--samples", str(tmp_path / "samples.tsv"),
        "--epochs", "1", "--batch-size", "8", "--seed", "5", "--out", str(out)))

    checkpoint = tmp_path / "train_a" / "checkpoint.bin"

    def run_generate(out: Path) -> subprocess.CompletedProcess:
        out.mkdir(parents=True, exist_ok=True)
        result = _run_cli(
            "generate", "--graph", str(graph_file), "--checkpoint", str(checkpoint),
            "--task", "Deliver the ledger and quartz packet before the review")
        (out / "workflow.json").write_text(result.stdout)
        return result

    check("generate", run_generate)

    check("kv-analyze", lambda out: _run_cli(
        "kv", "analyze", "--graph", str(graph_file), "--pair-limit", "4",
        "--out", str(out)))

    check("kv-materialize", lambda out: _run_cli(
        "kv", "materialize", "--graph", str(graph_file),
        "--traces", str(tmp_path / "traces.log"), "--store", str(out / "store"),
        "--mode", "differential"))

    def run_prune(out: Path) -> subprocess.CompletedProcess:
        result = _run_cli(
            "kv", "materialize", "--graph", str(graph_file),
            "--traces", str(tmp_path / "traces.log"), "--store", str(out / "store"),
            "--mode", "differential")
        if result.returncode != 0:
            return result
        return _run_cli(
            "kv", "prune", "--graph", str(graph_file), "--store", str(out / "store"),
            "--traces", str(tmp_path / "traces.log"), "--prune-k", "2", "--out", str(out))

    check("kv-prune", run_prune)

    check("kv-footprint", lambda out: _run_cli(
        "kv", "footprint", "--graph", str(graph_file),
        "--store", str(tmp_path / "kv-materialize_a" / "store"), "--out", str(out)))

    check("bench", lambda out: _run_cli(
        "bench", "--vocab-size", "8", "--n-requests", "6",
        "--batch-sizes", "3,6", "--seed", "9", "--out", str(out)))

    passed = not failures
    _report(
        capsys, "11 CLI determinism",
        passed,
        "8 commands rerun byte-identically" if passed else "; ".join(failures),
    )
    assert passed, failures
