from __future__ import annotations

import io
import json
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

DATA_DIR = Path(__file__).parent / "data"

# pytest imports this checkout's src through pyproject's `pythonpath`; the
# processes the tests start (`python -m opflow.cli`, the demos) need it too.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# The fold, the split and batching change the summation order, so the model's
# outputs match the dense code, and batched scores the one-text scores, to
# rounding, not bitwise: within a relative FOLD_RTOL (gradients: of each
# array's largest entry).
FOLD_RTOL = 1e-12


@pytest.fixture
def wf_math_001_text() -> str:
    return (DATA_DIR / "WF_MATH_001.workflow.json").read_text()


@pytest.fixture
def wf_math_001(wf_math_001_text):
    from opflow.graph import parse_workflow

    return parse_workflow(wf_math_001_text)


def make_workflow_doc(wf_id: str, ops: dict[str, str], edges: list[tuple[str, str]]) -> dict:
    """Minimal valid document: ops maps op id -> instruction."""
    return {
        "id": wf_id,
        "name": f"workflow {wf_id}",
        "description": f"test workflow {wf_id}",
        "patterns": {"must": [], "should": []},
        "graph_structure": {
            "nodes": list(ops),
            "edges": [list(e) for e in edges],
        },
        "operations": {
            op_id: {"name": op_id, "instruction": instr, "patterns": {"must": [], "should": []}}
            for op_id, instr in ops.items()
        },
    }


@pytest.fixture
def make_doc():
    return make_workflow_doc


@pytest.fixture(scope="session")
def planted_default():
    """The vocab-20 planted corpus: 500 training tasks plus 100 held out."""
    from opflow.construct import generate_synthetic_corpus

    return generate_synthetic_corpus(vocab_size=20, n_tasks=600, seed=0)


@pytest.fixture(scope="session")
def default_training(planted_default):
    """One training run at the default configuration, shared by every test
    that needs it.  Returns (result, seconds)."""
    import time

    from opflow.construct import TrainConfig, train

    corpus = planted_default
    start = time.perf_counter()
    result = train(corpus.graph, list(corpus.samples[:500]), TrainConfig())
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="session")
def control_training(planted_default):
    """One training run at a raised learning rate (1e-2 instead of the
    default 1e-4), so the model actually fits the planted corpus within the
    small step budget.  Returns the ``TrainResult``."""
    from opflow.construct import TrainConfig, train

    corpus = planted_default
    return train(corpus.graph, list(corpus.samples[:500]), TrainConfig(learning_rate=1e-2))


@pytest.fixture(scope="session")
def control_params(control_training):
    """The control run's parameters; serving tests need non-trivial
    generated workflows."""
    return control_training.params


@pytest.fixture
def fail_writing(monkeypatch):
    """``fail_writing(name)`` makes each ``errors._write_atomic`` call that
    stages ``name`` raise ``OSError`` once half of its first write has reached
    the staging file, and returns the list of byte counts so staged."""
    from opflow import errors

    def arm(name: str) -> list[int]:
        staged: list[int] = []

        class HalfWriter(io.BufferedWriter):
            def write(self, data):
                half = bytes(data)[: len(data) // 2]
                super().write(half)
                self.flush()
                staged.append(len(half))
                raise OSError("disk full")

        def staging_open(file, mode="r", *args, **kwargs):
            if Path(file).name == f".{name}.tmp":
                return HalfWriter(io.FileIO(file, "w"))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(errors, "open", staging_open, raising=False)
        return staged

    return arm


def assert_unreplaced(target: Path, old: bytes) -> None:
    """``target`` still holds ``old``, and no staging file is left beside it."""
    assert target.read_bytes() == old
    assert not (target.parent / f".{target.name}.tmp").exists()


def doc_json(doc: dict) -> str:
    return json.dumps(doc)


def dense_features(x, task_index, task_rows) -> np.ndarray:
    """(B, V, D) per-sample features: ``x`` with each sample's task row."""
    xb = np.broadcast_to(x, (len(task_rows),) + x.shape).copy()
    xb[:, task_index] = task_rows
    return xb


def dense_forward(params, xb, a, edge_index, task_index, labels, *, tau=1.0, noise=None):
    """The forward pass on a (B, V, D) feature stack, written the direct way:
    ``S X_b W1`` per sample and the edge MLP on ``concat[h_src, h_dst,
    h_task]``.  Returns the loss and every intermediate."""
    from opflow import nn

    labels = np.asarray(labels, dtype=np.float64).reshape(len(xb), -1)
    if noise is not None:
        noise = np.asarray(noise).reshape(labels.shape)
    s = nn.normalized_adjacency(a)
    m1 = s @ xb
    z1 = m1 @ params.gcn_w1
    h1 = np.maximum(z1, 0.0)
    m2 = s @ h1
    z2 = m2 @ params.gcn_w2
    h2 = np.maximum(z2, 0.0)
    src, dst = edge_index[:, 0], edge_index[:, 1]
    task = np.broadcast_to(h2[:, task_index, None], h2[:, src].shape)
    zc = np.concatenate([h2[:, src], h2[:, dst], task], axis=-1)
    p1 = zc @ params.mlp_w1 + params.mlp_b1
    a1 = np.maximum(p1, 0.0)
    p2 = a1 @ params.mlp_w2 + params.mlp_b2
    a2 = np.maximum(p2, 0.0)
    omega = (a2 @ params.mlp_w3 + params.mlp_b3)[..., 0]
    scores = nn.gumbel_sigmoid(omega, tau, noise)
    loss = nn.bce_loss(scores, labels)
    return loss, SimpleNamespace(
        params=params, s=s, m1=m1, z1=z1, m2=m2, z2=z2, h2=h2, edge_index=edge_index,
        task_index=task_index, zc=zc, p1=p1, a1=a1, p2=p2, a2=a2, omega=omega,
        scores=scores, labels=labels, tau=tau,
    )


def mean_loss(graph, samples, params) -> float:
    """Noise-free mean BCE of the scorer over ``samples``: one ``forward_loss``
    batch on the graph's model inputs."""
    from opflow import construct, nn

    inputs = construct._model_inputs(graph)
    labels = np.stack([construct.build_labels(graph, s.workflow) for s in samples])
    task_rows = np.stack([construct._EMBEDDER.embed_text(s.task_text) for s in samples])
    loss, _ = nn.forward_loss(
        params, inputs.base_x, inputs.adjacency, inputs.edge_index, inputs.task_index, labels,
        task_rows=task_rows,
    )
    return float(loss)


def traced_peak_mib(fn) -> float:
    """The largest traced allocation total while ``fn()`` runs, in MiB above
    what was allocated when it started: numpy registers its array buffers
    with ``tracemalloc``, so this counts the arrays a call holds at once."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


def finite_difference_grads(loss_fn, params, step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central differences over every scalar parameter (slow; small dims only)."""
    grads: dict[str, np.ndarray] = {}
    work = params.copy()
    for name, arr in work.arrays().items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn(work)
            flat[i] = orig - step
            lo = loss_fn(work)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_gradient_error(analytic, numeric, floor: float = 1e-8) -> float:
    """max over parameters of |analytic - numeric| / max(|analytic|, |numeric|, floor)."""
    worst = 0.0
    for name, a in analytic.items():
        f = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst
