from __future__ import annotations

import json
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


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


def doc_json(doc: dict) -> str:
    return json.dumps(doc)
