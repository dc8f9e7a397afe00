"""Self-tests of the benchmark: input determinism, the replay graph, tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import opflow  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from opflow import merge_workflows, validate_dag  # noqa: E402


def _doc_key(docs):
    return [(d.id, d.nodes, d.edges) for d in docs]


def test_replay_documents_are_deterministic():
    assert _doc_key(workloads.replay_documents(3)) == _doc_key(workloads.replay_documents(3))
    assert _doc_key(workloads.replay_documents(3)) != _doc_key(workloads.replay_documents(4))


def test_replay_stream_is_deterministic_with_fixed_popularity():
    a, b, c = (workloads.replay_stream(s) for s in (5, 5, 6))
    assert a == b and a != c
    assert len(a) == len(c) == workloads.REPLAY_PASS_REQUESTS
    # ranks hold fixed shares, so every seed touches as many documents
    assert len(set(a)) == len(set(c))
    assert sorted(a.count(d) for d in set(a)) == sorted(c.count(d) for d in set(c))


def test_serve_and_sweep_inputs_are_deterministic():
    corpus = opflow.generate_synthetic_corpus(vocab_size=20, n_tasks=10, seed=0)
    one = workloads.serve_block(corpus, 7, 2)
    assert one == workloads.serve_block(corpus, 7, 2)
    assert one.requests != workloads.serve_block(corpus, 7, 3).requests
    first, second = workloads.Sweep(9), workloads.Sweep(9)
    first.setup()
    second.setup()
    assert first.sweep_workload == second.sweep_workload
    assert first.ablation_workload == second.ablation_workload


def test_train_inputs_are_deterministic():
    first, second = workloads.Train(2), workloads.Train(2)
    first.setup()
    second.setup()
    assert first.samples == second.samples
    assert len(first.samples) == workloads.TRAIN_SAMPLES


def test_replay_graph_is_acyclic_and_merges():
    docs = workloads.replay_documents(1)
    assert len(docs) == workloads.REPLAY_DOCS
    graph = merge_workflows(docs)
    assert validate_dag(graph.operations, graph.edges) is None
    assert len(graph.operations) <= workloads.REPLAY_LEVELS * workloads.REPLAY_VARIANTS
    assert all(set(d.edges) <= set(graph.edges) for d in docs)
    assert all(len(d.nodes) == workloads.REPLAY_LEVELS for d in docs)
    # the same op sits under many distinct prefixes
    prefixes: dict[str, set] = {}
    for doc in docs:
        for i, op in enumerate(doc.nodes):
            prefixes.setdefault(op, set()).add(doc.nodes[:i])
    assert max(len(p) for p in prefixes.values()) >= 5


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, None)


def test_self_time_subtracts_children_once():
    spans = [
        _span("harness.run_serving_sim", 0.0, 10.0, -1),
        _span("kvstore.fetch", 1.0, 4.0, 0),
        _span("kvstore.reconstruct", 2.0, 3.0, 1),
        _span("kvstore.fetch", 5.0, 6.0, 0),
        _span("oracle.base_segment", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        _span("construct.generate", 0.0, 10.0, -1),
        _span("nn.gcn_forward", 1.0, 4.0, 0),
        _span("nn.score_edges", 3.0, 5.0, 0),
        _span("nn.score_edges", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_table_shares_add_up():
    spans = [
        _span("harness.run_serving_sim", 0.0, 4.0, -1),
        _span("kvstore.fetch", 1.0, 3.0, 0),
    ]
    table = {row["layer"]: row for row in tracing.layer_table(spans, wall_s=5.0)}
    assert table["harness"]["self_ms"] == pytest.approx(2000.0)
    assert table["kvstore"]["calls"] == 1
    assert table["outside opflow"]["self_ms"] == pytest.approx(1000.0)
    assert sum(row["share_pct"] for row in table.values()) == pytest.approx(100.0)


def test_tracer_wraps_the_names_callers_resolve_and_restores_them():
    corpus = opflow.generate_synthetic_corpus(vocab_size=8, n_tasks=2, seed=0)
    params = opflow.init_params(dim_hidden=8, mlp_hidden=4, seed=0)
    original = opflow.construct.gcn_forward
    tracer = tracing.Tracer()
    tracer.install(callers=[workloads])
    try:
        assert opflow.construct.gcn_forward is not original
        opflow.generate(corpus.graph, params, corpus.samples[0].task_text)
    finally:
        tracer.uninstall()
    assert opflow.construct.gcn_forward is original
    assert opflow.CacheStore.fetch.__name__ == "fetch"
    names = [s.name for s in tracer.spans]
    assert names[0] == "construct.generate"
    gcn = names.index("nn.gcn_forward")
    assert tracer.spans[gcn].parent == names.index("construct.score_candidate_edges")
    # gcn_forward normalizes the support again: the call nests under it
    assert any(s.name == "nn.normalized_adjacency" and s.parent == gcn for s in tracer.spans)


def test_reference_scale_uses_samples_during_or_nearest_a_call():
    ref = reference.Reference()
    ref.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    ref.seconds = [0.008, 0.016, 0.016, 0.004, 0.016, 0.008]
    # three samples fall inside [1.5, 4.5]: median 0.016 s
    assert ref.scale(1.5, 4.5) == pytest.approx(reference.NOMINAL_S / 0.016)
    # a short call uses the three samples nearest its midpoint (6, 5, 4)
    assert ref.scale(5.9, 5.95) == pytest.approx(reference.NOMINAL_S / 0.008)


def test_timings_scale_calls_and_take_the_median_unit_rate():
    bench = workloads.Base(seed=0)
    # unit 0: 2 requests in 2 s; unit 1: 2 in 1 s; unit 2: 2 in 4 s
    for start, seconds, unit in [(0, 1.0, 0), (1, 1.0, 0), (2, 0.5, 1), (3, 0.5, 1), (4, 2.0, 2), (6, 2.0, 2)]:
        bench.unit = unit
        bench.record_call(start, seconds, 1)
    assert bench.timings() == (1.0, 1000.0, 2000.0)
    rate, p50, p99 = bench.timings(lambda start, end: 0.5)
    assert (rate, p50, p99) == (2.0, 500.0, 1000.0)
