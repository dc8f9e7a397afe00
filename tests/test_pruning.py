"""Tests for transition stats, materialization planning, and the trace log."""

from collections import Counter

import numpy as np
import pytest

from opflow.errors import DataError
from opflow.graph import Operation, Workflow, merge_workflows
from opflow.kvstore import CacheStore
from opflow.pruning import (
    PlanPolicy,
    TransitionStats,
    apply_plan,
    path_digest,
    plan_materialization,
    read_trace_log,
    write_trace_log,
)

from conftest import assert_unreplaced


def route_graph():
    """Entry op fanning out into two chains: E->A1->A2 and E->B1->B2."""
    ops = {
        "OP_E": "read the request and choose a processing track",
        "OP_A1": "collect the ledger rows for the alpha track",
        "OP_A2": "total the alpha ledger rows into a balance",
        "OP_B1": "gather the survey forms for the beta track",
        "OP_B2": "summarize the beta survey forms",
    }
    wf = Workflow(
        id="WF_ROUTES",
        name="routes",
        description="",
        patterns_must=(),
        patterns_should=(),
        nodes=tuple(ops),
        edges=(
            ("OP_E", "OP_A1"),
            ("OP_A1", "OP_A2"),
            ("OP_E", "OP_B1"),
            ("OP_B1", "OP_B2"),
        ),
        operations={k: Operation(id=k, instruction=v) for k, v in ops.items()},
    )
    return merge_workflows([wf])


ALPHA = ["OP_E", "OP_A1", "OP_A2"]
BETA = ["OP_E", "OP_B1", "OP_B2"]


# ---------------------------------------------------------------------------
# TransitionStats
# ---------------------------------------------------------------------------


class TestTransitionStats:
    def test_counts_match_independent_tally(self):
        graph = route_graph()
        rng = np.random.default_rng(5)
        traces = [list(ALPHA if rng.random() < 0.7 else BETA) for _ in range(40)]
        stats = TransitionStats(graph)
        expected = Counter()
        for trace in traces:
            stats.record(trace)
            expected.update(zip(trace, trace[1:]))
        assert stats.edge_counts == dict(expected)
        assert stats.total_observations == 40

    def test_observed_pairs_enumerate_trace_prefixes(self):
        graph = route_graph()
        stats = TransitionStats(graph)
        stats.record(ALPHA)
        assert stats.observed_pairs == {
            (("OP_E",), "OP_A1"),
            (("OP_E", "OP_A1"), "OP_A2"),
        }

    def test_recording_is_order_independent(self):
        graph = route_graph()
        traces = [ALPHA, BETA, ALPHA, ALPHA, BETA]
        one = TransitionStats(graph)
        two = TransitionStats(graph)
        for t in traces:
            one.record(t)
        for t in reversed(traces):
            two.record(t)
        assert one.edge_counts == two.edge_counts
        assert one.observed_pairs == two.observed_pairs
        assert one.total_observations == two.total_observations

    def test_empty_trace_is_a_no_op(self):
        graph = route_graph()
        stats = TransitionStats(graph)
        stats.record([])
        assert stats.edge_counts == {}
        assert stats.observed_pairs == set()
        assert stats.total_observations == 0

    def test_single_op_trace_counts_as_observation_only(self):
        graph = route_graph()
        stats = TransitionStats(graph)
        stats.record(["OP_E"])
        assert stats.edge_counts == {}
        assert stats.observed_pairs == set()
        assert stats.total_observations == 1

    def test_rejects_non_edge_steps(self):
        stats = TransitionStats(route_graph())
        with pytest.raises(DataError):
            stats.record(["OP_E", "OP_A2"])
        with pytest.raises(DataError):
            stats.record(["OP_A1", "OP_E"])

    def test_rejects_unknown_ops(self):
        stats = TransitionStats(route_graph())
        with pytest.raises(DataError):
            stats.record(["OP_E", "OP_X"])

    def test_min_edge_count(self):
        graph = route_graph()
        stats = TransitionStats(graph)
        stats.record(ALPHA)
        stats.record(ALPHA)
        stats.record(["OP_E", "OP_A1"])
        # E->A1 seen 3 times, A1->A2 twice
        assert stats.min_edge_count(("OP_E",), "OP_A1") == 3
        assert stats.min_edge_count(("OP_E", "OP_A1"), "OP_A2") == 2
        assert stats.min_edge_count(("OP_E",), "OP_B1") == 0


def lattice_graph():
    """A DAG whose walks share prefixes and edges: E->{A1,B1}, A1->{A2,B2},
    B1->B2, {A2,B2}->C."""
    ops = {
        "OP_E": "read the request and choose a processing track",
        "OP_A1": "collect the ledger rows for the alpha track",
        "OP_A2": "total the alpha ledger rows into a balance",
        "OP_B1": "gather the survey forms for the beta track",
        "OP_B2": "summarize the beta survey forms",
        "OP_C": "write the closing report for the request",
    }
    edges = (
        ("OP_E", "OP_A1"), ("OP_E", "OP_B1"), ("OP_A1", "OP_A2"), ("OP_A1", "OP_B2"),
        ("OP_B1", "OP_B2"), ("OP_A2", "OP_C"), ("OP_B2", "OP_C"),
    )
    wf = Workflow(
        id="WF_LATTICE", name="lattice", description="", patterns_must=(), patterns_should=(),
        nodes=tuple(ops), edges=edges,
        operations={k: Operation(id=k, instruction=v) for k, v in ops.items()},
    )
    return merge_workflows([wf])


class IncrementalStats:
    """Reference tally: each record checks its whole trace against the graph,
    then adds one to each of its edges and adds each of its prefix pairs."""

    def __init__(self, graph):
        self.graph = graph
        self.edge_counts = {}
        self.observed_pairs = set()
        self.total_observations = 0

    def record(self, trace):
        trace = tuple(trace)
        if not trace:
            return
        self.graph.check_chain(trace, "trace")
        for step in zip(trace, trace[1:]):
            self.edge_counts[step] = self.edge_counts.get(step, 0) + 1
        for i in range(1, len(trace)):
            self.observed_pairs.add((trace[:i], trace[i]))
        self.total_observations += 1

    def min_edge_count(self, path, op_id):
        chain = list(path) + [op_id]
        return min(self.edge_counts.get((a, b), 0) for a, b in zip(chain, chain[1:]))


LATTICE_TRACES = [
    ["OP_E"],
    ["OP_E", "OP_A1"],
    ["OP_E", "OP_A1", "OP_A2", "OP_C"],
    ["OP_E", "OP_A1", "OP_B2", "OP_C"],
    ["OP_E", "OP_B1", "OP_B2"],
    ["OP_E", "OP_B1", "OP_B2", "OP_C"],
    ["OP_A1", "OP_B2"],
    ["OP_B2", "OP_C"],
]
BAD_TRACES = [
    (["OP_E", "OP_A2"], "trace step 'OP_E' -> 'OP_A2' is not a graph edge"),
    (["OP_E", "OP_A1", "OP_A2", "OP_B2"], "trace step 'OP_A2' -> 'OP_B2' is not a graph edge"),
    (["OP_X"], "unknown operation 'OP_X' in trace"),
    (["OP_E", "OP_B1", "OP_X"], "unknown operation 'OP_X' in trace"),
]


def views(stats):
    return dict(stats.edge_counts), set(stats.observed_pairs), stats.total_observations


class TestTransitionStatsMatchesIncrementalTally:
    """One count per distinct trace gives what a per-record tally gives."""

    @staticmethod
    def seeded_traces(seed):
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, len(LATTICE_TRACES), size=60)
        return [list(LATTICE_TRACES[i]) for i in picks] + [[]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_views_and_plans_equal_the_reference_in_two_orders(self, seed):
        graph = lattice_graph()
        traces = self.seeded_traces(seed)
        assert len({tuple(t) for t in traces}) < len(traces) - 1  # repeats
        reference = IncrementalStats(graph)
        for trace in traces:
            reference.record(trace)
        for order in (traces, traces[::-1]):
            stats = TransitionStats(graph)
            for trace in order:
                stats.record(trace)
            assert stats.edge_counts == reference.edge_counts
            assert stats.observed_pairs == reference.observed_pairs
            assert stats.total_observations == reference.total_observations == len(traces) - 1
            for k in (1, 2, 5, 20):
                for budget in (None, 3):
                    plan = plan_materialization(graph, stats, PlanPolicy(k=k, budget=budget))
                    assert [(e.path, e.op_id, e.min_edge_count) for e in plan] == brute_force_plan(reference, k, budget)
            for path, op in reference.observed_pairs:
                assert stats.min_edge_count(path, op) == reference.min_edge_count(path, op)

    def test_views_are_read_only_copies(self):
        stats = TransitionStats(lattice_graph())
        stats.record(LATTICE_TRACES[2])
        counts, pairs = stats.edge_counts, stats.observed_pairs
        with pytest.raises(TypeError):
            counts[("OP_E", "OP_A1")] = 7
        with pytest.raises(AttributeError):
            pairs.add((("OP_E",), "OP_B1"))
        stats.record(LATTICE_TRACES[2])
        assert counts[("OP_E", "OP_A1")] == 1
        assert stats.edge_counts[("OP_E", "OP_A1")] == 2

    @pytest.mark.parametrize("bad, message", BAD_TRACES)
    def test_invalid_trace_raises_the_same_error_and_changes_nothing(self, bad, message):
        graph = lattice_graph()
        reference = IncrementalStats(graph)
        with pytest.raises(DataError) as expected:
            reference.record(bad)
        assert str(expected.value) == message
        for before in ([], self.seeded_traces(3)):
            stats = TransitionStats(graph)
            for trace in before:
                stats.record(trace)
            snapshot = views(stats)
            with pytest.raises(DataError) as raised:
                stats.record(bad)
            assert str(raised.value) == message
            assert views(stats) == snapshot
            # Still rejected the second time: a failed trace is not remembered.
            with pytest.raises(DataError):
                stats.record(bad)
            assert views(stats) == snapshot


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def seeded_stats(n_alpha=5, n_beta=1):
    graph = route_graph()
    stats = TransitionStats(graph)
    for _ in range(n_alpha):
        stats.record(ALPHA)
    for _ in range(n_beta):
        stats.record(BETA)
    return graph, stats


def brute_force_plan(stats, k, budget=None):
    picked = [
        (path, op, stats.min_edge_count(path, op))
        for (path, op) in stats.observed_pairs
        if stats.min_edge_count(path, op) >= k
    ]
    picked.sort(key=lambda row: (-row[2], row[0], row[1]))
    if budget is not None:
        picked = picked[:budget]
    return picked


class TestPlanMaterialization:
    def test_matches_brute_force_enumeration(self):
        graph, stats = seeded_stats(n_alpha=4, n_beta=2)
        for k in (1, 2, 3, 4, 5):
            plan = plan_materialization(graph, stats, PlanPolicy(k=k))
            expected = brute_force_plan(stats, k)
            assert [(e.path, e.op_id, e.min_edge_count) for e in plan] == expected

    def test_threshold_filters_cold_paths(self):
        graph, stats = seeded_stats(n_alpha=5, n_beta=1)
        plan = plan_materialization(graph, stats, PlanPolicy(k=2))
        assert {(e.path, e.op_id) for e in plan} == {
            (("OP_E",), "OP_A1"),
            (("OP_E", "OP_A1"), "OP_A2"),
        }

    def test_raising_k_never_grows_the_plan(self):
        graph, stats = seeded_stats(n_alpha=6, n_beta=3)
        sizes = [
            len(plan_materialization(graph, stats, PlanPolicy(k=k)))
            for k in (1, 2, 3, 4, 7)
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 0  # nothing seen 7 times

    def test_budget_keeps_hottest_first(self):
        graph, stats = seeded_stats(n_alpha=5, n_beta=4)
        plan = plan_materialization(graph, stats, PlanPolicy(k=1, budget=2))
        assert len(plan) == 2
        assert all(e.min_edge_count == 5 for e in plan)
        # deterministic order: count desc, then path/op lexicographic
        assert plan[0].path <= plan[1].path

    def test_budget_zero_empties_plan(self):
        graph, stats = seeded_stats()
        plan = plan_materialization(graph, stats, PlanPolicy(k=1, budget=0))
        assert plan == ()

    def test_rejects_pairs_off_the_planning_graph(self):
        _, stats = seeded_stats(n_beta=0)
        alpha_cut = Workflow(
            id="WF_CUT", name="cut", description="", patterns_must=(), patterns_should=(),
            nodes=("OP_E", "OP_A1", "OP_A2"), edges=(("OP_E", "OP_A1"),),
            operations={k: v for k, v in route_graph().operations.items() if k in ALPHA},
        )
        with pytest.raises(DataError, match="observed pair step 'OP_A1' -> 'OP_A2'"):
            plan_materialization(merge_workflows([alpha_cut]), stats, PlanPolicy(k=1))

    def test_store_and_pruner_share_the_graph_chain_check(self, monkeypatch):
        from opflow.graph import OperationGraph

        checked = []
        real = OperationGraph.check_chain
        monkeypatch.setattr(
            OperationGraph, "check_chain", lambda g, ops, what: checked.append((tuple(ops), what)) or real(g, ops, what)
        )
        graph = route_graph()
        stats = TransitionStats(graph)
        stats.record(["OP_E", "OP_A1"])
        plan_materialization(route_graph(), stats)  # an equal graph, not stats' own
        CacheStore(graph).fetch(("OP_E",), "OP_A1")
        assert checked == [
            (("OP_E", "OP_A1"), "trace"),
            (("OP_E", "OP_A1"), "observed pair"),
            (("OP_E", "OP_A1"), "prefix path"),
        ]

    def test_pairs_are_rechecked_only_against_another_graph(self, monkeypatch):
        # stats.record checked each trace against stats.graph, and every
        # observed pair is a prefix of one, so planning against that graph
        # checks nothing again; any other graph checks each pair once.
        from opflow.graph import OperationGraph

        graph, stats = seeded_stats(n_alpha=3, n_beta=2)
        checked = []
        real = OperationGraph.check_chain
        monkeypatch.setattr(
            OperationGraph, "check_chain", lambda g, ops, what: checked.append((g, tuple(ops))) or real(g, ops, what)
        )
        own = plan_materialization(graph, stats, PlanPolicy(k=1))
        assert checked == []
        other = route_graph()
        assert plan_materialization(other, stats, PlanPolicy(k=1)) == own
        assert all(g is other for g, _ in checked)
        assert sorted(ops for _, ops in checked) == sorted(path + (op,) for path, op in stats.observed_pairs)

    def test_policy_validation(self):
        with pytest.raises(DataError):
            PlanPolicy(k=0)
        with pytest.raises(DataError):
            PlanPolicy(budget=-1)

    @pytest.mark.parametrize(
        "key, value",
        [("k", 1.5), ("k", 2.0), ("k", True), ("k", "2"),
         ("budget", 1.5), ("budget", 2.0), ("budget", False), ("budget", "3")],
    )
    def test_policy_rejects_non_integer_values(self, key, value):
        with pytest.raises(DataError, match="integer"):
            PlanPolicy(**{key: value})

    def test_policy_accepts_numpy_integers(self):
        assert PlanPolicy(k=np.int64(3), budget=np.int32(0)) == PlanPolicy(k=3, budget=0)


# ---------------------------------------------------------------------------
# apply_plan
# ---------------------------------------------------------------------------


class TestApplyPlan:
    def test_plan_subset_strictly_shrinks_bytes(self):
        graph, stats = seeded_stats(n_alpha=3, n_beta=3)
        store = CacheStore(graph, mode="differential")
        full_plan = plan_materialization(graph, stats, PlanPolicy(k=1))
        apply_plan(store, full_plan)
        bytes_full = store.memory_footprint().total_bytes

        alpha_only = tuple(e for e in full_plan if "OP_A1" in (e.path + (e.op_id,)))
        report = apply_plan(store, alpha_only)
        assert report.bytes_before == bytes_full
        assert report.bytes_after < bytes_full
        assert report.dropped == 2
        assert report.inserted == 0
        assert set(store.residuals) == {(e.path, e.op_id) for e in alpha_only}

    def test_pruned_store_smaller_and_contract_preserved(self):
        # Skewed traffic: alpha dominates, beta is rare. k=2 drops beta's
        # residuals; fetches still return correct tensors via fallback.
        graph, stats = seeded_stats(n_alpha=8, n_beta=1)
        oracle_kwargs = dict(mode="differential", energy_target=1.0)

        unpruned = CacheStore(graph, **oracle_kwargs)
        apply_plan(unpruned, plan_materialization(graph, stats, PlanPolicy(k=1)))
        pruned = CacheStore(graph, **oracle_kwargs)
        apply_plan(pruned, plan_materialization(graph, stats, PlanPolicy(k=2)))

        assert pruned.memory_footprint().total_bytes < unpruned.memory_footprint().total_bytes

        for trace in (ALPHA, BETA):
            for i, op_id in enumerate(trace):
                path = tuple(trace[:i])
                kv_a, info_a = unpruned.fetch(path, op_id)
                kv_b, info_b = pruned.fetch(path, op_id)
                assert np.array_equal(kv_a.keys, kv_b.keys)
                assert np.array_equal(kv_a.values, kv_b.values)
                if path and "OP_B1" in (path + (op_id,)):
                    assert info_b.flag == "fallback"

    def test_apply_reports_rows_for_csv(self):
        graph, stats = seeded_stats(n_alpha=3, n_beta=1)
        store = CacheStore(graph, mode="differential")
        plan = plan_materialization(graph, stats, PlanPolicy(k=2))
        report = apply_plan(store, plan)
        assert report.inserted == 2
        csv_text = report.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "path_hash,op_id,min_edge_count,bytes"
        assert len(lines) == 3
        assert lines[1].startswith(path_digest(("OP_E",)))

    def test_apply_requires_differential_mode(self):
        graph, stats = seeded_stats()
        plan = plan_materialization(graph, stats, PlanPolicy(k=1))
        with pytest.raises(DataError):
            apply_plan(CacheStore(graph, mode="stateless"), plan)

    def test_reapplying_same_plan_is_stable(self):
        graph, stats = seeded_stats(n_alpha=4)
        store = CacheStore(graph, mode="differential")
        plan = plan_materialization(graph, stats, PlanPolicy(k=2))
        first = apply_plan(store, plan)
        second = apply_plan(store, plan)
        assert second.inserted == 0
        assert second.kept == len(plan)
        assert second.bytes_before == second.bytes_after == first.bytes_after


# ---------------------------------------------------------------------------
# Trace log
# ---------------------------------------------------------------------------


class TestTraceLog:
    def test_round_trip(self, tmp_path):
        traces = [("T1", ALPHA), ("T2", BETA), ("T3", ["OP_E"])]
        file = tmp_path / "traces.tsv"
        write_trace_log(file, traces)
        assert read_trace_log(file) == [(t, list(ops)) for t, ops in traces]

    def test_exact_line_format(self, tmp_path):
        file = tmp_path / "traces.tsv"
        write_trace_log(file, [("TASK_A", ["OP_E", "OP_A1"])])
        assert file.read_text() == "TASK_A\tOP_E,OP_A1\n"

    def test_failed_write_leaves_the_earlier_log(self, tmp_path, fail_writing):
        file = tmp_path / "traces.tsv"
        write_trace_log(file, [("T1", ALPHA)])
        old = file.read_bytes()
        staged = fail_writing("traces.tsv")
        with pytest.raises(OSError, match="disk full"):
            write_trace_log(file, [("T1", ALPHA), ("T2", BETA)])
        assert staged and staged[0] > 0
        assert_unreplaced(file, old)

    def test_rejects_malformed_lines(self, tmp_path):
        file = tmp_path / "bad.tsv"
        file.write_text("TASK_A\n")
        with pytest.raises(DataError):
            read_trace_log(file)
        file.write_text("TASK_A\tOP_E,,OP_A1\n")
        with pytest.raises(DataError):
            read_trace_log(file)

    def test_rejects_unsafe_ids_on_write(self, tmp_path):
        with pytest.raises(DataError):
            write_trace_log(tmp_path / "x.tsv", [("bad\tid", ["OP_E"])])
        with pytest.raises(DataError):
            write_trace_log(tmp_path / "x.tsv", [("T", ["OP,1"])])
        with pytest.raises(DataError):
            write_trace_log(tmp_path / "x.tsv", [("T", [])])
        with pytest.raises(DataError):
            write_trace_log(tmp_path / "x.tsv", [("T", ["OP_E", ""])])  # the reader would reject the line

    def test_skips_blank_lines(self, tmp_path):
        file = tmp_path / "traces.tsv"
        file.write_text("T1\tOP_E,OP_A1\n\nT2\tOP_E\n")
        assert read_trace_log(file) == [("T1", ["OP_E", "OP_A1"]), ("T2", ["OP_E"])]

    def test_feeds_stats_end_to_end(self, tmp_path):
        graph = route_graph()
        file = tmp_path / "traces.tsv"
        write_trace_log(file, [("T1", ALPHA), ("T2", ALPHA), ("T3", BETA)])
        stats = TransitionStats(graph)
        for _, ops in read_trace_log(file):
            stats.record(ops)
        assert stats.total_observations == 3
        assert stats.edge_counts[("OP_E", "OP_A1")] == 2
