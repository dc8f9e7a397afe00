"""Tests for the serving simulation harness.

The slow fixtures (planted corpus, control-rate training) are session-scoped
in conftest.py; everything here reuses them.  Structural behavior that does
not depend on a trained model is exercised with freshly initialized
parameters, whose generated workflows collapse to the entry operation.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from opflow import harness, kvstore
from opflow.construct import edge_f1, generate
from opflow.errors import DataError
from opflow.graph import Operation, Workflow, merge_workflows
from opflow.harness import (
    APPLY_PER_ENTRY,
    HIT_FIXED,
    PREFILL_PER_TOKEN,
    RunReport,
    SweepResult,
    SweepRow,
    Workload,
    ablate_pruning,
    execution_chains,
    fetch_cost,
    make_workload,
    maximal_traces,
    percentile_nearest_rank,
    run_serving_sim,
    sparsity_report,
    sweep_batch_sizes,
)
from opflow.kvstore import CacheStore, MemoryReport
from opflow.nn import init_params
from opflow.oracle import KVOracle, OracleConfig, tokenize
from opflow.pruning import PlanPolicy


def small_workload(corpus, n=12, seed=3, batches=(4, 8, 12)):
    return make_workload(corpus, n_requests=n, seed=seed, overlap=0.5, batch_sizes=batches)


def memory_row(batch, mode, fulls_bytes):
    """A sweep row that carries only store bytes."""
    return SweepRow(batch, mode, 0, 0, fulls_bytes, fulls_bytes, 0.0, 0.0, 0.0, 0, 0, 0.0)


def wf(nodes, edges, wf_id="WF_T"):
    return Workflow(
        id=wf_id,
        name="t",
        description="t",
        patterns_must=(),
        patterns_should=(),
        nodes=tuple(nodes),
        edges=tuple(edges),
        operations={},
    )


# ---------------------------------------------------------------------------
# Cost model and percentile
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_fallback_pays_prefill_for_whole_span(self):
        assert PREFILL_PER_TOKEN == 1.0
        assert fetch_cost("fallback", 0, prefix_tokens=10, op_tokens=4) == 14.0

    def test_hit_pays_fixed_plus_applies(self):
        assert (HIT_FIXED, APPLY_PER_ENTRY) == (5.0, 0.01)
        assert fetch_cost("hit", 100, prefix_tokens=10, op_tokens=4) == 6.0

    def test_hit_with_no_entries_is_fixed_cost_only(self):
        assert fetch_cost("hit", 0, 100, 100) == 5.0


class TestPercentile:
    def test_one_through_ten_p90_is_nine(self):
        assert percentile_nearest_rank([float(v) for v in range(1, 11)], 0.9) == 9.0

    def test_single_value(self):
        assert percentile_nearest_rank([42.0], 0.9) == 42.0

    def test_q_one_is_max(self):
        assert percentile_nearest_rank([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_matches_inverted_cdf(self):
        # numpy's inverted_cdf method is the nearest-rank definition.
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.uniform(-10, 10, size=rng.integers(1, 40)).tolist()
            q = float(rng.uniform(0.05, 1.0))
            expected = float(np.percentile(values, 100 * q, method="inverted_cdf"))
            assert percentile_nearest_rank(values, q) == expected

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            percentile_nearest_rank([], 0.9)

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_bad_q_rejected(self, q):
        with pytest.raises(DataError):
            percentile_nearest_rank([1.0], q)


# ---------------------------------------------------------------------------
# Workload sampling
# ---------------------------------------------------------------------------


class TestMakeWorkload:
    def test_deterministic_for_seed(self, planted_default):
        a = make_workload(planted_default, n_requests=20, seed=9)
        b = make_workload(planted_default, n_requests=20, seed=9)
        assert a == b

    def test_seed_changes_requests(self, planted_default):
        a = make_workload(planted_default, n_requests=20, seed=9)
        b = make_workload(planted_default, n_requests=20, seed=10)
        assert a.requests != b.requests

    def test_targets_match_routes_mentioned_in_text(self, planted_default):
        corpus = planted_default
        workload = make_workload(corpus, n_requests=30, seed=4, overlap=0.5)
        for text, target in zip(workload.requests, workload.targets):
            routes = corpus.routes_in_text(text)
            assert target == corpus.target_edges_for_routes(routes)

    def test_overlap_sets_routes_per_task(self, planted_default):
        corpus = planted_default  # six routes
        for overlap, expect in [(0.0, 1), (0.2, 1), (0.5, 3), (1.0, 6)]:
            workload = make_workload(corpus, n_requests=8, seed=2, overlap=overlap)
            for text in workload.requests:
                assert len(corpus.routes_in_text(text)) == expect

    def test_coverage_pins_one_route_per_early_request(self, planted_default):
        corpus = planted_default
        workload = make_workload(corpus, n_requests=10, seed=6, overlap=0.3)
        for i in range(corpus.n_routes):
            assert i in corpus.routes_in_text(workload.requests[i])

    def test_zipf_skews_route_popularity(self, planted_default):
        corpus = planted_default
        workload = make_workload(
            corpus, n_requests=120, seed=1, overlap=0.2,
            distribution="zipf", ensure_coverage=False,
        )
        counts = [0] * corpus.n_routes
        for text in workload.requests:
            for r in corpus.routes_in_text(text):
                counts[r] += 1
        assert counts[0] > counts[-1]
        assert counts[0] > 2 * max(counts[3:])

    def test_uniform_without_coverage_is_roughly_flat(self, planted_default):
        corpus = planted_default
        workload = make_workload(
            corpus, n_requests=240, seed=1, overlap=0.2, ensure_coverage=False,
        )
        counts = [0] * corpus.n_routes
        for text in workload.requests:
            for r in corpus.routes_in_text(text):
                counts[r] += 1
        assert min(counts) > 0.4 * max(counts)

    @pytest.mark.parametrize("kwargs", [
        {"n_requests": 0},
        {"overlap": -0.1},
        {"overlap": 1.5},
        {"distribution": "pareto"},
    ])
    def test_bad_arguments_rejected(self, planted_default, kwargs):
        with pytest.raises(DataError):
            make_workload(planted_default, **kwargs)

    @pytest.mark.parametrize("value", [True, 2.5, "3", None, 0, -1])
    @pytest.mark.parametrize("where", ["batch size", "n_requests"])
    def test_counts_must_be_whole_numbers_in_range(self, planted_default, where, value):
        with pytest.raises(DataError, match=where):
            if where == "batch size":
                Workload(requests=("a",), targets=((),), batch_sizes=(value,))
            else:
                make_workload(planted_default, n_requests=value)
        assert Workload(("a",), ((),), batch_sizes=(np.int64(1),)).batch_sizes == (1,)

    def test_workload_validation(self):
        with pytest.raises(DataError):
            Workload(requests=(), targets=())
        with pytest.raises(DataError):
            Workload(requests=("a",), targets=())
        with pytest.raises(DataError):
            Workload(requests=("a",), targets=((),), batch_sizes=(5, 3))
        with pytest.raises(DataError):
            Workload(requests=("a",), targets=((),), batch_sizes=(0, 3))
        with pytest.raises(DataError):
            Workload(requests=("a",), targets=((),), batch_sizes=())
        with pytest.raises(DataError):
            Workload(requests=("a",), targets=((),), batch_sizes=(1.5,))


# ---------------------------------------------------------------------------
# Execution chains
# ---------------------------------------------------------------------------


class TestExecutionChains:
    def test_linear_chain(self):
        w = wf(["A", "B", "C"], [("A", "B"), ("B", "C")])
        chains = execution_chains(w)
        assert chains == {"A": ("A",), "B": ("A", "B"), "C": ("A", "B", "C")}

    def test_diamond_follows_smallest_parent(self):
        w = wf(["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        chains = execution_chains(w)
        assert chains["D"] == ("A", "B", "D")
        assert chains["C"] == ("A", "C")

    def test_multiple_roots(self):
        w = wf(["A", "B", "C"], [("A", "C"), ("B", "C")])
        chains = execution_chains(w)
        assert chains["A"] == ("A",)
        assert chains["B"] == ("B",)
        assert chains["C"] == ("A", "C")

    def test_single_node(self):
        assert execution_chains(wf(["X"], [])) == {"X": ("X",)}

    def test_maximal_traces_are_leaf_chains_sorted(self):
        w = wf(
            ["A", "B", "C", "D", "E"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "E")],
        )
        assert maximal_traces(w) == [["A", "B", "D"], ["A", "C", "E"]]

    def test_maximal_traces_cover_a_node_that_is_no_smallest_parent(self):
        # C is D's second parent, so D's chain runs through B and misses C.
        w = wf(["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        assert maximal_traces(w) == [["A", "C"], ["A", "B", "D"]]

    def test_isolated_nodes_are_their_own_traces(self):
        w = wf(["A", "B"], [])
        assert maximal_traces(w) == [["A"], ["B"]]


# ---------------------------------------------------------------------------
# Serving simulation
# ---------------------------------------------------------------------------


class TestRunServingSim:
    def test_untrained_model_serves_entry_only_hits(self, planted_default):
        # Freshly initialized weights score every edge below the admission
        # threshold, so each request collapses to the single entry operation:
        # one empty-path fetch per request, always a hit, zero applies.
        corpus = planted_default
        params = init_params(seed=0)
        workload = small_workload(corpus, n=6, batches=(3, 6))
        report = run_serving_sim(corpus.graph, params, workload, "stateless")
        assert report.request_costs == (5.0,) * 6
        assert report.hits == 6 and report.fallbacks == 0
        assert report.entries_applied == 0
        assert report.memory.n_bases == 1 and report.memory.n_residuals == 0

    def test_differential_equals_stateless_on_empty_paths(self, planted_default):
        corpus = planted_default
        params = init_params(seed=0)
        workload = small_workload(corpus, n=6, batches=(3, 6))
        stateless = run_serving_sim(corpus.graph, params, workload, "stateless")
        differential = run_serving_sim(corpus.graph, params, workload, "differential")
        assert differential.memory.total_bytes == stateless.memory.total_bytes
        assert differential.request_costs == stateless.request_costs

    def test_identical_runs_give_identical_reports(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus)
        a = run_serving_sim(corpus.graph, control_params, workload, "differential")
        b = run_serving_sim(corpus.graph, control_params, workload, "differential")
        assert a == b

    def test_memory_ordering_across_modes(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus)
        by_mode = {
            mode: run_serving_sim(corpus.graph, control_params, workload, mode)
            for mode in ("stateless", "differential", "stateful")
        }
        sl = by_mode["stateless"].memory.total_bytes
        d = by_mode["differential"].memory.total_bytes
        sf = by_mode["stateful"].memory.total_bytes
        assert sl <= d <= sf

    def test_all_modes_verify_against_oracle(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus, n=6, batches=(3, 6))
        for mode in ("stateless", "differential", "stateful"):
            report = run_serving_sim(
                corpus.graph, control_params, workload, mode, verify_fetches=True
            )
            assert report.verified is True

    def test_differential_bound_holds_on_large_deltas(self):
        # The last op of this chain has a delta norm near 240; a check that
        # summed the squared error in float32 once failed its own hit on it.
        # Both sides of the bound are now one float64 computation.
        chain = [(0, 4), (1, 4), (2, 0), (3, 1), (4, 2), (5, 2), (6, 2), (7, 4)]
        ops = {
            f"OP_L{l:02d}_V{v}": Operation(
                id=f"OP_L{l:02d}_V{v}",
                instruction=f"Stage {l + 1} variant {v} apply transform {v} of level {l + 1} "
                "to the running record set and log the outcome",
            )
            for l, v in chain
        }
        nodes = tuple(ops)
        doc = Workflow(
            id="WF_CHAIN", name="chain", description="", patterns_must=(), patterns_should=(),
            nodes=nodes, edges=tuple(zip(nodes, nodes[1:])), operations=ops,
        )
        workload = Workload(requests=("chain",) * 2, targets=(doc.edges,) * 2, batch_sizes=(1,))
        report = run_serving_sim(
            merge_workflows([doc]), init_params(seed=0), workload, "differential",
            workflow_cache={"chain": doc}, verify_fetches=True,
        )
        assert report.request_hits == (1, 8)  # cold, then every residual served
        assert report.verified is True

    def test_verification_off_reports_none(self, planted_default):
        corpus = planted_default
        workload = small_workload(corpus, n=3, batches=(3,))
        report = run_serving_sim(corpus.graph, init_params(seed=0), workload, "stateless")
        assert report.verified is None

    def test_warm_differential_store_stops_falling_back(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus)
        oracle = KVOracle(OracleConfig())
        store = CacheStore(corpus.graph, "differential", oracle=oracle)
        first = run_serving_sim(
            corpus.graph, control_params, workload, "differential", oracle=oracle, store=store
        )
        second = run_serving_sim(
            corpus.graph, control_params, workload, "differential", oracle=oracle, store=store
        )
        assert first.fallbacks > 0
        assert second.fallbacks == 0
        assert second.memory.total_bytes == first.memory.total_bytes

    def test_stateful_runs_never_hit_across_requests(self, planted_default, control_params):
        # The accounting models one store per request, each starting empty:
        # within a request each (path, op) pair is fetched once, so every
        # fetch counts as a recompute, although one store per run computes.
        corpus = planted_default
        workload = small_workload(corpus, n=6, batches=(3, 6))
        report = run_serving_sim(corpus.graph, control_params, workload, "stateful")
        assert report.hits == 0
        assert report.fallbacks > 0
        assert report.memory.n_fulls == report.fallbacks

    def test_stateful_cost_is_pure_prefill(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus, n=4, batches=(4,))
        report = run_serving_sim(corpus.graph, control_params, workload, "stateful")
        oracle = KVOracle(OracleConfig())
        probe = CacheStore(corpus.graph, "stateful", oracle=oracle)
        expected = []
        for text in workload.requests:
            workflow = generate(corpus.graph, control_params, text)
            chains = execution_chains(workflow)
            total = 0.0
            for node in workflow.nodes:
                path = chains[node][:-1]
                total += float(
                    len(probe.prefix_tokens(path)) + len(probe.op_tokens(node))
                )
            expected.append(total)
        assert report.request_costs == tuple(expected)

    def test_task_score_is_mean_edge_f1(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus, n=8, batches=(8,))
        report = run_serving_sim(corpus.graph, control_params, workload, "stateless")
        scores = [
            edge_f1(generate(corpus.graph, control_params, text).edges, target)
            for text, target in zip(workload.requests, workload.targets)
        ]
        assert report.task_score == pytest.approx(float(np.mean(scores)), abs=1e-12)

    def test_trace_log_and_stats_collect_leaf_chains(self, planted_default, control_params):
        from opflow.pruning import TransitionStats

        corpus = planted_default
        workload = small_workload(corpus, n=4, batches=(4,))
        stats = TransitionStats(corpus.graph)
        run_serving_sim(corpus.graph, control_params, workload, "stateless", stats=stats)
        expected = TransitionStats(corpus.graph)
        n_traces = 0
        for text in workload.requests:
            workflow = generate(corpus.graph, control_params, text)
            for trace in maximal_traces(workflow):
                expected.record(trace)
                n_traces += 1
        assert stats.edge_counts == expected.edge_counts
        assert stats.observed_pairs == expected.observed_pairs
        assert stats.total_observations == expected.total_observations
        assert stats.total_observations == n_traces
        assert sum(stats.edge_counts.values()) > 0

    def test_workflow_cache_short_circuits_generation(self, planted_default):
        # With a full cache the model parameters are never consulted, so a
        # deliberately wrong-shaped array works fine.
        corpus = planted_default
        workload = small_workload(corpus, n=3, batches=(3,))
        cache = {
            text: wf([corpus.graph.entry_ops[0]], [], wf_id=f"WF_{i}")
            for i, text in enumerate(workload.requests)
        }
        report = run_serving_sim(
            corpus.graph, object(), workload, "stateless", workflow_cache=cache
        )
        assert report.hits == 3

    def test_unknown_mode_rejected(self, planted_default):
        workload = small_workload(planted_default, n=3, batches=(3,))
        with pytest.raises(DataError):
            run_serving_sim(planted_default.graph, init_params(seed=0), workload, "cached")

    def test_injected_store_mode_mismatch_rejected(self, planted_default):
        corpus = planted_default
        workload = small_workload(corpus, n=3, batches=(3,))
        store = CacheStore(corpus.graph, "stateless")
        with pytest.raises(DataError):
            run_serving_sim(
                corpus.graph, init_params(seed=0), workload, "differential", store=store
            )

    def test_injected_store_builds_no_oracle(self, planted_default, monkeypatch):
        corpus = planted_default
        workload = small_workload(corpus, n=3, batches=(3,))
        store = CacheStore(corpus.graph, "differential", oracle=KVOracle())
        built = []
        real_init = KVOracle.__init__

        def counting_init(self, config=None):
            built.append(config)
            real_init(self, config)

        monkeypatch.setattr(KVOracle, "__init__", counting_init)
        run_serving_sim(corpus.graph, init_params(seed=0), workload, "differential", store=store)
        assert built == []

    def test_oracle_passed_with_a_store_must_be_the_stores(self, planted_default):
        corpus = planted_default
        workload = small_workload(corpus, n=3, batches=(3,))
        oracle = KVOracle(OracleConfig())
        store = CacheStore(corpus.graph, "differential", oracle=oracle)
        params = init_params(seed=0)
        with pytest.raises(DataError, match="oracle"):
            run_serving_sim(
                corpus.graph, params, workload, "differential", oracle=KVOracle(OracleConfig()), store=store
            )
        report = run_serving_sim(corpus.graph, params, workload, "differential", oracle=oracle, store=store)
        assert report.hits == 3

    @pytest.mark.parametrize("mode", ["stateless", "differential", "stateful"])
    def test_injected_fresh_store_reports_as_the_runs_own(self, planted_default, control_params, mode):
        # Accounting follows the mode alone: an injected stateful store
        # still models one empty store per request.
        corpus = planted_default
        workload = repeating_workload(corpus, "zipf")
        store = CacheStore(corpus.graph, mode, oracle=KVOracle(OracleConfig()))
        injected = run_serving_sim(
            corpus.graph, control_params, workload, mode, store=store, verify_fetches=True
        )
        own = run_serving_sim(corpus.graph, control_params, workload, mode, verify_fetches=True)
        assert injected == own
        assert injected.verified is True

    @pytest.mark.parametrize("distribution", ["uniform", "zipf"])
    @pytest.mark.parametrize("verify", [False, True])
    def test_stateful_report_matches_one_store_per_request(
        self, planted_default, control_params, distribution, verify
    ):
        corpus = planted_default
        workload = repeating_workload(corpus, distribution)
        report = run_serving_sim(
            corpus.graph, control_params, workload, "stateful", verify_fetches=verify
        )
        reference = one_store_per_request(corpus.graph, control_params, workload, verify)
        for field in fields(RunReport):
            if field.name != "request_fetches":
                assert getattr(report, field.name) == getattr(reference, field.name), field.name
        # The records keep the computing store's own flags: a pair an earlier
        # request fetched is a hit there, and a fallback in a fresh store.
        as_fresh = [tuple(r._replace(flag="fallback") for r in rs) for rs in report.request_fetches]
        assert as_fresh == list(reference.request_fetches)
        assert any(r.flag == "hit" for rs in report.request_fetches for r in rs)

    def test_stateful_computes_each_pair_once(self, planted_default, control_params, monkeypatch):
        corpus = planted_default
        workload = repeating_workload(corpus, "zipf")
        fetched = [
            (chain[:-1], node)
            for text in workload.requests
            for node, chain in execution_chains(generate(corpus.graph, control_params, text)).items()
        ]
        calls = []
        real_resume = KVOracle.resume

        def counting_resume(self, carry, tokens, position_offset):
            calls.append((len(tokens), position_offset))
            return real_resume(self, carry, tokens, position_offset)

        monkeypatch.setattr(KVOracle, "resume", counting_resume)
        run_serving_sim(corpus.graph, control_params, workload, "stateful")
        assert len(set(fetched)) < len(fetched)  # requests share pairs
        assert len(calls) == len(set(fetched))

    def test_stateful_shared_footprint_is_a_fold_over_the_records(self, planted_default, control_params):
        # The one computing store holds each distinct (path, op) pair once:
        # what a stateful store shared by the requests would hold.
        corpus = planted_default
        store = CacheStore(corpus.graph, "stateful", oracle=KVOracle(OracleConfig()))
        workload = repeating_workload(corpus, "zipf")
        report = run_serving_sim(corpus.graph, control_params, workload, "stateful", store=store)
        records = [r for rs in report.request_fetches for r in rs]
        shared = {(r.path, r.op): r.nbytes for r in records}
        assert len(shared) < len(records)
        fold = MemoryReport("stateful", 0, 0, sum(shared.values()), 0, 0, len(shared))
        assert store.memory_footprint() == fold
        assert report.memory.n_fulls == len(records)

    @pytest.mark.parametrize("mode", ["stateless", "differential", "stateful"])
    def test_head_keeps_the_records_of_its_requests_without_folding_again(
        self, planted_default, control_params, mode, monkeypatch
    ):
        corpus = planted_default
        workload = repeating_workload(corpus, "uniform")
        report = run_serving_sim(corpus.graph, control_params, workload, mode)
        assert len(report.request_fetches) == len(workload.requests)
        monkeypatch.setattr(harness, "_fold", None)
        for n in range(len(workload.requests) + 1):
            head = report.head(n)
            assert head.request_fetches == report.request_fetches[:n]
            assert head.request_costs == report.request_costs[:n]
            assert head.request_memory == report.request_memory[:n]

    def test_records_keep_no_fetched_tensor(self, planted_default, control_params, monkeypatch):
        # A differential hit is a fresh reconstruction; a record must not pin it.
        corpus = planted_default
        workload = repeating_workload(corpus, "zipf")
        store = CacheStore(corpus.graph, "differential", oracle=KVOracle(OracleConfig()))
        run_serving_sim(corpus.graph, control_params, workload, "differential", store=store)
        rebuilt = []
        real_reconstruct = kvstore.reconstruct

        def tracked_reconstruct(base, delta):
            kv = real_reconstruct(base, delta)
            rebuilt.append(weakref.ref(kv))
            return kv

        monkeypatch.setattr(kvstore, "reconstruct", tracked_reconstruct)
        report = run_serving_sim(corpus.graph, control_params, workload, "differential", store=store)
        gc.collect()
        assert rebuilt and all(ref() is None for ref in rebuilt)
        records = [r for rs in report.request_fetches for r in rs]
        assert [r.nbytes for r in records] == [
            kvstore.kv_file_nbytes(store.fetch(r.path, r.op)[0]) for r in records
        ]


def repeating_workload(corpus, distribution):
    """Eight sampled requests, then the first four again verbatim."""
    base = make_workload(corpus, n_requests=8, seed=5, distribution=distribution, batch_sizes=(8,))
    return replace(
        base,
        requests=base.requests + base.requests[:4],
        targets=base.targets + base.targets[:4],
        batch_sizes=(12,),
    )


def one_store_per_request(graph, params, workload, verify):
    """What stateful serving reports when every request gets a fresh store of
    its own and the footprint is summed over those stores."""
    oracle = KVOracle(OracleConfig())
    costs, hits, fallbacks, scores, entries, memory, records = [], [], [], [], [], [], []
    total = MemoryReport("stateful", 0, 0, 0, 0, 0, 0)
    counters = [f.name for f in fields(MemoryReport) if f.name != "mode"]
    verified = True
    for text, target in zip(workload.requests, workload.targets):
        workflow = generate(graph, params, text)
        store = CacheStore(graph, "stateful", oracle=oracle)
        cost, n_hit, n_entries, results = 0.0, 0, 0, []
        chains = execution_chains(workflow)
        for node, chain in chains.items():
            kv, result = store.fetch(chain[:-1], node)
            cost += fetch_cost(
                result.flag, result.entries_applied, result.prefix_tokens, result.op_tokens
            )
            n_hit += result.flag == "hit"
            n_entries += result.entries_applied
            expect = oracle.stateful_segment(store.prefix_tokens(chain[:-1]), store.op_tokens(node))
            verified = verified and np.array_equal(kv.states, expect.states)
            results.append(result)
        m = store.memory_footprint()
        total = MemoryReport(
            "stateful", *(getattr(total, name) + getattr(m, name) for name in counters)
        )
        costs.append(cost)
        hits.append(n_hit)
        fallbacks.append(len(chains) - n_hit)
        scores.append(edge_f1(workflow.edges, target))
        entries.append(n_entries)
        memory.append(total)
        records.append(tuple(results))
    return RunReport(
        "stateful", tuple(costs), tuple(hits), tuple(fallbacks), tuple(scores),
        tuple(entries), tuple(memory), verified=verified if verify else None,
        request_fetches=tuple(records),
    )


def diamond_graph():
    ops = {
        "OP_Z": "open the ticket and read the request",
        "OP_B": "look up the billing record for the account",
        "OP_M": "check the message history for earlier replies",
        "OP_A": "answer the customer with the findings",
    }
    full = Workflow(
        id="WF_DIAMOND", name="diamond", description="", patterns_must=(), patterns_should=(),
        nodes=tuple(sorted(ops)),
        edges=(("OP_Z", "OP_B"), ("OP_Z", "OP_M"), ("OP_B", "OP_A"), ("OP_M", "OP_A")),
        operations={k: Operation(id=k, instruction=v) for k, v in ops.items()},
    )
    return merge_workflows([full]), full


def shared_bases_dag(monkeypatch):
    """A graph and workload in which OP_A is fetched under several prefixes,
    two of them, (OP_Z, OP_B) and (OP_Z, OP_M), of equal token count, so that
    their bases share one (op, offset) key; each request text names its
    workflow, served in place of synthesis."""
    from opflow import harness

    ops = {
        "OP_Z": "open the ticket and read the request",
        "OP_B": "look up the billing record",
        "OP_M": "check the earlier message history",
        "OP_A": "answer the customer with the findings",
    }
    assert len(tokenize(ops["OP_B"])) == len(tokenize(ops["OP_M"]))
    shapes = {
        "via_b": (("OP_Z", "OP_B"), ("OP_B", "OP_A")),
        "via_m": (("OP_Z", "OP_M"), ("OP_M", "OP_A")),
        "direct": (("OP_Z", "OP_A"),),
        "diamond": (("OP_Z", "OP_B"), ("OP_Z", "OP_M"), ("OP_B", "OP_A"), ("OP_M", "OP_A")),
    }
    workflows = {
        text: Workflow(
            id=f"WF_{text.upper()}", name=text, description="", patterns_must=(), patterns_should=(),
            nodes=tuple(sorted({node for edge in edges for node in edge})), edges=edges,
            operations={k: Operation(id=k, instruction=v) for k, v in ops.items()},
        )
        for text, edges in shapes.items()
    }
    monkeypatch.setattr(
        harness, "_synthesize", lambda graph, params, texts: {t: workflows[t] for t in texts}
    )
    requests = ("via_b", "diamond", "via_m", "direct", "via_m", "diamond")
    workload = Workload(
        requests=requests, targets=tuple(workflows[t].edges for t in requests), batch_sizes=(1, 3, 6)
    )
    return merge_workflows(list(workflows.values())), workload


class TestOnePlanPerRequest:
    """``run_serving_sim`` sorts each workflow shape once: it fetches in the
    order of the dict ``execution_chains`` returns and records the leaf
    traces of those same chains, from one cached plan per shape."""

    def test_fetches_in_topological_order_with_one_sort_per_request(self, monkeypatch):
        from opflow import harness
        from opflow.graph import topological_order
        from opflow.pruning import TransitionStats

        graph, full = diamond_graph()
        # Node tuples in lexicographic order, which is not a topological
        # order here, so fetching in ``nodes`` or sorted order shows.
        workflows = [
            full,
            wf(["OP_A", "OP_M", "OP_Z"], [("OP_M", "OP_A"), ("OP_Z", "OP_M")], wf_id="WF_1"),
            wf(["OP_B", "OP_Z"], [("OP_Z", "OP_B")], wf_id="WF_2"),
            full,
        ]
        texts = [f"request {i}" for i in range(len(workflows))]
        workload = Workload(requests=tuple(texts), targets=tuple(w.edges for w in workflows), batch_sizes=(4,))
        cache = dict(zip(texts, workflows))

        expected_fetches, expected_stats = [], TransitionStats(graph)
        for w in workflows:
            chains = execution_chains(w)
            expected_fetches += [(chains[n][:-1], n) for n in topological_order(w.nodes, w.edges)]
            for trace in maximal_traces(w):
                expected_stats.record(trace)
        reference = run_serving_sim(graph, object(), workload, "differential", workflow_cache=cache)

        harness._plan.cache_clear()
        sorts, fetches = [], []
        monkeypatch.setattr(
            harness, "topological_order", lambda nodes, edges: sorts.append(1) or topological_order(nodes, edges)
        )
        real_fetch = CacheStore.fetch
        monkeypatch.setattr(
            CacheStore, "fetch", lambda store, path, op_id: fetches.append((path, op_id)) or real_fetch(store, path, op_id)
        )
        stats = TransitionStats(graph)
        report = run_serving_sim(
            graph, object(), workload, "differential", workflow_cache=cache, stats=stats, verify_fetches=True
        )
        # One sort per distinct workflow, not per request: ``full`` repeats.
        assert len(sorts) == len({(w.nodes, w.edges) for w in workflows}) == 3
        assert fetches == expected_fetches
        assert [(r.path, r.op) for rs in report.request_fetches for r in rs] == expected_fetches
        assert stats.edge_counts == expected_stats.edge_counts
        assert stats.observed_pairs == expected_stats.observed_pairs
        assert stats.total_observations == expected_stats.total_observations
        assert report.verified
        assert replace(report, verified=None) == reference

    def test_stats_check_each_distinct_trace_once(self, monkeypatch):
        from opflow.graph import OperationGraph
        from opflow.pruning import TransitionStats

        graph, full = diamond_graph()
        chain = wf(["OP_B", "OP_Z"], [("OP_Z", "OP_B")], wf_id="WF_2")
        workflows = [full, chain, full, full, chain]
        texts = [f"request {i}" for i in range(len(workflows))]
        workload = Workload(requests=tuple(texts), targets=tuple(w.edges for w in workflows), batch_sizes=(5,))
        cache = dict(zip(texts, workflows))
        distinct = {tuple(t) for w in workflows for t in maximal_traces(w)}

        checked = []
        real_check = OperationGraph.check_chain
        monkeypatch.setattr(
            OperationGraph, "check_chain",
            lambda self, ops, what: (what == "trace" and checked.append(tuple(ops))) or real_check(self, ops, what),
        )
        stats = TransitionStats(graph)
        for _ in range(2):
            run_serving_sim(graph, object(), workload, "differential", workflow_cache=cache, stats=stats)
        assert sorted(checked) == sorted(distinct)
        assert stats.total_observations == 2 * sum(len(maximal_traces(w)) for w in workflows)


class TestPlanCache:
    """The harness derives a workflow's plan once per shape, keyed by the
    value of its nodes and edges, and hands callers fresh objects."""

    def test_mutated_edges_change_the_fetch_order(self):
        graph, full = diamond_graph()
        workflow = replace(full, edges=(("OP_Z", "OP_B"), ("OP_Z", "OP_M"), ("OP_B", "OP_A")))
        workload = Workload(requests=("one request",), targets=((),), batch_sizes=(1,))
        cache = {"one request": workflow}

        def fetched():
            report = run_serving_sim(graph, object(), workload, "differential", workflow_cache=cache)
            return [(r.path, r.op) for r in report.request_fetches[0]]

        assert fetched() == [((), "OP_Z"), (("OP_Z",), "OP_B"), (("OP_Z", "OP_B"), "OP_A"), (("OP_Z",), "OP_M")]
        # Same object, new edges: OP_A now follows OP_M, so OP_M moves first.
        workflow.edges = (("OP_Z", "OP_B"), ("OP_Z", "OP_M"), ("OP_M", "OP_A"))
        assert fetched() == [((), "OP_Z"), (("OP_Z",), "OP_B"), (("OP_Z",), "OP_M"), (("OP_Z", "OP_M"), "OP_A")]
        assert execution_chains(workflow)["OP_A"] == ("OP_Z", "OP_M", "OP_A")

    def test_cache_stays_at_its_bound(self):
        harness._plan.cache_clear()
        bound = harness._PLAN_CACHE_SIZE
        for i in range(bound + 20):
            execution_chains(wf([f"N{i}", "R"], [("R", f"N{i}")]))
        info = harness._plan.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound
        assert info.misses == bound + 20

    def test_returned_objects_are_fresh(self):
        w = wf(["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D")])
        chains, traces = execution_chains(w), maximal_traces(w)
        expected_chains = {"A": ("A",), "B": ("A", "B"), "C": ("A", "C"), "D": ("A", "B", "D")}
        assert chains == expected_chains
        assert traces == [["A", "C"], ["A", "B", "D"]]
        chains["A"] = ("X",)
        del chains["D"]
        traces[0].append("Z")
        traces.pop()
        assert execution_chains(w) == expected_chains
        assert maximal_traces(w) == [["A", "C"], ["A", "B", "D"]]
        assert execution_chains(w) is not execution_chains(w)
        assert maximal_traces(w)[0] is not maximal_traces(w)[0]


class TestSynthesisOncePerText:
    """The harness scores each distinct text that ``workflow_cache`` does not
    hold exactly once, in blocks, and serves what ``generate`` would give."""

    @staticmethod
    def scored_texts(monkeypatch) -> list:
        from opflow import construct

        scored = []
        scores = construct._scores
        monkeypatch.setattr(
            construct, "_scores", lambda graph, params, texts: scored.extend(texts) or scores(graph, params, texts)
        )
        return scored

    @staticmethod
    def repeating(corpus) -> Workload:
        w = make_workload(corpus, n_requests=40, seed=5, overlap=0.5, batch_sizes=(1,))
        return replace(w, requests=w.requests + w.requests[::4], targets=w.targets + w.targets[::4])

    def test_each_distinct_uncached_text_is_scored_once(self, monkeypatch, planted_default, control_params):
        graph = planted_default.graph
        workload = self.repeating(planted_default)
        distinct = list(dict.fromkeys(workload.requests))
        generated = {text: generate(graph, control_params, text) for text in distinct}
        cached = {text: generated[text] for text in distinct[::3]}
        scored = self.scored_texts(monkeypatch)
        report = run_serving_sim(graph, control_params, workload, "differential", workflow_cache=cached)
        assert scored == [text for text in distinct if text not in cached]
        reference = run_serving_sim(graph, control_params, workload, "differential", workflow_cache=generated)
        assert report == reference

    def test_fully_cached_workload_never_reaches_the_scorer(self, monkeypatch, planted_default, control_params):
        graph = planted_default.graph
        workload = self.repeating(planted_default)
        cache = {text: generate(graph, control_params, text) for text in workload.requests}
        scored = self.scored_texts(monkeypatch)
        run_serving_sim(graph, control_params, workload, "stateful", workflow_cache=cache)
        assert scored == []

    def test_sweep_and_ablation_score_each_text_once(self, monkeypatch, planted_default, control_params):
        graph = planted_default.graph
        workload = replace(self.repeating(planted_default), batch_sizes=(10, 50))
        distinct = list(dict.fromkeys(workload.requests[:50]))
        scored = self.scored_texts(monkeypatch)
        sweep_batch_sizes(graph, control_params, workload)
        assert scored == distinct
        scored.clear()
        ablate_pruning(graph, control_params, workload, verify_fetches=False)
        assert scored == list(dict.fromkeys(workload.requests))


# ---------------------------------------------------------------------------
# Batch-size sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_rows_cover_modes_and_batches(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus)
        sweep = sweep_batch_sizes(corpus.graph, control_params, workload)
        assert [(r.batch_size, r.mode) for r in sweep.rows] == [
            (b, m)
            for b in (4, 8, 12)
            for m in ("stateless", "differential", "stateful")
        ]

    @pytest.mark.parametrize("case", ["planted", "shared_bases_dag", "energy_0.5_lambda_0.9"])
    def test_rows_match_individual_runs(self, planted_default, control_params, monkeypatch, case):
        # The reference is one fresh store per (batch, mode) cell over the
        # first B requests; the sweep folds every cell off one differential run.
        graph, params, workload = planted_default.graph, control_params, small_workload(planted_default)
        oracle, energy = KVOracle(), 0.95
        if case == "shared_bases_dag":
            graph, workload = shared_bases_dag(monkeypatch)
        elif case == "energy_0.5_lambda_0.9":
            oracle, energy = KVOracle(OracleConfig(lam=0.9)), 0.5
        sweep = sweep_batch_sizes(graph, params, workload, oracle=oracle, energy_target=energy)
        expected = []
        for batch in workload.batch_sizes:
            sub = Workload(
                requests=workload.requests[:batch],
                targets=workload.targets[:batch],
                batch_sizes=(batch,),
            )
            for mode in ("stateless", "differential", "stateful"):
                store = CacheStore(graph, mode, oracle=oracle, energy_target=energy)
                report = run_serving_sim(graph, params, sub, mode, store=store)
                m = report.memory
                expected.append(
                    SweepRow(
                        batch, mode, m.bases_bytes, m.residuals_bytes, m.fulls_bytes,
                        m.total_bytes, report.total_cost, report.mean_cost, report.p90_cost,
                        report.hits, report.fallbacks, report.task_score,
                    )
                )
        assert sweep.rows == expected
        assert any(r.residuals_bytes and r.fallbacks for r in sweep.rows)

    def test_serves_once(self, planted_default, monkeypatch):
        from opflow import harness

        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[2].requests))
            return run_serving_sim(*args, **kwargs)

        monkeypatch.setattr(harness, "run_serving_sim", counting)
        workload = small_workload(planted_default, n=14)
        sweep_batch_sizes(planted_default.graph, init_params(seed=0), workload)
        assert calls == [12]

    @pytest.mark.parametrize("call", ["sweep", "ablation"])
    def test_one_oracle_computation_per_distinct_input_per_call(
        self, planted_default, control_params, monkeypatch, call
    ):
        # Every base (op, offset) and non-empty in-context (path, op) is
        # computed once per call, and the ablation's pruned pass recomputes
        # each fallback once from the carry its store kept; a second call
        # computes them all again, and nothing the call built outlives it,
        # so no memo spans calls.
        corpus = planted_default
        if call == "sweep":
            workload = small_workload(corpus)
        else:
            workload = make_workload(
                corpus, n_requests=24, seed=11, overlap=0.5,
                distribution="zipf", ensure_coverage=False, batch_sizes=(24,),
            )
        n_tokens = {op: len(tokenize(o.instruction)) for op, o in corpus.graph.operations.items()}
        bases, segments = set(), set()
        for text in workload.requests:
            for node, chain in execution_chains(generate(corpus.graph, control_params, text)).items():
                path = chain[:-1]
                bases.add((node, sum(n_tokens[op] for op in path)))
                if path:
                    segments.add((path, node))
        assert segments

        calls, alive = [], []
        real_resume = KVOracle.resume
        real_init = CacheStore.__init__

        def counting_resume(self, carry, tokens, position_offset):
            kv, carry_out = real_resume(self, carry, tokens, position_offset)
            calls.append((len(tokens), position_offset))
            alive.extend((weakref.ref(kv), weakref.ref(carry_out)))
            return kv, carry_out

        def tracking_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            alive.append(weakref.ref(self))

        monkeypatch.setattr(KVOracle, "resume", counting_resume)
        monkeypatch.setattr(CacheStore, "__init__", tracking_init)
        oracle = KVOracle(OracleConfig())
        for _ in range(2):
            calls.clear()
            recomputed = 0
            if call == "sweep":
                sweep_batch_sizes(corpus.graph, control_params, workload, oracle=oracle)
            else:
                report = ablate_pruning(
                    corpus.graph, control_params, workload, PlanPolicy(k=2),
                    oracle=oracle, verify_fetches=False,
                )
                recomputed = report.pruned.fallbacks
                assert recomputed > 0  # the pruned pass recomputes pairs
            assert len(calls) == len(bases) + len(segments) + recomputed
        gc.collect()
        assert alive and all(ref() is None for ref in alive)

    def test_cost_and_tradeoff_csvs(self):
        rows = [
            SweepRow(b, m, 1, 2, 3, 6, 10.0 * b, 10.0, 12.5, b, 0, 0.5)
            for b in (1, 2)
            for m in ("stateless", "stateful")
        ]
        result = SweepResult(rows=rows)
        assert result.cost_csv().splitlines() == [
            "batch_size,mode,total_cost,mean_cost,p90_cost,hits,fallbacks",
            "1,stateless,10.0,10.0,12.5,1,0",
            "1,stateful,10.0,10.0,12.5,1,0",
            "2,stateless,20.0,10.0,12.5,2,0",
            "2,stateful,20.0,10.0,12.5,2,0",
        ]
        assert result.tradeoff_csv().splitlines() == [
            "mode,total_bytes,total_cost,mean_cost,p90_cost,task_score",
            "stateless,6,20.0,10.0,12.5,0.5",
            "stateful,6,20.0,10.0,12.5,0.5",
        ]

    def test_stateful_grows_linearly_shared_modes_flatten(self, planted_default, control_params):
        # Needs the full-size sweep: route coverage in the first few requests
        # warms the shared stores before the smallest batch size, after which
        # only the per-request stateful stores keep growing.
        corpus = planted_default
        workload = make_workload(corpus, n_requests=50, seed=11, overlap=0.5)
        sweep = sweep_batch_sizes(corpus.graph, control_params, workload)
        stateful = sweep.slope("stateful")
        assert stateful > 0
        assert sweep.slope("differential") <= 0.25 * stateful
        assert abs(sweep.slope("stateless")) < 0.01 * stateful

    def test_slope_exact_on_synthetic_rows(self):
        rows = [memory_row(b, "stateful", 7 * b + 3) for b in (10, 20, 30)]
        assert SweepResult(rows=rows).slope("stateful") == pytest.approx(7.0, abs=1e-9)

    def test_slope_needs_two_points(self):
        rows = [memory_row(10, "stateful", 5)]
        with pytest.raises(DataError):
            SweepResult(rows=rows).slope("stateful")

    def test_csv_shape_and_determinism(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus)
        a = sweep_batch_sizes(corpus.graph, control_params, workload)
        b = sweep_batch_sizes(corpus.graph, control_params, workload)
        assert a.to_csv() == b.to_csv()
        lines = a.to_csv().splitlines()
        assert lines[0] == "batch_size,mode,bases_bytes,residuals_bytes,fulls_bytes,total_bytes"
        assert len(lines) == 1 + 9

    def test_sweep_rejects_short_workload(self, planted_default):
        workload = small_workload(planted_default, n=6, batches=(4, 8))
        with pytest.raises(DataError):
            sweep_batch_sizes(planted_default.graph, init_params(seed=0), workload)


# ---------------------------------------------------------------------------
# Pruning ablation
# ---------------------------------------------------------------------------


class TestAblation:
    def test_uniform_k1_keeps_every_byte(self, planted_default, control_params):
        # Every residual the first pass materialized lies on a path the
        # workload executed, so keep-if-seen-once drops nothing.
        corpus = planted_default
        workload = small_workload(corpus)
        report = ablate_pruning(corpus.graph, control_params, workload, PlanPolicy(k=1))
        assert report.bytes_pruned == report.bytes_unpruned
        assert report.plan_report.bytes_after == report.bytes_pruned

    def test_zipf_k2_drops_cold_paths(self, planted_default, control_params):
        corpus = planted_default
        workload = make_workload(
            corpus, n_requests=24, seed=11, overlap=0.5,
            distribution="zipf", ensure_coverage=False, batch_sizes=(24,),
        )
        report = ablate_pruning(corpus.graph, control_params, workload, PlanPolicy(k=2))
        assert report.bytes_pruned < report.bytes_unpruned
        assert report.unpruned.verified is True
        assert report.pruned.verified is True

    def test_pruned_rerun_falls_back_on_dropped_pairs(self, planted_default, control_params):
        corpus = planted_default
        workload = make_workload(
            corpus, n_requests=24, seed=11, overlap=0.5,
            distribution="zipf", ensure_coverage=False, batch_sizes=(24,),
        )
        report = ablate_pruning(corpus.graph, control_params, workload, PlanPolicy(k=2))
        # The first pass ends with the store fully warmed for this workload,
        # so any fallback in the second pass is caused by the pruning.
        assert report.pruned.fallbacks > 0
        # And the rerun must not silently re-materialize what was dropped.
        assert report.pruned.memory.total_bytes == report.bytes_pruned

    def test_pruned_pass_serves_every_pair_of_a_dag_workflow(self, monkeypatch):
        # OP_M is no node's smallest parent: its pair reaches the stats only
        # if traces cover every chain, not just the leaf's.
        from opflow import harness

        graph, full = diamond_graph()
        monkeypatch.setattr(harness, "_synthesize", lambda graph, params, texts: dict.fromkeys(texts, full))
        workload = Workload(requests=("diamond",) * 4, targets=(full.edges,) * 4, batch_sizes=(4,))
        report = ablate_pruning(graph, object(), workload, PlanPolicy(k=2))
        assert report.pruned.request_fallbacks == (0, 0, 0, 0)
        assert (("OP_Z",), "OP_M") in {(e.path, e.op_id) for e in report.plan}
        assert report.bytes_pruned == report.bytes_unpruned

    def test_ablation_is_deterministic(self, planted_default, control_params):
        corpus = planted_default
        workload = small_workload(corpus)
        a = ablate_pruning(corpus.graph, control_params, workload, PlanPolicy(k=2))
        b = ablate_pruning(corpus.graph, control_params, workload, PlanPolicy(k=2))
        assert a.bytes_unpruned == b.bytes_unpruned
        assert a.bytes_pruned == b.bytes_pruned
        assert a.unpruned == b.unpruned
        assert a.pruned == b.pruned


# ---------------------------------------------------------------------------
# Delta sparsity report
# ---------------------------------------------------------------------------


class TestSparsityReport:
    PAIRS = [
        ("Map the variables into symbols", "Extract each relationship between quantities"),
        ("Extract each relationship", "Solve the resulting system"),
        ("", "Check the answer against reality"),
    ]

    def test_fractions_lie_in_unit_interval(self):
        report = sparsity_report(OracleConfig(), self.PAIRS)
        for p in report.pairs:
            assert 0.0 <= p.frac_below_threshold <= 1.0
            assert 0.0 <= p.frac_exact_zero <= 1.0

    def test_empty_prefix_has_zero_delta(self):
        report = sparsity_report(OracleConfig(), self.PAIRS)
        empty = report.pairs[2]
        assert empty.prefix_tokens == 0
        assert empty.frobenius_delta == 0.0
        assert empty.frac_exact_zero == 1.0
        assert empty.frac_below_threshold == 1.0

    def test_zero_decay_kills_every_delta(self):
        # With no recurrent memory the prefix cannot influence later
        # positions at all, so the difference is exactly zero everywhere.
        report = sparsity_report(OracleConfig(lam=0.0), self.PAIRS)
        for p in report.pairs:
            assert p.frac_exact_zero == 1.0
            assert p.frobenius_delta == 0.0

    def test_layer_rows_decompose_pair_norm(self):
        config = OracleConfig()
        report = sparsity_report(config, self.PAIRS)
        for p in report.pairs:
            layer_norms = [
                r.frobenius_delta for r in report.layers if r.pair_index == p.pair_index
            ]
            assert len(layer_norms) == config.layers
            assert np.sqrt(sum(n**2 for n in layer_norms)) == pytest.approx(
                p.frobenius_delta, rel=1e-6, abs=1e-9
            )

    def test_layer_rows_and_heatmap_match_element_loop(self):
        # One ordinary pair and one empty-prefix pair, whose all-zero delta
        # counts every entry as below the threshold.
        config = OracleConfig(layers=2, heads=2, head_dim=4)
        pairs = [self.PAIRS[0], self.PAIRS[2]]
        report = sparsity_report(config, pairs)
        oracle = KVOracle(config)
        frac_sums = np.zeros((config.layers, config.heads))
        abs_sums = np.zeros((config.layers, config.heads))
        layer_fracs = []
        for prefix_text, op_text in pairs:
            prefix, op = tokenize(prefix_text), tokenize(op_text)
            full = oracle.stateful_segment(prefix, op)
            delta = full.states - oracle.base_segment(op, len(prefix)).states
            peak = max(abs(float(d)) for d in delta.flat)
            cut = np.float32(0.1 * peak)  # the comparison runs in float32
            below = np.zeros(delta.shape[:2])
            total = np.zeros(delta.shape[:2])
            for layer, head, t, k in np.ndindex(delta.shape):
                below[layer, head] += peak == 0.0 or abs(delta[layer, head, t, k]) < cut
                total[layer, head] += abs(float(delta[layer, head, t, k]))
            per_head = delta.shape[2] * delta.shape[3]
            layer_fracs += (below.sum(axis=1) / (config.heads * per_head)).tolist()
            frac_sums += below / per_head
            abs_sums += total / per_head
        assert [r.frac_below_threshold for r in report.layers] == layer_fracs
        assert report.layers[-1].frac_below_threshold == 1.0
        assert 0.0 < report.layers[0].frac_below_threshold < 1.0
        for layer, head, mean_abs, mean_frac in report.heatmap:
            assert mean_frac == frac_sums[layer, head] / len(pairs)
            assert mean_abs == pytest.approx(abs_sums[layer, head] / len(pairs), rel=1e-6)

    def test_heatmap_covers_layer_head_grid(self):
        config = OracleConfig()
        report = sparsity_report(config, self.PAIRS)
        assert [(layer, head) for layer, head, _, _ in report.heatmap] == [
            (layer, head)
            for layer in range(config.layers)
            for head in range(config.heads)
        ]

    def test_csvs_are_deterministic(self):
        a = sparsity_report(OracleConfig(), self.PAIRS)
        b = sparsity_report(OracleConfig(), self.PAIRS)
        assert a.pairs_csv() == b.pairs_csv()
        assert a.layers_csv() == b.layers_csv()
        assert a.heatmap_csv() == b.heatmap_csv()

    def test_pairs_csv_headers(self):
        report = sparsity_report(OracleConfig(), self.PAIRS)
        lines = report.pairs_csv().splitlines()
        assert lines[0].startswith("# reference_not_asserted:")
        assert lines[1].startswith("# threshold:")
        assert lines[2].startswith("pair_index,")
        assert len(lines) == 3 + len(self.PAIRS)

    def test_no_pairs_rejected(self):
        with pytest.raises(DataError):
            sparsity_report(OracleConfig(), [])
