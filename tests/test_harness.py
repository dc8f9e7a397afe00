"""Tests for the serving simulation harness.

The slow fixtures (planted corpus, control-rate training) are session-scoped
in conftest.py; everything here reuses them.  Structural behavior that does
not depend on a trained model is exercised with freshly initialized
parameters, whose generated workflows collapse to the entry operation.
"""

from __future__ import annotations

import numpy as np
import pytest

from opflow.construct import edge_f1, generate
from opflow.errors import DataError
from opflow.graph import Operation, Workflow, merge_workflows
from opflow.harness import (
    APPLY_PER_ENTRY,
    HIT_FIXED,
    PREFILL_PER_TOKEN,
    SweepResult,
    SweepRow,
    Workload,
    ablate_pruning,
    combine_memory,
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
from opflow.oracle import KVOracle, OracleConfig
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

    def test_workload_validation(self):
        with pytest.raises(DataError):
            Workload(requests=(), targets=())
        with pytest.raises(DataError):
            Workload(requests=("a",), targets=())
        with pytest.raises(DataError):
            Workload(requests=("a",), targets=((),), batch_sizes=(5, 3))
        with pytest.raises(DataError):
            Workload(requests=("a",), targets=((),), batch_sizes=(0, 3))


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
        # The last op of this chain has a delta norm near 240; summing the
        # squared reconstruction error in float32 overshot the bound's 1e-6
        # absolute slack by 2.6e-6 on it.
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
        # One fresh store per request: within a request each (path, op) pair
        # is fetched once, so every fetch recomputes.
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
        assert stats == expected
        assert stats.total_observations == n_traces
        assert sum(stats.edge_counts.values()) > 0

    def test_workflow_cache_short_circuits_generation(self, planted_default):
        # With a full cache the model parameters are never consulted, so a
        # deliberately wrong-shaped array works fine.
        corpus = planted_default
        workload = small_workload(corpus, n=3, batches=(3,))
        cache = {
            text: wf([corpus.graph.entry_ops()[0]], [], wf_id=f"WF_{i}")
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

    def test_combine_memory_sums_fields(self):
        a = MemoryReport("stateful", 1, 2, 3, 4, 5, 6)
        b = MemoryReport("stateful", 10, 20, 30, 40, 50, 60)
        combo = combine_memory("stateful", [a, b])
        assert combo == MemoryReport("stateful", 11, 22, 33, 44, 55, 66)
        assert combo.total_bytes == 11 + 22 + 33


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

    def test_rows_match_individual_runs(self, planted_default, control_params):
        # The reference is one fresh run per (batch, mode) cell over the
        # first B requests; the sweep reads every cell off one run per mode.
        corpus = planted_default
        workload = small_workload(corpus)
        sweep = sweep_batch_sizes(corpus.graph, control_params, workload)
        expected = []
        for batch in workload.batch_sizes:
            sub = Workload(
                requests=workload.requests[:batch],
                targets=workload.targets[:batch],
                batch_sizes=(batch,),
                seed=workload.seed,
                overlap=workload.overlap,
            )
            for mode in ("stateless", "differential", "stateful"):
                report = run_serving_sim(corpus.graph, control_params, sub, mode)
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

    def test_serves_each_mode_once(self, planted_default, monkeypatch):
        from opflow import harness

        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[2].requests))
            return run_serving_sim(*args, **kwargs)

        monkeypatch.setattr(harness, "run_serving_sim", counting)
        workload = small_workload(planted_default, n=14)
        sweep_batch_sizes(planted_default.graph, init_params(seed=0), workload)
        assert calls == [12, 12, 12]

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
