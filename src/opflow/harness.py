"""Serving simulation: run request streams through the synthesis model and
the KV cache in each serving mode, with deterministic cost accounting.

Costs are simulated units, not wall-clock: a cache hit pays a fixed lookup
cost plus a per-entry residual-apply cost, while a fallback pays a per-token
"prefill" cost for the whole prefix-plus-operation span.  The units
(``PREFILL_PER_TOKEN``, ``APPLY_PER_ENTRY``, ``HIT_FIXED``) are arbitrary but
fixed; what matters is that identical seeds give identical reports.

Batch concurrency is modeled as simultaneous live stores for the memory
account and sequential execution for the cost account: stateful mode gives
every request its own store, while stateless and differential requests share
one store, which is exactly where the differential layout's cross-request
deduplication shows up in the sweep curves.

The batch-size sweep serves each mode once: requests run in order against
stores that only grow, so batch size B is read off the first B per-request
records (cost, score, entries applied, footprint after) of that one run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .construct import PlantedCorpus, edge_f1, generate
from .errors import DataError
from .graph import OperationGraph, Workflow, topological_order
from .kvstore import MODES, CacheStore, MemoryReport
from .nn import ModelParams
from .oracle import KVOracle, OracleConfig, tokenize
from .pruning import (
    MaterializationPlan,
    PlanPolicy,
    PlanReport,
    TransitionStats,
    apply_plan,
    plan_materialization,
)

DEFAULT_BATCH_SIZES = (10, 20, 30, 40, 50)
SWEEP_MODES = ("stateless", "differential", "stateful")

# Simulated cost units (arbitrary but fixed; see module docstring).
PREFILL_PER_TOKEN = 1.0
APPLY_PER_ENTRY = 0.01
HIT_FIXED = 5.0


def fetch_cost(flag: str, entries_applied: int, prefix_tokens: int, op_tokens: int) -> float:
    """Simulated cost of one fetch, in the units above."""
    if flag == "hit":
        return HIT_FIXED + APPLY_PER_ENTRY * entries_applied
    return PREFILL_PER_TOKEN * (prefix_tokens + op_tokens)


@dataclass(frozen=True)
class Workload:
    """A request stream: task texts plus their planted reference edge sets."""

    requests: tuple[str, ...]
    targets: tuple[tuple[tuple[str, str], ...], ...]
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES
    seed: int = 0
    overlap: float = 0.5

    def __post_init__(self):
        if not self.requests:
            raise DataError("workload needs at least one request")
        if len(self.targets) != len(self.requests):
            raise DataError("each request needs a reference edge set")
        sizes = self.batch_sizes
        if any(b < 1 for b in sizes) or list(sizes) != sorted(set(sizes)):
            raise DataError(f"batch sizes must be positive and ascending, got {sizes}")


_ZIPF_EXPONENT = 1.6


def make_workload(
    corpus: PlantedCorpus,
    n_requests: int = 50,
    seed: int = 0,
    overlap: float = 0.5,
    distribution: str = "uniform",
    ensure_coverage: bool = True,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
) -> Workload:
    """Sample a request stream from the planted corpus.

    ``overlap`` sets how many routes each task mentions (as a fraction of the
    route count), which directly controls the shared-operation fraction
    between any two requests.  ``distribution`` picks routes uniformly or
    with Zipf-weighted popularity (hot routes recur, tail routes may appear
    once or never).  With ``ensure_coverage`` the first R requests each pin
    one distinct route so every chain gets exercised early.
    """
    if n_requests < 1:
        raise DataError("n_requests must be positive")
    if not (0.0 <= overlap <= 1.0):
        raise DataError(f"overlap must lie in [0, 1], got {overlap}")
    if distribution not in ("uniform", "zipf"):
        raise DataError(f"unknown route distribution {distribution!r}")
    n_routes = corpus.n_routes
    per_task = max(1, min(n_routes, round(overlap * n_routes)))
    if distribution == "zipf":
        weights = 1.0 / np.arange(1, n_routes + 1) ** _ZIPF_EXPONENT
        weights /= weights.sum()
    else:
        weights = np.full(n_routes, 1.0 / n_routes)

    rng = np.random.default_rng(seed)
    requests: list[str] = []
    targets: list[tuple[tuple[str, str], ...]] = []
    for i in range(n_requests):
        routes = set(
            int(r)
            for r in rng.choice(n_routes, size=per_task, replace=False, p=weights)
        )
        if ensure_coverage and i < n_routes:
            routes.add(i % n_routes)
            while len(routes) > per_task:
                routes.remove(max(r for r in routes if r != i % n_routes))
        ordered = tuple(sorted(routes))
        requests.append(corpus.compose_task(ordered, rng))
        targets.append(corpus.target_edges_for_routes(ordered))
    return Workload(
        requests=tuple(requests),
        targets=tuple(targets),
        batch_sizes=tuple(batch_sizes),
        seed=seed,
        overlap=overlap,
    )


# ---------------------------------------------------------------------------
# Workflow execution order
# ---------------------------------------------------------------------------


def execution_chains(workflow: Workflow) -> dict[str, tuple[str, ...]]:
    """Root-to-node chain for every node, following each node's smallest parent.

    The chain is the KV prefix context for the node's fetch; the chain of a
    leaf is a maximal executed trace.
    """
    parents: dict[str, list[str]] = {node: [] for node in workflow.nodes}
    for src, dst in workflow.edges:
        parents[dst].append(src)
    chains: dict[str, tuple[str, ...]] = {}
    for node in topological_order(workflow.nodes, workflow.edges):
        pred = sorted(parents[node])
        if pred:
            chains[node] = chains[pred[0]] + (node,)
        else:
            chains[node] = (node,)
    return chains


def maximal_traces(workflow: Workflow) -> list[list[str]]:
    """The smallest-parent chains of the workflow's leaves, sorted."""
    chains = execution_chains(workflow)
    has_out = {src for src, _ in workflow.edges}
    leaves = sorted(n for n in workflow.nodes if n not in has_out)
    return [list(chains[leaf]) for leaf in leaves]


# ---------------------------------------------------------------------------
# Serving simulation
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Per-request records of one serving run, in order; ``request_memory[i]`` is
    the footprint right after request ``i`` (stateful: summed over its stores)."""

    mode: str
    request_costs: tuple[float, ...]
    request_hits: tuple[int, ...]
    request_fallbacks: tuple[int, ...]
    request_scores: tuple[float, ...]
    request_entries: tuple[int, ...]
    request_memory: tuple[MemoryReport, ...]
    verified: bool | None = None  # None when oracle verification was off

    def head(self, n: int) -> RunReport:
        """What a run over only the first ``n`` requests reports (``verified``
        still covers the whole run)."""
        per_request = [f.name for f in fields(self) if f.name.startswith("request_")]
        return replace(self, **{name: getattr(self, name)[:n] for name in per_request})

    @property
    def memory(self) -> MemoryReport:
        return self.request_memory[-1]

    @property
    def task_score(self) -> float:
        return float(np.mean(self.request_scores))

    @property
    def entries_applied(self) -> int:
        return sum(self.request_entries)

    @property
    def total_cost(self) -> float:
        return float(sum(self.request_costs))

    @property
    def mean_cost(self) -> float:
        return self.total_cost / len(self.request_costs)

    @property
    def p90_cost(self) -> float:
        return percentile_nearest_rank(self.request_costs, 0.9)

    @property
    def hits(self) -> int:
        return sum(self.request_hits)

    @property
    def fallbacks(self) -> int:
        return sum(self.request_fallbacks)


def percentile_nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value."""
    if not values:
        raise DataError("cannot take a percentile of no values")
    if not (0.0 < q <= 1.0):
        raise DataError(f"q must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = int(np.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def combine_memory(mode: str, reports: Sequence[MemoryReport]) -> MemoryReport:
    return MemoryReport(
        mode=mode,
        bases_bytes=sum(r.bases_bytes for r in reports),
        residuals_bytes=sum(r.residuals_bytes for r in reports),
        fulls_bytes=sum(r.fulls_bytes for r in reports),
        n_bases=sum(r.n_bases for r in reports),
        n_residuals=sum(r.n_residuals for r in reports),
        n_fulls=sum(r.n_fulls for r in reports),
    )


def _distance(a, b) -> float:
    """Key/value Euclidean distance, summed in float64: float32 sums round
    by more than the energy bound's 1e-6 slack once deltas are large."""
    keys = a.keys.astype(np.float64) - b.keys
    values = a.values.astype(np.float64) - b.values
    return float(np.sqrt(np.sum(keys**2) + np.sum(values**2)))


def _verify_fetch(store: CacheStore, path: tuple[str, ...], op_id: str, kv, flag: str) -> bool:
    """Check one fetch output against the oracle per the mode contract."""
    oracle = store.oracle
    prefix = store.prefix_tokens(path)
    op_tokens = store.op_tokens(op_id)
    if store.mode == "stateless":
        expect = oracle.base_segment(op_tokens, len(prefix))
        return np.array_equal(kv.keys, expect.keys) and np.array_equal(kv.values, expect.values)
    full = oracle.stateful_segment(prefix, op_tokens)
    if store.mode == "differential" and flag == "hit" and path:
        base = oracle.base_segment(op_tokens, len(prefix))
        delta_norm = _distance(full, base)
        err = _distance(kv, full)
        bound = np.sqrt(max(0.0, 1.0 - store.energy_target)) * delta_norm + 1e-6
        return err <= bound
    return np.array_equal(kv.keys, full.keys) and np.array_equal(kv.values, full.values)


def run_serving_sim(
    graph: OperationGraph,
    params: ModelParams,
    workload: Workload,
    mode: str,
    *,
    oracle: KVOracle | None = None,
    energy_target: float = 0.95,
    store: CacheStore | None = None,
    stats: TransitionStats | None = None,
    workflow_cache: Mapping[str, Workflow] | None = None,
    warm_differential: bool = True,
    verify_fetches: bool = False,
) -> RunReport:
    """Generate a workflow per request and execute it against the KV store.

    Each operation fetches its KV segment under the chain prefix given by
    ``execution_chains``; fallbacks in differential mode materialize the
    missing residual (unless ``warm_differential`` is off, as when measuring
    a pruned store).  ``stats`` collects the executed maximal traces for
    materialization planning.
    """
    if mode not in MODES:
        raise DataError(f"unknown serving mode {mode!r}")
    oracle = oracle or KVOracle(OracleConfig())

    if store is None:
        if mode != "stateful":
            store = CacheStore(graph, mode, oracle=oracle, energy_target=energy_target)
    elif store.mode != mode:
        raise DataError(f"injected store is {store.mode!r}, expected {mode!r}")

    costs: list[float] = []
    hits: list[int] = []
    fallbacks: list[int] = []
    scores: list[float] = []
    entries: list[int] = []
    memory: list[MemoryReport] = []
    all_verified = True

    for req_index, task_text in enumerate(workload.requests):
        if workflow_cache is not None and task_text in workflow_cache:
            wf = workflow_cache[task_text]
        else:
            wf = generate(graph, params, task_text)
        scores.append(edge_f1(wf.edges, workload.targets[req_index]))

        if mode == "stateful" and store is None:
            req_store = CacheStore(graph, "stateful", oracle=oracle, energy_target=energy_target)
        else:
            req_store = store

        chains = execution_chains(wf)
        cost = 0.0
        n_hit = 0
        n_fall = 0
        n_entries = 0
        for node in topological_order(wf.nodes, wf.edges):
            path = chains[node][:-1]
            kv, result = req_store.fetch(path, node)
            cost += fetch_cost(
                result.flag, result.entries_applied, result.prefix_tokens, result.op_tokens
            )
            n_entries += result.entries_applied
            if result.flag == "hit":
                n_hit += 1
            else:
                n_fall += 1
                if mode == "differential" and warm_differential and path:
                    req_store.insert_residual(path, node)
            if verify_fetches and not _verify_fetch(req_store, path, node, kv, result.flag):
                all_verified = False
        costs.append(cost)
        hits.append(n_hit)
        fallbacks.append(n_fall)
        entries.append(n_entries)
        if req_store is store:
            memory.append(store.memory_footprint())
        else:  # per-request stateful stores: a running sum
            memory.append(combine_memory("stateful", memory[-1:] + [req_store.memory_footprint()]))

        if stats is not None:
            for trace in maximal_traces(wf):
                stats.record(trace)

    return RunReport(
        mode=mode,
        request_costs=tuple(costs),
        request_hits=tuple(hits),
        request_fallbacks=tuple(fallbacks),
        request_scores=tuple(scores),
        request_entries=tuple(entries),
        request_memory=tuple(memory),
        verified=all_verified if verify_fetches else None,
    )


# ---------------------------------------------------------------------------
# Batch-size sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One mode at one batch size: the run over the first ``batch_size`` requests."""

    batch_size: int
    mode: str
    bases_bytes: int
    residuals_bytes: int
    fulls_bytes: int
    total_bytes: int
    total_cost: float
    mean_cost: float
    p90_cost: float
    hits: int
    fallbacks: int
    task_score: float


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def totals(self, mode: str) -> list[tuple[int, int]]:
        return [(r.batch_size, r.total_bytes) for r in self.rows if r.mode == mode]

    def slope(self, mode: str) -> float:
        """Least-squares slope of total bytes over batch size."""
        pts = self.totals(mode)
        if len(pts) < 2:
            raise DataError(f"need at least two batch sizes to fit a slope for {mode}")
        x = np.array([p[0] for p in pts], dtype=np.float64)
        y = np.array([p[1] for p in pts], dtype=np.float64)
        return float(np.polyfit(x, y, 1)[0])

    def to_csv(self) -> str:
        """Store bytes per batch size and mode."""
        return _csv(_MEMORY_COLUMNS, self.rows)

    def cost_csv(self) -> str:
        """Simulated request costs per batch size and mode."""
        return _csv(_COST_COLUMNS, self.rows)

    def tradeoff_csv(self) -> str:
        """Memory against cost and task score per mode, at the largest batch."""
        largest = max(r.batch_size for r in self.rows)
        return _csv(_TRADEOFF_COLUMNS, [r for r in self.rows if r.batch_size == largest])


_MEMORY_COLUMNS = (
    "batch_size", "mode", "bases_bytes", "residuals_bytes", "fulls_bytes", "total_bytes"
)
_COST_COLUMNS = ("batch_size", "mode", "total_cost", "mean_cost", "p90_cost", "hits", "fallbacks")
_TRADEOFF_COLUMNS = ("mode", "total_bytes", "total_cost", "mean_cost", "p90_cost", "task_score")


def _csv(columns: Sequence[str], rows: Sequence[object]) -> str:
    """A header, then the named attributes of each row as ``str`` values
    (for a Python float, its shortest round-tripping repr)."""
    lines = [",".join(columns)] + [",".join(str(getattr(r, c)) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


def sweep_batch_sizes(
    graph: OperationGraph,
    params: ModelParams,
    workload: Workload,
    *,
    oracle: KVOracle | None = None,
    energy_target: float = 0.95,
) -> SweepResult:
    """Memory and cost per mode as the number of in-flight requests grows.

    Batch size B is modeled as the first B workload requests being live at
    once: their stores exist simultaneously (one per request in stateful
    mode, one shared otherwise) and the recorded figure is total store bytes.
    Each mode is served once over the first ``max(batch_sizes)`` requests,
    and batch size B reads the first B requests of that run.
    """
    largest = max(workload.batch_sizes)
    if largest > len(workload.requests):
        raise DataError(
            f"workload has {len(workload.requests)} requests but the sweep "
            f"needs {largest}"
        )
    oracle = oracle or KVOracle(OracleConfig())
    served = replace(
        workload, requests=workload.requests[:largest], targets=workload.targets[:largest]
    )
    cache = {text: generate(graph, params, text) for text in dict.fromkeys(served.requests)}
    runs = {
        mode: run_serving_sim(
            graph, params, served, mode,
            oracle=oracle, energy_target=energy_target, workflow_cache=cache,
        )
        for mode in SWEEP_MODES
    }
    rows: list[SweepRow] = []
    for batch in workload.batch_sizes:
        for mode in SWEEP_MODES:
            r = runs[mode].head(batch)
            m = r.memory
            rows.append(SweepRow(
                batch, mode, m.bases_bytes, m.residuals_bytes, m.fulls_bytes, m.total_bytes,
                r.total_cost, r.mean_cost, r.p90_cost, r.hits, r.fallbacks, r.task_score,
            ))
    return SweepResult(rows=rows)


# ---------------------------------------------------------------------------
# Pruning ablation
# ---------------------------------------------------------------------------


@dataclass
class AblationReport:
    policy: PlanPolicy
    unpruned: RunReport
    pruned: RunReport
    plan: MaterializationPlan
    plan_report: PlanReport
    bytes_unpruned: int
    bytes_pruned: int


def ablate_pruning(
    graph: OperationGraph,
    params: ModelParams,
    workload: Workload,
    policy: PlanPolicy | None = None,
    *,
    oracle: KVOracle | None = None,
    energy_target: float = 0.95,
    verify_fetches: bool = True,
) -> AblationReport:
    """Run differential serving, prune the warmed store, then run it again.

    The first pass warms every residual the workload touches and records the
    executed traces; the materialization plan then keeps only pairs whose
    path edges were each seen at least ``k`` times, so the second pass serves
    hot paths from residuals and recomputes cold ones.
    """
    policy = policy or PlanPolicy()
    oracle = oracle or KVOracle(OracleConfig())
    stats = TransitionStats(graph)
    store = CacheStore(graph, "differential", oracle=oracle, energy_target=energy_target)
    cache = {text: generate(graph, params, text) for text in dict.fromkeys(workload.requests)}

    unpruned = run_serving_sim(
        graph,
        params,
        workload,
        "differential",
        oracle=oracle,
        energy_target=energy_target,
        store=store,
        stats=stats,
        workflow_cache=cache,
        verify_fetches=verify_fetches,
    )
    bytes_unpruned = store.memory_footprint().total_bytes

    plan = plan_materialization(graph, stats, policy)
    plan_report = apply_plan(store, plan)
    bytes_pruned = store.memory_footprint().total_bytes

    pruned = run_serving_sim(
        graph,
        params,
        workload,
        "differential",
        oracle=oracle,
        energy_target=energy_target,
        store=store,
        workflow_cache=cache,
        warm_differential=False,
        verify_fetches=verify_fetches,
    )
    return AblationReport(
        policy=policy,
        unpruned=unpruned,
        pruned=pruned,
        plan=plan,
        plan_report=plan_report,
        bytes_unpruned=bytes_unpruned,
        bytes_pruned=bytes_pruned,
    )


# ---------------------------------------------------------------------------
# Delta sparsity report
# ---------------------------------------------------------------------------

_REFERENCE_NOTE = (
    "# reference_not_asserted: full-scale transformer measurements report "
    "over 75% of key entries and around 70% of value entries falling below "
    "the 10%-of-max threshold; the toy oracle is not gated on those figures."
)
_SPARSITY_THRESHOLD = 0.1  # a small entry is below this fraction of max |delta|


@dataclass(frozen=True)
class SparsityPair:
    pair_index: int
    prefix_tokens: int
    op_tokens: int
    frobenius_delta: float
    frobenius_full: float
    frac_below_threshold: float
    frac_exact_zero: float


@dataclass(frozen=True)
class SparsityLayerRow:
    pair_index: int
    layer: int
    frobenius_delta: float
    frac_below_threshold: float


@dataclass
class SparsityReport:
    pairs: list[SparsityPair]
    layers: list[SparsityLayerRow]
    heatmap: list[tuple[int, int, float, float]]  # layer, head, mean |delta|, mean frac below

    def pairs_csv(self) -> str:
        note = f"# threshold: entries with |delta| < {_SPARSITY_THRESHOLD!r} * max|delta|\n"
        columns = [f.name for f in fields(SparsityPair)]
        return _REFERENCE_NOTE + "\n" + note + _csv(columns, self.pairs)

    def layers_csv(self) -> str:
        return _csv([f.name for f in fields(SparsityLayerRow)], self.layers)

    def heatmap_csv(self) -> str:
        header = "layer,head,mean_abs_delta,mean_frac_below_threshold\n"
        return header + "".join(",".join(map(str, row)) + "\n" for row in self.heatmap)


def sparsity_report(
    config: OracleConfig,
    pairs: Sequence[tuple[str, str]],
) -> SparsityReport:
    """Per-(prefix, op) statistics of the prefix-induced KV difference.

    For every text pair the oracle computes the op's KV segment with and
    without the prefix; the report covers the element-wise difference over
    the combined key/value space, overall and per layer, plus a layer-by-head
    grid.
    """
    if not pairs:
        raise DataError("sparsity report needs at least one (prefix, op) pair")
    oracle = KVOracle(config)
    pair_rows: list[SparsityPair] = []
    layer_rows: list[SparsityLayerRow] = []
    abs_sums = np.zeros((config.layers, config.heads), dtype=np.float64)
    frac_sums = np.zeros_like(abs_sums)
    for index, (prefix_text, op_text) in enumerate(pairs):
        prefix = tokenize(prefix_text)
        op_tokens = tokenize(op_text)
        full = oracle.stateful_segment(prefix, op_tokens)
        base = oracle.base_segment(op_tokens, len(prefix))
        delta = np.concatenate([full.keys - base.keys, full.values - base.values], axis=3)
        magnitude = np.abs(delta)
        peak = float(magnitude.max())
        cut = _SPARSITY_THRESHOLD * peak
        below = float(np.mean(magnitude < cut)) if peak > 0.0 else 1.0
        pair_rows.append(
            SparsityPair(
                pair_index=index,
                prefix_tokens=len(prefix),
                op_tokens=len(op_tokens),
                frobenius_delta=float(np.sqrt(np.sum(delta**2))),
                frobenius_full=float(
                    np.sqrt(np.sum(full.keys**2) + np.sum(full.values**2))
                ),
                frac_below_threshold=below,
                frac_exact_zero=float(np.mean(magnitude == 0.0)),
            )
        )
        for layer in range(config.layers):
            mag_l = magnitude[layer]
            layer_rows.append(
                SparsityLayerRow(
                    pair_index=index,
                    layer=layer,
                    frobenius_delta=float(np.sqrt(np.sum(delta[layer] ** 2))),
                    frac_below_threshold=float(np.mean(mag_l < cut)) if peak > 0.0 else 1.0,
                )
            )
            for head in range(config.heads):
                abs_sums[layer, head] += float(mag_l[head].mean())
                frac_sums[layer, head] += (
                    float(np.mean(mag_l[head] < cut)) if peak > 0.0 else 1.0
                )
    n = len(pairs)
    heatmap = [
        (layer, head, float(abs_sums[layer, head] / n), float(frac_sums[layer, head] / n))
        for layer in range(config.layers)
        for head in range(config.heads)
    ]
    return SparsityReport(pairs=pair_rows, layers=layer_rows, heatmap=heatmap)
