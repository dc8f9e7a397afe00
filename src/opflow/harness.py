"""Serving simulation: run request streams through the synthesis model and
the KV cache in each serving mode, with deterministic cost accounting.

Costs are simulated units, not wall-clock: a cache hit pays a fixed lookup
cost plus a per-entry residual-apply cost, while a fallback pays a per-token
"prefill" cost for the whole prefix-plus-operation span.  The units
(``PREFILL_PER_TOKEN``, ``APPLY_PER_ENTRY``, ``HIT_FIXED``) are arbitrary but
fixed; what matters is that identical seeds give identical reports.

A serving run records, then folds: per request, its fetch loop (one plan per
workflow shape) only computes and keeps the store's ``FetchResult`` of each
fetch, and one fold turns the records into the report.  Batch concurrency is
modeled as simultaneous live stores for the memory account and sequential
execution for the cost account: the fold accounts one empty store per
stateful request (one store per run computes), while stateless and
differential requests share one store, which is where the differential
layout's cross-request deduplication shows up in the sweep curves.

The batch-size sweep serves once, in differential mode, against a store
that only grows, and folds every mode's report off that run's records (a
stateless store holds exactly the warm differential store's bases); batch
size B is read off the first B per-request figures of each report.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .construct import PlantedCorpus, _synthesize, edge_f1
from .errors import DataError, _check_int
from .graph import OperationGraph, Workflow, topological_order
from .kvstore import CacheStore, FetchResult, MemoryReport
from .nn import ModelParams
from .oracle import KVOracle, OracleConfig, tokenize
from .pruning import PlanEntry, PlanPolicy, PlanReport, TransitionStats, apply_plan, plan_materialization

DEFAULT_BATCH_SIZES = (10, 20, 30, 40, 50)
_PLAN_CACHE_SIZE = 256  # workflow shapes whose execution plan is kept

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

    def __post_init__(self):
        if not self.requests:
            raise DataError("workload needs at least one request")
        if len(self.targets) != len(self.requests):
            raise DataError("each request needs a reference edge set")
        sizes = self.batch_sizes
        for size in sizes:
            _check_int("batch size", size, 1)
        if not (sizes and list(sizes) == sorted(set(sizes))):
            raise DataError(f"batch sizes must be positive ascending integers, got {sizes}")


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
    _check_int("n_requests", n_requests, 1)
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
    return Workload(tuple(requests), tuple(targets), tuple(batch_sizes))


# ---------------------------------------------------------------------------
# Workflow execution order
# ---------------------------------------------------------------------------


def execution_chains(workflow: Workflow) -> dict[str, tuple[str, ...]]:
    """Root-to-node chain for every node, following each node's smallest parent.

    The chain is the KV prefix context for the node's fetch; a chain that no
    other chain extends is a maximal executed trace.  The dict is in
    topological order, the order ``run_serving_sim`` fetches the nodes in.
    """
    return dict(_plan(tuple(workflow.nodes), tuple(workflow.edges))[0])


def maximal_traces(workflow: Workflow) -> list[list[str]]:
    """The smallest-parent chains that no other chain extends, sorted by last
    node: every fetched (path, op) pair is a prefix of one.  On a tree these
    are the leaves' chains; on a DAG, a node that is no child's smallest
    parent ends one too."""
    return [list(trace) for trace in _plan(tuple(workflow.nodes), tuple(workflow.edges))[1]]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(nodes: tuple[str, ...], edges: tuple[tuple[str, str], ...]) -> tuple[tuple, tuple]:
    """A workflow shape's ``(node, chain)`` pairs in fetch order and maximal
    traces, as tuples, keyed by value since a ``Workflow`` is mutable."""
    parents: dict[str, list[str]] = {node: [] for node in nodes}
    for src, dst in edges:
        parents[dst].append(src)
    chains: dict[str, tuple[str, ...]] = {}
    for node in topological_order(nodes, edges):
        chains[node] = chains[min(parents[node])] + (node,) if parents[node] else (node,)
    extended = {chain[-2] for chain in chains.values() if len(chain) > 1}
    return tuple(chains.items()), tuple(chains[node] for node in sorted(chains) if node not in extended)


# ---------------------------------------------------------------------------
# Serving simulation
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Per-request figures of one serving run, in order, folded from the
    store's fetch records in ``request_fetches``; ``request_memory[i]`` is the
    footprint right after request ``i`` (stateful: summed over per-request stores)."""

    mode: str
    request_costs: tuple[float, ...]
    request_hits: tuple[int, ...]
    request_fallbacks: tuple[int, ...]
    request_scores: tuple[float, ...]
    request_entries: tuple[int, ...]
    request_memory: tuple[MemoryReport, ...]
    verified: bool | None = None  # None when oracle verification was off
    request_fetches: tuple[tuple[FetchResult, ...], ...] = ()

    def head(self, n: int) -> RunReport:
        """What a run over only the first ``n`` requests reports (``verified``
        still covers the whole run), sliced rather than folded again."""
        sliced = {f.name: getattr(self, f.name)[:n] for f in fields(self) if f.name.startswith("request_")}
        return replace(self, **sliced)

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


def run_serving_sim(
    graph: OperationGraph,
    params: ModelParams,
    workload: Workload,
    mode: str,
    *,
    oracle: KVOracle | None = None,
    store: CacheStore | None = None,
    stats: TransitionStats | None = None,
    workflow_cache: Mapping[str, Workflow] | None = None,
    warm_differential: bool = True,
    verify_fetches: bool = False,
) -> RunReport:
    """Generate a workflow per request and execute it against the KV store.

    Workflows come from ``workflow_cache`` when it holds the request's text;
    every other distinct text is synthesized once, before serving, in
    fixed-size blocks of task rows (a lone text takes ``generate``'s path).
    Each operation fetches its KV segment under the chain prefix given by
    ``execution_chains``, in a plan derived once per workflow shape; fallbacks
    in differential mode materialize the missing residual (unless
    ``warm_differential`` is off, as when measuring a pruned store).  ``stats``
    records the plan's maximal traces for materialization planning.  The
    store is ``store``, or a fresh one built with ``oracle``; an ``oracle``
    passed with a store must be the store's.
    ``verify_fetches`` checks each fetch with ``CacheStore.verify_fetch``.

    Stateful mode accounts for one empty store per request but computes in
    one store per run: a request fetches each (path, op) pair at most once,
    so the fold gives what per-request stores would report.
    """
    if store is None:
        store = CacheStore(graph, mode, oracle=oracle)
    elif store.mode != mode:
        raise DataError(f"injected store is {store.mode!r}, expected {mode!r}")
    elif oracle is not None and oracle is not store.oracle:
        raise DataError("the oracle passed is not the injected store's")

    request_fetches: list[tuple[FetchResult, ...]] = []
    scores: list[float] = []
    memory: list[MemoryReport] = []
    verified = True
    cached = workflow_cache or {}
    generated = _synthesize(graph, params, (t for t in workload.requests if t not in cached))

    traces: list[tuple[str, ...]] = []
    for req_index, task_text in enumerate(workload.requests):
        wf = cached[task_text] if task_text in cached else generated[task_text]
        scores.append(edge_f1(wf.edges, workload.targets[req_index]))
        order, wf_traces = _plan(tuple(wf.nodes), tuple(wf.edges))
        traces += wf_traces
        records = []
        for node, chain in order:
            kv, result = store.fetch(chain[:-1], node)
            if result.flag == "fallback" and mode == "differential" and warm_differential:
                store.insert_residual(result.path, node)
            if verify_fetches and not store.verify_fetch(kv, result):
                verified = False
            records.append(result)
        request_fetches.append(tuple(records))
        memory.append(store.memory_footprint())

    if stats is not None:
        for trace in traces:
            stats.record(trace)
    return _fold(mode, request_fetches, scores, memory, verified if verify_fetches else None)


def _fold(
    mode: str, request_fetches: Sequence[tuple[FetchResult, ...]], scores: Sequence[float],
    store_memory: Sequence[MemoryReport], verified: bool | None,
) -> RunReport:
    """The run's report: every per-request figure, summed in fetch order in
    one pass over the records, which may be another mode's run of the same
    requests.  A stateless fetch is a hit with no entries applied.  Stateful
    accounting models one empty store per request: every fetch is a fallback,
    and the footprint after request ``i`` is the running sum of fetched bytes
    and fetches up to it."""
    n = len(scores)
    costs, hits, fallbacks, entries, fetched = [0.0] * n, [0] * n, [0] * n, [0] * n, [0] * n
    stateful = mode == "stateful"
    for request, records in enumerate(request_fetches):
        for _, _, flag, applied, n_prefix, n_op, nbytes in records:
            if mode != "differential":
                flag, applied = "fallback" if stateful else "hit", 0
            costs[request] += fetch_cost(flag, applied, n_prefix, n_op)
            entries[request] += applied
            (hits if flag == "hit" else fallbacks)[request] += 1
            fetched[request] += nbytes
    if stateful:
        running = zip(accumulate(fetched), accumulate(fallbacks))
        store_memory = [MemoryReport(mode, 0, 0, size, 0, 0, count) for size, count in running]
    return RunReport(
        mode, tuple(costs), tuple(hits), tuple(fallbacks), tuple(scores), tuple(entries),
        tuple(store_memory), verified, tuple(request_fetches),
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
    once: their stores exist simultaneously (stateful accounting models one
    per request, the other modes share one) and the recorded figure is total
    store bytes.
    The first ``max(batch_sizes)`` requests are served once, in differential
    mode, against a fresh store built with ``oracle`` and ``energy_target``;
    each mode's report is folded off that run (module docstring), and batch
    size B reads its first B requests.  A fetched tensor is never read, so
    no mode needs a store of its own.
    """
    largest = max(workload.batch_sizes)
    if largest > len(workload.requests):
        raise DataError(
            f"workload has {len(workload.requests)} requests but the sweep "
            f"needs {largest}"
        )
    served = replace(
        workload, requests=workload.requests[:largest], targets=workload.targets[:largest]
    )
    store = CacheStore(graph, "differential", oracle=oracle, energy_target=energy_target)
    run = run_serving_sim(graph, params, served, "differential", store=store)
    fetches, scores = run.request_fetches, run.request_scores
    bases = [MemoryReport("stateless", m.bases_bytes, 0, 0, m.n_bases, 0, 0) for m in run.request_memory]
    runs = {
        "stateless": _fold("stateless", fetches, scores, bases, None),
        "differential": run,
        "stateful": _fold("stateful", fetches, scores, [], None),
    }
    rows: list[SweepRow] = []
    for batch in workload.batch_sizes:
        for mode, report in runs.items():
            r = report.head(batch)
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
    plan: tuple[PlanEntry, ...]
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
    verify_fetches: bool = True,
) -> AblationReport:
    """Run differential serving, prune the warmed store, then run it again.

    The first pass warms every residual the workload touches and records the
    executed traces; the materialization plan then keeps only pairs whose
    path edges were each seen at least ``k`` times, so the second pass serves
    hot paths from residuals and recomputes cold ones, each from the carry
    the store kept after its prefix.  Both passes serve the workflows of one
    synthesis of the distinct texts, in fixed-size blocks.
    """
    policy = policy or PlanPolicy()
    stats = TransitionStats(graph)
    store = CacheStore(graph, "differential", oracle=oracle)
    cache = _synthesize(graph, params, workload.requests)

    unpruned = run_serving_sim(
        graph, params, workload, "differential",
        store=store, stats=stats, workflow_cache=cache, verify_fetches=verify_fetches,
    )
    bytes_unpruned = store.memory_footprint().total_bytes

    plan = plan_materialization(graph, stats, policy)
    plan_report = apply_plan(store, plan)
    bytes_pruned = store.memory_footprint().total_bytes

    pruned = run_serving_sim(
        graph, params, workload, "differential",
        store=store, workflow_cache=cache, warm_differential=False, verify_fetches=verify_fetches,
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
        delta = full.states - base.states
        magnitude = np.abs(delta)
        peak = float(magnitude.max())
        # With no difference at all, every entry counts as below the threshold.
        below = (magnitude < _SPARSITY_THRESHOLD * peak) | (peak == 0.0)
        pair_rows.append(
            SparsityPair(
                pair_index=index,
                prefix_tokens=len(prefix),
                op_tokens=len(op_tokens),
                frobenius_delta=float(np.sqrt(np.sum(delta**2))),
                frobenius_full=float(
                    np.sqrt(np.sum(full.keys**2) + np.sum(full.values**2))
                ),
                frac_below_threshold=float(below.mean()),
                frac_exact_zero=float(np.mean(magnitude == 0.0)),
            )
        )
        layer_norms = np.sqrt(np.sum(delta**2, axis=(1, 2, 3))).tolist()
        layer_fracs = below.mean(axis=(1, 2, 3)).tolist()
        layer_rows += [
            SparsityLayerRow(index, layer, norm, frac)
            for layer, (norm, frac) in enumerate(zip(layer_norms, layer_fracs))
        ]
        abs_sums += magnitude.mean(axis=(2, 3))
        frac_sums += below.mean(axis=(2, 3))
    n = len(pairs)
    heatmap = [
        (layer, head, float(abs_sums[layer, head] / n), float(frac_sums[layer, head] / n))
        for layer in range(config.layers)
        for head in range(config.heads)
    ]
    return SparsityReport(pairs=pair_rows, layers=layer_rows, heatmap=heatmap)
