"""Topology-aware selection of which residuals deserve materialization.

Materializing every (prefix path, operation) pair ever observed wastes bytes
on paths that will never recur.  This module tallies executed transitions,
then plans materialization only for pairs whose entire path is "hot": every
edge along the path (including the final hop into the operation) must have
been traversed at least ``k`` times.  Rarely-used pairs stay unmaterialized
and are served by the differential fallback, which is slower but correct.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError
from .graph import OperationGraph
from .kvstore import CacheStore, path_digest

PathKey = tuple[str, ...]


class TransitionStats:
    """Edge-traversal counts harvested from executed workflow traces.

    A trace is an op-id sequence whose consecutive pairs must be operation
    graph edges.  Recording is order-independent: any permutation of the same
    trace multiset produces identical stats.
    """

    def __init__(self, graph: OperationGraph):
        self.graph = graph
        self._edges = set(graph.edge_list)
        self.edge_counts: dict[tuple[str, str], int] = {}
        self.observed_pairs: set[tuple[PathKey, str]] = set()
        self.total_observations: int = 0

    def record(self, trace: Sequence[str]) -> None:
        trace = list(trace)
        if not trace:
            return
        for op_id in trace:
            if op_id not in self.graph.operations:
                raise DataError(f"trace references unknown operation {op_id!r}")
        for a, b in zip(trace, trace[1:]):
            if (a, b) not in self._edges:
                raise DataError(f"trace step {a!r} -> {b!r} is not a graph edge")
        for a, b in zip(trace, trace[1:]):
            self.edge_counts[(a, b)] = self.edge_counts.get((a, b), 0) + 1
        for i in range(1, len(trace)):
            self.observed_pairs.add((tuple(trace[:i]), trace[i]))
        self.total_observations += 1

    def min_edge_count(self, path: PathKey, op_id: str) -> int:
        chain = list(path) + [op_id]
        return min(self.edge_counts.get((a, b), 0) for a, b in zip(chain, chain[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionStats):
            return NotImplemented
        return (
            self.edge_counts == other.edge_counts
            and self.observed_pairs == other.observed_pairs
            and self.total_observations == other.total_observations
        )


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanPolicy:
    """Materialize a pair only if every edge on its path was seen >= k times;
    keep at most ``budget`` pairs (hottest first) when set."""

    k: int = 2
    budget: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise DataError(f"k must be at least 1, got {self.k}")
        if self.budget is not None and self.budget < 0:
            raise DataError(f"budget must be non-negative, got {self.budget}")


@dataclass(frozen=True)
class PlanEntry:
    path: PathKey
    op_id: str
    min_edge_count: int


@dataclass(frozen=True)
class MaterializationPlan:
    policy: PlanPolicy
    entries: tuple[PlanEntry, ...]

    def pairs(self) -> set[tuple[PathKey, str]]:
        return {(e.path, e.op_id) for e in self.entries}


def plan_materialization(
    graph: OperationGraph, stats: TransitionStats, policy: PlanPolicy | None = None
) -> MaterializationPlan:
    """Pick the observed pairs worth materializing.

    Entries are ordered hottest-first (descending min edge count, then path
    and op id), and truncated to the policy budget after ordering, so a tight
    budget keeps the most frequently exercised pairs.
    """
    policy = policy or PlanPolicy()
    edges = set(graph.edge_list)
    candidates = []
    for path, op_id in stats.observed_pairs:
        chain = list(path) + [op_id]
        if any((a, b) not in edges for a, b in zip(chain, chain[1:])):
            raise DataError(f"stats contain a pair that is no longer a graph path: {chain}")
        count = stats.min_edge_count(path, op_id)
        if count >= policy.k:
            candidates.append(PlanEntry(path=path, op_id=op_id, min_edge_count=count))
    candidates.sort(key=lambda e: (-e.min_edge_count, e.path, e.op_id))
    if policy.budget is not None:
        candidates = candidates[: policy.budget]
    return MaterializationPlan(policy=policy, entries=tuple(candidates))


@dataclass
class PlanReport:
    bytes_before: int
    bytes_after: int
    residual_bytes_before: int
    residual_bytes_after: int
    inserted: int
    kept: int
    dropped: int
    rows: tuple[tuple[str, str, int, int], ...]  # path_hash, op_id, min_count, bytes

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["path_hash", "op_id", "min_edge_count", "bytes"])
        writer.writerows(self.rows)
        return buf.getvalue()


def apply_plan(store: CacheStore, plan: MaterializationPlan) -> PlanReport:
    """Make the store's residual set exactly the planned set.

    Planned pairs missing from the store are materialized; already-present
    ones are kept as-is (sparsification is deterministic, so recomputing
    would change nothing); residuals not in the plan are dropped.
    """
    if store.mode != "differential":
        raise DataError("materialization plans only apply to differential stores")
    before = store.memory_footprint()
    planned = plan.pairs()
    inserted = kept = 0
    for entry in plan.entries:
        if (entry.path, entry.op_id) in store.residuals:
            kept += 1
        else:
            store.insert_residual(entry.path, entry.op_id)
            inserted += 1
    to_drop = [key for key in store.residuals if key not in planned]
    for path, op_id in to_drop:
        store.drop_residual(path, op_id)
    after = store.memory_footprint()
    rows = tuple(
        (
            path_digest(entry.path),
            entry.op_id,
            entry.min_edge_count,
            store.residuals[(entry.path, entry.op_id)].nbytes(),
        )
        for entry in plan.entries
    )
    return PlanReport(
        bytes_before=before.total_bytes,
        bytes_after=after.total_bytes,
        residual_bytes_before=before.residuals_bytes,
        residual_bytes_after=after.residuals_bytes,
        inserted=inserted,
        kept=kept,
        dropped=len(to_drop),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Trace log
# ---------------------------------------------------------------------------


def write_trace_log(path: str | Path, traces: Iterable[tuple[str, Sequence[str]]]) -> None:
    """One execution per line: task id, tab, comma-separated op ids."""
    lines = []
    for task_id, ops in traces:
        if "\t" in task_id or "\n" in task_id:
            raise DataError(f"task id {task_id!r} contains tab or newline")
        ops = list(ops)
        if not ops:
            raise DataError(f"trace for {task_id!r} is empty")
        for op_id in ops:
            if "," in op_id or "\t" in op_id or "\n" in op_id:
                raise DataError(f"op id {op_id!r} is not trace-log-safe")
        lines.append(f"{task_id}\t{','.join(ops)}\n")
    Path(path).write_text("".join(lines))


def read_trace_log(path: str | Path) -> list[tuple[str, list[str]]]:
    traces = []
    text = Path(path).read_text()
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1]:
            raise DataError(f"{path}:{line_no}: expected 'task_id<TAB>op,op,...'")
        task_id, joined = parts
        ops = joined.split(",")
        if any(not op for op in ops):
            raise DataError(f"{path}:{line_no}: empty op id in trace")
        traces.append((task_id, ops))
    return traces
