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
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DataError, _check_int, _write_atomic
from .graph import OperationGraph
from .kvstore import CacheStore

PathKey = tuple[str, ...]


def path_digest(path: Iterable[str]) -> str:
    """Stable 16-hex-char digest of a prefix path, the report's ``path_hash``."""
    joined = ",".join(path).encode("utf-8")
    return hashlib.blake2b(joined, digest_size=8, person=b"opflow-path").hexdigest()


class TransitionStats:
    """Edge-traversal counts harvested from executed workflow traces.

    A trace is an op-id sequence whose consecutive pairs must be operation
    graph edges.  One count is kept per distinct trace, checked when first
    recorded; the properties are read-only views derived from those counts.
    """

    def __init__(self, graph: OperationGraph):
        self.graph = graph
        self._trace_counts: dict[PathKey, int] = {}

    def record(self, trace: Sequence[str]) -> None:
        trace = tuple(trace)
        if not trace:
            return
        if trace not in self._trace_counts:
            self.graph.check_chain(trace, "trace")
        self._trace_counts[trace] = self._trace_counts.get(trace, 0) + 1

    @property
    def total_observations(self) -> int:
        return sum(self._trace_counts.values())

    @property
    def edge_counts(self) -> Mapping[tuple[str, str], int]:
        counts: dict[tuple[str, str], int] = {}
        for trace, n in self._trace_counts.items():
            for step in zip(trace, trace[1:]):
                counts[step] = counts.get(step, 0) + n
        return MappingProxyType(counts)

    @property
    def observed_pairs(self) -> frozenset[tuple[PathKey, str]]:
        return frozenset((trace[:i], trace[i]) for trace in self._trace_counts for i in range(1, len(trace)))

    def min_edge_count(self, path: PathKey, op_id: str) -> int:
        return _min_edge_count(self.edge_counts, tuple(path) + (op_id,))


def _min_edge_count(edge_counts: Mapping[tuple[str, str], int], chain: PathKey) -> int:
    return min(edge_counts.get(step, 0) for step in zip(chain, chain[1:]))


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
        _check_int("k", self.k, 1)
        if self.budget is not None:
            _check_int("budget", self.budget, 0)


@dataclass(frozen=True)
class PlanEntry:
    path: PathKey
    op_id: str
    min_edge_count: int


def plan_materialization(
    graph: OperationGraph, stats: TransitionStats, policy: PlanPolicy | None = None
) -> tuple[PlanEntry, ...]:
    """Pick the observed pairs worth materializing.

    Entries are ordered hottest-first (descending min edge count, then path
    and op id), and truncated to the policy budget after ordering, so a tight
    budget keeps the most frequently exercised pairs.  Each pair is checked
    against ``graph`` unless it is ``stats.graph``, which checked every trace.
    """
    policy = policy or PlanPolicy()
    candidates = []
    edge_counts = stats.edge_counts
    for path, op_id in stats.observed_pairs:
        if graph is not stats.graph:
            graph.check_chain(path + (op_id,), "observed pair")
        count = _min_edge_count(edge_counts, path + (op_id,))
        if count >= policy.k:
            candidates.append(PlanEntry(path=path, op_id=op_id, min_edge_count=count))
    candidates.sort(key=lambda e: (-e.min_edge_count, e.path, e.op_id))
    return tuple(candidates[: policy.budget])


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


def apply_plan(store: CacheStore, plan: Sequence[PlanEntry]) -> PlanReport:
    """Make the store's residual set exactly the planned set.

    Planned pairs missing from the store are materialized; already-present
    ones are kept as-is (sparsification is deterministic, so recomputing
    would change nothing); residuals not in the plan are dropped.
    """
    if store.mode != "differential":
        raise DataError("materialization plans only apply to differential stores")
    before = store.memory_footprint()
    planned = {(entry.path, entry.op_id) for entry in plan}
    inserted = kept = 0
    for entry in plan:
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
        for entry in plan
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
            if not op_id or "," in op_id or "\t" in op_id or "\n" in op_id:
                raise DataError(f"op id {op_id!r} is not trace-log-safe")
        lines.append(f"{task_id}\t{','.join(ops)}\n")
    _write_atomic({path: lambda fh: fh.write("".join(lines).encode("utf-8"))})


def read_trace_log(path: str | Path) -> list[tuple[str, list[str]]]:
    traces = []
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
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
