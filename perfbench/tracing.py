"""Span tracing of opflow's layers from outside the library.

Each traced function is replaced, at every name its callers resolve, by a
wrapper that records a span: name, start, end, parent span and the current
request id, plus counts taken from the call's arguments and return value.
Module-level functions are rebound in every ``opflow`` module namespace that
holds them (``opflow.construct.gcn_forward`` as well as
``opflow.nn.gcn_forward``); methods are rebound on their class.  Spans stay
in memory until the run ends.  ``Tracer.uninstall`` restores every binding.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from math import prod
from typing import Callable


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _fetch_counts(args, kwargs, result) -> dict:
    fetch = result[1]
    return {"hits": int(fetch.flag == "hit"), "fallbacks": int(fetch.flag != "hit")}


def _stateful_counts(args, kwargs, result) -> dict:
    prefix = _arg(args, kwargs, 1, "prefix_tokens")
    op = _arg(args, kwargs, 2, "op_tokens")
    return {"tokens": len(prefix) + len(op)}


def _reconstruct_counts(args, kwargs, result) -> dict:
    return {"entries": _arg(args, kwargs, 1, "delta").entries}


def _insert_counts(args, kwargs, delta) -> dict:
    dense_entries = prod(delta.dense_shape)
    return {
        "entries": delta.entries,
        "dense_entries": dense_entries,
        "residual_bytes": delta.nbytes(),
        # float32 keys plus values at every coordinate of the combined shape
        "dense_bytes": 4 * dense_entries,
    }


def _plan_counts(args, kwargs, report) -> dict:
    return {"kept": report.kept, "dropped": report.dropped}


# (span name, module, owner attribute or None, function name, counter)
TARGETS: tuple[tuple[str, str, str | None, str, Callable | None], ...] = (
    ("graph.condition_on_task", "opflow.graph", None, "condition_on_task", None),
    ("features.embed_text", "opflow.features", "HashingEmbedder", "embed_text", None),
    ("features.assemble_features", "opflow.features", None, "assemble_features", None),
    ("nn.normalized_adjacency", "opflow.nn", None, "normalized_adjacency", None),
    ("nn.gcn_forward", "opflow.nn", None, "gcn_forward", None),
    ("nn.score_edges", "opflow.nn", None, "score_edges", None),
    ("nn.forward_loss", "opflow.nn", None, "forward_loss", None),
    ("nn.backward", "opflow.nn", None, "backward", None),
    ("nn.adamw_step", "opflow.nn", None, "adamw_step", None),
    ("construct.train", "opflow.construct", None, "train", None),
    ("construct.generate", "opflow.construct", None, "generate", None),
    ("construct.score_candidate_edges", "opflow.construct", None, "score_candidate_edges", None),
    ("construct.instantiate_workflow", "opflow.construct", None, "instantiate_workflow", None),
    ("oracle.stateful_segment", "opflow.oracle", "KVOracle", "stateful_segment", _stateful_counts),
    ("oracle.base_segment", "opflow.oracle", "KVOracle", "base_segment", None),
    ("kvstore.fetch", "opflow.kvstore", "CacheStore", "fetch", _fetch_counts),
    ("kvstore.insert_residual", "opflow.kvstore", "CacheStore", "insert_residual", _insert_counts),
    ("kvstore.memory_footprint", "opflow.kvstore", "CacheStore", "memory_footprint", None),
    ("kvstore.sparsify", "opflow.kvstore", None, "sparsify", None),
    ("kvstore.reconstruct", "opflow.kvstore", None, "reconstruct", _reconstruct_counts),
    ("kvstore.save_store", "opflow.kvstore", None, "save_store", None),
    ("kvstore.load_store", "opflow.kvstore", None, "load_store", None),
    ("pruning.TransitionStats.record", "opflow.pruning", "TransitionStats", "record", None),
    ("pruning.plan_materialization", "opflow.pruning", None, "plan_materialization", None),
    ("pruning.apply_plan", "opflow.pruning", None, "apply_plan", _plan_counts),
    ("harness.run_serving_sim", "opflow.harness", None, "run_serving_sim", None),
    ("harness.execution_chains", "opflow.harness", None, "execution_chains", None),
    ("harness.maximal_traces", "opflow.harness", None, "maximal_traces", None),
    ("harness.sweep_batch_sizes", "opflow.harness", None, "sweep_batch_sizes", None),
    ("harness.ablate_pruning", "opflow.harness", None, "ablate_pruning", None),
)

LAYERS = ("graph", "features", "nn", "construct", "oracle", "kvstore", "pruning", "harness")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    request: int | None
    counts: dict | None = None


class Tracer:
    """Records spans while installed; ``request`` tags the spans of one request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self, callers=()) -> None:
        """Wrap every target in opflow's modules and in the ``callers`` modules."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items() if n == "opflow" or n.startswith("opflow.")]
        modules += list(callers)
        for name, module_name, owner, attr, counter in TARGETS:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, self._wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, holder, attr: str, wrapper) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def layer_table(spans: list[Span], wall_s: float) -> list[dict]:
    """Per-layer calls, self ms and share of the traced wall time."""
    selfs = self_times(spans)
    rows = {layer: {"layer": layer, "calls": 0, "self_ms": 0.0} for layer in LAYERS}
    for span, own in zip(spans, selfs):
        row = rows[span.name.split(".", 1)[0]]
        row["calls"] += 1
        row["self_ms"] += own * 1e3
    traced_ms = sum(row["self_ms"] for row in rows.values())
    table = list(rows.values())
    table.append({"layer": "outside opflow", "calls": 0, "self_ms": wall_s * 1e3 - traced_ms})
    for row in table:
        row["share_pct"] = 100.0 * row["self_ms"] / (wall_s * 1e3)
    return table


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function calls, self ms and counts, named ``<module>.<function>.<stat>``."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ms[span.name] = self_ms.get(span.name, 0.0) + own * 1e3
        bucket = counts.setdefault(span.name, {})
        for key, value in (span.counts or {}).items():
            bucket[key] = bucket.get(key, 0) + value

    def count(name: str, key: str) -> int:
        return counts.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for name in (
        "features.embed_text",
        "nn.normalized_adjacency",
        "oracle.stateful_segment",
        "oracle.base_segment",
        "kvstore.insert_residual",
        "kvstore.reconstruct",
        "kvstore.fetch",
        "harness.run_serving_sim",
    ):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name, _, _, _, _ in TARGETS:
        metrics[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    metrics["oracle.stateful_segment.tokens"] = count("oracle.stateful_segment", "tokens")
    metrics["kvstore.reconstruct.entries"] = count("kvstore.reconstruct", "entries")
    metrics["kvstore.fetch.hits"] = count("kvstore.fetch", "hits")
    metrics["kvstore.fetch.fallbacks"] = count("kvstore.fetch", "fallbacks")
    metrics["kvstore.hit_ratio"] = ratio(count("kvstore.fetch", "hits"), calls.get("kvstore.fetch", 0))
    inserts = calls.get("kvstore.insert_residual", 0)
    metrics["kvstore.residual_bytes_per_pair"] = ratio(count("kvstore.insert_residual", "residual_bytes"), inserts)
    metrics["kvstore.dense_bytes_per_pair"] = ratio(count("kvstore.insert_residual", "dense_bytes"), inserts)
    metrics["kvstore.kept_fraction"] = ratio(
        count("kvstore.insert_residual", "entries"), count("kvstore.insert_residual", "dense_entries")
    )
    metrics["pruning.apply_plan.kept"] = count("pruning.apply_plan", "kept")
    metrics["pruning.apply_plan.dropped"] = count("pruning.apply_plan", "dropped")
    return metrics


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its ``<module>.<function>.<stat>`` name."""
    stat = name.rsplit(".", 1)[-1]
    if stat == "self_ms":
        return "ms"
    if stat == "overhead_pct":
        return "%"
    if stat in ("hit_ratio", "kept_fraction"):
        return "ratio"
    if stat.endswith("bytes_per_pair"):
        return "B"
    return "count"
