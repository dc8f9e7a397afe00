"""Workflow documents and the merged operation graph.

A *workflow document* is a JSON file describing one agent workflow: a small DAG
of atomic operations, each with an instruction and trigger patterns.  Many
documents are merged into one shared :class:`OperationGraph` by deduplicating
operations whose instructions match after normalization; the merged graph is
the candidate space from which new workflows are synthesized, and a *graph
file* persists it.  Both document kinds share one set of checks, and every DAG
question is answered by one pass of Kahn's algorithm.

Conditioning the merged graph on a task inserts a virtual task node connected
bidirectionally to every operation (:func:`condition_on_task`), which is the
graph the neural scorer consumes.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CycleError, DataError, DocumentError, MergeError

TASK_NODE_ID = "__task__"

_REQUIRED_FIELDS = ("id", "name", "description", "patterns", "graph_structure", "operations")


@dataclass(frozen=True)
class Operation:
    """One atomic workflow step.

    ``name`` is a display label carried through from the document; identity is
    the ``id`` and semantic identity (for dedup) is the normalized instruction.
    """

    id: str
    instruction: str
    patterns_must: tuple[str, ...] = ()
    patterns_should: tuple[str, ...] = ()
    name: str = ""


@dataclass
class Workflow:
    """A parsed workflow document: a DAG over its own operations."""

    id: str
    name: str
    description: str
    patterns_must: tuple[str, ...]
    patterns_should: tuple[str, ...]
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    operations: dict[str, Operation]


@dataclass(frozen=True, eq=False)
class OperationGraph:
    """The merged, deduplicated DAG of operations from many workflows.

    ``node_sources`` / ``edge_sources`` record which workflow ids contributed
    each element; ``merged_from`` maps every canonical operation id to the
    ``(workflow_id, original_op_id)`` pairs folded into it.

    A graph is immutable once built and hashes by identity, because what is
    derived from it is cached per graph object: its model inputs
    (``construct``), edge set, and its canonical orders ``node_ids``,
    ``edge_list`` and ``entry_ops``, each computed on first use and held as a
    tuple so that no caller can reorder it.
    """

    operations: dict[str, Operation]
    edges: tuple[tuple[str, str], ...]
    node_sources: dict[str, tuple[str, ...]] = field(default_factory=dict)
    edge_sources: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    merged_from: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        """Canonical node order: lexicographic by operation id."""
        return tuple(sorted(self.operations))

    @cached_property
    def edge_list(self) -> tuple[tuple[str, str], ...]:
        """Canonical candidate-edge order: lexicographic by (source, target)."""
        return tuple(sorted(self.edges))

    @cached_property
    def _edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    def check_chain(self, ops: Sequence[str], what: str) -> None:
        """Raise :class:`DataError`, naming ``what``, at the first op that is
        not an operation of the graph or the first consecutive pair that is
        not an edge.  Edges join operations, so a valid chain costs one
        membership test per op."""
        if ops and ops[0] not in self.operations:
            raise DataError(f"unknown operation {ops[0]!r} in {what}")
        for a, b in zip(ops, ops[1:]):
            if (a, b) not in self._edge_set:
                if b not in self.operations:
                    raise DataError(f"unknown operation {b!r} in {what}")
                raise DataError(f"{what} step {a!r} -> {b!r} is not a graph edge")

    @cached_property
    def entry_ops(self) -> tuple[str, ...]:
        """Operations with no incoming edge, in canonical order."""
        targets = {dst for _, dst in self.edges}
        return tuple(v for v in self.node_ids if v not in targets)


@dataclass
class TaskGraph:
    """An operation graph conditioned on one task.

    Adds a virtual task node with bidirectional edges to every operation, so
    two rounds of message passing let every operation exchange information
    with the task (and, through it, with every other operation).
    """

    graph: OperationGraph
    task_text: str

    @property
    def node_ids(self) -> tuple[str, ...]:
        """Operations in canonical order, task node last."""
        return self.graph.node_ids + (TASK_NODE_ID,)

    @property
    def edge_list(self) -> tuple[tuple[str, str], ...]:
        ops = self.graph.node_ids
        t = TASK_NODE_ID
        return self.graph.edge_list + tuple((t, v) for v in ops) + tuple((v, t) for v in ops)


def normalize_instruction(text: str) -> str:
    """Dedup key: case-folded, whitespace-collapsed instruction text."""
    return " ".join(text.casefold().split())


# ---------------------------------------------------------------------------
# DAG order and cycle witnesses
# ---------------------------------------------------------------------------


def _kahn(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> tuple[list[str], list[str]]:
    """Kahn's algorithm, popping the smallest ready node first.

    Returns the order of every node it could place and, sorted, the nodes it
    could not: those on or downstream of a cycle, so none exactly when the
    graph is acyclic.  Edges touching unknown nodes raise :class:`DataError`.
    """
    deg = dict.fromkeys(nodes, 0)
    succ: dict[str, list[str]] = {v: [] for v in deg}
    for src, dst in edges:
        if src not in deg or dst not in deg:
            unknown = src if src not in deg else dst
            raise DataError(f"edge ({src!r}, {dst!r}) references unknown node {unknown!r}")
        succ[src].append(dst)
        deg[dst] += 1
    ready = [v for v, d in deg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            deg[w] -= 1
            if deg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) == len(deg):
        return order, []
    return order, sorted(v for v, d in deg.items() if d)


def _witness(unordered: list[str], edges: Iterable[tuple[str, str]]) -> list[str]:
    """A cycle ``[a, b, ..., a]`` among the nodes Kahn could not order: each
    has an unordered predecessor, so walking from the smallest one to its
    smallest unordered predecessor repeats a node, closing the loop."""
    pred: dict[str, list[str]] = {v: [] for v in unordered}
    for src, dst in edges:
        if src in pred and dst in pred:
            pred[dst].append(src)
    walk = [unordered[0]]
    at = {unordered[0]: 0}
    while (v := min(pred[walk[-1]])) not in at:
        at[v] = len(walk)
        walk.append(v)
    loop = walk[at[v]:] + [v]
    loop.reverse()
    return loop


def validate_dag(nodes: Iterable[str], edges: Collection[tuple[str, str]]) -> list[str] | None:
    """Check acyclicity; return ``None`` if acyclic, else a cycle witness.

    The witness is a node sequence ``[a, b, ..., a]`` whose consecutive pairs
    are all edges.  Edges touching unknown nodes raise :class:`DataError`.
    """
    _, unordered = _kahn(nodes, edges)
    return _witness(unordered, edges) if unordered else None


def topological_order(nodes: Iterable[str], edges: Collection[tuple[str, str]]) -> list[str]:
    """Deterministic topological order (Kahn, lexicographic tie-break).

    Raises :class:`CycleError` carrying :func:`validate_dag`'s witness when
    the graph has a cycle, and :class:`DataError` on an unknown endpoint.
    """
    order, unordered = _kahn(nodes, edges)
    if unordered:
        raise CycleError(_witness(unordered, edges))
    return order


# ---------------------------------------------------------------------------
# Document parsing / serialization, shared by workflow documents and graph files
# ---------------------------------------------------------------------------


def _decode(document: str | bytes | Mapping) -> dict:
    """The top-level object of raw JSON text or an already-decoded mapping."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DocumentError("$", f"malformed JSON: {exc}") from None
    return _expect_object(document, "$")


def _require(doc: dict, keys: Iterable[str], path: str) -> None:
    for key in keys:
        if key not in doc:
            raise DocumentError(f"{path}.{key}", "missing required field")


def _expect_object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(path, f"expected a string, got {type(value).__name__}")
    return value


def _expect_str_list(value: object, path: str) -> tuple[str, ...]:
    return tuple(_expect_str(item, f"{path}[{i}]") for i, item in enumerate(_expect_list(value, path)))


def _expect_pair(value: object, path: str, what: str) -> tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(path, f"expected a {what} pair")
    return _expect_str(value[0], f"{path}[0]"), _expect_str(value[1], f"{path}[1]")


def _parse_patterns(value: object, path: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    value = _expect_object(value, path)
    must = _expect_str_list(value.get("must", []), f"{path}.must")
    should = _expect_str_list(value.get("should", []), f"{path}.should")
    return must, should


def _parse_operations(value: object, path: str) -> dict[str, Operation]:
    """Operation id -> :class:`Operation`, each needing an instruction."""
    operations: dict[str, Operation] = {}
    for op_id, raw in _expect_object(value, path).items():
        where = f"{path}.{op_id}"
        if "->" in op_id:
            raise DocumentError(where, "operation id contains '->', the edge key separator")
        raw = _expect_object(raw, where)
        _require(raw, ("instruction",), where)
        must, should = _parse_patterns(raw.get("patterns", {}), f"{where}.patterns")
        operations[op_id] = Operation(
            id=op_id,
            instruction=_expect_str(raw["instruction"], f"{where}.instruction"),
            patterns_must=must,
            patterns_should=should,
            name=_expect_str(raw.get("name", ""), f"{where}.name"),
        )
    return operations


def _parse_edges(value: object, path: str, nodes: Collection[str]) -> list[tuple[str, str]]:
    """``[source, target]`` pairs in document order: known endpoints, no
    duplicates, no cycle."""
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for i, pair in enumerate(_expect_list(value, path)):
        where = f"{path}[{i}]"
        edge = _expect_pair(pair, where, "[source, target]")
        for end, node in enumerate(edge):
            if node not in nodes:
                raise DocumentError(f"{where}[{end}]", f"edge references unknown node {node!r}")
        if edge in seen:
            raise DocumentError(where, f"duplicate edge [{edge[0]!r}, {edge[1]!r}]")
        seen.add(edge)
        edges.append(edge)
    witness = validate_dag(nodes, edges)
    if witness is not None:
        raise DocumentError(path, f"cycle: {' -> '.join(witness)}")
    return edges


def _operation_document(op: Operation) -> dict:
    return {
        "name": op.name,
        "instruction": op.instruction,
        "patterns": {"must": list(op.patterns_must), "should": list(op.patterns_should)},
    }


def parse_workflow(document: str | bytes | Mapping) -> Workflow:
    """Parse and validate one workflow document.

    Accepts raw JSON text or an already-decoded mapping.  Validation covers:
    required fields and their types, unique node ids, edges between declared
    nodes with no duplicates and no cycle, and exactly one operation
    definition per node.  Errors are :class:`DocumentError`\\ s carrying the
    offending document path.
    """
    doc = _decode(document)
    _require(doc, _REQUIRED_FIELDS, "$")
    wf_id = _expect_str(doc["id"], "$.id")
    name = _expect_str(doc["name"], "$.name")
    description = _expect_str(doc["description"], "$.description")
    patterns_must, patterns_should = _parse_patterns(doc["patterns"], "$.patterns")

    gs = _expect_object(doc["graph_structure"], "$.graph_structure")
    _require(gs, ("nodes", "edges"), "$.graph_structure")
    nodes = _expect_str_list(gs["nodes"], "$.graph_structure.nodes")
    declared: set[str] = set()
    for i, node in enumerate(nodes):
        if node in declared:
            raise DocumentError(f"$.graph_structure.nodes[{i}]", f"duplicate node id {node!r}")
        declared.add(node)
    edges = _parse_edges(gs["edges"], "$.graph_structure.edges", declared)

    operations = _parse_operations(doc["operations"], "$.operations")
    for op_id in operations:
        if op_id not in declared:
            raise DocumentError(f"$.operations.{op_id}", f"operation {op_id!r} is not a declared node")
    for node in nodes:
        if node not in operations:
            raise DocumentError(f"$.operations.{node}", "missing operation definition for node")

    return Workflow(
        id=wf_id,
        name=name,
        description=description,
        patterns_must=patterns_must,
        patterns_should=patterns_should,
        nodes=nodes,
        edges=tuple(edges),
        operations=operations,
    )


def serialize_workflow(workflow: Workflow) -> str:
    """Canonical document text: sorted object keys, 2-space indent.

    Node and edge arrays keep document order; only object keys are sorted.
    ``parse -> serialize -> parse`` is a fixed point.
    """
    doc = {
        "id": workflow.id,
        "name": workflow.name,
        "description": workflow.description,
        "patterns": {
            "must": list(workflow.patterns_must),
            "should": list(workflow.patterns_should),
        },
        "graph_structure": {
            "nodes": list(workflow.nodes),
            "edges": [list(e) for e in workflow.edges],
        },
        "operations": {
            op_id: _operation_document(workflow.operations[op_id]) for op_id in workflow.nodes
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def merge_workflows(workflows: Sequence[Workflow]) -> OperationGraph:
    """Merge workflows into one deduplicated operation DAG.

    Operations sharing a normalized instruction (:func:`normalize_instruction`)
    are folded into one canonical node whose id is the lexicographically
    smallest contributing id; edges are re-pointed to canonical ids and
    unioned.  The result is independent of workflow ingestion order.

    Raises :class:`MergeError` when an operation id contains ``->`` (graph
    files key edges as ``"a->b"``), when one operation id appears with two
    different instructions (conflicting reuse of an id), when a merge would
    create a self-loop, and :class:`CycleError` when cross-workflow orderings
    disagree and form a cycle.
    """
    # Group contributions by dedup key, checking id consistency as we go.
    groups: dict[str, list[tuple[str, Operation]]] = {}
    id_to_key: dict[str, str] = {}
    for wf in workflows:
        for op_id, op in wf.operations.items():
            if "->" in op_id:
                raise MergeError(f"operation id {op_id!r} contains '->' (workflow {wf.id!r})")
            key = normalize_instruction(op.instruction)
            prior = id_to_key.get(op_id)
            if prior is not None and prior != key:
                raise MergeError(
                    f"operation id {op_id!r} is reused with a different instruction "
                    f"(workflow {wf.id!r})"
                )
            id_to_key[op_id] = key
            groups.setdefault(key, []).append((wf.id, op))

    canonical_of: dict[str, str] = {}  # original op id -> canonical id
    operations: dict[str, Operation] = {}
    merged_from: dict[str, tuple[tuple[str, str], ...]] = {}
    node_sources: dict[str, set[str]] = {}
    for key in sorted(groups):
        members = groups[key]
        canon_id = min(op.id for _, op in members)
        # Field content comes from the canonical-id contributor in the
        # lexicographically smallest workflow, so the result is order-free.
        canon_wf, canon_op = min(
            ((wf_id, op) for wf_id, op in members if op.id == canon_id),
            key=lambda pair: pair[0],
        )
        operations[canon_id] = canon_op
        merged_from[canon_id] = tuple(sorted((wf_id, op.id) for wf_id, op in members))
        node_sources[canon_id] = {wf_id for wf_id, _ in members}
        for _, op in members:
            canonical_of[op.id] = canon_id

    edge_sources: dict[tuple[str, str], set[str]] = {}
    for wf in workflows:
        for src, dst in wf.edges:
            edge = (canonical_of[src], canonical_of[dst])
            if edge[0] == edge[1]:
                raise MergeError(
                    f"merging workflow {wf.id!r} edge ({src!r}, {dst!r}) collapses "
                    f"to a self-loop on {edge[0]!r}"
                )
            edge_sources.setdefault(edge, set()).add(wf.id)

    edges = tuple(sorted(edge_sources))
    witness = validate_dag(operations, edges)
    if witness is not None:
        pairs = list(zip(witness, witness[1:]))
        detail = "; ".join(
            f"{a}->{b} from {sorted(edge_sources[(a, b)])}" for a, b in pairs
        )
        raise CycleError(witness, f"cross-workflow orderings conflict ({detail})")

    return OperationGraph(
        operations=operations,
        edges=edges,
        node_sources={k: tuple(sorted(v)) for k, v in node_sources.items()},
        edge_sources={k: tuple(sorted(v)) for k, v in edge_sources.items()},
        merged_from=merged_from,
    )


def condition_on_task(graph: OperationGraph, task_text: str) -> TaskGraph:
    """Attach a virtual task node, bidirectionally linked to every operation."""
    if TASK_NODE_ID in graph.operations:
        raise DataError(f"task node id {TASK_NODE_ID!r} collides with an operation id")
    return TaskGraph(graph=graph, task_text=task_text)


# ---------------------------------------------------------------------------
# Graph file persistence
# ---------------------------------------------------------------------------


def serialize_graph(graph: OperationGraph) -> str:
    """Canonical graph file: sorted keys, 2-space indent, sorted edges."""
    doc = {
        "operations": {op_id: _operation_document(op) for op_id, op in sorted(graph.operations.items())},
        "edges": [list(e) for e in graph.edge_list],
        "node_sources": {k: list(v) for k, v in sorted(graph.node_sources.items())},
        "edge_sources": {
            f"{a}->{b}": list(v) for (a, b), v in sorted(graph.edge_sources.items())
        },
        "merged_from": {
            k: [list(pair) for pair in v] for k, v in sorted(graph.merged_from.items())
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_sources(
    doc: dict, table: str, keys: Mapping[str, object], item: Callable[[object, str], object]
) -> dict:
    """An optional graph-file table: each key one of ``keys`` (which maps it
    to its in-memory key), each value a list of what ``item`` parses."""
    path = f"$.{table}"
    out = {}
    for key, value in _expect_object(doc.get(table, {}), path).items():
        where = f"{path}.{key}"
        if key not in keys:
            raise DocumentError(where, f"{key!r} is not an operation or edge of the graph")
        out[keys[key]] = tuple(item(x, f"{where}[{i}]") for i, x in enumerate(_expect_list(value, where)))
    return out


def parse_graph(document: str | bytes | Mapping) -> OperationGraph:
    """Load a graph file written by :func:`serialize_graph`.

    ``operations`` and ``edges`` get :func:`parse_workflow`'s checks.  The
    optional provenance tables must be keyed by an operation or an ``"a->b"``
    edge of the file and hold string lists (``merged_from``: ``[workflow, op]``
    pairs).  Errors are :class:`DocumentError`\\ s carrying the offending path.
    """
    doc = _decode(document)
    _require(doc, ("operations", "edges"), "$")
    operations = _parse_operations(doc["operations"], "$.operations")
    edges = _parse_edges(doc["edges"], "$.edges", operations)
    ops = {op_id: op_id for op_id in operations}
    return OperationGraph(
        operations=operations,
        edges=tuple(sorted(edges)),
        node_sources=_parse_sources(doc, "node_sources", ops, _expect_str),
        edge_sources=_parse_sources(doc, "edge_sources", {f"{a}->{b}": (a, b) for a, b in edges}, _expect_str),
        merged_from=_parse_sources(doc, "merged_from", ops, lambda v, p: _expect_pair(v, p, "[workflow, op]")),
    )
