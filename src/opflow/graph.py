"""Workflow documents and the merged operation graph.

A *workflow document* is a JSON file describing one agent workflow: a small DAG
of atomic operations, each with an instruction and trigger patterns.  Many
documents are merged into one shared :class:`OperationGraph` by deduplicating
operations whose instructions match after normalization; the merged graph is
the candidate space from which new workflows are synthesized.

Conditioning the merged graph on a task inserts a virtual task node connected
bidirectionally to every operation (:func:`condition_on_task`), which is the
graph the neural scorer consumes.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

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


@dataclass
class OperationGraph:
    """The merged, deduplicated DAG of operations from many workflows.

    ``node_sources`` / ``edge_sources`` record which workflow ids contributed
    each element; ``merged_from`` maps every canonical operation id to the
    ``(workflow_id, original_op_id)`` pairs folded into it.
    """

    operations: dict[str, Operation]
    edges: tuple[tuple[str, str], ...]
    node_sources: dict[str, tuple[str, ...]] = field(default_factory=dict)
    edge_sources: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    merged_from: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)

    @property
    def node_ids(self) -> list[str]:
        """Canonical node order: lexicographic by operation id."""
        return sorted(self.operations)

    @property
    def edge_list(self) -> list[tuple[str, str]]:
        """Canonical candidate-edge order: lexicographic by (source, target)."""
        return sorted(self.edges)

    def in_degrees(self) -> dict[str, int]:
        deg = {v: 0 for v in self.operations}
        for _, dst in self.edges:
            deg[dst] += 1
        return deg

    def entry_ops(self) -> list[str]:
        """Operations with no incoming edge, in canonical order."""
        deg = self.in_degrees()
        return sorted(v for v, d in deg.items() if d == 0)


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
    def node_ids(self) -> list[str]:
        """Operations in canonical order, task node last."""
        return self.graph.node_ids + [TASK_NODE_ID]

    @property
    def edge_list(self) -> list[tuple[str, str]]:
        ops = self.graph.node_ids
        t = TASK_NODE_ID
        extra = [(t, v) for v in ops] + [(v, t) for v in ops]
        return self.graph.edge_list + extra


def normalize_instruction(text: str) -> str:
    """Dedup key: case-folded, whitespace-collapsed instruction text."""
    return " ".join(text.casefold().split())


# ---------------------------------------------------------------------------
# DAG validation
# ---------------------------------------------------------------------------


def validate_dag(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> list[str] | None:
    """Check acyclicity; return ``None`` if acyclic, else a cycle witness.

    The witness is a node sequence ``[a, b, ..., a]`` whose consecutive pairs
    are all edges.  Edges touching unknown nodes raise :class:`DataError`.
    """
    node_set = set(nodes)
    adj: dict[str, list[str]] = {v: [] for v in node_set}
    for src, dst in edges:
        if src not in node_set:
            raise DataError(f"edge ({src!r}, {dst!r}) references unknown node {src!r}")
        if dst not in node_set:
            raise DataError(f"edge ({src!r}, {dst!r}) references unknown node {dst!r}")
        adj[src].append(dst)
    for v in adj:
        adj[v].sort()

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in node_set}
    parent: dict[str, str] = {}
    for root in sorted(node_set):
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if color[w] == GRAY:
                    # Found a back edge v -> w: walk parents back to w.
                    cycle = [v]
                    cur = v
                    while cur != w:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle + [cycle[0]]
                if color[w] == WHITE:
                    color[w] = GRAY
                    parent[w] = v
                    stack.append((w, 0))
            else:
                color[v] = BLACK
                stack.pop()
    return None


def topological_order(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[str]:
    """Deterministic topological order (Kahn, lexicographic tie-break)."""
    import heapq

    node_list = sorted(set(nodes))
    deg = {v: 0 for v in node_list}
    adj: dict[str, list[str]] = {v: [] for v in node_list}
    for src, dst in edges:
        adj[src].append(dst)
        deg[dst] += 1
    heap = [v for v in node_list if deg[v] == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in sorted(adj[v]):
            deg[w] -= 1
            if deg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != len(node_list):
        witness = validate_dag(node_list, edges)
        raise CycleError(witness or [])
    return order


# ---------------------------------------------------------------------------
# Workflow document parsing / serialization
# ---------------------------------------------------------------------------


def _expect_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(path, f"expected a string, got {type(value).__name__}")
    return value


def _expect_str_list(value: object, path: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected a list of strings, got {type(value).__name__}")
    out = []
    for i, item in enumerate(value):
        out.append(_expect_str(item, f"{path}[{i}]"))
    return tuple(out)


def _parse_patterns(value: object, path: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if not isinstance(value, dict):
        raise DocumentError(path, f"expected an object, got {type(value).__name__}")
    must = _expect_str_list(value.get("must", []), f"{path}.must")
    should = _expect_str_list(value.get("should", []), f"{path}.should")
    return must, should


def parse_workflow(
    document: str | bytes | Mapping, *, ignore_duplicate_edges: bool = False
) -> Workflow:
    """Parse and validate one workflow document.

    Accepts raw JSON text or an already-decoded mapping.  Validation covers:
    required fields, node/edge shape, edges referencing declared nodes,
    one operation definition per node (and none extra), unique node ids,
    duplicate edges (strict unless ``ignore_duplicate_edges``), and
    acyclicity.  Errors carry the offending document path.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError("$", f"malformed JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise DocumentError("$", f"expected a JSON object, got {type(doc).__name__}")

    for key in _REQUIRED_FIELDS:
        if key not in doc:
            raise DocumentError(f"$.{key}", "missing required field")

    wf_id = _expect_str(doc["id"], "$.id")
    name = _expect_str(doc["name"], "$.name")
    description = _expect_str(doc["description"], "$.description")
    patterns_must, patterns_should = _parse_patterns(doc["patterns"], "$.patterns")

    gs = doc["graph_structure"]
    if not isinstance(gs, dict):
        raise DocumentError("$.graph_structure", "expected an object")
    if "nodes" not in gs:
        raise DocumentError("$.graph_structure.nodes", "missing required field")
    if "edges" not in gs:
        raise DocumentError("$.graph_structure.edges", "missing required field")
    nodes = _expect_str_list(gs["nodes"], "$.graph_structure.nodes")
    seen_nodes: set[str] = set()
    for i, node in enumerate(nodes):
        if node in seen_nodes:
            raise DocumentError(f"$.graph_structure.nodes[{i}]", f"duplicate node id {node!r}")
        seen_nodes.add(node)

    raw_edges = gs["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError("$.graph_structure.edges", "expected a list")
    edges: list[tuple[str, str]] = []
    seen_edges: set[tuple[str, str]] = set()
    for i, pair in enumerate(raw_edges):
        path = f"$.graph_structure.edges[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(path, "expected a [source, target] pair")
        src = _expect_str(pair[0], f"{path}[0]")
        dst = _expect_str(pair[1], f"{path}[1]")
        if src not in seen_nodes:
            raise DocumentError(f"{path}[0]", f"edge references unknown node {src!r}")
        if dst not in seen_nodes:
            raise DocumentError(f"{path}[1]", f"edge references unknown node {dst!r}")
        if (src, dst) in seen_edges:
            if ignore_duplicate_edges:
                continue
            raise DocumentError(path, f"duplicate edge [{src!r}, {dst!r}]")
        seen_edges.add((src, dst))
        edges.append((src, dst))

    raw_ops = doc["operations"]
    if not isinstance(raw_ops, dict):
        raise DocumentError("$.operations", "expected an object")
    operations: dict[str, Operation] = {}
    for op_id, raw in raw_ops.items():
        path = f"$.operations.{op_id}"
        if op_id not in seen_nodes:
            raise DocumentError(path, f"operation {op_id!r} is not a declared node")
        if not isinstance(raw, dict):
            raise DocumentError(path, "expected an object")
        if "instruction" not in raw:
            raise DocumentError(f"{path}.instruction", "missing required field")
        instruction = _expect_str(raw["instruction"], f"{path}.instruction")
        op_name = _expect_str(raw.get("name", ""), f"{path}.name")
        must, should = _parse_patterns(raw.get("patterns", {}), f"{path}.patterns")
        operations[op_id] = Operation(
            id=op_id,
            instruction=instruction,
            patterns_must=must,
            patterns_should=should,
            name=op_name,
        )
    for node in nodes:
        if node not in operations:
            raise DocumentError(f"$.operations.{node}", "missing operation definition for node")

    witness = validate_dag(nodes, edges)
    if witness is not None:
        raise DocumentError(
            "$.graph_structure.edges", f"cycle: {' -> '.join(witness)}"
        )

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


def workflow_to_document(workflow: Workflow) -> dict:
    """Rebuild the plain-JSON document form of a workflow."""
    ops = {}
    for op_id in workflow.nodes:
        op = workflow.operations[op_id]
        ops[op_id] = {
            "name": op.name,
            "instruction": op.instruction,
            "patterns": {
                "must": list(op.patterns_must),
                "should": list(op.patterns_should),
            },
        }
    return {
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
        "operations": ops,
    }


def serialize_workflow(workflow: Workflow) -> str:
    """Canonical document text: sorted object keys, 2-space indent.

    Node and edge arrays keep document order; only object keys are sorted.
    ``parse -> serialize -> parse`` is a fixed point.
    """
    return json.dumps(workflow_to_document(workflow), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def merge_workflows(
    workflows: Sequence[Workflow],
    *,
    dedup_key: Callable[[Operation], str] | None = None,
) -> OperationGraph:
    """Merge workflows into one deduplicated operation DAG.

    Operations sharing a dedup key (default: normalized instruction text) are
    folded into one canonical node whose id is the lexicographically smallest
    contributing id; edges are re-pointed to canonical ids and unioned.  The
    result is independent of workflow ingestion order.

    Raises :class:`MergeError` when one operation id appears with two
    different keys (conflicting reuse of an id), when a merge would create a
    self-loop, or when cross-workflow orderings disagree and form a cycle.
    """
    key_of = dedup_key or (lambda op: normalize_instruction(op.instruction))

    # Group contributions by dedup key, checking id consistency as we go.
    groups: dict[str, list[tuple[str, Operation]]] = {}
    id_to_key: dict[str, str] = {}
    for wf in workflows:
        for op_id, op in wf.operations.items():
            key = key_of(op)
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


def graph_to_document(graph: OperationGraph) -> dict:
    return {
        "operations": {
            op_id: {
                "name": op.name,
                "instruction": op.instruction,
                "patterns": {
                    "must": list(op.patterns_must),
                    "should": list(op.patterns_should),
                },
            }
            for op_id, op in sorted(graph.operations.items())
        },
        "edges": [list(e) for e in graph.edge_list],
        "node_sources": {k: list(v) for k, v in sorted(graph.node_sources.items())},
        "edge_sources": {
            f"{a}->{b}": list(v) for (a, b), v in sorted(graph.edge_sources.items())
        },
        "merged_from": {
            k: [list(pair) for pair in v] for k, v in sorted(graph.merged_from.items())
        },
    }


def serialize_graph(graph: OperationGraph) -> str:
    """Canonical graph file: sorted keys, 2-space indent, sorted edges."""
    return json.dumps(graph_to_document(graph), sort_keys=True, indent=2) + "\n"


def parse_graph(document: str | bytes | Mapping) -> OperationGraph:
    """Load a graph persisted by :func:`serialize_graph`."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError("$", f"malformed JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise DocumentError("$", f"expected a JSON object, got {type(doc).__name__}")
    for key in ("operations", "edges"):
        if key not in doc:
            raise DocumentError(f"$.{key}", "missing required field")

    operations: dict[str, Operation] = {}
    for op_id, raw in doc["operations"].items():
        path = f"$.operations.{op_id}"
        if not isinstance(raw, dict) or "instruction" not in raw:
            raise DocumentError(path, "expected an object with an instruction")
        must, should = _parse_patterns(raw.get("patterns", {}), f"{path}.patterns")
        operations[op_id] = Operation(
            id=op_id,
            instruction=_expect_str(raw["instruction"], f"{path}.instruction"),
            patterns_must=must,
            patterns_should=should,
            name=_expect_str(raw.get("name", ""), f"{path}.name"),
        )

    edges: list[tuple[str, str]] = []
    for i, pair in enumerate(doc["edges"]):
        path = f"$.edges[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(path, "expected a [source, target] pair")
        src, dst = _expect_str(pair[0], path), _expect_str(pair[1], path)
        if src not in operations or dst not in operations:
            raise DocumentError(path, "edge references unknown operation")
        edges.append((src, dst))

    witness = validate_dag(operations, edges)
    if witness is not None:
        raise DocumentError("$.edges", f"cycle: {' -> '.join(witness)}")

    node_sources = {
        k: tuple(v) for k, v in doc.get("node_sources", {}).items()
    }
    edge_sources = {}
    for key, v in doc.get("edge_sources", {}).items():
        a, _, b = key.partition("->")
        edge_sources[(a, b)] = tuple(v)
    merged_from = {
        k: tuple((wf, op) for wf, op in v) for k, v in doc.get("merged_from", {}).items()
    }
    return OperationGraph(
        operations=operations,
        edges=tuple(sorted(edges)),
        node_sources=node_sources,
        edge_sources=edge_sources,
        merged_from=merged_from,
    )
