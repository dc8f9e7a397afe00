"""Workflow parsing, DAG validation, merging, and task conditioning."""

from __future__ import annotations

import itertools
import json
import random

import networkx as nx
import pytest

from opflow.errors import CycleError, DataError, DocumentError, MergeError
from opflow.graph import (
    TASK_NODE_ID,
    Operation,
    Workflow,
    condition_on_task,
    merge_workflows,
    normalize_instruction,
    parse_graph,
    parse_workflow,
    serialize_graph,
    serialize_workflow,
    topological_order,
    validate_dag,
)

from conftest import make_workflow_doc


# ---------------------------------------------------------------------------
# Parsing and canonical serialization
# ---------------------------------------------------------------------------


class TestParseWorkflow:
    def test_worked_example_shape(self, wf_math_001):
        wf = wf_math_001
        assert wf.id == "WF_MATH_001"
        assert wf.nodes == ("OP_01", "OP_02", "OP_03", "OP_04", "OP_05")
        assert len(wf.edges) == 5
        assert ("OP_01", "OP_03") in wf.edges
        assert wf.operations["OP_04"].patterns_must == ("solve", "calculate")
        assert wf.operations["OP_05"].name == "Logical Reality Check"
        assert wf.patterns_should == ("simultaneous", "substitution", "elimination")

    def test_round_trip_is_identity(self, wf_math_001, wf_math_001_text):
        text1 = serialize_workflow(wf_math_001)
        wf2 = parse_workflow(text1)
        assert wf2 == wf_math_001
        # Canonical serialization is a fixed point of parse -> serialize.
        assert serialize_workflow(wf2) == text1

    def test_canonical_text_preserves_node_and_edge_order(self, wf_math_001):
        doc = json.loads(serialize_workflow(wf_math_001))
        assert doc["graph_structure"]["nodes"] == list(wf_math_001.nodes)
        assert doc["graph_structure"]["edges"][0] == ["OP_01", "OP_02"]

    def test_empty_workflow_is_valid(self):
        wf = parse_workflow(json.dumps(make_workflow_doc("WF_EMPTY", {}, [])))
        assert wf.nodes == ()
        assert wf.edges == ()

    def test_malformed_json(self):
        with pytest.raises(DocumentError) as exc:
            parse_workflow("{not json")
        assert exc.value.path == "$"

    @pytest.mark.parametrize("field", ["id", "name", "description", "patterns", "graph_structure", "operations"])
    def test_missing_required_field(self, field):
        doc = make_workflow_doc("WF_X", {"A": "do a"}, [])
        del doc[field]
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert exc.value.path == f"$.{field}"

    def test_edge_references_unknown_node(self):
        doc = make_workflow_doc("WF_X", {"A": "do a", "B": "do b"}, [("A", "C")])
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert "$.graph_structure.edges[0]" in exc.value.path

    def test_duplicate_edge_is_rejected(self):
        doc = make_workflow_doc("WF_X", {"A": "do a", "B": "do b"}, [("A", "B"), ("A", "B")])
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert exc.value.path == "$.graph_structure.edges[1]"

    def test_duplicate_node_id(self):
        doc = make_workflow_doc("WF_X", {"A": "do a"}, [])
        doc["graph_structure"]["nodes"] = ["A", "A"]
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert exc.value.path == "$.graph_structure.nodes[1]"

    def test_cycle_in_document(self):
        doc = make_workflow_doc("WF_X", {"A": "do a", "B": "do b"}, [("A", "B"), ("B", "A")])
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert "cycle" in str(exc.value)

    def test_node_without_operation_definition(self):
        doc = make_workflow_doc("WF_X", {"A": "do a"}, [])
        doc["graph_structure"]["nodes"] = ["A", "B"]
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert exc.value.path == "$.operations.B"

    def test_operation_not_in_nodes(self):
        doc = make_workflow_doc("WF_X", {"A": "do a"}, [])
        doc["operations"]["Z"] = {"instruction": "stray"}
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert exc.value.path == "$.operations.Z"

    def test_operation_missing_instruction(self):
        doc = make_workflow_doc("WF_X", {"A": "do a"}, [])
        del doc["operations"]["A"]["instruction"]
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert exc.value.path == "$.operations.A.instruction"

    def test_operation_id_with_edge_separator(self):
        doc = make_workflow_doc("WF_X", {"A->B": "do a then b", "C": "do c"}, [("A->B", "C")])
        with pytest.raises(DocumentError) as exc:
            parse_workflow(json.dumps(doc))
        assert exc.value.path == "$.operations.A->B"


# ---------------------------------------------------------------------------
# DAG validation against an independent oracle
# ---------------------------------------------------------------------------


def random_digraph(rng: random.Random, n_max: int = 12) -> tuple[list[str], list[tuple[str, str]]]:
    n = rng.randint(1, n_max)
    nodes = [f"N{i:02d}" for i in range(n)]
    edges = []
    for a in nodes:
        for b in nodes:
            if a != b and rng.random() < 0.18:
                edges.append((a, b))
    return nodes, edges


class TestValidateDag:
    def test_agrees_with_networkx_on_random_digraphs(self):
        rng = random.Random(1001)
        for _ in range(1000):
            nodes, edges = random_digraph(rng)
            g = nx.DiGraph()
            g.add_nodes_from(nodes)
            g.add_edges_from(edges)
            witness = validate_dag(nodes, edges)
            assert (witness is None) == nx.is_directed_acyclic_graph(g)

    def test_witness_is_a_real_cycle(self):
        rng = random.Random(1002)
        found = 0
        while found < 100:
            nodes, edges = random_digraph(rng)
            witness = validate_dag(nodes, edges)
            if witness is None:
                continue
            found += 1
            assert witness[0] == witness[-1]
            assert len(witness) >= 2
            edge_set = set(edges)
            for pair in zip(witness, witness[1:]):
                assert pair in edge_set

    def test_complete_digraph_returns_concrete_cycle(self):
        nodes = [f"K{i}" for i in range(5)]
        edges = [(a, b) for a in nodes for b in nodes if a != b]
        witness = validate_dag(nodes, edges)
        assert witness is not None and witness[0] == witness[-1]

    def test_two_node_cycle_witness(self):
        assert validate_dag(["A", "B"], [("A", "B"), ("B", "A")]) == ["A", "B", "A"]

    def test_chain_is_acyclic_until_back_edge(self):
        nodes = [f"C{i}" for i in range(6)]
        chain = list(zip(nodes, nodes[1:]))
        assert validate_dag(nodes, chain) is None
        assert validate_dag(nodes, chain + [(nodes[-1], nodes[0])]) is not None

    def test_dangling_endpoint_raises(self):
        with pytest.raises(DataError):
            validate_dag(["A"], [("A", "B")])

    def test_self_loop_is_a_cycle(self):
        witness = validate_dag(["A"], [("A", "A")])
        assert witness == ["A", "A"]


class TestTopologicalOrder:
    def test_respects_edges_and_is_deterministic(self):
        rng = random.Random(7)
        for _ in range(200):
            nodes, edges = random_digraph(rng, n_max=10)
            if validate_dag(nodes, edges) is not None:
                continue
            order = topological_order(nodes, edges)
            assert order == topological_order(nodes, edges)
            pos = {v: i for i, v in enumerate(order)}
            assert len(order) == len(nodes)
            for a, b in edges:
                assert pos[a] < pos[b]

    def test_lexicographic_tie_break(self):
        assert topological_order(["B", "A", "C"], []) == ["A", "B", "C"]

    def test_unknown_endpoint_raises(self):
        with pytest.raises(DataError, match="unknown node 'B'"):
            topological_order(["A"], [("A", "B")])

    def test_cycle_raises_with_witness(self):
        with pytest.raises(CycleError) as exc:
            topological_order(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "B")])
        assert exc.value.witness == ["B", "C", "B"]


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def wf(wf_id, ops, edges):
    return parse_workflow(json.dumps(make_workflow_doc(wf_id, ops, edges)))


class TestMerge:
    def test_identical_instructions_fold_to_min_id(self):
        a = wf("WF_A", {"OP_10": "summarize the text", "OP_11": "rank results"}, [("OP_10", "OP_11")])
        b = wf("WF_B", {"OP_02": "Summarize   the TEXT", "OP_20": "emit a report"}, [("OP_02", "OP_20")])
        g = merge_workflows([a, b])
        assert sorted(g.operations) == ["OP_02", "OP_11", "OP_20"]
        # OP_10 and OP_02 share a normalized instruction; min id wins.
        assert g.merged_from["OP_02"] == (("WF_A", "OP_10"), ("WF_B", "OP_02"))
        assert ("OP_02", "OP_11") in g.edges
        assert ("OP_02", "OP_20") in g.edges
        assert g.edge_sources[("OP_02", "OP_11")] == ("WF_A",)

    def test_merge_is_ingestion_order_free(self):
        flows = [
            wf("WF_A", {"OP_1": "alpha step", "OP_2": "beta step"}, [("OP_1", "OP_2")]),
            wf("WF_B", {"OP_3": "ALPHA  step", "OP_4": "gamma step"}, [("OP_3", "OP_4")]),
            wf("WF_C", {"OP_5": "beta step", "OP_6": "delta step"}, [("OP_5", "OP_6")]),
        ]
        texts = {
            serialize_graph(merge_workflows(list(perm)))
            for perm in itertools.permutations(flows)
        }
        assert len(texts) == 1

    def test_single_workflow_merge_keeps_everything(self, wf_math_001):
        g = merge_workflows([wf_math_001])
        assert sorted(g.operations) == list(wf_math_001.nodes)
        assert set(g.edges) == set(wf_math_001.edges)
        total_inputs = sum(len(v) for v in g.merged_from.values())
        assert total_inputs - len(g.operations) == 0  # nothing deduplicated

    def test_id_reuse_with_different_instruction_is_an_error(self):
        a = wf("WF_A", {"OP_1": "do the first thing"}, [])
        b = wf("WF_B", {"OP_1": "do something else"}, [])
        with pytest.raises(MergeError):
            merge_workflows([a, b])

    def test_conflicting_orderings_raise_cycle_error(self):
        a = wf("WF_A", {"OP_1": "step one", "OP_2": "step two"}, [("OP_1", "OP_2")])
        b = wf("WF_B", {"OP_8": "step two", "OP_9": "step one"}, [("OP_8", "OP_9")])
        with pytest.raises(CycleError) as exc:
            merge_workflows([a, b])
        assert "WF_A" in str(exc.value) and "WF_B" in str(exc.value)

    def test_merge_collapsing_edge_to_self_loop_is_an_error(self):
        a = wf("WF_A", {"OP_1": "same step", "OP_2": "Same  Step"}, [("OP_1", "OP_2")])
        with pytest.raises(MergeError):
            merge_workflows([a])

    def test_operation_id_with_edge_separator_is_an_error(self):
        # Graph files key edge_sources by "a->b", so A->B -> C and A -> B->C
        # would share the key "A->B->C".  Built directly: the parser refuses them.
        def raw(wf_id, ops, edges):
            return Workflow(
                id=wf_id, name=wf_id, description=wf_id, patterns_must=(), patterns_should=(),
                nodes=tuple(ops), edges=tuple(edges),
                operations={op_id: Operation(id=op_id, instruction=text) for op_id, text in ops.items()},
            )

        w1 = raw("W1", {"A->B": "first step", "C": "third step"}, [("A->B", "C")])
        w2 = raw("W2", {"A": "zeroth step", "B->C": "second step"}, [("A", "B->C")])
        with pytest.raises(MergeError, match="'A->B'"):
            merge_workflows([w1, w2])

    def test_empty_merge(self):
        g = merge_workflows([])
        assert g.operations == {} and g.edges == ()

    def test_entry_ops(self, wf_math_001):
        g = merge_workflows([wf_math_001])
        assert g.entry_ops == ("OP_01",)


class TestCheckChain:
    @staticmethod
    def graph():
        ops = {k: Operation(id=k, instruction=f"step {k}") for k in ("A", "B", "C")}
        return merge_workflows([Workflow("W", "w", "", (), (), ("A", "B", "C"), (("A", "B"), ("B", "C")), ops)])

    def test_accepts_chains_along_edges(self):
        g = self.graph()
        for ops in [(), ("C",), ("A", "B"), ["A", "B", "C"]]:
            g.check_chain(ops, "trace")

    @pytest.mark.parametrize(
        "ops, message",
        [
            (("X",), "unknown operation 'X' in prefix path"),
            (("A", "X"), "unknown operation 'X' in prefix path"),
            (("A", "C"), "prefix path step 'A' -> 'C' is not a graph edge"),
            (("B", "A"), "prefix path step 'B' -> 'A' is not a graph edge"),
            (("A", "C", "X"), "prefix path step 'A' -> 'C'"),  # the first fault along the chain
        ],
    )
    def test_names_the_first_fault_and_what(self, ops, message):
        with pytest.raises(DataError, match=message):
            self.graph().check_chain(ops, "prefix path")

    def test_edge_set_is_built_once_per_graph(self):
        g = self.graph()
        g.check_chain(("A", "B"), "trace")
        assert g._edge_set is g._edge_set == frozenset(g.edges)
        assert self.graph()._edge_set is not g._edge_set


class TestNormalizeInstruction:
    def test_casefold_and_whitespace_collapse(self):
        assert normalize_instruction("  Solve\tthe   SYSTEM \n") == "solve the system"
        assert normalize_instruction("solve the system") == normalize_instruction("SOLVE THE  SYSTEM")


# ---------------------------------------------------------------------------
# Task conditioning
# ---------------------------------------------------------------------------


class TestConditionOnTask:
    def test_node_and_edge_counts_across_sizes(self):
        # Independent counting oracle: |V| = N + 1 and |E| = M + 2N.
        rng = random.Random(55)
        for n in range(1, 51):
            ops = {f"OP_{i:03d}": f"instruction number {i}" for i in range(n)}
            ids = sorted(ops)
            edges = [
                (ids[i], ids[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.1
            ]
            g = merge_workflows([wf(f"WF_{n}", ops, edges)])
            tg = condition_on_task(g, "some task")
            assert len(tg.node_ids) == n + 1
            assert len(tg.edge_list) == len(edges) + 2 * n

    def test_task_node_is_last_and_linked_both_ways(self, wf_math_001):
        g = merge_workflows([wf_math_001])
        tg = condition_on_task(g, "solve a system of equations")
        assert tg.node_ids[-1] == TASK_NODE_ID
        assert (TASK_NODE_ID, "OP_03") in tg.edge_list
        assert ("OP_03", TASK_NODE_ID) in tg.edge_list

    def test_task_id_collision(self):
        g = merge_workflows([wf("WF_A", {"__task__": "sneaky"}, [])])
        with pytest.raises(DataError):
            condition_on_task(g, "anything")


# ---------------------------------------------------------------------------
# Graph file persistence
# ---------------------------------------------------------------------------


class TestGraphFile:
    def test_round_trip(self, wf_math_001):
        a = wf("WF_A", {"OP_10": "summarize the text"}, [])
        g = merge_workflows([wf_math_001, a])
        text = serialize_graph(g)
        g2 = parse_graph(text)
        assert g2.operations == g.operations
        assert g2.edges == g.edges
        assert g2.edge_sources == g.edge_sources
        assert g2.merged_from == g.merged_from
        assert serialize_graph(g2) == text

    def test_rejects_cyclic_graph_file(self):
        doc = {
            "operations": {
                "A": {"instruction": "a"},
                "B": {"instruction": "b"},
            },
            "edges": [["A", "B"], ["B", "A"]],
        }
        with pytest.raises(DocumentError):
            parse_graph(json.dumps(doc))


class TestGraphFileRejections:
    """Each malformed graph file is refused with a DocumentError at its path."""

    @staticmethod
    def document():
        g = merge_workflows([wf("WF_A", {"A": "do a", "B": "do b"}, [("A", "B")])])
        return json.loads(serialize_graph(g))

    def test_document_is_valid(self):
        g = parse_graph(json.dumps(self.document()))
        assert g.edges == (("A", "B"),)
        assert g.edge_sources == {("A", "B"): ("WF_A",)}
        assert g.merged_from == {"A": (("WF_A", "A"),), "B": (("WF_A", "B"),)}

    @pytest.mark.parametrize("table, value, path", [
        ("operations", None, "$.operations"),
        ("operations", ["A", "B"], "$.operations"),
        ("operations", {"A": "do a", "B": {"instruction": "do b"}}, "$.operations.A"),
        ("operations", {"A": {"name": "a"}, "B": {"instruction": "do b"}}, "$.operations.A.instruction"),
        ("operations", {"A": {"instruction": 1}, "B": {"instruction": "do b"}}, "$.operations.A.instruction"),
        ("edges", None, "$.edges"),
        ("edges", {"A": "B"}, "$.edges"),
        ("edges", [["A", "B", "C"]], "$.edges[0]"),
        ("edges", ["A->B"], "$.edges[0]"),
        ("edges", [["A", 2]], "$.edges[0][1]"),
        ("edges", [["A", "Z"]], "$.edges[0][1]"),
        ("edges", [["A", "B"], ["A", "B"]], "$.edges[1]"),
        ("node_sources", ["WF_A"], "$.node_sources"),
        ("node_sources", {"Z": ["WF_A"]}, "$.node_sources.Z"),
        ("node_sources", {"A": "WF_A"}, "$.node_sources.A"),
        ("node_sources", {"A": [7]}, "$.node_sources.A[0]"),
        ("edge_sources", [["A", "B"]], "$.edge_sources"),
        ("edge_sources", {"A": ["WF_A"]}, "$.edge_sources.A"),
        ("edge_sources", {"B->A": ["WF_A"]}, "$.edge_sources.B->A"),
        ("edge_sources", {"A->B": [None]}, "$.edge_sources.A->B[0]"),
        ("merged_from", "A", "$.merged_from"),
        ("merged_from", {"Z": [["WF_A", "Z"]]}, "$.merged_from.Z"),
        ("merged_from", {"A": ["WF_A", "A"]}, "$.merged_from.A[0]"),
        ("merged_from", {"A": [["WF_A"]]}, "$.merged_from.A[0]"),
        ("merged_from", {"A": [["WF_A", 1]]}, "$.merged_from.A[0][1]"),
        ("merged_from", {"A": {"WF_A": "A"}}, "$.merged_from.A"),
        ("operations", {"A": {"instruction": "a"}, "A->B": {"instruction": "ab"}}, "$.operations.A->B"),
    ])
    def test_rejects(self, table, value, path):
        doc = self.document()
        if value is None:
            del doc[table]
        else:
            doc[table] = value
        with pytest.raises(DocumentError) as exc:
            parse_graph(json.dumps(doc))
        assert exc.value.path == path

    @pytest.mark.parametrize("text", [b"\xff{}", "[]", '{"operations": '])
    def test_rejects_text_that_is_not_a_json_object(self, text):
        with pytest.raises(DocumentError) as exc:
            parse_graph(text)
        assert exc.value.path == "$"
