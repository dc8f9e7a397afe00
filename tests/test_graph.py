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

    def test_duplicate_edge_strict_and_lenient(self):
        doc = make_workflow_doc("WF_X", {"A": "do a", "B": "do b"}, [("A", "B"), ("A", "B")])
        text = json.dumps(doc)
        with pytest.raises(DocumentError) as exc:
            parse_workflow(text)
        assert exc.value.path == "$.graph_structure.edges[1]"
        wf = parse_workflow(text, ignore_duplicate_edges=True)
        assert wf.edges == (("A", "B"),)

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

    def test_custom_dedup_key_hook(self):
        a = wf("WF_A", {"OP_1": "pick top results"}, [])
        b = wf("WF_B", {"OP_2": "select best results"}, [])
        g = merge_workflows([a, b], dedup_key=lambda op: "same-bucket")
        assert sorted(g.operations) == ["OP_1"]

    def test_empty_merge(self):
        g = merge_workflows([])
        assert g.operations == {} and g.edges == ()

    def test_entry_ops(self, wf_math_001):
        g = merge_workflows([wf_math_001])
        assert g.entry_ops() == ["OP_01"]


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
