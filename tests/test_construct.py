"""Labels, greedy decoding, the planted corpus, and the training loop."""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import networkx as nx
import numpy as np
import pytest

import opflow.nn
from opflow import construct
from opflow.construct import (
    DecodeConfig,
    TrainConfig,
    TrainSample,
    build_labels,
    edge_f1,
    generate,
    generate_synthetic_corpus,
    generated_workflow_id,
    instantiate_workflow,
    load_samples,
    mean_edge_f1,
    save_samples,
    score_candidate_edges,
    train,
)
from opflow.errors import DataError
from opflow.features import HashingEmbedder
from opflow.graph import Operation, Workflow, merge_workflows, parse_workflow
from opflow.nn import adamw_init, adamw_step, init_params, load_checkpoint, save_checkpoint

from conftest import dense_forward, doc_json, make_workflow_doc, mean_loss


def scores_for(graph, by_edge):
    """The (E,) score array of ``graph.edge_list`` from an edge -> score map."""
    return np.array([by_edge[edge] for edge in graph.edge_list])


def graph_of(edges, extra_nodes=()):
    """Small operation graph from an edge list (distinct instructions)."""
    ids = sorted({n for e in edges for n in e} | set(extra_nodes))
    ops = {i: Operation(id=i, instruction=f"Process item {i} carefully") for i in ids}
    wf = Workflow(
        id="WF_TEST_GRAPH",
        name="test graph",
        description="",
        patterns_must=(),
        patterns_should=(),
        nodes=tuple(ids),
        edges=tuple(sorted(edges)),
        operations=ops,
    )
    return merge_workflows([wf])


DIAMOND = graph_of([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])


def zero_params(dim_in=384):
    params = init_params(dim_in=dim_in)
    for arr in params.arrays().values():
        arr[:] = 0.0
    return params


def oracle_decode(candidates, entries, score_of, theta, max_nodes):
    """Independent transcription of the greedy rule, evaluated stepwise."""
    reachable = set(entries)
    admitted: set[tuple[str, str]] = set()
    while True:
        best = None
        for edge in sorted(candidates):
            if edge in admitted or score_of[edge] < theta:
                continue
            src, dst = edge
            if src not in reachable:
                continue
            if dst not in reachable and len(reachable) >= max_nodes:
                continue
            if best is None or score_of[edge] > score_of[best]:
                best = edge
        if best is None:
            return tuple(sorted(reachable)), tuple(sorted(admitted))
        admitted.add(best)
        reachable.add(best[1])


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


class TestBuildLabels:
    def test_full_graph_is_all_ones(self):
        graph = DIAMOND
        wf = Workflow(
            id="WF_FULL",
            name="full",
            description="",
            patterns_must=(),
            patterns_should=(),
            nodes=tuple(graph.node_ids),
            edges=tuple(graph.edge_list),
            operations=dict(graph.operations),
        )
        assert build_labels(graph, wf).tolist() == [1.0] * 4

    def test_empty_workflow_is_all_zeros(self):
        wf = Workflow(
            id="WF_EMPTY",
            name="empty",
            description="",
            patterns_must=(),
            patterns_should=(),
            nodes=("A",),
            edges=(),
            operations={"A": DIAMOND.operations["A"]},
        )
        assert build_labels(DIAMOND, wf).tolist() == [0.0] * 4

    def test_positions_follow_edge_list_order(self):
        wf = Workflow(
            id="WF_PART",
            name="part",
            description="",
            patterns_must=(),
            patterns_should=(),
            nodes=("A", "C", "D"),
            edges=(("A", "C"), ("C", "D")),
            operations={i: DIAMOND.operations[i] for i in ("A", "C", "D")},
        )
        labels = build_labels(DIAMOND, wf)
        expected = [1.0 if e in {("A", "C"), ("C", "D")} else 0.0 for e in DIAMOND.edge_list]
        assert labels.tolist() == expected

    def test_reference_workflow_in_twelve_edge_superset(self, wf_math_001):
        # The fixture workflow merged with a sibling that reuses its
        # operations (identical instructions) and adds seven more edges:
        # the label vector must mark exactly the five original positions.
        base = wf_math_001
        extra_ops = {op_id: base.operations[op_id].instruction for op_id in base.nodes}
        extra_ops["OP_06"] = "Write a short narrative summary of the verified solution."
        doc = make_workflow_doc(
            "WF_MATH_EXT",
            extra_ops,
            [
                ("OP_01", "OP_04"),
                ("OP_01", "OP_05"),
                ("OP_01", "OP_06"),
                ("OP_02", "OP_03"),
                ("OP_02", "OP_05"),
                ("OP_03", "OP_05"),
                ("OP_05", "OP_06"),
            ],
        )
        graph = merge_workflows([base, parse_workflow(doc_json(doc))])
        assert len(graph.edge_list) == 12
        labels = build_labels(graph, base)
        ones = {graph.edge_list[i] for i in np.flatnonzero(labels)}
        assert ones == set(base.edges)
        assert labels.sum() == 5

    def test_foreign_edge_rejected(self):
        wf = Workflow(
            id="WF_BAD",
            name="bad",
            description="",
            patterns_must=(),
            patterns_should=(),
            nodes=("A", "D"),
            edges=(("A", "D"),),
            operations={i: DIAMOND.operations[i] for i in ("A", "D")},
        )
        with pytest.raises(DataError, match="not a candidate edge"):
            build_labels(DIAMOND, wf)


# ---------------------------------------------------------------------------
# Greedy decoding
# ---------------------------------------------------------------------------


class TestInstantiateWorkflow:
    def test_linear_chain_fully_admitted(self):
        graph = graph_of([("A", "B"), ("B", "C")])
        wf = instantiate_workflow(graph, scores_for(graph, {("A", "B"): 0.9, ("B", "C"): 0.8}))
        assert wf.edges == (("A", "B"), ("B", "C"))
        assert wf.nodes == ("A", "B", "C")

    def test_theta_floor_blocks_low_scores(self):
        graph = graph_of([("A", "B"), ("B", "C")])
        wf = instantiate_workflow(graph, scores_for(graph, {("A", "B"): 0.9, ("B", "C"): 0.4}))
        assert wf.edges == (("A", "B"),)

    def test_equal_scores_admit_lexicographically_first(self):
        # With room for only one new node, the winner of the tie is visible.
        wf = instantiate_workflow(
            DIAMOND,
            np.full(len(DIAMOND.edge_list), 0.9),
            DecodeConfig(max_nodes=2),
        )
        assert wf.edges == (("A", "B"),)
        assert wf.nodes == ("A", "B")

    def test_max_nodes_only_counts_new_nodes(self):
        graph = graph_of([("A", "B"), ("A", "C"), ("B", "C"), ("B", "D")])
        scores = {("A", "B"): 0.9, ("A", "C"): 0.85, ("B", "C"): 0.8, ("B", "D"): 0.7}
        wf = instantiate_workflow(graph, scores_for(graph, scores), DecodeConfig(max_nodes=3))
        # D is blocked by the budget, but B->C joins two reachable nodes.
        assert wf.nodes == ("A", "B", "C")
        assert wf.edges == (("A", "B"), ("A", "C"), ("B", "C"))

    def test_max_nodes_one_yields_entry_only(self):
        wf = instantiate_workflow(
            DIAMOND, np.full(len(DIAMOND.edge_list), 0.9), DecodeConfig(max_nodes=1)
        )
        assert wf.edges == ()
        assert wf.nodes == ("A",)

    @pytest.mark.parametrize("theta", [0.3, 0.5])
    @pytest.mark.parametrize("max_nodes", [2, 3, 4, None])
    def test_diamond_matches_stepwise_oracle(self, theta, max_nodes):
        rng = np.random.default_rng(hash((theta, max_nodes)) % 2**32)
        candidates = DIAMOND.edge_list
        entries = DIAMOND.entry_ops()
        budget = max_nodes if max_nodes is not None else len(DIAMOND.node_ids)
        for trial in range(150):
            if trial % 2:
                values = rng.choice([0.2, 0.4, 0.6, 0.8], size=len(candidates))
            else:
                values = rng.uniform(0.0, 1.0, size=len(candidates))
            score_of = dict(zip(candidates, values.tolist()))
            wf = instantiate_workflow(
                DIAMOND, values, DecodeConfig(theta_min=theta, max_nodes=max_nodes)
            )
            nodes, edges = oracle_decode(candidates, entries, score_of, theta, budget)
            assert wf.nodes == nodes
            assert wf.edges == edges

    def test_decoded_workflows_are_connected_dags(self):
        corpus = generate_synthetic_corpus(vocab_size=12, n_tasks=1, seed=5)
        graph = corpus.graph
        rng = np.random.default_rng(11)
        candidate_set = set(graph.edge_list)
        entries = set(graph.entry_ops())
        for _ in range(100):
            scores = rng.uniform(0.0, 1.0, size=len(graph.edge_list))
            wf = instantiate_workflow(graph, scores)
            assert set(wf.edges) <= candidate_set
            dig = nx.DiGraph(wf.edges)
            dig.add_nodes_from(wf.nodes)
            assert nx.is_directed_acyclic_graph(dig)
            frontier = set(wf.nodes) & entries
            reached = set(frontier)
            for src in frontier:
                reached |= nx.descendants(dig, src)
            assert reached == set(wf.nodes)

    def test_wrong_score_shape_rejected(self):
        with pytest.raises(DataError, match="edge scores"):
            instantiate_workflow(DIAMOND, np.array([0.9, 0.9]))

    def test_empty_graph_rejected(self):
        from opflow.graph import OperationGraph

        with pytest.raises(DataError, match="empty graph"):
            instantiate_workflow(OperationGraph(operations={}, edges=()), np.zeros(0))

    def test_decode_config_validation(self):
        with pytest.raises(DataError):
            DecodeConfig(theta_min=-0.1)
        with pytest.raises(DataError):
            DecodeConfig(theta_min=1.5)
        with pytest.raises(DataError):
            DecodeConfig(max_nodes=0)


# ---------------------------------------------------------------------------
# Scoring and generation
# ---------------------------------------------------------------------------


class TestScoringAndGenerate:
    def test_zero_params_score_exactly_half(self):
        scores = score_candidate_edges(DIAMOND, zero_params(), "solve the problem")
        assert scores.shape == (4,)
        assert np.all(scores == 0.5)

    def test_zero_params_theta_point_six_gives_no_edges(self):
        wf = generate(
            DIAMOND, zero_params(), "solve the problem", DecodeConfig(theta_min=0.6)
        )
        assert wf.edges == ()
        assert wf.nodes == tuple(DIAMOND.entry_ops())

    def test_scores_lie_in_unit_interval(self):
        params = init_params(seed=3)
        scores = score_candidate_edges(DIAMOND, params, "arrange the final digest")
        assert np.all((scores > 0.0) & (scores < 1.0))

    def test_task_text_changes_scores(self):
        params = init_params(seed=3)
        a = score_candidate_edges(DIAMOND, params, "collect the ledger records")
        b = score_candidate_edges(DIAMOND, params, "archive the turbine history")
        assert not np.array_equal(a, b)

    def test_generate_is_deterministic(self):
        params = init_params(seed=1)
        one = generate(DIAMOND, params, "handle the request")
        two = generate(DIAMOND, params, "handle the request")
        assert one == two

    def test_generate_normalizes_the_adjacency_once(self, monkeypatch):
        calls = []
        original = opflow.nn.normalized_adjacency

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(opflow.nn, "normalized_adjacency", counting)
        generate(DIAMOND, init_params(seed=1), "handle the request")
        assert len(calls) == 1
        assert set(np.unique(calls[0])) <= {0.0, 1.0}  # the raw adjacency

    def test_generated_id_format(self):
        wf_id = generated_workflow_id("handle the request")
        assert wf_id.startswith("WF_GEN_") and len(wf_id) == len("WF_GEN_") + 8
        assert wf_id == generated_workflow_id("handle the request")
        assert wf_id != generated_workflow_id("handle another request")
        wf = generate(DIAMOND, zero_params(), "handle the request")
        assert wf.id == wf_id
        assert wf.description == "handle the request"


class TestModelInputsCache:
    """Model inputs are built once per graph and shared by every request."""

    def test_cached_inputs_give_bitwise_equal_results(self, monkeypatch):
        corpus = generate_synthetic_corpus(vocab_size=10, n_tasks=40, seed=3)
        graph, samples = corpus.graph, corpus.samples
        config = TrainConfig(
            epochs=1, batch_size=16, learning_rate=1e-2, hidden_dim=32, mlp_hidden=16, seed=2
        )

        def run():
            result = train(graph, samples, config)
            loss = mean_loss(graph, samples, result.params)
            scores = [score_candidate_edges(graph, result.params, s.task_text) for s in samples[:8]]
            return result, loss, scores

        cached = run()
        assert graph in construct._INPUTS
        monkeypatch.setattr(construct, "_model_inputs", construct._ModelInputs)
        fresh = run()
        for name, array in cached[0].params.arrays().items():
            assert np.array_equal(array, fresh[0].params.arrays()[name]), name
        assert cached[0].epoch_losses == fresh[0].epoch_losses
        assert cached[1] == fresh[1]
        for a, b in zip(cached[2], fresh[2]):
            assert np.array_equal(a, b)

    def test_second_generate_embeds_only_the_task(self, monkeypatch):
        graph = graph_of([("A", "B"), ("B", "C")])
        params = init_params(seed=4)
        generate(graph, params, "first task")
        ops, texts = [], []
        embed_operation = HashingEmbedder.embed_operation
        embed_text = HashingEmbedder.embed_text
        monkeypatch.setattr(
            HashingEmbedder, "embed_operation",
            lambda self, op: ops.append(op) or embed_operation(self, op),
        )
        monkeypatch.setattr(
            HashingEmbedder, "embed_text",
            lambda self, text: texts.append(text) or embed_text(self, text),
        )
        generate(graph, params, "second task")
        assert ops == []
        assert texts == ["second task"]

    def test_second_generate_with_read_only_params_normalizes_nothing(self, monkeypatch):
        graph = graph_of([("A", "B"), ("A", "C"), ("B", "C")])
        writable = init_params(seed=5)
        params = writable.read_only()
        calls = []
        original = opflow.nn.normalized_adjacency
        monkeypatch.setattr(
            opflow.nn, "normalized_adjacency", lambda a: calls.append(a) or original(a)
        )
        first = generate(graph, params, "first task")
        assert len(calls) == 1
        second = generate(graph, params, "second task")
        assert len(calls) == 1
        assert first == generate(graph, writable, "first task")
        assert second == generate(graph, writable, "second task")

    def test_entry_lives_as_long_as_the_graph(self):
        graph = graph_of([("A", "B"), ("B", "C")])
        generate(graph, init_params(seed=4), "a task")
        assert graph in construct._INPUTS
        alive = weakref.ref(graph)
        gc.collect()
        before = len(construct._INPUTS)
        del graph
        gc.collect()
        assert alive() is None
        assert len(construct._INPUTS) == before - 1

    def test_cached_arrays_are_read_only(self):
        inputs = construct._model_inputs(DIAMOND)
        assert construct._model_inputs(DIAMOND) is inputs
        for array in (inputs.base_x, inputs.adjacency, inputs.edge_index):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        score_candidate_edges(DIAMOND, init_params(seed=4), "a task")
        assert not inputs.base_x[inputs.task_index].any()

    def test_graph_fields_cannot_be_reassigned(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DIAMOND.edges = ()


# ---------------------------------------------------------------------------
# Planted corpus
# ---------------------------------------------------------------------------


class TestPlantedCorpus:
    def test_seed_determinism(self):
        a = generate_synthetic_corpus(vocab_size=10, n_tasks=40, seed=9)
        b = generate_synthetic_corpus(vocab_size=10, n_tasks=40, seed=9)
        assert [s.task_text for s in a.samples] == [s.task_text for s in b.samples]
        assert [s.workflow for s in a.samples] == [s.workflow for s in b.samples]
        assert a.graph.edge_list == b.graph.edge_list

    @pytest.mark.parametrize(
        "vocab,routes", [(4, 1), (7, 2), (10, 3), (20, 6), (40, 6)]
    )
    def test_route_count_scales_with_vocab(self, vocab, routes):
        corpus = generate_synthetic_corpus(vocab_size=vocab, n_tasks=3, seed=0)
        assert corpus.n_routes == routes
        assert len(corpus.graph.operations) == vocab
        # Chains hang off one entry op, so the graph has vocab - 1 edges.
        assert len(corpus.graph.edge_list) == vocab - 1

    def test_targets_are_connected_dags_rooted_at_entry(self, planted_default):
        corpus = planted_default
        candidate_set = set(corpus.graph.edge_list)
        for sample in corpus.samples:
            wf = sample.workflow
            assert set(wf.edges) <= candidate_set
            dig = nx.DiGraph(wf.edges)
            dig.add_nodes_from(wf.nodes)
            assert nx.is_directed_acyclic_graph(dig)
            assert set(wf.nodes) == {corpus.entry_id} | nx.descendants(
                dig, corpus.entry_id
            )

    def test_targets_are_route_chains_sharing_their_edge_tuples(self, planted_default):
        corpus = planted_default
        own = {id(edge) for wf in corpus.route_workflows for edge in wf.edges}
        for routes in ([0], [3, 1], [5, 0, 2]):
            edges = corpus.target_edges_for_routes(routes)
            chains = [(corpus.entry_id,) + corpus.route_chains[r] for r in routes]
            assert edges == tuple(sorted(e for c in chains for e in zip(c, c[1:])))
            assert all(id(edge) in own for edge in edges)

    def test_targets_recoverable_from_task_text(self, planted_default):
        corpus = planted_default
        for sample in corpus.samples:
            assert corpus.target_edges_for_text(sample.task_text) == sample.workflow.edges

    def test_operation_overlap_across_tasks(self, planted_default):
        corpus = planted_default
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(400):
            i, j = rng.integers(0, len(corpus.samples), 2)
            a = set(corpus.samples[i].workflow.nodes)
            b = set(corpus.samples[j].workflow.nodes)
            ratios.append(len(a & b) / min(len(a), len(b)))
        assert np.mean(ratios) >= 0.4

    def test_compose_task_mentions_all_keywords(self):
        corpus = generate_synthetic_corpus(vocab_size=20, n_tasks=1, seed=0)
        rng = np.random.default_rng(0)
        text = corpus.compose_task((0, 2, 4), rng)
        assert corpus.routes_in_text(text) == (0, 2, 4)
        with pytest.raises(DataError, match="at least one route"):
            corpus.compose_task((), rng)

    def test_input_validation(self):
        with pytest.raises(DataError, match="vocab_size"):
            generate_synthetic_corpus(vocab_size=3)
        with pytest.raises(DataError, match="n_tasks"):
            generate_synthetic_corpus(vocab_size=8, n_tasks=0)

    def test_sample_file_round_trip(self, tmp_path):
        corpus = generate_synthetic_corpus(vocab_size=10, n_tasks=25, seed=2)
        path = tmp_path / "samples.tsv"
        save_samples(path, corpus.samples)
        by_id = {s.workflow.id: s.workflow for s in corpus.samples}
        loaded = load_samples(path, by_id)
        assert loaded == list(corpus.samples)

    def test_sample_file_rejects_unknown_workflow(self, tmp_path):
        path = tmp_path / "samples.tsv"
        path.write_text("do the thing\tWF_NOPE\n")
        with pytest.raises(DataError, match="unknown target workflow"):
            load_samples(path, {})

    def test_sample_file_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "samples.tsv"
        path.write_text("no tab separator here\n")
        with pytest.raises(DataError, match="expected"):
            load_samples(path, {})

    def test_save_rejects_tab_in_task_text(self, tmp_path):
        corpus = generate_synthetic_corpus(vocab_size=10, n_tasks=1, seed=0)
        bad = TrainSample(task_text="a\tb", workflow=corpus.samples[0].workflow)
        with pytest.raises(DataError, match="tab or newline"):
            save_samples(tmp_path / "s.tsv", [bad])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class TestTraining:
    def test_default_run_reduces_loss(self, default_training):
        result, _ = default_training
        assert len(result.epoch_losses) == 20
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_zero_learning_rate_leaves_params_untouched(self):
        corpus = generate_synthetic_corpus(vocab_size=10, n_tasks=200, seed=1)
        config = TrainConfig(epochs=5, learning_rate=0.0, seed=3)
        result = train(corpus.graph, list(corpus.samples), config)
        reference = init_params(seed=3)
        for name, arr in reference.arrays().items():
            assert np.array_equal(arr, result.params.arrays()[name])
        # The trace is flat up to relaxation noise (fresh draws per epoch).
        assert max(result.epoch_losses) - min(result.epoch_losses) < 0.1

    def test_same_seed_reproduces_run(self):
        corpus = generate_synthetic_corpus(vocab_size=8, n_tasks=60, seed=4)
        config = TrainConfig(epochs=3, batch_size=16, seed=5)
        a = train(corpus.graph, list(corpus.samples), config)
        b = train(corpus.graph, list(corpus.samples), config)
        assert a.epoch_losses == b.epoch_losses
        for name, arr in a.params.arrays().items():
            assert np.array_equal(arr, b.params.arrays()[name])

    def test_different_seed_changes_run(self):
        corpus = generate_synthetic_corpus(vocab_size=8, n_tasks=60, seed=4)
        a = train(corpus.graph, list(corpus.samples), TrainConfig(epochs=2, seed=5))
        b = train(corpus.graph, list(corpus.samples), TrainConfig(epochs=2, seed=6))
        assert a.epoch_losses != b.epoch_losses

    def test_rejects_empty_sample_list(self):
        with pytest.raises(DataError, match="empty sample list"):
            train(DIAMOND, [], TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(DataError):
            TrainConfig(epochs=-1)
        with pytest.raises(DataError):
            TrainConfig(batch_size=0)
        with pytest.raises(DataError):
            TrainConfig(tau=0.0)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", -1.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("weight_decay", -0.5),
        ("weight_decay", float("inf")),
        ("weight_decay", float("nan")),
        ("tau", float("nan")),
        ("tau", float("inf")),
    ])
    def test_rejects_rate_that_means_nothing(self, key, value):
        with pytest.raises(DataError, match=key):
            TrainConfig(**{key: value})

    def test_zero_epochs_returns_initialization(self):
        corpus = generate_synthetic_corpus(vocab_size=6, n_tasks=20, seed=2)
        result = train(corpus.graph, list(corpus.samples), TrainConfig(epochs=0, seed=9))
        reference = init_params(seed=9)
        for name in ("gcn_w1", "gcn_w2", "mlp_w1", "mlp_w3"):
            assert np.array_equal(getattr(result.params, name), getattr(reference, name))
        assert result.epoch_losses == []

    def test_initial_loss_near_ln2(self):
        corpus = generate_synthetic_corpus(vocab_size=10, n_tasks=200, seed=1)
        samples = list(corpus.samples)
        exact = mean_loss(corpus.graph, samples, zero_params())
        assert exact == pytest.approx(math.log(2.0), abs=1e-12)
        glorot = mean_loss(corpus.graph, samples, init_params(seed=0))
        assert abs(glorot - math.log(2.0)) < 0.05

    def test_evaluate_loss_matches_per_sample_dense_reference(self):
        corpus = generate_synthetic_corpus(vocab_size=10, n_tasks=12, seed=4)
        samples = list(corpus.samples)
        params = init_params(dim_hidden=8, mlp_hidden=6, seed=5)
        rng = np.random.default_rng(6)
        for name in ("mlp_b1", "mlp_b2", "mlp_b3"):
            getattr(params, name)[...] += rng.normal(scale=0.05, size=getattr(params, name).shape)
        inputs = construct._model_inputs(corpus.graph)
        embedder = HashingEmbedder()
        losses = []
        for sample in samples:
            x = inputs.base_x.copy()
            x[inputs.task_index] = embedder.embed_text(sample.task_text)
            loss, _ = dense_forward(
                params, x[None], inputs.adjacency, inputs.edge_index, inputs.task_index,
                build_labels(corpus.graph, sample.workflow),
            )
            losses.append(loss)
        got = mean_loss(corpus.graph, samples, params)
        assert got == pytest.approx(np.mean(losses), rel=1e-12, abs=0)


class TestReadOnlyParams:
    """``train`` and ``load_checkpoint`` return params that nothing can write,
    which is what lets serving memoize their request-invariant terms."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        corpus = generate_synthetic_corpus(vocab_size=6, n_tasks=16, seed=1)
        config = TrainConfig(epochs=1, batch_size=8, hidden_dim=8, mlp_hidden=4, seed=3)
        params = train(corpus.graph, list(corpus.samples), config).params
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(path, params, seed=3)
        return params, load_checkpoint(path)[0]

    @pytest.mark.parametrize("source", ["train", "load_checkpoint"])
    def test_writes_raise(self, trained, source):
        params = trained[source == "load_checkpoint"]
        grads = {name: np.ones_like(arr) for name, arr in params.arrays().items()}
        before = {name: arr.copy() for name, arr in params.arrays().items()}
        with pytest.raises(ValueError, match="read-only"):
            adamw_step(params, grads, adamw_init(params), lr=1e-2)
        for name, arr in params.arrays().items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr.setflags(write=True)
            assert np.array_equal(arr, before[name]), name

    def test_copy_stays_trainable(self, trained):
        params = trained[0].copy()
        grads = {name: np.ones_like(arr) for name, arr in params.arrays().items()}
        before = params.gcn_w1.copy()
        adamw_step(params, grads, adamw_init(params), lr=1e-2)
        assert all(arr.flags.writeable for arr in params.arrays().values())
        assert not np.array_equal(params.gcn_w1, before)
        assert np.array_equal(trained[0].gcn_w1, before)


# ---------------------------------------------------------------------------
# Edge F1
# ---------------------------------------------------------------------------


class TestEdgeF1:
    def test_both_empty_is_one(self):
        assert edge_f1([], []) == 1.0

    def test_one_empty_is_zero(self):
        assert edge_f1([("A", "B")], []) == 0.0
        assert edge_f1([], [("A", "B")]) == 0.0

    def test_exact_match_is_one(self):
        edges = [("A", "B"), ("B", "C")]
        assert edge_f1(edges, edges) == 1.0

    def test_partial_match_value(self):
        pred = [("A", "B")]
        ref = [("A", "B"), ("B", "C")]
        assert edge_f1(pred, ref) == pytest.approx(2.0 / 3.0)

    def test_disjoint_is_zero(self):
        assert edge_f1([("A", "B")], [("B", "C")]) == 0.0

    def test_mean_requires_samples(self):
        with pytest.raises(DataError, match="empty sample list"):
            mean_edge_f1(DIAMOND, zero_params(), [])
