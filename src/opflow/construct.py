"""Task-conditioned workflow synthesis over a merged operation graph.

The scorer (two GCN layers + a three-layer MLP, see ``nn``) is trained to
predict, for every candidate edge of the operation graph, whether that edge
belongs in the workflow for a given task description.  Decoding then grows a
workflow greedily from the graph's entry operations, admitting the
highest-scoring reachable edge at each step, which guarantees a connected DAG
that is always a subgraph of the operation graph.

The synthetic corpus used for training demos and regression gates is built
around *planted routes*: disjoint chains hanging off one shared entry
operation, each tagged with a unique keyword that appears both in its
operations' instructions and in the task texts that require it.  Target
workflows are therefore recoverable from the task text alone, which gives an
exact reference for edge-level precision/recall.
"""

from __future__ import annotations

import hashlib
import heapq
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError, _check_int, _write_atomic
from .features import HashingEmbedder, assemble_features
from .graph import (
    TASK_NODE_ID,
    Operation,
    OperationGraph,
    Workflow,
    condition_on_task,
    merge_workflows,
)
from .nn import (
    ModelParams,
    _empty,
    adamw_init,
    adamw_step,
    backward,
    forward_loss,
    gcn_forward,
    gumbel_noise,
    init_params,
    score_edges,
    sigmoid,
)

_EMBEDDER = HashingEmbedder()


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-4
    weight_decay: float = 1e-2
    tau: float = 1.0
    hidden_dim: int = 256
    mlp_hidden: int = 128
    seed: int = 0

    def __post_init__(self):
        _check_int("epochs", self.epochs, 0)
        _check_int("seed", self.seed, 0)
        for name in ("batch_size", "hidden_dim", "mlp_hidden"):
            _check_int(name, getattr(self, name), 1)
        if not (0 < self.tau < np.inf):
            raise DataError(f"tau must be positive and finite, got {self.tau}")
        for name in ("learning_rate", "weight_decay"):
            if not (0 <= getattr(self, name) < np.inf):
                raise DataError(f"{name} must be non-negative and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class DecodeConfig:
    """Greedy decoding knobs: minimum admission score and node budget."""

    theta_min: float = 0.5
    max_nodes: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.theta_min <= 1.0):
            raise DataError(f"theta_min must lie in [0, 1], got {self.theta_min}")
        if self.max_nodes is not None:
            _check_int("max_nodes", self.max_nodes, 1)


@dataclass(frozen=True)
class TrainSample:
    task_text: str
    workflow: Workflow


@dataclass
class TrainResult:
    params: ModelParams
    epoch_losses: list[float]


# ---------------------------------------------------------------------------
# Labels and model-input assembly
# ---------------------------------------------------------------------------


def build_labels(graph: OperationGraph, workflow: Workflow) -> np.ndarray:
    """0/1 vector over ``graph.edge_list`` marking the workflow's edges."""
    candidate = {edge: i for i, edge in enumerate(graph.edge_list)}
    labels = np.zeros(len(candidate), dtype=np.float64)
    for edge in workflow.edges:
        idx = candidate.get(tuple(edge))
        if idx is None:
            raise DataError(
                f"workflow {workflow.id!r} edge {edge[0]}->{edge[1]} "
                "is not a candidate edge of the operation graph"
            )
        labels[idx] = 1.0
    return labels


class _ModelInputs:
    """Per-graph model tensors, built once per graph by ``_model_inputs``.

    ``base_x`` holds the operation embeddings with a zero task row,
    ``adjacency`` the raw task-graph adjacency (the model normalizes it),
    ``edge_index`` the candidate edges as node-index pairs and ``task_index``
    the task row.  The arrays are read-only because every request on the
    graph shares them, and so that ``nn`` may memoize, per read-only params,
    the terms computed from them; only the task row varies between samples.
    """

    def __init__(self, graph: OperationGraph):
        if not graph.edge_list:
            raise DataError("operation graph has no candidate edges to score")
        task_graph = condition_on_task(graph, "")
        self.base_x, self.adjacency = assemble_features(task_graph)
        index = {node: i for i, node in enumerate(task_graph.node_ids)}
        self.edge_index = np.asarray(
            [(index[a], index[b]) for a, b in graph.edge_list], dtype=np.int64
        )
        self.task_index = index[TASK_NODE_ID]
        for array in (self.base_x, self.adjacency, self.edge_index):
            array.setflags(write=False)

    def check_width(self, params: ModelParams) -> None:
        """Reject parameters fitted to features of another width."""
        width = self.base_x.shape[1]
        if params.dim_in != width:
            raise DataError(
                f"model parameters take {params.dim_in}-dim features, "
                f"the embedder gives {width}"
            )


# Keyed by graph identity; an entry lives as long as its (immutable) graph.
# It is not a property of the graph because ``graph`` imports no model code.
_INPUTS: weakref.WeakKeyDictionary[OperationGraph, _ModelInputs] = weakref.WeakKeyDictionary()


def _model_inputs(graph: OperationGraph) -> _ModelInputs:
    inputs = _INPUTS.get(graph)
    if inputs is None:
        inputs = _INPUTS[graph] = _ModelInputs(graph)
    return inputs


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(
    graph: OperationGraph,
    samples: Sequence[TrainSample],
    config: TrainConfig | None = None,
) -> TrainResult:
    """Fit the edge scorer on (task, target workflow) pairs.

    The result's bytes are reproducible for a given seed and BLAS thread
    count: initialization, epoch shuffles and the per-batch relaxation noise
    all draw from one seeded generator, but the BLAS sums in another order
    at another thread count (at the control configuration, checkpoints
    written at 1 and 2 OpenBLAS threads differ in their bytes and score the
    same held-out F1).  The
    recorded per-epoch loss is the mean *relaxed* (noise-injected) BCE over
    the epoch's samples.  The returned params are read-only; call ``.copy()``
    to fine-tune them.
    """
    config = config or TrainConfig()
    if not samples:
        raise DataError("cannot train on an empty sample list")
    inputs = _model_inputs(graph)

    labels = np.stack([build_labels(graph, s.workflow) for s in samples])
    task_rows = np.stack([_EMBEDDER.embed_text(s.task_text) for s in samples])

    rng = np.random.default_rng(config.seed)
    params = init_params(
        dim_in=_EMBEDDER.dim,
        dim_hidden=config.hidden_dim,
        mlp_hidden=config.mlp_hidden,
        seed=config.seed,
    )
    state = adamw_init(params)

    n = len(samples)
    n_edges = len(graph.edge_list)
    epoch_losses: list[float] = []
    # A step's large arrays are views of this workspace (``nn._empty``); made
    # afresh, they went back to the system and were faulted in again each step.
    ws: dict[str, np.ndarray] = {}
    for _ in range(config.epochs):
        order = rng.permutation(n)
        running = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            noise = gumbel_noise(rng, (len(batch), n_edges))
            loss, cache = forward_loss(
                params,
                inputs.base_x,
                inputs.adjacency,
                inputs.edge_index,
                inputs.task_index,
                labels.take(batch, 0, _empty(ws, "labels", (len(batch), n_edges)), "clip"),
                task_rows=task_rows.take(batch, 0, _empty(ws, "rows", (len(batch), task_rows.shape[1])), "clip"),
                tau=config.tau,
                noise=noise,
                workspace=ws,
            )
            if not np.isfinite(loss):
                raise NumericError(f"training loss became non-finite ({loss})")
            params, state = adamw_step(
                params,
                backward(cache),
                state,
                lr=config.learning_rate,
                weight_decay=config.weight_decay,
                workspace=ws,
            )
            running += float(loss) * len(batch)
        epoch_losses.append(running / n)
    ws = cache = None  # the workspace goes before ``read_only`` copies the params
    return TrainResult(params=params.read_only(), epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# Scoring and decoding
# ---------------------------------------------------------------------------


# Task rows per model call when many texts are synthesized at once: on a
# 2-vCPU host with 4 MiB of L2, blocks of 16-32 texts took 290-360 us per
# text against 450-620 us one at a time, and blocks of 64 or more were
# slower again and held more memory.
_SYNTHESIS_BLOCK = 16


def _scores(graph: OperationGraph, params: ModelParams, texts: Sequence[str]) -> np.ndarray:
    """(len(texts), E) noise-free admission probabilities, one model call
    over one task row per text: the sigmoid of the edge logits, bit for bit
    ``gumbel_sigmoid`` with no noise at temperature 1.  For read-only params
    only the task rows' terms are computed."""
    inputs = _model_inputs(graph)
    inputs.check_width(params)
    vectors = [_EMBEDDER.embed_text(text) for text in texts]
    # A lone text's row stays a view of its embedding: on one-request serving
    # calls, copying it into a fresh (1, D) array read about 2% slower.
    rows = vectors[0][None] if len(vectors) == 1 else np.array(vectors)
    h = gcn_forward(params, inputs.base_x, inputs.adjacency, inputs.task_index, rows)
    return sigmoid(score_edges(params, h, inputs.edge_index, inputs.task_index))


def score_candidate_edges(
    graph: OperationGraph,
    params: ModelParams,
    task_text: str,
) -> np.ndarray:
    """Noise-free admission probabilities aligned with ``graph.edge_list``."""
    return _scores(graph, params, [task_text])[0]


def generated_workflow_id(task_text: str) -> str:
    digest = hashlib.blake2b(
        task_text.encode("utf-8"), digest_size=4, person=b"opflow-gen"
    ).hexdigest()
    return f"WF_GEN_{digest.upper()}"


def instantiate_workflow(
    graph: OperationGraph,
    edge_scores: np.ndarray,
    config: DecodeConfig | None = None,
    workflow_id: str = "WF_GEN",
    description: str = "",
) -> Workflow:
    """Constrained greedy decode: grow a workflow from the entry operations.

    ``edge_scores`` is the ``(E,)`` score array aligned with ``graph.edge_list``.
    Starting from the zero-in-degree operations, repeatedly admit the
    highest-scoring candidate edge whose source is already reachable and
    whose score clears ``theta_min`` (ties broken by lexicographic edge id),
    skipping edges that would push the node count past ``max_nodes``.  The
    result is connected by construction and a DAG because the candidate set
    already is one.
    """
    config = config or DecodeConfig()
    if not graph.operations:
        raise DataError("cannot instantiate a workflow over an empty graph")
    candidates = graph.edge_list
    if edge_scores.shape != (len(candidates),):
        raise DataError(f"expected {len(candidates)} edge scores, got shape {edge_scores.shape}")

    # One max-heap pass: a pop is the best-scoring admissible edge out of the
    # reachable set, ties going to the smallest edge.  An edge blocked by the
    # budget is dropped for good, since a full budget admits no new node.
    max_nodes = config.max_nodes if config.max_nodes is not None else len(graph.operations)
    by_source: dict[str, list[tuple[float, tuple[str, str]]]] = {}
    for edge, score in zip(candidates, edge_scores.tolist()):
        if score >= config.theta_min:
            by_source.setdefault(edge[0], []).append((-score, edge))
    reachable = set(graph.entry_ops)
    heap = [item for op in reachable for item in by_source.get(op, ())]
    heapq.heapify(heap)
    admitted: list[tuple[str, str]] = []
    while heap:
        _, edge = heapq.heappop(heap)
        dst = edge[1]
        if dst not in reachable:
            if len(reachable) >= max_nodes:
                continue
            reachable.add(dst)
            for item in by_source.get(dst, ()):
                heapq.heappush(heap, item)
        admitted.append(edge)

    nodes = tuple(sorted(reachable))
    edges = tuple(sorted(admitted))
    return Workflow(
        id=workflow_id,
        name="generated workflow",
        description=description,
        patterns_must=(),
        patterns_should=(),
        nodes=nodes,
        edges=edges,
        operations={node: graph.operations[node] for node in nodes},
    )


def generate(
    graph: OperationGraph,
    params: ModelParams,
    task_text: str,
    config: DecodeConfig | None = None,
) -> Workflow:
    """Score candidate edges for the task, then greedily decode a workflow."""
    scores = score_candidate_edges(graph, params, task_text)
    return instantiate_workflow(
        graph,
        scores,
        config,
        workflow_id=generated_workflow_id(task_text),
        description=task_text,
    )


def _synthesize(graph: OperationGraph, params: ModelParams, texts: Iterable[str]) -> dict[str, Workflow]:
    """``generate``'s workflow for each distinct text, in first-seen order.

    The texts are scored ``_SYNTHESIS_BLOCK`` task rows per model call, then
    decoded one by one.  A text's scores differ from its one-text scores
    only by the rounding of a larger matrix product (within 1e-12 relative);
    a single text takes exactly ``generate``'s path.
    """
    distinct = list(dict.fromkeys(texts))
    workflows: dict[str, Workflow] = {}
    for start in range(0, len(distinct), _SYNTHESIS_BLOCK):
        block = distinct[start : start + _SYNTHESIS_BLOCK]
        for text, scores in zip(block, _scores(graph, params, block)):
            workflows[text] = instantiate_workflow(
                graph, scores, workflow_id=generated_workflow_id(text), description=text
            )
    return workflows


def edge_f1(predicted: Iterable[tuple[str, str]], target: Iterable[tuple[str, str]]) -> float:
    pred = {tuple(e) for e in predicted}
    ref = {tuple(e) for e in target}
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    hit = len(pred & ref)
    if hit == 0:
        return 0.0
    precision = hit / len(pred)
    recall = hit / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def mean_edge_f1(graph: OperationGraph, params: ModelParams, samples: Sequence[TrainSample]) -> float:
    """Mean edge-F1 of the generated workflows against the samples' targets;
    each distinct task text is synthesized once, in blocks (``_synthesize``)."""
    if not samples:
        raise DataError("cannot score an empty sample list")
    workflows = _synthesize(graph, params, (s.task_text for s in samples))
    return float(np.mean([edge_f1(workflows[s.task_text].edges, s.workflow.edges) for s in samples]))


# ---------------------------------------------------------------------------
# Planted synthetic corpus
# ---------------------------------------------------------------------------

_KEYWORDS = ("ledger", "quartz", "orchard", "beacon", "mosaic", "turbine")
_STAGE_VERBS = ("Collect", "Normalize", "Reconcile", "Summarize", "Publish", "Archive")
_STAGE_NOUNS = ("records", "figures", "totals", "digest", "bundle", "history")
_OPENERS = ("Prepare", "Assemble", "Finish", "Deliver", "Compile", "Complete")
_UNITS = ("report", "summary", "packet")
_CLOSERS = (
    "for this quarter",
    "before the weekly review",
    "for the client meeting",
    "by end of day",
    "for the audit trail",
)
_ENTRY_INSTRUCTION = "Review the incoming request and outline the required work items"
_PAIR_PROBABILITY = 0.35  # share of sampled tasks that mention two routes


@dataclass
class PlantedCorpus:
    """A seeded synthetic world of keyword-tagged routes.

    ``route_chains[r]`` lists the op ids of route ``r`` in execution order
    (excluding the shared entry op).  The target workflow for a task is the
    union of the routes whose keyword appears in the task text.
    """

    graph: OperationGraph
    entry_id: str
    route_keywords: tuple[str, ...]
    route_chains: tuple[tuple[str, ...], ...]
    route_workflows: tuple[Workflow, ...]
    samples: tuple[TrainSample, ...]

    @property
    def n_routes(self) -> int:
        return len(self.route_keywords)

    def routes_in_text(self, task_text: str) -> tuple[int, ...]:
        words = set(task_text.casefold().split())
        return tuple(i for i, kw in enumerate(self.route_keywords) if kw in words)

    def target_edges_for_routes(self, routes: Sequence[int]) -> tuple[tuple[str, str], ...]:
        # The route workflows' own edge tuples, so that held workloads share them.
        return tuple(sorted(edge for r in set(routes) for edge in self.route_workflows[r].edges))

    def target_workflow_for_routes(self, routes: Sequence[int]) -> Workflow:
        routes = tuple(sorted(set(routes)))
        if not routes or any(r not in range(self.n_routes) for r in routes):
            raise DataError(f"route selection {routes} out of range")
        edges = self.target_edges_for_routes(routes)
        nodes = tuple(
            sorted({self.entry_id} | {op for edge in edges for op in edge})
        )
        tag = "_".join(self.route_keywords[r].upper() for r in routes)
        return Workflow(
            id=f"WF_TGT_{tag}",
            name=f"target for {', '.join(self.route_keywords[r] for r in routes)}",
            description="",
            patterns_must=tuple(self.route_keywords[r] for r in routes),
            patterns_should=(),
            nodes=nodes,
            edges=edges,
            operations={node: self.graph.operations[node] for node in nodes},
        )

    def target_edges_for_text(self, task_text: str) -> tuple[tuple[str, str], ...]:
        return self.target_edges_for_routes(self.routes_in_text(task_text))

    def compose_task(self, routes: Sequence[int], rng: np.random.Generator) -> str:
        routes = tuple(routes)
        if not routes:
            raise DataError("tasks must mention at least one route")
        opener = _OPENERS[rng.integers(0, len(_OPENERS))]
        unit = _UNITS[rng.integers(0, len(_UNITS))]
        closer = _CLOSERS[rng.integers(0, len(_CLOSERS))]
        keywords = [self.route_keywords[r] for r in routes]
        if len(keywords) == 1:
            return f"{opener} the {keywords[0]} {unit} {closer}"
        # No punctuation: whitespace tokenization must see each keyword bare.
        listed = " ".join(keywords[:-1]) + f" and {keywords[-1]}"
        return f"{opener} the {listed} {unit}s {closer}"

    def sample_task(self, rng: np.random.Generator) -> TrainSample:
        if rng.random() < _PAIR_PROBABILITY and self.n_routes >= 2:
            routes = tuple(
                int(r) for r in rng.choice(self.n_routes, size=2, replace=False)
            )
        else:
            routes = (int(rng.integers(0, self.n_routes)),)
        text = self.compose_task(routes, rng)
        return TrainSample(task_text=text, workflow=self.target_workflow_for_routes(routes))


def generate_synthetic_corpus(
    vocab_size: int = 20, n_tasks: int = 500, seed: int = 0
) -> PlantedCorpus:
    """Build the planted-route world: graph, route workflows, task samples.

    ``vocab_size`` counts operations (one shared entry plus the route ops
    split as evenly as possible over the routes).  Requires at least 4 so
    there is an entry and a non-trivial chain.
    """
    _check_int("vocab_size", vocab_size, 4)
    _check_int("n_tasks", n_tasks, 1)
    _check_int("seed", seed, 0)

    n_route_ops = vocab_size - 1
    n_routes = max(1, min(len(_KEYWORDS), n_route_ops // 3))
    base, extra = divmod(n_route_ops, n_routes)
    lengths = [base + (1 if r < extra else 0) for r in range(n_routes)]

    entry_id = "OP_000"
    operations = {entry_id: Operation(id=entry_id, instruction=_ENTRY_INSTRUCTION)}
    route_chains: list[tuple[str, ...]] = []
    next_op = 1
    for r in range(n_routes):
        keyword = _KEYWORDS[r]
        chain = []
        for stage in range(lengths[r]):
            op_id = f"OP_{next_op:03d}"
            next_op += 1
            verb = _STAGE_VERBS[stage % len(_STAGE_VERBS)]
            noun = _STAGE_NOUNS[stage % len(_STAGE_NOUNS)]
            instruction = (
                f"{verb} the {keyword} {noun} for stage {stage + 1} of the {keyword} track"
            )
            operations[op_id] = Operation(
                id=op_id,
                instruction=instruction,
                patterns_must=(keyword,),
                patterns_should=(verb.casefold(),),
            )
            chain.append(op_id)
        route_chains.append(tuple(chain))

    route_workflows = []
    for r, chain in enumerate(route_chains):
        full_chain = (entry_id,) + chain
        nodes = full_chain
        edges = tuple(zip(full_chain, full_chain[1:]))
        route_workflows.append(
            Workflow(
                id=f"WF_ROUTE_{_KEYWORDS[r].upper()}",
                name=f"{_KEYWORDS[r]} route",
                description=f"the {_KEYWORDS[r]} processing track",
                patterns_must=(_KEYWORDS[r],),
                patterns_should=(),
                nodes=nodes,
                edges=edges,
                operations={node: operations[node] for node in nodes},
            )
        )

    graph = merge_workflows(route_workflows)
    corpus = PlantedCorpus(
        graph=graph,
        entry_id=entry_id,
        route_keywords=tuple(_KEYWORDS[:n_routes]),
        route_chains=tuple(route_chains),
        route_workflows=tuple(route_workflows),
        samples=(),
    )
    rng = np.random.default_rng(seed)
    corpus.samples = tuple(corpus.sample_task(rng) for _ in range(n_tasks))
    return corpus


# ---------------------------------------------------------------------------
# Sample file IO (task text <tab> target workflow id)
# ---------------------------------------------------------------------------


def save_samples(path: str | Path, samples: Sequence[TrainSample]) -> None:
    lines = []
    for sample in samples:
        if "\t" in sample.task_text or "\n" in sample.task_text:
            raise DataError(f"task text {sample.task_text!r} contains tab or newline")
        lines.append(f"{sample.task_text}\t{sample.workflow.id}\n")
    _write_atomic({path: lambda fh: fh.write("".join(lines).encode("utf-8"))})


def load_samples(
    path: str | Path, workflows: Mapping[str, Workflow]
) -> list[TrainSample]:
    samples = []
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{line_no}: expected 'task text<TAB>workflow id'")
        task_text, workflow_id = parts
        workflow = workflows.get(workflow_id)
        if workflow is None:
            raise DataError(f"{path}:{line_no}: unknown target workflow {workflow_id!r}")
        samples.append(TrainSample(task_text=task_text, workflow=workflow))
    return samples
