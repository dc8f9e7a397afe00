"""The four benchmark workloads: input generators, set-up, timed units, checks.

Every workload is one closed-loop client in one process: the next request
(or call) is sent only after the previous one has returned.  A workload's
inputs come from its seed alone; the library sees only the generated inputs.

Each workload class has the same shape:

* ``__init__(seed)`` makes the seeded inputs that are not set-up work;
* ``setup()`` is the timed set-up (repeated, and the median reported);
* ``run_unit(k)`` runs timed unit ``k`` and records its wall times;
* ``report()`` gives the workload's named end-to-end metrics;
* ``checks()`` runs the untimed output checks.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from reference import sampling_inside
from opflow import (
    CacheStore,
    KVOracle,
    OracleConfig,
    Operation,
    PlanPolicy,
    TrainConfig,
    Workflow,
    Workload,
    ablate_pruning,
    apply_plan,
    generate_synthetic_corpus,
    load_checkpoint,
    load_store,
    make_workload,
    mean_edge_f1,
    merge_workflows,
    percentile_nearest_rank,
    plan_materialization,
    run_serving_sim,
    save_store,
    sweep_batch_sizes,
    train,
    TransitionStats,
)

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "control.ckpt"
CHECKPOINT_SHA256 = "68002d562e01644149596a315740890f1ea9cb0faaf8685768e32fcdd9fa4fe5"
MIN_HELDOUT_F1 = 0.9

VOCAB_SIZE = 20
CORPUS_TASKS = 600  # the first 500 train, the last 100 are held out
TRAIN_SAMPLES = 500
TRAIN_EPOCHS = 1  # per timed call; more, shorter calls give a steadier median
CHECK_EPOCHS = 2  # the untimed call that checks the loss falls
CONTROL = {"learning_rate": 1e-2, "batch_size": 64}
OVERLAP = 0.5
SERVE_WARM_REQUESTS = 50
SERVE_BLOCK = 100  # requests per serve unit
REPLAY_LEVELS = 12
REPLAY_VARIANTS = 6
REPLAY_BRANCHING = 3  # next-level variants each op may lead to
REPLAY_DOCS = 96
REPLAY_ZIPF = 1.6
REPLAY_PASS_REQUESTS = 500  # requests per replay unit (one cold pass)
SWEEP_REQUESTS = 50
SWEEP_BATCH_SIZES = (10, 20, 30, 40, 50)
MODES = ("stateless", "differential", "stateful")


def derive_seed(seed: int, *stream: int) -> int:
    """An independent 32-bit seed for a named sub-stream of ``seed``."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def _replay_op(level: int, variant: int) -> Operation:
    return Operation(
        id=f"OP_L{level:02d}_V{variant}",
        instruction=(
            f"Stage {level + 1} variant {variant} apply transform {variant} of "
            f"level {level + 1} to the running record set and log the outcome"
        ),
    )


def replay_documents(seed: int) -> list[Workflow]:
    """Chain documents drawn as walks through a seeded branching graph.

    Level ``l`` has ``REPLAY_VARIANTS`` ops; each op leads to
    ``REPLAY_BRANCHING`` seeded next-level variants.  A document is one
    distinct walk from level 0 to the last level, so every document is a
    ``REPLAY_LEVELS``-op chain and the same op sits under many prefixes.
    """
    rng = np.random.default_rng(derive_seed(seed, 1))
    successors = [
        [
            sorted(int(v) for v in rng.choice(REPLAY_VARIANTS, REPLAY_BRANCHING, replace=False))
            for _ in range(REPLAY_VARIANTS)
        ]
        for _ in range(REPLAY_LEVELS - 1)
    ]
    walks: set[tuple[int, ...]] = set()
    while len(walks) < REPLAY_DOCS:
        walk = [int(rng.integers(REPLAY_VARIANTS))]
        for level in range(REPLAY_LEVELS - 1):
            walk.append(int(rng.choice(successors[level][walk[-1]])))
        walks.add(tuple(walk))
    docs = []
    for i, walk in enumerate(sorted(walks)):
        ops = [_replay_op(level, v) for level, v in enumerate(walk)]
        nodes = tuple(op.id for op in ops)
        docs.append(
            Workflow(
                id=f"WF_REPLAY_{i:03d}",
                name=f"replay document {i}",
                description="",
                patterns_must=(),
                patterns_should=(),
                nodes=nodes,
                edges=tuple(zip(nodes, nodes[1:])),
                operations={op.id: op for op in ops},
            )
        )
    return docs


def replay_stream(seed: int, n_docs: int = REPLAY_DOCS, n: int = REPLAY_PASS_REQUESTS) -> list[int]:
    """Document indices for one pass, with Zipf popularity.

    Popularity rank ``r`` gets its largest-remainder share of ``n`` under
    weights ``r ** -REPLAY_ZIPF``, so every seed touches the same number of
    distinct documents; the seed picks which document holds each rank and
    the request order.
    """
    rng = np.random.default_rng(derive_seed(seed, 2))
    weights = 1.0 / np.arange(1, n_docs + 1) ** REPLAY_ZIPF
    share = n * weights / weights.sum()
    counts = np.floor(share).astype(int)
    remainder = n - int(counts.sum())
    counts[np.argsort(-(share - counts), kind="stable")[:remainder]] += 1
    doc_of_rank = rng.permutation(n_docs)
    stream = np.repeat(doc_of_rank, counts)
    rng.shuffle(stream)
    return [int(d) for d in stream]


def serve_block(corpus, seed: int, block: int) -> Workload:
    """Serve requests ``block * SERVE_BLOCK`` onwards: uniform routes, overlap 0.5."""
    return make_workload(
        corpus, n_requests=SERVE_BLOCK, seed=derive_seed(seed, 3, block),
        overlap=OVERLAP, ensure_coverage=False, batch_sizes=(1,),
    )


def single(workload: Workload, i: int) -> Workload:
    return Workload(requests=(workload.requests[i],), targets=(workload.targets[i],), batch_sizes=(1,))


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def load_control_params():
    raw = CHECKPOINT.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    params, _ = load_checkpoint(CHECKPOINT)
    return params, digest


def stores_equal(a: CacheStore, b: CacheStore) -> bool:
    """Every base and residual bitwise equal, and nothing extra on either side."""
    if a.bases.keys() != b.bases.keys() or a.residuals.keys() != b.residuals.keys():
        return False
    for key, kv in a.bases.items():
        other = b.bases[key]
        if not (
            np.array_equal(kv.keys, other.keys)
            and np.array_equal(kv.values, other.values)
            and kv.position_offset == other.position_offset
        ):
            return False
    for key, delta in a.residuals.items():
        other = b.residuals[key]
        if not (
            delta.dense_shape == other.dense_shape
            and delta.position_offset == other.position_offset
            and np.array_equal(delta.coords, other.coords)
            and np.array_equal(delta.values, other.values)
        ):
            return False
    return True


@dataclass
class Base:
    """Bookkeeping shared by the workloads."""

    seed: int
    attempted: int = 0
    failed: int = 0
    calls: list = field(default_factory=list)  # (start, seconds, work, unit) per timed call
    unit: int = 0  # the unit being run
    tracer: object = None  # set while a traced phase runs
    reference: object = None  # set while a timed phase samples the host-speed reference

    work_unit = "call"
    # (module, function) after whose calls the reference may also sample
    # inside a timed call; that sampling time is taken out of the call's
    sample_inside: tuple[str, str] | None = None

    def op(self, fn, *args, **kwargs):
        return self.timed(fn, *args, **kwargs)[0]

    def timed(self, fn, *args, **kwargs):
        """Run and time one operation: (result, start, seconds).

        An exception counts the operation as failed and gives result None.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted
        reference = self.reference
        hook = nullcontext()
        if reference is not None and self.sample_inside is not None:
            module, name = self.sample_inside
            hook = sampling_inside(sys.modules[module], name, reference)
        sampled = len(reference.seconds) if reference is not None else 0
        start = time.perf_counter()
        try:
            with hook:
                result = fn(*args, **kwargs)
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            result = None
        seconds = time.perf_counter() - start
        if reference is not None:
            seconds -= sum(reference.seconds[sampled:])
            reference.maybe_sample()
        return result, start, seconds

    def record_call(self, start: float, seconds: float, work: float) -> None:
        self.calls.append((start, seconds, work, self.unit))

    def reset_timing(self) -> None:
        self.calls = []

    def request_metrics(self) -> dict[str, tuple[float, str]]:
        rate, p50, p99 = self.timings()
        return {"req_per_s": (rate, "1/s"), "req_p50_ms": (p50, "ms"), "req_p99_ms": (p99, "ms")}

    def timings(self, scale=None) -> tuple[float, float, float]:
        """Work per second, p50 and p99 call ms.

        ``scale(start, end)``, when given, multiplies each call's wall time
        by the host-speed factor over the call.  Work per second is the
        median over units, so host load in one unit does not set it.
        """
        per_unit: dict[int, list[float]] = {}
        call_ms = []
        for start, seconds, work, unit in self.calls:
            if scale is not None:
                seconds *= scale(start, start + seconds)
            call_ms.append(seconds * 1e3)
            totals = per_unit.setdefault(unit, [0.0, 0.0])
            totals[0] += work
            totals[1] += seconds
        rate = float(np.median([work / seconds for work, seconds in per_unit.values()]))
        return rate, percentile_nearest_rank(call_ms, 0.5), percentile_nearest_rank(call_ms, 0.99)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class Train(Base):
    """``train()`` at the control configuration on 500 planted samples."""

    work_unit = "training sample"
    min_units = 2
    traced_units = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = TrainConfig(epochs=TRAIN_EPOCHS, seed=seed, **CONTROL)
        self.losses: list[list[float]] = []

    def setup(self) -> None:
        corpus = generate_synthetic_corpus(vocab_size=VOCAB_SIZE, n_tasks=TRAIN_SAMPLES, seed=self.seed)
        self.graph = corpus.graph
        self.samples = list(corpus.samples)

    def run_unit(self, k: int) -> None:
        result, start, seconds = self.timed(train, self.graph, self.samples, self.config)
        if result is None:
            return
        self.losses.append(result.epoch_losses)
        self.record_call(start, seconds, len(self.samples) * self.config.epochs)

    def report(self) -> dict[str, tuple[float, str]]:
        return {
            "train_samples_per_s": (self.timings()[0], "1/s"),
            "train_loss": (float(np.median([l[-1] for l in self.losses])), "loss"),
        }

    def checks(self) -> list[tuple[str, bool, str]]:
        longer = self.op(train, self.graph, self.samples, replace(self.config, epochs=CHECK_EPOCHS))
        losses = longer.epoch_losses if longer is not None else []
        finite = bool(self.losses) and all(np.isfinite(l).all() for l in self.losses + [losses])
        same = all(l == self.losses[0] for l in self.losses)
        return [
            ("train_loss_finite", finite, f"{len(self.losses)} timed calls and one of {CHECK_EPOCHS} epochs"),
            ("train_loss_falls", len(losses) == CHECK_EPOCHS and losses[-1] < losses[0], f"epoch losses {losses}"),
            ("train_deterministic", same, "every timed call gives the same epoch losses"),
        ]

    def counts(self) -> dict:
        return {"train_calls": len(self.losses), "samples": len(self.samples), "epochs": self.config.epochs}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class _Checkpointed(Base):
    """Workloads that synthesize workflows with the committed control checkpoint."""

    def load_corpus_and_model(self) -> None:
        self.corpus = generate_synthetic_corpus(vocab_size=VOCAB_SIZE, n_tasks=CORPUS_TASKS, seed=0)
        self.graph = self.corpus.graph
        self.params, self.digest = load_control_params()
        self.oracle = KVOracle(OracleConfig())

    def checkpoint_checks(self) -> list[tuple[str, bool, str]]:
        f1 = mean_edge_f1(self.graph, self.params, self.corpus.samples[TRAIN_SAMPLES:])
        return [
            ("checkpoint_sha256", self.digest == CHECKPOINT_SHA256, self.digest),
            ("checkpoint_heldout_f1", f1 >= MIN_HELDOUT_F1, f"{f1:.4f} >= {MIN_HELDOUT_F1}"),
        ]


class Serve(_Checkpointed):
    """Fresh task texts, one ``run_serving_sim`` per request, one warm shared store."""

    work_unit = "request"
    min_units = 10  # 1000 requests
    traced_units = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.blocks: dict[int, Workload] = {}
        self.scores: list[float] = []
        self.hits = self.fallbacks = 0

    def setup(self) -> None:
        self.load_corpus_and_model()
        self.store = CacheStore(self.graph, "differential", oracle=self.oracle)
        warm = make_workload(
            self.corpus, n_requests=SERVE_WARM_REQUESTS, seed=derive_seed(self.seed, 4), overlap=OVERLAP
        )
        run_serving_sim(self.graph, self.params, warm, "differential", oracle=self.oracle, store=self.store)
        self.warm_bytes = self.store.memory_footprint().total_bytes

    def block(self, k: int) -> Workload:
        if k not in self.blocks:
            self.blocks[k] = serve_block(self.corpus, self.seed, k)
        return self.blocks[k]

    def run_unit(self, k: int) -> None:
        block = self.block(k)
        for i in range(len(block.requests)):
            one = single(block, i)
            report, start, seconds = self.timed(
                run_serving_sim, self.graph, self.params, one, "differential",
                oracle=self.oracle, store=self.store,
            )
            if report is None:
                continue
            self.record_call(start, seconds, 1)
            self.scores.append(report.task_score)
            self.hits += report.hits
            self.fallbacks += report.fallbacks

    def report(self) -> dict[str, tuple[float, str]]:
        return {
            **self.request_metrics(),
            "task_f1": (float(np.mean(self.scores)), "F1"),
            "store_bytes": (float(self.warm_bytes), "B"),
        }

    def checks(self) -> list[tuple[str, bool, str]]:
        block = self.block(0)
        report = self.op(
            run_serving_sim, self.graph, self.params, block, "differential",
            oracle=self.oracle, store=self.store, verify_fetches=True,
        )
        verified = report is not None and report.verified is True
        return self.checkpoint_checks() + [
            ("serve_fetch_contract", verified, f"{len(block.requests)} requests verified against the oracle"),
        ]

    def counts(self) -> dict:
        return {"requests": len(self.calls), "hits": self.hits, "fallbacks": self.fallbacks}


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


class Replay(Base):
    """Supplied chain documents against a cold differential store, then prune and round-trip."""

    work_unit = "request"
    min_units = 3  # 1500 requests; work_per_s is the median pass
    traced_units = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.docs = replay_documents(seed)
        self.stream = replay_stream(seed)
        self.texts = [f"replay {doc.id}" for doc in self.docs]
        self.store_dir = HERE / "out" / f"store-{seed}"
        self.roundtrip_s: list[float] = []
        self.bytes_cold = self.bytes_pruned = 0
        self.roundtrip_equal: list[bool] = []

    def setup(self) -> None:
        self.graph = merge_workflows(self.docs)
        self.cache = dict(zip(self.texts, self.docs))
        self.params, _ = load_control_params()
        self.oracle = KVOracle(OracleConfig())

    def request(self, doc: int) -> Workload:
        return Workload(requests=(self.texts[doc],), targets=(self.docs[doc].edges,), batch_sizes=(1,))

    def run_unit(self, k: int) -> None:
        store = CacheStore(self.graph, "differential", oracle=self.oracle)
        stats = TransitionStats(self.graph)
        for doc in self.stream:
            report, start, seconds = self.timed(
                run_serving_sim, self.graph, self.params, self.request(doc), "differential",
                oracle=self.oracle, store=store, stats=stats, workflow_cache=self.cache,
            )
            if report is None:
                continue
            self.record_call(start, seconds, 1)
        self.bytes_cold = store.memory_footprint().total_bytes
        self.op(apply_plan, store, plan_materialization(self.graph, stats, PlanPolicy()))
        self.bytes_pruned = store.memory_footprint().total_bytes
        if self.store_dir.exists():
            shutil.rmtree(self.store_dir)
        start = time.perf_counter()
        self.op(save_store, store, self.store_dir)
        loaded = self.op(load_store, self.store_dir, self.graph)
        self.roundtrip_s.append(time.perf_counter() - start)
        self.roundtrip_equal.append(loaded is not None and stores_equal(store, loaded))
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def report(self) -> dict[str, tuple[float, str]]:
        return {
            **self.request_metrics(),
            "store_bytes": (float(self.bytes_cold), "B"),
            "pruned_store_bytes": (float(self.bytes_pruned), "B"),
            "store_roundtrip_s": (float(np.median(self.roundtrip_s)), "s"),
        }

    def checks(self) -> list[tuple[str, bool, str]]:
        # Each distinct document twice against one cold store: the first
        # visit checks fallbacks bitwise, the second checks hits against the
        # energy bound.
        store = CacheStore(self.graph, "differential", oracle=self.oracle)
        distinct = sorted(set(self.stream))
        texts = tuple(self.texts[d] for d in distinct) * 2
        workload = Workload(requests=texts, targets=tuple(self.cache[t].edges for t in texts), batch_sizes=(1,))
        report = self.op(
            run_serving_sim, self.graph, self.params, workload, "differential",
            oracle=self.oracle, store=store, workflow_cache=self.cache, verify_fetches=True,
        )
        verified = report is not None and report.verified is True
        return [
            ("replay_fetch_contract", verified, f"{len(distinct)} documents, cold then warm"),
            ("store_roundtrip_bitwise", bool(self.roundtrip_equal) and all(self.roundtrip_equal),
             f"{len(self.roundtrip_equal)} save/load round trips"),
        ]

    def counts(self) -> dict:
        return {"requests": len(self.calls), "passes": len(self.roundtrip_s),
                "distinct_documents": len(set(self.stream)), "graph_ops": len(self.graph.operations)}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class Sweep(_Checkpointed):
    """The paper's offline experiment: batch-size sweep plus pruning ablation."""

    work_unit = "simulated request"
    min_units = 3
    traced_units = 2
    # A sweep call lasts a second; sampling between its serving-sim calls
    # narrowed the run-to-run spread.  In train() samples taken between
    # optimizer steps widened it, so train samples between calls only.
    sample_inside = ("opflow.harness", "run_serving_sim")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sweep_s: list[float] = []
        self.ablation_s: list[float] = []

    def setup(self) -> None:
        self.load_corpus_and_model()
        self.sweep_workload = make_workload(
            self.corpus, n_requests=SWEEP_REQUESTS, seed=self.seed, overlap=OVERLAP,
            batch_sizes=SWEEP_BATCH_SIZES,
        )
        self.ablation_workload = make_workload(
            self.corpus, n_requests=SWEEP_REQUESTS, seed=self.seed, overlap=OVERLAP,
            distribution="zipf", ensure_coverage=False,
        )

    def run_unit(self, k: int) -> None:
        sweep, start, sweep_s = self.timed(
            sweep_batch_sizes, self.graph, self.params, self.sweep_workload, oracle=self.oracle
        )
        ablation, _, ablation_s = self.timed(
            ablate_pruning, self.graph, self.params, self.ablation_workload, PlanPolicy(),
            oracle=self.oracle, verify_fetches=False,
        )
        if sweep is None or ablation is None:
            return
        self.sweep = sweep
        self.sweep_s.append(sweep_s)
        self.ablation_s.append(ablation_s)
        self.record_call(start, sweep_s + ablation_s, len(MODES) * sum(SWEEP_BATCH_SIZES) + 2 * SWEEP_REQUESTS)

    def largest(self, mode: str) -> int:
        return self.sweep.totals(mode)[-1][1]

    def report(self) -> dict[str, tuple[float, str]]:
        return {
            "store_bytes": (float(self.largest("differential")), "B"),
            "stateful_bytes": (float(self.largest("stateful")), "B"),
            "sweep_s": (float(np.median(self.sweep_s)), "s"),
            "ablation_s": (float(np.median(self.ablation_s)), "s"),
        }

    def checks(self) -> list[tuple[str, bool, str]]:
        ablation = self.op(
            ablate_pruning, self.graph, self.params, self.ablation_workload, PlanPolicy(),
            oracle=self.oracle, verify_fetches=True,
        )
        verified = ablation is not None and ablation.unpruned.verified is True and ablation.pruned.verified is True
        checks = self.checkpoint_checks() + [("ablation_verified", verified, "unpruned and pruned passes")]
        if not self.sweep_s:
            return checks + [("sweep_ran", False, "no sweep completed")]
        # The shared stores stop growing once the workload's routes are all
        # covered, so their slope stays a small fraction of the stateful one
        # (the acceptance gate's 0.25 bound for differential, applied to both).
        slope = {mode: self.sweep.slope(mode) for mode in MODES}
        flat = all(abs(slope[m]) <= 0.25 * slope["stateful"] for m in ("stateless", "differential"))
        detail = ", ".join(f"{m} {slope[m]:.0f} B/request" for m in MODES)
        return checks + [
            ("sweep_shared_modes_flat", flat, detail),
            ("sweep_stateful_steeper", slope["stateful"] > slope["differential"], detail),
        ]

    def counts(self) -> dict:
        return {"experiments": len(self.sweep_s), "requests_per_sweep": SWEEP_REQUESTS}


WORKLOADS = {"train": Train, "serve": Serve, "replay": Replay, "sweep": Sweep}

PARAMETERS = {
    "vocab_size": VOCAB_SIZE,
    "corpus_tasks": CORPUS_TASKS,
    "train_samples": TRAIN_SAMPLES,
    "train_epochs": TRAIN_EPOCHS,
    "train_check_epochs": CHECK_EPOCHS,
    "train_learning_rate": CONTROL["learning_rate"],
    "train_batch_size": CONTROL["batch_size"],
    "overlap": OVERLAP,
    "serve_warm_requests": SERVE_WARM_REQUESTS,
    "serve_block_requests": SERVE_BLOCK,
    "replay_graph_levels": REPLAY_LEVELS,
    "replay_variant_ops_per_level": REPLAY_VARIANTS,
    "replay_branching": REPLAY_BRANCHING,
    "replay_documents": REPLAY_DOCS,
    "replay_zipf_exponent": REPLAY_ZIPF,
    "replay_pass_requests": REPLAY_PASS_REQUESTS,
    "sweep_requests": SWEEP_REQUESTS,
    "sweep_batch_sizes": list(SWEEP_BATCH_SIZES),
}
