"""Command-line surface tying the pipeline together.

``_COMMANDS`` lists the subcommands (``build-graph``, ``train``,
``generate``, ``kv analyze|materialize|prune|footprint``, ``bench``) with
their keys.  ``_KEYS`` declares each key once, and its one reader checks a
value from a flag and a value from a config line alike.

Conventions, uniform across subcommands:

* exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
  failure;
* configuration precedence: command-line flags > ``--config`` file (flat
  ``key=value`` lines, ``#`` comments) > built-in defaults;
* standard output carries the command's artifact (summary line, document, or
  CSV); logging goes to standard error only, warnings by default and
  progress lines too with ``-v``;
* a command takes only the flags its handler reads: ``--seed`` belongs to
  the commands that draw random numbers, ``--out`` to those that write files;
* every command's output bytes are reproducible for fixed seed, inputs and
  BLAS thread count (``train``'s checkpoint bytes change with the thread
  count), and no command mutates its inputs — all writes land in the ``--out`` or ``--store``
  directories.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

from .construct import (
    DecodeConfig,
    TrainConfig,
    generate,
    generate_synthetic_corpus,
    load_samples,
    train,
)
from .errors import DataError, NumericError, _write_atomic
from .graph import merge_workflows, parse_graph, parse_workflow, serialize_graph, serialize_workflow
from .harness import DEFAULT_BATCH_SIZES, _csv, make_workload, sparsity_report, sweep_batch_sizes
from .kvstore import MODES, CacheStore, MemoryReport, _store_file, has_store, load_store, save_store
from .nn import _write_checkpoint, init_params, load_checkpoint
from .oracle import KVOracle, OracleConfig
from .pruning import (
    PlanPolicy,
    PlanReport,
    TransitionStats,
    apply_plan,
    plan_materialization,
    read_trace_log,
)

log = logging.getLogger("opflow")


def _choice(names: Sequence[str]) -> Callable[[str], str]:
    def read(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {text!r}")
        return text

    return read


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """A reader for integers in [low, high), or at least ``low`` without ``high``."""
    span = f">= {low}" if high is None else f"in [{low}, {high})"

    def read(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value >= high):
            raise ValueError(f"expected an integer {span}, got {value}")
        return value

    return read


def _parse_batch_sizes(text: str) -> tuple[int, ...]:
    sizes = tuple(int(part) for part in text.split(",") if part.strip())
    if not sizes:
        raise ValueError("need at least one size")
    return sizes


# Every key, read the same way from a flag or a config file: its reader
# (raising ValueError on a bad value), its built-in default (None = must be
# supplied where required) and its help text.
_KEYS: dict[str, tuple[Callable[[str], object], object, str]] = {
    "workflows": (str, None, "directory of workflow JSON documents"),
    "graph": (str, None, "operation graph JSON file"),
    "samples": (str, None, "task<TAB>workflow-id sample file"),
    "checkpoint": (str, None, "trained model checkpoint (bench: fresh init if unset)"),
    "store": (str, None, "cache-store directory"),
    "traces": (str, None, "trace log file"),
    "out": (str, ".", "output directory"),
    "seed": (_int_in(0, 2**64), 42, "global random seed"),
    "mode": (_choice(MODES), "differential", f"serving mode: {', '.join(MODES)}; kv footprint "
             "uses it only to label the all-zero row of a directory with no store"),
    "energy_target": (float, 0.95, "error bound: a hit lies within sqrt(1 - target) * ||full - base||"),
    "lam": (float, 0.8, "oracle memory decay"),
    "prune_k": (int, 2, "keep a pair if every edge on its path was seen k times"),
    "budget": (int, None, "max residual pairs to keep (hottest first)"),
    "theta_min": (float, 0.5, "edge score threshold"),
    "max_nodes": (int, None, "cap on generated workflow nodes"),
    "epochs": (int, 20, "training epochs"),
    "batch_size": (int, 64, "training batch size"),
    "learning_rate": (float, 1e-4, "AdamW learning rate"),
    "weight_decay": (float, 1e-2, "AdamW weight decay"),
    "tau": (float, 1.0, "Gumbel-sigmoid temperature"),
    "hidden_dim": (int, 256, "GCN hidden width"),
    "mlp_hidden": (int, 128, "edge MLP hidden width"),
    "pair_limit": (_int_in(1), 64, "graph edges to analyze"),
    "vocab_size": (int, 20, "synthetic corpus vocabulary"),
    "n_requests": (int, 50, "requests in the workload"),
    "overlap": (float, 0.5, "fraction of routes each task mentions"),
    "distribution": (_choice(("uniform", "zipf")), "uniform", "route popularity: uniform, zipf"),
    "batch_sizes": (_parse_batch_sizes, DEFAULT_BATCH_SIZES, "comma-separated, e.g. 10,20,30"),
}

# Every command: its help text and the keys it takes as flags besides
# --config and -v, each one its handler reads.  A None key list makes a
# command group.  --task alone is a flag and no config key.
_COMMANDS: tuple[tuple[str, str, tuple[str, ...] | None], ...] = (
    ("build-graph", "merge workflow documents into the operation graph", ("workflows", "out")),
    ("train", "fit the edge scorer on task/workflow samples", (
        "graph", "workflows", "samples", "epochs", "batch_size", "learning_rate",
        "weight_decay", "tau", "hidden_dim", "mlp_hidden", "seed", "out",
    )),
    ("generate", "synthesize a workflow document for a task",
     ("graph", "checkpoint", "task", "theta_min", "max_nodes")),
    ("kv", "cache-store operations", None),
    ("kv analyze", "per-pair KV difference sparsity CSVs", ("graph", "lam", "pair_limit", "seed", "out")),
    ("kv materialize", "build a store from a trace log",
     ("graph", "traces", "store", "mode", "energy_target", "lam", "seed")),
    ("kv prune", "drop residuals off the planned hot set",
     ("graph", "store", "traces", "prune_k", "budget", "out")),
    ("kv footprint", "store memory accounting CSV", ("graph", "store", "mode", "out")),
    ("bench", "serving-mode benchmark CSVs", (
        "checkpoint", "vocab_size", "n_requests", "overlap", "distribution",
        "batch_sizes", "energy_target", "lam", "seed", "out",
    )),
)


class UsageError(Exception):
    """Bad invocation: unknown flag/key, bad or missing value."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract says 1."""

    def error(self, message):  # noqa: A002 - argparse API
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag(key: str) -> str:
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key == "lambda":
            key = "lam"
        if key not in _KEYS:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(args: argparse.Namespace, file_values: Mapping[str, str]) -> SimpleNamespace:
    """Merge flags > config file > defaults into one namespace, reading a
    flag string and a config value with the same reader."""
    resolved: dict[str, object] = {}
    for key, (read, default, _) in _KEYS.items():
        flag = getattr(args, key, None)
        text = flag if flag is not None else file_values.get(key)
        try:
            resolved[key] = default if text is None else read(text)
        except ValueError as exc:
            source = _flag(key) if flag is not None else f"config key {key}"
            raise UsageError(f"{source}: {exc}") from exc
    resolved["task"] = getattr(args, "task", None)
    return SimpleNamespace(**resolved)


def _require(cfg: SimpleNamespace, key: str) -> str:
    value = getattr(cfg, key)
    if value is None:
        raise UsageError(f"missing required {_flag(key)} (flag or config key)")
    return value


def _format_rate(value: float) -> str:
    """Compact float: '1e-4' for 0.0001, plain decimal otherwise."""
    decimal = f"{value:g}"
    mantissa, _, exponent = f"{value:e}".partition("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    scientific = f"{mantissa}e{int(exponent)}"
    return scientific if len(scientific) <= len(decimal) else decimal


def _out_dir(cfg: SimpleNamespace) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_graph(cfg: SimpleNamespace):
    return parse_graph(_read_text(_require(cfg, "graph")))


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _load_workflow_dir(directory: str):
    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"{directory}: not a directory")
    workflows = []
    for path in sorted(root.glob("*.json")):
        text = _read_text(path)
        try:
            workflows.append(parse_workflow(text))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
    return workflows


def _oracle(cfg: SimpleNamespace) -> KVOracle:
    return KVOracle(OracleConfig(lam=cfg.lam, seed=cfg.seed))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_graph(cfg: SimpleNamespace) -> int:
    workflows = _load_workflow_dir(_require(cfg, "workflows"))
    graph = merge_workflows(workflows)
    out = _out_dir(cfg) / "graph.json"
    _write_atomic({out: lambda fh: fh.write(serialize_graph(graph).encode("utf-8"))})
    merged = sum(len(sources) - 1 for sources in graph.merged_from.values())
    log.info("graph written to %s", out)
    print(f"{len(graph.node_ids)} nodes, {len(graph.edge_list)} edges, {merged} merged")
    return 0


def cmd_train(cfg: SimpleNamespace) -> int:
    graph = _load_graph(cfg)
    workflows = {w.id: w for w in _load_workflow_dir(_require(cfg, "workflows"))}
    samples = load_samples(_require(cfg, "samples"), workflows)
    config = TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})
    print(
        f"epochs={config.epochs} batch={config.batch_size} "
        f"lr={_format_rate(config.learning_rate)} wd={_format_rate(config.weight_decay)}"
    )
    result = train(graph, samples, config)
    out = _out_dir(cfg)
    rows = "".join(f"{i},{loss!r}\n" for i, loss in enumerate(result.epoch_losses))
    _write_atomic({
        out / "checkpoint.bin": lambda fh: _write_checkpoint(fh, result.params, cfg.seed),
        out / "train_loss.csv": lambda fh: fh.write(("epoch,mean_loss\n" + rows).encode("utf-8")),
    })
    log.info("checkpoint and loss curve written to %s", out)
    return 0


def cmd_generate(cfg: SimpleNamespace) -> int:
    graph = _load_graph(cfg)
    params, _ = load_checkpoint(_require(cfg, "checkpoint"))
    if cfg.task is None:
        raise UsageError("missing required --task")
    decode = DecodeConfig(theta_min=cfg.theta_min, max_nodes=cfg.max_nodes)
    workflow = generate(graph, params, cfg.task, decode)
    log.info("generated %d nodes and %d edges", len(workflow.nodes), len(workflow.edges))
    sys.stdout.write(serialize_workflow(workflow))
    return 0


def cmd_kv_analyze(cfg: SimpleNamespace) -> int:
    graph = _load_graph(cfg)
    pairs = [
        (graph.operations[src].instruction, graph.operations[dst].instruction)
        for src, dst in graph.edge_list[: cfg.pair_limit]
    ]
    if not pairs:
        raise DataError("graph has no edges to analyze")
    report = sparsity_report(OracleConfig(lam=cfg.lam, seed=cfg.seed), pairs)
    return _write_csvs(_out_dir(cfg), {
        "sparsity_pairs.csv": report.pairs_csv(),
        "sparsity_layers.csv": report.layers_csv(),
        "sparsity_heatmap.csv": report.heatmap_csv(),
    })


def _write_csvs(out: Path, texts: dict[str, str]) -> int:
    """Write the named files into ``out``, all or none, and print their paths."""
    data = {out / name: text.encode("utf-8") for name, text in texts.items()}
    _write_atomic({path: lambda fh, raw=raw: fh.write(raw) for path, raw in data.items()})
    for path in data:
        print(path)
    log.info("%s written to %s", ", ".join(texts), out)
    return 0


def cmd_kv_materialize(cfg: SimpleNamespace) -> int:
    graph = _load_graph(cfg)
    traces = read_trace_log(_require(cfg, "traces"))
    store = CacheStore(graph, cfg.mode, oracle=_oracle(cfg), energy_target=cfg.energy_target)
    # Each distinct pair once, in first-seen order: a repeat would only fetch
    # what the store already holds.
    pairs = dict.fromkeys((tuple(trace[:i]), op_id) for _, trace in traces for i, op_id in enumerate(trace))
    for path, op_id in pairs:
        _, result = store.fetch(path, op_id)
        if result.flag == "fallback" and cfg.mode == "differential":
            store.insert_residual(path, op_id)
    save_store(store, _require(cfg, "store"))
    m = store.memory_footprint()
    log.info("store written to %s", cfg.store)
    print(
        f"bases={m.n_bases} residuals={m.n_residuals} fulls={m.n_fulls} "
        f"total_bytes={m.total_bytes}"
    )
    return 0


def cmd_kv_prune(cfg: SimpleNamespace) -> int:
    graph = _load_graph(cfg)
    store = load_store(_require(cfg, "store"), graph)
    stats = TransitionStats(graph)
    for _, trace in read_trace_log(_require(cfg, "traces")):
        stats.record(trace)
    policy = PlanPolicy(k=cfg.prune_k, budget=cfg.budget)
    plan = plan_materialization(graph, stats, policy)
    report = apply_plan(store, plan)
    out = _out_dir(cfg)
    counters = [f.name for f in fields(PlanReport) if f.name != "rows"]
    store_path, write_store = _store_file(store, cfg.store)
    _write_atomic({
        store_path: write_store,
        out / "prune_report.csv": lambda fh: fh.write(report.to_csv().encode("utf-8")),
        out / "prune_summary.csv": lambda fh: fh.write(_csv(counters, [report]).encode("utf-8")),
    })
    log.info("store written to %s, prune reports to %s", cfg.store, out)
    print(f"bytes_before={report.bytes_before} bytes_after={report.bytes_after} "
          f"dropped={report.dropped}")
    return 0


def cmd_kv_footprint(cfg: SimpleNamespace) -> int:
    store_dir = _require(cfg, "store")
    if has_store(store_dir):
        m = load_store(store_dir, _load_graph(cfg)).memory_footprint()
    else:
        # A directory holding no store, or none at all, has an all-zero footprint.
        m = MemoryReport(cfg.mode, 0, 0, 0, 0, 0, 0)
    csv_text = _csv([f.name for f in fields(MemoryReport)] + ["total_bytes"], [m])
    path = _out_dir(cfg) / "footprint.csv"
    _write_atomic({path: lambda fh: fh.write(csv_text.encode("utf-8"))})
    log.info("footprint written to %s", path)
    sys.stdout.write(csv_text)
    return 0


def cmd_bench(cfg: SimpleNamespace) -> int:
    corpus = generate_synthetic_corpus(vocab_size=cfg.vocab_size, n_tasks=1, seed=cfg.seed)
    if cfg.checkpoint is not None:
        params, _ = load_checkpoint(cfg.checkpoint)
    else:
        params = init_params(seed=cfg.seed)
    workload = make_workload(
        corpus,
        n_requests=cfg.n_requests,
        seed=cfg.seed,
        overlap=cfg.overlap,
        distribution=cfg.distribution,
        batch_sizes=cfg.batch_sizes,
    )
    sweep = sweep_batch_sizes(
        corpus.graph, params, workload, oracle=_oracle(cfg), energy_target=cfg.energy_target
    )
    return _write_csvs(_out_dir(cfg), {
        "bench_tradeoff.csv": sweep.tradeoff_csv(),
        "bench_memory_sweep.csv": sweep.to_csv(),
        "bench_cost_sweep.csv": sweep.cost_csv(),
    })


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    """One subparser per ``_COMMANDS`` row, every value left a string for
    :func:`resolve_config` to read."""
    parser = _Parser(prog="opflow", description=__doc__.splitlines()[0])
    groups = {"": parser.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    for name, help_text, keys in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help_text)
        if keys is None:
            groups[name] = p.add_subparsers(
                dest=f"{name}_command", required=True, parser_class=_Parser
            )
            continue
        p.add_argument("--config", help="flat key=value configuration file")
        for key in keys:
            _, default, key_help = _KEYS.get(key, (None, None, "task text to condition on"))
            if default is not None:
                key_help = f"{key_help} (default {default})"
            p.add_argument(_flag(key), dest=key, help=key_help)
        p.add_argument("-v", dest="verbose", action="store_true", help="log progress to stderr")
        # Looked up as the parser is built, so a handler replaced on the module runs.
        p.set_defaults(handler=globals()["cmd_" + name.replace("-", "_").replace(" ", "_")])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg = resolve_config(args, file_values)
        return args.handler(cfg)
    except UsageError as exc:
        print(f"opflow: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"opflow: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"opflow: numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
