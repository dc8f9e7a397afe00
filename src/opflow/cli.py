"""Command-line surface tying the pipeline together.

Subcommands: ``build-graph`` (merge workflow documents into the operation
graph), ``train`` (fit the edge scorer), ``generate`` (synthesize a workflow
for a task), ``kv analyze|materialize|prune|footprint`` (cache-store
operations), ``bench`` (serving-mode benchmark CSVs).

Conventions, uniform across subcommands:

* exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
  failure;
* configuration precedence: command-line flags > ``--config`` file (flat
  ``key=value`` lines, ``#`` comments) > built-in defaults;
* standard output carries the command's artifact (summary line, document, or
  CSV); logging goes to standard error only;
* every command is deterministic for fixed seed and inputs, and no command
  mutates its inputs — all writes land in the ``--out`` or ``--store``
  directories.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Mapping

from .errors import DataError, NumericError

log = logging.getLogger("opflow")

# Every config key: how a config-file value is read, and its built-in default
# (None = must be supplied by flag or config file where required).
_KEYS: dict[str, tuple[Callable[[str], object], object]] = {
    # paths
    "workflows": (str, None),
    "graph": (str, None),
    "samples": (str, None),
    "checkpoint": (str, None),
    "store": (str, None),
    "traces": (str, None),
    "out": (str, "."),
    # global knobs
    "seed": (int, 42),
    "mode": (str, "differential"),
    "energy_target": (float, 0.95),
    "lam": (float, 0.8),
    "prune_k": (int, 2),
    "budget": (int, None),
    # decoding
    "theta_min": (float, 0.5),
    "max_nodes": (int, None),
    # training
    "epochs": (int, 20),
    "batch_size": (int, 64),
    "learning_rate": (float, 1e-4),
    "weight_decay": (float, 1e-2),
    "tau": (float, 1.0),
    "hidden_dim": (int, 256),
    "mlp_hidden": (int, 128),
    # analysis / benchmark
    "pair_limit": (int, 64),
    "vocab_size": (int, 20),
    "n_requests": (int, 50),
    "overlap": (float, 0.5),
    "distribution": (str, "uniform"),
    "batch_sizes": (str, "10,20,30,40,50"),
}


class UsageError(Exception):
    """Bad invocation: unknown flag/key, missing required value."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract says 1."""

    def error(self, message):  # noqa: A002 - argparse API
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
    """Merge flags > config file > defaults into one namespace."""
    resolved: dict[str, object] = {}
    for key, (coerce, default) in _KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            try:
                resolved[key] = coerce(file_values[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from exc
        else:
            resolved[key] = default
    resolved["task"] = getattr(args, "task", None)
    return SimpleNamespace(**resolved)


def _require(cfg: SimpleNamespace, key: str) -> str:
    value = getattr(cfg, key)
    if value is None:
        flag = "--" + key.replace("_", "-")
        raise UsageError(f"missing required {flag} (flag or config key)")
    return value


def _parse_batch_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"--batch-sizes: {exc}") from exc
    if not sizes:
        raise UsageError("--batch-sizes: need at least one size")
    return sizes


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
    from .graph import parse_graph

    path = _require(cfg, "graph")
    return parse_graph(_read_text(path))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _load_workflow_dir(directory: str):
    from .graph import parse_workflow

    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"{directory}: not a directory")
    workflows = []
    for path in sorted(root.glob("*.json")):
        try:
            workflows.append(parse_workflow(path.read_text()))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
    return workflows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_graph(cfg: SimpleNamespace) -> int:
    from .graph import merge_workflows, serialize_graph

    workflows = _load_workflow_dir(_require(cfg, "workflows"))
    graph = merge_workflows(workflows)
    out = _out_dir(cfg) / "graph.json"
    out.write_text(serialize_graph(graph))
    merged = sum(len(sources) - 1 for sources in graph.merged_from.values())
    log.info("graph written to %s", out)
    print(f"{len(graph.node_ids)} nodes, {len(graph.edge_list)} edges, {merged} merged")
    return 0


def cmd_train(cfg: SimpleNamespace) -> int:
    from .construct import TrainConfig, load_samples, train
    from .nn import save_checkpoint

    graph = _load_graph(cfg)
    workflows = {w.id: w for w in _load_workflow_dir(_require(cfg, "workflows"))}
    samples = load_samples(_require(cfg, "samples"), workflows)
    config = TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        tau=cfg.tau,
        hidden_dim=cfg.hidden_dim,
        mlp_hidden=cfg.mlp_hidden,
        seed=cfg.seed,
    )
    print(
        f"epochs={config.epochs} batch={config.batch_size} "
        f"lr={_format_rate(config.learning_rate)} wd={_format_rate(config.weight_decay)}"
    )
    result = train(graph, samples, config)
    out = _out_dir(cfg)
    save_checkpoint(out / "checkpoint.bin", result.params, cfg.seed)
    rows = "".join(f"{i},{loss!r}\n" for i, loss in enumerate(result.epoch_losses))
    (out / "train_loss.csv").write_text("epoch,mean_loss\n" + rows)
    log.info("checkpoint and loss curve written to %s", out)
    return 0


def cmd_generate(cfg: SimpleNamespace) -> int:
    from .construct import DecodeConfig, generate
    from .graph import serialize_workflow
    from .nn import load_checkpoint

    graph = _load_graph(cfg)
    params, _ = load_checkpoint(_require(cfg, "checkpoint"))
    if cfg.task is None:
        raise UsageError("missing required --task")
    decode = DecodeConfig(theta_min=cfg.theta_min, max_nodes=cfg.max_nodes)
    workflow = generate(graph, params, cfg.task, decode)
    sys.stdout.write(serialize_workflow(workflow))
    return 0


def cmd_kv_analyze(cfg: SimpleNamespace) -> int:
    from .harness import sparsity_report
    from .oracle import OracleConfig

    graph = _load_graph(cfg)
    pairs = [
        (graph.operations[src].instruction, graph.operations[dst].instruction)
        for src, dst in graph.edge_list[: cfg.pair_limit]
    ]
    if not pairs:
        raise DataError("graph has no edges to analyze")
    report = sparsity_report(OracleConfig(lam=cfg.lam, seed=cfg.seed), pairs)
    out = _out_dir(cfg)
    written = {
        out / "sparsity_pairs.csv": report.pairs_csv(),
        out / "sparsity_layers.csv": report.layers_csv(),
        out / "sparsity_heatmap.csv": report.heatmap_csv(),
    }
    for path, text in written.items():
        path.write_text(text)
        print(path)
    return 0


def _oracle(cfg: SimpleNamespace):
    from .oracle import KVOracle, OracleConfig

    return KVOracle(OracleConfig(lam=cfg.lam, seed=cfg.seed))


def cmd_kv_materialize(cfg: SimpleNamespace) -> int:
    from .kvstore import CacheStore, save_store
    from .pruning import read_trace_log

    graph = _load_graph(cfg)
    traces = read_trace_log(_require(cfg, "traces"))
    store = CacheStore(graph, cfg.mode, oracle=_oracle(cfg), energy_target=cfg.energy_target)
    for _, trace in traces:
        for i, op_id in enumerate(trace):
            path = tuple(trace[:i])
            if cfg.mode == "differential" and path:
                if (path, op_id) not in store.residuals:
                    store.insert_residual(path, op_id)
            else:
                store.fetch(path, op_id)
    save_store(store, _require(cfg, "store"))
    m = store.memory_footprint()
    log.info("store written to %s", cfg.store)
    print(
        f"bases={m.n_bases} residuals={m.n_residuals} fulls={m.n_fulls} "
        f"total_bytes={m.total_bytes}"
    )
    return 0


def cmd_kv_prune(cfg: SimpleNamespace) -> int:
    from .kvstore import load_store, save_store
    from .pruning import (
        PlanPolicy,
        TransitionStats,
        apply_plan,
        plan_materialization,
        read_trace_log,
    )

    graph = _load_graph(cfg)
    store = load_store(_require(cfg, "store"), graph)
    stats = TransitionStats(graph)
    for _, trace in read_trace_log(_require(cfg, "traces")):
        stats.record(trace)
    policy = PlanPolicy(k=cfg.prune_k, budget=cfg.budget)
    plan = plan_materialization(graph, stats, policy)
    report = apply_plan(store, plan)
    save_store(store, cfg.store)
    out = _out_dir(cfg)
    (out / "prune_report.csv").write_text(report.to_csv())
    summary = (
        "bytes_before,bytes_after,residual_bytes_before,residual_bytes_after,"
        "inserted,kept,dropped\n"
        f"{report.bytes_before},{report.bytes_after},{report.residual_bytes_before},"
        f"{report.residual_bytes_after},{report.inserted},{report.kept},{report.dropped}\n"
    )
    (out / "prune_summary.csv").write_text(summary)
    print(f"bytes_before={report.bytes_before} bytes_after={report.bytes_after} "
          f"dropped={report.dropped}")
    return 0


def cmd_kv_footprint(cfg: SimpleNamespace) -> int:
    from .kvstore import load_store, store_root

    store_dir = _require(cfg, "store")
    header = (
        "mode,bases_bytes,residuals_bytes,fulls_bytes,"
        "n_bases,n_residuals,n_fulls,total_bytes"
    )
    if store_root(store_dir) is None:
        # An empty (or not yet created) store has an all-zero footprint.
        row = f"{cfg.mode},0,0,0,0,0,0,0"
    else:
        graph = _load_graph(cfg)
        m = load_store(store_dir, graph).memory_footprint()
        row = (
            f"{m.mode},{m.bases_bytes},{m.residuals_bytes},{m.fulls_bytes},"
            f"{m.n_bases},{m.n_residuals},{m.n_fulls},{m.total_bytes}"
        )
    csv_text = f"{header}\n{row}\n"
    (_out_dir(cfg) / "footprint.csv").write_text(csv_text)
    sys.stdout.write(csv_text)
    return 0


def cmd_bench(cfg: SimpleNamespace) -> int:
    from .construct import generate_synthetic_corpus
    from .harness import make_workload, sweep_batch_sizes
    from .nn import init_params, load_checkpoint

    batch_sizes = _parse_batch_sizes(cfg.batch_sizes)
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
        batch_sizes=batch_sizes,
    )
    sweep = sweep_batch_sizes(
        corpus.graph, params, workload, oracle=_oracle(cfg), energy_target=cfg.energy_target
    )

    out = _out_dir(cfg)
    written = {
        out / "bench_tradeoff.csv": sweep.tradeoff_csv(),
        out / "bench_memory_sweep.csv": sweep.to_csv(),
        out / "bench_cost_sweep.csv": sweep.cost_csv(),
    }
    for path, text in written.items():
        path.write_text(text)
        print(path)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", type=int, help="global random seed (default 42)")
    parser.add_argument("--out", help="output directory (default '.')")


def build_parser() -> _Parser:
    parser = _Parser(prog="opflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build-graph", help="merge workflow documents into the operation graph")
    _add_common(p)
    p.add_argument("--workflows", help="directory of workflow JSON documents")
    p.set_defaults(handler=cmd_build_graph)

    p = sub.add_parser("train", help="fit the edge scorer on task/workflow samples")
    _add_common(p)
    p.add_argument("--graph", help="operation graph JSON file")
    p.add_argument("--workflows", help="directory of target workflow documents")
    p.add_argument("--samples", help="task<TAB>workflow-id sample file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--tau", type=float)
    p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    p.add_argument("--mlp-hidden", type=int, dest="mlp_hidden")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("generate", help="synthesize a workflow document for a task")
    _add_common(p)
    p.add_argument("--graph", help="operation graph JSON file")
    p.add_argument("--checkpoint", help="trained model checkpoint")
    p.add_argument("--task", help="task text to condition on")
    p.add_argument("--theta-min", type=float, dest="theta_min")
    p.add_argument("--max-nodes", type=int, dest="max_nodes")
    p.set_defaults(handler=cmd_generate)

    kv = sub.add_parser("kv", help="cache-store operations")
    kv_sub = kv.add_subparsers(dest="kv_command", required=True, parser_class=_Parser)

    p = kv_sub.add_parser("analyze", help="per-pair KV difference sparsity CSVs")
    _add_common(p)
    p.add_argument("--graph")
    p.add_argument("--lambda", type=float, dest="lam", help="oracle memory decay")
    p.add_argument("--pair-limit", type=int, dest="pair_limit")
    p.set_defaults(handler=cmd_kv_analyze)

    p = kv_sub.add_parser("materialize", help="build a store from a trace log")
    _add_common(p)
    p.add_argument("--graph")
    p.add_argument("--traces", help="trace log file")
    p.add_argument("--store", help="store directory to write")
    p.add_argument("--mode", choices=("stateful", "differential", "stateless"))
    p.add_argument("--energy-target", type=float, dest="energy_target")
    p.add_argument("--lambda", type=float, dest="lam")
    p.set_defaults(handler=cmd_kv_materialize)

    p = kv_sub.add_parser("prune", help="drop residuals off the planned hot set")
    _add_common(p)
    p.add_argument("--graph")
    p.add_argument("--store", help="store directory to prune in place")
    p.add_argument("--traces", help="trace log file")
    p.add_argument("--prune-k", type=int, dest="prune_k")
    p.add_argument("--budget", type=int, help="max residual pairs to keep (hottest first)")
    p.set_defaults(handler=cmd_kv_prune)

    p = kv_sub.add_parser("footprint", help="store memory accounting CSV")
    _add_common(p)
    p.add_argument("--graph")
    p.add_argument("--store", help="store directory to measure")
    p.add_argument("--mode", choices=("stateful", "differential", "stateless"))
    p.set_defaults(handler=cmd_kv_footprint)

    p = sub.add_parser("bench", help="serving-mode benchmark CSVs")
    _add_common(p)
    p.add_argument("--checkpoint", help="trained checkpoint (default: fresh init)")
    p.add_argument("--vocab-size", type=int, dest="vocab_size")
    p.add_argument("--n-requests", type=int, dest="n_requests")
    p.add_argument("--overlap", type=float)
    p.add_argument("--distribution", choices=("uniform", "zipf"))
    p.add_argument("--batch-sizes", dest="batch_sizes", help="comma-separated, e.g. 10,20,30")
    p.add_argument("--energy-target", type=float, dest="energy_target")
    p.add_argument("--lambda", type=float, dest="lam")
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg = resolve_config(args, file_values)
        return args.handler(cfg)
    except UsageError as exc:
        print(f"opflow: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"opflow: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"opflow: numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"opflow: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
