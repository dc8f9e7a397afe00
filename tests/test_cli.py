"""Tests for the command-line interface.

Most tests drive ``opflow.cli.main`` in-process for speed and capture stdout
with capsys; byte-determinism checks compare the files a rerun writes.  One
subprocess test proves the module entry point works end to end.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opflow.cli as cli
from opflow.cli import main
from opflow.construct import generate_synthetic_corpus, save_samples
from opflow.errors import DataError, NumericError
from opflow.graph import parse_graph, parse_workflow, serialize_workflow
from opflow.nn import init_params, load_checkpoint, save_checkpoint
from opflow.pruning import write_trace_log

from conftest import crash_after_rename


@pytest.fixture(scope="session")
def cli_project(tmp_path_factory):
    """A small ready-made project: workflow docs, samples, traces, graph,
    and a one-epoch checkpoint, all built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli_project")
    corpus = generate_synthetic_corpus(vocab_size=8, n_tasks=20, seed=0)

    wfdir = root / "workflows"
    wfdir.mkdir()
    targets = {s.workflow.id: s.workflow for s in corpus.samples}
    for wf_id, workflow in sorted(targets.items()):
        (wfdir / f"{wf_id}.json").write_text(serialize_workflow(workflow))
    save_samples(root / "samples.tsv", list(corpus.samples))

    traces = []
    for r in range(corpus.n_routes):
        chain = [corpus.entry_id, *corpus.route_chains[r]]
        traces.append((f"T{r}", chain))
    traces.append(("T0_again", [corpus.entry_id, *corpus.route_chains[0]]))
    write_trace_log(root / "traces.log", traces)

    assert main(["build-graph", "--workflows", str(wfdir), "--out", str(root)]) == 0
    assert main([
        "train",
        "--graph", str(root / "graph.json"),
        "--workflows", str(wfdir),
        "--samples", str(root / "samples.tsv"),
        "--epochs", "1", "--batch-size", "8",
        "--out", str(root),
    ]) == 0
    return root, corpus


# ---------------------------------------------------------------------------
# build-graph
# ---------------------------------------------------------------------------


class TestBuildGraph:
    def test_summary_counts_nodes_edges_merged(self, cli_project, tmp_path, capsys):
        root, corpus = cli_project
        capsys.readouterr()
        assert main(["build-graph", "--workflows", str(root / "workflows"),
                     "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.strip()
        n = len(corpus.graph.node_ids)
        m = len(corpus.graph.edge_list)
        assert line.startswith(f"{n} nodes, {m} edges, ")
        assert line.endswith(" merged")

    def test_graph_file_round_trips(self, cli_project, tmp_path):
        root, corpus = cli_project
        assert main(["build-graph", "--workflows", str(root / "workflows"),
                     "--out", str(tmp_path)]) == 0
        graph = parse_graph((tmp_path / "graph.json").read_text())
        assert graph.node_ids == corpus.graph.node_ids
        assert graph.edge_list == corpus.graph.edge_list

    def test_empty_directory_succeeds_with_zeros(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["build-graph", "--workflows", str(empty),
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == "0 nodes, 0 edges, 0 merged\n"

    def test_missing_directory_is_data_error(self, tmp_path):
        assert main(["build-graph", "--workflows", str(tmp_path / "nope"),
                     "--out", str(tmp_path)]) == 2

    def test_broken_document_reports_filename(self, tmp_path, capsys):
        wfdir = tmp_path / "wf"
        wfdir.mkdir()
        (wfdir / "bad.json").write_text("{not json")
        assert main(["build-graph", "--workflows", str(wfdir),
                     "--out", str(tmp_path)]) == 2
        assert "bad.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class TestTrain:
    def test_echo_line_matches_pinned_format(self, cli_project, tmp_path, capsys):
        root, _ = cli_project
        capsys.readouterr()
        assert main([
            "train",
            "--graph", str(root / "graph.json"),
            "--workflows", str(root / "workflows"),
            "--samples", str(root / "samples.tsv"),
            "--epochs", "2", "--batch-size", "8",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out == "epochs=2 batch=8 lr=1e-4 wd=1e-2\n"

    def test_writes_checkpoint_and_loss_csv(self, cli_project):
        root, _ = cli_project
        assert (root / "checkpoint.bin").is_file()
        lines = (root / "train_loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 2  # one epoch in the fixture
        assert lines[1].startswith("0,")

    def test_zero_epochs_checkpoint_equals_initialization(self, cli_project, tmp_path):
        root, _ = cli_project
        assert main([
            "train",
            "--graph", str(root / "graph.json"),
            "--workflows", str(root / "workflows"),
            "--samples", str(root / "samples.tsv"),
            "--epochs", "0", "--seed", "7",
            "--out", str(tmp_path),
        ]) == 0
        params, seed = load_checkpoint(tmp_path / "checkpoint.bin")
        assert seed == 7
        reference = init_params(seed=7)
        assert np.array_equal(params.gcn_w1, reference.gcn_w1)
        assert np.array_equal(params.mlp_w3, reference.mlp_w3)
        assert (tmp_path / "train_loss.csv").read_text() == "epoch,mean_loss\n"

    def test_rerun_writes_identical_bytes(self, cli_project, tmp_path):
        root, _ = cli_project
        args = [
            "train",
            "--graph", str(root / "graph.json"),
            "--workflows", str(root / "workflows"),
            "--samples", str(root / "samples.tsv"),
            "--epochs", "2", "--batch-size", "8", "--seed", "3",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        assert (a / "train_loss.csv").read_bytes() == (b / "train_loss.csv").read_bytes()

    def test_missing_samples_flag_is_usage_error(self, cli_project, tmp_path):
        root, _ = cli_project
        assert main([
            "train",
            "--graph", str(root / "graph.json"),
            "--workflows", str(root / "workflows"),
            "--out", str(tmp_path),
        ]) == 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_emits_parseable_workflow_document(self, cli_project, capsys):
        root, _ = cli_project
        capsys.readouterr()
        assert main([
            "generate",
            "--graph", str(root / "graph.json"),
            "--checkpoint", str(root / "checkpoint.bin"),
            "--task", "Complete the ledger summary for this quarter",
        ]) == 0
        document = capsys.readouterr().out
        workflow = parse_workflow(document)
        assert workflow.id.startswith("WF_GEN_")
        assert workflow.description == "Complete the ledger summary for this quarter"

    def test_high_threshold_gives_zero_edge_document(self, cli_project, capsys):
        root, corpus = cli_project
        capsys.readouterr()
        assert main([
            "generate",
            "--graph", str(root / "graph.json"),
            "--checkpoint", str(root / "checkpoint.bin"),
            "--task", "anything at all",
            "--theta-min", "0.99",
        ]) == 0
        workflow = parse_workflow(capsys.readouterr().out)
        assert workflow.edges == ()
        assert list(workflow.nodes) == corpus.graph.entry_ops()

    def test_invalid_checkpoint_is_data_error_with_diagnostic(self, cli_project, capsys):
        root, _ = cli_project
        capsys.readouterr()
        assert main([
            "generate",
            "--graph", str(root / "graph.json"),
            "--checkpoint", str(root / "samples.tsv"),
            "--task", "x",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_checkpoint_of_another_width_is_data_error(self, cli_project, tmp_path, capsys):
        root, _ = cli_project
        checkpoint = tmp_path / "narrow.bin"
        save_checkpoint(checkpoint, init_params(dim_in=64), 0)
        for args in (
            ["generate", "--graph", str(root / "graph.json"), "--task", "x"],
            TestBench.ARGS + ["--out", str(tmp_path)],
        ):
            capsys.readouterr()
            assert main(args + ["--checkpoint", str(checkpoint)]) == 2
            err = capsys.readouterr().err
            assert "data error" in err and "64" in err and "384" in err

    def test_missing_task_is_usage_error(self, cli_project):
        root, _ = cli_project
        assert main([
            "generate",
            "--graph", str(root / "graph.json"),
            "--checkpoint", str(root / "checkpoint.bin"),
        ]) == 1


# ---------------------------------------------------------------------------
# kv subcommands
# ---------------------------------------------------------------------------


class TestKvAnalyze:
    def test_writes_three_csvs(self, cli_project, tmp_path, capsys):
        root, _ = cli_project
        capsys.readouterr()
        assert main([
            "kv", "analyze",
            "--graph", str(root / "graph.json"),
            "--out", str(tmp_path), "--pair-limit", "4",
        ]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        pairs = (tmp_path / "sparsity_pairs.csv").read_text().splitlines()
        assert pairs[2].startswith("pair_index,")
        assert len(pairs) == 3 + 4
        layers = (tmp_path / "sparsity_layers.csv").read_text().splitlines()
        assert layers[0] == "pair_index,layer,frobenius_delta,frac_below_threshold"
        heatmap = (tmp_path / "sparsity_heatmap.csv").read_text().splitlines()
        assert heatmap[0] == "layer,head,mean_abs_delta,mean_frac_below_threshold"
        assert len(heatmap) == 1 + 16

    def test_rerun_is_byte_identical(self, cli_project, tmp_path):
        root, _ = cli_project
        for sub in ("a", "b"):
            assert main([
                "kv", "analyze",
                "--graph", str(root / "graph.json"),
                "--out", str(tmp_path / sub), "--pair-limit", "4",
            ]) == 0
        for name in ("sparsity_pairs.csv", "sparsity_layers.csv", "sparsity_heatmap.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestKvStoreCommands:
    def materialize(self, root, store, mode="differential"):
        return main([
            "kv", "materialize",
            "--graph", str(root / "graph.json"),
            "--traces", str(root / "traces.log"),
            "--store", str(store), "--mode", mode,
        ])

    def test_materialize_then_footprint(self, cli_project, tmp_path, capsys):
        root, _ = cli_project
        store = tmp_path / "store"
        assert self.materialize(root, store) == 0
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("bases=")
        assert main([
            "kv", "footprint",
            "--graph", str(root / "graph.json"),
            "--store", str(store), "--out", str(tmp_path),
        ]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0] == (
            "mode,bases_bytes,residuals_bytes,fulls_bytes,"
            "n_bases,n_residuals,n_fulls,total_bytes"
        )
        row = csv_text.splitlines()[1].split(",")
        assert row[0] == "differential"
        assert int(row[4]) > 0 and int(row[5]) > 0
        assert (tmp_path / "footprint.csv").read_text() == csv_text

    def test_footprint_reads_store_left_by_crashed_save(
        self, cli_project, tmp_path, capsys, monkeypatch
    ):
        from opflow.kvstore import load_store, save_store

        root, _ = cli_project
        store = tmp_path / "store"
        assert self.materialize(root, store) == 0
        footprint = [
            "kv", "footprint", "--graph", str(root / "graph.json"),
            "--store", str(store), "--out", str(tmp_path),
        ]
        capsys.readouterr()
        assert main(footprint) == 0
        before = capsys.readouterr().out
        loaded = load_store(store, parse_graph((root / "graph.json").read_text()))
        loaded.drop_residual(*next(iter(loaded.residuals)))
        crash_after_rename(monkeypatch, 1)
        with pytest.raises(OSError):
            save_store(loaded, store)
        monkeypatch.undo()
        assert main(footprint) == 0
        assert capsys.readouterr().out == before
        assert int(before.splitlines()[1].split(",")[-1]) > 0

    def test_footprint_on_empty_store_is_zero_row(self, tmp_path, capsys):
        assert main([
            "kv", "footprint",
            "--store", str(tmp_path / "missing"), "--out", str(tmp_path),
        ]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == "differential,0,0,0,0,0,0,0"

    def test_materialize_is_byte_deterministic(self, cli_project, tmp_path):
        root, _ = cli_project
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.materialize(root, a) == 0
        assert self.materialize(root, b) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_prune_shrinks_store_after_skewed_traces(self, cli_project, tmp_path, capsys):
        # The fixture trace log replays route 0 twice and every other route
        # once, so keep-if-seen-twice keeps exactly route 0's residuals.
        root, _ = cli_project
        store = tmp_path / "store"
        assert self.materialize(root, store) == 0
        capsys.readouterr()
        assert main([
            "kv", "prune",
            "--graph", str(root / "graph.json"),
            "--store", str(store),
            "--traces", str(root / "traces.log"),
            "--prune-k", "2", "--out", str(tmp_path),
        ]) == 0
        line = capsys.readouterr().out.strip()
        summary = (tmp_path / "prune_summary.csv").read_text().splitlines()
        before, after = (int(v) for v in summary[1].split(",")[:2])
        assert before > after
        assert f"bytes_before={before} bytes_after={after}" in line
        assert (tmp_path / "prune_report.csv").read_text().splitlines()[0] == (
            "path_hash,op_id,min_edge_count,bytes"
        )
        # The pruned store on disk must agree with the reported after-bytes.
        assert main([
            "kv", "footprint",
            "--graph", str(root / "graph.json"),
            "--store", str(store), "--out", str(tmp_path / "fp"),
        ]) == 0
        total = int(capsys.readouterr().out.splitlines()[1].split(",")[-1])
        assert total == after

    def test_prune_budget_counts_pairs(self, cli_project, tmp_path, capsys):
        # --budget caps the number of residual pairs, not bytes: a budget of
        # 1 keeps exactly one residual, whatever its size.
        root, _ = cli_project
        store = tmp_path / "store"
        assert self.materialize(root, store) == 0
        capsys.readouterr()
        assert main([
            "kv", "prune",
            "--graph", str(root / "graph.json"),
            "--store", str(store),
            "--traces", str(root / "traces.log"),
            "--prune-k", "1", "--budget", "1", "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        summary = (tmp_path / "prune_summary.csv").read_text().splitlines()
        inserted, kept, dropped = (int(v) for v in summary[1].split(",")[4:])
        assert (inserted, kept) == (0, 1) and dropped > 0
        assert len((tmp_path / "prune_report.csv").read_text().splitlines()) == 2
        assert main([
            "kv", "footprint",
            "--graph", str(root / "graph.json"),
            "--store", str(store), "--out", str(tmp_path / "fp"),
        ]) == 0
        n_residuals = int(capsys.readouterr().out.splitlines()[1].split(",")[5])
        assert n_residuals == 1

    def test_stateful_materialize_stores_fulls(self, cli_project, tmp_path, capsys):
        root, _ = cli_project
        store = tmp_path / "store"
        assert self.materialize(root, store, mode="stateful") == 0
        out = capsys.readouterr().out.strip()
        assert "fulls=" in out and "residuals=0" in out


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


class TestBench:
    ARGS = ["bench", "--vocab-size", "8", "--n-requests", "6", "--batch-sizes", "3,6"]

    def test_writes_three_csvs_each_covering_all_modes(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        for name in ("bench_tradeoff.csv", "bench_memory_sweep.csv", "bench_cost_sweep.csv"):
            text = (tmp_path / name).read_text()
            for mode in ("stateless", "differential", "stateful"):
                assert mode in text

    def test_memory_sweep_covers_requested_batches(self, tmp_path):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bench_memory_sweep.csv").read_text().splitlines()
        assert lines[0] == "batch_size,mode,bases_bytes,residuals_bytes,fulls_bytes,total_bytes"
        batches = {row.split(",")[0] for row in lines[1:]}
        assert batches == {"3", "6"}
        assert len(lines) == 1 + 2 * 3

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        for name in ("bench_tradeoff.csv", "bench_memory_sweep.csv", "bench_cost_sweep.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_batch_size_above_request_count_is_data_error(self, tmp_path, capsys):
        args = ["bench", "--vocab-size", "8", "--n-requests", "6", "--batch-sizes", "3,10"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert "needs 10" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_changes_outputs(self, cli_project, tmp_path):
        root, _ = cli_project
        plain, trained = tmp_path / "plain", tmp_path / "trained"
        assert main(self.ARGS + ["--out", str(plain)]) == 0
        assert main(self.ARGS + ["--checkpoint", str(root / "checkpoint.bin"),
                                 "--out", str(trained)]) == 0
        # Different parameters may or may not change the degenerate decode;
        # the command must at least accept the checkpoint and still cover
        # all modes deterministically.
        assert (trained / "bench_tradeoff.csv").is_file()


# ---------------------------------------------------------------------------
# configuration precedence and exit codes
# ---------------------------------------------------------------------------


class TestConfigFile:
    def test_file_supplies_values_flags_override(self, cli_project, tmp_path, capsys):
        root, _ = cli_project
        config = tmp_path / "run.cfg"
        config.write_text(
            "# comment line\n"
            "epochs = 3\n"
            f"graph = {root / 'graph.json'}\n"
            f"workflows = {root / 'workflows'}\n"
            f"samples = {root / 'samples.tsv'}\n"
            "batch_size = 8\n"
        )
        capsys.readouterr()
        out_a = tmp_path / "a"
        assert main(["train", "--config", str(config), "--out", str(out_a)]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("epochs=3 batch=8")
        out_b = tmp_path / "b"
        assert main(["train", "--config", str(config), "--epochs", "2",
                     "--out", str(out_b)]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("epochs=2 batch=8")

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("frobnicate=1\n")
        assert main(["bench", "--config", str(config)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_is_usage_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("no equals sign here\n")
        assert main(["bench", "--config", str(config)]) == 1

    def test_bad_value_is_usage_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("epochs=three\n")
        assert main(["bench", "--config", str(config)]) == 1

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_lambda_alias_maps_to_decay(self, cli_project, tmp_path):
        root, _ = cli_project
        config = tmp_path / "run.cfg"
        config.write_text("lambda = 0.0\n")
        assert main([
            "kv", "analyze", "--config", str(config),
            "--graph", str(root / "graph.json"),
            "--out", str(tmp_path), "--pair-limit", "2",
        ]) == 0
        # Zero decay kills every prefix-induced difference.
        rows = (tmp_path / "sparsity_pairs.csv").read_text().splitlines()[3:]
        for row in rows:
            assert row.split(",")[6] == "1.0"  # frac_exact_zero


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "build-graph" in capsys.readouterr().out

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_data_error_maps_to_two(self, tmp_path):
        assert main(["build-graph", "--workflows", str(tmp_path / "void"),
                     "--out", str(tmp_path)]) == 2

    def test_numeric_error_maps_to_three(self, monkeypatch, tmp_path):
        def explode(cfg):
            raise NumericError("non-finite loss")

        monkeypatch.setattr(cli, "cmd_build_graph", explode)
        assert main(["build-graph", "--workflows", str(tmp_path)]) == 3

    def test_usage_error_from_handler_maps_to_one(self, monkeypatch, tmp_path):
        def bad(cfg):
            raise cli.UsageError("nope")

        monkeypatch.setattr(cli, "cmd_build_graph", bad)
        assert main(["build-graph", "--workflows", str(tmp_path)]) == 1

    def test_data_error_from_handler_maps_to_two(self, monkeypatch, tmp_path):
        def bad(cfg):
            raise DataError("broken input")

        monkeypatch.setattr(cli, "cmd_build_graph", bad)
        assert main(["build-graph", "--workflows", str(tmp_path)]) == 2


class TestModuleEntryPoint:
    def test_runs_as_python_module(self, cli_project, tmp_path):
        root, _ = cli_project
        result = subprocess.run(
            [sys.executable, "-m", "opflow.cli", "build-graph",
             "--workflows", str(root / "workflows"), "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.endswith(" merged\n")
        assert (tmp_path / "graph.json").is_file()
