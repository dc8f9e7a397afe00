"""Tests for the command-line interface.

Most tests drive ``opflow.cli.main`` in-process for speed and capture stdout
with capsys; byte-determinism checks compare the files a rerun writes.  One
subprocess test proves the module entry point works end to end.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import opflow.cli as cli
from opflow import kvstore
from opflow.cli import main
from opflow.construct import TrainConfig, generate_synthetic_corpus, save_samples
from opflow.errors import DataError, NumericError
from opflow.graph import parse_graph, parse_workflow, serialize_workflow
from opflow.kvstore import MODES, CacheStore, save_store
from opflow.nn import init_params, load_checkpoint, save_checkpoint
from opflow.oracle import KVOracle, OracleConfig
from opflow.pruning import read_trace_log, write_trace_log

from conftest import assert_unreplaced


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


class TestUndecodableInput:
    """A file that is not UTF-8 text is a data error (a usage error for
    --config) that names the file, never a traceback."""

    @pytest.mark.parametrize("kind, code", [
        ("workflow", 2), ("samples", 2), ("traces", 2), ("config", 1),
    ])
    def test_names_the_file(self, cli_project, tmp_path, capsys, kind, code):
        root, _ = cli_project
        bad = tmp_path / "docs" / "bad.json"
        bad.parent.mkdir()
        bad.write_bytes(b"\xff\xfe{}")
        graph, out = str(root / "graph.json"), str(tmp_path / "out")
        args = {
            "workflow": ["build-graph", "--workflows", str(bad.parent), "--out", out],
            "samples": ["train", "--graph", graph, "--workflows", str(root / "workflows"),
                        "--samples", str(bad), "--out", out],
            "traces": ["kv", "materialize", "--graph", graph, "--traces", str(bad),
                       "--store", str(tmp_path / "store")],
            "config": ["bench", "--config", str(bad), "--out", out],
        }[kind]
        capsys.readouterr()
        assert main(args) == code
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


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
        assert workflow.nodes == corpus.graph.entry_ops

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

    def test_truncated_checkpoint_is_data_error(self, cli_project, tmp_path, capsys):
        root, _ = cli_project
        cut = tmp_path / "cut.bin"
        cut.write_bytes((root / "checkpoint.bin").read_bytes()[:10])
        capsys.readouterr()
        assert main([
            "generate",
            "--graph", str(root / "graph.json"),
            "--checkpoint", str(cut),
            "--task", "x",
        ]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "truncated" in err

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

    @pytest.mark.parametrize("text", [
        b"\xff",
        b"[]",
        b'{"operations": [], "edges": []}',
        b'{"operations": {"A": "do a"}, "edges": []}',
        b'{"operations": {}, "edges": {}}',
        b'{"operations": {}, "edges": [["A", "B"]]}',
        b'{"operations": {"A": {"instruction": "a"}}, "edges": [["A", "A"]]}',
        b'{"operations": {"A": {"instruction": "a"}}, "edges": [], "edge_sources": {"A": ["w"]}}',
        b'{"operations": {"A": {"instruction": "a"}}, "edges": [], "merged_from": {"A": [["w"]]}}',
    ])
    def test_malformed_graph_file_is_data_error(self, cli_project, tmp_path, capsys, text):
        root, _ = cli_project
        graph = tmp_path / "graph.json"
        graph.write_bytes(text)
        capsys.readouterr()
        assert main([
            "generate",
            "--graph", str(graph),
            "--checkpoint", str(root / "checkpoint.bin"),
            "--task", "x",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opflow: data error:") and "Traceback" not in err


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

    def test_failed_swap_leaves_earlier_store_for_load_and_footprint(
        self, cli_project, tmp_path, capsys, monkeypatch
    ):
        from opflow import kvstore

        root, _ = cli_project
        graph = parse_graph((root / "graph.json").read_text())
        store = tmp_path / "store"
        assert self.materialize(root, store) == 0
        footprint = [
            "kv", "footprint", "--graph", str(root / "graph.json"),
            "--store", str(store), "--out", str(tmp_path),
        ]
        capsys.readouterr()
        assert main(footprint) == 0
        before = capsys.readouterr().out
        saved = (store / "store.bin").read_bytes()
        loaded = kvstore.load_store(store, graph)
        residuals = set(loaded.residuals)
        loaded.drop_residual(*next(iter(loaded.residuals)))

        def failing_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(kvstore.os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            kvstore.save_store(loaded, store)
        monkeypatch.undo()
        assert [p.name for p in store.iterdir()] == ["store.bin"]
        assert (store / "store.bin").read_bytes() == saved
        assert set(kvstore.load_store(store, graph).residuals) == residuals
        assert main(footprint) == 0
        assert capsys.readouterr().out == before
        assert int(before.splitlines()[1].split(",")[-1]) > 0

    def test_footprint_rejects_corrupt_or_version_one_store(self, cli_project, tmp_path, capsys):
        root, _ = cli_project
        store = tmp_path / "store"
        footprint = [
            "kv", "footprint", "--graph", str(root / "graph.json"),
            "--store", str(store), "--out", str(tmp_path),
        ]
        assert self.materialize(root, store) == 0
        with open(store / "store.bin", "ab") as fh:
            fh.write(b"\0")
        capsys.readouterr()
        assert main(footprint) == 2
        assert "trailing bytes" in capsys.readouterr().err
        (store / "store.bin").unlink()
        (store / "meta.json").write_text("{}\n")
        assert main(footprint) == 2
        assert "kv materialize" in capsys.readouterr().err

    def test_footprint_rejects_negative_oracle_seed(self, cli_project, tmp_path, capsys):
        from opflow import kvstore

        root, _ = cli_project
        store = tmp_path / "store"
        assert self.materialize(root, store) == 0
        raw = (store / "store.bin").read_bytes()
        magic, version, size = kvstore.STORE_HEADER.unpack_from(raw)
        manifest_at = kvstore.STORE_HEADER.size
        manifest = json.loads(raw[manifest_at : manifest_at + size])
        manifest["oracle"]["seed"] = -1
        text = json.dumps(manifest).encode()
        (store / "store.bin").write_bytes(
            kvstore.STORE_HEADER.pack(magic, version, len(text)) + text + raw[manifest_at + size :]
        )
        capsys.readouterr()
        assert main([
            "kv", "footprint", "--graph", str(root / "graph.json"),
            "--store", str(store), "--out", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer" in err
        assert "Traceback" not in err

    def test_footprint_on_empty_store_is_zero_row(self, tmp_path, capsys):
        assert main([
            "kv", "footprint",
            "--store", str(tmp_path / "missing"), "--out", str(tmp_path),
        ]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == "differential,0,0,0,0,0,0,0"
        # Files that are neither a store nor a version-1 store's meta.json
        # (here one left by a killed save) still read as an empty store.
        beside = tmp_path / "beside"
        beside.mkdir()
        (beside / ".store.bin.tmp").write_bytes(b"partial")
        assert main(["kv", "footprint", "--store", str(beside), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == row

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

    @pytest.mark.parametrize("mode", MODES)
    def test_materialize_matches_the_per_pair_rule(self, cli_project, tmp_path, mode):
        # The rule spelled out per pair: a residual for each non-root
        # differential pair not yet stored, a fetch for every other pair.
        # The fixture's trace log repeats route 0, so pairs recur.
        root, _ = cli_project
        assert self.materialize(root, tmp_path / "cli", mode) == 0
        graph = parse_graph((root / "graph.json").read_text())
        oracle = KVOracle(OracleConfig(lam=cli._KEYS["lam"][1], seed=cli._KEYS["seed"][1]))
        store = CacheStore(graph, mode, oracle=oracle, energy_target=cli._KEYS["energy_target"][1])
        for _, trace in read_trace_log(root / "traces.log"):
            for i, op_id in enumerate(trace):
                path = tuple(trace[:i])
                if mode == "differential" and path:
                    if (path, op_id) not in store.residuals:
                        store.insert_residual(path, op_id)
                else:
                    store.fetch(path, op_id)
        save_store(store, tmp_path / "rule")
        assert (tmp_path / "cli" / "store.bin").read_bytes() == (tmp_path / "rule" / "store.bin").read_bytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_materialize_fetches_each_distinct_pair_once(self, cli_project, tmp_path, monkeypatch, mode):
        # The fixture's trace log repeats route 0: a repeated pair would only
        # fetch a stored tensor, and in differential mode rebuild it for nothing.
        root, _ = cli_project
        fetched, rebuilt = [], []
        fetch, reconstruct = CacheStore.fetch, kvstore.reconstruct
        monkeypatch.setattr(
            CacheStore, "fetch", lambda store, path, op_id: fetched.append((path, op_id)) or fetch(store, path, op_id)
        )
        monkeypatch.setattr(kvstore, "reconstruct", lambda base, delta: rebuilt.append(delta) or reconstruct(base, delta))
        assert self.materialize(root, tmp_path / "store", mode) == 0
        traces = read_trace_log(root / "traces.log")
        pairs = [(tuple(trace[:i]), op_id) for _, trace in traces for i, op_id in enumerate(trace)]
        assert len(set(pairs)) < len(pairs)
        assert fetched == list(dict.fromkeys(pairs))
        assert rebuilt == []

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


class TestOutputsAreReplacedAtomically:
    """A write that fails part-way leaves the file a command writes as it
    was, and no staging file beside it."""

    EARLIER = b"earlier output\n"

    @staticmethod
    def argv(name, root, out, store):
        graph = ["--graph", str(root / "graph.json")]
        prune = ["kv", "prune", *graph, "--store", str(store), "--traces", str(root / "traces.log")]
        return {
            "graph.json": ["build-graph", "--workflows", str(root / "workflows")],
            "train_loss.csv": [
                "train", *graph, "--workflows", str(root / "workflows"),
                "--samples", str(root / "samples.tsv"), "--epochs", "0",
            ],
            "sparsity_layers.csv": ["kv", "analyze", *graph, "--pair-limit", "2"],
            "bench_memory_sweep.csv": TestBench.ARGS,
            "prune_report.csv": prune,
            "prune_summary.csv": prune,
            "footprint.csv": ["kv", "footprint", *graph, "--store", str(store)],
        }[name] + ["--out", str(out)]

    @pytest.mark.parametrize("name", [
        "graph.json", "train_loss.csv", "sparsity_layers.csv", "bench_memory_sweep.csv",
        "prune_report.csv", "prune_summary.csv", "footprint.csv",
    ])
    def test_failed_write_leaves_the_earlier_file(self, cli_project, tmp_path, fail_writing, name):
        root, _ = cli_project
        store = tmp_path / "store"
        assert TestKvStoreCommands().materialize(root, store) == 0
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_bytes(self.EARLIER)
        staged = fail_writing(name)
        assert main(self.argv(name, root, out, store)) == 2
        assert staged and staged[0] > 0
        assert_unreplaced(out / name, self.EARLIER)

    @pytest.mark.parametrize("name, written", [
        ("sparsity_layers.csv", ("sparsity_pairs.csv", "sparsity_layers.csv", "sparsity_heatmap.csv")),
        ("prune_summary.csv", ("prune_report.csv", "prune_summary.csv")),
        ("train_loss.csv", ("checkpoint.bin", "train_loss.csv")),
    ])
    def test_failed_write_leaves_every_file_of_the_command(
        self, cli_project, tmp_path, fail_writing, name, written
    ):
        # A command's files are replaced together: failing a later one must
        # not leave an earlier one holding the new run's bytes.  That holds
        # for the store `kv prune` rewrites too.
        root, _ = cli_project
        store = tmp_path / "store"
        assert TestKvStoreCommands().materialize(root, store) == 0
        saved = (store / "store.bin").read_bytes()
        out = tmp_path / "out"
        out.mkdir()
        for each in written:
            (out / each).write_bytes(self.EARLIER)
        staged = fail_writing(name)
        assert main(self.argv(name, root, out, store)) == 2
        assert staged and staged[0] > 0
        for each in written:
            assert_unreplaced(out / each, self.EARLIER)
        assert_unreplaced(store / "store.bin", saved)


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

    # A non-default value for every key, as text and as resolved.
    VALUES = {
        "workflows": ("wf", "wf"), "graph": ("g.json", "g.json"),
        "samples": ("s.tsv", "s.tsv"), "checkpoint": ("c.bin", "c.bin"),
        "store": ("st", "st"), "traces": ("t.log", "t.log"), "out": ("o", "o"),
        "seed": ("7", 7), "mode": ("stateless", "stateless"),
        "energy_target": ("0.5", 0.5), "lam": ("0.25", 0.25), "prune_k": ("3", 3),
        "budget": ("5", 5), "theta_min": ("0.25", 0.25), "max_nodes": ("4", 4),
        "epochs": ("3", 3), "batch_size": ("8", 8), "learning_rate": ("0.001", 0.001),
        "weight_decay": ("0", 0.0), "tau": ("2", 2.0), "hidden_dim": ("16", 16),
        "mlp_hidden": ("8", 8), "pair_limit": ("4", 4), "vocab_size": ("8", 8),
        "n_requests": ("6", 6), "overlap": ("0.25", 0.25),
        "distribution": ("zipf", "zipf"), "batch_sizes": ("3, 6,", (3, 6)),
    }

    @pytest.mark.parametrize("key", sorted(cli._KEYS))
    def test_flag_and_config_line_resolve_alike(self, tmp_path, key):
        text, expected = self.VALUES[key]
        words = next(name for name, _, keys in cli._COMMANDS if key in (keys or ())).split()
        parser = cli.build_parser()
        from_flag = cli.resolve_config(parser.parse_args([*words, cli._flag(key), text]), {})
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {text}\n")
        from_file = cli.resolve_config(parser.parse_args(words), cli.read_config_file(config))
        assert getattr(from_flag, key) == getattr(from_file, key) == expected
        assert expected != cli._KEYS[key][1]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, text, command", [
        ("mode", "bogus", ["kv", "footprint", "--store", "nowhere"]),
        ("distribution", "pareto", ["bench", "--vocab-size", "8", "--n-requests", "6"]),
        ("batch_sizes", ",", ["bench", "--vocab-size", "8", "--n-requests", "6"]),
        ("epochs", "three", ["train"]),
        ("seed", "-1", ["bench", "--vocab-size", "8", "--n-requests", "6"]),
        ("pair_limit", "0", ["kv", "analyze", "--graph", "nowhere"]),
    ])
    def test_bad_value_exits_one_from_flag_and_config(
        self, tmp_path, capsys, monkeypatch, source, key, text, command
    ):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        args = [*command, "--out", str(out)]
        flag = cli._flag(key)
        if source == "flag":
            args += [flag, text]
        else:
            (tmp_path / "run.cfg").write_text(f"{key}={text}\n")
            args += ["--config", "run.cfg"]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert (flag if source == "flag" else f"config key {key}") in err
        assert not out.exists()  # the command never ran: no CSV, no directory


class TestIntegerKeys:
    """Values a command cannot use are refused by name: an out-of-range
    ``seed`` or ``pair_limit`` as a usage error (exit 1), a non-positive
    model width or a rate that is negative or not finite as a data error
    (exit 2)."""

    @pytest.mark.parametrize("command, key, text, code", [
        ("kv analyze", "pair_limit", "-3", 1),
        ("kv analyze", "pair_limit", "0", 1),
        ("kv analyze", "seed", "-1", 1),
        ("bench", "seed", "-1", 1),
        ("train", "seed", "-1", 1),
        ("train", "seed", str(2**64), 1),
        ("train", "hidden_dim", "0", 2),
        ("train", "hidden_dim", "-2", 2),
        ("train", "mlp_hidden", "-1", 2),
        ("train", "learning_rate", "-1", 2),
        ("train", "weight_decay", "inf", 2),
        ("train", "tau", "nan", 2),
    ])
    def test_out_of_range_value(self, cli_project, tmp_path, capsys, command, key, text, code):
        root, _ = cli_project
        inputs = {
            "kv analyze": ["--graph", str(root / "graph.json")],
            "bench": ["--vocab-size", "8", "--n-requests", "6"],
            "train": [
                "--graph", str(root / "graph.json"), "--workflows", str(root / "workflows"),
                "--samples", str(root / "samples.tsv"), "--epochs", "1",
            ],
        }[command]
        capsys.readouterr()
        args = [*command.split(), *inputs, cli._flag(key), text, "--out", str(tmp_path / "out")]
        assert main(args) == code
        err = capsys.readouterr().err
        assert key in err or cli._flag(key) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


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


def option_strings() -> dict[str, set[str]]:
    """Each command's option strings, keyed by its words ("kv prune")."""
    found = {}

    def walk(parser, words):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, (*words, name))
        found[" ".join(words)] = {o for a in parser._actions for o in a.option_strings}

    walk(cli.build_parser(), ())
    return found


class TestFlags:
    def test_each_command_has_exactly_its_flags(self):
        expected = {
            "": set(), "kv": set(),
            "build-graph": {"--workflows", "--out"},
            "train": {"--graph", "--workflows", "--samples", "--epochs", "--batch-size",
                      "--learning-rate", "--weight-decay", "--tau", "--hidden-dim",
                      "--mlp-hidden", "--seed", "--out"},
            "generate": {"--graph", "--checkpoint", "--task", "--theta-min", "--max-nodes"},
            "kv analyze": {"--graph", "--lambda", "--pair-limit", "--seed", "--out"},
            "kv materialize": {"--graph", "--traces", "--store", "--mode", "--energy-target",
                               "--lambda", "--seed"},
            "kv prune": {"--graph", "--store", "--traces", "--prune-k", "--budget", "--out"},
            "kv footprint": {"--graph", "--store", "--mode", "--out"},
            "bench": {"--checkpoint", "--vocab-size", "--n-requests", "--overlap",
                      "--distribution", "--batch-sizes", "--energy-target", "--lambda",
                      "--seed", "--out"},
        }
        found = option_strings()
        assert found.keys() == expected.keys()
        for command, flags in expected.items():
            common = {"--config", "-v"} if flags else set()
            assert found[command] == flags | common | {"-h", "--help"}, command

    def test_every_train_config_field_is_a_train_key(self):
        # cmd_train builds its TrainConfig from one key per field.
        keys = {name: k for name, _, k in cli._COMMANDS}["train"]
        assert {f.name for f in dataclasses.fields(TrainConfig)} <= set(keys)

    def test_readme_command_line_block_uses_declared_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        found = option_strings()
        listed = set()
        for line in block.replace("\\\n", " ").strip().splitlines():
            # "opflow kv prune --graph FILE [--prune-k N] ...": command words, then flags.
            program, *words = line.split()
            assert program == "opflow", line
            command = " ".join(itertools.takewhile(lambda word: word[0] not in "-[", words))
            listed.add(command)
            for flag in re.findall(r"--[a-z][a-z-]*", line):
                assert flag in found[command], f"{command} {flag}"
        assert listed == {name for name, _, keys in cli._COMMANDS if keys is not None}


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


# Each command's arguments, writing under ``{out}``; ``kv prune`` and
# ``kv footprint`` expect a store materialized at ``{out}/store`` first.
VERBOSE_RUNS = {
    "build-graph": ["--workflows", "{root}/workflows", "--out", "{out}"],
    "train": ["--graph", "{root}/graph.json", "--workflows", "{root}/workflows",
              "--samples", "{root}/samples.tsv", "--epochs", "1", "--batch-size", "8",
              "--out", "{out}"],
    "generate": ["--graph", "{root}/graph.json", "--checkpoint", "{root}/checkpoint.bin",
                 "--task", "Deliver the ledger and quartz packet before the review"],
    "kv analyze": ["--graph", "{root}/graph.json", "--pair-limit", "2", "--out", "{out}"],
    "kv materialize": ["--graph", "{root}/graph.json", "--traces", "{root}/traces.log",
                       "--store", "{out}/store"],
    "kv prune": ["--graph", "{root}/graph.json", "--traces", "{root}/traces.log",
                 "--store", "{out}/store", "--prune-k", "2", "--out", "{out}"],
    "kv footprint": ["--graph", "{root}/graph.json", "--store", "{out}/store", "--out", "{out}"],
    "bench": ["--vocab-size", "8", "--n-requests", "6", "--batch-sizes", "3,6", "--out", "{out}"],
}


class TestEveryFlagIsRead:
    """A flag a command declares is one its handler reads, so every flag
    changes something; a config file may still carry any key."""

    @pytest.fixture
    def reads(self, monkeypatch):
        read: set[str] = set()
        resolve = cli.resolve_config

        class Recorder(SimpleNamespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        monkeypatch.setattr(cli, "resolve_config", lambda args, values: Recorder(**vars(resolve(args, values))))
        return read

    @pytest.mark.parametrize("command", list(VERBOSE_RUNS))
    def test_handler_reads_every_declared_flag(self, cli_project, tmp_path, reads, command):
        root, _ = cli_project
        out = tmp_path / "out"
        if command in ("kv prune", "kv footprint"):
            assert main(["kv", "materialize", "--graph", str(root / "graph.json"),
                         "--traces", str(root / "traces.log"), "--store", str(out / "store")]) == 0
        runs = [VERBOSE_RUNS[command]]
        if command == "kv footprint":
            # --mode is read only to label the row of a directory with no store.
            runs.append([a.replace("{out}/store", "{out}/empty") for a in runs[0]])
        reads.clear()
        for args in runs:
            assert main([*command.split(), *(a.format(root=root, out=out) for a in args)]) == 0
        flags = option_strings()[command] - {"--config", "-v", "-h", "--help"}
        declared = {key for key in (*cli._KEYS, "task") if cli._flag(key) in flags}
        assert {cli._flag(key) for key in declared} == flags
        assert declared <= reads, sorted(declared - reads)

    def test_config_may_carry_keys_a_command_does_not_take(self, cli_project, tmp_path):
        root, _ = cli_project
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = 7\nout = {tmp_path / 'out'}\n")
        assert main(["generate", "--config", str(config), "--graph", str(root / "graph.json"),
                     "--checkpoint", str(root / "checkpoint.bin"), "--task", "x"]) == 0
        assert main(["kv", "footprint", "--config", str(config),
                     "--store", str(tmp_path / "empty")]) == 0
        assert (tmp_path / "out" / "footprint.csv").is_file()

    def test_generate_takes_no_out_flag(self, cli_project, tmp_path):
        root, _ = cli_project
        assert main(["generate", "--graph", str(root / "graph.json"),
                     "--checkpoint", str(root / "checkpoint.bin"), "--task", "x",
                     "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestVerbose:
    @pytest.mark.parametrize("command", list(VERBOSE_RUNS))
    def test_v_logs_info_and_changes_no_output(self, cli_project, tmp_path, command):
        root, _ = cli_project
        runs = {}
        for flags in ((), ("-v",)):
            out = tmp_path / ("verbose" if flags else "quiet")
            if command in ("kv prune", "kv footprint"):
                assert main(["kv", "materialize", "--graph", str(root / "graph.json"),
                             "--traces", str(root / "traces.log"),
                             "--store", str(out / "store")]) == 0
            args = [a.format(root=root, out=out) for a in VERBOSE_RUNS[command]]
            runs[flags] = subprocess.run(
                [sys.executable, "-m", "opflow.cli", *command.split(), *flags, *args],
                capture_output=True, text=True,
            )
            assert runs[flags].returncode == 0, runs[flags].stderr
        quiet, verbose = runs[()], runs[("-v",)]
        assert quiet.stderr == ""
        assert any(line.startswith("INFO opflow: ") for line in verbose.stderr.splitlines())
        assert verbose.stdout.replace(str(tmp_path / "verbose"), "") == quiet.stdout.replace(
            str(tmp_path / "quiet"), ""
        )
        assert tree_bytes(tmp_path / "verbose") == tree_bytes(tmp_path / "quiet")

    def test_v_logs_progress_to_stderr_and_leaves_stdout(self, cli_project, tmp_path):
        root, _ = cli_project
        runs = {}
        for flags in ((), ("-v",)):
            out = tmp_path / ("verbose" if flags else "quiet")
            runs[flags] = subprocess.run(
                [sys.executable, "-m", "opflow.cli", "build-graph", *flags,
                 "--workflows", str(root / "workflows"), "--out", str(out)],
                capture_output=True, text=True,
            )
            assert runs[flags].returncode == 0
        quiet, verbose = runs[()], runs[("-v",)]
        assert quiet.stderr == ""
        written = tmp_path / "verbose" / "graph.json"
        assert verbose.stderr == f"INFO opflow: graph written to {written}\n"
        assert verbose.stdout == quiet.stdout
        assert (tmp_path / "verbose" / "graph.json").read_bytes() == (
            tmp_path / "quiet" / "graph.json"
        ).read_bytes()

    def test_train_logs_where_it_wrote_only_with_v(self, cli_project, tmp_path, capsys, caplog):
        root, _ = cli_project
        capsys.readouterr()
        outputs = []
        for flags in ((), ("-v",)):
            caplog.clear()
            assert main([
                "train", *flags,
                "--graph", str(root / "graph.json"),
                "--workflows", str(root / "workflows"),
                "--samples", str(root / "samples.tsv"),
                "--epochs", "1", "--batch-size", "8",
                "--out", str(tmp_path),
            ]) == 0
            outputs.append(capsys.readouterr().out)
            messages = [record.getMessage() for record in caplog.records]
            written = [m for m in messages if m.startswith("checkpoint and loss curve written to")]
            assert len(written) == (1 if flags else 0)
        assert outputs[0] == outputs[1]
