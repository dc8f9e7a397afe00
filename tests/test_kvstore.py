"""Tests for sparse residuals, cache modes, and the on-disk store layout."""

import json
import shutil
from math import prod
from pathlib import Path

import numpy as np
import pytest

from opflow import kvstore
from opflow.errors import DataError
from opflow.graph import Operation, Workflow, merge_workflows
from opflow.kvstore import (
    DELTA_HEADER,
    DELTA_MAGIC,
    KV_HEADER,
    CacheStore,
    FetchResult,
    SparseDelta,
    kv_file_nbytes,
    load_store,
    path_digest,
    read_delta,
    read_kv,
    reconstruct,
    save_store,
    sparsify,
    write_delta,
    write_kv,
)
from opflow.oracle import KVOracle, KVTensor, OracleConfig, tokenize

from conftest import crash_after_rename


def small_graph():
    ops = {
        "OP_A": "read the incoming request and list the work items",
        "OP_B": "normalize every record against the shared schema",
        "OP_C": "aggregate the normalized records into a summary table",
        "OP_D": "draft the final report from the summary",
    }
    wf = Workflow(
        id="WF_SMALL",
        name="small",
        description="",
        patterns_must=(),
        patterns_should=(),
        nodes=tuple(ops),
        edges=(("OP_A", "OP_B"), ("OP_B", "OP_C"), ("OP_B", "OP_D")),
        operations={k: Operation(id=k, instruction=v) for k, v in ops.items()},
    )
    return merge_workflows([wf])


def random_pair(oracle, rng, max_prefix=40, max_op=20):
    n_prefix = int(rng.integers(1, max_prefix))
    n_op = int(rng.integers(1, max_op))
    prefix = list(rng.integers(0, 8192, size=n_prefix))
    op = list(rng.integers(0, 8192, size=n_op))
    full = oracle.stateful_segment(prefix, op)
    base = oracle.base_segment(op, n_prefix)
    return full, base


def true_delta(full, base):
    fc = np.concatenate([full.keys, full.values], axis=3).astype(np.float64)
    bc = np.concatenate([base.keys, base.values], axis=3).astype(np.float64)
    return fc - bc


# ---------------------------------------------------------------------------
# sparsify: energy selection
# ---------------------------------------------------------------------------


class TestSparsify:
    @pytest.mark.parametrize("target", [0.5, 0.9, 0.95, 0.99])
    def test_kept_energy_reaches_target_minimally(self, target):
        oracle = KVOracle()
        rng = np.random.default_rng(17)
        for _ in range(10):
            full, base = random_pair(oracle, rng)
            delta = sparsify(full, base, target)
            diff = true_delta(full, base)
            total = float(np.sum(diff**2))
            sel = tuple(delta.coords.T.astype(np.intp))
            kept = float(np.sum(diff[sel] ** 2))
            assert kept >= target * total * (1 - 1e-12)
            assert delta.kept_energy_fraction == pytest.approx(kept / total, rel=1e-9)
            # minimality: removing the smallest kept entry drops below target
            smallest = np.min(np.abs(diff[sel]))
            assert kept - smallest**2 < target * total

    def test_keeps_largest_magnitudes(self):
        oracle = KVOracle()
        rng = np.random.default_rng(3)
        full, base = random_pair(oracle, rng)
        delta = sparsify(full, base, 0.9)
        diff = np.abs(true_delta(full, base))
        sel = tuple(delta.coords.T.astype(np.intp))
        kept_mask = np.zeros(diff.shape, dtype=bool)
        kept_mask[sel] = True
        if (~kept_mask).any() and kept_mask.any():
            assert diff[kept_mask].min() >= diff[~kept_mask].max() - 1e-18

    def test_target_one_keeps_every_nonzero_entry(self):
        oracle = KVOracle()
        rng = np.random.default_rng(8)
        full, base = random_pair(oracle, rng)
        delta = sparsify(full, base, 1.0)
        diff = true_delta(full, base)
        assert delta.entries == int(np.count_nonzero(diff))
        assert delta.kept_energy_fraction == 1.0

    def test_zero_difference(self):
        oracle = KVOracle(OracleConfig(lam=0.0))
        rng = np.random.default_rng(2)
        full, base = random_pair(oracle, rng)
        delta = sparsify(full, base, 0.95)
        assert delta.entries == 0
        assert delta.kept_energy_fraction == 1.0
        rec = reconstruct(base, delta)
        assert np.array_equal(rec.keys, full.keys)
        assert np.array_equal(rec.values, full.values)

    def test_ties_break_in_coordinate_order(self):
        shape = (1, 1, 2, 2)
        base = KVTensor(
            keys=np.zeros(shape, dtype=np.float32),
            values=np.zeros(shape, dtype=np.float32),
            position_offset=0,
        )
        full = KVTensor(
            keys=np.ones(shape, dtype=np.float32),
            values=np.ones(shape, dtype=np.float32),
            position_offset=0,
        )
        delta = sparsify(full, base, 0.5)  # 8 equal entries -> keep first 4
        assert delta.entries == 4
        expected = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, 3)]
        assert [tuple(c) for c in delta.coords] == expected

    def test_rejects_mismatches(self):
        oracle = KVOracle()
        rng = np.random.default_rng(4)
        full, base = random_pair(oracle, rng)
        with pytest.raises(DataError):
            sparsify(full, base, 0.0)
        shifted = KVTensor(
            keys=base.keys, values=base.values, position_offset=base.position_offset + 1
        )
        with pytest.raises(DataError):
            sparsify(full, shifted)
        small = oracle.base_segment([1, 2], 0)
        with pytest.raises(DataError):
            sparsify(full, small)


# ---------------------------------------------------------------------------
# reconstruct: exactness guarantees
# ---------------------------------------------------------------------------


class TestReconstruct:
    def test_bitwise_exact_at_full_energy(self):
        oracle = KVOracle()
        rng = np.random.default_rng(31)
        for _ in range(50):
            full, base = random_pair(oracle, rng)
            delta = sparsify(full, base, 1.0)
            rec = reconstruct(base, delta)
            assert np.array_equal(rec.keys, full.keys)
            assert np.array_equal(rec.values, full.values)
            assert rec.position_offset == full.position_offset

    def test_kept_coordinates_are_exact_at_any_target(self):
        oracle = KVOracle()
        rng = np.random.default_rng(6)
        full, base = random_pair(oracle, rng)
        delta = sparsify(full, base, 0.9)
        rec = reconstruct(base, delta)
        rec_c = np.concatenate([rec.keys, rec.values], axis=3)
        full_c = np.concatenate([full.keys, full.values], axis=3)
        sel = tuple(delta.coords.T.astype(np.intp))
        assert np.array_equal(rec_c[sel], full_c[sel])

    def test_error_bounded_by_dropped_energy(self):
        oracle = KVOracle()
        rng = np.random.default_rng(11)
        target = 0.95
        for _ in range(10):
            full, base = random_pair(oracle, rng)
            delta = sparsify(full, base, target)
            rec = reconstruct(base, delta)
            err = np.linalg.norm(
                np.concatenate(
                    [
                        rec.keys.astype(np.float64) - full.keys.astype(np.float64),
                        rec.values.astype(np.float64) - full.values.astype(np.float64),
                    ]
                )
            )
            diff_norm = np.linalg.norm(true_delta(full, base))
            assert err <= np.sqrt(1.0 - target) * diff_norm + 1e-6

    def test_base_not_mutated(self):
        oracle = KVOracle()
        rng = np.random.default_rng(13)
        full, base = random_pair(oracle, rng)
        keys_before = base.keys.copy()
        delta = sparsify(full, base, 1.0)
        reconstruct(base, delta)
        assert np.array_equal(base.keys, keys_before)

    def test_rejects_mismatched_delta(self):
        oracle = KVOracle()
        full, base = random_pair(oracle, np.random.default_rng(1))
        delta = sparsify(full, base, 0.95)
        other = oracle.base_segment([5, 6, 7], 2)
        with pytest.raises(DataError):
            reconstruct(other, delta)


class TestMatchesFloat64AddendReference:
    """The version-1 encoding kept as the reference: coordinates in magnitude
    order with float64 addends, walked an ulp at a time until
    float32(base + addend) equals the full tensor, then added onto the base."""

    @staticmethod
    def v1_reconstruct(full, base, energy_target):
        full_c = np.concatenate([full.keys, full.values], axis=3)
        base_c = np.concatenate([base.keys, base.values], axis=3)
        base64 = base_c.astype(np.float64)
        flat = (full_c.astype(np.float64) - base64).ravel()
        nonzero = int(np.count_nonzero(flat))
        if nonzero == 0:
            return base_c, np.zeros(0, dtype=np.intp), 1.0
        order = np.argsort(-np.abs(flat), kind="stable")
        cumulative = np.cumsum(flat[order] ** 2)
        keep = nonzero
        if energy_target < 1.0:
            idx = int(np.searchsorted(cumulative, energy_target * cumulative[-1], side="left"))
            keep = min(idx + 1, nonzero)
        sel = np.unravel_index(order[:keep], base_c.shape)
        target = full_c[sel]
        addends = target.astype(np.float64) - base64[sel]
        for _ in range(8):
            rec = (base64[sel] + addends).astype(np.float32)
            bad = rec != target
            if not bad.any():
                break
            toward = np.where(rec[bad] < target[bad], np.inf, -np.inf)
            addends[bad] = np.nextafter(addends[bad], toward)
        else:
            raise AssertionError("no exact float64 addend")
        out = base_c.copy()
        out[sel] = (out[sel].astype(np.float64) + addends).astype(np.float32)
        return out, order[:keep], float(cumulative[keep - 1] / cumulative[-1])

    @pytest.mark.parametrize("target", [0.5, 0.9, 0.95, 1.0])
    def test_bitwise_equal_to_v1(self, target, tmp_path):
        oracle = KVOracle()
        rng = np.random.default_rng(int(target * 1000))
        file = tmp_path / "pair.delta"
        for _ in range(25):
            full, base = random_pair(oracle, rng)
            expected, kept, fraction = self.v1_reconstruct(full, base, target)
            delta = sparsify(full, base, target)
            assert delta.entries == len(kept)
            assert delta.kept_energy_fraction == fraction
            flat = np.ravel_multi_index(tuple(delta.coords.T), delta.dense_shape)
            assert np.array_equal(flat, np.sort(kept))
            write_delta(file, delta)
            for applied in (delta, read_delta(file)):
                rec = reconstruct(base, applied)
                got = np.concatenate([rec.keys, rec.values], axis=3)
                assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


class TestFileFormats:
    def test_kv_round_trip_bitwise(self, tmp_path):
        oracle = KVOracle()
        kv = oracle.kv_states([7, 99, 2048], 5)
        file = tmp_path / "seg.kv"
        write_kv(file, kv)
        assert file.stat().st_size == kv_file_nbytes(kv)
        back = read_kv(file)
        assert np.array_equal(back.keys, kv.keys)
        assert np.array_equal(back.values, kv.values)
        assert back.position_offset == 5
        # byte-identical on re-save
        again = tmp_path / "seg2.kv"
        write_kv(again, back)
        assert again.read_bytes() == file.read_bytes()

    def test_delta_round_trip_bitwise(self, tmp_path):
        oracle = KVOracle()
        full, base = random_pair(oracle, np.random.default_rng(23))
        delta = sparsify(full, base, 0.9)
        file = tmp_path / "seg.delta"
        write_delta(file, delta)
        assert file.stat().st_size == delta.nbytes()
        bitmap = -(-prod(delta.dense_shape) // 8)
        assert delta.nbytes() == DELTA_HEADER.size + bitmap + 4 * delta.entries
        back = read_delta(file)
        assert back.dense_shape == delta.dense_shape
        assert back.position_offset == delta.position_offset
        assert back.kept_energy_fraction == np.float32(delta.kept_energy_fraction)
        assert np.array_equal(back.coords, delta.coords)
        assert np.array_equal(back.values, delta.values)
        again = tmp_path / "seg2.delta"
        write_delta(again, back)
        assert again.read_bytes() == file.read_bytes()

    def test_kv_header_is_32_bytes_and_delta_36(self):
        assert KV_HEADER.size == 32
        assert DELTA_HEADER.size == 36

    def test_rejects_corrupt_files(self, tmp_path):
        oracle = KVOracle()
        kv = oracle.kv_states([1, 2], 0)
        file = tmp_path / "a.kv"
        write_kv(file, kv)
        raw = file.read_bytes()

        bad_magic = tmp_path / "bad_magic.kv"
        bad_magic.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(DataError):
            read_kv(bad_magic)

        truncated = tmp_path / "trunc.kv"
        truncated.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            read_kv(truncated)

        trailing = tmp_path / "trail.kv"
        trailing.write_bytes(raw + b"\x00\x00")
        with pytest.raises(DataError):
            read_kv(trailing)

        full, base = random_pair(oracle, np.random.default_rng(5))
        dfile = tmp_path / "a.delta"
        write_delta(dfile, sparsify(full, base))
        draw = dfile.read_bytes()
        bad = tmp_path / "bad.delta"
        bad.write_bytes(b"YYYY" + draw[4:])
        with pytest.raises(DataError):
            read_delta(bad)
        short = tmp_path / "short.delta"
        short.write_bytes(draw[:-4])
        with pytest.raises(DataError):
            read_delta(short)

    def test_delta_rejects_unordered_coordinates(self):
        coords = np.array([[0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.int32)
        with pytest.raises(DataError, match="row-major"):
            SparseDelta((1, 1, 2, 2), 0, 1.0, coords, np.ones(2, dtype=np.float32))

    def test_path_digest_stable_and_distinct(self):
        a = path_digest(("OP_A", "OP_B"))
        assert a == path_digest(("OP_A", "OP_B"))
        assert len(a) == 16
        assert a != path_digest(("OP_B", "OP_A"))
        assert path_digest(()) != path_digest(("OP_A",))


class TestDeltaFileRejections:
    """Each malformed version-2 file is refused with a DataError naming it."""

    def written(self, tmp_path, delta):
        file = tmp_path / "pair.delta"
        write_delta(file, delta)
        return file, bytearray(file.read_bytes())

    def rejects(self, file, raw, match):
        file.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"{file.name}.*{match}"):
            read_delta(file)

    def test_version_one_file(self, tmp_path):
        file = tmp_path / "old.delta"
        header = DELTA_HEADER.pack(DELTA_MAGIC, 1, 1, 1, 2, 2, 0, 1.0, 1)
        self.rejects(file, header + bytes(24), "version 1.*kv materialize")

    def test_bitmap_popcount_differs_from_count(self, tmp_path):
        full, base = random_pair(KVOracle(), np.random.default_rng(5))
        delta = sparsify(full, base, 0.5)
        file, raw = self.written(tmp_path, delta)
        partial = next(
            i for i in range(DELTA_HEADER.size, len(raw) - 4 * delta.entries) if raw[i] != 0xFF
        )
        raw[partial] = 0xFF
        self.rejects(file, raw, "bitmap marks")

    def test_nonzero_padding_bits(self, tmp_path):
        # 6 coordinates: one bitmap byte whose last two bits are padding
        coords = np.array([[0, 0, 0, 1], [0, 0, 2, 0]], dtype=np.int32)
        delta = SparseDelta((1, 1, 3, 2), 0, 1.0, coords, np.ones(2, dtype=np.float32))
        file, raw = self.written(tmp_path, delta)
        assert len(raw) == DELTA_HEADER.size + 1 + 4 * 2
        assert np.array_equal(read_delta(file).coords, coords)
        raw[DELTA_HEADER.size] |= 0x01
        self.rejects(file, raw, "padding")

    def test_wrong_length(self, tmp_path):
        full, base = random_pair(KVOracle(), np.random.default_rng(9))
        file, raw = self.written(tmp_path, sparsify(full, base, 0.9))
        self.rejects(file, raw + b"\x00" * 4, "expected")
        self.rejects(file, raw[:-1], "expected")


# ---------------------------------------------------------------------------
# CacheStore: mode contracts
# ---------------------------------------------------------------------------


class TestCacheStoreModes:
    def test_stateless_serves_position_correct_bases(self):
        graph = small_graph()
        store = CacheStore(graph, mode="stateless")
        kv, info = store.fetch(("OP_A", "OP_B"), "OP_C")
        n_prefix = len(store.prefix_tokens(("OP_A", "OP_B")))
        expected = store.oracle.base_segment(store.op_tokens("OP_C"), n_prefix)
        assert np.array_equal(kv.keys, expected.keys)
        assert info.flag == "hit"
        assert info.entries_applied == 0
        # memoized: same object on repeat, no residuals or fulls ever
        kv2, _ = store.fetch(("OP_A", "OP_B"), "OP_C")
        assert kv2 is kv
        assert store.residuals == {} and store.fulls == {}

    def test_stateful_computes_once_then_hits(self):
        graph = small_graph()
        store = CacheStore(graph, mode="stateful")
        kv, info = store.fetch(("OP_A",), "OP_B")
        assert info.flag == "fallback"
        expected = store.oracle.stateful_segment(
            store.prefix_tokens(("OP_A",)), store.op_tokens("OP_B")
        )
        assert np.array_equal(kv.keys, expected.keys)
        assert np.array_equal(kv.values, expected.values)
        kv2, info2 = store.fetch(("OP_A",), "OP_B")
        assert info2.flag == "hit"
        assert kv2 is kv
        assert store.residuals == {}

    def test_differential_empty_prefix_is_a_base_hit(self):
        graph = small_graph()
        store = CacheStore(graph, mode="differential")
        kv, info = store.fetch((), "OP_A")
        assert info.flag == "hit"
        expected = store.oracle.base_segment(store.op_tokens("OP_A"), 0)
        assert np.array_equal(kv.keys, expected.keys)
        assert np.array_equal(kv.values, expected.values)

    def test_differential_fallback_then_materialized_hit(self):
        graph = small_graph()
        store = CacheStore(graph, mode="differential", energy_target=1.0)
        path = ("OP_A", "OP_B")
        kv_fb, info_fb = store.fetch(path, "OP_C")
        assert info_fb.flag == "fallback"
        delta = store.insert_residual(path, "OP_C")
        assert delta.entries > 0
        kv_hit, info_hit = store.fetch(path, "OP_C")
        assert info_hit.flag == "hit"
        assert info_hit.entries_applied == delta.entries
        # at full energy the reconstruction is bitwise exact
        assert np.array_equal(kv_hit.keys, kv_fb.keys)
        assert np.array_equal(kv_hit.values, kv_fb.values)

    def test_differential_default_target_is_close(self):
        graph = small_graph()
        store = CacheStore(graph, mode="differential")  # 0.95
        path = ("OP_A", "OP_B")
        full, _ = store.fetch(path, "OP_D")
        store.insert_residual(path, "OP_D")
        rec, info = store.fetch(path, "OP_D")
        assert info.flag == "hit"
        base = store.base("OP_D", len(store.prefix_tokens(path)))
        err = np.linalg.norm(true_delta(full, rec))
        delta_norm = np.linalg.norm(true_delta(full, base))
        assert err <= np.sqrt(0.05) * delta_norm + 1e-6

    def test_path_validation(self):
        graph = small_graph()
        store = CacheStore(graph)
        with pytest.raises(DataError):
            store.fetch(("OP_A",), "OP_C")  # A -> C is not an edge
        with pytest.raises(DataError):
            store.fetch(("OP_X",), "OP_B")
        with pytest.raises(DataError):
            store.fetch((), "OP_X")

    def test_insert_residual_guards(self):
        graph = small_graph()
        with pytest.raises(DataError):
            CacheStore(graph, mode="stateless").insert_residual(("OP_A",), "OP_B")
        with pytest.raises(DataError):
            CacheStore(graph, mode="stateful").insert_residual(("OP_A",), "OP_B")
        store = CacheStore(graph, mode="differential")
        with pytest.raises(DataError):
            store.insert_residual((), "OP_A")

    def test_unknown_mode_rejected(self):
        with pytest.raises(DataError):
            CacheStore(small_graph(), mode="hybrid")

    def test_drop_residual(self):
        store = CacheStore(small_graph(), mode="differential")
        store.insert_residual(("OP_A",), "OP_B")
        assert store.drop_residual(("OP_A",), "OP_B") is True
        assert store.drop_residual(("OP_A",), "OP_B") is False
        _, info = store.fetch(("OP_A",), "OP_B")
        assert info.flag == "fallback"


# ---------------------------------------------------------------------------
# Footprint accounting
# ---------------------------------------------------------------------------


class TestFootprint:
    def test_counts_match_file_sizes(self, tmp_path):
        graph = small_graph()
        store = CacheStore(graph, mode="differential")
        store.fetch((), "OP_A")
        store.insert_residual(("OP_A",), "OP_B")
        store.insert_residual(("OP_A", "OP_B"), "OP_C")
        report = store.memory_footprint()
        assert report.n_bases == 3  # OP_A@0 plus bases pulled in by residuals
        assert report.n_residuals == 2
        assert report.n_fulls == 0

        save_store(store, tmp_path / "store")
        base_bytes = sum(f.stat().st_size for f in (tmp_path / "store" / "bases").glob("*.kv"))
        res_bytes = sum(
            f.stat().st_size for f in (tmp_path / "store" / "residuals").rglob("*.delta")
        )
        assert base_bytes == report.bases_bytes
        assert res_bytes == report.residuals_bytes
        assert report.total_bytes == report.bases_bytes + report.residuals_bytes

    def test_residual_entry_count_below_dense(self):
        # Decay concentrates the delta, so the kept set is always a strict
        # subset of the dense coefficients; for long segments the byte cost
        # dips below the dense file as well.
        oracle = KVOracle()
        rng = np.random.default_rng(44)
        for _ in range(50):
            full, base = random_pair(oracle, rng, max_prefix=50, max_op=30)
            delta = sparsify(full, base, 0.95)
            dense_elements = 2 * int(np.prod(full.shape))
            assert delta.entries < dense_elements

        prefix = list(rng.integers(0, 8192, size=60))
        op = list(rng.integers(0, 8192, size=65))
        full = oracle.stateful_segment(prefix, op)
        base = oracle.base_segment(op, 60)
        delta = sparsify(full, base, 0.95)
        assert delta.nbytes() < kv_file_nbytes(full)


# ---------------------------------------------------------------------------
# Store directory round-trip
# ---------------------------------------------------------------------------


def assert_same_entries(got, expected):
    for name in ("bases", "residuals", "fulls"):
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert set(mine) == set(theirs), name
        for key, entry in theirs.items():
            for field in ("keys", "values", "coords"):
                if hasattr(entry, field):
                    assert np.array_equal(getattr(mine[key], field), getattr(entry, field))


class TestStoreRoundTrip:
    def populate(self):
        graph = small_graph()
        store = CacheStore(graph, mode="differential", energy_target=0.97)
        store.fetch((), "OP_A")
        store.insert_residual(("OP_A",), "OP_B")
        store.insert_residual(("OP_A", "OP_B"), "OP_C")
        store.insert_residual(("OP_A", "OP_B"), "OP_D")
        return graph, store

    def test_round_trip_bitwise(self, tmp_path):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        back = load_store(where, graph)
        assert back.mode == store.mode
        assert back.energy_target == store.energy_target
        assert back.oracle.config == store.oracle.config
        assert set(back.bases) == set(store.bases)
        assert set(back.residuals) == set(store.residuals)
        for key, kv in store.bases.items():
            assert np.array_equal(back.bases[key].keys, kv.keys)
            assert np.array_equal(back.bases[key].values, kv.values)
        for key, delta in store.residuals.items():
            other = back.residuals[key]
            assert np.array_equal(other.coords, delta.coords)
            assert np.array_equal(other.values, delta.values)
        # reloaded store serves identical tensors
        a, _ = store.fetch(("OP_A",), "OP_B")
        b, _ = back.fetch(("OP_A",), "OP_B")
        assert np.array_equal(a.keys, b.keys)

    def test_save_is_deterministic(self, tmp_path):
        graph, store = self.populate()
        save_store(store, tmp_path / "one")
        save_store(store, tmp_path / "two")
        files_one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
        files_two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
        assert files_one == files_two
        for rel in files_one:
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    def test_stateful_store_round_trip(self, tmp_path):
        graph = small_graph()
        store = CacheStore(graph, mode="stateful")
        store.fetch(("OP_A",), "OP_B")
        store.fetch(("OP_A", "OP_B"), "OP_C")
        save_store(store, tmp_path / "sf")
        back = load_store(tmp_path / "sf", graph)
        assert set(back.fulls) == set(store.fulls)
        kv, info = back.fetch(("OP_A",), "OP_B")
        assert info.flag == "hit"
        assert np.array_equal(kv.keys, store.fulls[(("OP_A",), "OP_B")].keys)

    def test_load_rejects_digest_mismatch(self, tmp_path):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        manifest = where / "paths.tsv"
        lines = manifest.read_text().splitlines()
        first_digest = lines[0].split("\t")[0]
        tampered = [f"{first_digest}\tOP_B" if l.startswith(first_digest) else l for l in lines]
        manifest.write_text("\n".join(tampered) + "\n")
        with pytest.raises(DataError):
            load_store(where, graph)

    def test_failed_save_leaves_earlier_store(self, tmp_path, monkeypatch):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        before = {p: p.read_bytes() for p in where.rglob("*") if p.is_file()}
        saved = set(store.residuals)
        store.drop_residual(("OP_A", "OP_B"), "OP_C")
        written = []

        def failing_write_delta(path, delta):
            if written:
                raise OSError("disk full")
            written.append(path)
            write_delta(path, delta)

        monkeypatch.setattr(kvstore, "write_delta", failing_write_delta)
        with pytest.raises(OSError):
            save_store(store, where)
        assert written
        assert {p: p.read_bytes() for p in where.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
        back = load_store(where, graph)
        assert set(back.residuals) == saved

    def test_crash_between_renames_leaves_earlier_store_loadable(self, tmp_path, monkeypatch):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        store.drop_residual(("OP_A", "OP_B"), "OP_C")
        crash_after_rename(monkeypatch, 1)
        with pytest.raises(OSError):
            save_store(store, where)
        monkeypatch.undo()
        assert not where.exists()
        _, earlier = self.populate()
        assert_same_entries(load_store(where, graph), earlier)

        # the next save drops the earlier copy only once its own is in place
        kept = []
        real_rmtree = shutil.rmtree

        def watching_rmtree(path, *args, **kwargs):
            if Path(path).name == ".store.old":
                kept.append((where / "meta.json").is_file())
            return real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(kvstore.shutil, "rmtree", watching_rmtree)
        save_store(store, where)
        assert kept and all(kept)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
        assert_same_entries(load_store(where, graph), store)

    def test_save_replaces_earlier_snapshot(self, tmp_path):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        store.drop_residual(("OP_A", "OP_B"), "OP_C")
        save_store(store, where)
        assert set(load_store(where, graph).residuals) == set(store.residuals)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]

    def test_save_refuses_to_replace_a_foreign_directory(self, tmp_path, monkeypatch):
        graph, store = self.populate()
        (tmp_path / "notes.txt").write_text("keep me")
        with pytest.raises(DataError):
            save_store(store, tmp_path)
        assert (tmp_path / "notes.txt").read_text() == "keep me"
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(DataError):
            save_store(store, ".")  # the swap would move the working directory away
        assert work.is_dir() and not any(work.iterdir())

    def test_load_rejects_operation_missing_from_graph(self, tmp_path):
        graph, store = self.populate()
        save_store(store, tmp_path / "store")
        ops = {k: v for k, v in graph.operations.items() if k != "OP_D"}
        smaller = merge_workflows([
            Workflow(
                id="WF_ABC", name="abc", description="", patterns_must=(), patterns_should=(),
                nodes=tuple(ops), edges=(("OP_A", "OP_B"), ("OP_B", "OP_C")), operations=ops,
            )
        ])
        with pytest.raises(DataError, match="OP_D"):
            load_store(tmp_path / "store", smaller)

    @staticmethod
    def narrower(kv):
        return KVTensor(kv.keys[..., :-1].copy(), kv.values[..., :-1].copy(), kv.position_offset)

    def test_load_rejects_base_shape_mismatch(self, tmp_path):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        file = where / "bases" / "OP_A@0.kv"
        write_kv(file, self.narrower(read_kv(file)))
        with pytest.raises(DataError, match="shape"):
            load_store(where, graph)

    def test_load_rejects_full_shape_mismatch(self, tmp_path):
        graph = small_graph()
        store = CacheStore(graph, mode="stateful")
        store.fetch(("OP_A",), "OP_B")
        where = tmp_path / "store"
        save_store(store, where)
        (file,) = (where / "fulls").rglob("*.kv")
        write_kv(file, self.narrower(read_kv(file)))
        with pytest.raises(DataError, match="shape"):
            load_store(where, graph)

    def test_load_rejects_delta_shape_mismatch(self, tmp_path):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        file = where / "residuals" / path_digest(("OP_A",)) / "OP_B.delta"
        delta = read_delta(file)
        layers, heads, tokens, width = delta.dense_shape
        wrong = SparseDelta(
            (layers, heads, tokens, width + 2), delta.position_offset,
            delta.kept_energy_fraction, delta.coords, delta.values,
        )
        write_delta(file, wrong)
        with pytest.raises(DataError, match="shape"):
            load_store(where, graph)

    def test_load_rejects_missing_meta(self, tmp_path):
        with pytest.raises(DataError):
            load_store(tmp_path, small_graph())

    def test_meta_is_canonical_json(self, tmp_path):
        graph, store = self.populate()
        save_store(store, tmp_path / "s")
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        assert meta["mode"] == "differential"
        assert meta["energy_target"] == 0.97
        assert meta["oracle"]["lam"] == 0.8
