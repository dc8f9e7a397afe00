"""Tests for sparse residuals, cache modes, and the on-disk store layout."""

import json
import os
from dataclasses import replace
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
    MODES,
    STORE_HEADER,
    STORE_MAGIC,
    STORE_VERSION,
    CacheStore,
    FetchResult,
    MemoryReport,
    SparseDelta,
    kv_file_nbytes,
    load_store,
    read_delta,
    read_kv,
    reconstruct,
    save_store,
    sparsify,
    write_delta,
    write_kv,
)
from opflow.oracle import KVOracle, KVTensor, OracleConfig, tokenize
from opflow.pruning import PlanPolicy, TransitionStats, apply_plan, path_digest, plan_materialization


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
            np.concatenate([np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=np.float32)], axis=3),
            position_offset=0,
        )
        full = KVTensor(
            np.concatenate([np.ones(shape, dtype=np.float32), np.ones(shape, dtype=np.float32)], axis=3),
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
            np.concatenate([base.keys, base.values], axis=3), position_offset=base.position_offset + 1
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

    def test_flat_index_put_matches_coordinate_assignment(self):
        oracle = KVOracle()
        rng = np.random.default_rng(23)
        for target in (0.5, 0.95, 1.0):
            for _ in range(10):
                full, base = random_pair(oracle, rng)
                delta = sparsify(full, base, target)
                expected = np.concatenate([base.keys, base.values], axis=3)
                expected[tuple(delta.coords.T)] = delta.values
                rec = reconstruct(base, delta)
                got = np.concatenate([rec.keys, rec.values], axis=3)
                assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))
                assert delta.index.dtype == np.int32
                back = np.ravel_multi_index(tuple(delta.coords.T), delta.dense_shape)
                assert np.array_equal(back, delta.index)

    def test_result_is_one_contiguous_array_apart_from_the_base(self):
        oracle = KVOracle()
        full, base = random_pair(oracle, np.random.default_rng(29))
        rec = reconstruct(base, sparsify(full, base, 0.95))
        assert rec.states.flags.c_contiguous
        assert not np.shares_memory(rec.states, base.states)

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


class TestMatchesArgsortSelection:
    """``sparsify`` against the selection it replaced: a stable argsort of
    descending magnitudes, cut where the cumulative energy reaches the target."""

    @staticmethod
    def argsort_selection(full, base, energy_target):
        full_c = np.concatenate([full.keys, full.values], axis=3)
        base_c = np.concatenate([base.keys, base.values], axis=3)
        flat = (full_c.astype(np.float64) - base_c).ravel()
        nonzero = int(np.count_nonzero(flat))
        if nonzero == 0:
            return np.zeros(0, dtype=np.intp), 1.0
        order = np.argsort(-np.abs(flat), kind="stable")
        cumulative = np.cumsum(flat[order] ** 2)
        keep = nonzero
        if energy_target < 1.0:
            idx = int(np.searchsorted(cumulative, energy_target * cumulative[-1], side="left"))
            keep = min(idx + 1, nonzero)
        return np.sort(order[:keep]), float(cumulative[keep - 1] / cumulative[-1])

    def check(self, full, base, target):
        index, fraction = self.argsort_selection(full, base, target)
        delta = sparsify(full, base, target)
        assert np.array_equal(delta.index, index)
        full_c = np.concatenate([full.keys, full.values], axis=3).ravel()
        assert np.array_equal(delta.values.view(np.uint32), full_c[index].view(np.uint32))
        assert delta.kept_energy_fraction == fraction

    @pytest.mark.parametrize("target", [0.5, 0.9, 0.95, 0.99, 1.0])
    def test_random_pairs(self, target):
        oracle = KVOracle()
        rng = np.random.default_rng(int(target * 100) + 5)
        for _ in range(20):
            self.check(*random_pair(oracle, rng), target)

    @pytest.mark.parametrize("target", [0.3, 0.5, 0.7, 0.9, 0.95])
    def test_exact_tie_magnitudes(self, target):
        # Quarter-step bases plus deltas of a few magnitudes of both signs,
        # all exact in float32, so the cut-off falls inside a run of equal
        # magnitudes scattered over the tensor.
        rng = np.random.default_rng(int(target * 100))
        shape = (2, 2, 5, 4)
        steps = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0])

        def pair_of(base):
            return base, (base + rng.choice(steps, size=shape)).astype(np.float32)

        split_ties = 0
        for _ in range(20):
            base_k, full_k = pair_of((rng.integers(-8, 9, size=shape) / 4).astype(np.float32))
            base_v, full_v = pair_of((rng.integers(-8, 9, size=shape) / 4).astype(np.float32))
            base = KVTensor(np.concatenate([base_k, base_v], axis=3), position_offset=3)
            full = KVTensor(np.concatenate([full_k, full_v], axis=3), position_offset=3)
            self.check(full, base, target)
            delta = sparsify(full, base, target)
            magnitude = np.abs(true_delta(full, base)).ravel()
            cutoff = np.sort(magnitude)[::-1][delta.entries - 1]
            split_ties += np.count_nonzero(magnitude[delta.index] == cutoff) < np.count_nonzero(magnitude == cutoff)
        assert split_ties > 10  # the cut-off mostly keeps some of a tie, not all


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


class TestFileFormats:
    def test_kv_round_trip_bitwise(self, tmp_path):
        oracle = KVOracle()
        kv = oracle.base_segment([7, 99, 2048], 5)
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

    def test_kv_file_is_header_then_states(self, tmp_path):
        states = np.random.default_rng(37).normal(size=(2, 3, 5, 8)).astype(np.float32)
        file = tmp_path / "seg.kv"
        write_kv(file, KVTensor(states, 11))
        header = KV_HEADER.pack(kvstore.KV_MAGIC, 2, 2, 3, 5, 4, 11, kvstore.DTYPE_FLOAT32)
        assert file.read_bytes() == header + states.tobytes()

    def test_version_one_kv_file_is_rejected(self, tmp_path):
        file = tmp_path / "old.kv"
        header = KV_HEADER.pack(kvstore.KV_MAGIC, 1, 1, 1, 2, 2, 0, kvstore.DTYPE_FLOAT32)
        file.write_bytes(header + bytes(4 * 8))
        with pytest.raises(DataError, match="old.kv.*version 1.*kv materialize"):
            read_kv(file)

    def test_read_kv_is_a_read_only_view(self, tmp_path):
        file = tmp_path / "seg.kv"
        write_kv(file, KVOracle().base_segment([7, 99, 2048], 5))
        back = read_kv(file)
        assert not back.states.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.states[0, 0, 0, 0] = 1.0

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
        kv = oracle.base_segment([1, 2], 0)
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
        for index in ([2, 1], [1, 1]):
            with pytest.raises(DataError, match="row-major"):
                SparseDelta(
                    (1, 1, 2, 2), 0, 1.0, np.array(index, dtype=np.int32),
                    np.ones(2, dtype=np.float32),
                )

    @pytest.mark.parametrize("index", [[-1, 0], [2, 4]])
    def test_delta_rejects_out_of_bounds_index(self, index):
        index = np.array(index, dtype=np.int32)
        with pytest.raises(DataError, match="out-of-bounds"):
            SparseDelta((1, 1, 2, 2), 0, 1.0, index, np.ones(2, dtype=np.float32))

    def test_delta_rejects_shape_beyond_int32_index(self):
        empty = np.zeros(0, dtype=np.int32)
        with pytest.raises(DataError, match="int32"):
            SparseDelta((1 << 10, 1 << 10, 1 << 10, 2), 0, 1.0, empty, empty.astype(np.float32))

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
        index = np.array([1, 4], dtype=np.int32)
        delta = SparseDelta((1, 1, 3, 2), 0, 1.0, index, np.ones(2, dtype=np.float32))
        file, raw = self.written(tmp_path, delta)
        assert len(raw) == DELTA_HEADER.size + 1 + 4 * 2
        assert raw[DELTA_HEADER.size] == 0b01001000
        assert np.array_equal(read_delta(file).index, index)
        assert read_delta(file).coords.tolist() == [[0, 0, 0, 1], [0, 0, 2, 0]]
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


class TestStoredEntriesAreReadOnly:
    def test_computed_base_full_and_residual(self):
        graph = small_graph()
        stateful = CacheStore(graph, mode="stateful")
        full, _ = stateful.fetch(("OP_A",), "OP_B")
        store = CacheStore(graph, mode="differential")
        base, _ = store.fetch((), "OP_A")
        delta = store.insert_residual(("OP_A",), "OP_B")
        for array in (full.states, base.states, delta.index, delta.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.reshape(-1)[0] = 0
        assert stateful.fulls[(("OP_A",), "OP_B")] is full
        assert store.bases[("OP_A", 0)] is base

    def test_reconstruct_returns_a_writable_copy(self):
        store = CacheStore(small_graph(), mode="differential")
        store.insert_residual(("OP_A",), "OP_B")
        kv, info = store.fetch(("OP_A",), "OP_B")
        assert info.flag == "hit"
        assert kv.states.flags.writeable
        kv.states[...] = 0.0
        assert np.count_nonzero(next(iter(store.bases.values())).states)


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
        text, payloads = split_store_file(tmp_path / "store")
        sizes = {table: 0 for table in ("bases", "residuals", "fulls")}
        for row in json.loads(text)["entries"]:
            sizes[row["table"]] += row["size"]
        assert sizes == {
            "bases": report.bases_bytes,
            "residuals": report.residuals_bytes,
            "fulls": report.fulls_bytes,
        }
        assert report.total_bytes == report.bases_bytes + report.residuals_bytes
        file_size = (tmp_path / "store" / "store.bin").stat().st_size
        assert file_size == STORE_HEADER.size + len(text) + report.total_bytes
        assert len(payloads) == report.total_bytes

    def test_residual_entry_count_below_dense(self):
        # Decay concentrates the delta, so the kept set is always a strict
        # subset of the dense coefficients; for long segments the byte cost
        # dips below the dense file as well.
        oracle = KVOracle()
        rng = np.random.default_rng(44)
        for _ in range(50):
            full, base = random_pair(oracle, rng, max_prefix=50, max_op=30)
            delta = sparsify(full, base, 0.95)
            dense_elements = int(np.prod(full.states.shape))
            assert delta.entries < dense_elements

        prefix = list(rng.integers(0, 8192, size=60))
        op = list(rng.integers(0, 8192, size=65))
        full = oracle.stateful_segment(prefix, op)
        base = oracle.base_segment(op, 60)
        delta = sparsify(full, base, 0.95)
        assert delta.nbytes() < kv_file_nbytes(full)


# ---------------------------------------------------------------------------
# Store file round-trip
# ---------------------------------------------------------------------------


def assert_same_entries(got, expected):
    for name in ("bases", "residuals", "fulls"):
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert set(mine) == set(theirs), name
        for key, entry in theirs.items():
            for field in ("keys", "values", "coords"):
                if hasattr(entry, field):
                    assert np.array_equal(getattr(mine[key], field), getattr(entry, field))


def filled_store(graph, mode):
    """A store of ``mode`` that has served a three-op chain, with a residual
    per prefixed op in differential mode."""
    store = CacheStore(graph, mode=mode)
    for path, op_id in (((), "OP_A"), (("OP_A",), "OP_B"), (("OP_A", "OP_B"), "OP_C")):
        store.fetch(path, op_id)
        if mode == "differential" and path:
            store.insert_residual(path, op_id)
    return store


def split_store_file(where):
    """(manifest text, payload bytes) of ``where``'s store file."""
    raw = (where / "store.bin").read_bytes()
    _, _, size = STORE_HEADER.unpack_from(raw)
    return raw[STORE_HEADER.size : STORE_HEADER.size + size], raw[STORE_HEADER.size + size :]


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

    @pytest.mark.parametrize("mode", MODES)
    def test_kv_payloads_are_header_then_states(self, tmp_path, mode):
        store = filled_store(small_graph(), mode)
        save_store(store, tmp_path)
        text, payloads = split_store_file(tmp_path)
        rows = [row for row in json.loads(text)["entries"] if row["table"] != "residuals"]
        assert rows
        for row in rows:
            key = (row["op"], row["offset"]) if row["table"] == "bases" else (tuple(row["path"]), row["op"])
            kv = getattr(store, row["table"])[key]
            layers, heads, tokens, width = kv.states.shape
            header = KV_HEADER.pack(
                kvstore.KV_MAGIC, 2, layers, heads, tokens, width // 2, kv.position_offset, kvstore.DTYPE_FLOAT32
            )
            assert payloads[row["start"] : row["start"] + row["size"]] == header + kv.states.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_loaded_entries_are_read_only(self, tmp_path, mode):
        graph = small_graph()
        store = filled_store(graph, mode)
        save_store(store, tmp_path)
        back = load_store(tmp_path, graph)
        arrays = [kv.states for kv in (*back.bases.values(), *back.fulls.values())]
        arrays += [a for delta in back.residuals.values() for a in (delta.index, delta.values)]
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_save_is_deterministic(self, tmp_path):
        graph, store = self.populate()
        save_store(store, tmp_path / "one")
        save_store(store, tmp_path / "two")
        assert [p.name for p in (tmp_path / "one").iterdir()] == ["store.bin"]
        assert (tmp_path / "one" / "store.bin").read_bytes() == (tmp_path / "two" / "store.bin").read_bytes()

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

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_round_trips_bitwise(self, tmp_path, mode):
        graph = small_graph()
        store = filled_store(graph, mode)
        save_store(store, tmp_path)
        back = load_store(tmp_path, graph)
        assert_same_entries(back, store)
        for table in ("bases", "residuals", "fulls"):
            for key, entry in getattr(store, table).items():
                assert getattr(back, table)[key].position_offset == entry.position_offset
        assert back.memory_footprint() == store.memory_footprint()

    def test_failed_save_leaves_earlier_store(self, tmp_path, monkeypatch):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        before = (where / "store.bin").read_bytes()
        saved = set(store.residuals)
        store.drop_residual(("OP_A", "OP_B"), "OP_C")
        encoded = []
        real_kv_bytes = kvstore._kv_bytes

        def failing_kv_bytes(kv):  # the second payload fails to encode
            if encoded:
                raise OSError("disk full")
            encoded.append(kv)
            return real_kv_bytes(kv)

        monkeypatch.setattr(kvstore, "_kv_bytes", failing_kv_bytes)
        with pytest.raises(OSError, match="disk full"):
            save_store(store, where)
        assert encoded
        assert [p.name for p in where.iterdir()] == ["store.bin"]
        assert (where / "store.bin").read_bytes() == before
        assert set(load_store(where, graph).residuals) == saved

    def test_save_syncs_the_whole_file_before_the_swap(self, tmp_path, monkeypatch):
        graph, store = self.populate()
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace_file(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(kvstore.os, "fsync", fsync)
        monkeypatch.setattr(kvstore.os, "replace", replace_file)
        save_store(store, tmp_path)
        size = (tmp_path / "store.bin").stat().st_size
        assert calls == [("fsync", size), ("replace", ".store.bin.tmp", "store.bin")]

    def test_stale_temporary_file_is_ignored_then_overwritten(self, tmp_path):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        (where / ".store.bin.tmp").write_bytes(b"left by a killed save")
        assert_same_entries(load_store(where, graph), store)
        store.drop_residual(("OP_A", "OP_B"), "OP_C")
        save_store(store, where)
        assert [p.name for p in where.iterdir()] == ["store.bin"]
        assert_same_entries(load_store(where, graph), store)

    def test_save_replaces_earlier_snapshot(self, tmp_path):
        graph, store = self.populate()
        where = tmp_path / "store"
        save_store(store, where)
        store.drop_residual(("OP_A", "OP_B"), "OP_C")
        save_store(store, where)
        assert set(load_store(where, graph).residuals) == set(store.residuals)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
        assert [p.name for p in where.iterdir()] == ["store.bin"]

    def test_save_leaves_files_beside_the_store_untouched(self, tmp_path, monkeypatch):
        graph, store = self.populate()
        (tmp_path / "notes.txt").write_text("keep me")
        save_store(store, tmp_path)
        store.drop_residual(("OP_A", "OP_B"), "OP_C")
        save_store(store, tmp_path)
        assert (tmp_path / "notes.txt").read_text() == "keep me"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt", "store.bin"]
        assert_same_entries(load_store(tmp_path, graph), store)
        monkeypatch.chdir(tmp_path)
        save_store(store, ".")  # no directory moves, so the working one is fine
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt", "store.bin"]

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

    # Each tampered entry goes into the store dict directly, bypassing the
    # methods that would never produce it, and is saved like any other.

    @staticmethod
    def narrower(kv):
        return KVTensor(np.concatenate([kv.keys[..., :-1], kv.values[..., :-1]], axis=3), kv.position_offset)

    @staticmethod
    def rejects_after_save(tmp_path, graph, store, match):
        save_store(store, tmp_path / "store")
        with pytest.raises(DataError, match=match):
            load_store(tmp_path / "store", graph)

    def test_load_rejects_base_shape_mismatch(self, tmp_path):
        graph, store = self.populate()
        store.bases[("OP_A", 0)] = self.narrower(store.bases[("OP_A", 0)])
        self.rejects_after_save(tmp_path, graph, store, "shape")

    def test_load_rejects_full_shape_mismatch(self, tmp_path):
        graph = small_graph()
        store = CacheStore(graph, mode="stateful")
        store.fetch(("OP_A",), "OP_B")
        key = (("OP_A",), "OP_B")
        store.fulls[key] = self.narrower(store.fulls[key])
        self.rejects_after_save(tmp_path, graph, store, "shape")

    def test_load_rejects_delta_shape_mismatch(self, tmp_path):
        graph, store = self.populate()
        key = (("OP_A",), "OP_B")
        delta = store.residuals[key]
        layers, heads, tokens, width = delta.dense_shape
        wider = (layers, heads, tokens, width + 2)
        store.residuals[key] = SparseDelta(
            wider, delta.position_offset, delta.kept_energy_fraction,
            np.ravel_multi_index(tuple(delta.coords.T), wider).astype(np.int32), delta.values,
        )
        self.rejects_after_save(tmp_path, graph, store, "shape")

    @staticmethod
    def shifted(kv, by=3):
        return KVTensor(kv.states, kv.position_offset + by)

    def test_load_rejects_base_offset_other_than_its_filename(self, tmp_path):
        graph = small_graph()
        store = CacheStore(graph, mode="stateless")
        store.fetch(("OP_A",), "OP_B")
        key = ("OP_B", len(store.prefix_tokens(("OP_A",))))
        store.bases[key] = self.shifted(store.bases[key])
        self.rejects_after_save(tmp_path, graph, store, "offset")

    def test_load_rejects_full_offset_other_than_its_prefix(self, tmp_path):
        graph = small_graph()
        store = CacheStore(graph, mode="stateful")
        store.fetch(("OP_A",), "OP_B")
        key = (("OP_A",), "OP_B")
        store.fulls[key] = self.shifted(store.fulls[key])
        self.rejects_after_save(tmp_path, graph, store, "offset")

    def test_load_rejects_delta_offset_other_than_its_prefix(self, tmp_path):
        graph, store = self.populate()
        key = (("OP_A",), "OP_B")
        store.residuals[key] = replace(store.residuals[key], position_offset=store.residuals[key].position_offset + 3)
        self.rejects_after_save(tmp_path, graph, store, "offset")

    def test_load_rejects_missing_meta(self, tmp_path):
        with pytest.raises(DataError, match="not a cache store"):
            load_store(tmp_path, small_graph())

    def test_load_rejects_version_one_store_directory(self, tmp_path):
        (tmp_path / "meta.json").write_text('{"mode": "differential"}\n')
        (tmp_path / "bases").mkdir()
        with pytest.raises(DataError, match="earlier version.*kv materialize"):
            load_store(tmp_path, small_graph())

    def test_meta_is_canonical_json(self, tmp_path):
        graph, store = self.populate()
        save_store(store, tmp_path / "s")
        text, _ = split_store_file(tmp_path / "s")
        meta = json.loads(text)
        assert text == json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        assert meta["mode"] == "differential"
        assert meta["energy_target"] == 0.97
        assert meta["oracle"]["lam"] == 0.8


class TestStoreFileRejections:
    """Each malformed store file is refused with a DataError naming it."""

    @pytest.fixture
    def saved(self, tmp_path):
        graph, store = TestStoreRoundTrip().populate()
        save_store(store, tmp_path)
        text, payloads = split_store_file(tmp_path)
        return graph, tmp_path, json.loads(text), payloads

    @staticmethod
    def framed(manifest, payloads, magic=STORE_MAGIC, version=STORE_VERSION):
        text = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
        return STORE_HEADER.pack(magic, version, len(text)) + text + payloads

    @staticmethod
    def rejects(saved, raw, match):
        graph, where = saved[:2]
        (where / "store.bin").write_bytes(raw)
        with pytest.raises(DataError, match=f"store.bin: .*{match}"):
            load_store(where, graph)

    def test_reframed_file_loads(self, saved):
        graph, where, manifest, payloads = saved
        (where / "store.bin").write_bytes(self.framed(manifest, payloads))
        assert len(load_store(where, graph).residuals) == 3

    def test_wrong_magic(self, saved):
        self.rejects(saved, self.framed(saved[2], saved[3], magic=b"OFKV"), "not a cache store file")

    def test_unsupported_version(self, saved):
        for version in (1, 2):
            self.rejects(saved, self.framed(saved[2], saved[3], version=version), f"version {version}.*kv materialize")

    def test_negative_oracle_seed(self, saved):
        manifest = saved[2]
        manifest["oracle"]["seed"] = -1
        self.rejects(saved, self.framed(manifest, saved[3]), "seed must be a non-negative integer")

    @pytest.mark.parametrize("cut, match", [
        (lambda raw, manifest_end: raw[: STORE_HEADER.size - 1], "truncated store header"),
        (lambda raw, manifest_end: raw[: manifest_end - 1], "truncated manifest"),
        (lambda raw, manifest_end: raw[:-1], "truncated payloads"),
    ], ids=["header", "manifest", "payload"])
    def test_cut_short(self, saved, cut, match):
        raw = self.framed(saved[2], saved[3])
        self.rejects(saved, cut(raw, len(raw) - len(saved[3])), match)

    def test_trailing_bytes(self, saved):
        self.rejects(saved, self.framed(saved[2], saved[3] + b"\0"), "1 trailing bytes")

    def test_invalid_json(self, saved):
        self.rejects(saved, self.framed(b'{"mode": ', saved[3]), "invalid manifest JSON")

    @pytest.mark.parametrize("malform", [
        lambda row: row.pop("size"),
        lambda row: row.update(extra=1),
        lambda row: row.update(size=str(row["size"])),
        lambda row: row.update(size=-1),
        lambda row: row.update(offset=True),
        lambda row: row.update(op=7),
        lambda row: row.update(path=["OP_A", 3]),
        lambda row: row.update(path=["OP_A"]),  # a base has no prefix path
    ])
    def test_malformed_row(self, saved, malform):
        manifest = saved[2]
        malform(manifest["entries"][0])
        self.rejects(saved, self.framed(manifest, saved[3]), "malformed manifest row 0")

    def test_residual_row_with_an_offset(self, saved):
        manifest = saved[2]
        row = next(i for i, r in enumerate(manifest["entries"]) if r["table"] == "residuals")
        manifest["entries"][row]["offset"] = 0
        self.rejects(saved, self.framed(manifest, saved[3]), f"malformed manifest row {row}")

    def test_missing_entry_list(self, saved):
        manifest = saved[2]
        del manifest["entries"]
        self.rejects(saved, self.framed(manifest, saved[3]), "no entry list")

    def test_unknown_table(self, saved):
        manifest = saved[2]
        manifest["entries"][0]["table"] = "extras"
        self.rejects(saved, self.framed(manifest, saved[3]), "unknown table 'extras'")

    @pytest.mark.parametrize("mode, table", [("stateless", "residuals"), ("stateful", "bases")])
    def test_table_the_mode_never_uses(self, saved, mode, table):
        manifest = saved[2]
        manifest["mode"] = mode
        row = next(i for i, r in enumerate(manifest["entries"]) if r["table"] == table)
        self.rejects(saved, self.framed(manifest, saved[3]), f"row {row} is a {table} entry, which a {mode} store")

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_byte_ranges_not_contiguous(self, saved, shift):
        manifest = saved[2]
        manifest["entries"][1]["start"] += shift
        self.rejects(saved, self.framed(manifest, saved[3]), "row 1 starts at byte")

    def test_first_range_not_at_manifest_end(self, saved):
        manifest = saved[2]
        manifest["entries"][0]["start"] = 4
        self.rejects(saved, self.framed(manifest, saved[3]), "row 0 starts at byte 4, expected 0")

    def test_duplicate_key(self, saved):
        manifest = saved[2]
        first, second = manifest["entries"][:2]
        second.update(op=first["op"], offset=first["offset"])
        self.rejects(saved, self.framed(manifest, saved[3]), "row 1 repeats bases entry")


# ---------------------------------------------------------------------------
# In-context computation from carried prefix state
# ---------------------------------------------------------------------------


def layered_graph(levels=6, width=3):
    """Every op of one level feeds every op of the next; instructions differ
    in length so prefixes of equal depth differ in token count."""
    ops = {
        f"OP_{level}_{w}": f"level {level} variant {w} " + " ".join(f"w{level}x{w}x{k}" for k in range(2 + w))
        for level in range(levels)
        for w in range(width)
    }
    edges = tuple(
        (f"OP_{level}_{a}", f"OP_{level + 1}_{b}")
        for level in range(levels - 1)
        for a in range(width)
        for b in range(width)
    )
    wf = Workflow(
        id="WF_LAYERED", name="layered", description="", patterns_must=(), patterns_should=(),
        nodes=tuple(ops), edges=edges,
        operations={k: Operation(id=k, instruction=v) for k, v in ops.items()},
    )
    return merge_workflows([wf])


def random_chain(rng, levels=6, width=3):
    return [f"OP_{level}_{int(rng.integers(width))}" for level in range(levels)]


def one_pass(store, path, op_id):
    return store.oracle.stateful_segment(store.prefix_tokens(path), store.op_tokens(op_id))


def assert_bitwise(got, expected):
    assert got.position_offset == expected.position_offset
    assert np.array_equal(got.keys.view(np.uint32), expected.keys.view(np.uint32))
    assert np.array_equal(got.values.view(np.uint32), expected.values.view(np.uint32))


def spy_oracle(monkeypatch, oracle):
    """Token counts of every ``resume`` call (bases included), and every
    one-pass call."""
    resumed, one_pass_calls = [], []
    real_resume, real_one_pass = oracle.resume, oracle.stateful_segment

    def resume(carry, tokens, position_offset):
        resumed.append(len(tokens))
        return real_resume(carry, tokens, position_offset)

    def stateful_segment(prefix_tokens, op_tokens):
        one_pass_calls.append(len(prefix_tokens) + len(op_tokens))
        return real_one_pass(prefix_tokens, op_tokens)

    monkeypatch.setattr(oracle, "resume", resume)
    monkeypatch.setattr(oracle, "stateful_segment", stateful_segment)
    return resumed, one_pass_calls


class TestCarriedState:
    @pytest.mark.parametrize("mode", ["stateful", "differential"])
    def test_fetches_match_one_pass_reference(self, mode):
        graph = layered_graph()
        store = CacheStore(graph, mode=mode, energy_target=1.0)
        rng = np.random.default_rng(12)
        for _ in range(15):
            chain = random_chain(rng)
            for depth in range(1, len(chain)):
                path, op_id = tuple(chain[:depth]), chain[depth]
                kv, info = store.fetch(path, op_id)
                assert_bitwise(kv, one_pass(store, path, op_id))
                if mode == "differential" and info.flag == "fallback" and rng.random() < 0.5:
                    store.insert_residual(path, op_id)

    def test_loaded_store_serves_fallbacks_like_a_fresh_store(self, tmp_path):
        graph = layered_graph()
        warm = CacheStore(graph, mode="differential")
        rng = np.random.default_rng(5)
        chains = [random_chain(rng) for _ in range(12)]
        for chain in chains[:6]:
            for depth in range(1, len(chain)):
                warm.fetch(chain[:depth], chain[depth])
                warm.insert_residual(chain[:depth], chain[depth])
        save_store(warm, tmp_path / "store")
        loaded = load_store(tmp_path / "store", graph)
        fresh = CacheStore(graph, mode="differential")
        fallbacks = 0
        for chain in chains[6:]:
            for depth in range(len(chain) - 1, 0, -1):  # deepest first: no ancestor carries yet
                path, op_id = tuple(chain[:depth]), chain[depth]
                if (path, op_id) in loaded.residuals:
                    continue
                got, info = loaded.fetch(path, op_id)
                expected, _ = fresh.fetch(path, op_id)
                assert info.flag == "fallback"
                assert_bitwise(got, expected)
                assert_bitwise(got, one_pass(fresh, path, op_id))
                fallbacks += 1
        assert fallbacks > 10

    def test_chain_longer_than_the_recursion_limit(self):
        n = 1105
        ops = {f"OP_{i:04d}": f"step {i} of a long chain" for i in range(n)}
        nodes = tuple(ops)
        wf = Workflow(
            id="WF_LONG", name="long", description="", patterns_must=(), patterns_should=(),
            nodes=nodes, edges=tuple(zip(nodes, nodes[1:])),
            operations={k: Operation(id=k, instruction=v) for k, v in ops.items()},
        )
        graph = merge_workflows([wf])
        for mode in ("stateful", "differential"):
            store = CacheStore(graph, mode=mode)
            path, op_id = nodes[:-1], nodes[-1]
            kv, info = store.fetch(path, op_id)
            assert info.flag == "fallback"
            assert_bitwise(kv, one_pass(store, path, op_id))

    def test_fallback_then_insert_computes_the_pair_once(self, monkeypatch):
        store = CacheStore(layered_graph(), mode="differential")
        path, op_id = ("OP_0_0", "OP_1_2", "OP_2_1"), "OP_3_0"
        store.fetch(path[:-1], path[-1])  # leaves the carry after ``path``
        store.base(op_id, len(store.prefix_tokens(path)))  # bases resume from zeros too
        resumed, one_pass_calls = spy_oracle(monkeypatch, store.oracle)
        _, info = store.fetch(path, op_id)
        delta = store.insert_residual(path, op_id)
        assert info.flag == "fallback"
        assert resumed == [len(store.op_tokens(op_id))]
        assert one_pass_calls == []
        _, hit = store.fetch(path, op_id)
        assert hit.flag == "hit" and hit.entries_applied == delta.entries

    def test_insert_after_another_fallback_computes_again(self, monkeypatch):
        store = CacheStore(layered_graph(), mode="differential", energy_target=1.0)
        store.fetch(("OP_0_0",), "OP_1_0")
        store.fetch(("OP_0_0",), "OP_1_1")  # the memo now holds this pair
        store.base("OP_1_0", len(store.op_tokens("OP_0_0")))
        expected = one_pass(store, ("OP_0_0",), "OP_1_0")
        resumed, one_pass_calls = spy_oracle(monkeypatch, store.oracle)
        store.insert_residual(("OP_0_0",), "OP_1_0")
        assert resumed == [len(store.op_tokens("OP_1_0"))]
        assert one_pass_calls == []
        kv, info = store.fetch(("OP_0_0",), "OP_1_0")
        assert info.flag == "hit"
        assert_bitwise(kv, expected)

    def test_stateful_fetch_feeds_the_oracle_only_the_op(self, monkeypatch):
        store = CacheStore(layered_graph(levels=8), mode="stateful")
        chain = random_chain(np.random.default_rng(3), levels=8)
        store.fetch((), chain[0])
        resumed, one_pass_calls = spy_oracle(monkeypatch, store.oracle)
        for depth in range(1, len(chain)):
            before = len(resumed)
            store.fetch(chain[:depth], chain[depth])
            assert resumed[before:] == [len(store.op_tokens(chain[depth]))]
        assert one_pass_calls == []


# ---------------------------------------------------------------------------
# Running byte totals and per-path validation
# ---------------------------------------------------------------------------


def footprint_from_scratch(store):
    return MemoryReport(
        mode=store.mode,
        bases_bytes=sum(kv_file_nbytes(kv) for kv in store.bases.values()),
        residuals_bytes=sum(d.nbytes() for d in store.residuals.values()),
        fulls_bytes=sum(kv_file_nbytes(kv) for kv in store.fulls.values()),
        n_bases=len(store.bases),
        n_residuals=len(store.residuals),
        n_fulls=len(store.fulls),
    )


class TestRunningTotals:
    @pytest.mark.parametrize("mode", MODES)
    def test_totals_equal_a_from_scratch_sum(self, mode, tmp_path):
        graph = layered_graph(levels=5)
        store = CacheStore(graph, mode=mode)
        stats = TransitionStats(graph)
        rng = np.random.default_rng(MODES.index(mode))
        actions = ["fetch"] * 4 + ["save_load"]
        if mode == "differential":
            actions += ["insert", "insert", "drop", "plan"]
        for step in range(80):
            chain = random_chain(rng, levels=5)
            depth = int(rng.integers(0, len(chain)))
            path, op_id = tuple(chain[:depth]), chain[depth]
            action = actions[int(rng.integers(len(actions)))]
            if action == "fetch":
                store.fetch(path, op_id)
                stats.record(chain[: depth + 1])
            elif action == "insert" and path:
                # over an existing residual as often as not
                if store.residuals and rng.random() < 0.5:
                    path, op_id = list(store.residuals)[int(rng.integers(len(store.residuals)))]
                store.insert_residual(path, op_id)
            elif action == "drop" and store.residuals:
                store.drop_residual(*list(store.residuals)[int(rng.integers(len(store.residuals)))])
            elif action == "plan":
                apply_plan(store, plan_materialization(graph, stats, PlanPolicy(k=int(rng.integers(1, 3)))))
            elif action == "save_load":
                save_store(store, tmp_path / "store")
                store = load_store(tmp_path / "store", graph)
            assert store.memory_footprint() == footprint_from_scratch(store), (step, action)
        assert store.memory_footprint().total_bytes > 0

    def test_replacing_a_residual_at_another_target_keeps_one_count(self):
        store = CacheStore(small_graph(), mode="differential", energy_target=1.0)
        store.insert_residual(("OP_A",), "OP_B")
        store.energy_target = 0.5
        store.insert_residual(("OP_A",), "OP_B")
        assert store.memory_footprint() == footprint_from_scratch(store)
        assert store.memory_footprint().n_residuals == 1


class TestPathValidationOnce:
    def test_errors_match_on_a_known_path(self):
        fresh = CacheStore(small_graph())
        known = CacheStore(small_graph())
        known.fetch(("OP_A",), "OP_B")
        for path, op_id in [(("OP_A",), "OP_C"), (("OP_A",), "OP_X"), (("OP_A", "OP_B"), "OP_A")]:
            with pytest.raises(DataError) as first:
                fresh.fetch(path, op_id)
            with pytest.raises(DataError) as again:
                known.fetch(path, op_id)
            assert str(first.value) == str(again.value)

    def test_path_is_walked_once(self, monkeypatch):
        store = CacheStore(small_graph(), mode="stateless")
        walks = []
        real = store.prefix_tokens
        monkeypatch.setattr(store, "prefix_tokens", lambda path: walks.append(path) or real(path))
        for _ in range(3):
            for op_id in ("OP_C", "OP_D"):
                _, info = store.fetch(("OP_A", "OP_B"), op_id)
                assert info.prefix_tokens == len(real(("OP_A", "OP_B")))
        assert walks == [("OP_A", "OP_B")]


class TestOpTokensPerGraph:
    def test_second_store_on_the_graph_tokenizes_nothing(self, monkeypatch):
        graph = small_graph()
        texts = []
        monkeypatch.setattr(kvstore, "tokenize", lambda text: texts.append(text) or tokenize(text))
        CacheStore(graph, mode="stateful").fetch(("OP_A", "OP_B"), "OP_C")
        assert sorted(texts) == sorted(graph.operations[op].instruction for op in ("OP_A", "OP_B", "OP_C"))
        texts.clear()
        second = CacheStore(graph, mode="stateful")
        _, info = second.fetch(("OP_A", "OP_B"), "OP_C")
        assert texts == []
        assert second.op_tokens("OP_C") == tuple(tokenize(graph.operations["OP_C"].instruction))
        assert info.op_tokens == len(second.op_tokens("OP_C"))
        CacheStore(small_graph()).op_tokens("OP_C")  # an equal graph is another graph
        assert len(texts) == 1

    def test_tokens_cannot_be_changed(self):
        graph = small_graph()
        tokens = CacheStore(graph).op_tokens("OP_A")
        with pytest.raises(TypeError):
            tokens[0] = 0
        with pytest.raises(AttributeError):
            tokens.append(0)
        assert CacheStore(graph).op_tokens("OP_A") == tuple(tokenize(graph.operations["OP_A"].instruction))

    def test_entry_goes_with_the_graph(self):
        import gc
        import weakref

        graph = small_graph()
        CacheStore(graph).op_tokens("OP_A")
        assert graph in kvstore._OP_TOKENS
        gc.collect()  # graphs earlier tests left in reference cycles
        entries = len(kvstore._OP_TOKENS)
        graph_ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert graph_ref() is None
        assert len(kvstore._OP_TOKENS) == entries - 1
