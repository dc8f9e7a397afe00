"""What the benchmark reads from opflow, pinned.

``perfbench/tracing.py`` wraps functions by name and reads their arguments
and results; ``perfbench/workloads.py`` compares a store with its reload by
each residual's ``coords`` and ``values``.  These tests hold those names and
meanings:

* ``coords``: the (n, 4) int32 coordinates a residual changes, the nonzero
  codes (every coordinate at width 32);
* ``values``: the float32 amount at each, scale * code (at width 32 the full
  tensor's value, which replaces the base's);
* ``entries``: n, which a hit reports as ``entries_applied``;
* ``nbytes()``: the residual's file bytes.
"""

import importlib
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from opflow import kvstore
from opflow.kvstore import CacheStore, load_store, save_store, write_delta
from opflow.oracle import KVOracle

from test_kvstore import small_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

PAIRS = ((("OP_A",), "OP_B"), (("OP_A", "OP_B"), "OP_C"), (("OP_A", "OP_B"), "OP_D"))


def test_every_traced_name_resolves():
    for span, module, owner, name, _ in tracing.TARGETS:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        assert callable(getattr(holder, name)), span


def test_traced_arguments_keep_their_names():
    assert list(inspect.signature(kvstore.reconstruct).parameters)[:2] == ["base", "delta"]
    for method in (KVOracle.stateful_segment, KVOracle.base_segment):
        assert list(inspect.signature(method).parameters)[0] == "self"
    assert list(inspect.signature(KVOracle.stateful_segment).parameters)[1:3] == ["prefix_tokens", "op_tokens"]


@pytest.mark.parametrize("target", [0.95, 1.0])
def test_residual_fields_mean_what_the_benchmark_reads(tmp_path, target):
    store = CacheStore(small_graph(), "differential", energy_target=target)
    for path, op_id in PAIRS:
        delta = store.insert_residual(path, op_id)
        assert store.residuals[(path, op_id)] is delta
        kv, result = store.fetch(path, op_id)
        full = store.oracle.stateful_segment(store.prefix_tokens(path), store.op_tokens(op_id))
        base = store.bases[(op_id, result.prefix_tokens)]
        assert delta.dense_shape == kv.states.shape and delta.position_offset == result.prefix_tokens
        assert (delta.width == 32) == (target == 1.0)

        changed = delta.codes != 0 if delta.width < 32 else np.ones(delta.dense_shape, dtype=bool)
        coords, values = delta.coords, delta.values
        assert coords.dtype == np.int32 and coords.shape == (delta.entries, 4)
        assert np.array_equal(coords, np.argwhere(changed))
        at = tuple(coords.T)
        assert values.dtype == np.float32 and values.shape == (delta.entries,)
        if delta.width == 32:
            assert np.array_equal(values.view(np.uint32), full.states[at].view(np.uint32))
        else:
            expected = delta.scales[at[0], at[1]] * delta.codes[at].astype(np.float32)
            assert np.array_equal(values.view(np.uint32), expected.view(np.uint32))
            assert np.array_equal(kv.states[at], base.states[at] + values)

        assert result.flag == "hit" and result.entries_applied == delta.entries
        write_delta(tmp_path / "pair.delta", delta)
        assert delta.nbytes() == (tmp_path / "pair.delta").stat().st_size
        counts = tracing._insert_counts((store, path, op_id), {}, delta)
        assert counts["entries"] == delta.entries and counts["residual_bytes"] == delta.nbytes()
        assert tracing._reconstruct_counts((base, delta), {}, kv)["entries"] == delta.entries
    assert store.memory_footprint().residuals_bytes == sum(d.nbytes() for d in store.residuals.values())


def test_reload_compares_equal_and_one_changed_code_does_not(tmp_path):
    store = CacheStore(small_graph(), "differential")
    for path, op_id in PAIRS:
        store.insert_residual(path, op_id)
    save_store(store, tmp_path)
    back = load_store(tmp_path, store.graph)
    assert store.bases.keys() == back.bases.keys()
    assert workloads.stores_equal(store, back)
    for key, delta in store.residuals.items():
        assert np.array_equal(back.residuals[key].coords, delta.coords)
        assert np.array_equal(back.residuals[key].values, delta.values)

    key = PAIRS[0]
    delta = back.residuals[key]
    q = 2 ** (delta.width - 1) - 1
    nonzero, zero = np.flatnonzero(delta.codes)[0], np.flatnonzero(delta.codes == 0)[0]
    for flat, field in ((nonzero, "values"), (zero, "coords")):
        codes = delta.codes.copy()
        codes.reshape(-1)[flat] = -codes.reshape(-1)[flat] or q
        back.residuals[key] = replace(delta, codes=codes)
        assert not np.array_equal(getattr(back.residuals[key], field), getattr(delta, field))
        assert not workloads.stores_equal(store, back)
    back.residuals[key] = delta
    assert workloads.stores_equal(store, back)
