"""Differential KV-cache store.

Central idea: the in-context KV states of an operation differ from its
standalone ("base") states by a delta that is concentrated in a few entries,
because prefix influence decays along the segment.  Instead of storing one
full tensor per (prefix, operation) pair, the store keeps

* one **base** tensor per (operation, position offset), shared by every
  request, and
* one **sparse residual** per (prefix path, operation) pair, holding only the
  delta entries needed to reach an energy target.

Three serving modes share one interface:

* ``stateful``    — full tensors per (path, op), computed on first access.
* ``differential``— base + residual reconstruction, falling back to an
                    on-the-fly computation when no residual is materialized.
* ``stateless``   — bases only; position-correct but context-free.

An in-context computation (a stateful fill or a differential fallback)
resumes the oracle from the carry the store kept after the op's prefix, so
it costs the op's own tokens.  Carries are derived state: 2 KiB per prefix
path at the default oracle config, neither saved nor counted in
``memory_footprint``.

Residual coordinates index the combined space ``KVTensor.states``, of shape
(layers, heads, tokens, 2 * head_dim): the last axis holds key dims first,
value dims second.  A residual holds the full tensor's own float32 value at
each kept coordinate, a replacement rather than an addend: reconstruction
copies the base's states and puts those values at their flat indices, so it
reproduces the full tensor bit-for-bit on every kept coordinate, and at an
energy target of 1.0 the whole reconstruction is bitwise exact.

``save_store`` writes a store as one file, a JSON manifest followed by each
entry encoded as a KV or delta file, and swaps it in with one ``os.replace``;
``load_store`` reads it back one entry at a time.
"""

from __future__ import annotations

import json
import os
import struct
import weakref
from dataclasses import asdict, dataclass, fields
from math import prod
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError
from .graph import OperationGraph
from .oracle import KVOracle, KVTensor, OracleConfig, tokenize

KV_MAGIC = b"OFKV"
DELTA_MAGIC = b"OFDL"
KV_HEADER = struct.Struct("<4sIIIIIII")  # magic, version, L, H, T, d, offset, dtype
DELTA_HEADER = struct.Struct("<4sIIIIIIfI")  # magic, version, shape*4, offset, energy, count
DTYPE_FLOAT32 = 1
STORE_MAGIC = b"OFST"
STORE_VERSION = 3
STORE_HEADER = struct.Struct("<4sIQ")  # magic, version, manifest byte length
STORE_FILE = "store.bin"
_REBUILD = "rebuild the store with `opflow kv materialize`"

MODES = ("stateful", "differential", "stateless")

PathKey = tuple[str, ...]

# Op tokens per (immutable) graph, as tuples, shared by every store on it.
_OP_TOKENS: weakref.WeakKeyDictionary[OperationGraph, dict] = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# Sparse residuals
# ---------------------------------------------------------------------------


@dataclass
class SparseDelta:
    """Sparse difference between an in-context tensor and its base.

    ``dense_shape`` is the shape of ``KVTensor.states``,
    (layers, heads, tokens, 2 * head_dim); ``index`` is (n,) int32, each kept
    coordinate's flat row-major position in that shape, strictly increasing,
    and ``values`` (n,) float32, the full tensor's value at each.
    """

    dense_shape: tuple[int, int, int, int]
    position_offset: int
    kept_energy_fraction: float
    index: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.dense_shape) != 4 or self.dense_shape[3] % 2 != 0:
            raise DataError(f"bad combined shape {self.dense_shape}")
        size = prod(self.dense_shape)
        if size >= 2**31:
            raise DataError(f"combined shape {self.dense_shape} overflows an int32 index")
        if self.index.shape != (len(self.values),):
            raise DataError("coordinate/value count mismatch")
        if (np.diff(self.index) <= 0).any():
            raise DataError("delta coordinates must be distinct and in row-major order")
        if len(self.index) and (self.index[0] < 0 or self.index[-1] >= size):
            raise DataError("delta contains out-of-bounds coordinates")

    @property
    def coords(self) -> np.ndarray:
        """(n, 4) int32 coordinates of the kept entries, in row-major order."""
        return np.stack(np.unravel_index(self.index, self.dense_shape), axis=1).astype(np.int32)

    @property
    def entries(self) -> int:
        return len(self.values)

    def nbytes(self) -> int:
        """Exact serialized size: header, one bit per coordinate, the values."""
        return DELTA_HEADER.size + (prod(self.dense_shape) + 7) // 8 + 4 * self.entries


def sparsify(full: KVTensor, base: KVTensor, energy_target: float = 0.95) -> SparseDelta:
    """Keep the smallest set of largest-magnitude delta entries whose squared
    mass reaches ``energy_target`` of the total.

    Ties in magnitude are resolved in coordinate order (row-major), so the
    result is independent of anything but the two tensors.  With
    ``energy_target >= 1.0`` every nonzero entry is kept.  The residual lists
    the kept coordinates in row-major order with ``full``'s value at each,
    which replaces the base value on reconstruction.
    """
    if full.states.shape != base.states.shape:
        raise DataError(f"shape mismatch: full {full.states.shape} vs base {base.states.shape}")
    if full.position_offset != base.position_offset:
        raise DataError("full and base tensors disagree on position offset")
    if not (0.0 < energy_target):
        raise DataError(f"energy target must be positive, got {energy_target}")

    if not (np.isfinite(full.states).all() and np.isfinite(base.states).all()):
        raise DataError("KV tensors must be finite")
    flat = (full.states.astype(np.float64) - base.states).ravel()

    nonzero = int(np.count_nonzero(flat))
    kept_idx = np.zeros(0, dtype=np.intp)
    kept_fraction = 1.0
    if nonzero:
        magnitude = np.abs(flat)
        ranked = np.sort(magnitude)[::-1]
        cumulative = np.cumsum(ranked**2)
        total = cumulative[-1]
        keep = nonzero
        if energy_target < 1.0:
            idx = int(np.searchsorted(cumulative, energy_target * total, side="left"))
            keep = min(idx + 1, nonzero)
        # Every magnitude above the cut-off, then the first entries equal to
        # it in row-major order: the top ``keep`` of a stable ranking.
        cutoff = ranked[keep - 1]
        kept = magnitude > cutoff
        kept[np.flatnonzero(magnitude == cutoff)[: keep - int(np.count_nonzero(kept))]] = True
        kept_idx = np.flatnonzero(kept)
        kept_fraction = float(cumulative[keep - 1] / total)

    return SparseDelta(
        dense_shape=full.states.shape,
        position_offset=full.position_offset,
        kept_energy_fraction=kept_fraction,
        index=kept_idx.astype(np.int32),
        values=full.states.ravel()[kept_idx],
    )


def reconstruct(base: KVTensor, delta: SparseDelta) -> KVTensor:
    """Write a residual's values over a base tensor.  The base is not modified."""
    if base.states.shape != delta.dense_shape:
        raise DataError(
            f"delta shape {delta.dense_shape} does not match base {base.states.shape}"
        )
    if base.position_offset != delta.position_offset:
        raise DataError("base and delta disagree on position offset")
    states = base.states.copy()
    states.reshape(-1)[delta.index] = delta.values
    return KVTensor(states, base.position_offset)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def kv_file_nbytes(kv: KVTensor) -> int:
    """Exact serialized size of a dense KV tensor, header included."""
    return KV_HEADER.size + kv.states.nbytes


def _kv_bytes(kv: KVTensor) -> bytes:
    """Version 2: header (``d`` is head_dim), then ``states`` row-major over
    (layers, heads, tokens, 2 * head_dim)."""
    layers, heads, t, width = kv.states.shape
    header = KV_HEADER.pack(
        KV_MAGIC, 2, layers, heads, t, width // 2, kv.position_offset, DTYPE_FLOAT32
    )
    return b"".join((header, np.ascontiguousarray(kv.states, dtype="<f4")))


def _kv_from_bytes(raw: bytes, where: str | Path) -> KVTensor:
    if len(raw) < KV_HEADER.size:
        raise DataError(f"{where}: truncated KV file")
    magic, version, layers, heads, t, d, offset, dtype = KV_HEADER.unpack_from(raw)
    if magic != KV_MAGIC:
        raise DataError(f"{where}: not a KV tensor file")
    if version != 2:
        raise DataError(f"{where}: unsupported KV file version {version}; {_REBUILD}")
    if dtype != DTYPE_FLOAT32:
        raise DataError(f"{where}: unsupported dtype tag {dtype}")
    expected = KV_HEADER.size + layers * heads * t * 2 * d * 4
    if len(raw) != expected:
        raise DataError(f"{where}: expected {expected} bytes, found {len(raw)}")
    states = np.frombuffer(raw, dtype="<f4", offset=KV_HEADER.size).reshape(layers, heads, t, 2 * d)
    return KVTensor(states, offset)


def _delta_bytes(delta: SparseDelta) -> bytes:
    """Version 2: header, a row-major bitmap of the kept coordinates over
    ``dense_shape`` (zero-padded to whole bytes), then their float32 values."""
    header = DELTA_HEADER.pack(
        DELTA_MAGIC,
        2,
        *delta.dense_shape,
        delta.position_offset,
        delta.kept_energy_fraction,
        delta.entries,
    )
    kept = np.zeros(prod(delta.dense_shape), dtype=bool)
    kept[delta.index] = True
    return b"".join((header, np.packbits(kept).tobytes(), np.asarray(delta.values, dtype="<f4").tobytes()))


def _delta_from_bytes(raw: bytes, where: str | Path) -> SparseDelta:
    if len(raw) < DELTA_HEADER.size:
        raise DataError(f"{where}: truncated delta file")
    magic, version, *shape, offset, energy, count = DELTA_HEADER.unpack_from(raw)
    if magic != DELTA_MAGIC:
        raise DataError(f"{where}: not a residual delta file")
    if version != 2:
        raise DataError(f"{where}: unsupported delta file version {version}; {_REBUILD}")
    shape = tuple(shape)
    size = prod(shape)
    values_at = DELTA_HEADER.size + (size + 7) // 8
    expected = values_at + 4 * count
    if len(raw) != expected:
        raise DataError(f"{where}: expected {expected} bytes, found {len(raw)}")
    bits = np.unpackbits(np.frombuffer(raw[DELTA_HEADER.size : values_at], dtype=np.uint8))
    if bits[size:].any():
        raise DataError(f"{where}: nonzero padding bits after the coordinate bitmap")
    flat = np.flatnonzero(bits)
    if len(flat) != count:
        raise DataError(f"{where}: bitmap marks {len(flat)} coordinates, header says {count}")
    return SparseDelta(
        dense_shape=shape,
        position_offset=offset,
        kept_energy_fraction=energy,
        index=flat.astype(np.int32),
        values=np.frombuffer(raw, dtype="<f4", count=count, offset=values_at).astype(np.float32),
    )


def write_kv(path: str | Path, kv: KVTensor) -> None:
    Path(path).write_bytes(_kv_bytes(kv))


def read_kv(path: str | Path) -> KVTensor:
    return _kv_from_bytes(Path(path).read_bytes(), path)


def write_delta(path: str | Path, delta: SparseDelta) -> None:
    Path(path).write_bytes(_delta_bytes(delta))


def read_delta(path: str | Path) -> SparseDelta:
    return _delta_from_bytes(Path(path).read_bytes(), path)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass
class FetchResult:
    """Outcome metadata for one fetch: served from store or computed."""

    flag: str  # "hit" | "fallback"
    entries_applied: int
    prefix_tokens: int
    op_tokens: int


@dataclass
class MemoryReport:
    mode: str
    bases_bytes: int
    residuals_bytes: int
    fulls_bytes: int
    n_bases: int
    n_residuals: int
    n_fulls: int

    @property
    def total_bytes(self) -> int:
        return self.bases_bytes + self.residuals_bytes + self.fulls_bytes


class CacheStore:
    """KV cache for one operation graph, in one of the three serving modes.

    ``bases``, ``residuals`` and ``fulls`` are the stored tensors; callers
    read them and write only through the store's methods, which keep the
    running byte totals ``memory_footprint`` reports.  Fetched tensors are
    shared with the store and must not be modified: every array the store
    holds is read-only, whether computed or loaded.

    Besides the stored tensors the store keeps derived state that is neither
    saved nor counted in ``memory_footprint``: each validated prefix path's
    token count, and the oracle carry after each prefix path it has computed
    in context (a (layers, d_model) float64 array, 2 KiB per path at the
    default config), so an in-context computation costs only the op's own
    tokens.  A carry that is missing, as on a store ``load_store`` returned,
    is rebuilt from the longest prefix of the path that has one.  Op tokens
    are kept per graph, in ``_OP_TOKENS``.
    """

    def __init__(
        self,
        graph: OperationGraph,
        mode: str = "differential",
        oracle: KVOracle | None = None,
        energy_target: float = 0.95,
    ):
        if mode not in MODES:
            raise DataError(f"unknown mode {mode!r}; expected one of {MODES}")
        if not (0.0 < energy_target):
            raise DataError(f"energy target must be positive, got {energy_target}")
        self.graph = graph
        self.mode = mode
        self.oracle = oracle or KVOracle()
        self.energy_target = energy_target
        self.bases: dict[tuple[str, int], KVTensor] = {}
        self.residuals: dict[tuple[PathKey, str], SparseDelta] = {}
        self.fulls: dict[tuple[PathKey, str], KVTensor] = {}
        self._bytes = {"bases": 0, "residuals": 0, "fulls": 0}
        self._edges = set(graph.edge_list)
        self._op_tokens = _OP_TOKENS.setdefault(graph, {})
        self._prefix_len: dict[PathKey, int] = {}
        self._carries: dict[PathKey, np.ndarray] = {(): self.oracle.empty_carry()}
        self._last_fallback: tuple[tuple[PathKey, str], KVTensor] | None = None

    # -- token plumbing ------------------------------------------------------

    def op_tokens(self, op_id: str) -> tuple[int, ...]:
        cached = self._op_tokens.get(op_id)
        if cached is None:
            op = self.graph.operations.get(op_id)
            if op is None:
                raise DataError(f"unknown operation {op_id!r}")
            cached = tuple(tokenize(op.instruction))
            if not cached:
                raise DataError(f"operation {op_id!r} has an empty instruction")
            self._op_tokens[op_id] = cached
        return cached

    def prefix_tokens(self, path: Iterable[str]) -> list[int]:
        return [token for op_id in path for token in self.op_tokens(op_id)]

    def validate_path(self, path: PathKey, op_id: str) -> int:
        """Path ops must chain along graph edges and end on an edge into op.

        Returns the path's token count.  A path is walked once; later calls
        with it check only ``op_id`` and the edge into it.
        """
        n_prefix = self._prefix_len.get(path)
        if n_prefix is None:
            for node in path:
                if node not in self.graph.operations:
                    raise DataError(f"unknown operation {node!r} in prefix path")
        if op_id not in self.graph.operations:
            raise DataError(f"unknown operation {op_id!r}")
        chain = (path if n_prefix is None else path[-1:]) + (op_id,)
        for a, b in zip(chain, chain[1:]):
            if (a, b) not in self._edges:
                raise DataError(f"prefix step {a!r} -> {b!r} is not a graph edge")
        if n_prefix is None:
            n_prefix = len(self.prefix_tokens(path))
            self._prefix_len[path] = n_prefix
        return n_prefix

    # -- tensor production ----------------------------------------------------

    def _put(self, table: str, key, entry: KVTensor | SparseDelta) -> None:
        """Store an entry in ``bases``, ``residuals`` or ``fulls``, read-only,
        keeping that table's byte total."""
        for array in (entry.index, entry.values) if isinstance(entry, SparseDelta) else (entry.states,):
            array.setflags(write=False)
        entries = getattr(self, table)
        old = entries.get(key)
        if old is not None:
            self._bytes[table] -= _nbytes(old)
        entries[key] = entry
        self._bytes[table] += _nbytes(entry)

    def base(self, op_id: str, position_offset: int) -> KVTensor:
        key = (op_id, position_offset)
        kv = self.bases.get(key)
        if kv is None:
            kv = self.oracle.base_segment(self.op_tokens(op_id), position_offset)
            self._put("bases", key, kv)
        return kv

    def _carry(self, path: PathKey, n_prefix: int) -> np.ndarray:
        """The oracle carry after ``path`` (``n_prefix`` tokens), computing
        any missing ones from the longest prefix of it that has a carry (a
        loop: paths may be longer than the recursion limit)."""
        depth = len(path)
        while path[:depth] not in self._carries:
            depth -= 1
        carry = self._carries[path[:depth]]
        offset = n_prefix - sum(len(self.op_tokens(op)) for op in path[depth:])
        for i in range(depth, len(path)):
            tokens = self.op_tokens(path[i])
            _, carry = self.oracle.resume(carry, tokens, offset)
            offset += len(tokens)
            self._carries[path[: i + 1]] = carry
        return carry

    def _stateful(self, path: PathKey, op_id: str, n_prefix: int) -> KVTensor:
        """The op's in-context KV, resumed from the carry after ``path``."""
        kv, carry = self.oracle.resume(self._carry(path, n_prefix), self.op_tokens(op_id), n_prefix)
        self._carries[path + (op_id,)] = carry
        return kv

    def fetch(self, path: Iterable[str], op_id: str) -> tuple[KVTensor, FetchResult]:
        path = tuple(path)
        n_prefix = self.validate_path(path, op_id)
        n_op = len(self.op_tokens(op_id))

        if self.mode == "stateless":
            kv = self.base(op_id, n_prefix)
            return kv, FetchResult("hit", 0, n_prefix, n_op)

        if self.mode == "stateful":
            key = (path, op_id)
            kv = self.fulls.get(key)
            if kv is not None:
                return kv, FetchResult("hit", 0, n_prefix, n_op)
            kv = self._stateful(path, op_id, n_prefix)
            self._put("fulls", key, kv)
            return kv, FetchResult("fallback", 0, n_prefix, n_op)

        # differential
        if not path:
            kv = self.base(op_id, 0)
            return kv, FetchResult("hit", 0, n_prefix, n_op)
        delta = self.residuals.get((path, op_id))
        if delta is not None:
            kv = reconstruct(self.base(op_id, n_prefix), delta)
            return kv, FetchResult("hit", delta.entries, n_prefix, n_op)
        kv = self._stateful(path, op_id, n_prefix)
        self._last_fallback = ((path, op_id), kv)
        return kv, FetchResult("fallback", 0, n_prefix, n_op)

    def insert_residual(self, path: Iterable[str], op_id: str) -> SparseDelta:
        """Materialize the residual for a (path, op) pair (differential only).

        Right after a fallback fetch of the same pair, the fetched in-context
        tensor is reused rather than computed again.
        """
        if self.mode != "differential":
            raise DataError("residuals only exist in differential mode")
        path = tuple(path)
        n_prefix = self.validate_path(path, op_id)
        if not path:
            raise DataError("empty prefixes are served by base tensors, not residuals")
        key = (path, op_id)
        last = self._last_fallback
        full = last[1] if last is not None and last[0] == key else self._stateful(path, op_id, n_prefix)
        delta = sparsify(full, self.base(op_id, n_prefix), self.energy_target)
        self._put("residuals", key, delta)
        return delta

    def drop_residual(self, path: Iterable[str], op_id: str) -> bool:
        delta = self.residuals.pop((tuple(path), op_id), None)
        if delta is None:
            return False
        self._bytes["residuals"] -= delta.nbytes()
        return True

    # -- accounting -----------------------------------------------------------

    def memory_footprint(self) -> MemoryReport:
        """Byte totals matching the on-disk sizes of every stored tensor."""
        return MemoryReport(
            mode=self.mode,
            bases_bytes=self._bytes["bases"],
            residuals_bytes=self._bytes["residuals"],
            fulls_bytes=self._bytes["fulls"],
            n_bases=len(self.bases),
            n_residuals=len(self.residuals),
            n_fulls=len(self.fulls),
        )


def _nbytes(entry: KVTensor | SparseDelta) -> int:
    return entry.nbytes() if isinstance(entry, SparseDelta) else kv_file_nbytes(entry)


# ---------------------------------------------------------------------------
# Store files
# ---------------------------------------------------------------------------

_TABLES = ("bases", "residuals", "fulls")
_MODE_TABLES = {"differential": ("bases", "residuals"), "stateless": ("bases",), "stateful": ("fulls",)}
_ROW_FIELDS = {"table", "path", "op", "offset", "start", "size"}


def save_store(store: CacheStore, directory: str | Path) -> None:
    """Persist a store as ``<directory>/store.bin``: a header (magic, version,
    manifest length), a JSON manifest, then every entry's payload.

    The manifest holds the mode, energy target and oracle config, and one row
    per entry: its table, prefix path, op id, base offset (null outside
    ``bases``), and the byte start and size of its payload, counted from the
    manifest's end.  Payloads are KV version-2 files (bases, fulls) and delta
    version-2 files (residuals), so the payload bytes total
    ``memory_footprint().total_bytes``.  Payloads are encoded and written one
    at a time.

    The file is written, flushed and synced as ``.store.bin.tmp`` in the same
    directory, then moved over ``store.bin`` by one ``os.replace``: a reload
    gives exactly this store, and a failed or interrupted save leaves the
    earlier one as it was.  Other files in the directory are left alone.
    """
    rows, entries, start = [], [], 0
    for table in _TABLES:
        for key, entry in sorted(getattr(store, table).items()):
            path, op_id, offset = ((), *key) if table == "bases" else (*key, None)
            size = _nbytes(entry)
            rows.append(
                {"table": table, "path": list(path), "op": op_id, "offset": offset, "start": start, "size": size}
            )
            entries.append(entry)
            start += size
    manifest = {
        "energy_target": store.energy_target,
        "mode": store.mode,
        "oracle": asdict(store.oracle.config),
        "entries": rows,
    }
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    staging = root / f".{STORE_FILE}.tmp"
    try:
        with open(staging, "wb") as fh:  # truncates one left by a killed save
            fh.write(STORE_HEADER.pack(STORE_MAGIC, STORE_VERSION, len(text)))
            fh.write(text)
            for entry in entries:
                fh.write(_delta_bytes(entry) if isinstance(entry, SparseDelta) else _kv_bytes(entry))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(staging, root / STORE_FILE)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


def has_store(directory: str | Path) -> bool:
    """Whether ``directory`` holds a saved store, of this version or an
    earlier one (which ``load_store`` rejects)."""
    return any((Path(directory) / name).is_file() for name in (STORE_FILE, "meta.json"))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _manifest_rows(manifest, mode: str, file: Path) -> list[tuple[str, tuple, PathKey, str, int]]:
    """(table, key, path, op id, size) for each manifest row, checked."""
    rows = manifest.get("entries")
    if not isinstance(rows, list):
        raise DataError(f"{file}: manifest has no entry list")
    out, seen, start = [], set(), 0
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != _ROW_FIELDS:
            raise DataError(f"{file}: malformed manifest row {i}")
        table, path, op_id, offset = row["table"], row["path"], row["op"], row["offset"]
        if table not in _TABLES:
            raise DataError(f"{file}: manifest row {i} names unknown table {table!r}")
        if table not in _MODE_TABLES[mode]:
            raise DataError(f"{file}: manifest row {i} is a {table} entry, which a {mode} store never holds")
        is_base = table == "bases"
        if not (
            isinstance(path, list)
            and all(isinstance(node, str) for node in path)
            and isinstance(op_id, str)
            and _is_count(row["start"])
            and _is_count(row["size"])
            and (_is_count(offset) and not path if is_base else offset is None)
        ):
            raise DataError(f"{file}: malformed manifest row {i}")
        if row["start"] != start:
            raise DataError(f"{file}: manifest row {i} starts at byte {row['start']}, expected {start}")
        start += row["size"]
        path = tuple(path)
        key = (op_id, offset) if is_base else (path, op_id)
        if (table, key) in seen:
            raise DataError(f"{file}: manifest row {i} repeats {table} entry {key}")
        seen.add((table, key))
        out.append((table, key, path, op_id, row["size"]))
    return out


def load_store(directory: str | Path, graph: OperationGraph) -> CacheStore:
    """Read the store ``save_store`` wrote to ``directory``, one payload at a
    time, ignoring any other file there.

    Rejects with a ``DataError``: a missing ``store.bin`` (naming a store
    directory of an earlier version as such), a wrong magic or version, a
    header, manifest or payload cut short, trailing bytes, a manifest that is
    not JSON or has a malformed row, an unknown table or one the stored mode
    never uses, payload byte ranges that do not run on from the manifest's
    end, a repeated key, and entries
    off ``graph``'s edges, of another shape than the stored oracle config
    gives them, or at another position offset than their key names: a base's
    offset, or the prefix path's token count.
    """
    file = Path(directory) / STORE_FILE
    if not file.is_file():
        if has_store(directory):
            raise DataError(f"{directory}: a store directory from an earlier version; {_REBUILD}")
        raise DataError(f"{directory}: not a cache store (missing {STORE_FILE})")
    with open(file, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(STORE_HEADER.size)
        if len(head) < STORE_HEADER.size:
            raise DataError(f"{file}: truncated store header")
        magic, version, manifest_size = STORE_HEADER.unpack(head)
        if magic != STORE_MAGIC:
            raise DataError(f"{file}: not a cache store file")
        if version != STORE_VERSION:
            raise DataError(f"{file}: unsupported store file version {version}; {_REBUILD}")
        payloads_at = STORE_HEADER.size + manifest_size
        if payloads_at > file_size:
            raise DataError(f"{file}: truncated manifest")
        try:
            manifest = json.loads(fh.read(manifest_size))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{file}: invalid manifest JSON ({exc})") from exc
        try:
            ocfg = manifest["oracle"]
            config = OracleConfig(**{field.name: ocfg[field.name] for field in fields(OracleConfig)})
            store = CacheStore(
                graph,
                mode=manifest["mode"],
                oracle=KVOracle(config),
                energy_target=manifest["energy_target"],
            )
        except (KeyError, TypeError, DataError) as exc:
            raise DataError(f"{file}: malformed store metadata ({exc})") from exc

        rows = _manifest_rows(manifest, store.mode, file)
        end = payloads_at + sum(row[-1] for row in rows)
        if end > file_size:
            raise DataError(f"{file}: truncated payloads ({file_size} of {end} bytes)")
        if end < file_size:
            raise DataError(f"{file}: {file_size - end} trailing bytes after the payloads")

        for table, key, path, op_id, size in rows:
            where = f"{file}: {table} entry {key}"
            raw = fh.read(size)
            entry = _delta_from_bytes(raw, where) if table == "residuals" else _kv_from_bytes(raw, where)
            try:
                n_prefix = store.validate_path(path, op_id)
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from exc
            shape = entry.dense_shape if table == "residuals" else entry.states.shape
            expected = (config.layers, config.heads, len(store.op_tokens(op_id)), 2 * config.head_dim)
            if shape != expected:
                raise DataError(f"{where}: shape {shape} does not match the oracle config {expected}")
            offset = key[1] if table == "bases" else n_prefix
            if entry.position_offset != offset:
                raise DataError(f"{where}: position offset {entry.position_offset}, expected {offset}")
            store._put(table, key, entry)
    return store
