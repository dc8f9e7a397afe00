"""Differential KV-cache store.

Central idea: the in-context KV states of an operation differ from its
standalone ("base") states by a delta that a few bits per entry describe
well, because prefix influence decays along the segment.  Instead of storing
one full tensor per (prefix, operation) pair, the store keeps

* one **base** tensor per (operation, position offset), shared by every
  request, and
* one **quantized residual** per (prefix path, operation) pair: the delta in
  b-bit codes with one scale per (layer, head), at the smallest width whose
  hit lies within the energy target's bound.

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

A residual covers the combined space ``KVTensor.states``, of shape (layers,
heads, tokens, 2 * head_dim): the last axis holds key dims first, value dims
second.  With ``delta = full - base`` in float64, each (layer, head) has one
float32 scale ``max |delta| / q`` (rounded up) and every coordinate a code
``rint(delta / scale)`` in [-q, q], q = 2**(b - 1) - 1, for the smallest
width b in 2..8 whose float32 hit ``code * scale + base`` lies within
``sqrt(1 - energy_target) * ||delta||`` of ``full``; ``sparsify`` and
``verify_fetch`` check that bound with the one function ``_energy_check``.
``sparsify`` tries width 3, then 2 and 4..8, and skips the float32 hits of
widths 3 and 2 where a float64 error ``||code * scale - delta||`` proves
they fail; width 3's proves width 2's too, as width 2's grid lies in 3's.
Width 32 keeps the full tensor's float32 states, which replace the base's,
so at an energy target of 1.0 a hit is bitwise exact.  In memory a code
takes one byte (int8), so a hit is one conversion, one product and one sum;
in a file it takes b bits, which ``memory_footprint`` counts.

``save_store`` writes a store as one file, a JSON manifest followed by each
entry encoded as a KV or delta file, and swaps it in with one ``os.replace``;
``load_store`` reads it back one entry at a time.  Each fact is stored once,
and loaders reject non-finite states and earlier versions by name.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from math import prod
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NamedTuple

import numpy as np

from .errors import DataError, _write_atomic
from .graph import OperationGraph
from .oracle import KVOracle, KVTensor, OracleConfig, tokenize

KV_MAGIC = b"OFKV"
DELTA_MAGIC = b"OFDL"
KV_VERSION = 3
KV_HEADER = struct.Struct("<4sIIIIII")  # magic, version, L, H, T, d, offset
DELTA_VERSION = 4
DELTA_HEADER = struct.Struct("<4sIIIIIII")  # magic, version, shape*4, offset, width
WIDTHS = (2, 3, 4, 5, 6, 7, 8, 32)  # residual code widths in bits; sparsify takes the smallest that passes
_Q = np.array([2 ** (width - 1) - 1 for width in WIDTHS[:-1]], dtype=np.float64)[:, None, None]  # codes' bounds
STORE_MAGIC = b"OFST"
STORE_VERSION = 6
STORE_HEADER = struct.Struct("<4sIQ")  # magic, version, manifest byte length
STORE_FILE = "store.bin"
_REBUILD = "rebuild the store with `opflow kv materialize`"

MODES = ("stateful", "differential", "stateless")

PathKey = tuple[str, ...]


# ---------------------------------------------------------------------------
# Quantized residuals
# ---------------------------------------------------------------------------


@dataclass
class QuantizedDelta:
    """The difference between an in-context tensor and its base, quantized.

    ``codes`` has the shape of ``KVTensor.states``, (layers, heads, tokens,
    2 * head_dim), which ``dense_shape`` reads.  At a coded ``width`` b in
    2..8, ``scales`` holds one finite, non-negative float32 per (layer, head)
    and ``codes`` one int8 per coordinate in [-q, q], q = 2**(b - 1) - 1; a
    hit is ``codes * scale + base`` in float32.  At width 32, ``codes`` is
    the full tensor's float32 states, which replace the base's, and the
    scales are ones.  ``entries`` counts ``coords``.
    """

    position_offset: int
    width: int
    scales: np.ndarray
    codes: np.ndarray
    entries: int = field(init=False)

    def __post_init__(self):
        if self.width not in WIDTHS:
            raise DataError(f"code width {self.width} is not one of {WIDTHS}")
        coded = self.width < 32
        if self.codes.dtype != (np.int8 if coded else np.float32):
            raise DataError(f"delta codes must be {'int8' if coded else 'float32'}")
        if len(self.dense_shape) != 4 or self.dense_shape[3] % 2 != 0:
            raise DataError(f"bad combined shape {self.dense_shape}")
        size = prod(self.dense_shape)
        if size >= 2**31:
            raise DataError(f"combined shape {self.dense_shape} overflows an int32 coordinate")
        scales = self.scales
        if scales.shape != self.dense_shape[:2] or scales.dtype != np.float32:
            raise DataError(f"delta scales must be float32 of shape {self.dense_shape[:2]}")
        if not (0 <= scales.min(initial=0) and scales.max(initial=0) < np.inf and (coded or (scales == 1).all())):
            raise DataError("delta scales must be finite and non-negative (ones at width 32)")
        q = 2 ** (self.width - 1) - 1
        if coded and size and not (-q <= self.codes.min() and self.codes.max() <= q):
            raise DataError(f"delta codes must lie in [-{q}, {q}] at width {self.width}")
        self.entries = int(np.count_nonzero(self.codes)) if coded else size

    @property
    def dense_shape(self) -> tuple[int, int, int, int]:
        return self.codes.shape

    def _changed(self) -> np.ndarray:
        return self.codes != 0 if self.width < 32 else np.ones(self.dense_shape, dtype=bool)

    @property
    def coords(self) -> np.ndarray:
        """(n, 4) int32 coordinates the residual changes, in row-major order:
        the nonzero codes, or every coordinate at width 32."""
        return np.argwhere(self._changed()).astype(np.int32)

    @property
    def values(self) -> np.ndarray:
        """(n,) float32 amount at each of ``coords``: scale * code, or at
        width 32 the full tensor's value, which replaces the base's."""
        return (self.codes * self.scales[..., None, None])[self._changed()]

    def nbytes(self) -> int:
        """Exact serialized size: header, scales (none at width 32), then
        ``width`` bits per coordinate."""
        scales = 4 * self.scales.size if self.width < 32 else 0
        return DELTA_HEADER.size + scales + (prod(self.dense_shape) * self.width + 7) // 8


def sparsify(full: KVTensor, base: KVTensor, energy_target: float = 0.95) -> QuantizedDelta:
    """Quantize ``full - base`` at the smallest width whose hit keeps the
    fetch contract (see the module docstring); width 32 keeps ``full``'s
    states and always passes, so at an energy target of 1.0 a hit is exact.

    Widths 2 and 3 fail on most pairs, so their float32 hits are skipped
    where a float64 error proves they fail; a wider width goes straight to
    its hit, and ``_energy_check`` confirms the accepted one.  For n
    coordinates, ``||hit - full||`` falls short of ``e = ||codes * scale -
    delta||`` by at most a quarter of ``slack = 2**-20 * (||full|| +
    sqrt(n) * (3 * max |delta| + 2**-140))`` (the hit's float32 roundings
    and, for width 2, the grid gap below), and the float64 sums err by less
    than a factor ``1 + 2**-20``; so ``e > reach = (sqrt(bound) + slack) *
    (1 + 2**-18)`` proves a width fails.  Width 3 is tried first: width 2's
    grid {-s2, 0, s2} lies in width 3's {k * s3} but for ``|s2 - 3 * s3| <=
    2**-22 * max |delta|``, so width 3's ``e`` above ``reach`` proves width 2
    fails too.  A NaN ``e`` proves nothing.
    """
    if full.states.shape != base.states.shape:
        raise DataError(f"shape mismatch: full {full.states.shape} vs base {base.states.shape}")
    if full.position_offset != base.position_offset:
        raise DataError("full and base tensors disagree on position offset")
    if not (0.0 < energy_target):
        raise DataError(f"energy target must be positive, got {energy_target}")

    # A scale or hit that overflows fails the bound, leaving width 32.
    with np.errstate(over="ignore", invalid="ignore"):
        full64, delta = _delta64(full.states, base.states)
        peak = np.abs(delta).max(axis=(2, 3), initial=0.0)
        # Any non-finite input shows in the float64 difference (inf - inf is nan).
        if not np.isfinite(peak).all():
            raise DataError("KV tensors must be finite")
        # Every width's scales, rounded up where float32 rounded down: no code exceeds q.
        scales = (peak / _Q).astype(np.float32)
        scales = np.where(scales * _Q < peak, np.nextafter(scales, np.float32(np.inf)), scales)
        scales64 = scales.astype(np.float64)
        divisors = np.where(scales64 > 0, scales64, 1)[..., None, None]
        check, bound = _energy_check(full64, delta, energy_target)
        norm_full = np.sqrt(np.dot(full64.ravel(), full64.ravel()))
        slack = 2.0**-20 * (norm_full + np.sqrt(delta.size) * (3 * peak.max(initial=0.0) + 2.0**-140))
        reach = (np.sqrt(bound) + slack) * (1 + 2.0**-18)

        def trial(i: int) -> tuple[np.ndarray, float]:  # codes and e of width WIDTHS[i]
            x = delta / divisors[i]
            codes, error = np.rint(x), 0.0
            if i < 2:  # wider widths pass on most pairs, so they go straight to the hit
                x -= codes
                rows = np.einsum("lhtd,lhtd->lh", x, x)
                error = np.sqrt(np.dot(rows.ravel(), scales64[i].ravel() ** 2))
            return codes.astype(np.int8), error

        first = trial(1)
        for i in range(1 if first[1] > reach else 0, len(WIDTHS) - 1):
            codes, error = first if i == 1 else trial(i)
            if error > reach:  # proven to fail
                continue
            if check(_dequantize(codes, scales[i], base.states)):
                return _sparsified(full.position_offset, WIDTHS[i], scales[i], codes)
    return _sparsified(full.position_offset, 32, np.ones(full.states.shape[:2], dtype=np.float32), full.states)


def _sparsified(offset: int, width: int, scales: np.ndarray, codes: np.ndarray) -> QuantizedDelta:
    """``sparsify``'s result without ``QuantizedDelta``'s checks, which its arithmetic
    keeps: rounded-up scales hold every code in [-q, q], and an accepted width's are finite."""
    delta = object.__new__(QuantizedDelta)  # fields set in declaration order, so the instance shares its keys
    delta.position_offset, delta.width, delta.scales, delta.codes = offset, width, scales, codes
    delta.entries = int(np.count_nonzero(codes)) if width < 32 else codes.size
    return delta


def _delta64(full: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``full`` and ``full - base`` in float64: the one delta both sides of
    the fetch bound, ``sparsify`` and ``verify_fetch``, read."""
    full64, delta = full.astype(np.float64), base.astype(np.float64)
    np.subtract(full64, delta, out=delta)
    return full64, delta


def _dequantize(codes: np.ndarray, scales: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``codes * scale + base`` in float32, in one fresh array."""
    states = codes.astype(np.float32)
    states *= scales[..., None, None]
    states += base
    return states


def _energy_check(
    full: np.ndarray, delta: np.ndarray, energy_target: float
) -> tuple[Callable[[np.ndarray], bool], float]:
    """The differential fetch contract in float64, for ``sparsify`` and
    ``verify_fetch``, and its bound ``(1 - energy_target) * ||delta||**2``
    (0 from a target of 1.0): with ``delta = full - base``, the check is
    whether a hit's ``states`` lie within it, ``||states - full||**2 <=
    bound``.  Compared squared with no slack, so at a target of 1.0 only
    ``full`` passes; a NaN error fails."""
    bound = max(0.0, 1.0 - energy_target) * float(np.dot(delta.ravel(), delta.ravel()))

    def within(states: np.ndarray) -> bool:
        error = states.astype(np.float64).ravel()
        error -= full.ravel()
        return bool(np.dot(error, error) <= bound)

    return within, bound


def reconstruct(base: KVTensor, delta: QuantizedDelta) -> KVTensor:
    """A residual's hit: ``codes * scale + base`` in float32, or at width 32
    a copy of the stored states.  The base is not modified."""
    if base.states.shape != delta.dense_shape:
        raise DataError(f"delta shape {delta.dense_shape} does not match base {base.states.shape}")
    if base.position_offset != delta.position_offset:
        raise DataError("base and delta disagree on position offset")
    return _hit(base.states, delta)


def _hit(base: np.ndarray, delta: QuantizedDelta) -> KVTensor:
    """``reconstruct``'s kernel, unchecked: a store's residual hit runs it."""
    states = delta.codes.copy() if delta.width == 32 else _dequantize(delta.codes, delta.scales, base)
    return KVTensor(states, delta.position_offset)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def kv_file_nbytes(kv: KVTensor) -> int:
    """Exact serialized size of a dense KV tensor, header included."""
    return KV_HEADER.size + kv.states.nbytes


def _kv_bytes(kv: KVTensor) -> bytes:
    """Header (``d`` is head_dim), then float32 ``states`` row-major over
    (layers, heads, tokens, 2 * head_dim)."""
    layers, heads, t, width = kv.states.shape
    header = KV_HEADER.pack(KV_MAGIC, KV_VERSION, layers, heads, t, width // 2, kv.position_offset)
    return b"".join((header, np.ascontiguousarray(kv.states, dtype="<f4")))


def _kv_from_bytes(raw: bytes, where: str | Path) -> KVTensor:
    if len(raw) < KV_HEADER.size:
        raise DataError(f"{where}: truncated KV file")
    magic, version, layers, heads, t, d, offset = KV_HEADER.unpack_from(raw)
    if magic != KV_MAGIC:
        raise DataError(f"{where}: not a KV tensor file")
    if version != KV_VERSION:
        raise DataError(f"{where}: unsupported KV file version {version}; {_REBUILD}")
    expected = KV_HEADER.size + layers * heads * t * 2 * d * 4
    if len(raw) != expected:
        raise DataError(f"{where}: expected {expected} bytes, found {len(raw)}")
    states = np.frombuffer(raw, dtype="<f4", offset=KV_HEADER.size).reshape(layers, heads, t, 2 * d)
    if not np.isfinite(states).all():
        raise DataError(f"{where}: non-finite KV states")
    return KVTensor(states, offset)


def _delta_bytes(delta: QuantizedDelta) -> bytes:
    """Header, then at a coded width the float32 scales over (layers, heads)
    and each code's low ``width`` bits (two's complement), row-major, most
    significant bit first, zero-padded to whole bytes; at width 32 the
    float32 states."""
    width = delta.width
    header = DELTA_HEADER.pack(DELTA_MAGIC, DELTA_VERSION, *delta.codes.shape, delta.position_offset, width)
    if width == 32:
        return header + np.ascontiguousarray(delta.codes, dtype="<f4").tobytes()
    # Each code's low bits move as one record: a strided uint8 copy is 10x slower.
    bits = np.unpackbits(delta.codes.view(np.uint8).ravel()).reshape(-1, 8)[:, 8 - width :]
    packed = np.packbits(bits.view(f"V{width}").copy().view(np.uint8))
    return b"".join((header, delta.scales.astype("<f4").tobytes(), packed.tobytes()))


def _delta_from_bytes(raw: bytes, where: str | Path) -> QuantizedDelta:
    if len(raw) < DELTA_HEADER.size:
        raise DataError(f"{where}: truncated delta file")
    magic, version, *shape, offset, width = DELTA_HEADER.unpack_from(raw)
    if magic != DELTA_MAGIC:
        raise DataError(f"{where}: not a residual delta file")
    if version != DELTA_VERSION:
        raise DataError(f"{where}: unsupported delta file version {version}; {_REBUILD}")
    if width not in WIDTHS:
        raise DataError(f"{where}: code width {width} is not one of {WIDTHS}")
    shape, size, coded = tuple(shape), prod(shape), width < 32
    codes_at = DELTA_HEADER.size + 4 * shape[0] * shape[1] * coded
    expected = codes_at + (size * width + 7) // 8
    if len(raw) != expected:
        raise DataError(f"{where}: expected {expected} bytes, found {len(raw)}")
    if not coded:
        scales, codes = np.ones(shape[:2], dtype=np.float32), np.frombuffer(raw, dtype="<f4", offset=codes_at)
        if not np.isfinite(codes).all():
            raise DataError(f"{where}: non-finite KV states")
    else:
        # Copied, so that the scales do not keep the raw bytes alive.
        scales = np.frombuffer(raw, dtype="<f4", count=shape[0] * shape[1], offset=DELTA_HEADER.size).copy()
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8, offset=codes_at))
        if bits[size * width :].any():
            raise DataError(f"{where}: nonzero padding bits after the codes")
        # Each code's bits at the top of a byte (moved as one record, as in
        # ``_delta_bytes``), then an arithmetic shift down sign-extends them.
        octets = np.zeros((size, 8), dtype=np.uint8)
        octets[:, :width].view(f"V{width}")[:, 0] = bits[: size * width].view(f"V{width}")
        codes = np.packbits(octets).view(np.int8) >> (8 - width)
    scales, codes = scales.reshape(shape[:2]), codes.reshape(shape)
    try:
        return QuantizedDelta(offset, width, scales, codes)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc


def write_kv(path: str | Path, kv: KVTensor) -> None:
    _write_atomic({path: lambda fh: fh.write(_kv_bytes(kv))})


def read_kv(path: str | Path) -> KVTensor:
    return _kv_from_bytes(Path(path).read_bytes(), path)


def write_delta(path: str | Path, delta: QuantizedDelta) -> None:
    _write_atomic({path: lambda fh: fh.write(_delta_bytes(delta))})


def read_delta(path: str | Path) -> QuantizedDelta:
    return _delta_from_bytes(Path(path).read_bytes(), path)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class FetchResult(NamedTuple):
    """The record of one fetch: the (path, op) pair, whether the store served
    it ("hit") or computed it ("fallback"), the residual entries applied, the
    prefix and op token counts, and the fetched tensor's file bytes.  It never
    holds the tensor: a differential hit is a fresh reconstruction."""

    path: PathKey
    op: str
    flag: str  # "hit" | "fallback"
    entries_applied: int
    prefix_tokens: int
    op_tokens: int
    nbytes: int


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

    The store owns its mode's rules: what ``fetch`` serves (a differential
    fallback always has a prefix: an empty one is served by a base), the
    oracle and energy target, and the fetch contract ``verify_fetch`` checks.

    A stored entry is checked once, when it enters the store (its path,
    shape and offset; for a loaded one, its ops' texts too), so a hit on a
    stored key (a residual, a stateful full, or a differential base at
    offset 0) is one lookup, one kernel and one record.  A fetch that
    computes checks its path, as does any stateless one: a base key (op,
    offset) does not name the path.

    Besides the stored tensors the store keeps derived state that is neither
    saved nor counted in ``memory_footprint``: each op's tokens, each
    validated prefix path's token count, and the oracle carry after each
    prefix path it has computed in context (a (layers, d_model) float64
    array, 2 KiB per path at the default config), so an in-context
    computation costs only the op's own tokens; a base at offset 0 keeps its
    carry too, the one-op path's.  A carry that is missing, as on a store
    ``load_store`` returned, is rebuilt from the longest prefix of the path
    that has one.  No in-context KV is kept beyond the stored tensors and the
    last fallback's.
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
        self.residuals: dict[tuple[PathKey, str], QuantizedDelta] = {}
        self.fulls: dict[tuple[PathKey, str], KVTensor] = {}
        self._bytes = {"bases": 0, "residuals": 0, "fulls": 0}
        self._op_tokens: dict[str, tuple[int, ...]] = {}
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
        with it check only ``op_id`` and the edge into it (one set lookup).
        """
        n_prefix = self._prefix_len.get(path)
        if n_prefix is not None and path and (path[-1], op_id) in self.graph._edge_set:
            return n_prefix
        self.graph.check_chain((path if n_prefix is None else path[-1:]) + (op_id,), "prefix path")
        if n_prefix is None:
            n_prefix = self._prefix_len[path] = len(self.prefix_tokens(path))
        return n_prefix

    # -- tensor production ----------------------------------------------------

    def _put(self, table: str, key, entry: KVTensor | QuantizedDelta) -> None:
        """Store an entry in ``bases``, ``residuals`` or ``fulls``, read-only,
        keeping that table's byte total."""
        for array in (entry.scales, entry.codes) if isinstance(entry, QuantizedDelta) else (entry.states,):
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
            kv, carry = self._resume(self._carries[()], op_id, position_offset)
            if not position_offset:  # the carry after the one-op path, bit for bit
                self._carries[(op_id,)] = carry
            self._put("bases", key, kv)
        return kv

    def _resume(self, carry: np.ndarray, op_id: str, offset: int) -> tuple[KVTensor, np.ndarray]:
        """``oracle.resume`` of the op's tokens from ``carry`` at ``offset``,
        its tensor and carry read-only."""
        kv, carry = self.oracle.resume(carry, self.op_tokens(op_id), offset)
        kv.states.setflags(write=False)
        carry.setflags(write=False)
        return kv, carry

    def _carry(self, path: PathKey, n_prefix: int) -> np.ndarray:
        """The oracle carry after ``path`` (``n_prefix`` tokens), computing
        any missing ones from the longest prefix of it that has a carry (a
        loop: paths may be longer than the recursion limit)."""
        depth = len(path)
        while path[:depth] not in self._carries:
            depth -= 1
        offset = n_prefix - sum(len(self.op_tokens(op)) for op in path[depth:])
        for i in range(depth, len(path)):
            self._stateful(path[:i], path[i], offset)
            offset += len(self.op_tokens(path[i]))
        return self._carries[path]

    def _stateful(self, path: PathKey, op_id: str, n_prefix: int) -> KVTensor:
        """The op's in-context KV, resumed from the carry after ``path``."""
        kv, self._carries[path + (op_id,)] = self._resume(self._carry(path, n_prefix), op_id, n_prefix)
        return kv

    def fetch(self, path: Iterable[str], op_id: str) -> tuple[KVTensor, FetchResult]:
        """The op's KV after ``path`` and the fetch's record; a hit reads only its stored entry."""
        path = tuple(path)
        key, flag, entries = (path, op_id), "hit", 0
        if self.mode == "stateful":
            kv = self.fulls.get(key)
        elif self.mode == "stateless":
            kv = self.base(op_id, self.validate_path(path, op_id))
        elif not path:  # differential: an empty prefix is served by a base
            kv = self.bases.get((op_id, 0)) or self.base(op_id, self.validate_path(path, op_id))
        elif (delta := self.residuals.get(key)) is not None:
            kv, entries = _hit(self.base(op_id, delta.position_offset).states, delta), delta.entries
        else:
            kv = None
        if kv is None:
            kv, flag = self._stateful(path, op_id, self.validate_path(path, op_id)), "fallback"
            if self.mode == "stateful":
                self._put("fulls", key, kv)
            else:
                self._last_fallback = (key, kv)
        return kv, FetchResult(path, op_id, flag, entries, kv.position_offset, kv.states.shape[2], kv_file_nbytes(kv))

    def insert_residual(self, path: Iterable[str], op_id: str) -> QuantizedDelta:
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

    def verify_fetch(self, kv: KVTensor, result: FetchResult) -> bool:
        """Whether ``kv``, fetched as ``result`` records, keeps the mode's
        contract: a differential hit on a non-empty path lies within
        ``sqrt(max(0, 1 - energy_target)) * ||full - base||`` of the oracle's
        one-pass ``full`` (``_energy_check``, the check ``sparsify`` chose its
        width by); any other fetch equals ``full`` (stateless: the base)
        bitwise."""
        path, op_id, flag = result.path, result.op, result.flag
        prefix = self.prefix_tokens(path)
        op_tokens = self.op_tokens(op_id)
        if self.mode == "stateless":
            return np.array_equal(kv.states, self.oracle.base_segment(op_tokens, len(prefix)).states)
        full = self.oracle.stateful_segment(prefix, op_tokens)
        if self.mode == "differential" and flag == "hit" and path:
            base = self.oracle.base_segment(op_tokens, len(prefix))
            return _energy_check(*_delta64(full.states, base.states), self.energy_target)[0](kv.states)
        return np.array_equal(kv.states, full.states)

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


def _nbytes(entry: KVTensor | QuantizedDelta) -> int:
    return entry.nbytes() if isinstance(entry, QuantizedDelta) else kv_file_nbytes(entry)


# ---------------------------------------------------------------------------
# Store files
# ---------------------------------------------------------------------------

_TABLES = ("bases", "residuals", "fulls")
_MODE_TABLES = {"differential": ("bases", "residuals"), "stateless": ("bases",), "stateful": ("fulls",)}
_ROW_FIELDS = {"table", "path", "op", "offset", "size"}


def save_store(store: CacheStore, directory: str | Path) -> None:
    """Persist a store as ``<directory>/store.bin``: a header (magic, version,
    manifest length), a JSON manifest, then every entry's payload.

    The manifest holds the mode, energy target and oracle config, one row
    per entry: its table, prefix path, op id, base offset (null outside
    ``bases``) and payload size, each payload following the one before it
    from the manifest's end; and a digest of the token ids of each op the
    rows name, which binds the store to those ops' texts.  Payloads are KV
    files (bases, fulls) and delta files (residuals), so the payload bytes
    total ``memory_footprint().total_bytes``.  Payloads are encoded and
    written one at a time.

    The file is written, flushed and synced as ``.store.bin.tmp`` in the same
    directory, then moved over ``store.bin`` by one ``os.replace``: a reload
    gives exactly this store, and a failed or interrupted save leaves the
    earlier one as it was.  Other files in the directory are left alone.
    """
    path, write = _store_file(store, directory)
    _write_atomic({path: write})


def _store_file(store: CacheStore, directory: str | Path) -> tuple[Path, Callable[[BinaryIO], None]]:
    """The path ``save_store`` writes ``store`` to, its directory made if need
    be, and the writer of its bytes, for one ``_write_atomic`` call."""
    rows, entries = [], []
    for table in _TABLES:
        for key, entry in sorted(getattr(store, table).items()):
            path, op_id, offset = ((), *key) if table == "bases" else (*key, None)
            rows.append({"table": table, "path": list(path), "op": op_id, "offset": offset, "size": _nbytes(entry)})
            entries.append(entry)
    manifest = {
        "energy_target": store.energy_target,
        "mode": store.mode,
        "oracle": asdict(store.oracle.config),
        "entries": rows,
        "op_digests": {op_id: _token_digest(store.op_tokens(op_id)) for op_id in _row_ops(rows)},
    }
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    def write(fh) -> None:
        fh.write(STORE_HEADER.pack(STORE_MAGIC, STORE_VERSION, len(text)))
        fh.write(text)
        for entry in entries:
            fh.write(_delta_bytes(entry) if isinstance(entry, QuantizedDelta) else _kv_bytes(entry))

    return root / STORE_FILE, write


def has_store(directory: str | Path) -> bool:
    """Whether ``directory`` holds a saved store, of this version or an
    earlier one (which ``load_store`` rejects)."""
    return any((Path(directory) / name).is_file() for name in (STORE_FILE, "meta.json"))


def _token_digest(tokens: tuple[int, ...]) -> str:
    """The digest that binds a saved store to an op's token ids."""
    return hashlib.blake2b(struct.pack(f"<{len(tokens)}Q", *tokens), digest_size=16).hexdigest()


def _row_ops(rows: list[dict]) -> list[str]:
    """Every op the manifest rows name, on a prefix path or as the entry's op, sorted."""
    return sorted({op_id for row in rows for op_id in (*row["path"], row["op"])})


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _manifest_rows(manifest, mode: str, file: Path) -> list[tuple[str, tuple, PathKey, str, int]]:
    """(table, key, path, op id, size) for each manifest row, checked."""
    rows = manifest.get("entries")
    if not isinstance(rows, list):
        raise DataError(f"{file}: manifest has no entry list")
    out, seen = [], set()
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
            and _is_count(row["size"])
            and (_is_count(offset) and not path if is_base else offset is None)
        ):
            raise DataError(f"{file}: malformed manifest row {i}")
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
    never uses, a repeated key, a malformed payload (a wrong length or a
    non-finite float32 state; for a residual also a code width outside
    ``WIDTHS``, a negative or non-finite scale, a code outside [-q, q] or
    nonzero padding bits), and entries off ``graph``'s edges, of another
    shape than the stored oracle config gives them, or at another position
    offset than their key names: a base's offset, or the prefix path's token
    count.  Each names its entry.  It also rejects op digests that are not
    one per op the rows name, and, by name, an op whose tokens in ``graph``
    are not those the store was built from (its text changed).
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
        digests, ops = manifest.get("op_digests"), _row_ops(manifest["entries"])
        if not isinstance(digests, dict) or sorted(digests) != ops:
            raise DataError(f"{file}: manifest op digests do not name the ops of its entries")
        for op_id in ops:  # an op off the graph is named by its entry's check below
            if op_id in graph.operations and _token_digest(store.op_tokens(op_id)) != digests[op_id]:
                raise DataError(f"{file}: operation {op_id!r} has other text than the store was built from; {_REBUILD}")
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
