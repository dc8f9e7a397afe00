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
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import struct
import weakref
from dataclasses import dataclass
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
_SAFE_NAME = re.compile(r"^[A-Za-z0-9._-]+$")

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
    if full.shape != base.shape:
        raise DataError(f"shape mismatch: full {full.shape} vs base {base.shape}")
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


def write_kv(path: str | Path, kv: KVTensor) -> None:
    """Version 1: header, then every key, then every value, each half
    row-major over (layers, heads, tokens, head_dim)."""
    layers, heads, t, d = kv.shape
    header = KV_HEADER.pack(
        KV_MAGIC, 1, layers, heads, t, d, kv.position_offset, DTYPE_FLOAT32
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(kv.keys.astype("<f4", copy=False).tobytes())
        fh.write(kv.values.astype("<f4", copy=False).tobytes())


def read_kv(path: str | Path) -> KVTensor:
    raw = Path(path).read_bytes()
    if len(raw) < KV_HEADER.size:
        raise DataError(f"{path}: truncated KV file")
    magic, version, layers, heads, t, d, offset, dtype = KV_HEADER.unpack_from(raw)
    if magic != KV_MAGIC:
        raise DataError(f"{path}: not a KV tensor file")
    if version != 1:
        raise DataError(f"{path}: unsupported KV file version {version}")
    if dtype != DTYPE_FLOAT32:
        raise DataError(f"{path}: unsupported dtype tag {dtype}")
    count = layers * heads * t * d
    expected = KV_HEADER.size + 2 * count * 4
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(raw)}")
    halves = np.frombuffer(raw, dtype="<f4", offset=KV_HEADER.size).reshape(2, layers, heads, t, d)
    return KVTensor(np.concatenate(halves, axis=3), offset)


def write_delta(path: str | Path, delta: SparseDelta) -> None:
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
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.packbits(kept).tobytes())
        fh.write(np.asarray(delta.values, dtype="<f4").tobytes())


def read_delta(path: str | Path) -> SparseDelta:
    raw = Path(path).read_bytes()
    if len(raw) < DELTA_HEADER.size:
        raise DataError(f"{path}: truncated delta file")
    magic, version, *shape, offset, energy, count = DELTA_HEADER.unpack_from(raw)
    if magic != DELTA_MAGIC:
        raise DataError(f"{path}: not a residual delta file")
    if version != 2:
        raise DataError(
            f"{path}: unsupported delta file version {version}; "
            "rebuild the store with `opflow kv materialize`"
        )
    shape = tuple(shape)
    size = prod(shape)
    values_at = DELTA_HEADER.size + (size + 7) // 8
    expected = values_at + 4 * count
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(raw)}")
    bits = np.unpackbits(np.frombuffer(raw[DELTA_HEADER.size : values_at], dtype=np.uint8))
    if bits[size:].any():
        raise DataError(f"{path}: nonzero padding bits after the coordinate bitmap")
    flat = np.flatnonzero(bits)
    if len(flat) != count:
        raise DataError(f"{path}: bitmap marks {len(flat)} coordinates, header says {count}")
    return SparseDelta(
        dense_shape=shape,
        position_offset=offset,
        kept_energy_fraction=energy,
        index=flat.astype(np.int32),
        values=np.frombuffer(raw, dtype="<f4", count=count, offset=values_at).astype(np.float32),
    )


def path_digest(path: Iterable[str]) -> str:
    """Stable 16-hex-char digest used to key prefix paths on disk."""
    joined = ",".join(path).encode("utf-8")
    return hashlib.blake2b(joined, digest_size=8, person=b"opflow-path").hexdigest()


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
    shared with the store and must not be modified.

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
        """Store an entry in ``bases``, ``residuals`` or ``fulls``, keeping
        that table's byte total."""
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
# Store directories
# ---------------------------------------------------------------------------


def _check_component(name: str, kind: str) -> str:
    if not _SAFE_NAME.match(name):
        raise DataError(f"{kind} {name!r} is not filename-safe")
    return name


def save_store(store: CacheStore, directory: str | Path) -> None:
    """Persist a store: meta.json, bases/, residuals/, fulls/, paths.tsv.

    The snapshot is written to a sibling directory and swapped in, so a
    reload gives exactly this store and a failed save leaves the earlier one
    as it was (a crash between the swap's two renames leaves it in the
    ``.<name>.old`` sibling, where ``load_store`` finds it).  A non-empty
    directory with no store, or one holding the working directory, is
    refused.
    """
    root = Path(directory).resolve()
    if root.is_dir() and any(root.iterdir()) and not (root / "meta.json").is_file():
        raise DataError(f"{root}: not a cache store, refusing to replace it")
    if Path.cwd().is_relative_to(root):
        raise DataError(f"{root}: holds the working directory, refusing to replace it")
    staging = _sibling(root, "tmp")
    retired = _sibling(root, "old")
    shutil.rmtree(staging, ignore_errors=True)  # left behind by a crashed save
    staging.mkdir(parents=True)
    try:
        _write_snapshot(store, staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if (root / "meta.json").is_file():
        shutil.rmtree(retired, ignore_errors=True)  # stale: root holds a whole store
        root.rename(retired)
    staging.rename(root)  # replaces an empty directory
    shutil.rmtree(retired, ignore_errors=True)


def _sibling(root: Path, tag: str) -> Path:
    root = root.resolve()
    return root.with_name(f".{root.name}.{tag}")


def store_root(directory: str | Path) -> Path | None:
    """The directory holding the store saved to ``directory``: itself, or its
    ``.<name>.old`` sibling after a crash between ``save_store``'s two
    renames; None when neither holds one."""
    root = Path(directory)
    for candidate in (root, _sibling(root, "old")):
        if (candidate / "meta.json").is_file():
            return candidate
    return None


def _write_snapshot(store: CacheStore, root: Path) -> None:
    cfg = store.oracle.config
    meta = {
        "energy_target": store.energy_target,
        "mode": store.mode,
        "oracle": {
            "head_dim": cfg.head_dim,
            "heads": cfg.heads,
            "lam": cfg.lam,
            "layers": cfg.layers,
            "seed": cfg.seed,
        },
    }
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")

    bases_dir = root / "bases"
    bases_dir.mkdir()
    for (op_id, offset), kv in sorted(store.bases.items()):
        _check_component(op_id, "operation id")
        write_kv(bases_dir / f"{op_id}@{offset}.kv", kv)

    digests: dict[str, PathKey] = {}

    def keyed_dir(parent: Path, path: PathKey) -> Path:
        digest = path_digest(path)
        known = digests.get(digest)
        if known is not None and known != path:
            raise DataError(f"path digest collision between {known} and {path}")
        digests[digest] = path
        sub = parent / digest
        sub.mkdir(parents=True, exist_ok=True)
        return sub

    residuals_dir = root / "residuals"
    residuals_dir.mkdir()
    for (path, op_id), delta in sorted(store.residuals.items()):
        _check_component(op_id, "operation id")
        write_delta(keyed_dir(residuals_dir, path) / f"{op_id}.delta", delta)

    fulls_dir = root / "fulls"
    fulls_dir.mkdir()
    for (path, op_id), kv in sorted(store.fulls.items()):
        _check_component(op_id, "operation id")
        write_kv(keyed_dir(fulls_dir, path) / f"{op_id}.kv", kv)

    lines = [f"{digest}\t{','.join(path)}\n" for digest, path in sorted(digests.items())]
    (root / "paths.tsv").write_text("".join(lines))


def load_store(directory: str | Path, graph: OperationGraph) -> CacheStore:
    """Read a store saved by ``save_store`` (from where ``store_root`` finds
    it), rejecting entries off ``graph``'s edges, of another shape than the
    stored oracle config gives them, or at another position offset than
    their key names: a base's filename offset, or the prefix path's token
    count."""
    root = store_root(directory)
    if root is None:
        raise DataError(f"{directory}: not a cache store (missing meta.json)")
    meta_path = root / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{meta_path}: invalid JSON ({exc})") from exc
    try:
        ocfg = meta["oracle"]
        config = OracleConfig(
            layers=ocfg["layers"],
            heads=ocfg["heads"],
            head_dim=ocfg["head_dim"],
            lam=ocfg["lam"],
            seed=ocfg["seed"],
        )
        store = CacheStore(
            graph,
            mode=meta["mode"],
            oracle=KVOracle(config),
            energy_target=meta["energy_target"],
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"{meta_path}: malformed store metadata ({exc})") from exc

    paths_by_digest: dict[str, PathKey] = {}
    manifest = root / "paths.tsv"
    if manifest.is_file():
        for line_no, line in enumerate(manifest.read_text().splitlines(), 1):
            if not line:
                continue
            try:
                digest, joined = line.split("\t", 1)
            except ValueError as exc:
                raise DataError(f"{manifest}:{line_no}: malformed manifest line") from exc
            path = tuple(joined.split(",")) if joined else ()
            if path_digest(path) != digest:
                raise DataError(f"{manifest}:{line_no}: digest does not match path")
            paths_by_digest[digest] = path

    def resolve(digest: str, where: Path) -> PathKey:
        path = paths_by_digest.get(digest)
        if path is None:
            raise DataError(f"{where}: path digest {digest} missing from paths.tsv")
        return path

    def checked(path: PathKey, op_id: str, entry, where: Path, offset: int | None = None):
        try:
            n_prefix = store.validate_path(path, op_id)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        shape = entry.dense_shape if isinstance(entry, SparseDelta) else entry.states.shape
        expected = (config.layers, config.heads, len(store.op_tokens(op_id)), 2 * config.head_dim)
        if shape != expected:
            raise DataError(f"{where}: shape {shape} does not match the oracle config {expected}")
        offset = n_prefix if offset is None else offset
        if entry.position_offset != offset:
            raise DataError(f"{where}: position offset {entry.position_offset}, expected {offset}")
        return entry

    bases_dir = root / "bases"
    if bases_dir.is_dir():
        for file in sorted(bases_dir.glob("*.kv")):
            stem = file.name[: -len(".kv")]
            op_id, sep, offset_text = stem.rpartition("@")
            if not sep or not offset_text.isdigit():
                raise DataError(f"{file}: base filename must look like <op>@<offset>.kv")
            offset = int(offset_text)
            store._put("bases", (op_id, offset), checked((), op_id, read_kv(file), file, offset))

    residuals_dir = root / "residuals"
    if residuals_dir.is_dir():
        for sub in sorted(p for p in residuals_dir.iterdir() if p.is_dir()):
            path = resolve(sub.name, sub)
            for file in sorted(sub.glob("*.delta")):
                op_id = file.name[: -len(".delta")]
                store._put("residuals", (path, op_id), checked(path, op_id, read_delta(file), file))

    fulls_dir = root / "fulls"
    if fulls_dir.is_dir():
        for sub in sorted(p for p in fulls_dir.iterdir() if p.is_dir()):
            path = resolve(sub.name, sub)
            for file in sorted(sub.glob("*.kv")):
                op_id = file.name[: -len(".kv")]
                store._put("fulls", (path, op_id), checked(path, op_id, read_kv(file), file))

    return store
