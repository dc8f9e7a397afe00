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

Residual coordinates live in a combined space of shape
(layers, heads, tokens, 2 * head_dim): the last axis indexes key dims first,
value dims second.  A residual holds the full tensor's own float32 value at
each kept coordinate, a replacement rather than an addend, so reconstruction
reproduces the full tensor bit-for-bit on every kept coordinate, and at an
energy target of 1.0 the whole reconstruction is bitwise exact.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import struct
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


# ---------------------------------------------------------------------------
# Sparse residuals
# ---------------------------------------------------------------------------


@dataclass
class SparseDelta:
    """Sparse difference between an in-context tensor and its base.

    ``dense_shape`` is the combined-coordinate shape
    (layers, heads, tokens, 2 * head_dim); ``coords`` is (n, 4) int32 in
    row-major order and ``values`` (n,) float32, the full tensor's value at
    each kept coordinate.
    """

    dense_shape: tuple[int, int, int, int]
    position_offset: int
    kept_energy_fraction: float
    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.dense_shape) != 4 or self.dense_shape[3] % 2 != 0:
            raise DataError(f"bad combined shape {self.dense_shape}")
        if self.coords.shape != (len(self.values), 4):
            raise DataError("coordinate/value count mismatch")
        if ((self.coords < 0) | (self.coords >= np.asarray(self.dense_shape))).any():
            raise DataError("delta contains out-of-bounds coordinates")
        flat = np.ravel_multi_index(tuple(self.coords.T), self.dense_shape)
        if (np.diff(flat) <= 0).any():
            raise DataError("delta coordinates must be distinct and in row-major order")

    @property
    def entries(self) -> int:
        return len(self.values)

    def nbytes(self) -> int:
        """Exact serialized size: header, one bit per coordinate, the values."""
        return DELTA_HEADER.size + (prod(self.dense_shape) + 7) // 8 + 4 * self.entries


def _combined(kv: KVTensor) -> np.ndarray:
    return np.concatenate([kv.keys, kv.values], axis=3)


def _split(combined: np.ndarray, offset: int) -> KVTensor:
    d = combined.shape[3] // 2
    return KVTensor(
        keys=np.ascontiguousarray(combined[:, :, :, :d]),
        values=np.ascontiguousarray(combined[:, :, :, d:]),
        position_offset=offset,
    )


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

    full_c = _combined(full)
    base_c = _combined(base)
    if not (np.isfinite(full_c).all() and np.isfinite(base_c).all()):
        raise DataError("KV tensors must be finite")
    flat = (full_c.astype(np.float64) - base_c).ravel()

    nonzero = int(np.count_nonzero(flat))
    kept_idx = np.zeros(0, dtype=np.intp)
    kept_fraction = 1.0
    if nonzero:
        order = np.argsort(-np.abs(flat), kind="stable")
        cumulative = np.cumsum(flat[order] ** 2)
        total = cumulative[-1]
        keep = nonzero
        if energy_target < 1.0:
            idx = int(np.searchsorted(cumulative, energy_target * total, side="left"))
            keep = min(idx + 1, nonzero)
        kept_idx = np.sort(order[:keep])
        kept_fraction = float(cumulative[keep - 1] / total)

    return SparseDelta(
        dense_shape=full_c.shape,
        position_offset=full.position_offset,
        kept_energy_fraction=kept_fraction,
        coords=np.stack(np.unravel_index(kept_idx, full_c.shape), axis=1).astype(np.int32),
        values=full_c.ravel()[kept_idx],
    )


def reconstruct(base: KVTensor, delta: SparseDelta) -> KVTensor:
    """Write a residual's values over a base tensor.  The base is not modified."""
    combined = _combined(base)
    if combined.shape != delta.dense_shape:
        raise DataError(
            f"delta shape {delta.dense_shape} does not match base {combined.shape}"
        )
    if base.position_offset != delta.position_offset:
        raise DataError("base and delta disagree on position offset")
    combined[tuple(delta.coords.T)] = delta.values
    return _split(combined, base.position_offset)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def kv_file_nbytes(kv: KVTensor) -> int:
    """Exact serialized size of a dense KV tensor, header included."""
    return KV_HEADER.size + kv.keys.nbytes + kv.values.nbytes


def write_kv(path: str | Path, kv: KVTensor) -> None:
    layers, heads, t, d = kv.shape
    header = KV_HEADER.pack(
        KV_MAGIC, 1, layers, heads, t, d, kv.position_offset, DTYPE_FLOAT32
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(kv.keys, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(kv.values, dtype="<f4").tobytes())


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
    body = np.frombuffer(raw, dtype="<f4", offset=KV_HEADER.size)
    keys = body[:count].reshape(layers, heads, t, d).copy()
    values = body[count:].reshape(layers, heads, t, d).copy()
    return KVTensor(keys=keys, values=values, position_offset=offset)


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
    kept = np.zeros(delta.dense_shape, dtype=bool)
    kept[tuple(delta.coords.T)] = True
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
        coords=np.stack(np.unravel_index(flat, shape), axis=1).astype(np.int32),
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
    """KV cache for one operation graph, in one of the three serving modes."""

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
        self._edges = set(graph.edge_list)
        self._op_tokens: dict[str, list[int]] = {}

    # -- token plumbing ------------------------------------------------------

    def op_tokens(self, op_id: str) -> list[int]:
        cached = self._op_tokens.get(op_id)
        if cached is None:
            op = self.graph.operations.get(op_id)
            if op is None:
                raise DataError(f"unknown operation {op_id!r}")
            cached = tokenize(op.instruction)
            if not cached:
                raise DataError(f"operation {op_id!r} has an empty instruction")
            self._op_tokens[op_id] = cached
        return cached

    def prefix_tokens(self, path: Iterable[str]) -> list[int]:
        tokens: list[int] = []
        for op_id in path:
            tokens.extend(self.op_tokens(op_id))
        return tokens

    def validate_path(self, path: PathKey, op_id: str) -> None:
        """Path ops must chain along graph edges and end on an edge into op."""
        for node in path:
            if node not in self.graph.operations:
                raise DataError(f"unknown operation {node!r} in prefix path")
        if op_id not in self.graph.operations:
            raise DataError(f"unknown operation {op_id!r}")
        full_chain = list(path) + [op_id]
        for a, b in zip(full_chain, full_chain[1:]):
            if (a, b) not in self._edges:
                raise DataError(f"prefix step {a!r} -> {b!r} is not a graph edge")

    # -- tensor production ----------------------------------------------------

    def base(self, op_id: str, position_offset: int) -> KVTensor:
        key = (op_id, position_offset)
        kv = self.bases.get(key)
        if kv is None:
            kv = self.oracle.base_segment(self.op_tokens(op_id), position_offset)
            self.bases[key] = kv
        return kv

    def _stateful(self, path: PathKey, op_id: str) -> KVTensor:
        return self.oracle.stateful_segment(self.prefix_tokens(path), self.op_tokens(op_id))

    def fetch(self, path: Iterable[str], op_id: str) -> tuple[KVTensor, FetchResult]:
        path = tuple(path)
        self.validate_path(path, op_id)
        n_prefix = len(self.prefix_tokens(path))
        n_op = len(self.op_tokens(op_id))

        if self.mode == "stateless":
            kv = self.base(op_id, n_prefix)
            return kv, FetchResult("hit", 0, n_prefix, n_op)

        if self.mode == "stateful":
            key = (path, op_id)
            kv = self.fulls.get(key)
            if kv is not None:
                return kv, FetchResult("hit", 0, n_prefix, n_op)
            kv = self._stateful(path, op_id)
            self.fulls[key] = kv
            return kv, FetchResult("fallback", 0, n_prefix, n_op)

        # differential
        if not path:
            kv = self.base(op_id, 0)
            return kv, FetchResult("hit", 0, n_prefix, n_op)
        delta = self.residuals.get((path, op_id))
        if delta is not None:
            kv = reconstruct(self.base(op_id, n_prefix), delta)
            return kv, FetchResult("hit", delta.entries, n_prefix, n_op)
        kv = self._stateful(path, op_id)
        return kv, FetchResult("fallback", 0, n_prefix, n_op)

    def insert_residual(self, path: Iterable[str], op_id: str) -> SparseDelta:
        """Materialize the residual for a (path, op) pair (differential only)."""
        if self.mode != "differential":
            raise DataError("residuals only exist in differential mode")
        path = tuple(path)
        self.validate_path(path, op_id)
        if not path:
            raise DataError("empty prefixes are served by base tensors, not residuals")
        full = self._stateful(path, op_id)
        base = self.base(op_id, len(self.prefix_tokens(path)))
        delta = sparsify(full, base, self.energy_target)
        self.residuals[(path, op_id)] = delta
        return delta

    def drop_residual(self, path: Iterable[str], op_id: str) -> bool:
        return self.residuals.pop((tuple(path), op_id), None) is not None

    # -- accounting -----------------------------------------------------------

    def memory_footprint(self) -> MemoryReport:
        """Byte totals matching the on-disk sizes of every stored tensor."""
        return MemoryReport(
            mode=self.mode,
            bases_bytes=sum(kv_file_nbytes(kv) for kv in self.bases.values()),
            residuals_bytes=sum(d.nbytes() for d in self.residuals.values()),
            fulls_bytes=sum(kv_file_nbytes(kv) for kv in self.fulls.values()),
            n_bases=len(self.bases),
            n_residuals=len(self.residuals),
            n_fulls=len(self.fulls),
        )


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
    it), rejecting entries off ``graph``'s edges or of another shape than the
    stored oracle config gives them."""
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

    def checked(path: PathKey, op_id: str, entry, where: Path):
        try:
            store.validate_path(path, op_id)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        is_delta = isinstance(entry, SparseDelta)
        shape = entry.dense_shape if is_delta else entry.shape
        width = config.head_dim * (2 if is_delta else 1)
        expected = (config.layers, config.heads, len(store.op_tokens(op_id)), width)
        if shape != expected:
            raise DataError(f"{where}: shape {shape} does not match the oracle config {expected}")
        return entry

    bases_dir = root / "bases"
    if bases_dir.is_dir():
        for file in sorted(bases_dir.glob("*.kv")):
            stem = file.name[: -len(".kv")]
            op_id, sep, offset_text = stem.rpartition("@")
            if not sep or not offset_text.isdigit():
                raise DataError(f"{file}: base filename must look like <op>@<offset>.kv")
            store.bases[(op_id, int(offset_text))] = checked((), op_id, read_kv(file), file)

    residuals_dir = root / "residuals"
    if residuals_dir.is_dir():
        for sub in sorted(p for p in residuals_dir.iterdir() if p.is_dir()):
            path = resolve(sub.name, sub)
            for file in sorted(sub.glob("*.delta")):
                op_id = file.name[: -len(".delta")]
                store.residuals[(path, op_id)] = checked(path, op_id, read_delta(file), file)

    fulls_dir = root / "fulls"
    if fulls_dir.is_dir():
        for sub in sorted(p for p in fulls_dir.iterdir() if p.is_dir()):
            path = resolve(sub.name, sub)
            for file in sorted(sub.glob("*.kv")):
                op_id = file.name[: -len(".kv")]
                store.fulls[(path, op_id)] = checked(path, op_id, read_kv(file), file)

    return store
