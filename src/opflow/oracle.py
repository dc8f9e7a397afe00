"""A deterministic toy attention stack that yields prefix-dependent KV states.

Real-model KV caches are out of scope; this oracle is the ground truth the
cache layer is validated against.  It keeps the one property the differential
cache design depends on: a token's K/V states depend on everything before it,
with geometrically decaying influence (decay ``lam`` per token of distance).
``lam = 0`` makes every position independent, so a suffix's states match the
standalone computation bitwise — the exactness anchor used by the tests.

Construction per layer: hidden states are causally mixed
(``m_t = x_t + lam * m_{t-1}``), projected to per-head K and V, and passed
through a tanh projection to the next layer.  One product per layer gives
K and V, laid out as ``KVTensor.states`` (the one KV layout the cache layer
reads and writes), and the next layer's input.  Positional encodings come
from a table bounded by the positions served.  All weights are seeded; the
whole computation is bitwise reproducible for a given config.

Everything a prefix contributes to later tokens passes through the causal
mix, so one (layers, d_model) float64 array, each layer's ``m_t`` at the
prefix's last token, sums up the whole prefix.  ``KVOracle.resume`` takes
that *carry*, computes a segment after it and returns the segment's states
with the carry at its end; ``base_segment`` is ``resume`` from the zero
carry.  A cache that keeps one carry per prefix therefore computes an op in
context at the cost of the op's own tokens.  ``stateful_segment`` stays the
one-pass reference (prefix ++ op from token 0, sliced to the op) that
resumed results are checked against; resuming is bitwise equal to it as
long as the matrix products give each row the same bits whatever the number
of rows, which the tests pin.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _check_int

TOKEN_SPACE = 8192
_MAX_POSITION = 2**31 - 1
_FIRST_TABLE_ROWS = 256


@dataclass(frozen=True)
class OracleConfig:
    layers: int = 4
    heads: int = 4
    head_dim: int = 16
    lam: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.lam < 1.0):
            raise DataError(f"decay must lie in [0, 1), got {self.lam}")
        for name in ("layers", "heads", "head_dim"):
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0)

    @property
    def d_model(self) -> int:
        return self.heads * self.head_dim


@dataclass
class KVTensor:
    """Per-layer, per-head key/value states for one token segment.

    ``states`` is one float32 array of shape (layers, heads, tokens,
    2 * head_dim): in the last axis the key dims come first, the value dims
    second.  ``keys`` and ``values`` are views of the two halves.
    ``position_offset`` is the absolute position of the segment's first
    token.  A tensor a ``CacheStore`` holds is read-only.
    """

    states: np.ndarray
    position_offset: int

    def __post_init__(self):
        if self.states.ndim != 4 or self.states.shape[3] % 2:
            raise DataError(
                f"KV states must be (layers, heads, tokens, 2 * head_dim), got {self.states.shape}"
            )
        if self.states.dtype != np.float32:
            raise DataError("KV tensors must be float32")
        if self.position_offset < 0:
            raise DataError("position_offset must be non-negative")

    @property
    def keys(self) -> np.ndarray:
        return self.states[..., : self.states.shape[3] // 2]

    @property
    def values(self) -> np.ndarray:
        return self.states[..., self.states.shape[3] // 2 :]


def tokenize(text: str) -> list[int]:
    """Whitespace words hashed into a fixed id space."""
    ids = []
    for word in text.split():
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8, person=b"opflow-tok").digest()
        ids.append(int.from_bytes(digest, "big") % TOKEN_SPACE)
    return ids


def _positional_encoding(positions: np.ndarray, dim: int) -> np.ndarray:
    pos = positions[:, None].astype(np.float64)
    i = np.arange(dim // 2, dtype=np.float64)
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    enc = np.zeros((len(positions), dim), dtype=np.float64)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc


@functools.lru_cache(maxsize=4)
def _weights(seed: int, layers: int, heads: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded embedding table and fused per-layer projections of one
    config, read-only.  They depend on these four values alone, so every
    oracle of a config shares one copy; the last four configs are kept."""
    rng = np.random.default_rng(seed)
    dm = heads * head_dim
    scale = 1.0 / np.sqrt(dm)
    embeddings = rng.standard_normal((TOKEN_SPACE, dm))
    w_key = rng.standard_normal((layers, dm, dm)) * scale
    w_value = rng.standard_normal((layers, dm, dm)) * scale
    w_hidden = rng.standard_normal((layers, dm, dm)) * scale
    # One projection per layer: each head's key columns, then its value
    # columns (the states layout), then the next layer's hidden columns.
    per_head = (layers, dm, heads, head_dim)
    w_kv = np.concatenate([w_key.reshape(per_head), w_value.reshape(per_head)], axis=3)
    w = np.concatenate([w_kv.reshape(layers, dm, 2 * dm), w_hidden], axis=2)
    embeddings.flags.writeable = w.flags.writeable = False
    return embeddings, w


class KVOracle:
    """Seeded weights plus the segment-level KV computations."""

    def __init__(self, config: OracleConfig | None = None):
        self.config = config or OracleConfig()
        cfg = self.config
        self._embeddings, self._w = _weights(cfg.seed, cfg.layers, cfg.heads, cfg.head_dim)
        self._positions = np.empty((0, cfg.d_model))

    def _position_rows(self, position_offset: int, t: int) -> np.ndarray:
        """Encodings of [position_offset, position_offset + t), sliced from a
        table of [0, n) that doubles only for a call ending within twice its
        length; any other call computes its rows directly."""
        end, table = position_offset + t, self._positions
        if end > len(table):
            size = max(2 * len(table), _FIRST_TABLE_ROWS)
            if end > size:
                positions = position_offset + np.arange(t, dtype=np.int64)
                return _positional_encoding(positions, self.config.d_model)
            table = self._positions = _positional_encoding(np.arange(size), self.config.d_model)
        return table[position_offset:end]

    # -- core computation ---------------------------------------------------

    def empty_carry(self) -> np.ndarray:
        """The carry of an empty prefix: zeros of shape (layers, d_model)."""
        return np.zeros((self.config.layers, self.config.d_model), dtype=np.float64)

    def resume(
        self, carry: np.ndarray, tokens: list[int], position_offset: int
    ) -> tuple[KVTensor, np.ndarray]:
        """KV states for ``tokens`` placed after a prefix of ``position_offset``
        tokens whose carry is ``carry``, and the carry at their last token."""
        cfg = self.config
        if len(tokens) == 0:
            raise DataError("cannot compute KV states for an empty token sequence")
        if position_offset < 0:
            raise DataError("position_offset must be non-negative")
        if position_offset + len(tokens) > _MAX_POSITION:
            raise DataError("position_offset overflows the position space")
        if carry.shape != (cfg.layers, cfg.d_model):
            raise DataError(f"carry shape {carry.shape} does not match the oracle config")
        token_arr = np.asarray(tokens, dtype=np.int64)
        if token_arr.min() < 0 or token_arr.max() >= TOKEN_SPACE:
            raise DataError(f"token ids must lie in [0, {TOKEN_SPACE})")

        t = len(tokens)
        x = self._embeddings[token_arr] + self._position_rows(position_offset, t)

        # A 0-d array and positional ``out``: numpy converts neither per row.
        lam = np.array(cfg.lam)
        n_kv = 2 * cfg.d_model
        states = np.empty((cfg.layers, cfg.heads, t, 2 * cfg.head_dim), dtype=np.float32)
        carry_out = np.empty((cfg.layers, cfg.d_model), dtype=np.float64)
        step = np.empty(cfg.d_model, dtype=np.float64)
        for layer in range(cfg.layers):
            # x is fresh in every layer, so its rows are mixed in place:
            # row += lam * prev, through one buffer for the product.
            if cfg.lam != 0.0:
                prev = carry[layer]
                for row in x:
                    np.multiply(prev, lam, step)
                    np.add(row, step, row)
                    prev = row
            carry_out[layer] = x[-1]
            # The last layer's hidden output is never read, so it multiplies the
            # KV columns only: bitwise the full product's (tests/test_oracle.py).
            prod = x @ self._w[layer][:, : n_kv if layer + 1 == cfg.layers else None]
            states[layer] = prod[:, :n_kv].reshape(t, cfg.heads, 2 * cfg.head_dim).transpose(1, 0, 2)
            if layer + 1 < cfg.layers:
                x = np.tanh(prod[:, n_kv:])
        return KVTensor(states, position_offset), carry_out

    # -- segment views ------------------------------------------------------

    def stateful_segment(self, prefix_tokens: list[int], op_tokens: list[int]) -> KVTensor:
        """The op's KV computed *in context* in one pass: prefix ++ op from
        token 0, sliced to the op.  The reference for resumed computations."""
        if len(op_tokens) == 0:
            raise DataError("operation segment must contain at least one token")
        full = self.resume(self.empty_carry(), list(prefix_tokens) + list(op_tokens), 0)[0]
        start = len(prefix_tokens)
        return KVTensor(np.ascontiguousarray(full.states[:, :, start:]), start)

    def base_segment(self, op_tokens: list[int], position_offset: int) -> KVTensor:
        """The op's KV computed standalone at the same absolute positions:
        ``resume`` from the zero carry."""
        return self.resume(self.empty_carry(), op_tokens, position_offset)[0]
