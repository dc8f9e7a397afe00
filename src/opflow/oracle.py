"""A deterministic toy attention stack that yields prefix-dependent KV states.

Real-model KV caches are out of scope; this oracle is the ground truth the
cache layer is validated against.  It keeps the one property the differential
cache design depends on: a token's K/V states depend on everything before it,
with geometrically decaying influence (decay ``lam`` per token of distance).
``lam = 0`` makes every position independent, so a suffix's states match the
standalone computation bitwise — the exactness anchor used by the tests.

Construction per layer: hidden states are causally mixed
(``m_t = x_t + lam * m_{t-1}``), projected to per-head K and V, and passed
through a tanh projection to the next layer.  All weights are seeded; the
whole computation is bitwise reproducible for a given config.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError

TOKEN_SPACE = 8192
_MAX_POSITION = 2**31 - 1


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
        if min(self.layers, self.heads, self.head_dim) < 1:
            raise DataError("layers, heads and head_dim must all be positive")

    @property
    def d_model(self) -> int:
        return self.heads * self.head_dim


@dataclass
class KVTensor:
    """Per-layer, per-head key/value states for one token segment.

    ``keys`` and ``values`` are float32 arrays of shape
    (layers, heads, tokens, head_dim); ``position_offset`` is the absolute
    position of the segment's first token.
    """

    keys: np.ndarray
    values: np.ndarray
    position_offset: int

    def __post_init__(self):
        if self.keys.shape != self.values.shape:
            raise DataError(
                f"key/value shape mismatch: {self.keys.shape} vs {self.values.shape}"
            )
        if self.keys.dtype != np.float32 or self.values.dtype != np.float32:
            raise DataError("KV tensors must be float32")
        if self.position_offset < 0:
            raise DataError("position_offset must be non-negative")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.keys.shape

    @property
    def tokens(self) -> int:
        return self.keys.shape[2]


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


class KVOracle:
    """Seeded weights plus the segment-level KV computations."""

    def __init__(self, config: OracleConfig | None = None):
        self.config = config or OracleConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        dm = cfg.d_model
        scale = 1.0 / np.sqrt(dm)
        self._embeddings = rng.standard_normal((TOKEN_SPACE, dm))
        self._w_key = rng.standard_normal((cfg.layers, dm, dm)) * scale
        self._w_value = rng.standard_normal((cfg.layers, dm, dm)) * scale
        self._w_hidden = rng.standard_normal((cfg.layers, dm, dm)) * scale

    # -- core computation ---------------------------------------------------

    def kv_states(self, tokens: list[int], position_offset: int = 0) -> KVTensor:
        """KV states for a token sequence starting at an absolute position."""
        cfg = self.config
        if len(tokens) == 0:
            raise DataError("cannot compute KV states for an empty token sequence")
        if position_offset < 0:
            raise DataError("position_offset must be non-negative")
        if position_offset + len(tokens) > _MAX_POSITION:
            raise DataError("position_offset overflows the position space")
        token_arr = np.asarray(tokens, dtype=np.int64)
        if token_arr.min() < 0 or token_arr.max() >= TOKEN_SPACE:
            raise DataError(f"token ids must lie in [0, {TOKEN_SPACE})")

        t = len(tokens)
        positions = position_offset + np.arange(t, dtype=np.int64)
        x = self._embeddings[token_arr] + _positional_encoding(positions, cfg.d_model)

        keys = np.empty((cfg.layers, cfg.heads, t, cfg.head_dim), dtype=np.float32)
        values = np.empty_like(keys)
        for layer in range(cfg.layers):
            mixed = self._causal_mix(x)
            k = mixed @ self._w_key[layer]
            v = mixed @ self._w_value[layer]
            keys[layer] = k.reshape(t, cfg.heads, cfg.head_dim).transpose(1, 0, 2).astype(np.float32)
            values[layer] = v.reshape(t, cfg.heads, cfg.head_dim).transpose(1, 0, 2).astype(np.float32)
            x = np.tanh(mixed @ self._w_hidden[layer])
        return KVTensor(keys=keys, values=values, position_offset=position_offset)

    def _causal_mix(self, x: np.ndarray) -> np.ndarray:
        lam = self.config.lam
        if lam == 0.0:
            return x.copy()
        mixed = np.empty_like(x)
        carry = np.zeros(x.shape[1], dtype=np.float64)
        for t in range(x.shape[0]):
            carry = x[t] + lam * carry
            mixed[t] = carry
        return mixed

    # -- segment views ------------------------------------------------------

    def stateful_segment(self, prefix_tokens: list[int], op_tokens: list[int]) -> KVTensor:
        """The op's KV computed *in context*: prefix ++ op, sliced to the op."""
        if len(op_tokens) == 0:
            raise DataError("operation segment must contain at least one token")
        if len(prefix_tokens) == 0:
            return self.kv_states(op_tokens, 0)
        full = self.kv_states(list(prefix_tokens) + list(op_tokens), 0)
        start = len(prefix_tokens)
        return KVTensor(
            keys=np.ascontiguousarray(full.keys[:, :, start:, :]),
            values=np.ascontiguousarray(full.values[:, :, start:, :]),
            position_offset=start,
        )

    def base_segment(self, op_tokens: list[int], position_offset: int) -> KVTensor:
        """The op's KV computed standalone at the same absolute positions."""
        return self.kv_states(op_tokens, position_offset)
