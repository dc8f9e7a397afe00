"""The edge scorer: a 2-layer GCN encoder plus a 3-layer MLP decoder.

Everything is hand-rolled numpy in float64: forward, analytic backward, AdamW,
and a central finite-difference checker that independently validates the
gradients.  The GCN layer is

    h_i <- ReLU( sum_{j in N(i) + self} h_j W / sqrt(deg(i) deg(j)) )

over the undirected support of the adjacency with self-loops added (degrees
count the self-loop).  Edge (i, j) is scored by the MLP on
``concat[h_i, h_j, h_task]``; training relaxes the score through a
Gumbel-Sigmoid so the loss stays differentiable while modelling discrete edge
picks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError

SCORE_CLAMP = 1e-7

_MAGIC = b"OFW1"
_ARRAY_ORDER = (
    "gcn_w1",
    "gcn_w2",
    "mlp_w1",
    "mlp_b1",
    "mlp_w2",
    "mlp_b2",
    "mlp_w3",
    "mlp_b3",
)


@dataclass
class ModelParams:
    dim_in: int
    dim_hidden: int
    mlp_hidden: int
    gcn_w1: np.ndarray
    gcn_w2: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray
    mlp_w3: np.ndarray
    mlp_b3: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        """Parameter arrays in declaration order (the checkpoint order)."""
        return {name: getattr(self, name) for name in _ARRAY_ORDER}

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.dim_in,
            self.dim_hidden,
            self.mlp_hidden,
            **{name: arr.copy() for name, arr in self.arrays().items()},
        )


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def init_params(
    dim_in: int = 384,
    dim_hidden: int = 256,
    mlp_hidden: int = 128,
    seed: int = 0,
) -> ModelParams:
    """Seeded uniform Glorot weights, zero biases, all float64."""
    rng = np.random.default_rng(seed)
    d, h, m = dim_in, dim_hidden, mlp_hidden
    return ModelParams(
        dim_in=d,
        dim_hidden=h,
        mlp_hidden=m,
        gcn_w1=_glorot(rng, d, h, (d, h)),
        gcn_w2=_glorot(rng, h, h, (h, h)),
        mlp_w1=_glorot(rng, 3 * h, m, (3 * h, m)),
        mlp_b1=np.zeros(m),
        mlp_w2=_glorot(rng, m, m, (m, m)),
        mlp_b2=np.zeros(m),
        mlp_w3=_glorot(rng, m, 1, (m, 1)),
        mlp_b3=np.zeros(1),
    )


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric-normalized support: undirected edges + self-loops.

    deg(i) counts the self-loop, so an isolated node gets coefficient 1.
    """
    u = ((a + a.T) > 0).astype(np.float64)
    np.fill_diagonal(u, 1.0)
    deg = u.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return u * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_forward(params: ModelParams, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Two message-passing layers with ReLU after each.

    ``x`` may be (V, D) or batched (B, V, D); the adjacency is shared.
    """
    s = normalized_adjacency(a)
    h1 = np.maximum(s @ x @ params.gcn_w1, 0.0)
    h2 = np.maximum(s @ h1 @ params.gcn_w2, 0.0)
    return h2


def score_edges(
    params: ModelParams,
    h: np.ndarray,
    edge_index: np.ndarray,
    task_index: int,
) -> np.ndarray:
    """Raw logits for candidate edges: MLP over concat[h_src, h_dst, h_task].

    ``edge_index`` is an (E, 2) int array of node indices; returns (..., E).
    """
    src, dst = edge_index[:, 0], edge_index[:, 1]
    task = h[..., task_index, :]
    zc = np.concatenate(
        [
            h[..., src, :],
            h[..., dst, :],
            np.broadcast_to(task[..., None, :], h[..., src, :].shape),
        ],
        axis=-1,
    )
    a1 = np.maximum(zc @ params.mlp_w1 + params.mlp_b1, 0.0)
    a2 = np.maximum(a1 @ params.mlp_w2 + params.mlp_b2, 0.0)
    return (a2 @ params.mlp_w3 + params.mlp_b3)[..., 0]


def gumbel_noise(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.gumbel(0.0, 1.0, size=shape)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; saturates to exactly 0 for large negative ``x``."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def gumbel_sigmoid(omega: np.ndarray, tau: float = 1.0, noise: np.ndarray | None = None) -> np.ndarray:
    """Relaxed edge probability sigma((omega + g) / tau); g=0 at inference."""
    if tau <= 0.0:
        raise DataError(f"temperature must be positive, got {tau}")
    g = 0.0 if noise is None else noise
    return sigmoid((omega + g) / tau)


def bce_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Binary cross-entropy, clamped scores, mean over edges then batch."""
    sc = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    per_edge = -(labels * np.log(sc) + (1.0 - labels) * np.log(1.0 - sc))
    return float(per_edge.mean(axis=-1).mean())


# ---------------------------------------------------------------------------
# Composed forward / backward
# ---------------------------------------------------------------------------


def _rows(a: np.ndarray) -> np.ndarray:
    """The (B*N, K) view of a (B, N, K) stack, so a weight product is one 2-D
    GEMM rather than B small ones."""
    return a.reshape(-1, a.shape[-1])


def _times(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for a (B, N, K) stack and a (K, M) weight, via ``_rows``."""
    return (_rows(a) @ w).reshape(a.shape[:-1] + (w.shape[1],))


def _incidence(nodes: np.ndarray, n_nodes: int) -> np.ndarray:
    """(V, E) one-hot matrix with a 1 at (nodes[e], e).

    ``inc @ g`` adds each edge row of ``g`` onto its node; the rows of edges
    that share a node add up.
    """
    inc = np.zeros((n_nodes, len(nodes)))
    inc[nodes, np.arange(len(nodes))] = 1.0
    return inc


@dataclass
class ForwardCache:
    params: ModelParams
    s: np.ndarray
    x0: np.ndarray
    task_rows: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    m2: np.ndarray
    h2: np.ndarray
    edge_index: np.ndarray
    task_index: int
    p1: np.ndarray
    a1: np.ndarray
    p2: np.ndarray
    a2: np.ndarray
    omega: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    tau: float


def forward_loss(
    params: ModelParams,
    x: np.ndarray,
    a: np.ndarray,
    edge_index: np.ndarray,
    task_index: int,
    labels: np.ndarray,
    *,
    task_rows: np.ndarray | None = None,
    tau: float = 1.0,
    noise: np.ndarray | None = None,
) -> tuple[float, ForwardCache]:
    """Full training loss with everything the backward pass needs.

    ``x`` is the (V, D) feature matrix.  With ``task_rows`` (B, D), sample b
    is ``x`` with row ``task_index`` replaced by ``task_rows[b]``, and
    ``labels`` (and ``noise``) are (B, E); without it there is one sample,
    ``x`` itself, with (E,) labels.  ``noise`` enables the Gumbel
    relaxation; it is treated as a constant by the backward pass.  The loss
    is the batch mean of per-sample edge means.

    Each term is computed where it varies.  Samples differ only in the task
    row, so GCN layer 1 is the shared ``S (X0 W1)`` (``X0`` is ``x`` with a
    zero task row) plus the rank-1 ``S[:, t] (r_b W1)``; the edge MLP's first
    layer runs once per node on ``[h_src, h_dst]`` weights and once per
    sample on the task weights, and is summed per edge.
    """
    if task_rows is None:
        task_rows = x[task_index][None]
        labels = np.asarray(labels, dtype=np.float64)[None]
        if noise is not None:
            noise = np.asarray(noise)[None]
    labels = np.asarray(labels, dtype=np.float64)
    x0 = x.copy()
    x0[task_index] = 0.0

    s = normalized_adjacency(a)
    shared = s @ (x0 @ params.gcn_w1)  # (V, H), once per step
    z1 = shared + s[:, task_index, None] * (task_rows @ params.gcn_w1)[:, None]  # (B, V, H)
    h1 = np.maximum(z1, 0.0)
    m2 = s @ h1
    z2 = _times(m2, params.gcn_w2)
    h2 = np.maximum(z2, 0.0)

    h, m = params.dim_hidden, params.mlp_hidden
    src, dst = edge_index[:, 0], edge_index[:, 1]
    u = _times(h2, _pair_weights(params))  # (B, V, 2M): h2 Wa | h2 Wb per node
    c = h2[:, task_index] @ params.mlp_w1[2 * h :] + params.mlp_b1  # (B, M)
    p1 = u[:, src, :m] + u[:, dst, m:] + c[:, None]
    a1 = np.maximum(p1, 0.0)
    p2 = _times(a1, params.mlp_w2) + params.mlp_b2
    a2 = np.maximum(p2, 0.0)
    omega = (_times(a2, params.mlp_w3) + params.mlp_b3)[..., 0]

    scores = gumbel_sigmoid(omega, tau, noise)
    loss = bce_loss(scores, labels)
    return loss, ForwardCache(
        params=params,
        s=s,
        x0=x0,
        task_rows=task_rows,
        z1=z1,
        z2=z2,
        m2=m2,
        h2=h2,
        edge_index=edge_index,
        task_index=task_index,
        p1=p1,
        a1=a1,
        p2=p2,
        a2=a2,
        omega=omega,
        scores=scores,
        labels=labels,
        tau=tau,
    )


def _pair_weights(params: ModelParams) -> np.ndarray:
    """(H, 2M) ``[Wa | Wb]``: the source and destination row blocks of
    ``mlp_w1`` side by side."""
    h = params.dim_hidden
    return np.hstack([params.mlp_w1[:h], params.mlp_w1[h : 2 * h]])


def backward(cache: ForwardCache) -> dict[str, np.ndarray]:
    """Analytic gradients of the composed loss for every parameter array.

    Gumbel noise is a constant; the score clamp acts as a pass-through whose
    clamped value feeds the standard (score - label) identity.
    """
    p = cache.params
    b, n_edges = cache.omega.shape
    h, m = p.dim_hidden, p.mlp_hidden
    sc = np.clip(cache.scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)

    d_u = (sc - cache.labels) / (n_edges * b)
    d_omega = d_u / cache.tau  # (B, E)

    grads: dict[str, np.ndarray] = {}
    grads["mlp_w3"] = _rows(cache.a2).T @ d_omega.reshape(-1, 1)
    grads["mlp_b3"] = np.array([d_omega.sum()])
    d_a2 = d_omega[..., None] * p.mlp_w3[:, 0]
    d_p2 = d_a2 * (cache.p2 > 0)
    grads["mlp_w2"] = _rows(cache.a1).T @ _rows(d_p2)
    grads["mlp_b2"] = d_p2.sum(axis=(0, 1))
    d_a1 = _times(d_p2, p.mlp_w2.T)
    d_p1 = d_a1 * (cache.p1 > 0)  # (B, E, M)

    # Each edge's d_p1 row, added onto its source (first M columns) and its
    # destination (last M): the gradient of the per-node product U.
    n_nodes = cache.h2.shape[1]
    d_pair = np.concatenate(  # (B, V, 2M)
        [
            _incidence(cache.edge_index[:, 0], n_nodes) @ d_p1,
            _incidence(cache.edge_index[:, 1], n_nodes) @ d_p1,
        ],
        axis=-1,
    )
    d_c = d_p1.sum(axis=1)  # (B, M)
    g_pair = _rows(cache.h2).T @ _rows(d_pair)  # (H, 2M)
    grads["mlp_w1"] = np.vstack(
        [g_pair[:, :m], g_pair[:, m:], cache.h2[:, cache.task_index].T @ d_c]
    )
    grads["mlp_b1"] = d_c.sum(axis=0)

    d_h2 = _times(d_pair, _pair_weights(p).T)  # (B, V, H)
    d_h2[:, cache.task_index] += d_c @ p.mlp_w1[2 * h :].T

    d_z2 = d_h2 * (cache.z2 > 0)
    grads["gcn_w2"] = _rows(cache.m2).T @ _rows(d_z2)
    d_m2 = _times(d_z2, p.gcn_w2.T)
    d_h1 = cache.s.T @ d_m2
    d_z1 = d_h1 * (cache.z1 > 0)
    grads["gcn_w1"] = (
        cache.x0.T @ (cache.s.T @ d_z1.sum(axis=0))
        + cache.task_rows.T @ (cache.s[:, cache.task_index] @ d_z1)
    )
    return grads


# ---------------------------------------------------------------------------
# Finite-difference checking
# ---------------------------------------------------------------------------


def finite_difference_grads(
    loss_fn: Callable[[ModelParams], float],
    params: ModelParams,
    step: float = 1e-4,
) -> dict[str, np.ndarray]:
    """Central differences over every scalar parameter (slow; small dims only)."""
    grads: dict[str, np.ndarray] = {}
    work = params.copy()
    for name, arr in work.arrays().items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn(work)
            flat[i] = orig - step
            lo = loss_fn(work)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_gradient_error(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    floor: float = 1e-8,
) -> float:
    """max over parameters of |analytic - numeric| / max(|analytic|, |numeric|, floor)."""
    worst = 0.0
    for name, a in analytic.items():
        f = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def adamw_init(params: ModelParams) -> AdamWState:
    return AdamWState(
        m={k: np.zeros_like(a) for k, a in params.arrays().items()},
        v={k: np.zeros_like(a) for k, a in params.arrays().items()},
        t=0,
    )


def adamw_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamWState,
    *,
    lr: float = 1e-4,
    weight_decay: float = 1e-2,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamWState]:
    """One decoupled-weight-decay Adam update (in place).

    theta <- theta - lr * ( m_hat / (sqrt(v_hat) + eps) + weight_decay * theta )
    with bias corrections after incrementing the step counter.
    """
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, theta in params.arrays().items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        theta -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * theta)
    return params, state


# ---------------------------------------------------------------------------
# Checkpoint file
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: ModelParams, seed: int) -> None:
    """Versioned flat binary: header (dims, shapes, seed) then float64 LE arrays."""
    arrays = params.arrays()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIIQ I", 1, params.dim_in, params.dim_hidden, params.mlp_hidden, seed, len(arrays)))
        for arr in arrays.values():
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, int]:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    off = 4
    version, d, h, m, seed, n_arrays = struct.unpack_from("<IIIIQI", raw, off)
    off += struct.calcsize("<IIIIQI")
    if version != 1:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    shapes = []
    for _ in range(n_arrays):
        (ndim,) = struct.unpack_from("<I", raw, off)
        off += 4
        shape = struct.unpack_from(f"<{ndim}I", raw, off)
        off += 4 * ndim
        shapes.append(shape)
    if n_arrays != len(_ARRAY_ORDER):
        raise DataError(f"{path}: expected {len(_ARRAY_ORDER)} arrays, found {n_arrays}")
    expected = {
        "gcn_w1": (d, h),
        "gcn_w2": (h, h),
        "mlp_w1": (3 * h, m),
        "mlp_b1": (m,),
        "mlp_w2": (m, m),
        "mlp_b2": (m,),
        "mlp_w3": (m, 1),
        "mlp_b3": (1,),
    }
    arrays = {}
    for name, shape in zip(_ARRAY_ORDER, shapes):
        if tuple(shape) != expected[name]:
            raise DataError(
                f"{path}: array {name!r} has shape {tuple(shape)}, expected {expected[name]}"
            )
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape)
        off += count * 8
        arrays[name] = arr.astype(np.float64)
    if off != len(raw):
        raise DataError(f"{path}: trailing bytes after parameter payload")
    return (
        ModelParams(dim_in=d, dim_hidden=h, mlp_hidden=m, **arrays),
        seed,
    )
