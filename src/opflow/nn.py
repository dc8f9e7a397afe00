"""The edge scorer: a 2-layer GCN encoder plus a 3-layer MLP decoder.

Everything is hand-rolled numpy in float64: forward, analytic backward and
AdamW.  The GCN layer is

    h_i <- ReLU( sum_{j in N(i) + self} h_j W / sqrt(deg(i) deg(j)) )

over the undirected support of the adjacency with self-loops added (degrees
count the self-loop).  Edge (i, j) is scored by the MLP on
``concat[h_i, h_j, h_task]``; training relaxes the score through a
Gumbel-Sigmoid so the loss stays differentiable while modelling discrete edge
picks.

Weight products multiply only live units.  A column of a product's input
that is zero in every row adds nothing to the product, and after a ReLU
most columns are: on the committed control checkpoint about 93% of GCN
layer-1 units are zero for every served text.  So a weight product
(``_times``) multiplies only the input columns that are nonzero in some row
by the matching weight rows, and a weight gradient ``x.T @ dy`` (``_outer``)
is computed only on the block where both columns are nonzero and is exactly
0 elsewhere, as the dense product is there.  There is no threshold: the
products where this measured slower (the edge MLP's ``[Wa | Wb]`` over a
block of texts, its task block and its one-column output) are written as
plain products at their call sites.  The skipped terms are exact zeros when
the weights are finite, which ``load_checkpoint`` checks, so a result differs
from the dense product only by the summation order BLAS picks for the
smaller shape.  As measured against dense products: with the control
checkpoint, served scores of 16-text blocks are bitwise equal and a lone
text's (whose task row takes BLAS's vector path) within 1.3e-14 relative;
two epochs of the control training run end with weights within 2e-16
relative.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import DataError, _check_int, _write_atomic

SCORE_CLAMP = 1e-7

_MAGIC = b"OFW1"


def _shapes(d: int, h: int, m: int) -> dict[str, tuple[int, ...]]:
    """Parameter shapes in declaration order (the checkpoint order)."""
    return {
        "gcn_w1": (d, h),
        "gcn_w2": (h, h),
        "mlp_w1": (3 * h, m),
        "mlp_b1": (m,),
        "mlp_w2": (m, m),
        "mlp_b2": (m,),
        "mlp_w3": (m, 1),
        "mlp_b3": (1,),
    }


_ARRAY_ORDER = tuple(_shapes(0, 0, 0))


@dataclass(frozen=True, eq=False)
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
        """Writable copies of every array, e.g. to fine-tune read-only params."""
        return replace(self, **{name: arr.copy() for name, arr in self.arrays().items()})

    def read_only(self) -> "ModelParams":
        """The same values as views of one ``bytes`` object, which nothing can
        write: in-place updates and ``setflags(write=True)`` raise."""
        payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in self.arrays().values())
        return _params_from_bytes(self.dim_in, self.dim_hidden, self.mlp_hidden, payload)

    @cached_property
    def _memo(self) -> _Memo | None:
        """The serving memo, or None when the arrays could change: only views
        of ``bytes`` (as ``train`` and ``load_checkpoint`` return), which
        nothing can write, are memoized."""
        if isinstance(self.gcn_w1.base, bytes) and isinstance(self.mlp_w1.base, bytes):
            return _Memo(self)
        return None

    def __getstate__(self) -> dict:
        """Pickle and ``copy.deepcopy`` leave out the memo: a copy's arrays are writable."""
        return {name: value for name, value in vars(self).items() if name != "_memo"}


def _params_from_bytes(d: int, h: int, m: int, payload: bytes) -> ModelParams:
    """Params viewing ``payload``: float64 LE arrays in checkpoint order, each a
    multiple of 8 bytes long, so every view stays aligned."""
    arrays, off = {}, 0
    for name, shape in _shapes(d, h, m).items():
        arrays[name] = np.ndarray(shape, dtype="<f8", buffer=payload, offset=off)
        off += arrays[name].nbytes
    return ModelParams(d, h, m, **arrays)


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def init_params(
    dim_in: int = 384,
    dim_hidden: int = 256,
    mlp_hidden: int = 128,
    seed: int = 0,
) -> ModelParams:
    """Seeded uniform Glorot weights, zero biases, all float64."""
    for name, value in (("dim_in", dim_in), ("dim_hidden", dim_hidden), ("mlp_hidden", mlp_hidden)):
        _check_int(name, value, 1)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    arrays = {
        name: np.zeros(shape) if len(shape) == 1 else _glorot(rng, shape)
        for name, shape in _shapes(dim_in, dim_hidden, mlp_hidden).items()
    }
    return ModelParams(dim_in, dim_hidden, mlp_hidden, **arrays)


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


def gcn_forward(
    params: ModelParams, x: np.ndarray, a: np.ndarray, task_index: int, task_rows: np.ndarray
) -> np.ndarray:
    """Two message-passing layers with ReLU after each, (B, V, H).

    Sample b is the (V, D) ``x`` with row ``task_index`` replaced by
    ``task_rows[b]`` of the (B, D) ``task_rows``; layer 1 is folded as in
    ``forward_loss``, and ``S`` and ``S (X0 W1)`` come from the memo when it
    holds them.
    """
    memo = params._memo
    seen = (None, None, None) if memo is None else memo.inputs
    if seen[0] is x and seen[1] is a and seen[2] == task_index:
        s, shared = memo.s, memo.shared
    else:
        s, _, shared = _shared_layer1(params, x, a, task_index)
        if memo is not None and not (x.flags.writeable or a.flags.writeable):
            memo.inputs, memo.s, memo.shared = (x, a, task_index), s, shared
    return _layer2(params, s, _layer1(params, s, shared, task_index, task_rows))[1]


def score_edges(
    params: ModelParams,
    h: np.ndarray,
    edge_index: np.ndarray,
    task_index: int,
) -> np.ndarray:
    """Raw logits for candidate edges: MLP over concat[h_src, h_dst, h_task].

    ``h`` is (V, H) or batched (B, V, H) and ``edge_index`` an (E, 2) int
    array of node indices; returns (..., E).  The first layer runs per node
    as in ``forward_loss``, with ``[Wa | Wb]`` memoized for read-only params.
    """
    memo = params._memo
    pair = _pair_weights(params) if memo is None else memo.pair
    return _mlp_tail(params, _edge_layer1(params, h, pair, edge_index, task_index))[2]


class _Memo:
    """Request-invariant terms of one read-only ``ModelParams``, held as its
    ``_memo``: ``pair`` is ``[Wa | Wb]``, and ``s``/``shared`` are ``S`` and
    ``S (X0 W1)`` of the graph inputs ``(x, a, task_index)`` served last, kept
    only when ``x`` and ``a`` are read-only and found again by their identity."""

    def __init__(self, params: ModelParams):
        self.pair = _pair_weights(params)
        self.inputs, self.s, self.shared = (None, None, None), None, None


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


def _live(rows: np.ndarray) -> np.ndarray:
    """Indices of the columns of the 2-D ``rows`` that are nonzero in some row."""
    return np.flatnonzero(rows.any(axis=0))


# Every array of 64 KiB or more that a training step makes comes from ``_empty``.
# ``train``'s workspace keeps a byte buffer per key for the call; these keys are
# shared by arrays whose lives in a step do not overlap, and the rest hold one:
#   "z1": z1, u, the a2 and a1 masks, d_pair, d_m2, gcn_w1's task-row term
#   "m2": m2, gcn_w1's grad;  "h2": z2/h2, d_z2, d_z1;  "c": c, d_c;  "r1": (B, H)
#   "a1": p1/a1, d_p1, mlp_w1's grad;  "wcols": weight rows (``_take``), products
#   "a2": p1's destination rows, p2/a2, d_p2, [Wa | Wb]'s grad, the h2 mask,
#         gcn_w2's grad;  "cols", "cols2": column copies, then AdamW's scratch


def _empty(ws: dict | None, key: str | None, shape: tuple, dtype=np.float64, reserve: tuple = ()) -> np.ndarray:
    """``np.empty(shape, dtype)``, or with a workspace ``ws`` a view of its buffer
    ``key``, made at least ``reserve``'s size and remade only by the first step."""
    if ws is None:
        return np.empty(shape, dtype)
    size = math.prod(shape) * np.dtype(dtype).itemsize
    buf = ws.get(key)
    if buf is None or len(buf) < size:
        buf = ws[key] = np.empty(max(size, math.prod(reserve) * np.dtype(dtype).itemsize), np.uint8)
    return buf[:size].view(dtype).reshape(shape)


def _take(a: np.ndarray, live: np.ndarray, axis: int, ws: dict | None, key: str) -> np.ndarray:
    """``a.take(live, axis)`` of the 2-D ``a`` into ``_empty(ws, key)``: mode "clip"
    changes no in-range index, and unlike "raise" writes ``out`` in place.  np.take
    copies a source that is not C-contiguous, so a transposed weight's rows are
    taken as its base's columns, via ``_outer``'s "cols2"."""
    shape = (len(live), a.shape[1]) if axis == 0 else (len(a), len(live))
    out = _empty(ws, key, shape, reserve=a.shape)
    if a.flags.c_contiguous:
        return a.take(live, axis, out, "clip")
    np.copyto(out, a.T.take(live, 1 - axis, _empty(ws, "cols2", shape[::-1], reserve=a.shape[::-1]), "clip").T)
    return out


def _times(a: np.ndarray, w: np.ndarray, ws: dict | None = None, key: str | None = None) -> np.ndarray:
    """``a @ w`` for an (..., K) stack and a (K, M) weight, via ``_rows``,
    multiplying only the columns of ``a`` that are nonzero in some row (NaN
    counts as nonzero) by the matching rows of ``w``.  With no zero column
    this is bitwise the plain product, and with every column zero it is
    exact zeros; otherwise it differs from it only in summation order."""
    rows = _rows(a)
    live = _live(rows)
    if len(live) < rows.shape[1]:
        rows, w = _take(rows, live, 1, ws, "cols"), _take(w, live, 0, ws, "wcols")
    return np.matmul(rows, w, out=_empty(ws, key, (len(rows), w.shape[1]))).reshape(a.shape[:-1] + (w.shape[1],))


def _outer(x: np.ndarray, dy: np.ndarray, ws: dict | None = None, key: str | None = None) -> np.ndarray:
    """The weight gradient ``x.T @ dy`` of two 2-D row blocks, computed only
    on the block of the columns of ``x`` and of ``dy`` that are nonzero in
    some row; every other entry is a sum of zero products, left exactly 0."""
    li, lj = _live(x), _live(dy)
    prod = _empty(ws, "wcols", (len(li), len(lj)), reserve=(x.shape[1], dy.shape[1]))
    np.matmul(_take(x, li, 1, ws, "cols").T, _take(dy, lj, 1, ws, "cols2"), out=prod)
    out = _empty(ws, key, (x.shape[1], dy.shape[1]))
    out.fill(0.0)
    out[np.ix_(li, lj)] = prod
    return out


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
    """What ``backward`` reads of one step's forward pass: one set of
    activations, alive for one step only.  With a ``workspace`` they are
    views of its buffers, which ``backward`` then reuses for its gradients
    and the next step overwrites.  Of a ReLU it keeps only the output, whose
    ``> 0`` mask is the input's, so ``h2``, ``a1`` and ``a2`` stand for
    ``z2``, ``p1`` and ``p2``; of layer 1, whose output is not kept, only the
    bool mask ``z1 > 0``."""

    params: ModelParams
    s: np.ndarray
    x0: np.ndarray
    task_rows: np.ndarray
    z1_positive: np.ndarray
    m2: np.ndarray
    h2: np.ndarray
    edge_index: np.ndarray
    task_index: int
    a1: np.ndarray
    a2: np.ndarray
    omega: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    tau: float
    workspace: dict | None


def forward_loss(
    params: ModelParams,
    x: np.ndarray,
    a: np.ndarray,
    edge_index: np.ndarray,
    task_index: int,
    labels: np.ndarray,
    *,
    task_rows: np.ndarray,
    tau: float = 1.0,
    noise: np.ndarray | None = None,
    workspace: dict | None = None,
) -> tuple[float, ForwardCache]:
    """Full training loss with everything the backward pass needs.

    Sample b is the (V, D) feature matrix ``x`` with row ``task_index``
    replaced by ``task_rows[b]`` of the (B, D) ``task_rows``; ``labels``
    (and ``noise``) are (B, E).  ``noise`` enables the Gumbel relaxation; it
    is treated as a constant by the backward pass.  The loss is the batch
    mean of per-sample edge means.

    Each term is computed where it varies: samples differ only in the task
    row (``_layer1``), and the edge MLP's first layer runs per node
    (``_edge_layer1``).
    """
    labels = np.asarray(labels, dtype=np.float64)
    ws = workspace
    s, x0, shared = _shared_layer1(params, x, a, task_index, ws)  # once per step
    z1 = _layer1(params, s, shared, task_index, task_rows, ws)
    # ReLUs run in place and the cache keeps their outputs only.
    m2, h2 = _layer2(params, s, z1, ws)
    z1_positive = np.greater(z1, 0.0, out=_empty(ws, "mask1", z1.shape, bool))
    p1 = _edge_layer1(params, h2, _pair_weights(params, ws), edge_index, task_index, ws)
    a1, a2, omega = _mlp_tail(params, p1, ws)

    scores = gumbel_sigmoid(omega, tau, noise)
    loss = bce_loss(scores, labels)
    return loss, ForwardCache(
        params=params,
        s=s,
        x0=x0,
        task_rows=task_rows,
        z1_positive=z1_positive,
        m2=m2,
        h2=h2,
        edge_index=edge_index,
        task_index=task_index,
        a1=a1,
        a2=a2,
        omega=omega,
        scores=scores,
        labels=labels,
        tau=tau,
        workspace=ws,
    )


def _shared_layer1(params: ModelParams, x: np.ndarray, a: np.ndarray, task_index: int, ws=None) -> tuple:
    """``S``, ``X0`` (``x`` with a zero task row) and GCN layer 1's shared
    product ``S (X0 W1)``."""
    x0 = x.copy()
    x0[task_index] = 0.0
    s = normalized_adjacency(a)
    return s, x0, s @ _times(x0, params.gcn_w1, ws, "r1")


def _layer1(params: ModelParams, s: np.ndarray, shared: np.ndarray, t: int, rows: np.ndarray, ws=None) -> np.ndarray:
    """GCN layer 1 before its ReLU, (B, V, H): the shared product plus the
    rank-1 task term ``S[:, t] (r_b W1)``."""
    z1 = _empty(ws, "z1", (len(rows),) + shared.shape)
    np.multiply(s[:, t, None], _times(rows, params.gcn_w1, ws, "r1")[:, None], out=z1)
    z1 += shared
    return z1


def _layer2(params: ModelParams, s: np.ndarray, z1: np.ndarray, ws=None) -> tuple:
    """Layer 1's ReLU, in place on ``z1``, then GCN layer 2: ``(m2, h2)``."""
    m2 = np.matmul(s, np.maximum(z1, 0.0, out=z1), out=_empty(ws, "m2", z1.shape))
    h2 = _times(m2, params.gcn_w2, ws, "h2")
    return m2, np.maximum(h2, 0.0, out=h2)


def _pair_weights(params: ModelParams, ws=None) -> np.ndarray:
    """(H, 2M) ``[Wa | Wb]``: the source and destination row blocks of
    ``mlp_w1`` side by side."""
    h, w = params.dim_hidden, params.mlp_w1
    return np.concatenate([w[:h], w[h : 2 * h]], axis=1, out=_empty(ws, "pair", (h, 2 * params.mlp_hidden)))


def _edge_layer1(params: ModelParams, h: np.ndarray, pair: np.ndarray, edges, t: int, ws=None) -> np.ndarray:
    """Edge MLP layer 1 before its ReLU, (..., E, M): each node times
    ``[Wa | Wb]`` once and the task node times the task block once, summed
    per edge, so no (E, 3H) concatenation is built."""
    m = params.mlp_hidden
    # Both products stay plain.  For ``[Wa | Wb]`` batched synthesis (sweep,
    # ``mean_edge_f1``) decides: on a 16-text block 224 of 256 columns of
    # ``h`` are live and the live-column product took 1,024-1,061 us against
    # 681-690 us (on one text, 178 live, 54 us against 63-65 us).
    # u's rows 2v and 2v + 1 are node v's source and destination terms, so
    # the gathers read a contiguous array, which np.take does not copy.
    rows = _rows(h)
    u = np.matmul(rows, pair, out=_empty(ws, "z1", (len(rows), 2 * m))).reshape(h.shape[:-2] + (-1, m))
    c = np.matmul(h[..., t, :], params.mlp_w1[2 * params.dim_hidden :], out=_empty(ws, "c", h.shape[:-2] + (m,)))
    c += params.mlp_b1
    p1 = u.take(2 * edges[:, 0], -2, _empty(ws, "a1", h.shape[:-2] + (len(edges), m)), "clip")  # see _take
    p1 += u.take(2 * edges[:, 1] + 1, -2, _empty(ws, "a2", p1.shape), "clip")
    p1 += c[..., None, :]
    return p1


def _mlp_tail(params: ModelParams, p1: np.ndarray, ws=None) -> tuple:
    """The edge MLP after layer 1's pre-activation, ReLUs in place: ``(a1, a2, omega)``."""
    a1 = np.maximum(p1, 0.0, out=p1)
    a2 = _times(a1, params.mlp_w2, ws, "a2")
    np.maximum(np.add(a2, params.mlp_b2, out=a2), 0.0, out=a2)
    # One output column: the plain product costs less than finding live columns.
    return a1, a2, (_rows(a2) @ params.mlp_w3 + params.mlp_b3).reshape(a2.shape[:-1])


def backward(cache: ForwardCache) -> dict[str, np.ndarray]:
    """Analytic gradients of the composed loss for every parameter array.

    Gumbel noise is a constant; the score clamp acts as a pass-through whose
    clamped value feeds the standard (score - label) identity.

    One set of activations is live at a time: each ReLU mask is read off the
    cached post-ReLU array (``a > 0`` is ``pre > 0`` for ``a = max(pre, 0)``,
    NaN and signed zeros included) and multiplied into its gradient in place,
    and each (B, E, M) and (B, V, .) gradient is dropped after its last
    reader.  With no workspace ``cache`` is left unchanged; with one, each
    gradient, returned ones included, takes the buffer of an array read for
    the last time, cached activations too (see ``_empty``).
    """
    p, ws = cache.params, cache.workspace
    b, n_edges = cache.omega.shape
    h, m = p.dim_hidden, p.mlp_hidden
    sc = np.clip(cache.scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)

    d_u = (sc - cache.labels) / (n_edges * b)
    d_omega = d_u / cache.tau  # (B, E)

    grads: dict[str, np.ndarray] = {}
    grads["mlp_w3"] = _rows(cache.a2).T @ d_omega.reshape(-1, 1)
    grads["mlp_b3"] = np.array([d_omega.sum()])
    mask = np.greater(cache.a2, 0.0, out=_empty(ws, "z1", cache.a2.shape, bool))
    d_p2 = np.multiply(d_omega[..., None], p.mlp_w3[:, 0], out=_empty(ws, "a2", cache.a2.shape))
    d_p2 *= mask
    grads["mlp_w2"] = _outer(_rows(cache.a1), _rows(d_p2), ws, "g_mlp_w2")
    grads["mlp_b2"] = d_p2.sum(axis=(0, 1))
    mask = np.greater(cache.a1, 0.0, out=_empty(ws, "z1", cache.a1.shape, bool))
    d_p1 = _times(d_p2, p.mlp_w2.T, ws, "a1")  # (B, E, M)
    del d_p2
    d_p1 *= mask

    # Each edge's d_p1 row, added onto its source (first M columns) and its
    # destination (last M): the gradient of the per-node product U.
    n_nodes = cache.h2.shape[1]
    d_pair = _empty(ws, "z1", (b, n_nodes, 2 * m))
    np.matmul(_incidence(cache.edge_index[:, 0], n_nodes), d_p1, out=d_pair[..., :m])
    np.matmul(_incidence(cache.edge_index[:, 1], n_nodes), d_p1, out=d_pair[..., m:])
    d_c = d_p1.sum(axis=1, out=_empty(ws, "c", (b, m)))  # (B, M)
    del d_p1
    g_pair = _outer(_rows(cache.h2), _rows(d_pair), ws, "a2")  # (H, 2M)
    g = grads["mlp_w1"] = _empty(ws, "a1", p.mlp_w1.shape)
    g[:h], g[h : 2 * h] = g_pair[:, :m], g_pair[:, m:]
    np.matmul(cache.h2[:, cache.task_index].T, d_c, out=g[2 * h :])
    grads["mlp_b1"] = d_c.sum(axis=0)

    mask = np.greater(cache.h2, 0.0, out=_empty(ws, "a2", cache.h2.shape, bool))
    d_z2 = _times(d_pair, _pair_weights(p, ws).T, ws, "h2")  # (B, V, H)
    d_z2[:, cache.task_index] += np.matmul(d_c, p.mlp_w1[2 * h :].T, out=_empty(ws, "r1", (b, h)))
    d_z2 *= mask
    del d_pair, mask
    grads["gcn_w2"] = _outer(_rows(cache.m2), _rows(d_z2), ws, "a2")
    d_m2 = _times(d_z2, p.gcn_w2.T, ws, "z1")
    del d_z2
    d_z1 = np.matmul(cache.s.T, d_m2, out=_empty(ws, "h2", d_m2.shape))
    del d_m2
    d_z1 *= cache.z1_positive
    g = grads["gcn_w1"] = np.matmul(cache.x0.T, cache.s.T @ d_z1.sum(axis=0), out=_empty(ws, "m2", p.gcn_w1.shape))
    task_term = np.matmul(cache.s[:, cache.task_index], d_z1, out=_empty(ws, "r1", (b, h)))
    g += np.matmul(cache.task_rows.T, task_term, out=_empty(ws, "z1", p.gcn_w1.shape))
    return grads


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

# Moment decay rates and denominator guard, the usual Adam values.
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8


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
    workspace: dict | None = None,
) -> tuple[ModelParams, AdamWState]:
    """One decoupled-weight-decay Adam update (in place).

    theta <- theta - lr * ( m_hat / (sqrt(v_hat) + eps) + weight_decay * theta )
    with bias corrections after incrementing the step counter, through two
    scratch arrays per parameter, in the formula's order and so to its bits.
    """
    state.t += 1
    bc1 = 1.0 - ADAMW_BETA1**state.t
    bc2 = 1.0 - ADAMW_BETA2**state.t
    for name, theta in params.arrays().items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        a, b = _empty(workspace, "cols", theta.shape), _empty(workspace, "cols2", theta.shape)
        m *= ADAMW_BETA1
        m += np.multiply(g, 1.0 - ADAMW_BETA1, out=a)
        v *= ADAMW_BETA2
        v += np.multiply(np.multiply(g, 1.0 - ADAMW_BETA2, out=a), g, out=a)
        m_hat, v_hat = np.divide(m, bc1, out=a), np.divide(v, bc2, out=b)
        step = np.divide(m_hat, np.add(np.sqrt(v_hat, out=b), ADAMW_EPS, out=b), out=a)
        step += np.multiply(theta, weight_decay, out=b)
        theta -= np.multiply(step, lr, out=a)
    return params, state


# ---------------------------------------------------------------------------
# Checkpoint file
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: ModelParams, seed: int) -> None:
    """Versioned flat binary: header (dims, shapes, seed) then float64 LE
    arrays, written atomically: a failed write leaves an earlier file whole."""
    _write_atomic({path: lambda fh: _write_checkpoint(fh, params, seed)})


def _write_checkpoint(fh: BinaryIO, params: ModelParams, seed: int) -> None:
    """Write ``save_checkpoint``'s bytes to ``fh``, as one ``_write_atomic`` writer."""
    arrays = params.arrays()
    fh.write(_MAGIC)
    fh.write(struct.pack("<IIIIQ I", 1, params.dim_in, params.dim_hidden, params.mlp_hidden, seed, len(arrays)))
    for arr in arrays.values():
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    for arr in arrays.values():
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, int]:
    """Read a ``save_checkpoint`` file; its params are read-only (see
    ``ModelParams.read_only``).  A short, corrupt or mismatched file, or one
    holding a NaN or infinite parameter, raises ``DataError``: a product that
    skips zero columns never reads the weight rows they meet, so it would not
    turn such a weight into NaN as a dense product does."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")

    def need(end: int, part: str) -> None:
        if len(raw) < end:
            raise DataError(f"{path}: truncated checkpoint ({len(raw)} bytes, cut in the {part})")

    off = 4 + struct.calcsize("<IIIIQI")
    need(off, "header")
    version, d, h, m, seed, n_arrays = struct.unpack_from("<IIIIQI", raw, 4)
    if version != 1:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if n_arrays != len(_ARRAY_ORDER):
        raise DataError(f"{path}: expected {len(_ARRAY_ORDER)} arrays, found {n_arrays}")
    expected = _shapes(d, h, m)
    for name in _ARRAY_ORDER:
        need(off + 4, "shapes")
        (ndim,) = struct.unpack_from("<I", raw, off)
        need(off + 4 + 4 * ndim, "shapes")
        shape = struct.unpack_from(f"<{ndim}I", raw, off + 4)
        off += 4 + 4 * ndim
        if shape != expected[name]:
            raise DataError(f"{path}: array {name!r} has shape {shape}, expected {expected[name]}")
    end = off + 8 * sum(math.prod(shape) for shape in expected.values())
    need(end, "payload")
    if len(raw) != end:
        raise DataError(f"{path}: trailing bytes after parameter payload")
    params = _params_from_bytes(d, h, m, raw[off:])  # a new bytes object: aligned views
    for name, arr in params.arrays().items():
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: array {name!r} holds a NaN or infinite value")
    return params, seed
