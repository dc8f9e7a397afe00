"""Deterministic text features for operations and tasks.

The embedder maps text to a fixed-width vector by signed feature
hashing of lowercase word tokens and 3-word shingles — no learned weights, no
external downloads, bitwise reproducible everywhere.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .graph import Operation, TaskGraph

_HASH_PERSON = b"opflow-feat"


def compose_operation_text(op: Operation) -> str:
    """Text form an operation is embedded under: instruction plus markers."""
    return (
        f"{op.instruction} MUST: {' '.join(op.patterns_must)}"
        f" SHOULD: {' '.join(op.patterns_should)}"
    )


def _features(text: str) -> list[str]:
    tokens = text.casefold().split()
    feats = list(tokens)
    for i in range(len(tokens) - 2):
        feats.append(" ".join(tokens[i : i + 3]))
    return feats


class HashingEmbedder:
    """Signed feature hashing into ``dim`` = 384 buckets, L2-normalized.

    Each token and each 3-token shingle is hashed (keyed blake2b, so the
    mapping is stable across processes and platforms); the low bits pick a
    bucket and one extra bit picks the sign.  Empty text embeds to the zero
    vector, everything else to a unit vector.  The width is the model's input
    width, so it is fixed: the class takes no arguments and an instance has
    no attribute to set.
    """

    __slots__ = ()
    dim = 384

    def embed_text(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for feat in _features(text):
            digest = hashlib.blake2b(
                feat.encode("utf-8"), digest_size=9, person=_HASH_PERSON
            ).digest()
            bucket = int.from_bytes(digest[:8], "big") % self.dim
            sign = 1.0 if digest[8] & 1 == 0 else -1.0
            vec[bucket] += sign
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec /= norm
        return vec

    def embed_operation(self, op: Operation) -> np.ndarray:
        return self.embed_text(compose_operation_text(op))


def assemble_features(task_graph: TaskGraph) -> tuple[np.ndarray, np.ndarray]:
    """Build the node feature matrix X and binary adjacency A.

    Rows follow canonical node order (lexicographic operation ids, task node
    last).  A has A[i, j] = 1 exactly for directed edges, including both task
    links; the diagonal is zero.
    """
    embedder = HashingEmbedder()
    op_ids = task_graph.graph.node_ids
    n = len(op_ids) + 1
    x = np.zeros((n, embedder.dim), dtype=np.float64)
    for i, op_id in enumerate(op_ids):
        x[i] = embedder.embed_operation(task_graph.graph.operations[op_id])
    x[n - 1] = embedder.embed_text(task_graph.task_text)

    index = {v: i for i, v in enumerate(task_graph.node_ids)}
    a = np.zeros((n, n), dtype=np.float64)
    for src, dst in task_graph.edge_list:
        a[index[src], index[dst]] = 1.0
    return x, a
