"""Hashed text features and feature assembly."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from opflow.features import HashingEmbedder, assemble_features, compose_operation_text
from opflow.graph import Operation, condition_on_task, merge_workflows, parse_workflow

from conftest import make_workflow_doc


def reference_embedding(text: str, dim: int) -> np.ndarray:
    """Independent re-derivation of the signed-hashing embedding."""
    tokens = text.casefold().split()
    feats = tokens + [" ".join(tokens[i : i + 3]) for i in range(len(tokens) - 2)]
    vec = np.zeros(dim)
    for f in feats:
        d = hashlib.blake2b(f.encode(), digest_size=9, person=b"opflow-feat").digest()
        vec[int.from_bytes(d[:8], "big") % dim] += 1.0 if d[8] % 2 == 0 else -1.0
    n = np.linalg.norm(vec)
    return vec / n if n else vec


WORDS = (
    "solve check verify extract rank merge filter route plan audit "
    "ledger invoice contract tensor kernel batch prefix suffix token graph"
).split()


class TestHashingEmbedder:
    def test_matches_independent_reference(self):
        emb = HashingEmbedder()
        rng = random.Random(303)
        for _ in range(50):
            text = " ".join(rng.choices(WORDS, k=rng.randint(1, 12)))
            np.testing.assert_array_equal(emb.embed_text(text), reference_embedding(text, 384))

    def test_unit_norm_and_determinism(self):
        emb = HashingEmbedder()
        rng = random.Random(304)
        for _ in range(100):
            text = " ".join(rng.choices(WORDS, k=rng.randint(1, 20)))
            v1 = emb.embed_text(text)
            v2 = HashingEmbedder().embed_text(text)
            np.testing.assert_array_equal(v1, v2)
            assert v1.shape == (384,)
            assert abs(np.linalg.norm(v1) - 1.0) < 1e-12

    def test_empty_text_is_zero_vector(self):
        emb = HashingEmbedder()
        assert np.all(emb.embed_text("") == 0.0)
        assert np.all(emb.embed_text("   \t\n") == 0.0)

    def test_no_systematic_bucket_aliasing(self):
        # Distinct random texts should not collapse onto each other.
        emb = HashingEmbedder()
        rng = random.Random(305)
        texts = list({" ".join(rng.choices(WORDS, k=8)) for _ in range(100)})
        vecs = np.array([emb.embed_text(t) for t in texts])
        cos = vecs @ vecs.T
        off_diag = cos[~np.eye(len(texts), dtype=bool)]
        assert np.max(off_diag) < 0.999
        assert np.mean(np.abs(off_diag)) < 0.5

    def test_shared_tokens_raise_similarity(self):
        emb = HashingEmbedder()
        a = emb.embed_text("solve the system of equations")
        b = emb.embed_text("solve the system of constraints")
        c = emb.embed_text("bake twelve lemon tarts tonight")
        assert a @ b > a @ c

    def test_operation_composition(self):
        emb = HashingEmbedder()
        op = Operation(id="OP_X", instruction="solve the system", patterns_must=(), patterns_should=())
        np.testing.assert_array_equal(
            emb.embed_operation(op), emb.embed_text("solve the system MUST:  SHOULD: ")
        )
        assert compose_operation_text(op) == "solve the system MUST:  SHOULD: "

    def test_patterns_change_the_vector(self):
        emb = HashingEmbedder()
        plain = Operation(id="A", instruction="solve the system")
        rich = Operation(
            id="A", instruction="solve the system", patterns_must=("unknown", "assign")
        )
        assert not np.array_equal(emb.embed_operation(plain), emb.embed_operation(rich))

    def test_width_is_fixed(self):
        # The width is the model's input width: no caller picks another, and
        # no instance can be given one after construction.
        with pytest.raises(TypeError):
            HashingEmbedder(8)
        emb = HashingEmbedder()
        text = "solve the system"
        with pytest.raises(AttributeError):
            emb.dim = 0
        assert HashingEmbedder.dim == emb.dim == 384
        np.testing.assert_array_equal(emb.embed_text(text), reference_embedding(text, 384))


class TestAssembleFeatures:
    def _graph(self, *wf_docs):
        return merge_workflows([parse_workflow(json.dumps(d)) for d in wf_docs])

    def test_shapes_and_order(self, wf_math_001):
        g = merge_workflows([wf_math_001])
        tg = condition_on_task(g, "solve the system")
        emb = HashingEmbedder()
        x, a = assemble_features(tg)
        assert x.shape == (6, 384)
        assert a.shape == (6, 6)
        np.testing.assert_array_equal(x[5], emb.embed_text("solve the system"))
        np.testing.assert_array_equal(x[0], emb.embed_operation(g.operations["OP_01"]))
        # adjacency: op edges plus bidirectional task links, zero diagonal
        assert a[0, 1] == 1.0 and a[1, 0] == 0.0  # OP_01 -> OP_02 only
        assert a[5, 2] == 1.0 and a[2, 5] == 1.0
        assert np.all(np.diag(a) == 0.0)
        assert a.sum() == 5 + 2 * 5

    def test_empty_task_text_row_is_zero(self, wf_math_001):
        g = merge_workflows([wf_math_001])
        x, _ = assemble_features(condition_on_task(g, ""))
        assert np.all(x[-1] == 0.0)

    def test_ingestion_order_does_not_change_features(self):
        d1 = make_workflow_doc("WF_A", {"OP_2": "beta work", "OP_4": "delta work"}, [("OP_2", "OP_4")])
        d2 = make_workflow_doc("WF_B", {"OP_1": "alpha work", "OP_3": "beta  WORK"}, [("OP_1", "OP_3")])
        g_ab = self._graph(d1, d2)
        g_ba = self._graph(d2, d1)
        x1, a1 = assemble_features(condition_on_task(g_ab, "task"))
        x2, a2 = assemble_features(condition_on_task(g_ba, "task"))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(a1, a2)
