"""Tests for the deterministic toy KV oracle."""

import hashlib

import numpy as np
import pytest

from opflow.errors import DataError
from opflow.oracle import TOKEN_SPACE, KVOracle, KVTensor, OracleConfig, _positional_encoding, tokenize


def random_words(rng, n):
    return " ".join(f"w{rng.integers(0, 5000):04d}" for _ in range(n))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


class TestTokenize:
    def test_repeated_word_gets_same_id(self):
        ids = tokenize("alpha beta alpha")
        assert len(ids) == 3
        assert ids[0] == ids[2]
        assert ids[0] != ids[1]

    def test_ids_in_range(self):
        rng = np.random.default_rng(7)
        ids = tokenize(random_words(rng, 500))
        assert all(0 <= i < TOKEN_SPACE for i in ids)

    def test_empty_and_whitespace_only(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_matches_direct_hash(self):
        digest = hashlib.blake2b(b"solve", digest_size=8, person=b"opflow-tok").digest()
        assert tokenize("solve") == [int.from_bytes(digest, "big") % TOKEN_SPACE]

    def test_whitespace_normalization_irrelevant(self):
        assert tokenize("a  b\t c") == tokenize("a b c")


# ---------------------------------------------------------------------------
# Reference recomputation: freeze the weight-draw order and the mixing rule
# ---------------------------------------------------------------------------


def reference_kv(config, tokens, offset):
    """Plain-loop reimplementation used as an independent check."""
    dm = config.heads * config.head_dim
    rng = np.random.default_rng(config.seed)
    emb = rng.standard_normal((TOKEN_SPACE, dm))
    wk = rng.standard_normal((config.layers, dm, dm)) / np.sqrt(dm)
    wv = rng.standard_normal((config.layers, dm, dm)) / np.sqrt(dm)
    wh = rng.standard_normal((config.layers, dm, dm)) / np.sqrt(dm)

    t = len(tokens)
    x = np.zeros((t, dm))
    for i, tok in enumerate(tokens):
        pos = offset + i
        pe = np.zeros(dm)
        for j in range(dm // 2):
            angle = pos / 10000.0 ** (2.0 * j / dm)
            pe[2 * j] = np.sin(angle)
            pe[2 * j + 1] = np.cos(angle)
        x[i] = emb[tok] + pe

    keys = np.zeros((config.layers, config.heads, t, config.head_dim), dtype=np.float32)
    values = np.zeros_like(keys)
    for layer in range(config.layers):
        mixed = np.zeros_like(x)
        for i in range(t):
            mixed[i] = x[i] + (config.lam * mixed[i - 1] if i > 0 else 0.0)
        k = mixed @ wk[layer]
        v = mixed @ wv[layer]
        for i in range(t):
            for h in range(config.heads):
                lo = h * config.head_dim
                keys[layer, h, i] = k[i, lo : lo + config.head_dim].astype(np.float32)
                values[layer, h, i] = v[i, lo : lo + config.head_dim].astype(np.float32)
        x = np.tanh(mixed @ wh[layer])
    return keys, values


class TestAgainstReference:
    @pytest.mark.parametrize("seed,offset", [(0, 0), (3, 0), (0, 17), (11, 4)])
    def test_bitwise_match(self, seed, offset):
        config = OracleConfig(layers=2, heads=2, head_dim=4, lam=0.8, seed=seed)
        oracle = KVOracle(config)
        rng = np.random.default_rng(seed + 100)
        tokens = list(rng.integers(0, TOKEN_SPACE, size=9))
        got = oracle.base_segment(tokens, offset)
        ref_k, ref_v = reference_kv(config, tokens, offset)
        assert np.array_equal(got.keys, ref_k)
        assert np.array_equal(got.values, ref_v)


# ---------------------------------------------------------------------------
# Shape, determinism, validation
# ---------------------------------------------------------------------------


class TestKVStates:
    def test_default_shapes(self):
        oracle = KVOracle()
        rng = np.random.default_rng(0)
        prefix = tokenize(random_words(rng, 135))
        op = tokenize(random_words(rng, 65))
        seg = oracle.stateful_segment(prefix, op)
        assert seg.states.shape == (4, 4, 65, 32)
        assert seg.position_offset == 135
        assert seg.keys.dtype == np.float32

    def test_deterministic_across_instances(self):
        config = OracleConfig(seed=42)
        tokens = tokenize("performs a full sweep of the archive")
        one = KVOracle(config).base_segment(tokens, 3)
        two = KVOracle(config).base_segment(tokens, 3)
        assert np.array_equal(one.keys, two.keys)
        assert np.array_equal(one.values, two.values)

    def test_seed_changes_output(self):
        tokens = tokenize("inspect the queue")
        a = KVOracle(OracleConfig(seed=0)).base_segment(tokens, 0)
        b = KVOracle(OracleConfig(seed=1)).base_segment(tokens, 0)
        assert not np.array_equal(a.keys, b.keys)

    def test_position_offset_changes_output(self):
        oracle = KVOracle()
        tokens = tokenize("inspect the queue")
        a = oracle.base_segment(tokens, 0)
        b = oracle.base_segment(tokens, 5)
        assert not np.array_equal(a.keys, b.keys)

    def test_rejects_empty_tokens(self):
        with pytest.raises(DataError):
            KVOracle().base_segment([], 0)

    def test_rejects_out_of_range_tokens(self):
        with pytest.raises(DataError):
            KVOracle().base_segment([TOKEN_SPACE], 0)
        with pytest.raises(DataError):
            KVOracle().base_segment([-1], 0)

    def test_rejects_negative_offset(self):
        with pytest.raises(DataError):
            KVOracle().base_segment([1, 2], -1)

    def test_rejects_bad_decay(self):
        with pytest.raises(DataError):
            OracleConfig(lam=1.0)
        with pytest.raises(DataError):
            OracleConfig(lam=-0.1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed"):
            OracleConfig(seed=seed)

    def test_kvtensor_validation(self):
        k = np.zeros((1, 1, 2, 3), dtype=np.float32)
        with pytest.raises(DataError):
            KVTensor(np.concatenate([k, np.zeros((1, 1, 2, 4), dtype=np.float32)], axis=3), position_offset=0)
        with pytest.raises(DataError):
            KVTensor(np.concatenate([k.astype(np.float64), k.astype(np.float64)], axis=3), position_offset=0)
        with pytest.raises(DataError):
            KVTensor(np.concatenate([k, k], axis=3), position_offset=-2)


# ---------------------------------------------------------------------------
# Prefix influence: the properties the cache design rests on
# ---------------------------------------------------------------------------


class TestPrefixInfluence:
    def test_zero_decay_means_bitwise_independence(self):
        oracle = KVOracle(OracleConfig(lam=0.0))
        rng = np.random.default_rng(5)
        for _ in range(20):
            prefix = tokenize(random_words(rng, int(rng.integers(1, 60))))
            op = tokenize(random_words(rng, int(rng.integers(1, 30))))
            ctx = oracle.stateful_segment(prefix, op)
            solo = oracle.base_segment(op, len(prefix))
            assert np.array_equal(ctx.keys, solo.keys)
            assert np.array_equal(ctx.values, solo.values)

    def test_nonzero_decay_means_prefix_dependence(self):
        oracle = KVOracle(OracleConfig(lam=0.8))
        op = tokenize(random_words(np.random.default_rng(1), 20))
        a = oracle.stateful_segment(tokenize("alpha route through the ledger"), op)
        b = oracle.stateful_segment(tokenize("totally different preamble text here"), op)
        assert a.position_offset == b.position_offset == 5
        assert not np.array_equal(a.keys, b.keys)
        assert not np.array_equal(a.values, b.values)

    def test_influence_grows_with_decay(self):
        rng = np.random.default_rng(9)
        prefix = tokenize(random_words(rng, 40))
        op = tokenize(random_words(rng, 20))
        norms = []
        for lam in (0.0, 0.4, 0.8):
            oracle = KVOracle(OracleConfig(lam=lam))
            ctx = oracle.stateful_segment(prefix, op)
            solo = oracle.base_segment(op, len(prefix))
            delta = np.concatenate([ctx.keys - solo.keys, ctx.values - solo.values])
            norms.append(float(np.linalg.norm(delta)))
        assert norms[0] == 0.0
        assert norms[0] < norms[1] < norms[2]

    def test_first_layer_delta_decays_geometrically(self):
        # In the first layer the prefix carry shrinks by exactly lam per
        # token, so consecutive per-token delta norms have ratio lam.
        lam = 0.8
        oracle = KVOracle(OracleConfig(lam=lam))
        rng = np.random.default_rng(3)
        prefix = tokenize(random_words(rng, 30))
        op = tokenize(random_words(rng, 15))
        ctx = oracle.stateful_segment(prefix, op)
        solo = oracle.base_segment(op, len(prefix))
        dk = (ctx.keys[0].astype(np.float64) - solo.keys[0].astype(np.float64))
        per_token = np.linalg.norm(dk, axis=(0, 2))  # heads, dim collapsed
        ratios = per_token[1:] / per_token[:-1]
        assert np.allclose(ratios, lam, rtol=1e-4)

    def test_delta_energy_concentrates_in_first_tokens(self):
        oracle = KVOracle(OracleConfig(lam=0.8))
        rng = np.random.default_rng(12)
        prefix = tokenize(random_words(rng, 135))
        op = tokenize(random_words(rng, 65))
        ctx = oracle.stateful_segment(prefix, op)
        solo = oracle.base_segment(op, len(prefix))
        dk = ctx.keys[0].astype(np.float64) - solo.keys[0].astype(np.float64)
        energy = np.sum(dk**2, axis=(0, 2))
        cumulative = np.cumsum(energy) / np.sum(energy)
        assert cumulative[6] >= 0.95  # ~7 tokens hold 95% at lam=0.8

    def test_delta_magnitude_decreases_across_all_layers(self):
        oracle = KVOracle(OracleConfig(lam=0.8))
        rng = np.random.default_rng(21)
        prefix = tokenize(random_words(rng, 60))
        op = tokenize(random_words(rng, 30))
        ctx = oracle.stateful_segment(prefix, op)
        solo = oracle.base_segment(op, len(prefix))
        delta = np.abs(
            np.concatenate(
                [
                    ctx.keys.astype(np.float64) - solo.keys.astype(np.float64),
                    ctx.values.astype(np.float64) - solo.values.astype(np.float64),
                ]
            )
        )
        per_token = delta.mean(axis=(0, 1, 3))
        # Strong downward trend: early tokens dwarf late ones and a linear
        # fit has negative slope.
        assert per_token[:5].mean() > 10.0 * per_token[-5:].mean()
        slope = np.polyfit(np.arange(len(per_token)), per_token, 1)[0]
        assert slope < 0

    def test_segment_of_joint_matches_stateful(self):
        oracle = KVOracle()
        prefix = tokenize("one two three four")
        op = tokenize("five six")
        joint = oracle.base_segment(prefix + op, 0)
        seg = oracle.stateful_segment(prefix, op)
        assert np.array_equal(joint.keys[:, :, 4:, :], seg.keys)
        assert np.array_equal(joint.values[:, :, 4:, :], seg.values)


# ---------------------------------------------------------------------------
# Resuming from a prefix's carry
# ---------------------------------------------------------------------------


class TestResume:
    """``resume`` from the carry a chain of segments leaves behind must give
    each segment bitwise the one-pass ``stateful_segment`` result.  This also
    pins that the matrix products give a row the same bits whatever the
    number of rows around it."""

    @pytest.mark.parametrize(
        "config",
        [
            OracleConfig(),
            OracleConfig(lam=0.0),
            OracleConfig(layers=3, heads=2, head_dim=24, lam=0.6, seed=7),
        ],
        ids=["default", "lam0", "3x2x24"],
    )
    def test_chain_matches_one_pass(self, config):
        oracle = KVOracle(config)
        rng = np.random.default_rng(31)
        for _ in range(100):
            carry, prefix = oracle.empty_carry(), []
            for _ in range(int(rng.integers(1, 14))):
                segment = list(rng.integers(0, TOKEN_SPACE, size=int(rng.integers(1, 25))))
                got, carry = oracle.resume(carry, segment, len(prefix))
                expected = oracle.stateful_segment(prefix, segment)
                assert got.position_offset == expected.position_offset
                assert np.array_equal(got.keys.view(np.uint32), expected.keys.view(np.uint32))
                assert np.array_equal(got.values.view(np.uint32), expected.values.view(np.uint32))
                prefix += segment

    def test_empty_carry_gives_base_segment(self):
        oracle = KVOracle()
        tokens = tokenize("resume from nothing at all")
        got, carry = oracle.resume(oracle.empty_carry(), tokens, 9)
        expected = oracle.base_segment(tokens, 9)
        assert np.array_equal(got.keys, expected.keys)
        assert np.array_equal(got.values, expected.values)
        assert carry.shape == (4, 64) and carry.dtype == np.float64

    def test_rejects_carry_of_another_shape(self):
        oracle = KVOracle()
        with pytest.raises(DataError, match="carry"):
            oracle.resume(np.zeros((3, 64)), [1, 2], 0)


class TwoProductOracle:
    """The oracle's weight draws in their order, projected as two products
    per layer, ``mixed @ W_key`` and ``mixed @ W_value``, each reshaped to
    (heads, tokens, head_dim): the reference for the one fused product."""

    def __init__(self, config):
        self.config = config
        dm = config.d_model
        scale = 1.0 / np.sqrt(dm)
        rng = np.random.default_rng(config.seed)
        self.embeddings = rng.standard_normal((TOKEN_SPACE, dm))
        self.w_key = rng.standard_normal((config.layers, dm, dm)) * scale
        self.w_value = rng.standard_normal((config.layers, dm, dm)) * scale
        self.w_hidden = rng.standard_normal((config.layers, dm, dm)) * scale

    def resume(self, carry, tokens, offset):
        cfg = self.config
        t = len(tokens)
        x = self.embeddings[np.asarray(tokens)] + _positional_encoding(offset + np.arange(t), cfg.d_model)
        keys = np.empty((cfg.layers, cfg.heads, t, cfg.head_dim), dtype=np.float32)
        values = np.empty_like(keys)
        carry_out = np.empty_like(carry)
        for layer in range(cfg.layers):
            if cfg.lam == 0.0:
                mixed = x.copy()
            else:
                mixed = np.empty_like(x)
                m = carry[layer]
                for i in range(t):
                    m = x[i] + cfg.lam * m
                    mixed[i] = m
            carry_out[layer] = mixed[-1]
            k = mixed @ self.w_key[layer]
            v = mixed @ self.w_value[layer]
            keys[layer] = k.reshape(t, cfg.heads, cfg.head_dim).transpose(1, 0, 2).astype(np.float32)
            values[layer] = v.reshape(t, cfg.heads, cfg.head_dim).transpose(1, 0, 2).astype(np.float32)
            x = np.tanh(mixed @ self.w_hidden[layer])
        return keys, values, carry_out


class TestFusedProjection:
    @pytest.mark.parametrize(
        "config",
        [
            OracleConfig(),
            OracleConfig(lam=0.0),
            OracleConfig(layers=3, heads=2, head_dim=24, lam=0.6, seed=7),
        ],
        ids=["default", "lam0", "3x2x24"],
    )
    def test_states_equal_two_products_bitwise(self, config):
        oracle, reference = KVOracle(config), TwoProductOracle(config)
        rng = np.random.default_rng(43)
        for _ in range(40):
            carry = ref_carry = oracle.empty_carry()
            offset = 0
            for _ in range(int(rng.integers(1, 14))):
                segment = list(rng.integers(0, TOKEN_SPACE, size=int(rng.integers(1, 25))))
                got, carry = oracle.resume(carry, segment, offset)
                keys, values, ref_carry = reference.resume(ref_carry, segment, offset)
                expected = np.concatenate([keys, values], axis=3)
                assert np.array_equal(got.states.view(np.uint32), expected.view(np.uint32))
                assert np.array_equal(carry, ref_carry)
                offset += len(segment)


# ---------------------------------------------------------------------------
# Positional table and the parent arithmetic on single segments
# ---------------------------------------------------------------------------


def bits(a):
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


class TestPositionTable:
    def test_slices_equal_direct_encoding_across_growth_steps(self):
        oracle = KVOracle()
        dm = oracle.config.d_model
        # (offset, tokens, table rows after the call): the table doubles only
        # for a call that ends within twice its length.
        calls = [
            (0, 5, 256),
            (250, 10, 512),
            (500, 20, 1024),
            (1000, 30, 2048),
            (5000, 5, 2048),
            (2040, 16, 4096),
            (4090, 6, 4096),
        ]
        for offset, t, rows in calls:
            got = oracle._position_rows(offset, t)
            expected = _positional_encoding(offset + np.arange(t, dtype=np.int64), dm)
            assert np.array_equal(bits(got), bits(expected)), (offset, t)
            assert len(oracle._positions) == rows

    def test_far_offset_allocates_no_table(self, monkeypatch):
        import opflow.oracle as oracle_module

        config = OracleConfig(layers=3, heads=2, head_dim=24, lam=0.6, seed=7)
        oracle, reference = KVOracle(config), TwoProductOracle(config)
        real_encoding = oracle_module._positional_encoding

        def bounded_encoding(positions, dim):
            assert len(positions) <= 256, f"a {len(positions)}-row positional table"
            return real_encoding(positions, dim)

        monkeypatch.setattr(oracle_module, "_positional_encoding", bounded_encoding)
        rng = np.random.default_rng(59)
        tokens = list(rng.integers(0, TOKEN_SPACE, size=20))
        carry = rng.standard_normal((config.layers, config.d_model))
        for table_rows in (0, 256):
            if table_rows:
                oracle.base_segment(tokens, 0)
            got, got_carry = oracle.resume(carry, tokens, 2**31 - 30)
            keys, values, ref_carry = reference.resume(carry, tokens, 2**31 - 30)
            assert len(oracle._positions) == table_rows
            assert np.array_equal(bits(got.states), bits(np.concatenate([keys, values], axis=3)))
            assert np.array_equal(bits(got_carry), bits(ref_carry))


class TestSegmentsMatchParentArithmetic:
    """``base_segment`` (resume from the zero carry) gives bitwise what the
    per-token loop with two products and a direct positional encoding
    gives."""

    @pytest.mark.parametrize(
        "config",
        [OracleConfig(lam=0.0), OracleConfig(layers=3, heads=2, head_dim=24, lam=0.6, seed=7)],
        ids=["lam0", "3x2x24"],
    )
    def test_base_segment(self, config):
        oracle, reference = KVOracle(config), TwoProductOracle(config)
        rng = np.random.default_rng(67)
        for offset in (0, 3, 240, 251, 509, 1021, 3000, 70000):
            tokens = list(rng.integers(0, TOKEN_SPACE, size=int(rng.integers(1, 46))))
            keys, values, _ = reference.resume(oracle.empty_carry(), tokens, offset)
            expected = np.concatenate([keys, values], axis=3)
            got = oracle.base_segment(tokens, offset)
            assert got.position_offset == offset
            assert np.array_equal(bits(got.states), bits(expected)), offset
