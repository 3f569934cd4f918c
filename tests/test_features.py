import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmrouter.errors import DimError, FormatError, InputError
from rmrouter.features import (
    FusionParams,
    HashingEncoder,
    PairEmbedding,
    PreferencePair,
    embed_pair,
    encode_text,
    load_dataset,
    load_embeddings,
    prefusion_vector,
    row_norms,
    save_dataset,
    save_embeddings,
)


def make_pair(a="first answer", b="second answer", label=None, pid="p0"):
    return PreferencePair(pid, "what is the question?", a, b, label)


class StubEncoder:
    """Maps exact texts to fixed vectors; used to pin down fusion arithmetic."""

    def __init__(self, table, dim):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.dim = dim

    def encode(self, text):
        return self.table[text]


class TestHashingEncoder:
    def test_deterministic_bitwise(self):
        text = "The quick brown fox jumps over the lazy dog"
        assert np.array_equal(encode_text(text), encode_text(text))

    def test_distinct_texts_distinct_vectors(self):
        assert not np.array_equal(encode_text("a"), encode_text("b"))

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for length in (1, 3, 10, 200):
            text = "".join(chr(int(c)) for c in rng.integers(33, 0x2FFF, size=length))
            vec = encode_text(text)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_empty_text_rejected(self):
        with pytest.raises(InputError):
            encode_text("")

    def test_finite_on_large_utf8(self):
        text = ("é世界 hello " * 1200)[:16384]
        vec = encode_text(text)
        assert len(text.encode("utf-8")) >= 16000
        assert np.all(np.isfinite(vec))

    def test_whitespace_only_still_encodes(self):
        vec = encode_text("   ")
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


class TestEmbedPair:
    def test_identical_responses_zero_abs_half(self):
        pair = make_pair(a="same text", b="same text")
        enc = HashingEncoder(16)
        pre = prefusion_vector(pair, enc)
        assert np.array_equal(pre[16:], np.zeros(16))

    def test_swap_symmetry_exact(self):
        params = FusionParams.random_init(8, 16, np.random.default_rng(0))
        fwd = embed_pair(make_pair(a="alpha", b="beta"), params, HashingEncoder(16))
        rev = embed_pair(make_pair(a="beta", b="alpha"), params, HashingEncoder(16))
        assert np.array_equal(fwd.vector, rev.vector)

    def test_swap_symmetry_random_texts(self):
        rng = np.random.default_rng(4)
        params = FusionParams.random_init(6, 8, rng)
        enc = HashingEncoder(8)
        for _ in range(25):
            words = ["w%d" % rng.integers(50) for _ in range(int(rng.integers(1, 12)))]
            a, b = " ".join(words[: len(words) // 2 + 1]), " ".join(words[len(words) // 2 :] or ["x"])
            fwd = embed_pair(make_pair(a=a, b=b), params, enc)
            rev = embed_pair(make_pair(a=b, b=a), params, enc)
            assert np.array_equal(fwd.vector, rev.vector)

    def test_identity_fusion_hand_case(self):
        pair = make_pair(a="resp a", b="resp b", pid="hand")
        enc = StubEncoder(
            {
                pair.prompt + "\n" + pair.response_a: [1.0, 0.0],
                pair.prompt + "\n" + pair.response_b: [0.0, 1.0],
            },
            dim=2,
        )
        assert np.array_equal(prefusion_vector(pair, enc), [1.0, 1.0, 1.0, 1.0])
        params = FusionParams(weight=np.eye(4), bias=np.zeros(4))
        emb = embed_pair(pair, params, enc)
        assert np.array_equal(emb.vector, np.tanh([1.0, 1.0, 1.0, 1.0]))

    def test_determinism_bitwise(self):
        params = FusionParams.random_init(8, 16, np.random.default_rng(1))
        a = embed_pair(make_pair(), params)
        b = embed_pair(make_pair(), params)
        assert np.array_equal(a.vector, b.vector)

    def test_encoder_dim_mismatch(self):
        params = FusionParams.random_init(8, 16, np.random.default_rng(0))
        with pytest.raises(DimError):
            embed_pair(make_pair(), params, HashingEncoder(32))

    def test_bad_fusion_shapes(self):
        with pytest.raises(DimError):
            FusionParams(weight=np.ones((4, 7)), bias=np.zeros(4))
        with pytest.raises(DimError):
            FusionParams(weight=np.ones((4, 8)), bias=np.zeros(3))


class TestPairValidation:
    def test_empty_fields_rejected(self):
        with pytest.raises(InputError):
            PreferencePair("p", "", "a", "b")
        with pytest.raises(InputError):
            PreferencePair("p", "q", "a", "")

    def test_bad_label_rejected(self):
        with pytest.raises(InputError):
            PreferencePair("p", "q", "a", "b", label="C")

    def test_non_finite_embedding_rejected(self):
        from rmrouter.errors import NumericalError

        with pytest.raises(NumericalError):
            PairEmbedding(np.array([1.0, np.nan]))


class TestFileFormats:
    def test_embeddings_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        embs = {f"p{i}": PairEmbedding(rng.standard_normal(8)) for i in range(3)}
        path = tmp_path / "emb.jsonl"
        save_embeddings(path, embs)
        loaded = load_embeddings(path)
        assert len(loaded) == 3
        for pid in embs:
            assert np.allclose(loaded[pid].vector, embs[pid].vector, atol=1e-12)
            assert np.array_equal(loaded[pid].vector, embs[pid].vector)

    def test_mixed_dims_rejected_with_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"pair_id":"a","vector":[1.0,2.0]}\n{"pair_id":"b","vector":[1.0,2.0,3.0]}\n'
        )
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line == 2

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"pair_id":"a","vector":[1.0]}\nnot json\n')
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.line == 2

    def test_missing_file(self):
        with pytest.raises(FormatError):
            load_embeddings("/nonexistent/emb.jsonl")

    def test_dataset_round_trip(self, tmp_path):
        pairs = [
            make_pair(pid="p1", label="A"),
            make_pair(pid="p2", label="B"),
            make_pair(pid="p3"),
        ]
        path = tmp_path / "pairs.jsonl"
        save_dataset(path, pairs)
        loaded = load_dataset(path)
        assert loaded == pairs

    def test_duplicate_pair_id_rejected(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        row = '{"pair_id":"p1","prompt":"q","response_a":"a","response_b":"b"}\n'
        path.write_text(row + row)
        with pytest.raises(FormatError) as exc:
            load_dataset(path)
        assert exc.value.line == 2


# entries whose squares neither overflow nor, for a row with a nonzero entry, all underflow
ordinary = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


def ordinary_rows(d):
    # a zero row becomes a row of ones: every row has a nonzero entry
    return arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)), elements=ordinary).map(
        lambda rows: np.where(np.abs(rows).max(axis=1, keepdims=True) > 0.0, rows, 1.0)
    )


def rescaled_norm(row):
    """The norm of a row whose h.h over- or underflows: scaled by its largest |entry| first."""
    scale = np.max(np.abs(row))
    return scale * np.linalg.norm(row / scale)


class TestRowNorms:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 40).flatmap(ordinary_rows))
    def test_ordinary_rows_match_linalg_norm_bit_for_bit(self, rows):
        got = row_norms(rows)
        assert [float(x) for x in got] == [float(np.linalg.norm(row)) for row in rows]

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 40).flatmap(ordinary_rows),
           st.sampled_from([2.0**-600, 2.0**-530, 2.0**600]))
    def test_under_and_overflowing_rows_are_rescaled(self, rows, factor):
        # h.h is 0, a subnormal or inf; a power of two scales every entry
        # exactly, so the norm scales with it
        rows = rows / np.abs(rows).max(axis=1, keepdims=True) * factor
        got = row_norms(rows)
        assert [float(x) for x in got] == [float(rescaled_norm(row)) for row in rows]
        expected = np.array([np.linalg.norm(row / factor) for row in rows]) * factor
        assert np.allclose(got, expected, rtol=1e-15, atol=0.0)

    def test_zero_row_has_norm_zero_among_others(self):
        rows = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [1e-200, 0.0, 0.0], [0.0, 1e300, 1e300]])
        got = row_norms(rows)
        assert got[0] == 0.0 and got[1] == 5.0 and got[2] == 1e-200
        assert got[3] == rescaled_norm(rows[3]) and np.isclose(got[3], np.sqrt(2) * 1e300)
        assert row_norms(np.zeros((2, 0))).tolist() == [0.0, 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_past_float64_is_inf_without_a_warning(self):
        rows = np.array([[np.inf, 1.0], [1.5e308, 1.5e308], [1e308, 0.0]])
        assert row_norms(rows).tolist() == [np.inf, np.inf, 1e308]
