"""Shared instance sampler and the numeric helpers it leans on."""

import math
import random
import re

import numpy as np
import pytest
from evidence_cells import matrix_over
from hypothesis import given, settings
from hypothesis import strategies as st

import clirset.numerics as numerics_module
from clirset.corpus import Bitext, Corpus, Document
from clirset.errors import DataError
from clirset.evidence import LabeledInstance, Vocabulary, labeled_instances
from clirset.evidence.instances import distinct_rows
from clirset.numerics import DEFAULT_EPSILON, Choices, random_floats, sigmoid, softplus


def instances_one_object_each(bitext, vocab, m_neg, rng):
    """labeled_instances as it was when it built one object per instance, verbatim."""
    if m_neg < 1:
        raise DataError(f"negative sampling rate {m_neg} must be >= 1")
    instances: list[LabeledInstance] = []
    for i, (_, english) in enumerate(bitext):
        reference = set(english)
        positives = [token for token in vocab if token in reference]
        if not positives:
            continue
        pool = [token for token in vocab if token not in reference]
        for word in positives:
            instances.append(LabeledInstance(i, word, 1))
            if pool:
                for _ in range(m_neg):
                    instances.append(LabeledInstance(i, rng.choice(pool), 0))
    if not any(inst.label == 1 for inst in instances):
        raise DataError("bitext yields no positive training instances")
    if not any(inst.label == 0 for inst in instances):
        raise DataError("bitext yields no negative training instances")
    return instances


def columns_of(instances):
    return instances.pair_index.tolist(), instances.word_index.tolist(), instances.label.tolist()


TOKENS = [f"w{i}" for i in range(8)]


@st.composite
def bitexts_and_vocabularies(draw):
    vocab = draw(st.lists(st.sampled_from(TOKENS), min_size=1, unique=True))
    english = st.lists(st.sampled_from([*TOKENS, "off-vocab"]), min_size=1, max_size=6)
    pairs = draw(st.lists(english, min_size=1, max_size=12))
    return Bitext(tuple((("f",), tuple(e)) for e in pairs)), Vocabulary(tuple(vocab))


def choice_loop(bitext, vocab, m_neg, rng):
    """The instance columns of one `rng.choice` call per negative, over index pools."""
    pairs, words, labels = [], [], []
    for i, (_, english) in enumerate(bitext):
        positives = [j for j, token in enumerate(vocab) if token in english]
        pool = [j for j, token in enumerate(vocab) if token not in english]
        for j in positives:
            pairs.append(i)
            words.append(j)
            labels.append(1)
            for _ in range(m_neg if pool else 0):
                pairs.append(i)
                words.append(rng.choice(pool))
                labels.append(0)
    return pairs, words, labels


class TestBulkDraw:
    """Pool sizes where `choice`'s bit count changes and its rejection rate
    peaks (2^j + 1 rejects almost half the words), and chunks of words that
    end inside a pair's draws."""

    POOL_SIZES = sorted({1, *(2**j + d for j in range(1, 10) for d in (-1, 0, 1))})

    @pytest.mark.parametrize("chunk_words", [None, 5])
    @pytest.mark.parametrize("m_neg", [1, 3, 50])
    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    def test_equals_a_choice_loop(self, pool_size, m_neg, chunk_words, monkeypatch):
        if chunk_words:
            monkeypatch.setattr(numerics_module, "_CHUNK_WORDS", chunk_words)
        vocab = Vocabulary(tuple(f"w{i}" for i in range(pool_size + 2)))
        # every pair holds two vocabulary words, so each pool has pool_size words
        bitext = Bitext(tuple(
            (("f",), (f"w{a}", "off-vocab", f"w{b}"))
            for a, b in ((0, 1), (pool_size + 1, 0), (pool_size // 2, pool_size + 1))
        ))
        got_rng, want_rng = random.Random(pool_size), random.Random(pool_size)
        got = labeled_instances(bitext, vocab, m_neg, got_rng)
        assert columns_of(got) == choice_loop(bitext, vocab, m_neg, want_rng)
        assert got_rng.getstate() == want_rng.getstate()


class TestChoices:
    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**32 + 1, 2**40])
    def test_refuses_sizes_one_word_cannot_draw(self, n):
        with pytest.raises(ValueError, match=rf"n = {n}\b"):
            Choices(random.Random(0)).draw(n, 1)

    @pytest.mark.parametrize("n", [1, 2**31, 2**31 + 1, 2**32 - 1])
    def test_widest_sizes_equal_choice(self, n):
        # a range is a sequence of n items that holds no list of them
        got_rng, want_rng = random.Random(n), random.Random(n)
        choices = Choices(got_rng)
        got = choices.draw(n, 300).tolist()
        choices.close()
        assert got == [want_rng.choice(range(n)) for _ in range(300)]
        assert got_rng.getstate() == want_rng.getstate()


class TestRandomFloats:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 16384, 100001])
    def test_equals_random_calls(self, m):
        got_rng, want_rng = random.Random(m), random.Random(m)
        got = random_floats(got_rng, m)
        assert got.dtype == np.float64
        assert got.tolist() == [want_rng.random() for _ in range(m)]
        assert got_rng.getstate() == want_rng.getstate()


def assert_distinct_rows(a):
    """distinct_rows(a) holds each row of `a` once, in increasing
    lexicographic order, with float counts that repeat them into `a`'s rows."""
    rows, counts = distinct_rows(a)
    assert counts.dtype == float and counts.sum() == len(a)
    assert all(x < y for x, y in zip(rows.tolist(), rows[1:].tolist()))
    expanded = np.repeat(rows, counts.astype(int), axis=0)
    assert expanded.tolist() == sorted(a.tolist())


class TestDistinctRows:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([0, 2, 7, 50]),
    )
    def test_repeated_by_their_counts_are_q(self, n, k, seed, levels):
        """The mixture's q: likelihoods, some drawn from a few levels."""
        rng = np.random.default_rng(seed)
        if levels:
            q = rng.choice(np.linspace(0.01, 0.99, levels), size=(n, k))
        else:
            q = rng.uniform(1e-6, 1.0, size=(n, k))
        assert_distinct_rows(q)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        n_systems=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    def test_a_label_column_and_0_1_features(self, n, n_systems, seed, rate):
        """The MT ensemble's rows: a label, then one 0/1 feature per system."""
        rng = np.random.default_rng(seed)
        features = (rng.random((n, n_systems)) < rate).astype(float)
        labels = (rng.random(n) < 0.3).astype(float)
        assert_distinct_rows(np.column_stack([labels, features]))


class TestLabeledInstances:
    BITEXT = Bitext((
        (("f1",), ("alpha", "beta", "off-vocab")),
        (("f2",), ("gamma",)),
        (("f3",), ("nothing", "matches")),
    ))
    VOCAB = Vocabulary(("alpha", "beta", "gamma", "delta"))

    @settings(max_examples=200, deadline=None)
    @given(bitexts_and_vocabularies(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_same_draws_as_one_object_each(self, bitext_vocab, m_neg, seed):
        bitext, vocab = bitext_vocab
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        try:
            want = instances_one_object_each(bitext, vocab, m_neg, want_rng)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                labeled_instances(bitext, vocab, m_neg, got_rng)
        else:
            got = labeled_instances(bitext, vocab, m_neg, got_rng)
            assert columns_of(got) == (
                [inst.pair_index for inst in want],
                [vocab.index_of(inst.word) for inst in want],
                [inst.label for inst in want],
            )
            assert list(got) == want
            assert (got.pair_index.dtype, got.word_index.dtype) == (np.int64, np.int64)
        assert got_rng.random() == want_rng.random()

    def test_positives_in_vocab_order(self):
        insts = labeled_instances(self.BITEXT, self.VOCAB, m_neg=1, rng=random.Random(0))
        positive = insts.label == 1
        assert insts.pair_index[positive].tolist() == [0, 0, 1]
        assert insts.word_index[positive].tolist() == [0, 1, 2]  # alpha, beta, gamma

    def test_zero_sampling_rate_rejected(self):
        with pytest.raises(DataError, match=">= 1"):
            labeled_instances(self.BITEXT, self.VOCAB, m_neg=0, rng=random.Random(0))

    def test_negative_count_per_positive(self):
        insts = labeled_instances(self.BITEXT, self.VOCAB, m_neg=3, rng=random.Random(0))
        assert len(insts) == 12
        by_pair = {
            pair: sorted(insts.label[insts.pair_index == pair].tolist()) for pair in (0, 1)
        }
        assert by_pair[0] == [0] * 6 + [1, 1]
        assert by_pair[1] == [0, 0, 0, 1]
        assert 2 not in insts.pair_index  # pair without vocab overlap contributes nothing

    def test_negatives_never_in_reference(self):
        insts = labeled_instances(self.BITEXT, self.VOCAB, m_neg=10, rng=random.Random(1))
        negative = insts.label == 0
        for pair, word in zip(insts.pair_index[negative], insts.word_index[negative]):
            reference = set(self.BITEXT.pairs[pair][1])
            assert self.VOCAB.tokens[word] not in reference

    def test_rng_required(self):
        # no silent fixed seed when the caller passes none
        with pytest.raises(TypeError, match="rng"):
            labeled_instances(self.BITEXT, self.VOCAB, 1)

    def test_same_seed_same_sample(self):
        a = labeled_instances(self.BITEXT, self.VOCAB, m_neg=5, rng=random.Random(9))
        b = labeled_instances(self.BITEXT, self.VOCAB, m_neg=5, rng=random.Random(9))
        assert columns_of(a) == columns_of(b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6), min_size=1, max_size=12),
        st.integers(1, 10),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_cover_every_word_of_a_vocabulary_from_the_same_bitext(self, english, size, m_neg, seed):
        # so matrices built over vocab.tokens hold every word fit_mixture reads
        bitext = Bitext(tuple((("f",), tuple(e)) for e in english))
        vocab = Vocabulary.from_bitext(bitext, size)
        try:
            insts = labeled_instances(bitext, vocab, m_neg, random.Random(seed))
        except DataError as exc:  # every pair holds every vocabulary word
            assert str(exc) == "bitext yields no negative training instances"
            return
        every_word = list(range(len(vocab)))
        assert np.unique(insts.word_index[insts.label == 1]).tolist() == every_word
        assert np.unique(insts.word_index).tolist() == every_word

    def test_no_positives_rejected(self):
        bitext = Bitext(((("f1",), ("zzz",)),))
        with pytest.raises(DataError, match="no positive"):
            labeled_instances(bitext, self.VOCAB, m_neg=1, rng=random.Random(0))

    def test_no_negatives_rejected(self):
        bitext = Bitext(((("f1",), ("alpha", "beta", "gamma", "delta")),))
        with pytest.raises(DataError, match="no negative"):
            labeled_instances(bitext, self.VOCAB, m_neg=5, rng=random.Random(0))


class TestNumerics:
    def test_sigmoid_known_points(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(1.0) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-15)

    def test_sigmoid_extremes_stay_finite(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(sigmoid(np.array([-1e5, 0.0, 1e5]))))

    @staticmethod
    def sigmoid_formula(x: float) -> float:
        """1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below, on one element."""
        z = np.array([x])
        if x >= 0:
            return float((1.0 / (1.0 + np.exp(-z)))[0])
        ez = np.exp(z)
        return float((ez / (1.0 + ez))[0])

    EDGES = (0.0, -0.0, math.inf, -math.inf, 750.0, -750.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), max_size=40))
    def test_sigmoid_equals_the_formulas_bit_for_bit(self, values):
        values += self.EDGES
        want = np.array([self.sigmoid_formula(x) for x in values])
        assert sigmoid(np.array(values)).tobytes() == want.tobytes()
        for x in self.EDGES:
            assert type(sigmoid(x)) is float
            assert np.float64(sigmoid(x)).tobytes() == np.float64(self.sigmoid_formula(x)).tobytes()

    def test_sigmoid_keeps_nan(self):
        for nan in (math.nan, -math.nan):
            assert math.isnan(sigmoid(nan))
        values = [1.0, math.nan, -2.0, -math.nan, 0.0]
        got = sigmoid(np.array(values))
        assert np.isnan(got).tolist() == [False, True, False, True, False]
        want = np.array([self.sigmoid_formula(x) for x in values])
        assert got.tobytes() == want.tobytes()

    @given(st.floats(-30, 30))
    def test_sigmoid_complement_symmetry(self, z):
        assert sigmoid(-z) == pytest.approx(1.0 - sigmoid(z), abs=1e-12)

    def test_softplus_matches_reference(self):
        for z in (-20.0, -1.0, 0.0, 1.0, 20.0):
            assert float(softplus(z)) == pytest.approx(math.log1p(math.exp(z)), rel=1e-12)
        # large z would overflow the naive form
        assert float(softplus(1000.0)) == 1000.0

    def test_clamp_prob(self):
        eps = DEFAULT_EPSILON
        corpus = Corpus.from_documents([Document(id="d", kind="text", sentences=(("x",),))])
        cells = {"a": 0.5, "b": 0.0, "c": 1.0, "d": -3.0}.items()
        matrix = matrix_over(corpus, [("d", 0, word, prob) for word, prob in cells])
        assert list(matrix.iter_cells()) == [
            ("d", 0, "a", 0.5),
            ("d", 0, "b", eps),
            ("d", 0, "c", 1.0 - eps),
            ("d", 0, "d", eps),
        ]
