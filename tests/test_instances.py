"""Shared instance sampler and the numeric helpers it leans on."""

import math
import random
import re

import numpy as np
import pytest
from evidence_cells import matrix_over
from hypothesis import given, settings
from hypothesis import strategies as st

from clirset.corpus import Bitext, Corpus, Document
from clirset.errors import DataError
from clirset.evidence import LabeledInstance, Vocabulary, labeled_instances
from clirset.numerics import DEFAULT_EPSILON, sigmoid, softplus


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
