"""Shared instance sampler and the numeric helpers it leans on."""

import math
import random

import numpy as np
import pytest
from evidence_cells import matrix_over
from hypothesis import given
from hypothesis import strategies as st

from clirset.corpus import Bitext, Corpus, Document
from clirset.errors import DataError
from clirset.evidence import Vocabulary, labeled_instances
from clirset.numerics import DEFAULT_EPSILON, sigmoid, softplus


class TestLabeledInstances:
    BITEXT = Bitext((
        (("f1",), ("alpha", "beta", "off-vocab")),
        (("f2",), ("gamma",)),
        (("f3",), ("nothing", "matches")),
    ))
    VOCAB = Vocabulary(("alpha", "beta", "gamma", "delta"))

    def test_positives_in_vocab_order(self):
        insts = labeled_instances(self.BITEXT, self.VOCAB, m_neg=1, rng=random.Random(0))
        assert [(i.pair_index, i.word) for i in insts if i.label == 1] == [
            (0, "alpha"), (0, "beta"), (1, "gamma"),
        ]

    def test_zero_sampling_rate_rejected(self):
        with pytest.raises(DataError, match=">= 1"):
            labeled_instances(self.BITEXT, self.VOCAB, m_neg=0, rng=random.Random(0))

    def test_negative_count_per_positive(self):
        insts = labeled_instances(self.BITEXT, self.VOCAB, m_neg=3, rng=random.Random(0))
        by_pair = {}
        for inst in insts:
            by_pair.setdefault(inst.pair_index, []).append(inst.label)
        assert sorted(by_pair[0]) == [0] * 6 + [1, 1]
        assert sorted(by_pair[1]) == [0, 0, 0, 1]
        assert 2 not in by_pair  # pair without vocab overlap contributes nothing

    def test_negatives_never_in_reference(self):
        insts = labeled_instances(self.BITEXT, self.VOCAB, m_neg=10, rng=random.Random(1))
        for inst in insts:
            if inst.label == 0:
                reference = set(self.BITEXT.pairs[inst.pair_index][1])
                assert inst.word not in reference

    def test_rng_required(self):
        # no silent fixed seed when the caller passes none
        with pytest.raises(TypeError, match="rng"):
            labeled_instances(self.BITEXT, self.VOCAB, 1)

    def test_same_seed_same_sample(self):
        a = labeled_instances(self.BITEXT, self.VOCAB, m_neg=5, rng=random.Random(9))
        b = labeled_instances(self.BITEXT, self.VOCAB, m_neg=5, rng=random.Random(9))
        assert a == b

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
