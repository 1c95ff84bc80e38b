"""Mixture weights, the EM fitter, and matrix combination."""

import logging
import math
import random

import numpy as np
import pytest
from evidence_cells import matrix_over
from hypothesis import given, settings
from hypothesis import strategies as st

from clirset.combiner import (
    MixtureWeights,
    combine,
    em_fit,
    fit_mixture,
    load_weights,
    save_weights,
)
from clirset.corpus import Bitext, Corpus, Document, bitext_corpus, bitext_doc_id
from clirset.errors import DataError
from clirset.evidence import Vocabulary, labeled_instances


# Every segment the combine tests name.
CORPUS = Corpus.from_documents(
    Document(id=doc_id, kind="text", sentences=(("x",),) * 30) for doc_id in "abcde"
)


def cell(m, doc_id, index, word):
    """One cell's stored value, or the floor when it was never stored."""
    stored = {c[:3]: c[3] for c in m.iter_cells()}
    return stored.get((doc_id, index, word), m.epsilon)


class TestMixtureWeights:
    def test_uniform(self):
        w = MixtureWeights.uniform(["a", "b", "c", "d"])
        assert w.weights == {t: 0.25 for t in "abcd"}

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError, match="negative"):
            MixtureWeights({"a": 1.2, "b": -0.2})

    def test_sum_must_be_one(self):
        with pytest.raises(DataError, match="sum"):
            MixtureWeights({"a": 0.5, "b": 0.4})

    def test_non_finite_weight_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DataError, match="'a' is not finite"):
                MixtureWeights({"a": bad, "b": 1.0})

    def test_duplicate_tags_in_uniform(self):
        with pytest.raises(DataError, match="duplicate"):
            MixtureWeights.uniform(["a", "a"])


class TestCombine:
    def test_hand_values(self):
        m1 = matrix_over(CORPUS, [("d", 0, "w", 0.9), ("d", 0, "v", 0.92)], "g1")
        m2 = matrix_over(CORPUS, [("d", 0, "w", 0.1)], "g2")
        out = combine([m1, m2], MixtureWeights({"g1": 0.5, "g2": 0.5}))
        assert out.generator == "combined"
        assert cell(out, "d", 0, "w") == pytest.approx(0.5, abs=1e-15)
        # v is missing from g2, which contributes the floor
        assert cell(out, "d", 0, "v") == pytest.approx(0.46 + 0.5e-6, abs=1e-15)

    def test_degenerate_weights_reproduce_one_matrix(self):
        m1 = matrix_over(CORPUS, [("d", 0, "w", 0.7), ("d", 1, "w", 0.2)], "g1")
        m2 = matrix_over(CORPUS, [("d", 0, "w", 0.4), ("e", 0, "w", 0.3)], "g2")
        out = combine([m1, m2], MixtureWeights({"g1": 1.0, "g2": 0.0}))
        assert cell(out, "d", 0, "w") == 0.7
        assert cell(out, "d", 1, "w") == 0.2
        # cell only g2 knows about collapses to g1's floor
        assert cell(out, "e", 0, "w") == m1.epsilon

    def test_convex_bounds(self):
        rng = random.Random(9)
        cells1, cells2 = [], []
        for i in range(30):
            cells1.append(("d", i, "w", rng.uniform(0.01, 0.99)))
            cells2.append(("d", i, "w", rng.uniform(0.01, 0.99)))
        m1 = matrix_over(CORPUS, cells1, "g1")
        m2 = matrix_over(CORPUS, cells2, "g2")
        out = combine([m1, m2], MixtureWeights({"g1": 0.3, "g2": 0.7}))
        for i in range(30):
            a, b = cell(m1, "d", i, "w"), cell(m2, "d", i, "w")
            c = cell(out, "d", i, "w")
            assert min(a, b) - 1e-15 <= c <= max(a, b) + 1e-15

    def test_argument_order_ignored(self):
        m1 = matrix_over(CORPUS, [("d", 0, "w", 0.73), ("d", 2, "x", 0.11)], "g1")
        m2 = matrix_over(CORPUS, [("d", 0, "w", 0.21), ("e", 0, "w", 0.5)], "g2")
        m3 = matrix_over(CORPUS, [("d", 1, "y", 0.66)], "g3")
        w = MixtureWeights({"g1": 0.2, "g2": 0.5, "g3": 0.3})
        a = combine([m1, m2, m3], w)
        b = combine([m3, m1, m2], w)
        assert list(a.iter_cells()) == list(b.iter_cells())

    @given(st.data())
    def test_matches_per_cell_sum_exactly(self, data):
        keys = st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(0, 3),
            st.sampled_from(["x", "y", "z"]),
        )
        tags = data.draw(
            st.lists(st.sampled_from(["t1", "t2", "t3"]), min_size=1, unique=True)
        )
        matrices = [
            matrix_over(CORPUS, [
                (*key, p) for key, p in data.draw(
                    st.dictionaries(keys, st.floats(0.0, 1.0), max_size=12)
                ).items()
            ], tag)
            for tag in tags
        ]
        raw = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=len(tags), max_size=len(tags))
        )
        mixture = MixtureWeights(
            {tag: w / sum(raw) for tag, w in zip(tags, raw)}
        )
        stored = [
            (m.generator, {cell[:3]: cell[3] for cell in m.iter_cells()})
            for m in matrices
        ]
        eps = matrices[0].epsilon
        expected = matrix_over(CORPUS, [
            (doc, idx, word, sum(
                mixture.weights[tag] * cells.get((doc, idx, word), eps)
                for tag, cells in sorted(stored)
            ))
            for doc, idx, word in {key for _, cells in stored for key in cells}
        ], "combined")
        got = combine(matrices, mixture)
        assert list(got.iter_cells()) == list(expected.iter_cells())

    def test_matrices_over_different_numberings_rejected(self):
        m1 = matrix_over(CORPUS, [("d", 0, "w", 0.5)], "g1")
        # a corpus of the same documents, which numbers its rows with its own dict
        twin = Corpus(dict(CORPUS.documents))
        m2 = matrix_over(twin, [("d", 0, "w", 0.5)], "g2")
        with pytest.raises(DataError, match="not built over one corpus"):
            combine([m1, m2], MixtureWeights.uniform(["g1", "g2"]))

    def test_tag_mismatch_rejected(self):
        m1 = matrix_over(CORPUS, [], "g1")
        with pytest.raises(DataError, match="do not match"):
            combine([m1], MixtureWeights({"other": 1.0}))

    def test_duplicate_tags_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            combine(
                [matrix_over(CORPUS, [], "g"), matrix_over(CORPUS, [], "g")],
                MixtureWeights({"g": 1.0}),
            )

    def test_floor_disagreement_rejected(self):
        m1 = matrix_over(CORPUS, [], "g1", epsilon=1e-6)
        m2 = matrix_over(CORPUS, [], "g2", epsilon=1e-5)
        with pytest.raises(DataError, match="floor"):
            combine([m1, m2], MixtureWeights.uniform(["g1", "g2"]))


class TestEmFit:
    def test_identical_generators_stay_uniform(self):
        rng = np.random.default_rng(0)
        col = rng.uniform(0.1, 0.9, size=500)
        q = np.stack([col, col, col], axis=1)
        lam, _ = em_fit(q)
        assert lam == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_loglik_monotone(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(0.05, 0.95, size=(400, 3))
        _, history = em_fit(q)
        assert len(history) >= 1
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-10)

    def test_recovers_planted_mixture(self):
        # two known Bernoulli experts; instances drawn from a 0.7/0.3 blend
        p_a, p_b = 0.9, 0.2
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            z = rng.random(10_000) < 0.7
            x = np.where(z, rng.random(10_000) < p_a, rng.random(10_000) < p_b)
            q = np.stack(
                [
                    np.where(x, p_a, 1 - p_a),
                    np.where(x, p_b, 1 - p_b),
                ],
                axis=1,
            )
            lam, history = em_fit(q)
            assert lam[0] == pytest.approx(0.7, abs=0.05)
            assert lam[1] == pytest.approx(0.3, abs=0.05)
            assert np.all(np.diff(history) >= -1e-10)

    def test_weights_stay_on_simplex(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(0.01, 0.99, size=(50, 4))
        lam, _ = em_fit(q)
        assert np.all(lam >= 0)
        assert float(lam.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            em_fit(np.zeros((0, 2)))
        with pytest.raises(DataError):
            em_fit(np.array([1.0, 0.5]))
        with pytest.raises(DataError, match="positive"):
            em_fit(np.array([[0.5, 0.0]]))


def em_fit_on_the_matrix(q, tol, max_iter):
    """em_fit as it was before it worked on per-generator columns, verbatim."""
    q = np.asarray(q, dtype=float)
    n, k = q.shape
    lam = np.full(k, 1.0 / k)
    history = []
    prev = float(np.sum(np.log(q @ lam)))
    for _ in range(max_iter):
        resp = q * lam  # (n, k)
        resp /= resp.sum(axis=1, keepdims=True)
        lam = resp.mean(axis=0)
        loglik = float(np.sum(np.log(q @ lam)))
        history.append(loglik)
        if loglik - prev < tol:
            break
        prev = loglik
    return lam, history


def planted_q(n, k, seed, levels):
    """Instance likelihoods; with `levels` > 0 drawn from that many values."""
    rng = np.random.default_rng(seed)
    if levels:
        return rng.choice(np.linspace(0.01, 0.99, levels), size=(n, k))
    return rng.uniform(1e-6, 1.0, size=(n, k))


class TestEmFitBitExact:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([0, 2, 7, 50]),
        tol=st.sampled_from([1e-8, 1e-5, 1e-3, 0.1]),
        max_iter=st.integers(1, 40),
    )
    def test_matches_the_matrix_loop(self, n, k, seed, levels, tol, max_iter):
        q = planted_q(n, k, seed, levels)
        lam, history = em_fit(q, tol, max_iter)
        want_lam, want_history = em_fit_on_the_matrix(q, tol, max_iter)
        assert lam.tolist() == want_lam.tolist()
        assert history == want_history

    @pytest.mark.parametrize("k", [5, 7, 8, 9, 12])
    def test_matches_the_matrix_loop_for_many_generators(self, k):
        q = planted_q(2000, k, k, 0)
        lam, history = em_fit(q, 1e-12, 30)
        want_lam, want_history = em_fit_on_the_matrix(q, 1e-12, 30)
        assert lam.tolist() == want_lam.tolist()
        assert history == want_history


def toy_bitext_and_vocab():
    english = [f"e{i}" for i in range(6)]
    pairs = []
    for i in range(12):
        word = english[i % 6]
        pairs.append(((f"f{i}",), (word, "filler")))
    return Bitext(tuple(pairs)), Vocabulary(tuple(english))


def sharp_and_flat(bitext, vocab):
    """A generator sure of each pair's first reference word, and one at 0.5."""
    sharp_cells = []
    flat_cells = []
    for i, (_, reference) in enumerate(bitext.pairs):
        doc = bitext_doc_id(i)
        sharp_cells.append((doc, 0, reference[0], 0.95))
        for word in vocab.tokens:
            flat_cells.append((doc, 0, word, 0.5))
    pseudo = bitext_corpus(bitext)
    return (
        matrix_over(pseudo, sharp_cells, "sharp"),
        matrix_over(pseudo, flat_cells, "flat"),
    )


def instance_q(matrices, instances):
    """The (instances x generators) matrix of q_k, read one cell at a time."""
    return np.array(
        [
            [
                p if inst.label == 1 else 1.0 - p
                for p in (
                    cell(m, bitext_doc_id(inst.pair_index), 0, inst.word)
                    for m in matrices
                )
            ]
            for inst in instances
        ]
    )


def em_warnings(caplog):
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "clirset.combiner" and record.levelno == logging.WARNING
    ]


class TestFitMixture:
    def test_sharp_generator_wins(self):
        bitext, vocab = toy_bitext_and_vocab()
        fitted = fit_mixture(
            list(sharp_and_flat(bitext, vocab)), bitext, vocab, m_neg=3, seed=0
        )
        assert fitted.weights["sharp"] > 0.9
        assert fitted.loglik is not None
        assert fitted.loglik == fitted.loglik_history[-1]

    def test_cap_while_still_rising_logs_a_warning(self, caplog):
        bitext, vocab = toy_bitext_and_vocab()
        instances = labeled_instances(bitext, vocab, 3, random.Random(0))
        q = instance_q(list(sharp_and_flat(bitext, vocab)), instances)
        with caplog.at_level(logging.WARNING, logger="clirset.combiner"):
            _, history = em_fit(q, max_iter=5)
        assert len(history) == 5
        assert history[-1] - history[-2] >= 1e-8
        [message] = em_warnings(caplog)
        assert "cap of 5 iterations" in message
        # the capped fit is the first five steps of a longer one
        _, longer = em_fit(q, max_iter=6)
        assert longer[:5] == history

    def test_converged_fit_logs_no_warning(self, caplog):
        bitext, vocab = toy_bitext_and_vocab()
        with caplog.at_level(logging.WARNING, logger="clirset.combiner"):
            fitted = fit_mixture(
                list(sharp_and_flat(bitext, vocab)), bitext, vocab, m_neg=3, seed=0
            )
        assert len(fitted.loglik_history) < 500
        assert em_warnings(caplog) == []

    def test_weights_keyed_by_tag_not_position(self):
        bitext, vocab = toy_bitext_and_vocab()
        sharp, flat = sharp_and_flat(bitext, vocab)
        a = fit_mixture([sharp, flat], bitext, vocab, m_neg=3, seed=0)
        b = fit_mixture([flat, sharp], bitext, vocab, m_neg=3, seed=0)
        assert a.weights["sharp"] == pytest.approx(b.weights["sharp"], abs=1e-9)

    def test_identical_matrices_stay_uniform(self):
        bitext, vocab = toy_bitext_and_vocab()
        cells = [
            (bitext_doc_id(i), 0, w, 0.5)
            for i in range(len(bitext.pairs))
            for w in vocab.tokens
        ]
        pseudo = bitext_corpus(bitext)
        fitted = fit_mixture(
            [matrix_over(pseudo, cells, "a"), matrix_over(pseudo, cells, "b")],
            bitext, vocab, m_neg=2, seed=0,
        )
        assert fitted.weights["a"] == pytest.approx(0.5, abs=1e-9)

    def test_matrix_not_over_the_bitext_rejected(self):
        bitext, vocab = toy_bitext_and_vocab()
        sharp, _ = sharp_and_flat(bitext, vocab)
        pseudo = list(bitext_corpus(bitext))
        other = Document(id="other", kind="text", sentences=(("x",),))
        for docs in (pseudo[:-1], pseudo + [other], pseudo[::-1], [*pseudo[:3], other]):
            stray = matrix_over(Corpus.from_documents(docs), [], "stray")
            with pytest.raises(DataError, match="'stray' is read over a corpus"):
                fit_mixture([sharp, stray], bitext, vocab, m_neg=3, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.integers(1, 3), m_neg=st.integers(1, 4))
    def test_reads_each_instance_cell_exactly(self, data, k, m_neg):
        bitext, vocab = toy_bitext_and_vocab()
        cell_st = st.tuples(
            st.sampled_from([bitext_doc_id(i) for i in range(len(bitext.pairs))]),
            st.just(0),
            st.sampled_from(vocab.tokens),
            st.floats(0.0, 1.0),
        )
        # each over a pseudo-corpus of its own, which numbers its rows alike
        matrices = [
            matrix_over(
                bitext_corpus(bitext), data.draw(st.lists(cell_st, max_size=60)), f"g{j}"
            )
            for j in range(k)
        ]
        instances = labeled_instances(bitext, vocab, m_neg, random.Random(3))
        q = instance_q(matrices, instances)
        fitted = fit_mixture(matrices, bitext, vocab, m_neg=m_neg, seed=3)
        lam, history = em_fit(q)
        assert [fitted.weights[m.generator] for m in matrices] == lam.tolist()
        assert list(fitted.loglik_history) == history


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        w = MixtureWeights(
            {"tt": 0.123456789012345, "cn": 1.0 - 0.123456789012345},
            loglik=-41.25,
            loglik_history=(-50.0, -41.25),
        )
        path = tmp_path / "w.tsv"
        save_weights(w, path)
        loaded = load_weights(path)
        assert loaded.weights == w.weights
        assert loaded.loglik == -41.25
        # the history is a fit diagnostic, not part of the file format
        assert loaded.loglik_history == ()

    def test_no_loglik_line_when_unset(self, tmp_path):
        path = tmp_path / "w.tsv"
        save_weights(MixtureWeights.uniform(["a", "b"]), path)
        assert "#loglik" not in path.read_text()
        assert load_weights(path).loglik is None

    def test_duplicate_tag_rejected(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("a\t0.5\na\t0.5\n")
        with pytest.raises(DataError, match="duplicate"):
            load_weights(path)

    def test_bad_sum_rejected_on_load(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("a\t0.5\nb\t0.6\n")
        with pytest.raises(DataError, match="sum"):
            load_weights(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_loglik_rejected(self, tmp_path, value):
        path = tmp_path / "w.tsv"
        path.write_text(f"a\t0.5\nb\t0.5\n#loglik={value}\n")
        with pytest.raises(DataError, match=rf"w\.tsv:3: loglik .* is not finite"):
            load_weights(path)

    def test_invalid_weights_name_the_file(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("\t-0.5\nb\t1.5\n")
        with pytest.raises(DataError, match=r"w\.tsv: mixture weight for '' is negative"):
            load_weights(path)
