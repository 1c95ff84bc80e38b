"""Embedding searcher: scoring, closed-form gradients, training, persistence."""

import math

import numpy as np
import pytest

from clirset.corpus import Bitext, ConfusionNetwork, Corpus, Document, parse_query
from clirset.errors import DataError
from clirset.evidence import (
    SearcherConfig,
    SearcherGenerator,
    SearcherModel,
    Vocabulary,
    build_evidence,
    load_searcher,
    save_searcher,
    searcher_objective,
    train_searcher,
)


def zero_model(n_english=3, n_foreign=2, dim=4, depth=0):
    vocab = Vocabulary(tuple(f"e{i}" for i in range(n_english)))
    foreign = tuple(f"f{i}" for i in range(n_foreign))
    params = {
        "foreign_emb": np.zeros((n_foreign + 1, dim)),
        "english_emb": np.zeros((n_english, dim)),
        "bias": np.zeros(n_english),
    }
    if depth:
        for key in ("wq", "wk", "wv"):
            params[key] = np.zeros((dim, dim))
    return SearcherModel(vocab, foreign, params)


def score(model, sentence, word):
    """The searcher's evidence for `word` in a one-sentence text document."""
    doc = Document(id="d", kind="text", sentences=(sentence,))
    return SearcherGenerator(model).scorer([word])(doc, 0, sentence)[word]


def random_params(rng, n_foreign, n_english, dim, depth):
    params = {
        "foreign_emb": rng.normal(size=(n_foreign + 1, dim)),
        "english_emb": rng.normal(size=(n_english, dim)),
        "bias": rng.normal(size=n_english),
    }
    if depth:
        for key in ("wq", "wk", "wv"):
            params[key] = rng.normal(size=(dim, dim)) * 0.5
    return params


class TestScore:
    def test_zero_model_scores_half(self):
        model = zero_model()
        assert score(model, ("f0", "f1"), "e1") == 0.5

    def test_constructed_value(self):
        model = zero_model(dim=2)
        model.params["foreign_emb"][0] = [1.0, 0.0]
        model.params["foreign_emb"][1] = [0.0, 1.0]
        model.params["english_emb"][2] = [2.0, 0.5]
        # best token is f0: z = <e2, f0> = 2.0
        got = score(model, ("f0", "f1"), "e2")
        assert got == pytest.approx(1 / (1 + math.exp(-2.0)), abs=1e-12)
        # bias shifts the logit
        model.params["bias"][2] = -2.0
        assert score(model, ("f0", "f1"), "e2") == 0.5

    def test_token_order_ignored_without_attention(self):
        rng = np.random.default_rng(0)
        model = zero_model(n_foreign=4, dim=8)
        model.params["foreign_emb"][:] = rng.normal(size=(5, 8))
        model.params["english_emb"][:] = rng.normal(size=(3, 8))
        a = score(model, ("f0", "f2", "f3"), "e0")
        b = score(model, ("f3", "f0", "f2"), "e0")
        assert a == b

    def test_unknown_token_uses_unk_row(self):
        model = zero_model(dim=2)
        model.params["foreign_emb"][-1] = [3.0, 0.0]
        model.params["english_emb"][0] = [1.0, 0.0]
        got = score(model, ("never-seen",), "e0")
        assert got == pytest.approx(1 / (1 + math.exp(-3.0)), abs=1e-12)


class TestObjectiveGradients:
    def check_params(self, depth, seed):
        rng = np.random.default_rng(seed)
        n_foreign, n_english, dim = 3, 4, 3
        params = random_params(rng, n_foreign, n_english, dim, depth)
        examples = []
        for _ in range(3):
            length = rng.integers(2, 5)
            foreign_ids = rng.integers(0, n_foreign + 1, size=length)
            word_ids = np.array([0, 1, 3])
            labels = np.array([1.0, 0.0, 0.0])
            examples.append((foreign_ids, word_ids, labels))
        loss, grads = searcher_objective(params, examples)
        assert math.isfinite(loss)
        h = 1e-6
        for key, array in params.items():
            for flat in range(array.size):
                idx = np.unravel_index(flat, array.shape)
                orig = array[idx]
                array[idx] = orig + h
                hi, _ = searcher_objective(params, examples)
                array[idx] = orig - h
                lo, _ = searcher_objective(params, examples)
                array[idx] = orig
                num = (hi - lo) / (2 * h)
                got = grads[key][idx]
                assert got == pytest.approx(num, rel=1e-4, abs=1e-7), (
                    f"{key}{idx}: analytic {got} numeric {num}"
                )

    def test_depth_zero(self):
        self.check_params(depth=0, seed=1)

    def test_depth_one(self):
        self.check_params(depth=1, seed=2)

    def test_objective_rejects_empty(self):
        params = random_params(np.random.default_rng(0), 2, 2, 2, 0)
        with pytest.raises(DataError):
            searcher_objective(params, [])


def dictionary_bitext(n_words=10, n_pairs=200, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        ids = rng.choice(n_words, size=3, replace=False)
        pairs.append(
            (
                tuple(f"f{i}" for i in ids),
                tuple(f"e{i}" for i in ids),
            )
        )
    return Bitext(tuple(pairs)), Vocabulary(tuple(f"e{i}" for i in range(n_words)))


class TestTraining:
    def test_learns_a_bijective_dictionary(self):
        bitext, vocab = dictionary_bitext()
        config = SearcherConfig(dim=8, depth=0, epochs=30, lr=0.5, seed=0)
        model, losses = train_searcher(bitext, vocab, config)
        assert len(losses) == 30
        assert losses[-1] < losses[0]
        # aligned pairs score high, everything else low
        assert score(model, ("f3",), "e3") > 0.9
        assert score(model, ("f3",), "e7") < 0.1
        assert score(model, ("f1", "f5"), "e5") > 0.9

    def test_training_is_deterministic(self):
        bitext, vocab = dictionary_bitext()
        config = SearcherConfig(dim=4, epochs=3, seed=7)
        m1, l1 = train_searcher(bitext, vocab, config)
        m2, l2 = train_searcher(bitext, vocab, config)
        assert l1 == l2
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_attention_variant_trains(self):
        bitext, vocab = dictionary_bitext(n_words=6, n_pairs=80)
        config = SearcherConfig(dim=6, depth=1, epochs=10, lr=0.3, seed=0)
        model, losses = train_searcher(bitext, vocab, config)
        assert model.depth == 1
        assert losses[-1] < losses[0]

    def test_disjoint_bitext_rejected(self):
        bitext = Bitext(((("fa",), ("zz",)),))
        with pytest.raises(DataError, match="shares"):
            train_searcher(bitext, Vocabulary(("e0",)), SearcherConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(DataError):
            SearcherConfig(dim=0)
        with pytest.raises(DataError):
            SearcherConfig(depth=2)
        with pytest.raises(DataError):
            SearcherConfig(lr=0.0)
        with pytest.raises(DataError, match="learning rate nan"):
            SearcherConfig(lr=float("nan"))


class TestGenerator:
    def test_score_matches_searcher_score(self):
        bitext, vocab = dictionary_bitext(n_words=6, n_pairs=60)
        model, _ = train_searcher(
            bitext, vocab, SearcherConfig(dim=4, epochs=4, seed=1)
        )
        gen = SearcherGenerator(model)
        doc = Document(id="d", kind="text", sentences=(("f0", "f4"),))
        scores = gen.scorer(["e0", "e2"])(doc, 0, doc.sentences[0])
        # sigmoid(max_j <e(w), h_j> + bias_w), with h_j the token embeddings
        # since the model has no attention layer
        rows = [model.foreign_tokens.index(tok) for tok in ("f0", "f4")]
        word = vocab.index_of("e0")
        e_w = model.params["english_emb"][word]
        z = max(float(model.params["foreign_emb"][j] @ e_w) for j in rows)
        z += float(model.params["bias"][word])
        assert scores["e0"] == pytest.approx(1 / (1 + math.exp(-z)), abs=1e-12)

    def test_nan_parameter_rejected_while_building(self):
        model = zero_model()
        model.params["bias"][1] = float("nan")
        doc = Document(id="d", kind="text", sentences=(("f0",),))
        queries = [parse_query("q\te0 e1")]
        with pytest.raises(DataError, match="searcher.*'d'.*segment 0.*'e1'"):
            build_evidence(
                SearcherGenerator(model), Corpus.from_documents([doc]), queries
            )

    def test_oov_words_skipped(self):
        gen = SearcherGenerator(zero_model())
        doc = Document(id="d", kind="text", sentences=(("f0",),))
        scores = gen.scorer(["e0", "unknowable"])(doc, 0, doc.sentences[0])
        assert set(scores) == {"e0"}

    def test_speech_uses_one_best_path(self):
        model = zero_model(dim=2)
        model.params["foreign_emb"][0] = [5.0, 0.0]  # f0
        model.params["foreign_emb"][1] = [-5.0, 0.0]  # f1
        model.params["english_emb"][0] = [1.0, 0.0]
        cn = ConfusionNetwork(((("f1", 0.6), ("f0", 0.4)),))
        speech = Document(id="d", kind="speech", utterances=(cn,))
        gen = SearcherGenerator(model)
        scores = gen.scorer(["e0"])(speech, 0, cn)
        # one-best token is f1, so the score tracks f1's embedding
        assert scores["e0"] == pytest.approx(1 / (1 + math.exp(5.0)), abs=1e-12)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        bitext, vocab = dictionary_bitext(n_words=5, n_pairs=40)
        model, _ = train_searcher(
            bitext, vocab, SearcherConfig(dim=4, depth=1, epochs=2, seed=3)
        )
        path = tmp_path / "model.npz"
        save_searcher(model, path)
        loaded = load_searcher(path)
        assert loaded.english_vocab.tokens == model.english_vocab.tokens
        assert loaded.foreign_tokens == model.foreign_tokens
        assert loaded.depth == 1
        for key in model.params:
            assert np.array_equal(loaded.params[key], model.params[key])
        # loaded model scores identically
        assert score(loaded, ("f1", "f2"), "e0") == score(
            model, ("f1", "f2"), "e0"
        )

    def test_tampered_vocab_detected(self, tmp_path):
        model = zero_model()
        path = tmp_path / "model.npz"
        save_searcher(model, path)
        archive = dict(np.load(path, allow_pickle=False))
        tokens = [str(t) for t in archive["english_tokens"]]
        tokens[0] = "swapped"
        archive["english_tokens"] = np.array(tokens)
        np.savez(path, **archive)
        with pytest.raises(DataError, match="hash mismatch"):
            load_searcher(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not a zip")
        with pytest.raises(DataError, match="cannot read"):
            load_searcher(path)
