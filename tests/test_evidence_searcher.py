"""Embedding searcher: scoring, closed-form gradients, training, persistence."""

import json
import math
import os
import struct

import numpy as np
import pytest
from corpus_helpers import from_slots
from hypothesis import given, settings
from hypothesis import strategies as st

import clirset.evidence.searcher as searcher_module
from clirset.corpus import Bitext, Corpus, Document, parse_query
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
from clirset.evidence.matrix import ranked_tokens
from clirset.evidence.searcher import (
    _ALL_ROWS,
    INIT_SCALE,
    _contextualize,
    _pair_loss_and_grads,
)
from clirset.numerics import sigmoid


def zero_model(n_english=3, n_foreign=2, dim=4, depth=0):
    vocab = Vocabulary(tuple(f"e{i}" for i in range(n_english)))
    foreign = Vocabulary(tuple(f"f{i}" for i in range(n_foreign)))
    params = {
        "foreign_emb": np.zeros((n_foreign + 1, dim)),
        "english_emb": np.zeros((n_english, dim)),
        "bias": np.zeros(n_english),
    }
    if depth:
        for key in ("wq", "wk", "wv"):
            params[key] = np.zeros((dim, dim))
    return SearcherModel(vocab, foreign, params)


def segment_scores(gen, doc, words):
    """The generator's raw evidence for each word it scores in a one-segment document."""
    cells, background = gen.columns(Corpus.from_documents([doc]), words)
    assert background is None
    return {word: float(values[0]) for word, (_, values) in cells.items()}


def score(model, sentence, word):
    """The searcher's evidence for `word` in a one-sentence text document."""
    doc = Document(id="d", kind="text", sentences=(sentence,))
    return segment_scores(SearcherGenerator(model), doc, [word])[word]


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
        with pytest.raises(DataError, match="seed -1 must be non-negative"):
            SearcherConfig(seed=-1)
        with pytest.raises(DataError, match="sampling rate 0 must be >= 1"):
            SearcherConfig(m_neg=0)


class TestGenerator:
    def test_score_matches_searcher_score(self):
        bitext, vocab = dictionary_bitext(n_words=6, n_pairs=60)
        model, _ = train_searcher(
            bitext, vocab, SearcherConfig(dim=4, epochs=4, seed=1)
        )
        gen = SearcherGenerator(model)
        doc = Document(id="d", kind="text", sentences=(("f0", "f4"),))
        scores = segment_scores(gen, doc, ["e0", "e2"])
        # sigmoid(max_j <e(w), h_j> + bias_w), with h_j the token embeddings
        # since the model has no attention layer
        rows = [model.foreign_vocab.tokens.index(tok) for tok in ("f0", "f4")]
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
        scores = segment_scores(gen, doc, ["e0", "unknowable"])
        assert set(scores) == {"e0"}

    def test_speech_uses_one_best_path(self):
        model = zero_model(dim=2)
        model.params["foreign_emb"][0] = [5.0, 0.0]  # f0
        model.params["foreign_emb"][1] = [-5.0, 0.0]  # f1
        model.params["english_emb"][0] = [1.0, 0.0]
        cn = from_slots(((("f1", 0.6), ("f0", 0.4)),))
        speech = Document(id="d", kind="speech", utterances=(cn,))
        gen = SearcherGenerator(model)
        scores = segment_scores(gen, speech, ["e0"])
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
        assert loaded.foreign_vocab.tokens == model.foreign_vocab.tokens
        assert loaded.depth == 1
        for key in model.params:
            assert np.array_equal(loaded.params[key], model.params[key])
        # loaded model scores identically
        assert score(loaded, ("f1", "f2"), "e0") == score(
            model, ("f1", "f2"), "e0"
        )

    def test_writes_to_the_path_it_is_given(self, tmp_path):
        # numpy appends .npz to a bare path; the model must land at `path`
        path = tmp_path / "model.bin"
        save_searcher(zero_model(), path)
        assert os.listdir(tmp_path) == ["model.bin"]
        assert load_searcher(path).dim == 4

    def test_tampered_vocab_detected(self, tmp_path):
        model = zero_model()
        path = tmp_path / "model.npz"
        save_searcher(model, path)
        archive = dict(np.load(path, allow_pickle=False))
        tokens = [str(t) for t in archive["english_tokens"]]
        tokens[0] = "swapped"
        archive["english_tokens"] = np.array(tokens)
        np.savez(path, **archive)
        with pytest.raises(DataError) as raised:
            load_searcher(path)
        assert str(raised.value) == (
            f"{path}: manifest english_vocab_sha256 does not match the arrays"
        )

    @pytest.mark.parametrize("key", ["english_tokens", "foreign_tokens"])
    def test_repeated_token_refused(self, tmp_path, key):
        path = tmp_path / "model.npz"
        save_searcher(zero_model(), path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
        tokens = arrays[key].tolist()
        tokens[1] = tokens[0]
        arrays[key] = np.array(tokens)
        np.savez(path, **arrays)
        with pytest.raises(DataError) as raised:
            load_searcher(path)
        assert str(raised.value) == f"{path}: duplicate vocabulary token {tokens[0]!r}"

    @pytest.mark.parametrize(
        "depth, manifest, extra, key",
        [
            (1, {"depth": 0}, (), "depth"),
            (1, {"depth": 2}, (), "depth"),
            (0, {}, ("wq", "wk", "wv"), "depth"),
            (0, {"dim": 5}, (), "dim"),
        ],
        ids=["depth-1-says-0", "depth-1-says-2", "depth-0-beside-attention", "dim"],
    )
    def test_manifest_must_describe_the_arrays(self, tmp_path, depth, manifest, extra, key):
        path = tmp_path / "model.npz"
        save_searcher(zero_model(dim=4, depth=depth), path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
        saved = json.loads(str(arrays["manifest"]))
        arrays["manifest"] = np.array(json.dumps({**saved, **manifest}))
        arrays.update((name, np.zeros((4, 4))) for name in extra)
        np.savez(path, **arrays)
        with pytest.raises(DataError) as raised:
            load_searcher(path)
        assert str(raised.value) == f"{path}: manifest {key} does not match the arrays"

    @pytest.mark.parametrize("damage", ["method", "encrypted", "deflate"])
    def test_damaged_zip_member_names_the_file(self, tmp_path, damage):
        path = tmp_path / "model.npz"
        save_searcher(zero_model(), path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
        np.savez_compressed(path, **arrays)
        data = bytearray(path.read_bytes())
        central = data.index(b"PK\x01\x02")  # the first member's directory entry
        if damage == "method":  # no compression method zipfile knows
            data[central + 10] = 99
        elif damage == "encrypted":
            data[central + 8] |= 1
        else:  # the first deflate block of the first member: a reserved type
            name_len, extra_len = struct.unpack_from("<HH", data, 26)
            data[30 + name_len + extra_len] = 0xFF
        path.write_bytes(data)
        with pytest.raises(DataError) as raised:
            load_searcher(path)
        assert str(raised.value).startswith(f"cannot read searcher model {path}: ")

    def test_lone_array_is_not_a_model(self, tmp_path):
        path = tmp_path / "model.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(DataError) as raised:
            load_searcher(path)
        assert str(raised.value).startswith(f"cannot read searcher model {path}: ")

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not a zip")
        with pytest.raises(DataError, match="cannot read"):
            load_searcher(path)

    @pytest.mark.parametrize(
        "manifest", [None, "[1]", "[" * 100_000], ids=["no-zip", "list", "deep"]
    )
    def test_malformed_archive_names_the_file(self, tmp_path, manifest):
        path = tmp_path / "model.npz"
        if manifest is None:  # zip magic, then no zip
            path.write_bytes(b"PK\x03\x04 not a zip")
        else:
            save_searcher(zero_model(), path)
            archive = dict(np.load(path, allow_pickle=False))
            archive["manifest"] = np.array(manifest)
            np.savez(path, **archive)
        with pytest.raises(DataError) as raised:
            load_searcher(path)
        assert str(path) in str(raised.value)


# The training loop as it stood before steps touched only their own rows:
# dense gradients from zeros, np.add.at scatters, setdiff1d/isin
# negatives, and a full update of every parameter array. Copied line for
# line, except that `full_vocab_max` stands in for the module constant,
# the epoch log is dropped, and the params and losses are returned.


def dense_backprop_context(params, cache, grad_h, grads, foreign_ids) -> None:
    if cache is None:
        np.add.at(grads["foreign_emb"], foreign_ids, grad_h)
        return
    x, q, k, v, attn, scale = cache
    grad_v = attn.T @ grad_h
    grad_attn = grad_h @ v.T
    # softmax backward, rowwise
    grad_scores = attn * (grad_attn - (grad_attn * attn).sum(axis=1, keepdims=True))
    grad_q = (grad_scores @ k) * scale
    grad_k = (grad_scores.T @ q) * scale
    grads["wq"] += x.T @ grad_q
    grads["wk"] += x.T @ grad_k
    grads["wv"] += x.T @ grad_v
    grad_x = grad_q @ params["wq"].T + grad_k @ params["wk"].T + grad_v @ params["wv"].T
    np.add.at(grads["foreign_emb"], foreign_ids, grad_x)


def dense_pair_loss_and_grads(params, foreign_ids, word_ids, labels, grads) -> float:
    x = params["foreign_emb"][foreign_ids]
    h, cache = _contextualize(params, x)
    word_emb = params["english_emb"][word_ids]
    scores = h @ word_emb.T  # (tokens, words)
    best = scores.argmax(axis=0)
    z = scores[best, np.arange(len(word_ids))] + params["bias"][word_ids]
    loss = float(np.sum(np.logaddexp(0.0, z) - labels * z))
    dz = sigmoid(z) - labels
    np.add.at(grads["bias"], word_ids, dz)
    np.add.at(grads["english_emb"], word_ids, dz[:, None] * h[best])
    grad_h = np.zeros_like(h)
    np.add.at(grad_h, best, dz[:, None] * word_emb)
    dense_backprop_context(params, cache, grad_h, grads, foreign_ids)
    return loss


def dense_train_searcher(bitext, vocab, config, full_vocab_max):
    rng = np.random.default_rng(config.seed)
    foreign_tokens = ranked_tokens(src for src, _ in bitext)
    if not foreign_tokens:
        raise DataError("bitext yields an empty foreign vocabulary")

    k = len(vocab)
    params = {
        "foreign_emb": rng.normal(
            0.0, INIT_SCALE, (len(foreign_tokens) + 1, config.dim)
        ),
        "english_emb": rng.normal(0.0, INIT_SCALE, (k, config.dim)),
        "bias": np.zeros(k),
    }
    if config.depth == 1:
        for key in ("wq", "wk", "wv"):
            params[key] = rng.normal(0.0, INIT_SCALE, (config.dim, config.dim))

    foreign_index = {tok: i for i, tok in enumerate(foreign_tokens)}
    unk = len(foreign_tokens)
    all_word_ids = np.arange(k)

    pair_foreign = []
    pair_positive = []
    for src, tgt in bitext:
        reference = {word for word in tgt if word in vocab}
        if not reference:
            pair_foreign.append(np.empty(0, dtype=int))
            pair_positive.append(np.empty(0, dtype=int))
            continue
        pair_foreign.append(
            np.array([foreign_index.get(tok, unk) for tok in src], dtype=int)
        )
        pair_positive.append(
            np.array(sorted(vocab.index_of(word) for word in reference), dtype=int)
        )
    usable = [i for i in range(len(bitext)) if len(pair_positive[i])]
    if not usable:
        raise DataError("no bitext pair shares a word with the vocabulary")

    full_vocab = k <= full_vocab_max
    losses = []
    for epoch in range(config.epochs):
        order = np.array(usable)
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_count = 0
        for i in order:
            positives = pair_positive[i]
            if full_vocab:
                negatives = np.setdiff1d(all_word_ids, positives, assume_unique=True)
            else:
                negatives = rng.integers(0, k, size=config.m_neg * len(positives))
                negatives = negatives[~np.isin(negatives, positives)]
            word_ids = np.concatenate([positives, negatives])
            labels = np.zeros(len(word_ids))
            labels[: len(positives)] = 1.0
            grads = {key: np.zeros_like(value) for key, value in params.items()}
            loss = dense_pair_loss_and_grads(
                params, pair_foreign[i], word_ids, labels, grads
            )
            scale = config.lr / len(word_ids)
            for key in params:
                params[key] -= scale * grads[key]
            epoch_loss += loss
            epoch_count += len(word_ids)
        losses.append(epoch_loss / epoch_count)
    return params, losses


@st.composite
def small_bitexts(draw):
    """Short pairs over a few foreign tokens, with repeats; the vocabulary
    is drawn from the English side, so some pairs hold no vocabulary word."""
    n_foreign = draw(st.integers(1, 6))
    n_english = draw(st.integers(2, 8))
    sentence = st.lists(st.integers(0, n_foreign - 1), min_size=1, max_size=6)
    translation = st.lists(st.integers(0, n_english - 1), min_size=1, max_size=4)
    pairs = draw(st.lists(st.tuples(sentence, translation), min_size=1, max_size=12))
    bitext = Bitext(
        tuple(
            (tuple(f"f{i}" for i in src), tuple(f"e{i}" for i in tgt))
            for src, tgt in pairs
        )
    )
    used = sorted({i for _, tgt in pairs for i in tgt})
    vocab_ids = draw(st.lists(st.sampled_from(used), min_size=1, unique=True))
    return bitext, Vocabulary(tuple(f"e{i}" for i in sorted(vocab_ids)))


def assert_close_to_the_dense_loop(model, losses, want_params, want_losses):
    """Losses within a relative 1e-12 and parameters within 1e-12: a step
    sums its gradients in another order than the dense loop."""
    np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0.0)
    assert model.params.keys() == want_params.keys()
    for key, want in want_params.items():
        np.testing.assert_allclose(model.params[key], want, rtol=0.0, atol=1e-12, err_msg=key)


class TestTrainingMatchesTheDenseLoop:
    @settings(max_examples=80, deadline=None)
    @given(
        data=small_bitexts(),
        depth=st.sampled_from([0, 1]),
        sampled=st.booleans(),
        m_neg=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_dense_loop(self, data, depth, sampled, m_neg, seed):
        bitext, vocab = data
        full_vocab_max = 0 if sampled else searcher_module.FULL_VOCAB_MAX
        config = SearcherConfig(dim=3, depth=depth, epochs=3, lr=1.5, m_neg=m_neg, seed=seed)
        want_params, want_losses = dense_train_searcher(
            bitext, vocab, config, full_vocab_max
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(searcher_module, "FULL_VOCAB_MAX", full_vocab_max)
            model, losses = train_searcher(bitext, vocab, config)
        assert_close_to_the_dense_loop(model, losses, want_params, want_losses)

    def test_mix3_sized_vocabulary(self):
        bitext, vocab = dictionary_bitext(n_words=40, n_pairs=120, seed=3)
        config = SearcherConfig(dim=8, epochs=2, lr=2.0, seed=0)
        want_params, want_losses = dense_train_searcher(
            bitext, vocab, config, searcher_module.FULL_VOCAB_MAX
        )
        model, losses = train_searcher(bitext, vocab, config)
        assert_close_to_the_dense_loop(model, losses, want_params, want_losses)


class TestSampledVocabulary:
    """More than FULL_VOCAB_MAX words, with the module constant as it is:
    each step draws its negatives and updates only the rows it touches."""

    @pytest.mark.parametrize("depth", [0, 1])
    def test_matches_the_dense_loop(self, depth):
        n_words = searcher_module.FULL_VOCAB_MAX + 100
        bitext, vocab = dictionary_bitext(n_words=n_words, n_pairs=80, seed=5)
        config = SearcherConfig(dim=4, depth=depth, epochs=2, lr=2.0, m_neg=3, seed=2)
        want_params, want_losses = dense_train_searcher(
            bitext, vocab, config, searcher_module.FULL_VOCAB_MAX
        )
        model, losses = train_searcher(bitext, vocab, config)
        assert_close_to_the_dense_loop(model, losses, want_params, want_losses)


class TestDenseUpdateAtBenchmarkShape:
    """A 300-word vocabulary at dim 16, as the benchmark trains: every step
    scores every word, so `english_emb` and `bias` update whole."""

    @pytest.mark.parametrize("depth", [0, 1])
    def test_matches_the_dense_loop(self, depth):
        bitext, vocab = dictionary_bitext(n_words=300, n_pairs=150, seed=4)
        config = SearcherConfig(dim=16, depth=depth, epochs=2, lr=2.0, seed=1)
        want_params, want_losses = dense_train_searcher(
            bitext, vocab, config, searcher_module.FULL_VOCAB_MAX
        )
        model, losses = train_searcher(bitext, vocab, config)
        assert_close_to_the_dense_loop(model, losses, want_params, want_losses)


class TestObjectiveSharesTheStep:
    @pytest.mark.parametrize("depth", [0, 1])
    def test_one_example_matches_the_dense_scatter(self, depth):
        # repeated foreign ids, the unknown-token row and repeated word ids
        rng = np.random.default_rng(depth)
        params = random_params(rng, 3, 4, 3, depth)
        foreign_ids = np.array([3, 0, 3, 1, 3])
        word_ids = np.array([2, 0, 1, 0, 3, 1])
        labels = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        loss, grads = searcher_objective(params, [(foreign_ids, word_ids, labels)])
        want = {key: np.zeros_like(value) for key, value in params.items()}
        want_loss = dense_pair_loss_and_grads(params, foreign_ids, word_ids, labels, want)
        assert loss == pytest.approx(want_loss / len(word_ids), rel=1e-12)
        for key in want:
            np.testing.assert_allclose(
                grads[key], want[key] / len(word_ids), rtol=0.0, atol=1e-12, err_msg=key
            )

    @settings(max_examples=200, deadline=None)
    @given(
        n_foreign=st.integers(1, 6),
        n_english=st.integers(1, 9),
        dim=st.integers(1, 4),
        depth=st.sampled_from([0, 1]),
        n_tokens=st.integers(1, 8),
        n_words=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_repeated_rows_add_up_as_in_the_dense_scatter(
        self, n_foreign, n_english, dim, depth, n_tokens, n_words, seed
    ):
        # foreign ids (the unknown-token row among them) and word ids drawn
        # with repeats, so that a row's gradients add up
        rng = np.random.default_rng(seed)
        params = random_params(rng, n_foreign, n_english, dim, depth)
        foreign_ids = rng.integers(0, n_foreign + 1, size=n_tokens)
        word_ids = rng.integers(0, n_english, size=n_words)
        labels = (rng.random(n_words) < 0.3).astype(float)
        loss, grads = searcher_objective(params, [(foreign_ids, word_ids, labels)])
        want = {key: np.zeros_like(value) for key, value in params.items()}
        want_loss = dense_pair_loss_and_grads(params, foreign_ids, word_ids, labels, want)
        assert loss == pytest.approx(want_loss / n_words, rel=1e-12)
        for key in want:
            np.testing.assert_allclose(
                grads[key], want[key] / n_words, rtol=0.0, atol=1e-12, err_msg=key
            )


class TestEveryRow:
    @settings(max_examples=200, deadline=None)
    @given(
        n_foreign=st.integers(1, 6),
        n_english=st.integers(1, 9),
        dim=st.integers(1, 4),
        depth=st.sampled_from([0, 1]),
        n_tokens=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_every_row_listed_in_row_order(
        self, n_foreign, n_english, dim, depth, n_tokens, seed
    ):
        # a step that scores every word names no rows: its loss and
        # gradients are those of the word ids 0, 1, ..., k - 1, exactly
        rng = np.random.default_rng(seed)
        params = random_params(rng, n_foreign, n_english, dim, depth)
        foreign_ids = rng.integers(0, n_foreign + 1, size=n_tokens)
        labels = (rng.random(n_english) < 0.3).astype(float)

        def scattered(word_ids):
            loss, grads = _pair_loss_and_grads(params, foreign_ids, word_ids, labels)
            dense = {key: np.zeros_like(value) for key, value in params.items()}
            for key, rows, values in grads:
                np.add.at(dense[key], rows, values)
            return loss, dense

        loss, grads = scattered(_ALL_ROWS)
        want_loss, want_grads = scattered(np.arange(n_english))
        assert loss == want_loss
        for key, want in want_grads.items():
            assert np.array_equal(grads[key], want), key
