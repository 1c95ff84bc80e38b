"""Logistic ensemble over MT system occurrence features."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clirset.evidence.ensemble as ensemble_module
from clirset.corpus import (
    Bitext,
    Corpus,
    Document,
    bitext_doc_id,
    data_lines,
    normalize,
    parse_index,
    parse_query,
    split_tsv,
)
from clirset.errors import DataError
from clirset.evidence import (
    MtEnsembleGenerator,
    MtEnsembleModel,
    MtHypothesisSet,
    Vocabulary,
    build_evidence,
    ensemble_objective,
    fit_mt_ensemble,
    labeled_instances,
    load_mt_ensemble,
    load_mt_hypotheses,
    save_mt_ensemble,
    save_mt_hypotheses,
)
from clirset.numerics import sigmoid, softplus

VOCAB = Vocabulary(("e0", "e1", "e2", "e3"))


def toy_bitext(n_pairs=20):
    pairs = []
    for i in range(n_pairs):
        word = VOCAB.tokens[i % 4]
        pairs.append(((f"f{i}",), (word, "pad")))
    return Bitext(tuple(pairs))


def hyp_set(per_pair):
    """Build a hypothesis set from {system: fn(pair_index) -> sentence}."""
    hypotheses = {
        system: {
            (bitext_doc_id(i), 0): tuple(fn(i))
            for i in range(len(toy_bitext().pairs))
        }
        for system, fn in per_pair.items()
    }
    return MtHypothesisSet(tuple(sorted(per_pair)), hypotheses)


def segment_scores(gen, doc, words):
    """The generator's raw evidence for each word in a one-segment document."""
    cells, background = gen.columns(Corpus.from_documents([doc]), words)
    return {
        word: float(values[0]) if len(rows) else background
        for word, (rows, values) in cells.items()
    }


class TestFit:
    def test_reliable_system_outweighs_uninformative_one(self):
        bitext = toy_bitext()
        hyps = hyp_set({
            # echoes exactly the reference word: feature == label
            "good": lambda i: (VOCAB.tokens[i % 4],),
            # emits every vocab word every time: feature is always 1
            "bad": lambda i: VOCAB.tokens,
        })
        model, loss = fit_mt_ensemble(hyps, bitext, VOCAB, m_neg=3, seed=0)
        w = dict(zip(model.systems, model.weights))
        assert w["good"] > 1.0
        assert w["good"] > w["bad"] + 1.0
        assert loss < 0.3

    def test_zero_features_recover_base_rate(self):
        # hypotheses never mention a vocab word, so only the bias can move;
        # it is unregularized and lands on the positive rate 1/(1+m_neg)
        bitext = toy_bitext()
        hyps = hyp_set({"s1": lambda i: ("zzz",), "s2": lambda i: ("yyy",)})
        model, _ = fit_mt_ensemble(hyps, bitext, VOCAB, m_neg=3, seed=0)
        assert model.weights == (0.0, 0.0)
        rate = 1.0 / (1.0 + 3.0)
        assert 1.0 / (1.0 + math.exp(-model.bias)) == pytest.approx(rate, abs=1e-4)

    def test_two_inits_reach_the_same_loss(self):
        bitext = toy_bitext()
        hyps = hyp_set({
            "good": lambda i: (VOCAB.tokens[i % 4],),
            "meh": lambda i: (VOCAB.tokens[(i + 1) % 4],),
        })
        instances = labeled_instances(bitext, VOCAB, 3, random.Random(0))
        features, labels = ensemble_module._instance_features(hyps, VOCAB, instances)

        def objective(w, b):
            return ensemble_objective(w, b, features, labels, ensemble_module.DEFAULT_L2)

        def minimize_from(weights, bias):
            return ensemble_module._minimize(
                objective,
                np.array(weights),
                bias,
                ensemble_module.DEFAULT_LEARNING_RATE,
                ensemble_module.DEFAULT_TOLERANCE,
                ensemble_module.DEFAULT_MAX_ITERATIONS,
            )[2]

        loss_a = minimize_from([0.0, 0.0], 0.0)
        loss_b = minimize_from([0.5, -0.5], 0.3)
        assert loss_a == pytest.approx(loss_b, abs=1e-5)
        # the fit is the run from zeros
        _, fitted = fit_mt_ensemble(hyps, bitext, VOCAB, m_neg=3, seed=0)
        assert fitted == loss_a


class TestObjective:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(3)
        features = (rng.random((40, 3)) < 0.4).astype(float)
        labels = (rng.random(40) < 0.3).astype(float)
        for _ in range(20):
            w = rng.normal(size=3)
            b = float(rng.normal())
            _, grad_w, grad_b = ensemble_objective(w, b, features, labels, 1e-3)
            h = 1e-6
            for j in range(3):
                bump = np.zeros(3)
                bump[j] = h
                hi, _, _ = ensemble_objective(w + bump, b, features, labels, 1e-3)
                lo, _, _ = ensemble_objective(w - bump, b, features, labels, 1e-3)
                num = (hi - lo) / (2 * h)
                assert grad_w[j] == pytest.approx(num, rel=1e-4, abs=1e-8)
            hi, _, _ = ensemble_objective(w, b + h, features, labels, 1e-3)
            lo, _, _ = ensemble_objective(w, b - h, features, labels, 1e-3)
            assert grad_b == pytest.approx((hi - lo) / (2 * h), rel=1e-4, abs=1e-8)

    def test_penalty_excludes_bias(self):
        features = np.zeros((4, 2))
        labels = np.array([1.0, 0.0, 0.0, 0.0])
        loss_zero, _, _ = ensemble_objective(
            np.zeros(2), 5.0, features, labels, 1e-3
        )
        # same point with weights moved off zero picks up the penalty
        loss_w, _, _ = ensemble_objective(
            np.array([2.0, 0.0]), 5.0, features, labels, 1e-3
        )
        assert loss_w == pytest.approx(loss_zero + 0.5 * 1e-3 * 4.0, abs=1e-12)


class TestEvidence:
    MODEL = MtEnsembleModel(("s1", "s2"), (1.0, -5.0), 0.0)

    def hyps(self):
        return MtHypothesisSet(
            ("s1", "s2"),
            {
                "s1": {("d1", 0): ("virus", "spread")},
                "s2": {("d1", 0): ("spread", "fast")},
            },
        )

    def score(self, doc_id, word):
        doc = Document(id=doc_id, kind="text", sentences=(("f",),))
        gen = MtEnsembleGenerator(self.MODEL, self.hyps())
        return segment_scores(gen, doc, [word])[word]

    def test_hand_values(self):
        # virus: only s1 -> sigmoid(1)
        assert self.score("d1", "virus") == pytest.approx(
            1 / (1 + math.exp(-1.0)), abs=1e-12
        )
        # spread: both -> sigmoid(1 - 5)
        assert self.score("d1", "spread") == pytest.approx(
            1 / (1 + math.exp(4.0)), abs=1e-12
        )
        # absent word -> sigmoid(0)
        assert self.score("d1", "nowhere") == 0.5

    def test_missing_hypothesis_is_an_error(self):
        with pytest.raises(DataError, match="s1.*d9"):
            self.score("d9", "virus")

    @pytest.mark.parametrize(
        "systems, weights, bias",
        [
            (("s2", "s1"), (0.1, 0.7), 0.2),
            (("s1", "s3", "s2"), (0.1, 0.7, -2.3), 0.3),
        ],
    )
    def test_scores_match_one_word_at_a_time_bit_for_bit(
        self, systems, weights, bias
    ):
        # one word per presence pattern: the word occurs in the
        # translations of exactly the systems its pattern marks
        patterns = list(itertools.product((False, True), repeat=len(systems)))
        words = ["w" + "".join("1" if bit else "0" for bit in p) for p in patterns]
        hyps = MtHypothesisSet(
            tuple(sorted(systems)),
            {
                system: {
                    ("d", 0): tuple(
                        ["pad"]
                        + [w for w, p in zip(words, patterns) if p[col]]
                    )
                }
                for col, system in enumerate(systems)
            },
        )
        doc = Document(id="d", kind="text", sentences=(("f",),))
        gen = MtEnsembleGenerator(MtEnsembleModel(systems, weights, bias), hyps)
        expected = {}
        for word, pattern in zip(words, patterns):
            z = bias
            for weight, present in zip(weights, pattern):
                if present:
                    z += weight
            expected[word] = float(sigmoid(z))
        assert segment_scores(gen, doc, words) == expected

    def test_two_sigmoid_calls_per_build(self, monkeypatch):
        calls = []

        def counting_sigmoid(z):
            calls.append(z)
            return sigmoid(z)

        monkeypatch.setattr(ensemble_module, "sigmoid", counting_sigmoid)
        sentences = {("d1", 0): ("virus",), ("d1", 1): ("fast",), ("d2", 0): ("x",)}
        hyps = MtHypothesisSet(
            ("s1", "s2"),
            {"s1": dict(sentences), "s2": dict(sentences)},
        )
        corpus = Corpus.from_documents([
            Document(id="d1", kind="text", sentences=(("f",), ("g",))),
            Document(id="d2", kind="text", sentences=(("h",),)),
        ])
        queries = [parse_query("q\tvirus spread, fast")]
        matrix = build_evidence(
            MtEnsembleGenerator(self.MODEL, hyps), corpus, queries
        )
        # one for the cells some system's translation holds, one for the
        # background; every segment still reads a value for every word
        assert len(calls) == 2
        assert matrix.n_cells() == 2
        assert len(list(matrix.iter_cells())) == 3 * 3


class TestIO:
    def test_model_round_trip(self, tmp_path):
        model = MtEnsembleModel(("a", "b"), (0.123456789012345, -2.5), 0.75)
        path = tmp_path / "model.json"
        save_mt_ensemble(model, path)
        assert load_mt_ensemble(path) == model

    def test_malformed_model_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"systems": ["a"]}')
        with pytest.raises(DataError, match="malformed"):
            load_mt_ensemble(path)

    def test_hypotheses_round_trip(self, tmp_path):
        hyps = MtHypothesisSet(
            ("s1", "s2"),
            {
                "s1": {("d1", 0): ("a", "b"), ("d1", 1): ("c",)},
                "s2": {("d1", 0): ("x",), ("d1", 1): ("y",)},
            },
        )
        path = tmp_path / "hyps.tsv"
        save_mt_hypotheses(hyps, path)
        assert load_mt_hypotheses(path) == hyps

    def test_duplicate_hypothesis_rejected(self, tmp_path):
        path = tmp_path / "hyps.tsv"
        path.write_text("s1\td1\t0\ta b\ns1\td1\t0\tc\n")
        with pytest.raises(DataError, match="duplicate"):
            load_mt_hypotheses(path)

    def test_mismatched_systems_validated(self):
        with pytest.raises(DataError, match="no hypotheses"):
            MtHypothesisSet(("s1",), {})


def per_line_load_mt_hypotheses(path) -> MtHypothesisSet:
    """load_mt_hypotheses without its shared keys: a new key tuple per line."""
    hypotheses = {}
    for lineno, line in data_lines(path):
        system, doc_id, index_raw, text = split_tsv(path, lineno, line, 4)
        index = parse_index(path, lineno, index_raw)
        sentence = normalize(text)
        if not sentence:
            raise DataError(
                f"{path}:{lineno}: hypothesis normalizes to no tokens"
            )
        key = (doc_id, index)
        per_system = hypotheses.setdefault(system, {})
        if key in per_system:
            raise DataError(
                f"{path}:{lineno}: duplicate hypothesis for system"
                f" {system!r} sentence {doc_id!r}:{index}"
            )
        per_system[key] = sentence
    if not hypotheses:
        raise DataError(f"{path}: empty hypothesis file")
    return MtHypothesisSet(tuple(sorted(hypotheses)), hypotheses)


# Mixed case, edge and interior punctuation, pure punctuation, non-ASCII
# letters whose lowercase differs (the dotted I lowercases to two code points).
HYPOTHESIS_PIECES = st.sampled_from([
    "foo", "Foo", "FOO", "foo,", "(foo)", "bar", "Bar.", "a/b", "...", "!?", "-",
    "Éclair", "éclair", "STRASSE", "straße", "İstanbul", "ǅemal", "日本", "Ωmega",
])
HYPOTHESIS_TEXT = st.lists(HYPOTHESIS_PIECES, min_size=1, max_size=6).flatmap(
    lambda pieces: st.sampled_from([" ", "  "]).map(lambda sep: sep.join(pieces))
)
HYPOTHESIS_LINES = st.lists(
    st.tuples(
        st.sampled_from(["s1", "s2", "S1"]),
        st.sampled_from(["d0", "d1", "bt000002"]),
        st.sampled_from(["0", "1", "2", "02"]),  # "02" is sentence 2 too
        HYPOTHESIS_TEXT,
    ).map("\t".join),
    max_size=12,
)


@pytest.fixture(scope="module")
def hyps_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hyps")


class TestLoadMtHypothesesSharesStrings:
    @settings(max_examples=200, deadline=None)
    @given(lines=HYPOTHESIS_LINES, repeats=st.lists(st.integers(0, 11), max_size=4))
    def test_matches_the_per_line_loader(self, hyps_dir, lines, repeats):
        # duplicate lines, each a duplicate hypothesis unless an earlier error wins
        lines = lines + [lines[i % len(lines)] for i in repeats if lines]
        path = hyps_dir / "hyps.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            want = per_line_load_mt_hypotheses(path)
        except DataError as exc:
            with pytest.raises(DataError) as info:
                load_mt_hypotheses(path)
            assert str(info.value) == str(exc)
            return
        got = load_mt_hypotheses(path)
        assert got == want
        shared_tokens = {}
        shared_keys = {}
        for system in got.systems:
            for key, sentence in got.hypotheses[system].items():
                assert shared_keys.setdefault(key, key) is key
                for token in sentence:
                    assert shared_tokens.setdefault(token, token) is token

    def test_the_empty_after_normalise_line_is_named(self, tmp_path):
        path = tmp_path / "hyps.tsv"
        path.write_text("s1\td0\t0\tFoo\ns1\td0\t1\t... !?\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_mt_hypotheses(path)
        assert str(info.value) == f"{path}:2: hypothesis normalizes to no tokens"


def per_instance_features(hyps, bitext, instances):
    """The feature loop as it stood before the per-(pair, system) table:
    one set lookup per (instance, system), translations read on first use."""
    reference_sets = {}
    features = np.zeros((len(instances), len(hyps.systems)))
    labels = np.zeros(len(instances))
    for row, inst in enumerate(instances):
        labels[row] = inst.label
        for col, system in enumerate(hyps.systems):
            key = (system, inst.pair_index)
            if key not in reference_sets:
                reference_sets[key] = set(
                    hyps.translation(system, bitext_doc_id(inst.pair_index), 0)
                )
            if inst.word in reference_sets[key]:
                features[row, col] = 1.0
    return features, labels


def per_instance_objective(weights, bias, features, labels, l2):
    """ensemble_objective as it stood before it grouped the instances, verbatim."""
    z = features @ weights + bias
    n = len(labels)
    loss = float(np.sum(softplus(z) - labels * z)) / n
    loss += 0.5 * l2 * float(weights @ weights)
    dz = sigmoid(z) - labels
    grad_w = features.T @ dz / n + l2 * weights
    grad_b = float(np.sum(dz)) / n
    return loss, grad_w, grad_b


def same_bytes(got, want):
    """Equal (loss, grad_w, grad_b) triples, NaN included, byte for byte."""
    return all(
        np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
        for a, b in zip(got, want)
    )


# weights and biases from 0.0 to beyond the range where exp overflows
OBJECTIVE_VALUES = st.one_of(
    st.just(0.0),
    st.floats(-40.0, 40.0),
    st.sampled_from([-1e300, -745.0, -1e-300, 1e-300, 745.0, 1e300]),
)


class TestObjectivePerGroup:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        data=st.data(),
    )
    def test_equals_the_per_instance_formula_bit_for_bit(self, n, seed, rate, data):
        n_systems = data.draw(st.integers(1, 4))
        weights = np.array(data.draw(st.lists(OBJECTIVE_VALUES, min_size=n_systems, max_size=n_systems)))
        bias = data.draw(OBJECTIVE_VALUES)
        rng = np.random.default_rng(seed)
        features = (rng.random((n, n_systems)) < rate).astype(float)
        labels = (rng.random(n) < 0.3).astype(float)
        l2 = ensemble_module.DEFAULT_L2
        groups = ensemble_module._Groups.of(features, labels)
        assert len(groups.first) <= 2 * 2**n_systems
        with np.errstate(over="ignore", invalid="ignore"):  # the 1e300 values
            want = per_instance_objective(weights, bias, features, labels, l2)
            got = ensemble_objective(weights, bias, features, labels, l2)
            assert same_bytes(got, want)
            got = ensemble_module._grouped_objective(weights, bias, groups, l2)
            assert same_bytes(got, want)

    @pytest.mark.parametrize("feature, label", [(0.5, 1.0), (1.0, 2.0), (math.nan, 0.0)])
    def test_features_and_labels_are_0_or_1(self, feature, label):
        features = np.array([[0.0, 1.0], [1.0, feature]])
        labels = np.array([label, 0.0])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            ensemble_objective(np.ones(2), 0.0, features, labels, 1e-3)

    def test_more_systems_than_a_packed_byte_holds(self):
        # 70 systems: the bits of one instance fill nine bytes
        rng = np.random.default_rng(0)
        features = (rng.random((500, 70)) < 0.5).astype(float)
        features[250:] = features[:250]
        labels = np.zeros(500)
        labels[::7] = 1.0
        weights = rng.normal(size=70)
        groups = ensemble_module._Groups.of(features, labels)
        assert len(groups.first) == len({(*row, y) for row, y in zip(features.tolist(), labels)})
        want = per_instance_objective(weights, 0.5, features, labels, 1e-3)
        got = ensemble_module._grouped_objective(weights, 0.5, groups, 1e-3)
        assert got[0] == pytest.approx(want[0], rel=1e-12)

    @pytest.mark.parametrize("n_systems", [1, 2, 3, 4])
    def test_at_the_benchmark_size(self, n_systems):
        # about as many instances as the benchmark's fit, so that the
        # element-wise functions run over long arrays
        rng = np.random.default_rng(n_systems)
        features = (rng.random((150_000, n_systems)) < 0.4).astype(float)
        labels = (rng.random(150_000) < 0.02).astype(float)
        groups = ensemble_module._Groups.of(features, labels)
        for _ in range(5):
            weights = rng.normal(size=n_systems) * 10.0 ** rng.integers(-3, 3, size=n_systems)
            bias = float(rng.normal() * 5.0)
            want = per_instance_objective(weights, bias, features, labels, 1e-3)
            assert same_bytes(ensemble_module._grouped_objective(weights, bias, groups, 1e-3), want)


def per_instance_fit(hyps, bitext, vocab, m_neg, seed):
    instances = labeled_instances(bitext, vocab, m_neg, random.Random(seed))
    features, labels = per_instance_features(hyps, bitext, instances)

    def objective(w, b):
        return per_instance_objective(w, b, features, labels, ensemble_module.DEFAULT_L2)

    weights, bias, loss = ensemble_module._minimize(
        objective,
        np.zeros(len(hyps.systems)),
        0.0,
        ensemble_module.DEFAULT_LEARNING_RATE,
        ensemble_module.DEFAULT_TOLERANCE,
        ensemble_module.DEFAULT_MAX_ITERATIONS,
    )
    model = MtEnsembleModel(hyps.systems, tuple(float(w) for w in weights), bias)
    return model, loss


@st.composite
def ensemble_worlds(draw):
    """A bitext, a vocabulary drawn from its English side (so some pairs may
    hold no vocabulary word) and 1-3 systems whose translations mix
    vocabulary words, repeats and words outside the vocabulary."""
    english = [f"e{i}" for i in range(draw(st.integers(2, 7)))]
    n_pairs = draw(st.integers(1, 10))
    pairs = tuple(
        (("f",), tuple(draw(st.lists(st.sampled_from(english), min_size=1, max_size=4))))
        for _ in range(n_pairs)
    )
    bitext = Bitext(pairs)
    used = sorted({word for _, tgt in pairs for word in tgt})
    vocab = Vocabulary(tuple(draw(st.lists(st.sampled_from(used), min_size=1, unique=True))))
    systems = tuple(f"s{j}" for j in range(draw(st.integers(1, 3))))
    words = st.sampled_from(english + ["oov"])
    hypotheses = {
        system: {
            (bitext_doc_id(i), 0): tuple(draw(st.lists(words, min_size=1, max_size=5)))
            for i in range(n_pairs)
        }
        for system in systems
    }
    return bitext, vocab, MtHypothesisSet(systems, hypotheses)


def one_error(call):
    """The DataError message `call` raises, or None with its result."""
    try:
        return None, call()
    except DataError as exc:
        return str(exc), None


class TestFitFeaturesPerPairAndSystem:
    @settings(max_examples=60, deadline=None)
    @given(world=ensemble_worlds(), m_neg=st.integers(1, 3), seed=st.integers(0, 99))
    def test_features_and_model_equal_the_per_instance_loop(self, world, m_neg, seed):
        bitext, vocab, hyps = world
        try:
            instances = labeled_instances(bitext, vocab, m_neg, random.Random(seed))
        except DataError:
            return  # no positive or no negative instance: nothing to fit
        features, labels = ensemble_module._instance_features(hyps, vocab, instances)
        want_features, want_labels = per_instance_features(hyps, bitext, instances)
        assert features.tobytes() == want_features.tobytes()
        assert features.flags.c_contiguous
        assert labels.tobytes() == want_labels.tobytes()
        model, loss = fit_mt_ensemble(hyps, bitext, vocab, m_neg=m_neg, seed=seed)
        assert (model, loss) == per_instance_fit(hyps, bitext, vocab, m_neg, seed)

    @settings(max_examples=60, deadline=None)
    @given(world=ensemble_worlds(), dropped=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 9))))
    def test_missing_hypothesis_names_the_same_first_sentence(self, world, dropped):
        bitext, vocab, hyps = world
        hypotheses = {system: dict(per_pair) for system, per_pair in hyps.hypotheses.items()}
        for col, pair in dropped:
            if col < len(hyps.systems):
                hypotheses[hyps.systems[col]].pop((bitext_doc_id(pair), 0), None)
        hyps = MtHypothesisSet(hyps.systems, hypotheses)
        try:
            instances = labeled_instances(bitext, vocab, 2, random.Random(0))
        except DataError:
            return
        got, _ = one_error(lambda: ensemble_module._instance_features(hyps, vocab, instances))
        want, _ = one_error(lambda: per_instance_features(hyps, bitext, instances))
        assert got == want

    def test_missing_hypothesis_message(self):
        bitext = toy_bitext(6)
        hyps = hyp_set({"a": lambda i: ("e0",), "b": lambda i: ("e1",)})
        del hyps.hypotheses["b"][(bitext_doc_id(4), 0)]
        del hyps.hypotheses["b"][(bitext_doc_id(2), 0)]
        del hyps.hypotheses["a"][(bitext_doc_id(3), 0)]
        with pytest.raises(DataError) as raised:
            fit_mt_ensemble(hyps, bitext, VOCAB, m_neg=2, seed=0)
        assert str(raised.value) == (
            f"system 'b' has no hypothesis for sentence {bitext_doc_id(2)!r}:0"
        )
