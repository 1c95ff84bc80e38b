"""Each generator's columns against the per-segment scorer they replaced.

The references below are the per-segment scorers of the earlier design,
copied verbatim, and the row write that floored and stored their scores
(`put_row_cells`). A build must equal them with `==`: in the cells
`iter_cells` lists (MT's background cells included), in the value every
(segment, query word) reads as, and, for MT, in the error a missing
hypothesis raises.
"""

import tracemalloc
from itertools import chain, repeat
from unittest.mock import patch

import numpy as np
from corpus_helpers import from_slots
from evidence_cells import matrix_over
from hypothesis import given, settings
from hypothesis import strategies as st

from clirset.combiner import MixtureWeights, combine
from clirset.corpus import (
    LEXICAL,
    ConfusionNetwork,
    Corpus,
    Document,
    Query,
    TranslationTable,
)
from clirset.errors import DataError
from clirset.evidence import (
    MtEnsembleGenerator,
    MtEnsembleModel,
    MtHypothesisSet,
    SearcherGenerator,
    SearcherModel,
    TranslationTableGenerator,
    Vocabulary,
    build_evidence_for_words,
)
from clirset.evidence import searcher as searcher_module
from clirset.evidence.searcher import _contextualize
from clirset.numerics import sigmoid
from clirset.relevance import rank

# ---------------------------------------------------------------------------
# The per-segment scorers and their row write, as they were
# ---------------------------------------------------------------------------


def old_table_scorer(generator, words):
    wanted = set(words)
    postings = {}
    for foreign, row in generator.table.entries.items():
        hits = [(english, p) for english, p in row.items() if english in wanted]
        if hits:
            postings[foreign] = hits

    def score(doc, index, segment):
        if isinstance(segment, ConfusionNetwork):
            arcs = chain.from_iterable(segment.slots)
        else:
            arcs = zip(segment, repeat(1.0))
        best = {}
        for foreign, arc_prob in arcs:
            for english, prob in postings.get(foreign, ()):
                value = prob * arc_prob
                if value > best.get(english, 0.0):
                    best[english] = value
        return best

    return score


def old_mt_scorer(generator, words):
    words = list(words)

    def score(doc, index, segment):
        # Adds the same floats in the same order as bias + the weights of
        # the systems whose translation holds the word, one word at a time.
        z = np.full(len(words), generator.model.bias)
        for system, weight in zip(generator.model.systems, generator.model.weights):
            translation = set(generator.hyps.translation(system, doc.id, index))
            holds = np.array([word in translation for word in words], dtype=bool)
            z[holds] += weight
        return dict(zip(words, sigmoid(z).tolist()))

    return score


def old_foreign_ids(model, sentence):
    unk = len(model.foreign_tokens)
    return np.array(
        [model._foreign_index.get(tok, unk) for tok in sentence], dtype=int
    )


def old_searcher_scorer(generator, words):
    model = generator.model
    known = [w for w in words if w in model.english_vocab]
    if not known:
        return lambda doc, index, segment: {}
    ids = np.array([model.english_vocab.index_of(w) for w in known])
    english = model.params["english_emb"][ids].T
    bias = model.params["bias"][ids]

    def score(doc, index, segment):
        sentence = (
            segment.one_best() if isinstance(segment, ConfusionNetwork) else segment
        )
        x = model.params["foreign_emb"][old_foreign_ids(model, sentence)]
        h, _ = _contextualize(model.params, x)
        z = (h @ english).max(axis=0)
        z = z + bias
        probs = sigmoid(z)
        return {word: float(p) for word, p in zip(known, probs)}

    return score


def put_row_cells(score, corpus, epsilon):
    """{(doc id, index, word): value} as the per-segment build stored it."""
    cells = {}
    for doc in corpus:
        for index, segment in enumerate(doc.segments):
            scores = score(doc, index, segment)
            if not scores:
                continue
            words = tuple(scores)
            floored = np.minimum(
                np.maximum(np.fromiter(scores.values(), np.float64, len(words)), epsilon),
                1.0 - epsilon,
            )
            cells.update(zip([(doc.id, index, word) for word in words], floored.tolist()))
    return cells


def reads(matrix, corpus, words):
    """What every (segment, word) reads as, word by word in corpus order."""
    positions = corpus.segment_positions
    out = {}
    for word, (at, values) in matrix.cells_at(positions, words).items():
        column = np.full(len(positions), matrix.background)
        column[at] = values
        out[word] = column.tolist()
    return out


def assert_same_evidence(matrix, cells, corpus, words):
    assert list(matrix.iter_cells()) == sorted((*key, value) for key, value in cells.items())
    want = {
        word: [cells.get((*key, word), matrix.epsilon) for key in corpus.segment_positions]
        for word in words
    }
    assert reads(matrix, corpus, words) == want


# ---------------------------------------------------------------------------
# Worlds
# ---------------------------------------------------------------------------

FOREIGN = ["fa", "fb", "fc"]
TOKENS = st.sampled_from(FOREIGN + ["zz"])  # zz: in no table, unknown to the searcher
ENGLISH = ["e0", "e1", "e2", "e3"]
QUERY_WORDS = st.lists(st.sampled_from(ENGLISH + ["ghost"]), unique=True)

# A share of probability mass; 1.0 often, so that prob-1.0 entries and arcs occur.
SHARE = st.one_of(st.just(1.0), st.floats(1e-3, 1.0))

# 0.3 floors and caps many table values.
EPSILONS = st.sampled_from([1e-6, 0.05, 0.3])


@st.composite
def networks(draw):
    slots = []
    for _ in range(draw(st.integers(1, 4))):
        tokens = draw(st.lists(TOKENS, min_size=1, max_size=3))
        slots.append(tuple((token, draw(SHARE) / len(tokens)) for token in tokens))
    return from_slots(tuple(slots))


@st.composite
def corpora(draw):
    """1-4 documents, text or speech, of 1-3 segments each."""
    docs = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 3))
        if draw(st.booleans()):
            utterances = tuple(draw(networks()) for _ in range(n))
            docs.append(Document(id=f"d{i}", kind="speech", utterances=utterances))
        else:
            sentences = tuple(
                tuple(draw(st.lists(TOKENS, min_size=1, max_size=5))) for _ in range(n)
            )
            docs.append(Document(id=f"d{i}", kind="text", sentences=sentences))
    # file order need not be id order
    return Corpus.from_documents(draw(st.permutations(docs)))


@st.composite
def tables(draw):
    entries = {}
    for foreign in draw(st.lists(st.sampled_from(FOREIGN), unique=True)):
        row = draw(st.lists(st.sampled_from(ENGLISH), min_size=1, unique=True))
        entries[foreign] = {english: draw(SHARE) / len(row) for english in row}
    return TranslationTable(entries, "tt")


WEIGHTS = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))


@st.composite
def mt_generators(draw, corpus):
    """1-3 systems, in a model order that need not be sorted, whose
    translations of every segment mix query words, repeats and others."""
    systems = draw(st.permutations([f"s{j}" for j in range(draw(st.integers(1, 3)))]))
    weights = tuple(draw(WEIGHTS) for _ in systems)
    model = MtEnsembleModel(tuple(systems), weights, draw(st.floats(-4.0, 4.0)))
    words = st.sampled_from(ENGLISH + ["other"])
    hypotheses = {
        system: {
            key: tuple(draw(st.lists(words, min_size=1, max_size=5)))
            for key in corpus.segment_positions
        }
        for system in systems
    }
    hyps = MtHypothesisSet(tuple(sorted(systems)), hypotheses)
    return MtEnsembleGenerator(model, hyps)


def searcher_generator(seed, depth, dim):
    rng = np.random.default_rng(seed)
    params = {
        "foreign_emb": rng.normal(size=(len(FOREIGN) + 1, dim)),
        "english_emb": rng.normal(size=(len(ENGLISH), dim)),
        "bias": rng.normal(size=len(ENGLISH)),
    }
    if depth:
        for key in ("wq", "wk", "wv"):
            params[key] = rng.normal(size=(dim, dim))
    return SearcherGenerator(SearcherModel(Vocabulary(tuple(ENGLISH)), tuple(FOREIGN), params))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestTableColumns:
    @settings(max_examples=200, deadline=None)
    @given(t=tables(), corpus=corpora(), words=QUERY_WORDS, epsilon=EPSILONS)
    def test_equal_the_per_segment_scorer(self, t, corpus, words, epsilon):
        generator = TranslationTableGenerator(t)
        matrix = build_evidence_for_words(generator, corpus, words, epsilon)
        cells = put_row_cells(old_table_scorer(generator, sorted(words)), corpus, epsilon)
        assert_same_evidence(matrix, cells, corpus, sorted(words))
        assert matrix.n_cells() == len(cells)
        assert matrix.background == epsilon and not matrix.filled


class TestMtColumns:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), corpus=corpora(), words=QUERY_WORDS, epsilon=EPSILONS)
    def test_equal_the_per_segment_scorer(self, data, corpus, words, epsilon):
        generator = data.draw(mt_generators(corpus))
        matrix = build_evidence_for_words(generator, corpus, words, epsilon)
        cells = put_row_cells(old_mt_scorer(generator, sorted(words)), corpus, epsilon)
        assert_same_evidence(matrix, cells, corpus, sorted(words))
        # Stored: the cells some system's translation holds, whatever its weight.
        hypotheses = generator.hyps.hypotheses
        held = {
            (key, word)
            for key in corpus.segment_positions
            for system in generator.model.systems
            for word in hypotheses[system][key]
            if word in words
        }
        assert matrix.n_cells() == len(held)
        assert matrix.filled == frozenset(words)

    def test_zero_weight_does_not_hide_a_holder(self):
        corpus = Corpus.from_documents(
            [Document(id="d", kind="text", sentences=(("f",), ("g",)))]
        )
        hyps = MtHypothesisSet(
            ("s1", "s2"),
            {
                "s1": {("d", 0): ("virus",), ("d", 1): ("other",)},
                "s2": {("d", 0): ("other",), ("d", 1): ("fast",)},
            },
        )
        generator = MtEnsembleGenerator(MtEnsembleModel(("s1", "s2"), (0.0, 2.0), -1.0), hyps)
        words = ["fast", "virus"]
        matrix = build_evidence_for_words(generator, corpus, words)
        # virus is held by s1 alone, whose weight 0.0 leaves z at the bias
        assert matrix.cells_at(corpus.segment_positions, ["virus"])["virus"][0].tolist() == [0]
        assert matrix.n_cells() == 2
        cells = put_row_cells(old_mt_scorer(generator, words), corpus, matrix.epsilon)
        assert_same_evidence(matrix, cells, corpus, words)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        corpus=corpora(),
        words=QUERY_WORDS,
        dropped=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 11))),
    )
    def test_missing_hypothesis_names_the_same_segment_and_system(
        self, data, corpus, words, dropped
    ):
        generator = data.draw(mt_generators(corpus))
        keys = list(corpus.segment_positions)
        hypotheses = {s: dict(per_key) for s, per_key in generator.hyps.hypotheses.items()}
        systems = generator.hyps.systems
        for col, position in dropped:
            if col < len(systems) and position < len(keys):
                hypotheses[systems[col]].pop(keys[position])
        generator = MtEnsembleGenerator(generator.model, MtHypothesisSet(systems, hypotheses))

        def message(call):
            try:
                call()
            except DataError as exc:
                return str(exc)
            return None

        got = message(lambda: build_evidence_for_words(generator, corpus, words))
        want = message(
            lambda: put_row_cells(old_mt_scorer(generator, sorted(words)), corpus, 1e-6)
        )
        assert got == want


class TestSearcherColumns:
    @settings(max_examples=100, deadline=None)
    @given(
        corpus=corpora(),
        words=QUERY_WORDS,
        seed=st.integers(0, 2**32 - 1),
        depth=st.sampled_from([0, 1]),
        dim=st.integers(1, 4),
        epsilon=EPSILONS,
        block=st.sampled_from([1, 2, 5, searcher_module._BLOCK_SEGMENTS]),
    )
    def test_equal_the_per_segment_scorer(
        self, corpus, words, seed, depth, dim, epsilon, block
    ):
        generator = searcher_generator(seed, depth, dim)
        with patch.object(searcher_module, "_BLOCK_SEGMENTS", block):
            matrix = build_evidence_for_words(generator, corpus, words, epsilon)
        cells = put_row_cells(old_searcher_scorer(generator, sorted(words)), corpus, epsilon)
        assert_same_evidence(matrix, cells, corpus, sorted(words))
        assert matrix.n_cells() == len(cells)
        assert matrix.background == epsilon and not matrix.filled

    def test_build_peaks_under_twice_its_values(self):
        """The build holds its values, a block and little else at any time:
        no (segments x words) array besides the values, and no floored copy."""
        rng = np.random.default_rng(0)
        n_english, n_foreign, dim = 200, 50, 8
        english = tuple(f"e{j}" for j in range(n_english))
        foreign = tuple(f"f{j}" for j in range(n_foreign))
        params = {
            "foreign_emb": rng.normal(size=(n_foreign + 1, dim)),
            "english_emb": rng.normal(size=(n_english, dim)),
            "bias": rng.normal(size=n_english),
        }
        generator = SearcherGenerator(SearcherModel(Vocabulary(english), foreign, params))
        sentences = [
            tuple(foreign[j] for j in rng.integers(0, n_foreign, size=8).tolist())
            for _ in range(12_000)
        ]
        corpus = Corpus.from_documents(
            Document(id=f"d{i:05d}", kind="text", sentences=tuple(sentences[i : i + 10]))
            for i in range(0, len(sentences), 10)
        )
        tracemalloc.start()
        try:
            matrix = build_evidence_for_words(generator, corpus, english)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = matrix.cells_at(corpus.segment_positions, english).values()
        values = sum(column.nbytes for _, column in columns)
        assert values == len(sentences) * n_english * 8
        assert peak <= 2 * values


class TestCombineBackgrounds:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        t=tables(),
        corpus=corpora(),
        words=st.lists(st.sampled_from(ENGLISH + ["ghost"]), min_size=1, unique=True),
        seed=st.integers(0, 2**32 - 1),
        shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(sum),
    )
    def test_equal_the_sum_over_the_dense_per_segment_matrices(
        self, data, t, corpus, words, seed, shares
    ):
        generators = [
            TranslationTableGenerator(t),
            data.draw(mt_generators(corpus)),
            searcher_generator(seed, 0, 3),
        ]
        old_scorers = [old_table_scorer, old_mt_scorer, old_searcher_scorer]
        mixture = MixtureWeights(
            {g.tag: share / sum(shares) for g, share in zip(generators, shares)}
        )
        matrices = [build_evidence_for_words(g, corpus, words) for g in generators]
        combined = combine(matrices, mixture)

        eps = combined.epsilon
        words = sorted(words)
        old = {
            g.tag: put_row_cells(scorer(g, words), corpus, eps)
            for g, scorer in zip(generators, old_scorers)
        }
        # The old combine: a cell wherever one generator stored one (MT
        # stored every cell), the sum from 0 in sorted tag order, floored.
        want = {}
        for key in set().union(*old.values()):
            total = 0
            for tag in sorted(old):
                total = total + mixture.weights[tag] * old[tag].get(key, eps)
            want[key] = min(max(total, eps), 1.0 - eps)
        assert_same_evidence(combined, want, corpus, words)

        dense = matrix_over(
            corpus, [(*key, value) for key, value in want.items()], "combined", eps
        )
        query = Query("q", LEXICAL, (tuple(words[:2]), tuple(words[2:]) or (words[0],)))
        assert rank(combined, corpus, query) == rank(dense, corpus, query)

