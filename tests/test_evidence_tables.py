"""Translation-table evidence and the shared matrix machinery."""

import random

import numpy as np
import pytest
from corpus_helpers import from_slots
from evidence_cells import matrix_over
from hypothesis import given, settings
from hypothesis import strategies as st

from clirset.corpus import ConfusionNetwork, Corpus, Document, TranslationTable
from clirset.errors import DataError
from clirset.evidence import (
    EvidenceMatrix,
    TranslationTableGenerator,
    Vocabulary,
    build_evidence,
    build_evidence_for_words,
    save_matrix,
)
from clirset.corpus import Bitext, parse_query


def table(entries, tag="tt"):
    return TranslationTable(entries, tag)


def cell(matrix, doc_id, index, word):
    """One cell's stored value, or the floor when it was never stored."""
    stored = {c[:3]: c[3] for c in matrix.iter_cells()}
    return stored.get((doc_id, index, word), matrix.epsilon)


def scores(t, segment):
    """The table generator's evidence for one segment, over every table word."""
    words = sorted({english for row in t.entries.values() for english in row})
    if isinstance(segment, ConfusionNetwork):
        doc = Document(id="d", kind="speech", utterances=(segment,))
    else:
        doc = Document(id="d", kind="text", sentences=(segment,))
    cells, background = TranslationTableGenerator(t).columns(
        Corpus.from_documents([doc]), words
    )
    assert background is None
    return {word: float(values[0]) for word, (rows, values) in cells.items() if len(rows)}


def read_matrix_tsv(path):
    """The generator tag and the cells of a save_matrix file, as written."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header.startswith("#generator=")
    cells = []
    for line in lines:
        doc_id, index, word, prob = line.split("\t")
        cells.append((doc_id, int(index), word, float(prob)))
    return header[len("#generator="):], cells


class TestTtEvidence:
    def test_max_over_sentence_tokens(self):
        t = table({"f1": {"e1": 0.6}, "f2": {"e1": 0.1, "e2": 0.9}})
        assert scores(t, ("f1", "f2")) == {"e1": 0.6, "e2": 0.9}

    def test_untranslatable_sentence(self):
        t = table({"f1": {"e1": 0.6}})
        assert scores(t, ("zz", "yy")) == {}

    def test_repeated_token_idempotent(self):
        t = table({"f1": {"e1": 0.6}})
        assert scores(t, ("f1", "f1", "f1")) == {"e1": 0.6}

    def test_adding_entry_never_decreases(self):
        rng = random.Random(7)
        foreign = [f"f{i}" for i in range(6)]
        english = [f"e{i}" for i in range(4)]
        for _ in range(50):
            entries = {
                f: {e: rng.uniform(0.05, 0.2) for e in rng.sample(english, 2)}
                for f in rng.sample(foreign, 4)
            }
            sentence = tuple(rng.choices(foreign, k=5))
            base = scores(table(entries), sentence)
            f_new = rng.choice(foreign)
            e_new = rng.choice(english)
            grown = {f: dict(row) for f, row in entries.items()}
            grown.setdefault(f_new, {})[e_new] = max(
                grown.get(f_new, {}).get(e_new, 0.0), rng.uniform(0.05, 0.2)
            )
            bigger = scores(table(grown), sentence)
            for word, prob in base.items():
                assert bigger.get(word, 0.0) >= prob


class TestCnEvidence:
    def test_arc_weighted_max(self):
        t = table({"f1": {"e1": 0.6}, "f2": {"e1": 0.5}})
        cn = from_slots(
            (
                (("f1", 0.5), ("f2", 0.5)),
                (("f2", 0.4),),
            )
        )
        # best is max(0.6*0.5, 0.5*0.5, 0.5*0.4) = 0.30
        assert scores(t, cn) == {"e1": pytest.approx(0.30, abs=0)}

    def test_no_reachable_words(self):
        t = table({"f1": {"e1": 0.6}})
        cn = from_slots(((("zz", 1.0),),))
        assert scores(t, cn) == {}

    @given(st.data())
    def test_unit_arcs_reduce_to_text_case(self, data):
        foreign = ["fa", "fo", "fu"]
        english = ["en", "to"]
        entries = {}
        for f in foreign:
            row = {
                e: data.draw(
                    st.floats(0.05, 0.45), label=f"p({e}|{f})"
                )
                for e in english
            }
            entries[f] = row
        sentence = tuple(
            data.draw(st.sampled_from(foreign), label=f"tok{i}") for i in range(3)
        )
        cn = from_slots(tuple(((tok, 1.0),) for tok in sentence))
        t = table(entries)
        assert scores(t, cn) == scores(t, sentence)


class TestBuildEvidence:
    def test_cell_bound_and_floor(self):
        t = table({"f1": {"vaccine": 1.0}, "f2": {"spread": 0.5}})
        corpus = Corpus.from_documents(
            [
                Document(id="d1", kind="text", sentences=(("f1", "f2"), ("f1",))),
                Document(id="d2", kind="text", sentences=(("zz",), ("f2", "zz"))),
            ]
        )
        queries = [parse_query("q1\tvaccine spread, virus")]
        matrix = build_evidence(TranslationTableGenerator(t), corpus, queries)
        # 3 distinct query words x 2 docs x 2 sentences = 12 possible cells
        assert matrix.n_cells() <= 12
        # prob 1.0 clamps to the ceiling
        assert cell(matrix, "d1", 0, "vaccine") == 1.0 - matrix.epsilon
        # absent cells read back the floor
        assert cell(matrix, "d2", 0, "vaccine") == matrix.epsilon
        assert cell(matrix, "d1", 0, "virus") == matrix.epsilon

    def test_speech_and_text_agree_on_certain_arcs(self):
        t = table({"f1": {"e1": 0.6}, "f2": {"e2": 0.3}})
        text_doc = Document(id="d", kind="text", sentences=(("f1", "f2"),))
        cn = from_slots(((("f1", 1.0),), (("f2", 1.0),)))
        speech_doc = Document(id="d", kind="speech", utterances=(cn,))
        queries = [parse_query("q\te1 e2")]
        gen = TranslationTableGenerator(t)
        m_text = build_evidence(gen, Corpus.from_documents([text_doc]), queries)
        m_speech = build_evidence(gen, Corpus.from_documents([speech_doc]), queries)
        assert list(m_text.iter_cells()) == list(m_speech.iter_cells())


# Foreign tokens the drawn tables may hold, one token they never hold,
# the English words they may translate to, and one word none reaches.
FOREIGN = ["fa", "fb", "fc", "fd"]
ABSENT = ["zz"]
ENGLISH = ["ea", "eb", "ec", "ed"]
GHOSTS = ["nobody"]

# A share of probability mass; 1.0 often, so that prob-1.0 entries and
# arcs occur.
SHARE = st.one_of(st.just(1.0), st.floats(1e-3, 1.0))


@st.composite
def tables(draw):
    """A table whose rows each split at most all of their mass."""
    entries = {}
    for foreign in draw(st.lists(st.sampled_from(FOREIGN), unique=True)):
        row = draw(st.lists(st.sampled_from(ENGLISH), min_size=1, unique=True))
        entries[foreign] = {english: draw(SHARE) / len(row) for english in row}
    return table(entries)


@st.composite
def slots(draw):
    tokens = draw(st.lists(st.sampled_from(FOREIGN + ABSENT), min_size=1, max_size=3))
    return tuple((token, draw(SHARE) / len(tokens)) for token in tokens)


SENTENCES = st.lists(
    st.sampled_from(FOREIGN + ABSENT), min_size=1, max_size=5
).map(tuple)
NETWORKS = st.lists(slots(), min_size=1, max_size=4).map(
    lambda drawn: from_slots(tuple(drawn))
)
DOCUMENTS = st.one_of(
    st.lists(SENTENCES, min_size=1, max_size=3).map(
        lambda sentences: ("text", tuple(sentences))
    ),
    st.lists(NETWORKS, min_size=1, max_size=3).map(
        lambda networks: ("speech", tuple(networks))
    ),
)


def per_arc_cells(t, corpus, words, epsilon):
    """Table evidence one word and one arc at a time, floored and sorted."""
    cells = []
    for doc in corpus:
        for index, segment in enumerate(doc.segments):
            for word in words:
                best = 0.0
                if isinstance(segment, ConfusionNetwork):
                    for slot in segment.slots:
                        for foreign, arc_prob in slot:
                            prob = t.entries.get(foreign, {}).get(word)
                            if prob is not None and prob * arc_prob > best:
                                best = prob * arc_prob
                else:
                    for foreign in segment:
                        prob = t.entries.get(foreign, {}).get(word)
                        if prob is not None and prob > best:
                            best = prob
                if best > 0.0:
                    floored = min(max(best, epsilon), 1.0 - epsilon)
                    cells.append((doc.id, index, word, floored))
    return sorted(cells)


class TestTableEvidenceBitExact:
    @settings(max_examples=200, deadline=None)
    @given(
        t=tables(),
        docs=st.lists(DOCUMENTS, min_size=1, max_size=4),
        words=st.lists(st.sampled_from(ENGLISH + GHOSTS), unique=True),
    )
    def test_matches_per_arc_reference(self, t, docs, words):
        corpus = Corpus.from_documents(
            Document(id=f"d{i}", kind=kind, sentences=segments)
            if kind == "text"
            else Document(id=f"d{i}", kind=kind, utterances=segments)
            for i, (kind, segments) in enumerate(docs)
        )
        matrix = build_evidence_for_words(TranslationTableGenerator(t), corpus, words)
        got = list(matrix.iter_cells())
        assert got == per_arc_cells(t, corpus, sorted(words), matrix.epsilon)
        assert {word for _, _, word, _ in got} <= set(words)

    @pytest.mark.parametrize("n_docs", [1, 7])
    def test_binds_once_per_build(self, monkeypatch, n_docs):
        bound = []
        columns = TranslationTableGenerator.columns

        def counting_columns(self, corpus, words):
            bound.append(list(words))
            return columns(self, corpus, words)

        monkeypatch.setattr(TranslationTableGenerator, "columns", counting_columns)
        t = table({"f1": {"e1": 0.6}, "f2": {"e2": 0.3, "e3": 0.2}})
        corpus = Corpus.from_documents(
            Document(id=f"d{i}", kind="text", sentences=(("f1",), ("f2", "f1")))
            for i in range(n_docs)
        )
        matrix = build_evidence_for_words(
            TranslationTableGenerator(t), corpus, ["e2", "e1", "e2"]
        )
        assert bound == [["e1", "e2"]]
        assert matrix.n_cells() == 3 * n_docs


def text_corpus(**n_sentences):
    """Text documents of the given lengths, in the order given."""
    return Corpus.from_documents(
        Document(id=doc_id, kind="text", sentences=(("x",),) * n)
        for doc_id, n in n_sentences.items()
    )


class TestConstructor:
    def test_nan_names_generator_document_segment_and_word(self):
        # d2 comes first in the corpus, though d1 and word "a" sort first
        corpus = text_corpus(d2=3, d1=4)
        nan = float("nan")
        cells = [("d1", 3, "v", 0.5), ("d1", 0, "a", nan), ("d2", 2, "w", nan)]
        with pytest.raises(
            DataError, match="'gen1'.*document 'd2' segment 2 word 'w'"
        ):
            matrix_over(corpus, cells, "gen1")

    def test_build_without_evidence_stores_no_cell(self):
        t = table({"f1": {"e1": 0.6}})
        corpus = Corpus.from_documents(
            [Document(id="d1", kind="text", sentences=(("zz",),))]
        )
        matrix = build_evidence_for_words(TranslationTableGenerator(t), corpus, ["e1"])
        assert list(matrix.iter_cells()) == []
        assert matrix.n_cells() == 0
        assert matrix.background == matrix.epsilon


    def test_floors_a_writeable_column_in_place(self):
        corpus = text_corpus(d=3)
        positions = corpus.segment_positions
        values = np.array([0.0, 0.5, 1.0])
        matrix = EvidenceMatrix("g", 0.1, ({"w": (np.arange(3), values)}, None), positions)
        _, stored = matrix.cells_at(positions, ["w"])["w"]
        assert stored is values
        assert values.tolist() == [0.1, 0.5, 0.9]
        assert not values.flags.writeable

    def test_copies_a_read_only_column_and_leaves_it_unchanged(self):
        corpus = text_corpus(d=3)
        positions = corpus.segment_positions
        wide = matrix_over(corpus, [("d", 0, "w", 0.05), ("d", 2, "w", 0.95)], epsilon=0.01)
        rows, values = wide.cells_at(positions, ["w"])["w"]
        narrow = EvidenceMatrix("g", 0.1, ({"w": (rows, values)}, None), positions)
        _, stored = narrow.cells_at(positions, ["w"])["w"]
        assert stored.tolist() == [0.1, 0.9]
        assert values.tolist() == [0.05, 0.95]
        assert list(wide.iter_cells()) == [("d", 0, "w", 0.05), ("d", 2, "w", 0.95)]


class TestMatrixIO:
    def test_round_trip_and_header(self, tmp_path):
        cells = [
            ("d1", 0, "w", 0.123456789),
            ("d1", 2, "v", 1.0),  # clamps
            ("a0", 1, "w", 0.5),
        ]
        matrix = matrix_over(text_corpus(d1=3, a0=2), cells, "gen1")
        path = tmp_path / "m.tsv"
        save_matrix(matrix, path)
        text = path.read_text()
        assert text.startswith("#generator=gen1\n")
        assert read_matrix_tsv(path) == ("gen1", list(matrix.iter_cells()))

    def test_save_sorted_and_deterministic(self, tmp_path):
        # the corpus order is not the sorted one
        corpus = text_corpus(d2=2, d1=1)
        cells = [("d2", 1, "b", 0.2), ("d1", 0, "b", 0.3), ("d1", 0, "a", 0.4)]
        p1, p2 = tmp_path / "1.tsv", tmp_path / "2.tsv"
        save_matrix(matrix_over(corpus, cells, "g"), p1)
        save_matrix(matrix_over(corpus, cells[::-1], "g"), p2)
        assert p1.read_text() == (
            "#generator=g\n"
            "d1\t0\ta\t0.4\n"
            "d1\t0\tb\t0.3\n"
            "d2\t1\tb\t0.2\n"
        )
        assert p1.read_bytes() == p2.read_bytes()


class TestVocabulary:
    def test_most_frequent_with_lexicographic_ties(self):
        bitext = Bitext(
            (
                (("f",), ("b", "a", "a")),
                (("f",), ("c", "b")),
            )
        )
        vocab = Vocabulary.from_bitext(bitext, 2)
        # a and b both occur twice; ties break lexicographically
        assert vocab.tokens == ("a", "b")
        assert "c" not in vocab
        assert vocab.index_of("b") == 1

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            Vocabulary(("a", "a"))
