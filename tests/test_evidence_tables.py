"""Translation-table evidence and the shared matrix machinery."""

import json
import random
from itertools import repeat

import numpy as np
import pytest
from corpus_helpers import from_slots
from evidence_cells import matrix_over
from hypothesis import given, settings
from hypothesis import strategies as st

from clirset.corpus import ConfusionNetwork, Corpus, Document, TranslationTable, load_corpus
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


class TestTableEvidenceBitExact:
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


def per_arc_columns(t, corpus, words):
    """The table generator's columns as a loop over every arc built them,
    with a dict of each segment's best value per word."""
    wanted = set(words)
    postings = {}
    for foreign, row in t.entries.items():
        hits = [(english, p) for english, p in row.items() if english in wanted]
        if hits:
            postings[foreign] = hits
    cells = {w: ([], []) for w in words}
    segments = (segment for doc in corpus for segment in doc.segments)
    for position, segment in enumerate(segments):
        if isinstance(segment, ConfusionNetwork):
            arcs = zip(segment.tokens, segment.probs.tolist())
        else:
            arcs = zip(segment, repeat(1.0))
        best = {}
        for foreign, arc_prob in arcs:
            for english, prob in postings.get(foreign, ()):
                value = prob * arc_prob
                if value > best.get(english, 0.0):
                    best[english] = value
        for english, value in best.items():
            cells[english][0].append(position)
            cells[english][1].append(value)
    return {
        word: (np.array(rows, dtype=np.int64), np.array(values, dtype=float))
        for word, (rows, values) in cells.items()
    }


def assert_columns_equal_per_arc(t, corpus, words):
    cells, background = TranslationTableGenerator(t).columns(corpus, words)
    expected = per_arc_columns(t, corpus, words)
    assert background is None and list(cells) == list(expected)
    for word, (rows, values) in expected.items():
        got_rows, got_values = cells[word]
        assert got_rows.dtype == np.int64 and got_values.dtype == np.float64
        assert got_rows.tolist() == rows.tolist()
        assert got_values.tobytes() == values.tobytes()


def loaded(tmp_path, objs):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    return load_corpus(path)


class TestTableKernelEqualsThePerArcLoop:
    def test_on_a_loaded_corpus(self, tmp_path):
        corpus = loaded(tmp_path, [
            {"id": "t", "kind": "text", "sentences": ["fa zz fa", "zz"]},
            {"id": "s", "kind": "speech", "utterances": [
                # fa twice in a slot and again in the next; zz has no postings
                [[["fa", 0.25], ["fa", 0.5], ["zz", 0.25]], [["fa", 0.75], ["fo", 0.25]]],
                # p(e3|tiny) * 1e-200 underflows to 0.0: no cell
                [[["tiny", 1e-200], ["zz", 0.5]]],
                [[["fo", 1.0]]],
            ]},
        ])
        t = table({
            "fa": {"e1": 0.6, "e2": 0.1}, "fo": {"e1": 0.3, "e2": 0.7},
            "tiny": {"e3": 1e-200},
            "absent": {"e1": 0.5, "e4": 0.5},  # a table token the corpus lacks
        })
        words = ["e1", "e2", "e3", "e4", "nobody"]
        assert_columns_equal_per_arc(t, corpus, words)
        cells, _ = TranslationTableGenerator(t).columns(corpus, words)
        assert cells["e1"][0].tolist() == [0, 2, 4]
        assert cells["e1"][1].tolist() == [0.6, 0.6 * 0.75, 0.3]
        for word in ("e3", "e4", "nobody"):
            assert len(cells[word][0]) == len(cells[word][1]) == 0

    def test_no_words_and_no_postings(self, tmp_path):
        corpus = loaded(tmp_path, [{"id": "t", "kind": "text", "sentences": ["zz"]}])
        t = table({"fa": {"e1": 0.6}})
        assert TranslationTableGenerator(t).columns(corpus, []) == ({}, None)
        assert_columns_equal_per_arc(t, corpus, ["e1"])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_on_drawn_corpora_and_tables(self, tmp_path_factory, data):
        foreign = ["fa", "fo", "fu", "fy"]
        english = ["e1", "e2", "e3"]
        probs = st.sampled_from([1e-200, 1e-170, 0.1, 0.25, 1 / 3, 0.5, 1.0])
        entries = data.draw(st.dictionaries(
            st.sampled_from(foreign),
            st.dictionaries(st.sampled_from(english), probs, min_size=1, max_size=3),
            max_size=4,
        ), label="table")
        entries = {f: row for f, row in entries.items() if sum(row.values()) <= 1.0}
        slot = st.lists(st.tuples(st.sampled_from(foreign + ["zz"]), probs), min_size=1,
                        max_size=3).filter(lambda arcs: sum(p for _, p in arcs) <= 1.0)
        doc = st.one_of(
            st.lists(st.lists(st.sampled_from(foreign + ["zz"]), min_size=1, max_size=4)
                     .map(" ".join), min_size=1, max_size=3)
            .map(lambda sentences: {"kind": "text", "sentences": sentences}),
            st.lists(st.lists(slot.map(lambda arcs: [list(a) for a in arcs]), min_size=1,
                              max_size=3), min_size=1, max_size=3)
            .map(lambda utterances: {"kind": "speech", "utterances": utterances}),
        )
        docs = data.draw(st.lists(doc, min_size=1, max_size=5), label="docs")
        words = sorted(data.draw(st.sets(st.sampled_from(english + ["e9"])), label="words"))
        corpus = loaded(tmp_path_factory.mktemp("corpus"),
                        [{"id": f"d{i}", **obj} for i, obj in enumerate(docs)])
        assert_columns_equal_per_arc(table(entries or {"fa": {"e1": 0.5}}), corpus, words)


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
        keys = corpus.segment_keys
        values = np.array([0.0, 0.5, 1.0])
        matrix = EvidenceMatrix("g", 0.1, ({"w": (np.arange(3), values)}, None), keys)
        _, stored = matrix.cells_at(keys, ["w"])["w"]
        assert stored is values
        assert values.tolist() == [0.1, 0.5, 0.9]
        assert not values.flags.writeable

    def test_copies_a_read_only_column_and_leaves_it_unchanged(self):
        corpus = text_corpus(d=3)
        keys = corpus.segment_keys
        wide = matrix_over(corpus, [("d", 0, "w", 0.05), ("d", 2, "w", 0.95)], epsilon=0.01)
        rows, values = wide.cells_at(keys, ["w"])["w"]
        narrow = EvidenceMatrix("g", 0.1, ({"w": (rows, values)}, None), keys)
        _, stored = narrow.cells_at(keys, ["w"])["w"]
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

    def test_ids_map_unknown_tokens_to_missing(self):
        vocab = Vocabulary(("a", "b"))
        assert vocab.ids(["b", "z", "a", "b"], missing=-1).tolist() == [1, -1, 0, 1]
        assert vocab.ids(iter(["z"]), missing=2).tolist() == [2]
