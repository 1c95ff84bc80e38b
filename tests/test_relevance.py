"""Relevance algebra over evidence matrices.

Hand values used below:
  phrase (a, b), one sentence with p(a)=0.9, p(b)=0.8 -> 0.72
  phrase over two sentences at 0.2 and 0.37 -> 1 - 0.8*0.63 = 0.496
"""

import math
import random

import numpy as np
import pytest
from evidence_cells import matrix_over
from hypothesis import given, settings
from hypothesis import strategies as st

from clirset.corpus import CONCEPTUAL, LEXICAL, Corpus, Document, Query
from clirset.errors import DataError, UnsupportedQueryError
from clirset.relevance import (
    RankedList,
    _log,
    _log_miss,
    _log_union,
    _per_value,
    _prob,
    rank,
    save_run,
)


def doc(doc_id, n_sentences):
    return Document(
        id=doc_id, kind="text", sentences=tuple((f"s{i}",) for i in range(n_sentences))
    )


def lexical(*phrases, query_id="q"):
    return Query(id=query_id, kind=LEXICAL, phrases=tuple(tuple(p) for p in phrases))


def doc_rel(cells, document, query, epsilon=1e-6):
    """`document`'s relevance to `query`: its rank over a corpus of it alone.

    `cells` are (doc id, segment index, word, p); those of other documents
    are left out.
    """
    corpus = Corpus({document.id: document})
    cells = [cell for cell in cells if cell[0] == document.id]
    [(_, prob)] = rank(matrix_over(corpus, cells, epsilon=epsilon), corpus, query).entries
    return prob


def phrase_rel(cells, document, phrase):
    """Relevance of `document` to a query made of the one phrase."""
    return doc_rel(cells, document, lexical(phrase))


class TestHandValues:
    def test_phrase_sentence_product(self):
        cells = [("d", 0, "a", 0.9), ("d", 0, "b", 0.8)]
        assert phrase_rel(cells, doc("d", 1), ("a", "b")) == pytest.approx(
            0.72, abs=1e-12
        )

    def test_phrase_doc_union(self):
        # sentence rels 0.2 and 0.37 via single-word phrase
        cells = [("d", 0, "a", 0.2), ("d", 1, "a", 0.37)]
        got = phrase_rel(cells, doc("d", 2), ("a",))
        assert got == pytest.approx(0.496, abs=1e-12)

    def test_query_doc_product_of_phrases(self):
        cells = [
            ("d", 0, "a", 0.9), ("d", 0, "b", 0.8),
            ("d", 1, "c", 0.5),
        ]
        q = lexical(("a", "b"), ("c",))
        got = doc_rel(cells, doc("d", 2), q)
        # phrase 1: union(0.72, eps-ish) ; phrase 2: union(eps-ish, 0.5)
        p1 = 1 - (1 - 0.72) * (1 - 1e-6 * 1e-6)
        p2 = 1 - (1 - 1e-6) * (1 - 0.5)
        assert got == pytest.approx(p1 * p2, rel=1e-9)

    def test_missing_cells_fall_back_to_floor(self):
        assert phrase_rel([], doc("d", 1), ("a",)) == pytest.approx(1e-6, rel=1e-12)


class TestAgainstDirectOracle:
    def direct(self, probs_by_sentence, phrases):
        """Definition-level computation in plain arithmetic."""
        total = 1.0
        for phrase in phrases:
            miss = 1.0
            for sent in probs_by_sentence:
                p = 1.0
                for w in phrase:
                    p *= sent.get(w, 1e-6)
                miss *= 1.0 - p
            total *= math.fsum([1.0, -miss])
        return total

    def test_random_instances(self):
        rng = random.Random(5)
        words = ["w0", "w1", "w2", "w3"]
        for _ in range(200):
            n_sent = rng.randint(1, 5)
            sentences = []
            cells = []
            d = doc("d", n_sent)
            for i in range(n_sent):
                sent = {}
                for w in rng.sample(words, rng.randint(0, 4)):
                    p = rng.uniform(1e-4, 1 - 1e-4)
                    sent[w] = p
                    cells.append(("d", i, w, p))
                sentences.append(sent)
            phrases = [
                tuple(rng.sample(words, rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            ]
            q = lexical(*phrases)
            got = doc_rel(cells, d, q)
            want = self.direct(sentences, phrases)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_tiny_union_precision(self):
        # all sentence rels near the floor: expm1 keeps the union exact
        n = 50
        cells = [("d", i, "a", 1e-6) for i in range(n)]
        got = phrase_rel(cells, doc("d", n), ("a",))
        want = -math.expm1(n * math.log1p(-1e-6))
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0.0

    def test_ceiling_union_stays_below_one(self):
        # three sentences at the evidence ceiling round the raw union to
        # exactly 1.0; the result must stay strictly inside (0, 1) so that
        # downstream odds p / (1 - p) remain finite
        cells = [("d", i, "a", 1.0) for i in range(3)]
        got = phrase_rel(cells, doc("d", 3), ("a",))
        assert got < 1.0
        assert got == pytest.approx(1.0, rel=1e-12)
        q = lexical(("a",))
        assert doc_rel(cells, doc("d", 3), q) < 1.0

    def test_underflowing_phrase_stays_positive(self):
        # a long all-floor phrase underflows every sentence rel to 0.0;
        # the union must neither crash the log nor collapse to 0.0
        phrase = tuple(f"u{i}" for i in range(130))
        got = phrase_rel([], doc("d", 1), phrase)
        assert 0.0 < got < 1e-300


class TestStructuralProperties:
    def test_more_sentences_never_hurt(self):
        rng = random.Random(6)
        for _ in range(50):
            probs = [rng.uniform(0.01, 0.6) for _ in range(4)]
            cells = [("d", i, "a", p) for i, p in enumerate(probs)]
            small = phrase_rel(cells[:2], doc("d", 2), ("a",))
            # extra sentences read floor evidence at worst
            big = phrase_rel(cells, doc("d", 4), ("a",))
            assert big >= small - 1e-15

    def test_longer_phrase_never_helps(self):
        cells = [("d", 0, "a", 0.9), ("d", 0, "b", 0.8)]
        assert phrase_rel(cells, doc("d", 1), ("a", "b")) <= phrase_rel(
            cells, doc("d", 1), ("a",)
        )

    def test_sentence_order_ignored(self):
        probs = [0.3, 0.7, 0.05]
        base = [("d", i, "a", p) for i, p in enumerate(probs)]
        shuffled = [("d", i, "a", p) for i, p in enumerate(reversed(probs))]
        a = phrase_rel(base, doc("d", 3), ("a",))
        b = phrase_rel(shuffled, doc("d", 3), ("a",))
        assert a == pytest.approx(b, rel=1e-15)


def open_unit(p):
    return min(max(p, math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))


def scalar_ranking(cells, epsilon, docs, query):
    """rank's per-segment scalar algebra before it worked on columns, verbatim.

    `cells` maps doc id -> segment index -> word -> stored value.
    """

    def log_phrase_doc(doc, phrase):
        rows = cells.get(doc.id, {})
        log_miss = 0.0  # log prod (1 - p_s)
        for index in range(len(doc)):
            row = rows.get(index, {})
            log_p = sum(math.log(row.get(word, epsilon)) for word in phrase)
            log_miss += math.log1p(-math.exp(log_p))
        return math.log(open_unit(-math.expm1(log_miss)))

    scored = [
        (d.id, open_unit(math.exp(sum(log_phrase_doc(d, p) for p in query.phrases))))
        for d in docs
    ]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return tuple(scored)


class TestMatchesScalarAlgebra:
    WORDS = ["w0", "w1", "w2", "w3", "w4"]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.05, 0.4, 1.0]),
        n_values=st.sampled_from([0, 2, 12]),
    )
    def test_rank_and_one_document_rank_are_bit_identical(self, seed, density, n_values):
        rng = random.Random(seed)
        epsilon = 1e-6
        # A small pool gives repeated values and ties; 0 draws every value.
        pool = [rng.random() for _ in range(n_values)] + [0.0, 1.0] if n_values else []
        docs, writes = [], []
        for number in rng.sample(range(1000), rng.randint(1, 30)):
            d = doc(f"d{number}", rng.choice([1, 2, 3, 7, 8, 9, 14, 21]))
            docs.append(d)
            all_floor = rng.random() < 0.25
            for index in range(len(d)):
                for word in self.WORDS:
                    if not all_floor and rng.random() < density:
                        p = rng.choice(pool) if pool else rng.random()
                        writes.append((d.id, index, word, p))
        rng.shuffle(writes)  # the cells come in no particular order
        cells = {}
        for doc_id, index, word, p in writes:
            cells.setdefault(doc_id, {}).setdefault(index, {})[word] = min(
                max(p, epsilon), 1.0 - epsilon
            )
        phrases = [
            tuple(rng.choice(self.WORDS + ["unseen"]) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        q = lexical(*phrases)
        want = scalar_ranking(cells, epsilon, docs, q)
        corpus = Corpus.from_documents(docs)
        assert rank(matrix_over(corpus, writes, epsilon=epsilon), corpus, q).entries == want
        by_id = dict(want)
        for d in docs:
            assert doc_rel(writes, d, q, epsilon) == by_id[d.id]

    def test_many_distinct_values(self):
        # numpy's log and exp round differently from the math module on a
        # fraction of a percent of inputs; thousands of distinct values
        # make sure a kernel that swapped them in would be caught.
        rng = random.Random(11)
        docs, writes, cells = [], [], {}
        for number in range(3000):
            d = doc(f"d{number}", rng.randint(1, 3))
            docs.append(d)
            for index in range(len(d)):
                for word in ("a", "b"):
                    p = rng.random()
                    writes.append((d.id, index, word, p))
                    cells.setdefault(d.id, {}).setdefault(index, {})[word] = min(
                        max(p, 1e-6), 1.0 - 1e-6
                    )
        q = lexical(("a",), ("a", "b"))
        corpus = Corpus.from_documents(docs)
        got = rank(matrix_over(corpus, writes), corpus, q).entries
        assert got == scalar_ranking(cells, 1e-6, docs, q)


def bits(values):
    return np.array(values, dtype=float).tobytes()


# Each helper's scalar composition, as rank's per-segment algebra writes it.
SCALAR_HELPERS = {
    "log": (_log, math.log),
    "log_miss": (_log_miss, lambda log_p: math.log1p(-math.exp(log_p))),
    "log_union": (_log_union, lambda log_miss: math.log(open_unit(-math.expm1(log_miss)))),
    "prob": (_prob, lambda log_rel: open_unit(math.exp(log_rel))),
}
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, -1e-16, -1e-15,
    math.log(1.0 - 1e-6), 1e-6, 1.0 - 1e-6, math.nextafter(1.0, 0.0), -0.5, 0.5,
    -36.7, -40.0, -700.0, -745.1, -746.0, -1e300, -math.inf, math.nan,
]


class TestMappedHelpers:
    """The helpers map arrays; each element must equal the scalar math
    composition bit for bit, a NaN included."""

    @pytest.mark.parametrize("name", sorted(SCALAR_HELPERS))
    @pytest.mark.parametrize("x", EDGES)
    def test_edge_value(self, name, x):
        mapped, scalar = SCALAR_HELPERS[name]
        try:
            want = scalar(x)
        except ValueError:  # log of 0.0 or of a negative number
            with pytest.raises(ValueError):
                mapped(np.array([x]))
        else:
            assert bits(mapped(np.array([x]))) == bits([want])

    def test_log_union_of_zero_clamps_to_the_smallest_float(self):
        # -expm1(0.0) is -0.0, which max(-0.0, 5e-324) lifts to 5e-324
        assert _log_union(np.array([0.0]))[0] == math.log(5e-324)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(EDGES), st.floats(-800.0, 0.0), st.floats(allow_nan=False)
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from(sorted(SCALAR_HELPERS)),
    )
    def test_per_value_over_an_array(self, values, name):
        mapped, scalar = SCALAR_HELPERS[name]
        kept = [x for x in values if _scalar_ok(scalar, x)] * 2  # every value repeats
        assert bits(_per_value(mapped, np.array(kept))) == bits(list(map(scalar, kept)))


def _scalar_ok(scalar, x):
    try:
        scalar(x)
    except (ValueError, OverflowError):  # log outside its domain; exp too large
        return False
    return True


class TestRank:
    def test_orders_and_breaks_ties_by_id(self):
        docs = [doc("db", 1), doc("da", 1), doc("dc", 1)]
        corpus = Corpus.from_documents(docs)
        # da and db identical, dc lower
        m = matrix_over(corpus, [
            ("da", 0, "a", 0.5),
            ("db", 0, "a", 0.5),
            ("dc", 0, "a", 0.1),
        ])
        ranked = rank(m, corpus, lexical(("a",)))
        assert ranked.doc_ids == ["da", "db", "dc"]

    def test_empty_corpus_rejected(self):
        corpus = Corpus.from_documents([])
        with pytest.raises(DataError, match="empty"):
            rank(matrix_over(corpus, []), corpus, lexical(("a",)))

    def test_non_lexical_rejected(self):
        corpus = Corpus.from_documents([doc("d", 1)])
        q = Query(id="q", kind=CONCEPTUAL, phrases=(("a",),))
        with pytest.raises(UnsupportedQueryError):
            rank(matrix_over(corpus, []), corpus, q)

    def test_matrix_over_another_corpus_rejected(self):
        corpus = Corpus.from_documents([doc("d", 2), doc("e", 1)])
        cells = [("d", 1, "a", 0.5)]
        q = lexical(("a",))
        # a corpus of the same segments numbers them alike
        same = matrix_over(Corpus.from_documents([doc("d", 2), doc("e", 1)]), cells)
        assert rank(same, corpus, q) == rank(matrix_over(corpus, cells), corpus, q)
        others = [doc("e", 1), doc("d", 2)], [doc("d", 2)], [doc("d", 3), doc("e", 1)]
        for docs in others:
            m = matrix_over(Corpus.from_documents(docs), cells, tag="gen1")
            with pytest.raises(DataError, match="'gen1' is read over a corpus"):
                rank(m, corpus, q)

    def test_unsorted_ranked_list_rejected(self):
        with pytest.raises(DataError, match="ranked list for 'q7' is not sorted"):
            RankedList("q7", (("d1", 0.2), ("d2", 0.9)))

    def test_nan_accepted_as_by_the_pairwise_rule(self):
        # No adjacent pair has b > a, since every comparison with NaN is false.
        ranked = RankedList("q", (("d1", 0.2), ("d2", math.nan), ("d3", 0.9)))
        assert ranked.doc_ids == ["d1", "d2", "d3"]
        with pytest.raises(DataError, match="'q'"):
            RankedList("q", (("d1", math.nan), ("d2", 0.2), ("d3", 0.9)))

    @given(st.lists(st.sampled_from([0.9, 0.5, 0.5, 0.1, 0.0, -0.0, math.nan, math.inf])))
    def test_sorted_rule_is_the_pairwise_rule(self, probs):
        entries = tuple((f"d{i}", p) for i, p in enumerate(probs))
        unsorted = any(b > a for a, b in zip(probs, probs[1:]))
        if unsorted:
            with pytest.raises(DataError, match="not sorted"):
                RankedList("q", entries)
        else:
            assert RankedList("q", entries).entries == entries

    @given(st.permutations([f"d{i:02d}" for i in range(12)]), st.integers(0, 12))
    def test_ties_ranked_by_ascending_id_whatever_the_file_order(self, ids, n_held):
        # Lengths 1 to 3 and the first n_held documents in file order holding
        # a cell: documents alike in both tie exactly.
        docs = [doc(doc_id, 1 + i % 3) for i, doc_id in enumerate(ids)]
        corpus = Corpus.from_documents(docs)
        cells = [(doc_id, 0, "a", 0.5) for doc_id in ids[:n_held]]
        m = matrix_over(corpus, cells)
        q = lexical(("a",))
        ids_in_file_order = list(corpus.documents)
        assert [ids_in_file_order[i] for i in corpus.by_id] == sorted(ids)
        want = sorted(ids, key=lambda doc_id: (-doc_rel(cells, corpus[doc_id], q), doc_id))
        assert rank(m, corpus, q).doc_ids == want


POOLED_PROBS = st.sampled_from(
    [5e-324, math.nextafter(1.0, 0.0), 0.5, 0.1, 1e-06, 0.12345678901234567, 0.0, -0.0]
)
RUN_PROBS = POOLED_PROBS | st.floats(0.0, 1.0)

# save_run formats each line itself when at least half of a list's lines
# differ from the line before, and each distinct probability once otherwise.
RUN_LISTS = st.one_of(
    st.lists(RUN_PROBS, max_size=12),
    st.lists(st.floats(0.0, 1.0), max_size=12, unique=True),  # per line
    st.lists(POOLED_PROBS, min_size=24, max_size=40),  # per distinct value
)


@st.composite
def ranked_lists(draw):
    """Descending lists, distinct or over a few repeated values, some with NaN slotted in."""
    lists = []
    for qid in draw(st.lists(st.sampled_from(["q1", "q2", "Q 3"]), max_size=4)):
        probs = sorted(draw(RUN_LISTS), reverse=True)
        for at in draw(st.lists(st.integers(0, len(probs)), max_size=2)):
            probs.insert(at, math.nan)
        lists.append(RankedList(qid, tuple((f"d{i}", p) for i, p in enumerate(probs))))
    return lists


class TestRunIO:
    @given(ranked_lists())
    def test_bytes_match_per_line_repr(self, tmp_path_factory, lists):
        path = tmp_path_factory.mktemp("run") / "ranked.run"
        save_run(lists, path)
        want = "".join(
            f"{ranked.query_id} {d} {i} {p!r} clirset\n"
            for ranked in lists
            for i, (d, p) in enumerate(ranked.entries, 1)
        )
        assert path.read_bytes() == want.encode("utf-8")

    def test_lists_of_every_length_in_one_call(self, tmp_path):
        # The position strings of one call are shared by every list in it.
        lists = [
            RankedList("q0", ()),
            RankedList("q1", (("da", 0.875), ("db", 0.125))),
            RankedList("q2", tuple((f"d{i}", 0.5 ** (i // 10 + 1)) for i in range(30))),
            RankedList("q3", tuple((f"d{i}", 1.0 / (i + 2)) for i in range(12))),
            RankedList("q4", (("dz", 0.25),)),
            RankedList("q5", ()),
        ]
        path = tmp_path / "ranked.run"
        save_run(lists, path)
        want = "".join(
            f"{ranked.query_id} {d} {i} {p!r} clirset\n"
            for ranked in lists
            for i, (d, p) in enumerate(ranked.entries, 1)
        )
        assert path.read_bytes() == want.encode("utf-8")

    def test_round_trip(self, tmp_path):
        lists = [
            RankedList("q1", (("da", 0.875), ("db", 0.12345678901234567))),
            RankedList("q2", (("da", 1e-06),)),
        ]
        path = tmp_path / "out.run"
        save_run(lists, path)
        # query-id doc-id rank prob run-tag; repr() reads back bit exact
        assert path.read_text().splitlines() == [
            "q1 da 1 0.875 clirset",
            "q1 db 2 0.12345678901234566 clirset",
            "q2 da 1 1e-06 clirset",
        ]
