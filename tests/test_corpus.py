"""Tokenizer, query parsing, and file-format round trips."""

import gc
import json
import os
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from corpus_helpers import from_slots, query_words
from hypothesis import given, settings
from hypothesis import strategies as st

import clirset.corpus as corpus_module
from clirset.corpus import (
    Bitext,
    ConfusionNetwork,
    Corpus,
    Document,
    Judgments,
    TranslationTable,
    bitext_corpus,
    bitext_doc_id,
    format_query,
    load_bitext,
    load_corpus,
    load_judgments,
    load_queries,
    load_translation_table,
    normalize,
    parse_query,
    save_bitext,
    save_corpus,
    save_judgments,
    save_queries,
    save_translation_table,
)
from clirset.errors import DataError
from clirset.evidence import TranslationTableGenerator, load_mt_hypotheses
from clirset.relevance import RankedList, save_run
from clirset.synth import SynthSpec, generate
from clirset.thresholder import CutoffDecision, save_cutoffs, save_returned_sets


class TestNormalize:
    def test_lowercase_and_edge_punctuation(self):
        assert normalize("Scientific Research,") == ("scientific", "research")

    def test_empty_string(self):
        assert normalize("") == ()

    def test_interior_punctuation_kept(self):
        assert normalize("HIV/influenza") == ("hiv/influenza",)

    def test_pure_punctuation_dropped(self):
        assert normalize("-- ... «") == ("«",)  # only ASCII punctuation strips

    def test_wrapping_punctuation(self):
        assert normalize("((vaccination))!") == ("vaccination",)

    def test_letters_that_lowercase_to_two_code_points(self):
        assert normalize("İstanbul, ÉCOLE!") == ("i\u0307stanbul", "école")

    @given(st.text(max_size=80))
    def test_idempotent(self, raw):
        once = normalize(raw)
        assert normalize(" ".join(once)) == once

    # letters that lowercase to one or two code points, ASCII punctuation
    # that strips, and whitespace, so lines hold pieces that are only
    # punctuation, pieces that strip to a token seen bare, and no tokens
    LINES = st.lists(
        st.text(alphabet=st.sampled_from(list("aBİÉé.,!-'\"«  \t")), max_size=24),
        max_size=12,
    )

    @settings(max_examples=300, deadline=None)
    @given(lines=LINES)
    def test_equal_tokens_are_one_object(self, lines):
        shared = {}
        for raw in lines + lines:
            sentence = normalize(raw)
            assert type(sentence) is tuple
            for token in sentence:
                assert shared.setdefault(token, token) is token

    def test_shares_tokens_across_calls(self):
        first = normalize("(école)")[0]
        again = normalize("ÉCOLE école,")
        assert again[0] is first and again[1] is first


class TestParseQuery:
    def test_two_phrase_lexical(self):
        q = parse_query("Q1\tscientific research, vaccination")
        assert q.id == "Q1"
        assert q.kind == "lexical"
        assert q.phrases == (("scientific", "research"), ("vaccination",))

    def test_conceptual_plus(self):
        q = parse_query("Q2\tsafari+")
        assert q.kind == "conceptual"
        assert q.phrases == (("safari",),)

    def test_example_of_wrapper(self):
        q = parse_query("Q3\tEXAMPLE_OF(virus)")
        assert q.kind == "example_of"
        assert q.phrases == (("virus",),)

    def test_missing_tab_names_line(self):
        with pytest.raises(DataError, match="no tab"):
            parse_query("Q4 vaccination")

    def test_empty_query_string(self):
        with pytest.raises(DataError, match="empty query string"):
            parse_query("Q5\t   ")

    def test_phrase_of_pure_punctuation(self):
        with pytest.raises(DataError, match="normalizes to no words"):
            parse_query("Q6\tvirus, ...")

    def test_words_deduplicated_in_order(self):
        q = parse_query("Q7\tvirus spread, virus origin")
        assert query_words(q) == ["virus", "spread", "origin"]


class TestCorpusIO:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_load_text_and_speech(self, tmp_path):
        lines = [
            json.dumps({"id": "d1", "kind": "text", "sentences": ["A b c", "d E"]}),
            json.dumps(
                {
                    "id": "d2",
                    "kind": "speech",
                    "utterances": [[[["foo", 0.8], ["bar", 0.2]], [["baz", 1.0]]]],
                }
            ),
        ]
        corpus = load_corpus(self._write(tmp_path, lines))
        assert len(corpus) == 2
        assert corpus["d1"].sentences == (("a", "b", "c"), ("d", "e"))
        cn = corpus["d2"].utterances[0]
        assert cn.one_best() == ("foo", "baz")

    def test_duplicate_id_rejected(self, tmp_path):
        line = json.dumps({"id": "d1", "kind": "text", "sentences": ["a"]})
        with pytest.raises(DataError, match="duplicate document id"):
            load_corpus(self._write(tmp_path, [line, line]))

    def test_bad_json_names_file_and_line(self, tmp_path):
        path = self._write(tmp_path, ["{not json"])
        with pytest.raises(DataError, match=r"corpus\.jsonl:1"):
            load_corpus(path)

    def test_sentence_normalizing_to_nothing(self, tmp_path):
        line = json.dumps({"id": "d1", "kind": "text", "sentences": ["..."]})
        with pytest.raises(DataError, match="normalizes to no tokens"):
            load_corpus(self._write(tmp_path, [line]))

    def test_slot_sum_over_one_rejected(self, tmp_path):
        line = json.dumps(
            {
                "id": "d1",
                "kind": "speech",
                "utterances": [[[["a", 0.9], ["b", 0.3]]]],
            }
        )
        with pytest.raises(DataError, match="sum"):
            load_corpus(self._write(tmp_path, [line]))

    @pytest.mark.parametrize("prob", [True, False, "0.5", None])
    def test_arc_prob_that_is_not_a_number_rejected(self, tmp_path, prob):
        line = json.dumps(
            {"id": "d1", "kind": "speech", "utterances": [[[["fa", prob]]]]}
        )
        path = self._write(tmp_path, [line])
        with pytest.raises(DataError) as raised:
            load_corpus(path)
        assert str(raised.value) == (
            f"{path}:1: arc prob for 'fa' in 'd1' is not a number"
        )

    def test_zero_prob_arc_rejected(self, tmp_path):
        line = json.dumps(
            {"id": "d1", "kind": "speech", "utterances": [[[["a", 0.0]]]]}
        )
        with pytest.raises(DataError, match=r"outside \(0, 1\]"):
            load_corpus(self._write(tmp_path, [line]))

    @pytest.mark.parametrize(
        "doc_id, flaw",
        [("d 1", "holds whitespace"), ("d\t1", "holds whitespace"),
         ("d1\n", "holds whitespace"), ("\u00a0d1", "holds whitespace"),
         ("d\ud800", "is not valid UTF-8")],
    )
    def test_id_no_output_line_can_hold_rejected(self, tmp_path, doc_id, flaw):
        good = json.dumps({"id": "d0", "kind": "text", "sentences": ["a"]})
        bad = json.dumps({"id": doc_id, "kind": "text", "sentences": ["a"]})
        path = self._write(tmp_path, [good, bad])
        with pytest.raises(DataError) as raised:
            load_corpus(path)
        assert str(raised.value) == f"{path}:2: document id {doc_id!r} {flaw}"

    def test_round_trip(self, tmp_path):
        docs = [
            Document(id="t", kind="text", sentences=(("a", "b"), ("c",))),
            Document(
                id="s",
                kind="speech",
                utterances=(
                    from_slots(((("a", 0.7), ("b", 0.25)), (("c", 1.0),))),
                ),
            ),
        ]
        corpus = Corpus.from_documents(docs)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_save_deterministic(self, tmp_path, monkeypatch):
        corpus = Corpus.from_documents([
            Document(id="t", kind="text", sentences=(("a",),)),
            Document(id="s", kind="speech", utterances=(
                from_slots(((("a", 0.7), ("b", 0.25)), (("c", 1.0),))),
                from_slots(((("b", 0.5),),)),
            )),
        ])
        slots_calls = []
        original = ConfusionNetwork.slots

        def spy(cn):
            slots_calls.append(cn)
            return original.fget(cn)

        # the speech lines are written from the columns, not the slot pairs
        monkeypatch.setattr(ConfusionNetwork, "slots", property(spy))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(corpus, p1)
        save_corpus(corpus, p2)
        assert slots_calls == []
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes() == per_line_save_corpus(corpus)


def per_line_save_corpus(corpus):
    """The bytes the corpus file held when each line was one json.dumps call."""
    lines = []
    for doc in corpus:
        if doc.kind == "text":
            obj = {
                "id": doc.id,
                "kind": "text",
                "sentences": [" ".join(sent) for sent in doc.sentences],
            }
        else:
            obj = {
                "id": doc.id,
                "kind": "speech",
                # json writes the (token, prob) tuples as [token, prob]
                "utterances": [cn.slots for cn in doc.utterances],
            }
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines).encode("utf-8")


# Tokens that normalize to themselves but need escapes or non-ASCII in
# JSON: a quote, a backslash, a control character, a letter outside
# ASCII, CJK and a character outside the BMP (a surrogate pair), each
# between letters so that no edge punctuation is stripped.
ESCAPED_TOKENS = st.builds(
    lambda head, middle, tail: head + middle + tail,
    st.sampled_from(["a", "zz", "ü"]),
    st.sampled_from(["", '"', "\\", "\x07", "ü", "日本", "\U0001f600"]),
    st.sampled_from(["b", "日本"]),
)
# Probabilities whose reprs are long or short; every slot sums to <= 1.
LONG_REPR_PROBS = st.sampled_from([0.1 + 0.2, 5e-324, 1 / 3, 0.1, 1e-17])
ESCAPED_SLOTS = st.lists(
    st.one_of(
        ESCAPED_TOKENS.map(lambda token: ((token, 1.0),)),
        st.lists(st.tuples(ESCAPED_TOKENS, LONG_REPR_PROBS), min_size=1, max_size=3)
        .map(tuple),
    ),
    min_size=1,
    max_size=4,
).map(tuple)
ESCAPED_DOCS = st.lists(
    st.tuples(
        st.sampled_from(["", '"', "\\", "\x07", "\n", " ", "ü", "日本"]),
        st.one_of(
            st.lists(st.lists(ESCAPED_TOKENS, min_size=1, max_size=3).map(tuple),
                     min_size=1, max_size=3)
            .map(lambda sentences: {"kind": "text", "sentences": tuple(sentences)}),
            st.lists(ESCAPED_SLOTS.map(from_slots), min_size=1, max_size=3)
            .map(lambda utterances: {"kind": "speech", "utterances": tuple(utterances)}),
        ),
    ),
    min_size=1,
    max_size=5,
)


class TestSaveCorpusBytes:
    @settings(max_examples=200, deadline=None)
    @given(ESCAPED_DOCS)
    def test_equals_per_line_json_dumps(self, tmp_path_factory, docs):
        corpus = Corpus.from_documents([
            Document(id=f"d{i}{suffix}", **fields)
            for i, (suffix, fields) in enumerate(docs)
        ])
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        save_corpus(corpus, path)
        assert path.read_bytes() == per_line_save_corpus(corpus)
        spaced = [i for i, doc in enumerate(corpus, 1) if doc.id.split() != [doc.id]]
        if spaced:  # an output line cannot hold such an id
            with pytest.raises(DataError, match=rf"{spaced[0]}: document id .* whitespace"):
                load_corpus(path)
        else:
            assert load_corpus(path) == corpus


# Raw arc tokens: case and edge-punctuation variants of a few words, so a
# normalized token comes from several raw spellings.
RAW_TOKENS = st.builds(
    lambda head, word, upper, tail: head + (word.upper() if upper else word) + tail,
    st.sampled_from(["", "(", "\"", "--"]),
    st.sampled_from(["foo", "bar", "ba-z", "qu/x"]),
    st.booleans(),
    st.sampled_from(["", ",", "!", "..."]),
)
# Raw tokens that normalize to no token or to two.
BAD_TOKENS = st.sampled_from(["...", "--", "Foo bar", "foo, BAR"])
ARCS = st.one_of(
    st.tuples(RAW_TOKENS, st.just(1)).map(lambda arc: [list(arc)]),
    st.lists(
        st.tuples(RAW_TOKENS, st.sampled_from([0.1, 0.2, 0.25])).map(list),
        min_size=1,
        max_size=4,
    ),
)
TEXT_DOC = st.lists(
    st.lists(RAW_TOKENS, min_size=1, max_size=4).map(" ".join), min_size=1, max_size=3
).map(lambda sentences: {"kind": "text", "sentences": sentences})
SPEECH_DOC = st.lists(
    st.lists(ARCS, min_size=1, max_size=3), min_size=1, max_size=3
).map(lambda utterances: {"kind": "speech", "utterances": utterances})


def per_arc_reference(objs):
    """The corpus the JSON objects describe, normalizing every arc on its own."""
    docs = []
    for obj in objs:
        if obj["kind"] == "text":
            sentences = tuple(normalize(raw) for raw in obj["sentences"])
            docs.append(Document(id=obj["id"], kind="text", sentences=sentences))
            continue
        utterances = []
        for raw_slots in obj["utterances"]:
            slots = []
            for raw_arcs in raw_slots:
                arcs = []
                for raw_token, prob in raw_arcs:
                    (token,) = normalize(raw_token)
                    arcs.append((token, float(prob)))
                slots.append(tuple(arcs))
            utterances.append(from_slots(tuple(slots)))
        docs.append(Document(id=obj["id"], kind="speech", utterances=tuple(utterances)))
    return Corpus.from_documents(docs)


def write_corpus(path, objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    return path


class TestLoadCorpusPerDistinctToken:
    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.one_of(TEXT_DOC, SPEECH_DOC), min_size=1, max_size=6),
        bad=st.none() | st.tuples(BAD_TOKENS, st.integers(0, 5), st.integers(0, 99)),
    )
    def test_equals_per_arc_reference(self, tmp_path_factory, kinds, bad):
        objs = [{"id": f"d{i}", **obj} for i, obj in enumerate(kinds)]
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        later = [i for i, obj in enumerate(objs) if i > 0 and obj["kind"] == "speech"]
        if bad is None or not later:
            write_corpus(path, objs)
            corpus = load_corpus(path)
            assert corpus == per_arc_reference(objs)
            probs = [p for doc in corpus for cn in doc.utterances for slot in cn.slots
                     for _, p in slot]
            assert all(type(p) is float for p in probs)  # also where the JSON had 1
            return
        # A bad token first used in a speech document after the first line,
        # once good spellings of the same words have been seen.
        bad_token, pick, slot_pick = bad
        target = later[pick % len(later)]
        raw_slots = objs[target]["utterances"][0]
        raw_slots[slot_pick % len(raw_slots)][0][0] = bad_token
        write_corpus(path, objs)
        with pytest.raises(DataError, match="exactly one token") as info:
            load_corpus(path)
        assert f"corpus.jsonl:{target + 1}:" in str(info.value)
        assert f"'d{target}'" in str(info.value)

    def test_one_normalize_call_per_distinct_arc_token(self, tmp_path, monkeypatch):
        calls = []

        def counting_normalize(raw):
            calls.append(raw)
            return normalize(raw)

        monkeypatch.setattr(corpus_module, "normalize", counting_normalize)
        objs = [
            {"id": "t", "kind": "text", "sentences": ["Foo bar", "foo", "Foo bar"]},
            {"id": "s1", "kind": "speech",
             "utterances": [[[["Foo", 0.5], ["bar,", 0.5]], [["Foo", 1.0]]]]},
            {"id": "s2", "kind": "speech",
             "utterances": [[[["bar,", 0.5], ["foo", 0.5]]], [[["Foo", 1.0]]]]},
        ]
        corpus = load_corpus(write_corpus(tmp_path / "corpus.jsonl", objs))
        assert corpus == per_arc_reference(objs)
        # one call per text sentence, then one per distinct raw arc token:
        # Foo, bar, and foo
        assert calls == ["Foo bar", "foo", "Foo bar", "Foo", "bar,", "foo"]
        sentences = corpus["t"].sentences
        assert sentences[0][0] is sentences[1][0] is sentences[2][0]
        # every arc with one raw token holds the same string object
        s1, s2 = corpus["s1"].utterances, corpus["s2"].utterances
        from_foo_upper = [s1[0].slots[0][0][0], s1[0].slots[1][0][0], s2[1].slots[0][0][0]]
        assert all(token is from_foo_upper[0] for token in from_foo_upper)
        assert s1[0].slots[0][1][0] is s2[0].slots[0][0][0]

    def test_non_string_token_checked_before_the_lookup(self, tmp_path):
        line = {"id": "d", "kind": "speech", "utterances": [[[[["a"], 1.0]]]]}
        with pytest.raises(DataError, match=r"corpus\.jsonl:1: .*non-string token"):
            load_corpus(write_corpus(tmp_path / "corpus.jsonl", [line]))


class TestTokensSharedAcrossFiles:
    def test_one_word_is_one_object_in_every_file(self, tmp_path):
        objs = [
            {"id": "t", "kind": "text", "sentences": ["Foo, bar"]},
            {"id": "s", "kind": "speech", "utterances": [[[["foo.", 1.0]]]]},
        ]
        corpus = load_corpus(write_corpus(tmp_path / "corpus.jsonl", objs))
        hyps_path = tmp_path / "mt_hyps.tsv"
        hyps_path.write_text("s1\tt\t0\tFOO bar\n", encoding="utf-8")
        hyps = load_mt_hypotheses(hyps_path)
        queries_path = tmp_path / "queries.tsv"
        queries_path.write_text("Q1\t(foo)\n", encoding="utf-8")
        (query,) = load_queries(queries_path)
        tokens = [
            corpus["t"].sentences[0][0],
            corpus["s"].utterances[0].tokens[0],
            hyps.hypotheses["s1"][("t", 0)][0],
            query.phrases[0][0],
        ]
        assert tokens == ["foo"] * 4
        assert all(token is tokens[0] for token in tokens)


SLOTS = st.lists(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from([0.1, 0.2, 0.25])),
        min_size=1,
        max_size=4,
    ).map(tuple),
    min_size=1,
    max_size=5,
).map(tuple)


class TestConfusionNetworkColumns:
    @given(SLOTS)
    def test_from_slots_round_trips(self, slots):
        cn = from_slots(slots)
        assert cn.slots == slots
        assert cn.tokens == tuple(token for slot in slots for token, _ in slot)
        assert len(cn.ends) == len(slots)

    @given(SLOTS)
    def test_one_best_first_arc_wins_ties(self, slots):
        expected = tuple(max(slot, key=lambda arc: arc[1])[0] for slot in slots)
        assert from_slots(slots).one_best() == expected

    def test_one_best_tie_picks_the_first_arc(self):
        cn = from_slots(
            ((("a", 0.4), ("b", 0.4)), (("c", 0.2), ("d", 0.4), ("e", 0.4)))
        )
        assert cn.one_best() == ("a", "d")

    def test_probs_are_one_read_only_float64_array(self):
        cn = from_slots(((("a", 1),), (("b", 0.5), ("c", 0.5))))
        assert cn.probs.dtype == np.float64 and cn.probs.tolist() == [1.0, 0.5, 0.5]
        with pytest.raises(ValueError):
            cn.probs[0] = 0.5

    def test_equality_compares_every_column(self):
        cn = from_slots(((("a", 0.5), ("b", 0.5)),))
        assert cn == from_slots(((("a", 0.5), ("b", 0.5)),))
        assert cn != from_slots(((("a", 0.5), ("b", 0.25)),))
        assert cn != from_slots(((("a", 0.5),), (("b", 0.5),)))
        assert cn != from_slots(((("a", 0.5), ("c", 0.5)),))

    @pytest.mark.parametrize(
        "slots, message",
        [
            ((), "confusion network has no slots"),
            (((),), "confusion network slot 0 is empty"),
            (((("a", 0.5),), ()), "confusion network slot 1 is empty"),
            (((("a", 0.5),), (("", 0.5),)), "confusion network slot 1 has an empty token"),
            (((("a", 0.0),),), "confusion network slot 0 arc prob 0.0 outside (0, 1]"),
            (((("a", float("nan")),),), "confusion network slot 0 arc prob nan outside (0, 1]"),
            (((("a", 1.5),),), "confusion network slot 0 arc prob 1.5 outside (0, 1]"),
            # a NaN after the first arc, which min and max over the network miss
            (
                ((("a", 0.5),), (("b", 0.2), ("c", float("nan")))),
                "confusion network slot 1 arc prob nan outside (0, 1]",
            ),
            (((("a", 0.7), ("b", 0.5)),), "confusion network slot 0 probs sum to 1.2 > 1"),
            # nine arcs: summed in arc order, not pairwise
            (
                (tuple(zip("abcdefghi", (0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3, 0.05, 0.0500001))),),
                "confusion network slot 0 probs sum to 1.7000001000000002 > 1",
            ),
            # the first slot at fault is named, whatever is wrong in later slots
            (
                ((("a", 0.7), ("b", 0.5)), (("", 0.5),)),
                "confusion network slot 0 probs sum to 1.2 > 1",
            ),
            (
                ((("a", 0.5),), (("b", 0.6), ("c", 0.6)), (("d", 3.0),)),
                "confusion network slot 1 probs sum to 1.2 > 1",
            ),
            # within a slot, arcs are checked in order, the token before the prob
            (((("", 2.0),),), "confusion network slot 0 has an empty token"),
            (((("a", 2.0), ("", 0.5)),), "confusion network slot 0 arc prob 2.0 outside (0, 1]"),
        ],
    )
    def test_validation_messages(self, slots, message):
        with pytest.raises(DataError) as info:
            from_slots(slots)
        assert str(info.value) == message

    def test_columns_must_agree(self):
        with pytest.raises(DataError, match="1 tokens, 2 probs and slots ending at arc 1"):
            ConfusionNetwork(("a",), np.array([0.5, 0.5]), (1,))

    def test_load_error_names_line_document_utterance_and_slot(self, tmp_path):
        good = {"id": "g", "kind": "speech", "utterances": [[[["a", 1.0]]]]}
        bad = {"id": "b", "kind": "speech",
               "utterances": [[[["a", 1.0]]], [[["a", 0.5]], [["b", 0.75], ["c", 0.5]]]]}
        with pytest.raises(DataError) as info:
            load_corpus(write_corpus(tmp_path / "corpus.jsonl", [good, bad]))
        assert str(info.value) == (
            f"{tmp_path / 'corpus.jsonl'}:2: utterance 1 of 'b':"
            " confusion network slot 1 probs sum to 1.25 > 1"
        )

    def test_save_then_load_is_byte_identical(self, tmp_path):
        spec = SynthSpec(docs=20, queries=2, noise=0.3, speech_fraction=0.5,
                         confusion_depth=4, bitext_pairs=20)
        corpus = generate(spec).corpus
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(corpus, first)
        loaded = load_corpus(first)
        assert loaded == corpus
        save_corpus(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_speech_keeps_few_bytes_per_arc(self, tmp_path):
        """An int32 id and a float64 per arc in the store, plus an int64 end
        per slot: a loaded speech document holds no network of its own.

        Arcs held as (token, float) tuples inside slot tuples take about
        100 bytes each; a token tuple per network besides the store, 32.
        """
        spec = SynthSpec(docs=100, queries=2, noise=0.3, speech_fraction=1.0,
                         confusion_depth=5, bitext_pairs=20)
        path = tmp_path / "corpus.jsonl"
        save_corpus(generate(spec).corpus, path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            corpus = load_corpus(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arcs = sum(len(slot) for doc in corpus for cn in doc.utterances for slot in cn.slots)
        assert arcs > 10_000
        assert retained / arcs < 20


def assert_same_store(got, want):
    assert got.index == want.index and list(got.index) == list(want.index)
    columns = (("ids", np.int32), ("probs", np.float64), ("offsets", np.int64),
               ("slot_ends", np.int64))
    for name, dtype in columns:
        column = getattr(got, name)
        assert column.dtype == dtype and not column.flags.writeable
        assert column.tobytes() == getattr(want, name).astype(dtype).tobytes()


class TestArcStore:
    @settings(max_examples=150, deadline=None)
    @given(kinds=st.lists(st.one_of(TEXT_DOC, SPEECH_DOC), min_size=1, max_size=6))
    def test_loaded_store_equals_the_one_built_from_documents(self, tmp_path_factory, kinds):
        objs = [{"id": f"d{i}", **obj} for i, obj in enumerate(kinds)]
        path = write_corpus(tmp_path_factory.mktemp("corpus") / "corpus.jsonl", objs)
        loaded = load_corpus(path)
        built = Corpus.from_documents(per_arc_reference(objs))
        assert_same_store(loaded.arcs, built.arcs)
        # every segment's arcs, in corpus order; a text token is an arc of 1.0
        arcs = loaded.arcs
        tokens = list(arcs.index)
        segments = [seg for doc in built for seg in doc.segments]
        assert len(arcs.offsets) == len(segments) + 1 and arcs.offsets[0] == 0
        for s, segment in enumerate(segments):
            span = slice(arcs.offsets[s], arcs.offsets[s + 1])
            seg_tokens = segment if isinstance(segment, tuple) else segment.tokens
            seg_probs = [1.0] * len(segment) if isinstance(segment, tuple) else segment.probs
            assert [tokens[i] for i in arcs.ids[span]] == list(seg_tokens)
            assert arcs.probs[span].tolist() == list(seg_probs)
            # a text token is a slot of its own
            seg_ends = range(1, len(segment) + 1) if isinstance(segment, tuple) else segment.ends
            inside = (arcs.slot_ends > arcs.offsets[s]) & (arcs.slot_ends <= arcs.offsets[s + 1])
            assert (arcs.slot_ends[inside] - arcs.offsets[s]).tolist() == list(seg_ends)

    def test_raw_spellings_of_one_token_share_an_id(self, tmp_path):
        objs = [
            {"id": "t", "kind": "text", "sentences": ["Foo bar"]},
            {"id": "s", "kind": "speech",
             "utterances": [[[["foo", 0.5], ["Foo", 0.25]], [["BAR!", 1]]]]},
        ]
        corpus = load_corpus(write_corpus(tmp_path / "corpus.jsonl", objs))
        arcs = corpus.arcs
        assert arcs.index == {"foo": 0, "bar": 1}
        assert arcs.ids.tolist() == [0, 1, 0, 0, 1]
        assert arcs.probs.tolist() == [1.0, 1.0, 0.5, 0.25, 1.0]
        assert arcs.offsets.tolist() == [0, 2, 5]
        assert arcs.slot_ends.tolist() == [1, 2, 4, 5]
        assert_same_store(arcs, Corpus.from_documents(corpus).arcs)

    def test_loaded_networks_are_read_only_float64_views_of_the_store(self, tmp_path):
        objs = [{"id": "s", "kind": "speech",
                 "utterances": [[[["a", 0.5], ["b", 0.5]]], [[["c", 1]]]]}]
        corpus = load_corpus(write_corpus(tmp_path / "corpus.jsonl", objs))
        for cn in corpus["s"].utterances:
            assert cn.probs.dtype == np.float64 and not cn.probs.flags.writeable
            assert np.shares_memory(cn.probs, corpus.arcs.probs)
            with pytest.raises(ValueError):
                cn.probs[0] = 0.25
        assert [cn.slots for cn in corpus["s"].utterances] == [
            ((("a", 0.5), ("b", 0.5)),), ((("c", 1.0),),)
        ]
        # built on each read, and kept nowhere
        assert corpus["s"].utterances[0] is not corpus["s"].utterances[0]

    @settings(max_examples=150, deadline=None)
    @given(kinds=st.lists(st.one_of(TEXT_DOC, SPEECH_DOC), min_size=1, max_size=6))
    def test_loaded_utterances_equal_the_networks_their_walk_builds(
        self, tmp_path_factory, kinds
    ):
        objs = [{"id": f"d{i}", **obj} for i, obj in enumerate(kinds)]
        path = write_corpus(tmp_path_factory.mktemp("corpus") / "corpus.jsonl", objs)
        corpus = load_corpus(path)
        for obj in objs:
            if obj["kind"] != "speech":
                continue
            networks = []
            for raw_slots in obj["utterances"]:
                arcs = [arc for raw_arcs in raw_slots for arc in raw_arcs]
                networks.append(ConfusionNetwork(
                    tuple(normalize(raw_token)[0] for raw_token, _ in arcs),
                    np.array([prob for _, prob in arcs], dtype=np.float64),
                    tuple(accumulate(map(len, raw_slots))),
                ))
            networks = tuple(networks)
            utterances = corpus[obj["id"]].utterances
            assert len(utterances) == len(networks)
            assert utterances == networks and networks == utterances
            assert utterances == list(networks) and utterances != networks[:-1]
            assert tuple(utterances) == networks
            assert utterances[-1] == networks[-1] and utterances[1:] == networks[1:]
            assert [cn.one_best() for cn in utterances] == [cn.one_best() for cn in networks]
            assert corpus[obj["id"]] == Document(id=obj["id"], kind="speech",
                                                 utterances=networks)
            with pytest.raises(IndexError):
                utterances[len(networks)]

    def test_only_reading_a_network_builds_one(self, tmp_path, monkeypatch):
        calls = []
        build = corpus_module._checked_network

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(corpus_module, "_checked_network", counting)
        objs = [
            {"id": "t", "kind": "text", "sentences": ["foo bar"]},
            {"id": "s", "kind": "speech",
             "utterances": [[[["foo", 0.5], ["bar", 0.5]]], [[["bar", 1]], [["foo", 1]]]]},
        ]
        corpus = load_corpus(write_corpus(tmp_path / "corpus.jsonl", objs))
        assert [len(doc) for doc in corpus] == [1, 2]
        assert corpus.segment_keys == (("t", 0), ("s", 0), ("s", 1))
        assert corpus.segment_docs.tolist() == [0, 1, 1]
        table = TranslationTable({"foo": {"x": 0.5}, "bar": {"y": 1.0}}, "t")
        columns, _ = TranslationTableGenerator(table).columns(corpus, ["x", "y"])
        assert columns["y"][0].tolist() == [0, 1, 2]
        assert calls == []
        assert [cn.ends for cn in corpus["s"].utterances] == [(2,), (1, 2)]
        assert len(calls) == 2


class TestLoadCorpusNamesTheFirstFault:
    """Arcs are checked a document at a time, yet the error names the fault
    that comes first in the file, as when each utterance was checked on its own."""

    def test_a_slot_sum_before_a_malformed_arc_and_bad_json(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"id": "a", "kind": "text", "sentences": ["x y"]}) + "\n"
            + json.dumps({"id": "b", "kind": "speech", "utterances": [
                [[["p", 0.75], ["q", 0.5]]],
                [[["r", 0.5], ["malformed"]]],
            ]}) + "\n"
            + "{not json\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == (
            f"{path}:2: utterance 0 of 'b': confusion network slot 0 probs sum to 1.25 > 1"
        )

    @pytest.mark.parametrize(
        "utterances, message",
        [
            # by utterance: a later utterance's earlier slot does not come first
            (
                [[[["a", 1.0]], [["b", 0.75], ["c", 0.5]]], [[["d", 0.0]]]],
                "utterance 0 of 'b': confusion network slot 1 probs sum to 1.25 > 1",
            ),
            # by slot, within an utterance
            (
                [[[["a", 1.0]], [["b", float("nan")]], [["c", 0.75], ["d", 0.5]]]],
                "utterance 0 of 'b': confusion network slot 1 arc prob nan outside (0, 1]",
            ),
            (
                [[[["a", 0.5]], [["b", 0.75], ["c", 0.5]], [["d", 2.0]]]],
                "utterance 0 of 'b': confusion network slot 1 probs sum to 1.25 > 1",
            ),
            # a fault in a whole utterance before an unreadable one
            (
                [[[["a", 1.5]]], [[["b", 1.0]], "not a slot"]],
                "utterance 0 of 'b': confusion network slot 0 arc prob 1.5 outside (0, 1]",
            ),
            # within one utterance, a fault of the arcs' form comes first
            (
                [[[["a", 1.5]], [["b", "0.5"]]]],
                "arc prob for 'b' in 'b' is not a number",
            ),
        ],
    )
    def test_a_document_at_fault_twice_names_the_first(self, tmp_path, utterances, message):
        good = {"id": "a", "kind": "speech", "utterances": [[[["a", 1.0]]]]}
        bad = {"id": "b", "kind": "speech", "utterances": utterances}
        later = {"id": "c", "kind": "speech", "utterances": [[[["a", 2.0]]]]}
        path = write_corpus(tmp_path / "corpus.jsonl", [good, bad, later])
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_by_line_first(self, tmp_path):
        objs = [
            {"id": "a", "kind": "speech", "utterances": [[[["a", 1.0]]], [[["b", 0.0]]]]},
            {"id": "b", "kind": "speech", "utterances": [[[["a", 2.0]]]]},
        ]
        path = write_corpus(tmp_path / "corpus.jsonl", objs)
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == (
            f"{path}:1: utterance 1 of 'a': confusion network slot 0 arc prob 0.0"
            " outside (0, 1]"
        )


class TestLoadCorpusPausesTheCollector:
    GOOD = {"id": "d", "kind": "speech", "utterances": [[[["a", 1.0]]]]}
    BAD = {"id": "d", "kind": "speech", "utterances": [[[["a b", 1.0]]]]}

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("bad", [False, True], ids=["loads", "raises"])
    def test_paused_while_parsing_and_restored(self, tmp_path, monkeypatch, enabled, bad):
        seen = []
        build = corpus_module._document_from_json

        def recording(*args):
            seen.append(gc.isenabled())
            return build(*args)

        monkeypatch.setattr(corpus_module, "_document_from_json", recording)
        objs = [self.GOOD, self.BAD] if bad else [self.GOOD]
        path = write_corpus(tmp_path / "corpus.jsonl", objs)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if bad:
                with pytest.raises(DataError, match="exactly one token"):
                    load_corpus(path)
            else:
                load_corpus(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False] * len(objs)


class TestAtomicOutput:
    """A writer that fails part way leaves the earlier file and no temp file."""

    @staticmethod
    def _then_fail(*items):
        yield from items
        raise RuntimeError("writer failed")

    @pytest.mark.parametrize("writer", [
        "save_run", "save_cutoffs", "save_returned_sets",
        "save_corpus", "save_bitext", "save_queries",
    ])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, writer):
        path = tmp_path / "out.tsv"
        path.write_text("earlier\n", encoding="utf-8")
        fail = self._then_fail
        write = {
            "save_run": lambda: save_run(fail(RankedList("q1", (("d1", 0.5),))), path),
            "save_cutoffs": lambda: save_cutoffs(
                fail(CutoffDecision("q1", 1, 0.25, 1.0)), path
            ),
            "save_returned_sets": lambda: save_returned_sets(
                {"q1": ["d1"], "q2": fail("d2")}, path
            ),
            "save_corpus": lambda: save_corpus(
                fail(Document("d1", "text", sentences=(("w",),))), path
            ),
            "save_bitext": lambda: save_bitext(fail((("f",), ("e",))), path),
            "save_queries": lambda: save_queries(fail(parse_query("q1\tw")), path),
        }[writer]
        with pytest.raises(RuntimeError, match="writer failed"):
            write()
        assert path.read_text(encoding="utf-8") == "earlier\n"
        assert os.listdir(tmp_path) == ["out.tsv"]

    def test_successful_write_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "sets.tsv"
        path.write_text("earlier\n", encoding="utf-8")
        save_returned_sets({"q1": ["d1", "d2"]}, path)
        assert path.read_text(encoding="utf-8") == "q1\td1\nq1\td2\n"
        assert os.listdir(tmp_path) == ["sets.tsv"]


class TestTranslationTableIO:
    def test_load(self, tmp_path):
        path = tmp_path / "tt.tsv"
        path.write_text("f1\te1\t0.6\nf2\te1\t0.4\nf2\te2\t0.5\n")
        table = load_translation_table(path)
        assert table.source_tag == "tt"
        assert table.entries == {"f1": {"e1": 0.6}, "f2": {"e1": 0.4, "e2": 0.5}}

    def test_prob_above_one_rejected(self, tmp_path):
        path = tmp_path / "tt.tsv"
        path.write_text("f\te\t1.5\n")
        with pytest.raises(DataError, match=r"tt\.tsv:1.*outside"):
            load_translation_table(path)

    def test_row_sum_above_one_rejected(self, tmp_path):
        path = tmp_path / "tt.tsv"
        path.write_text("f\te1\t0.8\nf\te2\t0.3\n")
        with pytest.raises(DataError) as raised:
            load_translation_table(path)
        assert str(raised.value) == (
            f"{path}: translation probs for 'f' sum to {0.8 + 0.3!r} > 1"
        )

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "tt.tsv"
        path.write_text("f\te\t0.2\nf\te\t0.3\n")
        with pytest.raises(DataError, match="duplicate"):
            load_translation_table(path)

    def test_round_trip(self, tmp_path):
        table = TranslationTable({"fa": {"en": 0.25, "on": 0.5}}, "x")
        path = tmp_path / "x.tsv"
        save_translation_table(table, path)
        assert load_translation_table(path) == table

    def test_construction_validates(self):
        with pytest.raises(DataError, match="outside"):
            TranslationTable({"f": {"e": 0.0}}, "t")


class TestBitextIO:
    def test_round_trip(self, tmp_path):
        bitext = Bitext(((("fa", "fo"), ("en", "to")), (("zu",), ("it",))))
        path = tmp_path / "b.tsv"
        save_bitext(bitext, path)
        assert load_bitext(path) == bitext

    def test_empty_side_rejected(self, tmp_path):
        path = tmp_path / "b.tsv"
        path.write_text("fa fo\t...\n")
        with pytest.raises(DataError, match="no tokens"):
            load_bitext(path)

    def test_pseudo_corpus_addressing(self):
        bitext = Bitext(((("fa",), ("en",)), (("zu", "ba"), ("it", "my"))))
        corpus = bitext_corpus(bitext)
        assert bitext_doc_id(1) == "bt000001"
        assert corpus["bt000001"].sentences == (("zu", "ba"),)
        assert corpus.segment_keys == (("bt000000", 0), ("bt000001", 0))


class TestSegmentKeys:
    def test_every_segment_in_corpus_order(self):
        network = from_slots(((("a", 1.0),),))
        corpus = Corpus.from_documents([
            Document(id="z", kind="text", sentences=(("a",), ("b",))),
            Document(id="s", kind="speech", utterances=(network,) * 3),
            Document(id="a", kind="text", sentences=(("c",),)),
            Document(id="m", kind="speech", utterances=(network,)),
        ])
        assert corpus.segment_keys == (
            ("z", 0), ("z", 1), ("s", 0), ("s", 1), ("s", 2), ("a", 0), ("m", 0)
        )
        assert corpus.segment_keys is corpus.segment_keys

    def test_bitext_corpus_keys_one_segment_per_pair(self):
        bitext = Bitext(tuple(((f"f{i}",), ("e",)) for i in range(5)))
        keys = bitext_corpus(bitext).segment_keys
        assert keys == tuple((bitext_doc_id(i), 0) for i in range(5))


class TestQueryAndJudgmentIO:
    def test_query_round_trip(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text(
            "Q1\tscientific research, vaccination\nQ2\tsafari+\nQ3\tEXAMPLE_OF(virus)\n"
        )
        queries = load_queries(path)
        rendered = [format_query(q) for q in queries]
        assert rendered == [
            "Q1\tscientific research, vaccination",
            "Q2\tsafari+",
            "Q3\tEXAMPLE_OF(virus)",
        ]
        out = tmp_path / "q2.tsv"
        save_queries(queries, out)
        assert load_queries(out) == queries

    @pytest.mark.parametrize("query_id", ["q 1", "q\x0b1", "q\u30001"])
    def test_query_id_with_whitespace_rejected(self, tmp_path, query_id):
        path = tmp_path / "q.tsv"
        path.write_text(f"q0\tvirus\n{query_id}\tvirus\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            load_queries(path)
        assert str(raised.value) == f"{path}:2: query id {query_id!r} holds whitespace"

    @pytest.mark.parametrize(
        "line, what, value",
        [("q 1\td1", "query", "q 1"), ("q1\td 1", "document", "d 1"),
         ("q1\td\u20031", "document", "d\u20031")],
    )
    def test_judgment_id_with_whitespace_rejected(self, tmp_path, line, what, value):
        path = tmp_path / "j.tsv"
        path.write_text(f"q0\td0\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            load_judgments(path)
        assert str(raised.value) == f"{path}:2: {what} id {value!r} holds whitespace"

    def test_duplicate_query_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("Q1\ta\nQ1\tb\n")
        with pytest.raises(DataError, match="duplicate query id"):
            load_queries(path)

    def test_judgments_round_trip_and_validation(self, tmp_path):
        judgments = Judgments({"q1": frozenset({"d1", "d2"}), "q2": frozenset({"d1"})})
        path = tmp_path / "j.tsv"
        save_judgments(judgments, path)
        corpus = Corpus.from_documents(
            [
                Document(id="d1", kind="text", sentences=(("a",),)),
                Document(id="d2", kind="text", sentences=(("b",),)),
            ]
        )
        assert load_judgments(path, corpus) == judgments
        assert judgments.for_query("missing") == frozenset()

    def test_judgments_unknown_doc(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q1\tghost\n")
        corpus = Corpus.from_documents(
            [Document(id="d1", kind="text", sentences=(("a",),))]
        )
        with pytest.raises(DataError) as raised:
            load_judgments(path, corpus)
        assert str(raised.value) == f"{path}:1: document 'ghost' is not in the corpus"
