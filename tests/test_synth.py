"""Synthetic dataset generator: determinism, planted structure, validity."""

import pytest
from corpus_helpers import query_words

from clirset.corpus import (
    LEXICAL,
    load_bitext,
    load_corpus,
    load_judgments,
    load_queries,
    load_translation_table,
)
from clirset.errors import DataError
from clirset.evidence import TranslationTableGenerator, build_evidence, load_mt_hypotheses
from clirset.relevance import rank
from clirset.synth import SynthSpec, generate, write_dataset

SMALL = SynthSpec(
    seed=11,
    foreign_vocab=60,
    english_vocab=60,
    docs=30,
    queries=5,
    bitext_pairs=60,
)


class TestDeterminism:
    def test_same_spec_same_dataset(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.corpus == b.corpus
        assert a.bitext == b.bitext
        assert a.table == b.table
        assert a.queries == b.queries
        assert a.judgments == b.judgments
        assert a.hypotheses == b.hypotheses

    def test_write_is_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        write_dataset(generate(SMALL), d1)
        write_dataset(generate(SMALL), d2)
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_changes_content(self):
        other = generate(SynthSpec(**{**SMALL.__dict__, "seed": 12}))
        assert other.corpus != generate(SMALL).corpus

    def test_speech_fraction_leaves_content_alone(self):
        text = generate(SMALL)
        spec = SynthSpec(**{**SMALL.__dict__, "speech_fraction": 1.0})
        speech = generate(spec)
        assert speech.queries == text.queries
        assert speech.judgments == text.judgments
        assert speech.bitext == text.bitext
        # with zero noise the one-best path is the original sentence
        for doc_id, doc in text.corpus.documents.items():
            spoken = speech.corpus.documents[doc_id]
            assert spoken.kind == "speech"
            best = tuple(cn.one_best() for cn in spoken.utterances)
            assert best == doc.sentences


class TestPlantedStructure:
    def test_every_query_has_a_relevant_doc(self):
        data = generate(SMALL)
        for query in data.queries:
            assert data.judgments.for_query(query.id)

    def test_planted_docs_contain_all_query_words(self):
        data = generate(SMALL)
        back = {eng: fr for fr, eng in data.dictionary.items()}
        for query in data.queries:
            needed = {back[w] for w in query_words(query)}
            for doc_id in data.judgments.for_query(query.id):
                doc = data.corpus.documents[doc_id]
                assert any(
                    needed <= set(sentence) for sentence in doc.segments
                ), f"{doc_id} lacks a sentence covering {query.id}"

    def test_reserved_words_never_leak_into_noise_docs(self):
        data = generate(SMALL)
        back = {eng: fr for fr, eng in data.dictionary.items()}
        reserved = {back[w] for q in data.queries for w in query_words(q)}
        for query in data.queries:
            relevant = data.judgments.for_query(query.id)
            needed = {back[w] for w in query_words(query)}
            for doc_id, doc in data.corpus.documents.items():
                if doc_id in relevant:
                    continue
                for sentence in doc.segments:
                    assert not (needed <= set(sentence) and needed), (
                        f"unplanted {doc_id} contains all of {query.id}"
                    )
        # stronger: reserved vocabulary only ever appears in planted docs
        planted = {d for q in data.queries for d in data.judgments.for_query(q.id)}
        for doc_id, doc in data.corpus.documents.items():
            if doc_id in planted:
                continue
            for sentence in doc.segments:
                assert reserved.isdisjoint(sentence)

    def test_noise_free_table_ranks_planted_docs_first(self):
        data = generate(SMALL)
        gen = TranslationTableGenerator(data.table)
        matrix = build_evidence(gen, data.corpus, data.queries)
        for query in data.queries:
            if query.kind != LEXICAL:
                continue
            gold = data.judgments.for_query(query.id)
            ranked = rank(matrix, data.corpus, query)
            top = set(ranked.doc_ids()[: len(gold)])
            assert top == set(gold)

    def test_bitext_covers_query_vocabulary(self):
        data = generate(SMALL)
        seen = {w for _, tgt in data.bitext for w in tgt}
        for query in data.queries:
            for word in query_words(query):
                assert word in seen


class TestArtifactValidity:
    def test_written_files_load_cleanly(self, tmp_path):
        spec = SynthSpec(**{**SMALL.__dict__, "speech_fraction": 0.5, "noise": 0.2,
                            "confusion_depth": 3})
        write_dataset(generate(spec), tmp_path)
        corpus = load_corpus(tmp_path / "corpus.jsonl")
        assert len(corpus) == spec.docs
        assert load_bitext(tmp_path / "bitext.tsv")
        table = load_translation_table(tmp_path / "table.tsv")
        assert table.source_tag == "table"
        queries = load_queries(tmp_path / "queries.tsv")
        assert len(queries) == spec.queries
        judgments = load_judgments(tmp_path / "judgments.tsv")
        judgments.validate_against(corpus)
        hyps = load_mt_hypotheses(tmp_path / "mt_hyps.tsv")
        assert hyps.systems == ("mt1", "mt2")

    def test_hypotheses_cover_corpus_and_bitext(self):
        data = generate(SMALL)
        for system in data.hypotheses.systems:
            keys = data.hypotheses.hypotheses[system]
            for doc_id, doc in data.corpus.documents.items():
                for index in range(len(doc)):
                    assert (doc_id, index) in keys
            for i in range(len(data.bitext)):
                assert (f"bt{i:06d}", 0) in keys

    def test_noisy_table_attenuates_truth_and_junk_avoids_query_words(self):
        spec = SynthSpec(**{**SMALL.__dict__, "noise": 0.3})
        data = generate(spec)
        reserved = {w for q in data.queries for w in query_words(q)}
        for foreign, row in data.table.entries.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
            true_e = data.dictionary[foreign]
            assert row[true_e] == pytest.approx(0.7)
            junk = {t: p for t, p in row.items() if t != true_e}
            assert len(junk) >= 10, "noisy rows should carry a junk tail"
            for target, prob in junk.items():
                assert prob == pytest.approx(0.3 / len(junk))
                assert target not in reserved

    def test_confusion_decoy_arcs_avoid_query_vocabulary(self):
        spec = SynthSpec(**{**SMALL.__dict__, "noise": 0.3,
                            "speech_fraction": 1.0, "confusion_depth": 3})
        data = generate(spec)
        back = {e: f for f, e in data.dictionary.items()}
        reserved = {back[w] for q in data.queries for w in query_words(q)}
        seen_reserved = 0
        for doc in data.corpus.documents.values():
            for network in doc.utterances:
                for slot in network.slots:
                    for token, prob in slot:
                        if token in reserved:
                            # only as the true (planted) token, never a decoy
                            assert prob == pytest.approx(0.7)
                            seen_reserved += 1
        assert seen_reserved > 0, "no planted word reached a confusion slot"

    def test_mt_errors_avoid_query_vocabulary(self):
        spec = SynthSpec(**{**SMALL.__dict__, "noise": 0.3})
        data = generate(spec)
        reserved = {w for q in data.queries for w in query_words(q)}
        planted = {d for q in data.queries for d in data.judgments.for_query(q.id)}
        leaked = [
            (doc_id, index)
            for system in data.hypotheses.systems
            for (doc_id, index), sentence in data.hypotheses.hypotheses[system].items()
            if doc_id not in planted and not doc_id.startswith("bt")
            and reserved & set(sentence)
        ]
        assert leaked == [], f"query words surfaced in unplanted docs: {leaked[:5]}"


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"docs": 0},
        {"noise": 1.5},
        {"noise": -0.1},
        {"confusion_depth": 0},
        {"sentences_per_doc": (5, 3)},
        {"sentences_per_doc": (0, 3)},
        {"speech_fraction": 2.0},
        {"noise": 1.0},
    ])
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(DataError):
            SynthSpec(**{**SMALL.__dict__, **kwargs})
