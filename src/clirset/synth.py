"""Synthetic corpora with planted relevance for end-to-end checks.

The generator builds a bijective foreign/English dictionary of pseudo
words, samples foreign documents with Zipf(1.0) token frequencies, and
plants relevance: each query draws its words from a reserved slice of the
vocabulary that never occurs in random text, and every planted-relevant
document gets the foreign translation-equivalents of all the query's
phrase words spliced into one sentence. The judgments mark exactly the
planted documents, so with a noise-free translation table the whole
pipeline should reconstruct them perfectly.

Noise enters in three places, all controlled by one rate: the "aligner"
table keeps 1 - noise on the true translation and spreads the rest over
a long tail of junk entries, speech confusion networks give the true
token 1 - noise (padding slots with decoy arcs up to the configured
depth), and two synthetic MT systems corrupt words at their own
independent error rates. No noise channel may draw from the
reserved query vocabulary on either side of the dictionary: corrupted
entries, decoy arcs, and MT errors all avoid it, so the planted
judgments stay the unique source of relevance and every false alarm the
evaluator counts really is false.

The bitext carries three strata: random dictionary-translated sentence
pairs, one contextual pair per query word, and a single-token lexicon
covering the whole dictionary (as real parallel-data releases do), so
trainable models see every word at least once.

Every random draw comes from streams derived from the single seed, keyed
by purpose, so e.g. regenerating with a different speech fraction leaves
document content untouched. Same spec, same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (
    SPEECH,
    TEXT,
    Bitext,
    ConfusionNetwork,
    Corpus,
    Document,
    Judgments,
    Query,
    Sentence,
    TranslationTable,
    bitext_doc_id,
    save_bitext,
    save_corpus,
    save_judgments,
    save_queries,
    save_translation_table,
)
from .errors import DataError
from .evidence.ensemble import MtHypothesisSet, save_mt_hypotheses

_ENGLISH_CONSONANTS = "bdklmnprst"
_FOREIGN_CONSONANTS = "fgvzchwj"
_VOWELS = "aeiou"

TABLE_TAG = "table"

CORPUS_FILE = "corpus.jsonl"
BITEXT_FILE = "bitext.tsv"
TABLE_FILE = "table.tsv"
MT_HYPS_FILE = "mt_hyps.tsv"
QUERIES_FILE = "queries.tsv"
JUDGMENTS_FILE = "judgments.tsv"


# Fixed shape of every synthetic world: words per sentence, phrases per
# query and words per phrase (inclusive ranges), and each MT system's
# error rate, one system per rate.
SENTENCE_LEN = (4, 12)
PHRASES_PER_QUERY = (1, 2)
PHRASE_LEN = (1, 2)
MT_ERROR_RATES = (0.1, 0.3)
# Sparse: a beta of 40 prices false alarms for collections where relevant
# documents are rare, so the planted world matches.
RELEVANCE_RATE = 0.02


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for one synthetic dataset; every field has a sane default."""

    seed: int = 0
    foreign_vocab: int = 300
    english_vocab: int = 300
    noise: float = 0.0
    docs: int = 200
    sentences_per_doc: tuple[int, int] = (3, 8)
    queries: int = 20
    speech_fraction: float = 0.0
    confusion_depth: int = 1
    bitext_pairs: int = 300

    def __post_init__(self) -> None:
        for name in ("foreign_vocab", "english_vocab", "docs", "queries",
                     "bitext_pairs"):
            if getattr(self, name) < 1:
                raise DataError(f"synth {name} must be positive")
        lo, hi = self.sentences_per_doc
        if lo < 1 or hi < lo:
            raise DataError(f"synth sentences_per_doc range ({lo}, {hi}) is invalid")
        for name in ("noise", "speech_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DataError(f"synth {name} {value!r} outside [0, 1]")
        if self.noise >= 1.0:
            raise DataError("synth noise must be < 1")
        if self.confusion_depth < 1:
            raise DataError("synth confusion_depth must be >= 1")


@dataclass(frozen=True)
class SynthDataset:
    corpus: Corpus
    bitext: Bitext
    table: TranslationTable
    hypotheses: MtHypothesisSet
    queries: tuple[Query, ...]
    judgments: Judgments
    dictionary: dict[str, str]  # true foreign -> English mapping, for tests


def _stream(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}/{purpose}")


def _pseudo_words(rng: random.Random, count: int, consonants: str) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        syllables = rng.randint(2, 4)
        word = "".join(
            rng.choice(consonants) + rng.choice(_VOWELS) for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_weights(count: int) -> list[float]:
    return [1.0 / (rank + 1.0) for rank in range(count)]


def generate(spec: SynthSpec) -> SynthDataset:
    """Deterministically expand a spec into a full dataset."""
    rng_vocab = _stream(spec.seed, "vocab")
    english = _pseudo_words(rng_vocab, spec.english_vocab, _ENGLISH_CONSONANTS)
    foreign = _pseudo_words(rng_vocab, spec.foreign_vocab, _FOREIGN_CONSONANTS)
    n_dict = min(len(english), len(foreign))
    permutation = list(range(n_dict))
    rng_vocab.shuffle(permutation)
    dictionary = {foreign[i]: english[permutation[i]] for i in range(n_dict)}

    queries, reserved = _make_queries(spec, foreign, dictionary, n_dict)

    pool = [foreign[i] for i in range(n_dict) if dictionary[foreign[i]] not in reserved]
    if len(pool) < 10:
        raise DataError(
            "synth queries reserve nearly the whole dictionary; grow the"
            " vocabularies or shrink the query set"
        )
    pool_weights = _zipf_weights(len(pool))

    rng_text = _stream(spec.seed, "text")
    doc_sentences: list[list[list[str]]] = []
    for _ in range(spec.docs):
        n_sent = rng_text.randint(*spec.sentences_per_doc)
        sentences = []
        for _ in range(n_sent):
            length = rng_text.randint(*SENTENCE_LEN)
            sentences.append(rng_text.choices(pool, pool_weights, k=length))
        doc_sentences.append(sentences)
    doc_ids = [f"d{i:04d}" for i in range(spec.docs)]

    reverse = {e: f for f, e in dictionary.items()}
    judgments = _plant_relevance(spec, queries, doc_sentences, reverse)

    corpus = _wrap_documents(spec, doc_ids, doc_sentences, pool)
    bitext = _make_bitext(spec, foreign, dictionary, n_dict, reserved, reverse,
                          pool, pool_weights)
    table = _make_table(spec, english, dictionary, reserved)
    hypotheses = _make_hypotheses(spec, english, dictionary, reserved, doc_ids,
                                  doc_sentences, bitext)

    gold = {
        queries[q].id: frozenset(doc_ids[d] for d in docs)
        for q, docs in judgments.items()
    }
    return SynthDataset(
        corpus=corpus,
        bitext=bitext,
        table=table,
        hypotheses=hypotheses,
        queries=tuple(queries),
        judgments=Judgments(gold),
        dictionary=dict(dictionary),
    )


def _make_queries(spec, foreign, dictionary, n_dict):
    """Draw query phrases from a reserved slice of the dictionary."""
    rng = _stream(spec.seed, "queries")
    shapes = []
    total_words = 0
    for _ in range(spec.queries):
        lens = [
            rng.randint(*PHRASE_LEN)
            for _ in range(rng.randint(*PHRASES_PER_QUERY))
        ]
        shapes.append(lens)
        total_words += sum(lens)
    if total_words > n_dict // 2:
        raise DataError(
            f"synth queries need {total_words} reserved words but the"
            f" dictionary has only {n_dict}; grow the vocabularies"
        )
    english_words = [dictionary[f] for f in foreign[:n_dict]]
    chosen = rng.sample(english_words, total_words)
    reserved = set(chosen)
    queries = []
    cursor = 0
    for i, lens in enumerate(shapes):
        phrases = []
        for length in lens:
            phrases.append(tuple(chosen[cursor : cursor + length]))
            cursor += length
        queries.append(Query(f"q{i:03d}", "lexical", tuple(phrases)))
    return queries, reserved


def _plant_relevance(spec, queries, doc_sentences, reverse):
    """Splice each query's foreign equivalents into its relevant docs.

    Every relevant document gets the full word set spliced into two or
    three sentences, the way real relevant documents repeat their topic:
    the repetition is what lets attenuated per-sentence evidence
    aggregate into a confident document-level probability.
    """
    rng = _stream(spec.seed, "plant")
    judgments: dict[int, set[int]] = {}
    for q, query in enumerate(queries):
        relevant = {d for d in range(spec.docs) if rng.random() < RELEVANCE_RATE}
        if not relevant:
            relevant = {rng.randrange(spec.docs)}
        judgments[q] = relevant
        foreign_words = [
            reverse[word] for phrase in query.phrases for word in phrase
        ]
        for d in sorted(relevant):
            sentences = doc_sentences[d]
            mentions = min(rng.randint(2, 3), len(sentences))
            for target in rng.sample(range(len(sentences)), mentions):
                position = rng.randrange(len(sentences[target]) + 1)
                sentences[target][position:position] = foreign_words
    return judgments


def _wrap_documents(spec, doc_ids, doc_sentences, decoy_pool):
    """Assign document kinds and wrap speech docs into confusion networks."""
    rng_kind = _stream(spec.seed, "kind")
    rng_speech = _stream(spec.seed, "speech")
    if spec.speech_fraction > 0.0 and spec.confusion_depth > 1:
        if len(decoy_pool) < spec.confusion_depth:
            raise DataError(
                "synth confusion depth needs more non-query foreign words"
                " than the vocabulary leaves free"
            )
    docs = []
    for doc_id, sentences in zip(doc_ids, doc_sentences):
        is_speech = rng_kind.random() < spec.speech_fraction
        if not is_speech:
            docs.append(
                Document(
                    id=doc_id,
                    kind=TEXT,
                    sentences=tuple(tuple(s) for s in sentences),
                )
            )
            continue
        utterances = []
        for sentence in sentences:
            tokens, probs, ends = [], [], []
            for token in sentence:
                tokens.append(token)
                probs.append(1.0 - spec.noise)
                # With no decoy mass the slot is just the true token;
                # zero-probability arcs are not representable.
                if spec.noise != 0.0 and spec.confusion_depth != 1:
                    decoys = []
                    while len(decoys) < spec.confusion_depth - 1:
                        decoy = rng_speech.choice(decoy_pool)
                        if decoy != token and decoy not in decoys:
                            decoys.append(decoy)
                    tokens.extend(decoys)
                    probs.extend([spec.noise / len(decoys)] * len(decoys))
                ends.append(len(tokens))
            utterances.append(
                ConfusionNetwork(tuple(tokens), np.array(probs), tuple(ends))
            )
        docs.append(Document(id=doc_id, kind=SPEECH, utterances=tuple(utterances)))
    return Corpus.from_documents(docs)


def _make_bitext(spec, foreign, dictionary, n_dict, reserved, reverse, pool,
                 pool_weights):
    """Random dictionary-translated pairs, query coverage, and a lexicon.

    The tail of the bitext is a one-entry-per-word bilingual lexicon, the
    way real parallel-data releases bundle one: it guarantees every
    vocabulary item (query words included) at least one clean, isolated
    training example, which sentence pairs alone cannot promise for rare
    words.
    """
    rng = _stream(spec.seed, "bitext")
    all_foreign = foreign[:n_dict]
    all_weights = _zipf_weights(n_dict)
    pairs = []
    for _ in range(spec.bitext_pairs):
        length = rng.randint(*SENTENCE_LEN)
        src = rng.choices(all_foreign, all_weights, k=length)
        pairs.append((tuple(src), tuple(dictionary[f] for f in src)))
    # Guarantee every reserved query word shows up in running training text.
    for word in sorted(reserved):
        src = rng.choices(pool, pool_weights, k=3) + [reverse[word]]
        rng.shuffle(src)
        pairs.append((tuple(src), tuple(dictionary[f] for f in src)))
    for f in sorted(all_foreign):
        pairs.append(((f,), (dictionary[f],)))
    return Bitext(tuple(pairs))


_TABLE_TAIL_ENTRIES = 20


def _make_table(spec, english, dictionary, reserved):
    """The true dictionary, perturbed by the noise rate.

    Each noisy row keeps 1 - noise on the true translation and spreads
    the rest over a long tail of tiny junk entries, the density real
    aligner tables have. Junk never lands on the reserved query
    vocabulary, so the noise attenuates true evidence and pads rows with
    plausible-looking garbage but cannot invent relevance that the
    judgments do not know about.
    """
    rng = _stream(spec.seed, "table")
    targets = [e for e in english if e not in reserved]
    tail_size = min(_TABLE_TAIL_ENTRIES, max(2, (len(targets) - 1) // 2))
    entries: dict[str, dict[str, float]] = {}
    for f in sorted(dictionary):
        true_e = dictionary[f]
        if spec.noise == 0.0:
            entries[f] = {true_e: 1.0}
            continue
        tail: list[str] = []
        while len(tail) < tail_size:
            decoy = rng.choice(targets)
            if decoy != true_e and decoy not in tail:
                tail.append(decoy)
        row = {true_e: 1.0 - spec.noise}
        for decoy in tail:
            row[decoy] = spec.noise / tail_size
        entries[f] = row
    return TranslationTable(entries, TABLE_TAG)


def _make_hypotheses(spec, english, dictionary, reserved, doc_ids,
                     doc_sentences, bitext):
    """Word-for-word MT output, independently corrupted per system."""
    rng = _stream(spec.seed, "mt")
    systems = tuple(f"mt{k + 1}" for k in range(len(MT_ERROR_RATES)))
    error_pool = [e for e in english if e not in reserved]
    hypotheses: dict[str, dict[tuple[str, int], Sentence]] = {}
    for system, rate in zip(systems, MT_ERROR_RATES):
        per_system: dict[tuple[str, int], Sentence] = {}

        def translate(sentence):
            out = []
            for token in sentence:
                word = dictionary[token]
                if rate > 0.0 and rng.random() < rate:
                    word = rng.choice(error_pool)
                out.append(word)
            return tuple(out)

        for doc_id, sentences in zip(doc_ids, doc_sentences):
            for index, sentence in enumerate(sentences):
                per_system[(doc_id, index)] = translate(sentence)
        for i, (src, _) in enumerate(bitext):
            per_system[(bitext_doc_id(i), 0)] = translate(src)
        hypotheses[system] = per_system
    return MtHypothesisSet(systems, hypotheses)


def write_dataset(dataset: SynthDataset, outdir) -> dict[str, Path]:
    """Write every artifact under `outdir`; returns the path map."""
    outdir = Path(outdir)
    paths = {
        "corpus": outdir / CORPUS_FILE,
        "bitext": outdir / BITEXT_FILE,
        "table": outdir / TABLE_FILE,
        "mt_hyps": outdir / MT_HYPS_FILE,
        "queries": outdir / QUERIES_FILE,
        "judgments": outdir / JUDGMENTS_FILE,
    }
    save_corpus(dataset.corpus, paths["corpus"])
    save_bitext(dataset.bitext, paths["bitext"])
    save_translation_table(dataset.table, paths["table"])
    save_mt_hypotheses(dataset.hypotheses, paths["mt_hyps"])
    save_queries(dataset.queries, paths["queries"])
    save_judgments(dataset.judgments, paths["judgments"])
    return paths
