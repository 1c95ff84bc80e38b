"""Relevance algebra: sentence evidence -> calibrated query/document scores.

Under the independence reading, a phrase is relevant to a sentence iff all
its words are (product), relevant to a document iff at least one sentence
is (union: one minus the product of complements), and a query is relevant
to a document iff all its phrases are (product). All accumulation happens
in log space. The union is nudged by one float step into the open unit
interval: several sentences near the evidence ceiling would otherwise
round it to exactly 1.0 (and a long all-floor phrase could underflow it
to 0.0), while downstream odds p / (1 - p) need every probability
strictly inside (0, 1). One ulp is far below every other tolerance in
the pipeline, so the algebra still matches direct evaluation.

Ranked lists persist in run-file form, one line per document:
    query-id doc-id rank prob clirset
ordered by descending probability with ties broken by ascending doc id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .corpus import LEXICAL, Corpus, Document, Query, QueryPhrase
from .errors import DataError, UnsupportedQueryError
from .evidence.matrix import EvidenceMatrix

# Tightest representable bounds of the open unit interval.
_BELOW_ONE = math.nextafter(1.0, 0.0)
_ABOVE_ZERO = math.nextafter(0.0, 1.0)


def _open_unit(p: float) -> float:
    """Nudge a rounded/underflowed probability back inside (0, 1)."""
    return min(max(p, _ABOVE_ZERO), _BELOW_ONE)


@dataclass(frozen=True)
class RankedList:
    """All corpus documents ordered by relevance to one query."""

    query_id: str
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for (_, a), (_, b) in zip(self.entries, self.entries[1:]):
            if b > a:
                raise DataError(
                    f"ranked list for {self.query_id!r} is not sorted"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def probs(self) -> list[float]:
        return [prob for _, prob in self.entries]

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]


def _log_phrase_doc(
    evidence: EvidenceMatrix, doc: Document, phrase: QueryPhrase
) -> float:
    rows = evidence.cells.get(doc.id, {})
    epsilon = evidence.epsilon
    log_miss = 0.0  # log prod (1 - p_s)
    for index in range(len(doc)):
        row = rows.get(index, {})
        log_p = sum(math.log(row.get(word, epsilon)) for word in phrase)
        log_miss += math.log1p(-math.exp(log_p))
    # -expm1 keeps precision when the union is tiny; the one-ulp nudge
    # keeps it inside (0, 1) when rounding would reach an endpoint
    return math.log(_open_unit(-math.expm1(log_miss)))


def query_doc_rel(evidence: EvidenceMatrix, doc: Document, query: Query) -> float:
    """Product over the query's phrases of their document relevance."""
    if query.kind != LEXICAL:
        raise UnsupportedQueryError(
            f"query {query.id!r} has kind {query.kind!r}; only lexical"
            " queries are retrievable"
        )
    return _open_unit(
        math.exp(
            sum(_log_phrase_doc(evidence, doc, phrase) for phrase in query.phrases)
        )
    )


def rank(evidence: EvidenceMatrix, corpus: Corpus, query: Query) -> RankedList:
    """Score every document and sort, ties broken by ascending doc id."""
    if len(corpus) == 0:
        raise DataError("cannot rank over an empty corpus")
    scored = [(doc.id, query_doc_rel(evidence, doc, query)) for doc in corpus]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return RankedList(query.id, tuple(scored))


def save_run(ranked_lists, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for ranked in ranked_lists:
            for position, (doc_id, prob) in enumerate(ranked.entries, 1):
                out.write(
                    f"{ranked.query_id} {doc_id} {position} {prob!r} clirset\n"
                )
