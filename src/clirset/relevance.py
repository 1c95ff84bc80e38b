"""Relevance algebra: sentence evidence -> query/document probabilities.

The cutoff rule downstream assumes these probabilities are calibrated;
they are not yet (calibration on held-out bitext is ROADMAP item 4).

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
from itertools import count
from operator import itemgetter, lt, ne

import numpy as np

from .corpus import LEXICAL, Corpus, Query, atomic_output
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
        probs = self.probs()
        # unsorted: some adjacent pair (a, b) has b > a; comparisons with NaN are false
        if any(map(lt, probs, probs[1:])):
            raise DataError(f"ranked list for {self.query_id!r} is not sorted")

    def __len__(self) -> int:
        return len(self.entries)

    def probs(self) -> list[float]:
        return list(map(itemgetter(1), self.entries))

    def doc_ids(self) -> list[str]:
        return list(map(itemgetter(0), self.entries))


def _per_value(f, x: np.ndarray) -> np.ndarray:
    """The scalar math function f at every element of x, called once per distinct value.

    numpy's own log and exp round differently from the math module on
    some inputs, so the math functions stay, and run once per value.
    """
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([f(v) for v in values.tolist()], dtype=float)[inverse]


def _log_miss(log_p: float) -> float:
    """log(1 - p) for a segment whose phrase relevance is exp(log_p)."""
    return math.log1p(-math.exp(log_p))


def _log_union(log_miss: float) -> float:
    # -expm1 keeps precision when the union is tiny; the one-ulp nudge
    # keeps it inside (0, 1) when rounding would reach an endpoint
    return math.log(_open_unit(-math.expm1(log_miss)))


def _prob(log_rel: float) -> float:
    return _open_unit(math.exp(log_rel))


def _query_doc_rels(evidence: EvidenceMatrix, corpus: Corpus, query: Query) -> np.ndarray:
    """p(query relevant | doc) for each document, in corpus order.

    The work is done on columns over the corpus's segments, with the same
    float operations in the same order as a loop over one segment at a
    time: a phrase's log relevance in a segment adds its words' logs from
    0, in phrase order; a document's log miss adds its segments'
    log(1 - p) from 0.0, in segment order; the query adds its phrases'
    logs from 0.
    """
    if query.kind != LEXICAL:
        raise UnsupportedQueryError(
            f"query {query.id!r} has kind {query.kind!r}; only lexical"
            " queries are retrievable"
        )
    positions = corpus.segment_positions
    words = dict.fromkeys(word for phrase in query.phrases for word in phrase)
    cells = evidence.cells_at(positions, words)
    background_log = math.log(evidence.background)
    logs = {}
    for word, (at, values) in cells.items():
        logs[word] = np.full(len(positions), background_log)
        logs[word][at] = _per_value(math.log, values)
    phrase_logs = []
    for phrase in query.phrases:
        log_p = sum(logs[word] for word in phrase)
        # Every segment where no word of the phrase holds a cell has the
        # same log_p: the background's log added once per word.
        held = np.zeros(len(positions), dtype=bool)
        for word in phrase:
            held[cells[word][0]] = True
        all_background = _log_miss(sum(background_log for _ in phrase))
        log_miss_by_segment = np.full(len(positions), all_background)
        log_miss_by_segment[held] = _per_value(_log_miss, log_p[held])
        log_miss = np.zeros(len(corpus))  # in by_length order
        for segments in corpus.segment_slots:
            log_miss[: len(segments)] += log_miss_by_segment[segments]
        in_order = np.empty(len(corpus))
        in_order[corpus.by_length] = log_miss
        phrase_logs.append(_per_value(_log_union, in_order))
    return _per_value(_prob, sum(phrase_logs))


def rank(evidence: EvidenceMatrix, corpus: Corpus, query: Query) -> RankedList:
    """Score every document and sort, ties broken by ascending doc id."""
    if len(corpus) == 0:
        raise DataError("cannot rank over an empty corpus")
    probs = _query_doc_rels(evidence, corpus, query)
    ids = list(corpus.documents)
    by_id = corpus.by_id
    order = by_id[np.argsort(-probs[by_id], kind="stable")]
    return RankedList(
        query.id, tuple(zip(map(ids.__getitem__, order.tolist()), probs[order].tolist()))
    )


def _run_text(ranked: RankedList) -> str:
    """The run-file lines of one ranked list; a pooled list formats each distinct probability once."""
    probs = ranked.probs()
    changes = sum(map(ne, probs, probs[1:]))  # the list is sorted
    if 2 * changes >= len(probs):
        formatted = map(repr, probs)
    else:
        text = {prob: repr(prob) for prob in set(probs)}
        # 0.0 == -0.0 would share one entry, yet the two print differently
        formatted = map(repr, probs) if 0.0 in text else map(text.__getitem__, probs)
    return "".join(
        [
            f"{ranked.query_id} {doc_id} {position} {prob} clirset\n"
            for position, doc_id, prob in zip(count(1), ranked.doc_ids(), formatted)
        ]
    )


def save_run(ranked_lists, path) -> None:
    with atomic_output(path) as out:
        for ranked in ranked_lists:
            out.write(_run_text(ranked))
