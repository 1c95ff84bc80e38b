"""Set-based scoring: per-query value and its mean over the run.

With N documents, N_r of them relevant, N_t relevant documents returned,
and N_f non-relevant documents returned:

    p_miss = (N_r - N_t) / N_r
    p_fa   = N_f / (N - N_r)
    QV     = 1 - (p_miss + beta * p_fa)

The run score is the unweighted mean of QV over every query with a
non-empty gold set. A judged query with no returned set scores as an
empty set; queries without gold are excluded with a warning because
p_miss is undefined for them. Returning nothing scores exactly 0,
returning exactly the gold set scores exactly 1.

The report file carries one TSV row per query
(query-id, n_r, n_t, n_f, p_miss, p_fa, qv) followed by a summary line
`mAQWV=<value> beta=<value> n_q=<count>`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping

from .corpus import Corpus, Judgments, atomic_output
from .errors import DataError
from .numerics import require_positive
from .thresholder import DEFAULT_BETA

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QueryScore:
    query_id: str
    n_r: int
    n_t: int
    n_f: int
    p_miss: float
    p_fa: float
    qv: float


@dataclass(frozen=True)
class RunScore:
    scores: tuple[QueryScore, ...]
    maqwv: float
    beta: float
    n_q: int


def score_query(
    query_id: str,
    returned: AbstractSet[str],
    gold: AbstractSet[str],
    n_docs: int,
    beta: float = DEFAULT_BETA,
) -> QueryScore:
    """QV for one query's returned set against its gold set."""
    n_r = len(gold)
    if n_r == 0:
        raise DataError(f"query {query_id!r} has an empty gold set")
    if n_r >= n_docs:
        raise DataError(
            f"query {query_id!r}: gold covers the whole corpus, p_fa undefined"
        )
    n_t = len(returned & gold)
    n_f = len(returned) - n_t
    p_miss = (n_r - n_t) / n_r
    p_fa = n_f / (n_docs - n_r)
    qv = 1.0 - (p_miss + beta * p_fa)
    return QueryScore(query_id, n_r, n_t, n_f, p_miss, p_fa, qv)


def score_run(
    returned_sets: Mapping[str, Iterable[str]],
    judgments: Judgments,
    corpus: Corpus,
    beta: float = DEFAULT_BETA,
) -> RunScore:
    """Mean QV over every judged query, in sorted query order."""
    require_positive("beta", beta)
    judgments.validate_against(corpus)
    scores = []
    for qid in sorted(judgments.relevant.keys() | returned_sets.keys()):
        returned = set(returned_sets.get(qid, ()))
        for doc_id in returned:
            if doc_id not in corpus:
                raise DataError(
                    f"query {qid!r} returned unknown document {doc_id!r}"
                )
        gold = judgments.for_query(qid)
        if not gold:
            log.warning("query %s has no relevant documents; excluded", qid)
            continue
        scores.append(score_query(qid, returned, gold, len(corpus), beta))
    if not scores:
        raise DataError("every query was excluded; nothing to score")
    maqwv = sum(score.qv for score in scores) / len(scores)
    return RunScore(tuple(scores), maqwv, beta, len(scores))


def format_summary(run_score: RunScore) -> str:
    return (
        f"mAQWV={run_score.maqwv!r} beta={run_score.beta!r}"
        f" n_q={run_score.n_q}"
    )


def save_report(run_score: RunScore, path) -> None:
    with atomic_output(path) as out:
        out.write("query-id\tn_r\tn_t\tn_f\tp_miss\tp_fa\tqv\n")
        for s in run_score.scores:
            out.write(
                f"{s.query_id}\t{s.n_r}\t{s.n_t}\t{s.n_f}\t{s.p_miss!r}"
                f"\t{s.p_fa!r}\t{s.qv!r}\n"
            )
        out.write(format_summary(run_score) + "\n")
