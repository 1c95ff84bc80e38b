"""Query-specific cutoff choice by maximizing the expected query value.

Given a ranked list of probabilities p_1 >= ... >= p_N, two cumulative
sums produce, for every prefix length k:

    E_miss(k) = sum_{i > k} p_i        (backward pass)
    E_fa(k)   = sum_{i <= k} (1 - p_i) (forward pass)

The expected number of relevant documents E_rel = E_miss(0) is scaled by
gamma (recall slightly more than the probability mass pays off under the
miss-heavy metric) and clamped away from 0 and N so both denominators
stay positive. The chosen k is the smallest maximizer of

    E_QV(k) = 1 - (E_miss(k) / E_rel' + beta * E_fa(k) / (N - E_rel'))

and the returned set is the top-k prefix, which by linearity of the
objective in the per-document indicators is also the best of all 2^N
subsets. The expectations are the true ones only if the probabilities
are calibrated. The rule assumes they are; they are not yet
(calibration on held-out bitext is ROADMAP item 4).

Cutoffs persist as TSV `query-id <TAB> k <TAB> expected_qv`; returned
sets as `query-id <TAB> doc-id` lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import atomic_output, data_lines, split_tsv
from .errors import DataError
from .numerics import DEFAULT_EPSILON, require_positive
from .relevance import RankedList

DEFAULT_BETA = 40.0
DEFAULT_GAMMA = 1.3


@dataclass(frozen=True)
class ThresholdConfig:
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        require_positive("beta", self.beta)
        require_positive("gamma", self.gamma)
        if not 0.0 < self.epsilon < 0.5:
            raise DataError(f"epsilon {self.epsilon!r} outside (0, 0.5)")


@dataclass(frozen=True)
class CutoffDecision:
    """Chosen prefix length, its expected QV, and the expected relevant count."""

    query_id: str
    k: int
    expected_qv: float
    e_rel: float


def _curve(ranked: RankedList, cfg: ThresholdConfig) -> tuple[np.ndarray, float]:
    """(E_QV(k) for k = 0..N, E_rel), both passes summed in list order."""
    probs = ranked.probs()
    n = len(probs)
    if n == 0:
        raise DataError("cannot threshold an empty ranked list")
    for p in probs:
        if not 0.0 < p < 1.0:
            raise DataError(f"ranked probability {p!r} outside (0, 1)")
    probs = np.array(probs)
    miss = np.append(np.cumsum(probs[::-1])[::-1], 0.0)  # E_miss(k)
    false_alarm = np.append(0.0, np.cumsum(1.0 - probs))  # E_fa(k)
    e_rel = float(miss[0])
    scaled = min(max(cfg.gamma * e_rel, cfg.epsilon), n - cfg.epsilon)
    return 1.0 - (miss / scaled + cfg.beta * false_alarm / (n - scaled)), e_rel


def decide(ranked: RankedList, cfg: ThresholdConfig = ThresholdConfig()) -> CutoffDecision:
    """Pick the smallest k maximizing E_QV(k) over k = 0..N."""
    values, e_rel = _curve(ranked, cfg)
    best_k = int(np.argmax(values))
    return CutoffDecision(
        query_id=ranked.query_id,
        k=best_k,
        expected_qv=float(values[best_k]),
        e_rel=e_rel,
    )


def expected_qv_curve(
    ranked: RankedList, cfg: ThresholdConfig = ThresholdConfig()
) -> list[float]:
    """E_QV(k) for every prefix length; index k runs 0..N."""
    return _curve(ranked, cfg)[0].tolist()


def returned_set(ranked: RankedList, decision: CutoffDecision) -> list[str]:
    """Document ids of the chosen top-k prefix, in rank order."""
    if decision.query_id != ranked.query_id:
        raise DataError(
            f"decision for {decision.query_id!r} applied to ranked list"
            f" {ranked.query_id!r}"
        )
    return ranked.doc_ids()[: decision.k]


def save_cutoffs(decisions, path) -> None:
    with atomic_output(path) as out:
        for decision in decisions:
            out.write(
                f"{decision.query_id}\t{decision.k}\t{decision.expected_qv!r}\n"
            )


def load_cutoffs(path) -> dict[str, tuple[int, float]]:
    cutoffs: dict[str, tuple[int, float]] = {}
    for lineno, line in data_lines(path):
        qid, k_raw, qv_raw = split_tsv(path, lineno, line, 3)
        if qid in cutoffs:
            raise DataError(f"{path}:{lineno}: duplicate query id {qid!r}")
        try:
            cutoffs[qid] = (int(k_raw), float(qv_raw))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad cutoff line") from exc
    return cutoffs


def save_returned_sets(sets_by_query: dict[str, list[str]], path) -> None:
    with atomic_output(path) as out:
        for qid in sets_by_query:
            for doc_id in sets_by_query[qid]:
                out.write(f"{qid}\t{doc_id}\n")


def load_returned_sets(path) -> dict[str, set[str]]:
    sets: dict[str, set[str]] = {}
    for lineno, line in data_lines(path):
        qid, doc_id = split_tsv(path, lineno, line, 2)
        sets.setdefault(qid, set()).add(doc_id)
    return sets
