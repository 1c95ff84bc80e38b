"""Query-specific cutoff choice by maximizing the expected query value.

Given a ranked list of calibrated probabilities p_1 >= ... >= p_N, two
linear passes produce, for every prefix length k:

    E_miss(k) = sum_{i > k} p_i        (backward pass)
    E_fa(k)   = sum_{i <= k} (1 - p_i) (forward pass)

The expected number of relevant documents E_rel = E_miss(0) is scaled by
gamma (recall slightly more than the calibrated mass pays off under the
miss-heavy metric) and clamped away from 0 and N so both denominators
stay positive. The chosen k is the smallest maximizer of

    E_QV(k) = 1 - (E_miss(k) / E_rel' + beta * E_fa(k) / (N - E_rel'))

and the returned set is the top-k prefix, which by linearity of the
objective in the per-document indicators is also the best of all 2^N
subsets.

Cutoffs persist as TSV `query-id <TAB> k <TAB> expected_qv`; returned
sets as `query-id <TAB> doc-id` lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import data_lines, split_tsv
from .errors import DataError
from .numerics import DEFAULT_EPSILON
from .relevance import RankedList

DEFAULT_BETA = 40.0
DEFAULT_GAMMA = 1.3


@dataclass(frozen=True)
class ThresholdConfig:
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise DataError(f"beta {self.beta!r} must be positive")
        if self.gamma <= 0.0:
            raise DataError(f"gamma {self.gamma!r} must be positive")
        if not 0.0 < self.epsilon < 0.5:
            raise DataError(f"epsilon {self.epsilon!r} outside (0, 0.5)")


@dataclass(frozen=True)
class CutoffDecision:
    """Chosen prefix length plus the expectation passes that led to it."""

    query_id: str
    k: int
    expected_qv: float
    e_miss: tuple[float, ...]  # length N + 1, e_miss[0] == e_rel
    e_fa: tuple[float, ...]  # length N + 1, e_fa[0] == 0
    e_rel: float


def _expectation_passes(probs) -> tuple[list[float], list[float]]:
    n = len(probs)
    e_miss = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        e_miss[i] = e_miss[i + 1] + probs[i]
    e_fa = [0.0] * (n + 1)
    for i in range(1, n + 1):
        e_fa[i] = e_fa[i - 1] + (1.0 - probs[i - 1])
    return e_miss, e_fa


def _qv_values(probs, cfg: ThresholdConfig) -> tuple[list[float], list[float], list[float]]:
    n = len(probs)
    if n == 0:
        raise DataError("cannot threshold an empty ranked list")
    for p in probs:
        if not 0.0 < p < 1.0:
            raise DataError(f"ranked probability {p!r} outside (0, 1)")
    e_miss, e_fa = _expectation_passes(probs)
    e_rel = e_miss[0]
    scaled = min(max(cfg.gamma * e_rel, cfg.epsilon), n - cfg.epsilon)
    values = [
        1.0 - (e_miss[k] / scaled + cfg.beta * e_fa[k] / (n - scaled))
        for k in range(n + 1)
    ]
    return values, e_miss, e_fa


def decide(ranked: RankedList, cfg: ThresholdConfig = ThresholdConfig()) -> CutoffDecision:
    """Pick the smallest k maximizing E_QV(k) over k = 0..N."""
    probs = ranked.probs()
    values, e_miss, e_fa = _qv_values(probs, cfg)
    best_k = 0
    for k in range(1, len(values)):
        if values[k] > values[best_k]:
            best_k = k
    return CutoffDecision(
        query_id=ranked.query_id,
        k=best_k,
        expected_qv=values[best_k],
        e_miss=tuple(e_miss),
        e_fa=tuple(e_fa),
        e_rel=e_miss[0],
    )


def expected_qv_curve(
    ranked: RankedList, cfg: ThresholdConfig = ThresholdConfig()
) -> list[float]:
    """E_QV(k) for every prefix length; index k runs 0..N."""
    values, _, _ = _qv_values(ranked.probs(), cfg)
    return values


def returned_set(ranked: RankedList, decision: CutoffDecision) -> list[str]:
    """Document ids of the chosen top-k prefix, in rank order."""
    if decision.query_id != ranked.query_id:
        raise DataError(
            f"decision for {decision.query_id!r} applied to ranked list"
            f" {ranked.query_id!r}"
        )
    return ranked.doc_ids()[: decision.k]


def save_cutoffs(decisions, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
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
    with open(path, "w", encoding="utf-8") as out:
        for qid in sets_by_query:
            for doc_id in sets_by_query[qid]:
                out.write(f"{qid}\t{doc_id}\n")


def load_returned_sets(path) -> dict[str, set[str]]:
    sets: dict[str, set[str]] = {}
    for lineno, line in data_lines(path):
        qid, doc_id = split_tsv(path, lineno, line, 2)
        sets.setdefault(qid, set()).add(doc_id)
    return sets
