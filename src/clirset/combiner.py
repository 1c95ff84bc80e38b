"""Convex combination of evidence matrices with EM-fitted weights.

Each generator k supplies q_k = p_k for a positive instance and 1 - p_k
for a negative one; the mixture likelihood of an instance is sum_k
lambda_k * q_k. EM alternates responsibilities r_k proportional to
lambda_k * q_k with the weight update lambda_k = mean responsibility,
which drives the log-likelihood monotonically upward from uniform init.
em_fit runs that update in its multiplicative form,
lambda <- lambda * ((1 / (q @ lambda)) @ q), renormalized to sum to 1.
An instance enters only through its row of q, so fit_mixture hands EM
the distinct rows of q, each weighted by how many instances share it.

Weights persist as TSV `generator-tag <TAB> weight` rows with a
`#loglik=<value>` trailer line.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import (
    Bitext,
    atomic_output,
    bitext_doc_id,
    data_lines,
    parse_prob,
    split_tsv,
)
from .errors import DataError
from .evidence.instances import DEFAULT_NEGATIVES_PER_POSITIVE, distinct_rows, labeled_instances
from .evidence.matrix import EvidenceMatrix, Vocabulary, weighted_sum

log = logging.getLogger(__name__)

DEFAULT_EM_TOLERANCE = 1e-8
DEFAULT_EM_MAX_ITERATIONS = 500

COMBINED_TAG = "combined"

LOGLIK_PREFIX = "#loglik="


@dataclass(frozen=True)
class MixtureWeights:
    """Convex weights over generator tags, plus fit diagnostics."""

    weights: dict[str, float]
    loglik: float | None = None
    loglik_history: tuple[float, ...] = ()
    kkt_gap: float | None = None  # see _kkt_gap; not saved

    def __post_init__(self) -> None:
        if not self.weights:
            raise DataError("mixture with no weights")
        total = 0.0
        for tag, weight in self.weights.items():
            _check_weight(tag, weight)
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"mixture weights sum to {total!r}, not 1")

    @classmethod
    def uniform(cls, tags: Sequence[str]) -> "MixtureWeights":
        if not tags:
            raise DataError("cannot build uniform weights over no generators")
        if len(set(tags)) != len(tags):
            raise DataError("duplicate generator tags")
        return cls({tag: 1.0 / len(tags) for tag in tags})


def _check_weight(tag: str, weight: float, where: str = "") -> None:
    """Raise DataError, prefixed by `where`, unless `weight` is finite and >= 0."""
    if not math.isfinite(weight):
        raise DataError(f"{where}mixture weight for {tag!r} is not finite")
    if weight < 0.0:
        raise DataError(f"{where}mixture weight for {tag!r} is negative")


def check_tags(mixture: MixtureWeights, tags: Sequence[str]) -> None:
    """Raise DataError unless `mixture` weighs exactly the generator tags `tags`."""
    if set(tags) != set(mixture.weights):
        raise DataError(
            f"mixture weights {sorted(mixture.weights)} do not match"
            f" generator tags {sorted(tags)}"
        )


def combine(
    matrices: Sequence[EvidenceMatrix], mixture: MixtureWeights
) -> EvidenceMatrix:
    """Weighted sum of matrices over the union of their cells.

    The matrices must be built over one corpus, whose row numbering they
    share; others raise DataError. Absent cells contribute their matrix's
    background: the floor for a generator with no opinion, which drags the
    mixture toward epsilon rather than being skipped. The sum runs in
    sorted tag order, which makes the result invariant to the order the
    matrices are passed in.
    """
    tags = [m.generator for m in matrices]
    if len(set(tags)) != len(tags):
        raise DataError("duplicate generator tags among matrices")
    check_tags(mixture, tags)
    epsilons = {m.epsilon for m in matrices}
    if len(epsilons) != 1:
        raise DataError("matrices disagree on the evidence floor")
    by_tag = {m.generator: m for m in matrices}
    ordered = [(mixture.weights[tag], by_tag[tag]) for tag in sorted(by_tag)]

    return weighted_sum(COMBINED_TAG, ordered, epsilons.pop())


def em_fit(
    q: np.ndarray,
    tol: float = DEFAULT_EM_TOLERANCE,
    max_iter: int = DEFAULT_EM_MAX_ITERATIONS,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, list[float]]:
    """EM for mixture weights on an (instances x generators) matrix of q_k.

    Starts uniform; stops when the log-likelihood improves by less than
    `tol` or after `max_iter` iterations, and logs a warning when it stops
    at the cap while still improving. Returns the weights and the
    per-iteration log-likelihood trace (evaluated after each update).

    `counts`, if given, holds a positive weight per row: row i stands for
    counts[i] instances that share it (see distinct_rows), and the fit is
    the one over the rows repeated that many times, to rounding.

    An iteration is the textbook update, lambda_k = mean over instances of
    lambda_k * q_k / (q @ lambda), written as one multiplicative step:
    lambda * ((counts / (q @ lambda)) @ q), divided by its sum, which is
    the number of instances up to rounding. q @ lambda is the one the
    log-likelihood just computed, and the sum over rows is one BLAS
    product over q as it is stored. Two row-long buffers are allocated
    once per fit: q @ lambda, and one that holds counts over it and then
    the count-weighted log. The results agree with the textbook loop to
    rounding (weights within about 1e-13), not bit for bit; with one
    generator the weights are exactly [1.0]. The log-likelihood is
    sum(counts * log(q @ lambda)), and without counts sum(log(q @ lambda)).
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
        raise DataError("EM needs a non-empty 2-d instance matrix")
    if not np.all((q > 0.0) & np.isfinite(q)):
        raise DataError("EM instance likelihoods must be finite and positive")
    n, k = q.shape
    weight = 1.0 if counts is None else np.asarray(counts, dtype=float)
    mixed = np.empty(n)
    work = np.empty(n)
    lam = np.full(k, 1.0 / k)
    history: list[float] = []
    prev = _loglik(q, lam, weight, mixed, work)
    for _ in range(max_iter):
        np.divide(weight, mixed, out=work)
        lam = lam * (work @ q)
        lam /= lam.sum()
        loglik = _loglik(q, lam, weight, mixed, work)
        history.append(loglik)
        gain = loglik - prev
        if gain < tol:
            break
        prev = loglik
    else:
        if history:
            log.warning(
                "EM stopped at its cap of %d iterations while the log-likelihood"
                " still rose %.3g per iteration",
                max_iter,
                gain,
            )
    return lam, history


def _loglik(
    q: np.ndarray, lam: np.ndarray, weight, mixed: np.ndarray, work: np.ndarray
) -> float:
    """sum(weight * log(q @ lam)), leaving q @ lam in `mixed` and the
    weighted log in `work`."""
    np.matmul(q, lam, out=mixed)
    np.log(mixed, out=work)
    work *= weight
    return float(np.sum(work))


def _kkt_gap(q: np.ndarray, lam: np.ndarray, counts: np.ndarray | None = None) -> float:
    """How far `lam` is from the maximum of the log-likelihood over the simplex.

    With g_k the mean of q_k / (q @ lam) over the rows, each taken
    `counts` times (once without counts), the maximum has g_k = 1 wherever
    lam_k > 0 and g_k <= 1 wherever lam_k = 0 (its KKT conditions). The
    gap is the largest violation: |g_k - 1| over the first generators and
    max(0, g_k - 1) over the second.
    """
    weight, total = (1.0, len(q)) if counts is None else (counts, counts.sum())
    excess = (weight / (q @ lam)) @ q / total - 1.0
    return float(np.max(np.where(lam > 0.0, np.abs(excess), np.maximum(excess, 0.0))))


def _instance_q(
    matrices: Sequence[EvidenceMatrix],
    bitext: Bitext,
    vocab: Vocabulary,
    m_neg: int,
    seed: int,
) -> np.ndarray:
    """The (instances x matrices) q_k of fit_mixture's instances.

    Each matrix is read into one (vocabulary x pairs) table, and each
    instance's value is gathered from it at its (word, pair). Only q
    outlives the call; the instances and the table are freed before
    fit_mixture collapses q to its distinct rows.
    """
    instances = labeled_instances(bitext, vocab, m_neg, random.Random(seed))
    positive = instances.label == 1
    keys = tuple((bitext_doc_id(i), 0) for i in range(len(bitext)))
    table = np.empty((len(vocab), len(bitext)))
    q = np.empty((len(instances), len(matrices)))
    for col, matrix in enumerate(matrices):
        table.fill(matrix.background)
        for row, (held, values) in zip(table, matrix.cells_at(keys, vocab).values()):
            row[held] = values
        p = table[instances.word_index, instances.pair_index]
        q[:, col] = np.where(positive, p, 1.0 - p)
    return q


def fit_mixture(
    matrices: Sequence[EvidenceMatrix],
    bitext: Bitext,
    vocab: Vocabulary,
    m_neg: int = DEFAULT_NEGATIVES_PER_POSITIVE,
    seed: int = 0,
) -> MixtureWeights:
    """Fit weights on held-out bitext instances read out of the matrices.

    The instances are `labeled_instances(bitext, vocab, m_neg,
    random.Random(seed))`. The matrices must be built over the bitext
    pseudo-corpus (see corpus.bitext_corpus); any other raises DataError.
    Entries the generators never stored read as their background, mostly
    the floor: a near-certain vote for "not relevant".
    """
    tags = [m.generator for m in matrices]
    if len(set(tags)) != len(tags):
        raise DataError("duplicate generator tags among matrices")
    if not matrices:
        raise DataError("cannot fit a mixture over no matrices")
    rows, counts = distinct_rows(_instance_q(matrices, bitext, vocab, m_neg, seed))
    lam, history = em_fit(rows, counts=counts)
    log.info(
        "fit mixture over %d instances in %d distinct rows, %d iterations, loglik %.6f",
        counts.sum(),
        len(rows),
        len(history),
        history[-1] if history else float("nan"),
    )
    return MixtureWeights(
        {tag: float(w) for tag, w in zip(tags, lam)},
        loglik=history[-1] if history else None,
        loglik_history=tuple(history),
        kkt_gap=_kkt_gap(rows, lam, counts),
    )


def save_weights(mixture: MixtureWeights, path) -> None:
    with atomic_output(path) as out:
        for tag in sorted(mixture.weights):
            out.write(f"{tag}\t{mixture.weights[tag]!r}\n")
        if mixture.loglik is not None:
            out.write(f"{LOGLIK_PREFIX}{mixture.loglik!r}\n")


def load_weights(path) -> MixtureWeights:
    weights: dict[str, float] = {}
    loglik: float | None = None
    loglik_line = 0
    for lineno, line in data_lines(path):
        if line.startswith(LOGLIK_PREFIX):
            if loglik_line:
                raise DataError(
                    f"{path}:{lineno}: duplicate #loglik line"
                    f" (first at line {loglik_line})"
                )
            loglik_line = lineno
            try:
                loglik = float(line[len(LOGLIK_PREFIX) :])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad loglik value") from exc
            if not math.isfinite(loglik):
                raise DataError(f"{path}:{lineno}: loglik {loglik!r} is not finite")
            continue
        tag, weight_raw = split_tsv(path, lineno, line, 2)
        if tag in weights:
            raise DataError(f"{path}:{lineno}: duplicate tag {tag!r}")
        weights[tag] = parse_prob(path, lineno, weight_raw)
        _check_weight(tag, weights[tag], f"{path}:{lineno}: ")
    if not weights:
        raise DataError(f"{path}: empty mixture weight file")
    try:
        return MixtureWeights(weights, loglik=loglik)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
