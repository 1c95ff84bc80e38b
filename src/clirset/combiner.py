"""Convex combination of evidence matrices with EM-fitted weights.

Each generator k supplies q_k = p_k for a positive instance and 1 - p_k
for a negative one; the mixture likelihood of an instance is sum_k
lambda_k * q_k. EM alternates responsibilities r_k proportional to
lambda_k * q_k with the weight update lambda_k = mean responsibility,
which drives the log-likelihood monotonically upward from uniform init.

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
from .evidence.instances import DEFAULT_NEGATIVES_PER_POSITIVE, labeled_instances
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

    def __post_init__(self) -> None:
        if not self.weights:
            raise DataError("mixture with no weights")
        total = 0.0
        for tag, weight in self.weights.items():
            if not math.isfinite(weight):
                raise DataError(f"mixture weight for {tag!r} is not finite")
            if weight < 0.0:
                raise DataError(f"mixture weight for {tag!r} is negative")
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
    if set(tags) != set(mixture.weights):
        raise DataError(
            f"mixture weights {sorted(mixture.weights)} do not match"
            f" matrix tags {sorted(tags)}"
        )
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
) -> tuple[np.ndarray, list[float]]:
    """EM for mixture weights on an (instances x generators) matrix of q_k.

    Starts uniform; stops when the log-likelihood improves by less than
    `tol` or after `max_iter` iterations, and logs a warning when it stops
    at the cap while still improving. Returns the weights and the
    per-iteration log-likelihood trace (evaluated after each update).
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
        raise DataError("EM needs a non-empty 2-d instance matrix")
    if np.any(q <= 0.0):
        raise DataError("EM instance likelihoods must be positive")
    n, k = q.shape
    columns = np.ascontiguousarray(q.T)  # one contiguous row per generator
    lam = np.full(k, 1.0 / k)
    history: list[float] = []
    prev = float(np.sum(np.log(q @ lam)))
    for _ in range(max_iter):
        resp = [column * weight for column, weight in zip(columns, lam)]
        total = _row_sums(resp)
        # The mean over instances, summed front to back as numpy's
        # mean(axis=0) over the (n, k) matrix does.
        lam = np.array([np.add.accumulate(r / total)[-1] for r in resp]) / n
        loglik = float(np.sum(np.log(q @ lam)))
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


def _row_sums(resp: list[np.ndarray]) -> np.ndarray:
    """The per-instance sum over generators, in the order numpy's sum(axis=1) adds.

    numpy adds a row of fewer than 8 values left to right; longer rows go
    through its own blocked summation.
    """
    if len(resp) >= 8:
        return np.stack(resp, axis=1).sum(axis=1)
    total = resp[0]
    for r in resp[1:]:
        total = total + r
    return total


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
    instances = labeled_instances(bitext, vocab, m_neg, random.Random(seed))
    positive = instances.label == 1
    pairs = instances.pair_index
    # each word's instances, ascending: one run of the stably sorted order
    order = np.argsort(instances.word_index, kind="stable")
    word_ids, starts = np.unique(instances.word_index[order], return_index=True)
    bounds = [*starts.tolist(), len(order)]
    words = [vocab.tokens[j] for j in word_ids.tolist()]
    pair_positions = {(bitext_doc_id(i), 0): i for i in range(len(bitext))}
    q = np.empty((len(instances), len(matrices)))
    for col, matrix in enumerate(matrices):
        p = np.empty(len(instances))
        cells = matrix.cells_at(pair_positions, words)
        for word, start, end in zip(words, bounds, bounds[1:]):
            held, values = cells[word]
            by_pair = np.full(len(bitext), matrix.background)
            by_pair[held] = values
            members = order[start:end]
            p[members] = by_pair[pairs[members]]
        q[:, col] = np.where(positive, p, 1.0 - p)
    lam, history = em_fit(q)
    log.info(
        "fit mixture over %d instances, %d iterations, loglik %.6f",
        len(instances),
        len(history),
        history[-1] if history else float("nan"),
    )
    return MixtureWeights(
        {tag: float(w) for tag, w in zip(tags, lam)},
        loglik=history[-1] if history else None,
        loglik_history=tuple(history),
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
    for lineno, line in data_lines(path):
        if line.startswith(LOGLIK_PREFIX):
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
    if not weights:
        raise DataError(f"{path}: empty mixture weight file")
    try:
        return MixtureWeights(weights, loglik=loglik)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
