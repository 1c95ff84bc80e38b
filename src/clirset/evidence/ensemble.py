"""MT-ensemble evidence: logistic regression over per-system occurrence bits.

Each MT system contributes one binary feature per (sentence, English word)
instance: did the word occur in that system's translation of the sentence?
A logistic regression with one weight per system plus a bias turns the
feature vector into p(rel | sentence, word). The fit maximizes the
L2-regularized log-likelihood on held-out bitext by full-batch gradient
descent with backtracking line search; the bias is not regularized, so
with all-zero features the fitted sigmoid(bias) matches the positive rate.

Hypotheses file format is TSV:
    system-id <TAB> doc-id <TAB> sentence-index <TAB> english translation
The model file is JSON: {"systems": [...], "weights": [...], "bias": ...}.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..corpus import (
    Bitext,
    Corpus,
    Sentence,
    Token,
    atomic_output,
    bitext_doc_id,
    data_lines,
    normalize,
    parse_index,
    split_tsv,
)
from ..errors import DataError
from ..numerics import sigmoid, softplus
from .instances import (
    DEFAULT_NEGATIVES_PER_POSITIVE,
    LabeledInstances,
    labeled_instances,
)
from .matrix import Columns, Vocabulary

log = logging.getLogger(__name__)

DEFAULT_L2 = 1e-3
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_TOLERANCE = 1e-7
DEFAULT_MAX_ITERATIONS = 10_000

MT_GENERATOR_TAG = "mt"


@dataclass(frozen=True)
class MtHypothesisSet:
    """Per-system English translations keyed by (doc id, sentence index)."""

    systems: tuple[str, ...]
    hypotheses: dict[str, dict[tuple[str, int], Sentence]]
    # the file the set was read from, which a missing hypothesis names
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.systems:
            raise DataError("hypothesis set with no systems")
        if len(set(self.systems)) != len(self.systems):
            raise DataError("duplicate system ids in hypothesis set")
        for system in self.systems:
            if system not in self.hypotheses:
                raise DataError(f"system {system!r} has no hypotheses")

    def translation(self, system: str, doc_id: str, index: int) -> Sentence:
        try:
            return self.hypotheses[system][(doc_id, index)]
        except KeyError:
            where = "" if self.source is None else f"{self.source}: "
            raise DataError(
                f"{where}system {system!r} has no hypothesis for sentence"
                f" {doc_id!r}:{index}"
            ) from None

    def holders(
        self,
        systems: Sequence[str],
        keys: Sequence[tuple[str, int]],
        words: Sequence[Token],
    ) -> list[np.ndarray]:
        """Per system, word slot * len(keys) + key slot of each held (key, word).

        A (key, word) is held when the system's translation of the sentence
        `key` holds the word. Each (key, system) translation is read once,
        through `translation`, key by key and within a key system by
        system, so the first missing one raises.
        """
        code = {word: slot for slot, word in enumerate(words)}
        n = len(keys)
        held: list[list[int]] = [[] for _ in systems]
        for slot, (doc_id, index) in enumerate(keys):
            for codes, system in zip(held, systems):
                translation = self.translation(system, doc_id, index)
                codes.extend(code[word] * n + slot for word in code.keys() & translation)
        return [np.array(codes, dtype=np.int64) for codes in held]


def load_mt_hypotheses(path) -> MtHypothesisSet:
    """Read a hypotheses TSV file.

    Each (doc id, sentence index) key is one tuple that every system shares.
    """
    hypotheses: dict[str, dict[tuple[str, int], Sentence]] = {}
    keys: dict[tuple[str, int], tuple[str, int]] = {}
    for lineno, line in data_lines(path):
        system, doc_id, index_raw, text = split_tsv(path, lineno, line, 4)
        index = parse_index(path, lineno, index_raw)
        sentence = normalize(text)
        if not sentence:
            raise DataError(
                f"{path}:{lineno}: hypothesis normalizes to no tokens"
            )
        key = (doc_id, index)
        key = keys.setdefault(key, key)
        per_system = hypotheses.setdefault(system, {})
        if key in per_system:
            raise DataError(
                f"{path}:{lineno}: duplicate hypothesis for system"
                f" {system!r} sentence {doc_id!r}:{index}"
            )
        per_system[key] = sentence
    if not hypotheses:
        raise DataError(f"{path}: empty hypothesis file")
    return MtHypothesisSet(tuple(sorted(hypotheses)), hypotheses, str(path))


def save_mt_hypotheses(hyps: MtHypothesisSet, path) -> None:
    with atomic_output(path) as out:
        for system in hyps.systems:
            for doc_id, index in sorted(hyps.hypotheses[system]):
                text = " ".join(hyps.hypotheses[system][(doc_id, index)])
                out.write(f"{system}\t{doc_id}\t{index}\t{text}\n")


@dataclass(frozen=True)
class MtEnsembleModel:
    systems: tuple[str, ...]
    weights: tuple[float, ...]
    bias: float
    # the file the model was read from, which a system mismatch names
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.systems) != len(self.weights):
            raise DataError("ensemble weights do not match systems")
        if not self.systems:
            raise DataError("ensemble model with no systems")
        for system in self.systems:
            if not isinstance(system, str) or not system:
                raise DataError(f"ensemble system {system!r} is not a non-empty string")
        if len(set(self.systems)) != len(self.systems):
            raise DataError(
                f"duplicate system ids in ensemble model: {list(self.systems)}"
            )
        for system, weight in zip(self.systems, self.weights):
            if not math.isfinite(weight):
                raise DataError(f"ensemble weight for {system!r} is not finite")
        if not math.isfinite(self.bias):
            raise DataError("ensemble bias is not finite")


class _Groups(NamedTuple):
    """Instances grouped by their (feature row, label)."""

    features: np.ndarray  # (instances x systems)
    first: np.ndarray  # each group's first instance
    labels: np.ndarray  # each group's label
    index: np.ndarray  # each instance's group

    @classmethod
    def of(cls, features: np.ndarray, labels: np.ndarray) -> "_Groups":
        """Group 0/1 features and labels by their bits, packed per instance."""
        if not (np.isin(features, (0.0, 1.0)).all() and np.isin(labels, (0.0, 1.0)).all()):
            raise ValueError("ensemble features and labels must be 0 or 1")
        bits = np.packbits(np.column_stack([labels, features]) != 0.0, axis=1)
        keys = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
        _, first, index = np.unique(keys, return_index=True, return_inverse=True)
        return cls(features, first, labels[first], index)


def ensemble_objective(
    weights: np.ndarray, bias: float, features: np.ndarray, labels: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean negative log-likelihood plus L2 on weights, with gradients.

    Returns (loss, d loss / d weights, d loss / d bias). The bias is left
    out of the penalty so an all-zero-feature fit recovers the base rate
    exactly. Features and labels are 0 or 1; other values are a ValueError.
    """
    return _grouped_objective(weights, bias, _Groups.of(features, labels), l2)


def _grouped_objective(
    weights: np.ndarray, bias: float, groups: _Groups, l2: float
) -> tuple[float, np.ndarray, float]:
    """`ensemble_objective` over instances grouped once.

    softplus(z) - label * z and sigmoid(z) - label are computed once per
    group and gathered per instance; numpy's element-wise functions give a
    value the same result wherever it sits in an array. z is read off the
    product over every instance, at each group's first instance: BLAS may
    sum a row's terms in another order in a matrix of another shape, so a
    product over the groups' rows alone could round differently. The sums
    run over every instance, in instance order. So the result is the
    per-instance one, bit for bit, wherever BLAS gives equal rows equal
    products (OpenBLAS 0.3.31's Haswell kernels did, for up to 7 systems).
    """
    z = (groups.features @ weights)[groups.first] + bias
    n = len(groups.index)
    loss = float(np.sum((softplus(z) - groups.labels * z).take(groups.index))) / n
    loss += 0.5 * l2 * float(weights @ weights)
    dz = (sigmoid(z) - groups.labels).take(groups.index)
    grad_w = groups.features.T @ dz / n + l2 * weights
    grad_b = float(np.sum(dz)) / n
    return loss, grad_w, grad_b


def _minimize(objective, weights: np.ndarray, bias: float, lr: float,
              tol: float, max_iter: int) -> tuple[np.ndarray, float, float]:
    """Gradient descent with backtracking halving and modest step regrowth."""
    loss, grad_w, grad_b = objective(weights, bias)
    step = lr
    for _ in range(max_iter):
        while True:
            cand_w = weights - step * grad_w
            cand_b = bias - step * grad_b
            cand_loss, cand_gw, cand_gb = objective(cand_w, cand_b)
            if cand_loss <= loss or step < 1e-12:
                break
            step *= 0.5
        improvement = loss - cand_loss
        weights, bias = cand_w, cand_b
        loss, grad_w, grad_b = cand_loss, cand_gw, cand_gb
        if improvement <= tol * max(abs(loss), 1.0):
            break
        step = min(step * 2.0, 1e3)
    return weights, bias, loss


def _instance_features(
    hyps: MtHypothesisSet, vocab: Vocabulary, instances: LabeledInstances
) -> tuple[np.ndarray, np.ndarray]:
    """The (instances x systems) 0/1 features and the labels.

    A feature is 1 when the system's translation of the instance's pair
    holds the instance's word. The holder codes of the pairs with
    instances index one (word, pair) x systems grid, from which each
    instance's row is gathered. A missing translation raises for the first
    pair that has instances, and within it the first of `hyps.systems`.
    """
    pairs, pair_slots = np.unique(instances.pair_index, return_inverse=True)
    keys = [(bitext_doc_id(pair), 0) for pair in pairs.tolist()]
    held = hyps.holders(hyps.systems, keys, vocab.tokens)
    grid = np.zeros((len(vocab) * len(keys), len(held)), dtype=bool)
    for system, codes in enumerate(held):
        grid[codes, system] = True
    features = grid[instances.word_index * len(keys) + pair_slots]
    return features.astype(float), instances.label.astype(float)


def fit_mt_ensemble(
    hyps: MtHypothesisSet,
    bitext: Bitext,
    vocab: Vocabulary,
    m_neg: int = DEFAULT_NEGATIVES_PER_POSITIVE,
    seed: int = 0,
) -> tuple[MtEnsembleModel, float]:
    """Fit per-system weights on held-out bitext; returns (model, final loss).

    Requires a hypothesis for every bitext sentence (addressed via the
    bitext pseudo-document ids) from every system. The fit starts from
    zero weights and bias.
    """
    instances = labeled_instances(bitext, vocab, m_neg, random.Random(seed))
    groups = _Groups.of(*_instance_features(hyps, vocab, instances))

    def objective(w, b):
        return _grouped_objective(w, b, groups, DEFAULT_L2)

    weights, bias, loss = _minimize(
        objective, np.zeros(len(hyps.systems)), 0.0, DEFAULT_LEARNING_RATE,
        DEFAULT_TOLERANCE, DEFAULT_MAX_ITERATIONS,
    )
    log.info(
        "fit mt ensemble on %d instances, final loss %.6f", len(instances), loss
    )
    model = MtEnsembleModel(hyps.systems, tuple(float(w) for w in weights), bias)
    return model, loss


class MtEnsembleGenerator:
    """Evidence generator wrapping a fitted ensemble plus its hypotheses."""

    tag = MT_GENERATOR_TAG

    def __init__(self, model: MtEnsembleModel, hyps: MtHypothesisSet):
        if set(model.systems) != set(hyps.systems):
            model_name = "ensemble model" + ("" if model.source is None else f" {model.source}")
            hyps_name = "hypothesis set" + ("" if hyps.source is None else f" {hyps.source}")
            raise DataError(
                f"{model_name} systems {sorted(model.systems)} do not match"
                f" {hyps_name} systems {sorted(hyps.systems)}"
            )
        self.model = model
        self.hyps = hyps

    def columns(self, corpus: Corpus, words: Sequence[Token]) -> Columns:
        """The ensemble's probability for every segment and word.

        sigmoid(bias) is the background, for the segments whose
        translations hold none of a word. Every other cell adds to the bias,
        in model order, the weight of each system whose translation holds
        the word, as a per-segment z[holds] += weight did. The holders come
        from an index, not from z != bias, which a zero weight would fool.
        """
        keys = corpus.segment_keys
        held = self.hyps.holders(self.model.systems, keys, words)
        cells = np.unique(np.concatenate(held))  # word by word, rows ascending
        z = np.full(len(cells), self.model.bias)
        for weight, system_held in zip(self.model.weights, held):
            z[np.searchsorted(cells, system_held)] += weight
        values = sigmoid(z)
        word_codes, rows = np.divmod(cells, len(keys))
        bounds = np.searchsorted(word_codes, np.arange(len(words) + 1)).tolist()
        return {
            word: (rows[start:end], values[start:end])
            for word, start, end in zip(words, bounds, bounds[1:])
        }, sigmoid(self.model.bias)


def save_mt_ensemble(model: MtEnsembleModel, path) -> None:
    payload = {
        "systems": list(model.systems),
        "weights": list(model.weights),
        "bias": model.bias,
    }
    with atomic_output(path) as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")


def _json_number(value) -> float:
    """A JSON number as a float; true, false, strings and null are not numbers."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def load_mt_ensemble(path) -> MtEnsembleModel:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    # ValueError: bad JSON or not UTF-8; RecursionError: nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read ensemble model {path}: {exc}") from exc
    try:
        systems = payload["systems"]
        if not isinstance(systems, list):
            raise DataError(f"ensemble systems must be a JSON list, got {systems!r}")
        return MtEnsembleModel(
            tuple(systems),
            tuple(_json_number(w) for w in payload["weights"]),
            _json_number(payload["bias"]),
            str(path),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed ensemble model: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc

