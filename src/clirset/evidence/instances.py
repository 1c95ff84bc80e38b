"""Labeled (sentence, English word) training instances from held-out bitext.

Shared by the MT-ensemble fitter and the mixture-weight fitter so that
both agree on what a positive and a negative example look like: positives
are vocabulary words that occur in the reference translation, negatives
are vocabulary words that do not, sampled uniformly with replacement at a
fixed rate per positive. The searcher trainer reads its positives from
the same `reference_grid`. The negatives are drawn in bulk by
`numerics.Choices`, which `synth` shares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..corpus import Bitext, Token
from ..errors import DataError
from ..numerics import Choices
from .matrix import Vocabulary

DEFAULT_NEGATIVES_PER_POSITIVE = 50


@dataclass(frozen=True)
class LabeledInstance:
    pair_index: int
    word: Token
    label: int  # 1 = word occurs in the reference translation, 0 = it does not


@dataclass(frozen=True, eq=False)
class LabeledInstances:
    """Instances as columns: instance i is (pair_index[i], word_index[i], label[i]).

    `pair_index` (int64) numbers the bitext pair, `word_index` (int64) the
    word in `vocab`, and `label` (int8) is 1 where the word occurs in the
    pair's reference translation and 0 where it does not.
    """

    vocab: Vocabulary
    pair_index: np.ndarray
    word_index: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.label)

    def __iter__(self) -> Iterator[LabeledInstance]:
        tokens = self.vocab.tokens
        for pair, word, label in zip(
            self.pair_index.tolist(), self.word_index.tolist(), self.label.tolist()
        ):
            yield LabeledInstance(pair, tokens[word], label)


def reference_grid(bitext: Bitext, vocab: Vocabulary) -> np.ndarray:
    """(pairs x vocabulary) bool: True where the word occurs in the pair's English side."""
    grid = np.zeros((len(bitext), len(vocab)), dtype=bool)
    for row, (_, english) in zip(grid, bitext):
        row[[vocab.index_of(token) for token in english if token in vocab]] = True
    return grid


def labeled_instances(
    bitext: Bitext,
    vocab: Vocabulary,
    m_neg: int,
    rng: random.Random,
) -> LabeledInstances:
    """Positives and sampled negatives for every bitext pair, in pair order.

    A pair's positives are the vocabulary indices of its `reference_grid`
    row, ascending, and its pool the rest. Each positive is followed by
    its `m_neg` negatives, each one `rng.choice` of the pool. A pair's
    draws are made together (`numerics.Choices`), and give the same words,
    and leave `rng` in the same state, as one `rng.choice` call per
    negative.
    """
    if m_neg < 1:
        raise DataError(f"negative sampling rate {m_neg} must be >= 1")
    pairs: list[np.ndarray] = []
    words: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    choices = Choices(rng)
    for i, in_reference in enumerate(reference_grid(bitext, vocab)):
        positives = np.flatnonzero(in_reference)
        if not len(positives):
            continue
        pool = np.flatnonzero(~in_reference)
        per_positive = 1 + m_neg if len(pool) else 1
        block = np.zeros((len(positives), per_positive), dtype=np.int64)
        block[:, 0] = positives
        if len(pool):
            draws = pool[choices.draw(len(pool), m_neg * len(positives))]
            block[:, 1:] = draws.reshape(len(positives), m_neg)
        label = np.zeros((len(positives), per_positive), dtype=np.int8)
        label[:, 0] = 1
        words.append(block.ravel())
        labels.append(label.ravel())
        pairs.append(np.full(block.size, i, dtype=np.int64))
    choices.close()
    if not labels:
        raise DataError("bitext yields no positive training instances")
    label = np.concatenate(labels)
    if label.all():
        raise DataError("bitext yields no negative training instances")
    return LabeledInstances(vocab, np.concatenate(pairs), np.concatenate(words), label)
