"""Labeled (sentence, English word) training instances from held-out bitext.

Shared by the MT-ensemble fitter, the embedding scorer trainer, and the
mixture-weight fitter so that all of them agree on what a positive and a
negative example look like: positives are vocabulary words that occur in
the reference translation, negatives are vocabulary words that do not,
sampled uniformly with replacement at a fixed rate per positive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..corpus import Bitext, Token
from ..errors import DataError
from .matrix import Vocabulary

DEFAULT_NEGATIVES_PER_POSITIVE = 50


@dataclass(frozen=True)
class LabeledInstance:
    pair_index: int
    word: Token
    label: int  # 1 = word occurs in the reference translation, 0 = it does not


def labeled_instances(
    bitext: Bitext,
    vocab: Vocabulary,
    m_neg: int,
    rng: random.Random,
) -> list[LabeledInstance]:
    """Positives and sampled negatives for every bitext pair, in pair order."""
    if m_neg < 1:
        raise DataError(f"negative sampling rate {m_neg} must be >= 1")
    instances: list[LabeledInstance] = []
    for i, (_, english) in enumerate(bitext):
        reference = set(english)
        positives = [token for token in vocab if token in reference]
        if not positives:
            continue
        pool = [token for token in vocab if token not in reference]
        for word in positives:
            instances.append(LabeledInstance(i, word, 1))
            if pool:
                for _ in range(m_neg):
                    instances.append(LabeledInstance(i, rng.choice(pool), 0))
    if not any(inst.label == 1 for inst in instances):
        raise DataError("bitext yields no positive training instances")
    if not any(inst.label == 0 for inst in instances):
        raise DataError("bitext yields no negative training instances")
    return instances
