"""Corpus values for tests, built from the nested forms tests write by hand."""

from itertools import accumulate, chain

import numpy as np

from clirset.corpus import ConfusionNetwork


def from_slots(slots):
    """The network of `slots`, each a sequence of (token, prob) arcs."""
    tokens, probs = tuple(zip(*chain.from_iterable(slots))) or ((), ())
    return ConfusionNetwork(
        tokens, np.array(probs, dtype=np.float64), tuple(accumulate(map(len, slots)))
    )


def query_words(query):
    """All of `query`'s phrase words, deduplicated, in first-seen order."""
    return list(dict.fromkeys(word for phrase in query.phrases for word in phrase))
