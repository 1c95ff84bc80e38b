"""Translation-table evidence over text sentences and confusion networks.

For a speech utterance, the evidence that English word w is relevant is
the best arc-weighted translation probability in it: max over arcs
(f, p_f) of p(w|f) * p_f. A text sentence is read as one arc of
probability 1 per token, and p(w|f) * 1.0 == p(w|f) exactly, so its
evidence is max over tokens f of p(w|f), and a depth-1 network whose arcs
carry probability 1 reproduces the text case bit for bit.

A build asks for a fixed set of English words, so the generator first
inverts the table into postings for those words only: foreign token to
its (word, p(word|f)) pairs, without the foreign tokens that reach none of
them. Each arc then costs one lookup, and the table entries of words no
one asked for are never touched. Each segment's best values go straight
into the words' columns; the other segments read as the floor.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

import numpy as np

from ..corpus import ConfusionNetwork, Corpus, Token, TranslationTable
from .matrix import Columns


class TranslationTableGenerator:
    """Evidence generator backed by one translation table.

    Handles both document kinds through one loop over arcs. The generator
    tag is the table's source tag, so multiple aligners coexist as
    separate matrices.
    """

    def __init__(self, table: TranslationTable):
        self.table = table
        self.tag = table.source_tag

    def columns(self, corpus: Corpus, words: Sequence[Token]) -> Columns:
        wanted = set(words)
        postings: dict[Token, list[tuple[Token, float]]] = {}
        for foreign, row in self.table.entries.items():
            hits = [(english, p) for english, p in row.items() if english in wanted]
            if hits:
                postings[foreign] = hits

        cells: dict[Token, tuple[list[int], list[float]]] = {w: ([], []) for w in words}
        segments = (segment for doc in corpus for segment in doc.segments)
        for position, segment in enumerate(segments):
            if isinstance(segment, ConfusionNetwork):
                # Python floats, so prob * arc_prob rounds as in the text case
                arcs = zip(segment.tokens, segment.probs.tolist())
            else:
                arcs = zip(segment, repeat(1.0))
            best: dict[Token, float] = {}
            for foreign, arc_prob in arcs:
                for english, prob in postings.get(foreign, ()):
                    value = prob * arc_prob
                    if value > best.get(english, 0.0):
                        best[english] = value
            for english, value in best.items():
                rows, values = cells[english]
                rows.append(position)
                values.append(value)
        return {
            word: (np.array(rows, dtype=np.int64), np.array(values, dtype=float))
            for word, (rows, values) in cells.items()
        }, None
