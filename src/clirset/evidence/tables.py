"""Translation-table evidence over text sentences and confusion networks.

For a speech utterance, the evidence that English word w is relevant is
the best arc-weighted translation probability in it: max over arcs
(f, p_f) of p(w|f) * p_f. A text sentence is read as one arc of
probability 1 per token, and p(w|f) * 1.0 == p(w|f) exactly, so its
evidence is max over tokens f of p(w|f), and a depth-1 network whose arcs
carry probability 1 reproduces the text case bit for bit.

A build reads the corpus's ArcStore. It inverts the table into postings
for the requested words only, keyed by store token id, and joins them
with the arcs whose token has any: one row per (arc, posting), valued
p(w|f) * p_f in one float64 multiply, as a product of two Python floats
rounds. A row of 0.0 (an underflow) is dropped, as a max that starts at
0.0 would never store it. Rows sorted by (word, segment) keep each
group's max through np.maximum.reduceat; a max does not depend on the
order it reads its floats in, so each cell is bit for bit the value of a
loop over the segment's arcs. Segments with no row read as the floor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..corpus import Corpus, Token, TranslationTable
from .matrix import Columns


class TranslationTableGenerator:
    """Evidence generator backed by one translation table.

    Handles both document kinds through one join over the corpus's arcs.
    The generator tag is the table's source tag, so multiple aligners
    coexist as separate matrices.
    """

    def __init__(self, table: TranslationTable):
        self.table = table
        self.tag = table.source_tag

    def columns(self, corpus: Corpus, words: Sequence[Token]) -> Columns:
        arcs = corpus.arcs
        column = {word: j for j, word in enumerate(words)}
        postings = np.array([  # (token id, word column, p(word|f)), by token id
            (token_id, column[english], prob)
            for token_id, foreign in enumerate(arcs.index)
            for english, prob in self.table.entries.get(foreign, {}).items()
            if english in column
        ], dtype=[("token", np.intp), ("word", np.intp), ("prob", np.float64)])
        count = np.bincount(postings["token"], minlength=len(arcs.index))
        # one row per (arc, posting) of each arc whose token has postings;
        # each join-sized array goes as soon as it is used
        hit = np.flatnonzero((count > 0)[arcs.ids])
        n = count[arcs.ids[hit]]
        posting = np.repeat(np.cumsum(count)[arcs.ids[hit]] - np.cumsum(n), n)
        posting += np.arange(len(posting))
        arc = np.repeat(hit, n)
        del hit, n
        value = postings["prob"][posting] * arcs.probs[arc]
        segments = len(arcs.offsets) - 1
        key = postings["word"][posting] * segments
        del posting
        key += np.searchsorted(arcs.offsets, arc, side="right") - 1
        del arc
        key, value = key[value > 0.0], value[value > 0.0]
        order = np.argsort(key, kind="stable")
        key, value = key[order], value[order]
        del order
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        best = np.maximum.reduceat(value, starts)
        cell_word, row = np.divmod(key[starts], segments)
        bounds = np.searchsorted(cell_word, np.arange(len(words) + 1)).tolist()
        return {w: (row[a:b], best[a:b]) for w, a, b in zip(words, bounds, bounds[1:])}, None
