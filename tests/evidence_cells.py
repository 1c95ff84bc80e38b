"""Evidence matrices for tests, made through EvidenceMatrix's one constructor."""

import numpy as np

from clirset.evidence import EvidenceMatrix
from clirset.numerics import DEFAULT_EPSILON


def matrix_over(corpus, cells, tag="t", epsilon=DEFAULT_EPSILON):
    """The matrix of `cells`, (doc id, segment index, word, p), over `corpus`.

    Its rows are numbered by `corpus.segment_positions`, as a built
    matrix's are. A later cell for a segment and word replaces an earlier one.
    """
    positions = corpus.segment_positions
    by_word = {}
    for doc_id, index, word, p in cells:
        by_word.setdefault(word, {})[positions[doc_id, index]] = p
    columns = {}
    for word, held in by_word.items():
        rows = sorted(held)
        columns[word] = (
            np.array(rows, dtype=np.int64),
            np.array([held[row] for row in rows], dtype=float),
        )
    return EvidenceMatrix(tag, epsilon, (columns, None), positions)
