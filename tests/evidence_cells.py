"""Evidence matrices for tests, made through EvidenceMatrix's one constructor."""

import numpy as np

from clirset.evidence import EvidenceMatrix
from clirset.numerics import DEFAULT_EPSILON


def matrix_over(corpus, cells, tag="t", epsilon=DEFAULT_EPSILON):
    """The matrix of `cells`, (doc id, segment index, word, p), over `corpus`.

    Its rows are the segments in the order of `corpus.segment_keys`, as a
    built matrix's are. A later cell for a segment and word replaces an
    earlier one.
    """
    keys = corpus.segment_keys
    row_of = {key: row for row, key in enumerate(keys)}
    by_word = {}
    for doc_id, index, word, p in cells:
        by_word.setdefault(word, {})[row_of[doc_id, index]] = p
    columns = {}
    for word, held in by_word.items():
        rows = sorted(held)
        columns[word] = (
            np.array(rows, dtype=np.int64),
            np.array([held[row] for row in rows], dtype=float),
        )
    return EvidenceMatrix(tag, epsilon, (columns, None), keys)
