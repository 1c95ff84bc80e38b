"""Column-stored per-sentence evidence and the build that fills it.

An EvidenceMatrix holds p(rel | sentence, English word) for one evidence
generator, floored into [epsilon, 1 - epsilon]. Cells a word's column
does not hold read back as the matrix's background: the floor, so "no
evidence" and "evidence epsilon" are deliberately indistinguishable
downstream, or MT's sigmoid(bias) for a word no translation holds.

save_matrix writes a matrix as TSV (the `dump-evidence` output): a
`#generator=<tag>` header line followed by `doc-id <TAB> sentence-index
<TAB> english-token <TAB> prob` rows in sorted order, probabilities via
repr() so the text holds the exact floats.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from ..corpus import Bitext, Corpus, Query, Token, atomic_output
from ..errors import DataError
from ..numerics import DEFAULT_EPSILON

MATRIX_HEADER_PREFIX = "#generator="

DEFAULT_VOCAB_SIZE = 2000


def ranked_tokens(sentences: Iterable[Sequence[Token]]) -> tuple[Token, ...]:
    """Every token of `sentences`, the most frequent first, ties lexicographic."""
    counts = Counter(chain.from_iterable(sentences))
    return tuple(sorted(counts, key=lambda token: (-counts[token], token)))


@dataclass(frozen=True)
class Vocabulary:
    """Ordered tokens, English words or a searcher's foreign tokens, with O(1) lookup."""

    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise DataError("empty vocabulary")
        index = {}
        for i, token in enumerate(self.tokens):
            if token in index:
                raise DataError(f"duplicate vocabulary token {token!r}")
            index[token] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: Token) -> bool:
        return token in self._index

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def index_of(self, token: Token) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise DataError(f"token {token!r} not in vocabulary") from None

    def ids(self, tokens: Iterable[Token], missing: int) -> np.ndarray:
        """Each token's index; `missing` for a token not in the vocabulary."""
        return np.fromiter(map(self._index.get, tokens, repeat(missing)), dtype=int)

    def sha256(self) -> str:
        """Hash of the token list, as recorded next to a saved vocabulary."""
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    @classmethod
    def from_bitext(
        cls, bitext: Bitext, vocab_size: int = DEFAULT_VOCAB_SIZE
    ) -> "Vocabulary":
        """The `vocab_size` most frequent English-side tokens, ties lexicographic."""
        if vocab_size < 1:
            raise DataError(f"vocabulary size {vocab_size} must be positive")
        return cls(ranked_tokens(english for _, english in bitext)[:vocab_size])


# A generator's scores before the floor: per word, the ascending rows
# (int64, in segment_keys order) of the segments holding a value, and the values
# (float64); then every other segment's value, or None for the floor.
# EvidenceMatrix takes ownership of the arrays: it floors a writeable
# values array in place and makes every array read-only. Words may share
# a rows array, and their values may be rows or slices of one array.
Columns = tuple[dict[Token, tuple[np.ndarray, np.ndarray]], float | None]


class EvidenceGenerator(Protocol):
    """One source of per-sentence relevance evidence.

    `columns(corpus, words)` scores every segment of the corpus (a text
    Sentence or a speech ConfusionNetwork), in the order of
    `corpus.segment_keys`, for the English query words `words`, which
    come sorted and distinct.
    """

    tag: str

    def columns(self, corpus: Corpus, words: Sequence[Token]) -> Columns: ...


class EvidenceMatrix:
    """p(rel | segment, word) for one generator, floored, stored by column.

    Its rows are the segments in the order of `keys`, the `segment_keys`
    of the corpus it is built over, and it is read only in that order.
    Each word has one column: the ascending rows (int64) that hold a cell
    for it, and their values (float64). Every other cell reads as
    `background`, the floor unless the generator gave one. When it gave
    one, the matrix is `filled`: the background is a cell of every column
    word at every segment, which iter_cells lists too; n_cells counts the
    column cells only.
    """

    def __init__(
        self,
        generator: str,
        epsilon: float,
        columns: Columns,
        keys: Sequence[tuple[str, int]],
        filled: bool = False,
    ) -> None:
        """A matrix of `columns`, floored, over the segments `keys` lists."""
        if not generator:
            raise DataError("evidence matrix with empty generator tag")
        if not 0.0 < epsilon < 0.5:
            raise DataError(f"evidence floor {epsilon!r} outside (0, 0.5)")
        self.generator = generator
        self.epsilon = epsilon
        self.filled = filled
        self._keys = keys  # (doc id, segment index) of each row
        cells, background = columns
        if background is None:
            background = epsilon
        self.background = float(self._floored(background))
        self._columns = {
            word: _read_only(column_rows, self._floored(values))
            for word, (column_rows, values) in cells.items()
        }
        # NaN passes the floor unchanged: name its first cell in corpus order
        nans = [
            (int(column_rows[np.argmax(np.isnan(values))]), word)
            for word, (column_rows, values) in self._columns.items()
            if np.isnan(values).any()
        ]
        if self.background != self.background:  # a NaN cell at every segment
            nans = [(0, min(self._columns, default=None))]
        if nans:
            row, word = min(nans)
            doc_id, index = keys[row]
            raise DataError(
                f"generator {generator!r} gave NaN evidence for"
                f" document {doc_id!r} segment {index} word {word!r}"
            )

    def _floored(self, values) -> np.ndarray:
        """`values` clamped into [epsilon, 1 - epsilon]: in place unless read-only."""
        values = np.asarray(values, dtype=float)
        if not values.flags.writeable:
            values = values.copy()
        np.maximum(values, self.epsilon, out=values)
        return np.minimum(values, 1.0 - self.epsilon, out=values)

    def cells_at(
        self, keys: Sequence[tuple[str, int]], words: Iterable[Token]
    ) -> dict[Token, tuple[np.ndarray, np.ndarray]]:
        """Each word's stored cells: the rows that hold one, and their values.

        `keys` must list the segments in the matrix's row order: it is the
        `segment_keys` of the corpus the matrix was built over, or equal to
        it. Any other order is a DataError. Every row a word's column does
        not hold reads as the background.
        """
        if keys is not self._keys and keys != self._keys:
            raise DataError(
                f"evidence matrix {self.generator!r} is read over a corpus"
                " it was not built over"
            )
        return {word: self._columns.get(word, _NO_COLUMN) for word in words}

    def n_cells(self) -> int:
        """The cells the columns hold; background cells are not counted."""
        return sum(len(rows) for rows, _ in self._columns.values())

    def iter_cells(self) -> Iterator[tuple[str, int, Token, float]]:
        """All held cells, background ones included, in sorted (doc, sentence, word) order."""
        words = sorted(self._columns)
        if not words:
            return
        segments = self._keys
        # each row's place in sorted key order
        key_rank = np.argsort(sorted(range(len(segments)), key=segments.__getitem__))
        columns = []
        for word in words:
            rows, values = self._columns[word]
            if self.filled:
                full = np.full(len(segments), self.background)
                full[rows] = values
                rows, values = np.arange(len(segments)), full
            columns.append((rows, values))
        rows = np.concatenate([rows for rows, _ in columns])
        values = np.concatenate([values for _, values in columns])
        word_ids = np.repeat(
            np.arange(len(words)), [len(rows) for rows, _ in columns]
        )
        order = np.lexsort((word_ids, key_rank[rows]))
        for start in range(0, len(order), _ITER_CHUNK):
            chunk = order[start : start + _ITER_CHUNK]
            for row, word_id, value in zip(
                rows[chunk].tolist(), word_ids[chunk].tolist(), values[chunk].tolist()
            ):
                doc_id, index = segments[row]
                yield doc_id, index, words[word_id], value


# Cells converted to Python objects at a time by iter_cells.
_ITER_CHUNK = 1 << 16


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


_NO_COLUMN = _read_only(np.empty(0, dtype=np.int64), np.empty(0))


def weighted_sum(
    generator: str,
    weighted: Sequence[tuple[float, EvidenceMatrix]],
    epsilon: float,
) -> EvidenceMatrix:
    """The matrix of sum(weight * matrix value) over `weighted`, floored.

    The matrices must order their rows by one tuple of keys, as those built
    over one corpus share its `segment_keys`. A cell is stored wherever one
    of the matrices stores one; the others give their background there.
    Each cell, and the background, sums from 0 in the given order, as
    Python's sum() over the weighted values would. The sum is filled when
    any of the matrices is.
    """
    matrices = [matrix for _, matrix in weighted]
    keys = matrices[0]._keys
    if any(matrix._keys is not keys for matrix in matrices):
        raise DataError("evidence matrices to combine are not built over one corpus")
    n = len(keys)
    every_row = np.arange(n)
    cells = {}
    for word in sorted({word for matrix in matrices for word in matrix._columns}):
        held = np.zeros(n, dtype=bool)
        total = 0
        for weight, matrix in weighted:
            values = np.full(n, matrix.background)
            column_rows, column_values = matrix._columns.get(word, _NO_COLUMN)
            values[column_rows] = column_values
            held[column_rows] = True
            total = total + weight * values
        if held.all():  # a dense column stores the sum itself
            cells[word] = every_row, total
        else:
            at = np.flatnonzero(held)
            cells[word] = at, total[at]
    background = sum(weight * matrix.background for weight, matrix in weighted)
    filled = any(matrix.filled for matrix in matrices)
    return EvidenceMatrix(generator, epsilon, (cells, background), keys, filled)


def query_words(queries: Iterable[Query]) -> list[Token]:
    """Distinct phrase words across queries, sorted for determinism."""
    words = {word for query in queries for phrase in query.phrases for word in phrase}
    return sorted(words)


def build_evidence(
    generator: EvidenceGenerator,
    corpus: Corpus,
    queries: Iterable[Query],
    epsilon: float = DEFAULT_EPSILON,
) -> EvidenceMatrix:
    """Run one generator over every (document, segment, query word)."""
    return build_evidence_for_words(generator, corpus, query_words(queries), epsilon)


def build_evidence_for_words(
    generator: EvidenceGenerator,
    corpus: Corpus,
    words: Iterable[Token],
    epsilon: float = DEFAULT_EPSILON,
) -> EvidenceMatrix:
    columns = generator.columns(corpus, sorted(set(words)))
    # a background the generator gives is its value at every segment
    filled = columns[1] is not None
    return EvidenceMatrix(generator.tag, epsilon, columns, corpus.segment_keys, filled)


def save_matrix(matrix: EvidenceMatrix, path) -> int:
    """Write `matrix` as TSV; returns the number of cell lines written."""
    lines = 0
    with atomic_output(path) as out:
        out.write(f"{MATRIX_HEADER_PREFIX}{matrix.generator}\n")
        for doc_id, index, word, prob in matrix.iter_cells():
            out.write(f"{doc_id}\t{index}\t{word}\t{prob!r}\n")
            lines += 1
    return lines
