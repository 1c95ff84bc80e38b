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
from itertools import chain
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from ..corpus import Bitext, Corpus, Query, Token, atomic_output
from ..errors import DataError
from ..numerics import DEFAULT_EPSILON

MATRIX_HEADER_PREFIX = "#generator="


def sha256_tokens(tokens: Sequence[Token]) -> str:
    """Hash of a token list, as recorded next to a saved vocabulary."""
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


def ranked_tokens(sentences: Iterable[Sequence[Token]]) -> tuple[Token, ...]:
    """Every token of `sentences`, the most frequent first, ties lexicographic."""
    counts = Counter(chain.from_iterable(sentences))
    return tuple(sorted(counts, key=lambda token: (-counts[token], token)))


@dataclass(frozen=True)
class Vocabulary:
    """Ordered English working vocabulary with O(1) membership."""

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

    def sha256(self) -> str:
        return sha256_tokens(self.tokens)

    @classmethod
    def from_bitext(cls, bitext: Bitext, size: int) -> "Vocabulary":
        """The `size` most frequent English-side tokens, ties lexicographic."""
        if size < 1:
            raise DataError(f"vocabulary size {size} must be positive")
        return cls(ranked_tokens(english for _, english in bitext)[:size])


# A generator's scores before the floor: per word, the ascending corpus
# positions (int64) of the segments holding a value, and the values
# (float64); then every other segment's value, or None for the floor.
# EvidenceMatrix takes ownership of the arrays: it floors a writeable
# values array in place and makes every array read-only. Words may share
# a rows array, and their values may be rows or slices of one array.
Columns = tuple[dict[Token, tuple[np.ndarray, np.ndarray]], float | None]


class EvidenceGenerator(Protocol):
    """One source of per-sentence relevance evidence.

    `columns(corpus, words)` scores every segment of the corpus (a text
    Sentence or a speech ConfusionNetwork), numbered by
    `corpus.segment_positions`, for the English query words `words`, which
    come sorted and distinct.
    """

    tag: str

    def columns(self, corpus: Corpus, words: Sequence[Token]) -> Columns: ...


class EvidenceMatrix:
    """p(rel | segment, word) for one generator, floored, stored by column.

    Its rows, the segments, are numbered as the `segment_positions` of
    the corpus it is built over, and it is read only by that numbering.
    Each word has one column: the ascending rows (int64) that hold a cell
    for it, and their values (float64). Every other cell reads as
    `background`, the floor unless the generator gave one. Such a
    background is a cell of the words in `filled` at every segment:
    iter_cells lists those cells too, n_cells counts the column cells only.
    """

    def __init__(
        self,
        generator: str,
        epsilon: float,
        columns: Columns,
        rows: dict[tuple[str, int], int],
        filled: Iterable[Token] = (),
    ) -> None:
        """A matrix of `columns`, floored, over the segments `rows` numbers."""
        if not generator:
            raise DataError("evidence matrix with empty generator tag")
        if not 0.0 < epsilon < 0.5:
            raise DataError(f"evidence floor {epsilon!r} outside (0, 0.5)")
        self.generator = generator
        self.epsilon = epsilon
        self.filled = frozenset(filled)
        # (doc id, segment index) -> row; the rows count up in the dict's order
        self._rows = rows
        cells, background = columns
        if background is None:
            background = epsilon
        self.background = float(self._floored(background))
        self._columns = {
            word: _read_only(column_rows, self._floored(values))
            for word, (column_rows, values) in cells.items()
        }
        # NaN passes the floor unchanged: name its first cell in corpus order
        nan = min(
            (
                (int(column_rows[np.argmax(np.isnan(values))]), word)
                for word, (column_rows, values) in self._columns.items()
                if np.isnan(values).any()
            ),
            default=None,
        )
        if self.background != self.background:  # a NaN cell at every segment
            nan = 0, min(self.filled, default=None)
        if nan is not None:
            row, word = nan
            doc_id, index = list(rows)[row]
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
        self, positions: Mapping[tuple[str, int], int], words: Iterable[Token]
    ) -> dict[Token, tuple[np.ndarray, np.ndarray]]:
        """Each word's stored cells: the rows that hold one, and their values.

        `positions` must number the segments as the matrix's rows do: it is
        the `segment_positions` of the corpus the matrix was built over, or
        equal to it. Any other numbering is a DataError. Every row a word's
        column does not hold reads as the background.
        """
        if positions is not self._rows and positions != self._rows:
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
        words = sorted(self._columns.keys() | self.filled)
        if not words:
            return
        segments = list(self._rows)
        by_key = sorted(range(len(segments)), key=segments.__getitem__)
        key_rank = np.empty(len(segments), dtype=np.int64)
        key_rank[by_key] = np.arange(len(segments))
        columns = []
        for word in words:
            rows, values = self._columns.get(word, _NO_COLUMN)
            if word in self.filled:
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

    The matrices must number their rows with one dict, as those built over
    one corpus share its `segment_positions`. A cell is stored wherever one
    of the matrices stores one; the others give their background there.
    Each cell, and the background, sums from 0 in the given order, as
    Python's sum() over the weighted values would. The background fills
    the words any of the matrices fills.
    """
    matrices = [matrix for _, matrix in weighted]
    rows = matrices[0]._rows
    if any(matrix._rows is not rows for matrix in matrices):
        raise DataError("evidence matrices to combine are not built over one corpus")
    n = len(rows)
    every_row = np.arange(n)
    cells = {}
    for word in sorted({word for matrix in matrices for word in matrix._columns}):
        held = np.zeros(n, dtype=bool)
        total = 0
        for weight, matrix in weighted:
            values = np.full(n, matrix.background)
            if word in matrix._columns:
                column_rows, column_values = matrix._columns[word]
                values[column_rows] = column_values
                held[column_rows] = True
            total = total + weight * values
        if held.all():  # a dense column stores the sum itself
            cells[word] = every_row, total
        else:
            at = np.flatnonzero(held)
            cells[word] = at, total[at]
    background = 0
    for weight, matrix in weighted:
        background = background + weight * matrix.background
    filled = frozenset().union(*(matrix.filled for matrix in matrices))
    return EvidenceMatrix(generator, epsilon, (cells, background), rows, filled)


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
    cells, background = columns
    # a background the generator gives is its value at every segment
    filled = () if background is None else cells
    return EvidenceMatrix(generator.tag, epsilon, columns, corpus.segment_positions, filled)


def save_matrix(matrix: EvidenceMatrix, path) -> int:
    """Write `matrix` as TSV; returns the number of cell lines written."""
    lines = 0
    with atomic_output(path) as out:
        out.write(f"{MATRIX_HEADER_PREFIX}{matrix.generator}\n")
        for doc_id, index, word, prob in matrix.iter_cells():
            out.write(f"{doc_id}\t{index}\t{word}\t{prob!r}\n")
            lines += 1
    return lines
