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
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from ..corpus import Bitext, Corpus, Query, Token
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

    A built matrix numbers its rows, the segments, as its corpus's
    `segment_positions`; `put` numbers a new segment next. Each word has
    one column: the ascending rows (int64) that hold a cell for it, and
    their values (float64). Every other cell reads as `background`, the
    floor unless the generator gave one. Such a background is a cell of
    the words in `filled` at every segment: iter_cells lists those cells
    too, n_cells counts the column cells only.
    """

    def __init__(
        self,
        generator: str,
        epsilon: float = DEFAULT_EPSILON,
        columns: Columns | None = None,
        rows: dict[tuple[str, int], int] | None = None,
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
        self._rows = {} if rows is None else rows
        self._own_rows = rows is None  # else the corpus's, which put must not change
        self._merged: dict[Token, tuple[np.ndarray, np.ndarray]] = {}
        # word -> {row: floored value} for the cells put since the last read
        self._puts: dict[Token, dict[int, float]] = {}
        cells, background = ({}, None) if columns is None else columns
        self.background = epsilon if background is None else float(
            # NaN here is the value of the first segment for the first word
            self._floored(
                np.array([background]),
                lambda i: (*next(iter(self._rows)), min(self.filled, default=None)),
            )[0]
        )
        for word, (column_rows, values) in cells.items():
            floored = self._floored(
                values, lambda i: (*list(self._rows)[column_rows[i]], word)
            )
            self._merged[word] = _read_only(column_rows, floored)

    def _floored(self, values: np.ndarray, cell) -> np.ndarray:
        """`values` floored into [epsilon, 1 - epsilon].

        NaN passes the floor unchanged, so it is an error naming cell(i),
        the (doc id, index, word) of value i.
        """
        floored = np.minimum(np.maximum(values, self.epsilon), 1.0 - self.epsilon)
        nan = np.isnan(floored)
        if nan.any():
            self._nan_error(*cell(int(np.argmax(nan))))
        return floored

    def _nan_error(self, doc_id: str, index: int, word: Token):
        raise DataError(
            f"generator {self.generator!r} gave NaN evidence for"
            f" document {doc_id!r} segment {index} word {word!r}"
        )

    def put(self, doc_id: str, index: int, word: Token, prob: float) -> None:
        """Store one cell, floored, replacing an earlier one.

        The cell joins its word's column when the columns are next read,
        so a series of puts takes time linear in its length.
        """
        # the scalar form of _floored: max and min keep NaN as numpy's do
        value = min(max(float(prob), self.epsilon), 1.0 - self.epsilon)
        if value != value:
            self._nan_error(doc_id, index, word)
        key = (doc_id, index)
        row = self._rows.get(key)
        if row is None:
            if not self._own_rows:
                self._rows, self._own_rows = dict(self._rows), True
            row = self._rows[key] = len(self._rows)
        self._puts.setdefault(word, {})[row] = value

    @property
    def _columns(self) -> dict[Token, tuple[np.ndarray, np.ndarray]]:
        """Each word's column, with the cells put since the last read merged in."""
        for word, cells in self._puts.items():
            rows, values = self._merged.get(word, _NO_COLUMN)
            put_rows = np.fromiter(cells, np.int64, len(cells))
            kept = ~np.isin(rows, put_rows)  # the cells a put replaces go
            rows = np.concatenate((rows[kept], put_rows))
            values = np.concatenate((values[kept], list(cells.values())))
            order = np.argsort(rows, kind="stable")
            self._merged[word] = _read_only(rows[order], values[order])
        self._puts.clear()
        return self._merged

    def cells_at(
        self, positions: Mapping[tuple[str, int], int], words: Iterable[Token]
    ) -> dict[Token, tuple[np.ndarray, np.ndarray]]:
        """Each word's stored cells at the segments `positions` numbers.

        `positions` maps (doc id, segment index) to a position. For each
        word: the positions of the segments that hold a cell for it, and
        those cells' values; every other position reads as the
        background. A matrix whose rows are numbered as `positions` (one
        built over the corpus they come from) gives its columns as they
        are; any other looks up each of its segments.
        """
        columns = {word: self._columns.get(word, _NO_COLUMN) for word in words}
        if positions is self._rows or positions == self._rows:
            return columns
        position = np.fromiter(
            map(positions.get, self._rows, repeat(-1)), np.int64, len(self._rows)
        )
        out = {}
        for word, (rows, values) in columns.items():
            at = position[rows]
            held = at >= 0
            out[word] = at[held], values[held]
        return out

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
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"{MATRIX_HEADER_PREFIX}{matrix.generator}\n")
        for doc_id, index, word, prob in matrix.iter_cells():
            out.write(f"{doc_id}\t{index}\t{word}\t{prob!r}\n")
            lines += 1
    return lines
