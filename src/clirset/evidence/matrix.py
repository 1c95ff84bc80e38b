"""Sparse per-sentence evidence storage and the generator driver.

An EvidenceMatrix holds p(rel | sentence, English word) for one evidence
generator, floored into [epsilon, 1 - epsilon]. Cells that were never
stored read back as the floor, so "no evidence" and "evidence epsilon"
are deliberately indistinguishable downstream.

save_matrix writes a matrix as TSV (the `dump-evidence` output): a
`#generator=<tag>` header line followed by `doc-id <TAB> sentence-index
<TAB> english-token <TAB> prob` rows in sorted order, probabilities via
repr() so the text holds the exact floats.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from ..corpus import Bitext, Corpus, Document, Query, Token
from ..errors import DataError
from ..numerics import DEFAULT_EPSILON

MATRIX_HEADER_PREFIX = "#generator="


def sha256_tokens(tokens: Sequence[Token]) -> str:
    """Hash of a token list, as recorded next to a saved vocabulary."""
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


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
        counts: Counter[Token] = Counter()
        for _, english in bitext:
            counts.update(english)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return cls(tuple(token for token, _ in ranked[:size]))


# Scores one segment, (document, segment index, segment) -> {word: p}, for
# the words its generator was bound to.
SegmentScorer = Callable[[Document, int, Any], Mapping[Token, float]]


class EvidenceGenerator(Protocol):
    """One source of per-sentence relevance evidence.

    A build first binds the generator to the English query words it will
    score, in sorted order: `scorer(words)` does, once per build, whatever
    work depends only on the words, and returns the per-segment function.
    That function takes the document, the segment index and the segment (a
    text Sentence or a speech ConfusionNetwork) and returns a mapping for
    the words it has evidence about; unscored words fall to the floor when
    read back from the matrix.
    """

    tag: str

    def scorer(self, words: Sequence[Token]) -> SegmentScorer: ...


class EvidenceMatrix:
    """p(rel | segment, word) for one generator, floored and sparse.

    The store is columnar. A segment registry numbers every (doc id,
    segment index) that holds a cell, in the order it was first written.
    Each word has one column: the sorted row numbers (int64) of the
    segments that hold a cell for it, and their values (float64). Writes
    go to a log, which is packed into arrays every _LOG_CELLS cells and
    sorted into the columns the next time the matrix is read; a later
    write of a cell replaces the earlier. put_row is the one way to write
    cells; weighted_sum, which makes a matrix from whole columns, floors
    them through the same check.
    """

    def __init__(self, generator: str, epsilon: float = DEFAULT_EPSILON) -> None:
        if not generator:
            raise DataError("evidence matrix with empty generator tag")
        if not 0.0 < epsilon < 0.5:
            raise DataError(f"evidence floor {epsilon!r} outside (0, 0.5)")
        self.generator = generator
        self.epsilon = epsilon
        self._rows: dict[tuple[str, int], int] = {}
        self._segments: list[tuple[str, int]] = []
        self._columns: dict[Token, tuple[np.ndarray, np.ndarray]] = {}
        # The write log: blocks of consecutive rows written with the same
        # words, as (words, row numbers, per row its floored values).
        self._log: list[tuple[tuple[Token, ...], list[int], list[np.ndarray]]] = []
        self._log_cells = 0
        # Packed log cells, per word: (rows, values) pieces in write order.
        self._pieces: dict[Token, list[tuple[np.ndarray, np.ndarray]]] = {}

    def _row(self, key: tuple[str, int]) -> int:
        """The row number of a segment, registering it if it is new."""
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = len(self._segments)
            self._segments.append(key)
        return row

    def _floored(self, values: np.ndarray, cell) -> np.ndarray:
        """`values` floored into [epsilon, 1 - epsilon].

        NaN passes the floor unchanged, so it is an error naming cell(i),
        the (doc id, index, word) of value i.
        """
        floored = np.minimum(np.maximum(values, self.epsilon), 1.0 - self.epsilon)
        nan = np.isnan(floored)
        if nan.any():
            doc_id, index, word = cell(int(np.argmax(nan)))
            raise DataError(
                f"generator {self.generator!r} gave NaN evidence for"
                f" document {doc_id!r} segment {index} word {word!r}"
            )
        return floored

    def put_row(
        self, doc_id: str, index: int, scores: Mapping[Token, float]
    ) -> None:
        """Store one segment's scores, floored; an empty mapping stores nothing."""
        if not scores:
            return
        words = tuple(scores)
        floored = self._floored(
            np.fromiter(scores.values(), np.float64, len(words)),
            lambda i: (doc_id, index, words[i]),
        )
        row = self._row((doc_id, index))
        if not self._log or self._log[-1][0] != words:
            self._log.append((words, [], []))
        _, rows, values = self._log[-1]
        rows.append(row)
        values.append(floored)
        self._log_cells += len(words)
        if self._log_cells >= _LOG_CELLS:
            self._pack_log()

    def put(self, doc_id: str, index: int, word: Token, prob: float) -> None:
        self.put_row(doc_id, index, {word: prob})

    def _pack_log(self) -> None:
        """Move the write log into per-word array pieces, in write order.

        A block of several rows (a generator that scores every word of
        every segment writes one) packs as a (rows x words) array; runs of
        one-row blocks pack together, cell by cell.
        """
        run: list[tuple[tuple[Token, ...], int, np.ndarray]] = []
        for words, rows, values in self._log:
            if len(rows) == 1:
                run.append((words, rows[0], values[0]))
                continue
            self._pack_cells(run)
            run = []
            block = np.array(values)
            rows = np.array(rows, dtype=np.int64)
            for j, word in enumerate(words):
                self._pieces.setdefault(word, []).append((rows, block[:, j]))
        self._pack_cells(run)
        self._log, self._log_cells = [], 0

    def _pack_cells(self, run: list[tuple[tuple[Token, ...], int, np.ndarray]]) -> None:
        if not run:
            return
        words = [word for row_words, _, _ in run for word in row_words]
        distinct = list(dict.fromkeys(words))
        code = {word: i for i, word in enumerate(distinct)}
        codes = np.fromiter(map(code.__getitem__, words), np.int64, len(words))
        values = np.concatenate([values for _, _, values in run])
        rows = np.repeat([row for _, row, _ in run], [len(w) for w, _, _ in run])
        by_word = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes)).tolist()
        for word, start, end in zip(distinct, [0, *ends], ends):
            cells = by_word[start:end]
            self._pieces.setdefault(word, []).append((rows[cells], values[cells]))

    def _merge(self) -> None:
        """Sort everything written so far into the columns."""
        self._pack_log()
        for word, pieces in self._pieces.items():
            if word in self._columns:
                pieces.insert(0, self._columns[word])
            rows = np.concatenate([rows for rows, _ in pieces])
            values = np.concatenate([values for _, values in pieces])
            if np.any(rows[1:] <= rows[:-1]):
                order = np.argsort(rows, kind="stable")
                rows, values = rows[order], values[order]
                last = np.append(rows[1:] != rows[:-1], True)  # last write wins
                rows, values = rows[last], values[last]
            rows.flags.writeable = False
            values.flags.writeable = False
            self._columns[word] = rows, values
        self._pieces = {}

    def cells_at(
        self, positions: Mapping[tuple[str, int], int], words: Iterable[Token]
    ) -> dict[Token, tuple[np.ndarray, np.ndarray]]:
        """Each word's stored cells at the segments `positions` numbers.

        `positions` maps (doc id, segment index) to a position. For each
        word: the positions of the segments that hold a cell for it, and
        those cells' values; every other position reads as the floor. Only
        the segments holding a cell for one of the words are looked up.
        """
        self._merge()
        columns = {word: self._columns.get(word, _NO_COLUMN) for word in words}
        wanted = np.zeros(len(self._segments), dtype=bool)
        for rows, _ in columns.values():
            wanted[rows] = True
        needed = np.flatnonzero(wanted)
        keys = map(self._segments.__getitem__, needed.tolist())
        position = np.full(len(self._segments), -1, dtype=np.int64)
        position[needed] = np.fromiter(
            map(positions.get, keys, repeat(-1)), np.int64, len(needed)
        )
        out = {}
        for word, (rows, values) in columns.items():
            at = position[rows]
            held = at >= 0
            out[word] = at[held], values[held]
        return out

    def n_cells(self) -> int:
        self._merge()
        return sum(len(rows) for rows, _ in self._columns.values())

    def iter_cells(self) -> Iterator[tuple[str, int, Token, float]]:
        """All stored cells in sorted (doc, sentence, word) order."""
        self._merge()
        words = sorted(self._columns)
        if not words:
            return
        segments = self._segments
        by_key = sorted(range(len(segments)), key=segments.__getitem__)
        key_rank = np.empty(len(segments), dtype=np.int64)
        key_rank[by_key] = np.arange(len(segments))
        columns = [self._columns[word] for word in words]
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


# Cells the write log holds before it is packed into per-word arrays.
_LOG_CELLS = 1 << 16

# Cells converted to Python objects at a time by iter_cells.
_ITER_CHUNK = 1 << 16

_NO_COLUMN = (np.empty(0, dtype=np.int64), np.empty(0))
for _array in _NO_COLUMN:
    _array.flags.writeable = False


def weighted_sum(
    generator: str,
    weighted: Sequence[tuple[float, EvidenceMatrix]],
    epsilon: float,
) -> EvidenceMatrix:
    """The matrix of sum(weight * matrix value) over `weighted`, floored.

    A cell is stored wherever one of the matrices stores one; the others
    give their floor `epsilon` there. Each cell sums from 0 in the given
    order, as Python's sum() over the weighted values would.
    """
    out = EvidenceMatrix(generator, epsilon)
    parts = []
    for weight, matrix in weighted:
        matrix._merge()
        segments = matrix._segments
        rows = np.fromiter(map(out._row, segments), np.int64, len(segments))
        parts.append((weight, rows, matrix._columns))
    n = len(out._segments)
    for word in sorted({word for _, _, columns in parts for word in columns}):
        held = np.zeros(n, dtype=bool)
        for _, own_rows, columns in parts:
            if word in columns:
                held[own_rows[columns[word][0]]] = True
        rows = np.flatnonzero(held)
        total = 0
        for weight, own_rows, columns in parts:
            values = np.full(n, epsilon)
            if word in columns:
                column_rows, column_values = columns[word]
                values[own_rows[column_rows]] = column_values
            total = total + weight * values[rows]
        floored = out._floored(total, lambda i: (*out._segments[rows[i]], word))
        out._pieces[word] = [(rows, floored)]
    return out


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
    score = generator.scorer(sorted(set(words)))
    matrix = EvidenceMatrix(generator.tag, epsilon)
    for doc in corpus:
        for index, segment in enumerate(doc.segments):
            matrix.put_row(doc.id, index, score(doc, index, segment))
    matrix._merge()  # the columns are part of building the matrix
    return matrix


def save_matrix(matrix: EvidenceMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"{MATRIX_HEADER_PREFIX}{matrix.generator}\n")
        for doc_id, index, word, prob in matrix.iter_cells():
            out.write(f"{doc_id}\t{index}\t{word}\t{prob!r}\n")
