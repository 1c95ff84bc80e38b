"""Sparse per-sentence evidence storage and the generator driver.

An EvidenceMatrix holds p(rel | sentence, English word) for one evidence
generator, floored into [epsilon, 1 - epsilon]. Cells that were never
stored read back as the floor, so "no evidence" and "evidence epsilon"
are deliberately indistinguishable downstream.

Persisted form is TSV with a `#generator=<tag>` header line followed by
`doc-id <TAB> sentence-index <TAB> english-token <TAB> prob` rows in
sorted order, probabilities via repr() for exact round trips.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from ..corpus import (
    Bitext,
    Corpus,
    Document,
    Query,
    Token,
    data_lines,
    parse_index,
    parse_prob,
    split_tsv,
)
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


class EvidenceGenerator(Protocol):
    """One source of per-sentence relevance evidence.

    `segment` is a text Sentence or a speech ConfusionNetwork; `words` is
    the set of English query words to score. Implementations return a
    mapping for the words they have evidence about; unscored words fall to
    the floor when read back from the matrix.
    """

    tag: str

    def segment_scores(
        self, doc: Document, index: int, segment, words: Iterable[Token]
    ) -> Mapping[Token, float]: ...


@dataclass
class EvidenceMatrix:
    """p(rel | sentence, word) for one generator, floored and sparse."""

    generator: str
    epsilon: float = DEFAULT_EPSILON
    cells: dict[str, dict[int, dict[Token, float]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.generator:
            raise DataError("evidence matrix with empty generator tag")
        if not 0.0 < self.epsilon < 0.5:
            raise DataError(f"evidence floor {self.epsilon!r} outside (0, 0.5)")

    def put_row(
        self, doc_id: str, index: int, scores: Mapping[Token, float]
    ) -> None:
        """Store one segment's scores, floored; an empty mapping stores nothing."""
        if not scores:
            return
        lo, hi = self.epsilon, 1.0 - self.epsilon
        row = {}
        for word, prob in scores.items():
            # NaN fails both clamp comparisons and would be stored as is.
            if prob != prob:
                raise DataError(
                    f"generator {self.generator!r} gave NaN evidence for"
                    f" document {doc_id!r} segment {index} word {word!r}"
                )
            row[word] = lo if prob < lo else hi if prob > hi else prob
        self.cells.setdefault(doc_id, {}).setdefault(index, {}).update(row)

    def put(self, doc_id: str, index: int, word: Token, prob: float) -> None:
        self.put_row(doc_id, index, {word: prob})

    def get(self, doc_id: str, index: int, word: Token) -> float:
        return self.cells.get(doc_id, {}).get(index, {}).get(word, self.epsilon)

    def n_cells(self) -> int:
        return sum(
            len(words) for doc in self.cells.values() for words in doc.values()
        )

    def iter_cells(self) -> Iterator[tuple[str, int, Token, float]]:
        """All stored cells in sorted (doc, sentence, word) order."""
        for doc_id in sorted(self.cells):
            by_sentence = self.cells[doc_id]
            for index in sorted(by_sentence):
                row = by_sentence[index]
                for word in sorted(row):
                    yield doc_id, index, word, row[word]


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
    words = sorted(set(words))
    matrix = EvidenceMatrix(generator.tag, epsilon)
    for doc in corpus:
        for index, segment in enumerate(doc.segments):
            matrix.put_row(
                doc.id, index, generator.segment_scores(doc, index, segment, words)
            )
    return matrix


def save_matrix(matrix: EvidenceMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"{MATRIX_HEADER_PREFIX}{matrix.generator}\n")
        for doc_id, index, word, prob in matrix.iter_cells():
            out.write(f"{doc_id}\t{index}\t{word}\t{prob!r}\n")


def load_matrix(path, epsilon: float = DEFAULT_EPSILON) -> EvidenceMatrix:
    matrix: EvidenceMatrix | None = None
    for lineno, line in data_lines(path):
        if matrix is None:
            if not line.startswith(MATRIX_HEADER_PREFIX):
                raise DataError(
                    f"{path}:{lineno}: evidence matrix must start with"
                    f" {MATRIX_HEADER_PREFIX!r}"
                )
            tag = line[len(MATRIX_HEADER_PREFIX) :]
            try:
                matrix = EvidenceMatrix(tag, epsilon)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            continue
        doc_id, index_raw, word, prob_raw = split_tsv(path, lineno, line, 4)
        index = parse_index(path, lineno, index_raw)
        if index < 0:
            raise DataError(f"{path}:{lineno}: negative sentence index {index}")
        prob = parse_prob(path, lineno, prob_raw)
        if not 0.0 <= prob <= 1.0:
            raise DataError(
                f"{path}:{lineno}: probability {prob!r} outside [0, 1]"
            )
        matrix.put(doc_id, index, word, prob)
    if matrix is None:
        raise DataError(f"{path}: empty evidence matrix file")
    return matrix
