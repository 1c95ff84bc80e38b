"""Domain types and file formats for the retrieval engine.

Documents (text sentences or speech confusion networks), English queries,
translation tables, parallel bitext, and relevance judgments, plus the
tokenizer that every raw text field passes through. Loaded structures are
immutable; loaders validate invariants and raise DataError with file and
line context. A speech utterance's ConfusionNetwork stores its arcs as
columns (a token tuple, one float64 array, the slot ends), not as one
Python object per arc. A Corpus also holds every arc of every segment in
one ArcStore (a text token is an arc of probability 1.0 and a slot),
which `load_corpus` fills and checks a document at a time as it parses, at
one dict lookup per arc. A loaded speech document's arcs live in the store
only: its networks are built from it, as views, each time they are read.

File formats:
  - corpus: JSONL, one document per line.
      text:   {"id": ..., "kind": "text", "sentences": ["raw sentence", ...]}
      speech: {"id": ..., "kind": "speech",
               "utterances": [[[token, prob], ...] per slot] per utterance}
  - translation table: TSV  foreign <TAB> english <TAB> prob
  - bitext: TSV             foreign sentence <TAB> english sentence
  - queries: TSV            query-id <TAB> query string
  - judgments: TSV          query-id <TAB> doc-id
"""

from __future__ import annotations

import gc
import json
import os
import re
import string
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError

Token = str
Sentence = tuple[Token, ...]
QueryPhrase = tuple[Token, ...]

TEXT = "text"
SPEECH = "speech"

LEXICAL = "lexical"
CONCEPTUAL = "conceptual"
EXAMPLE_OF = "example_of"

# Slack for floating-point sums read back from files.
SLOT_SUM_TOLERANCE = 1e-6
TABLE_SUM_TOLERANCE = 1e-4

_EXAMPLE_OF_RE = re.compile(r"^EXAMPLE_OF\((.+)\)$")


def normalize(raw: str) -> Sentence:
    """Lowercase, split on whitespace, strip edge punctuation per piece.

    Interior punctuation survives ("HIV/influenza" -> ("hiv/influenza",));
    pieces that were pure punctuation are dropped. Idempotent: normalizing
    the space-joined output is a no-op. Every token is interned, so equal
    tokens are one string object across every file a process reads.
    """
    tokens = []
    for piece in raw.lower().split():
        piece = piece.strip(string.punctuation)
        if piece:
            tokens.append(sys.intern(piece))
    return tuple(tokens)


@dataclass(frozen=True, eq=False, slots=True)
class ConfusionNetwork:
    """Sausage lattice for one utterance, stored as columns of arcs.

    Arc i has token tokens[i] and probability probs[i] (one read-only
    float64 array per network); slot j holds the arcs from ends[j - 1]
    (0 for the first slot) up to ends[j]. Every arc probability is > 0
    and each slot's probabilities sum to at most 1 (plus tolerance); the
    deficit is unmodeled mass.
    """

    tokens: tuple[Token, ...]
    probs: np.ndarray
    ends: tuple[int, ...]

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        tokens, ends = self.tokens, self.ends
        if not ends:
            raise DataError("confusion network has no slots")
        if probs.shape != (len(tokens),) or ends[-1] != len(tokens):
            raise DataError(
                f"confusion network has {len(tokens)} tokens, {probs.size} probs"
                f" and slots ending at arc {ends[-1]}"
            )
        # The arcs are checked as a whole first. min and max pass over a NaN
        # that is not first, but it makes its slot's sum NaN. A slot is
        # checked arc by arc only when the whole check or its sum fails, so
        # the error names the first slot at fault and, in it, the first arc.
        # Each slot sums from 0.0 in arc order, as numpy's pairwise sums
        # would not.
        values = probs.tolist()
        arcs_ok = (
            all(tokens)
            and 0.0 < min(values, default=1.0)
            and max(values, default=1.0) <= 1.0
        )
        start = 0
        for i, end in enumerate(ends):
            if end <= start:
                raise DataError(f"confusion network slot {i} is empty")
            total = 0.0
            if arcs_ok:
                for prob in values[start:end]:
                    total += prob
            if not arcs_ok or total != total:
                total = 0.0
                for token, prob in zip(tokens[start:end], values[start:end]):
                    if not token:
                        raise DataError(
                            f"confusion network slot {i} has an empty token"
                        )
                    if not 0.0 < prob <= 1.0:
                        raise DataError(
                            f"confusion network slot {i} arc prob {prob!r}"
                            " outside (0, 1]"
                        )
                    total += prob
            if total > 1.0 + SLOT_SUM_TOLERANCE:
                raise DataError(
                    f"confusion network slot {i} probs sum to {total!r} > 1"
                )
            start = end

    @property
    def slots(self) -> tuple[tuple[tuple[Token, float], ...], ...]:
        """The arcs of each slot as (token, prob) pairs, built on each call."""
        probs = self.probs.tolist()
        return tuple(
            tuple(zip(self.tokens[start:end], probs[start:end]))
            for start, end in zip((0, *self.ends), self.ends)
        )

    def one_best(self) -> Sentence:
        """Highest-probability token per slot (first arc wins ties)."""
        probs = self.probs.tolist()
        best = []
        for start, end in zip((0, *self.ends), self.ends):
            slot = probs[start:end]
            best.append(self.tokens[start + slot.index(max(slot))])
        return tuple(best)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConfusionNetwork):
            return NotImplemented
        return (
            self.tokens == other.tokens
            and self.ends == other.ends
            and np.array_equal(self.probs, other.probs)
        )


def _checked_network(tokens, probs, ends) -> ConfusionNetwork:
    """A network over arcs load_corpus has checked in bulk, built unchecked."""
    cn = object.__new__(ConfusionNetwork)
    for field, value in zip(ConfusionNetwork.__slots__, (tokens, probs, ends)):
        object.__setattr__(cn, field, value)
    return cn


@dataclass(frozen=True)
class Document:
    """One retrievable unit: text sentences or speech confusion networks."""

    id: str
    kind: str
    sentences: tuple[Sentence, ...] = ()
    utterances: Sequence[ConfusionNetwork] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("document with empty id")
        if self.kind == TEXT:
            if not self.sentences or self.utterances:
                raise DataError(f"text document {self.id!r} must carry sentences only")
            for j, sent in enumerate(self.sentences):
                if not sent:
                    raise DataError(f"document {self.id!r} sentence {j} is empty")
        elif self.kind == SPEECH:
            if not self.utterances or self.sentences:
                raise DataError(
                    f"speech document {self.id!r} must carry utterances only"
                )
        else:
            raise DataError(f"document {self.id!r} has unknown kind {self.kind!r}")

    @property
    def segments(self) -> Sequence:
        """The sentence-like units evidence is computed over, in order."""
        return self.sentences if self.kind == TEXT else self.utterances

    def __len__(self) -> int:
        return len(self.segments)


class ArcStore(NamedTuple):
    """A corpus's arcs in segment order: arc i is token ids[i] (int32; `index`
    maps each token to its id, in order of first sight) with probability
    probs[i] (1.0 for a text token). Segment s, row s of
    `Corpus.segment_keys`, holds arcs offsets[s] up to offsets[s + 1], and
    its slots end at the arcs of slot_ends (int64) inside that span."""

    index: dict[Token, int]
    ids: np.ndarray
    probs: np.ndarray
    offsets: np.ndarray
    slot_ends: np.ndarray


class _ArcStoreBuilder:
    """Fills an ArcStore a document at a time, holding arcs in machine types."""

    def __init__(self) -> None:
        self.index = _Encodings(lambda token: len(self.index))
        self.ids, self.probs, self.offsets = array("i"), array("d"), array("q", [0])
        self.slot_ends = array("q")

    def add(self, ids: Iterable[int], probs: array, segment_ends, slot_ends) -> None:
        """Append a document's arcs; its segments and slots end at the given
        arcs, counted from the document's first."""
        start = len(self.ids)
        self.ids.extend(ids)
        self.probs.extend(probs)
        self.offsets.extend([start + end for end in segment_ends])
        self.slot_ends.extend([start + end for end in slot_ends])

    def add_text(self, sentences: Sequence[Sentence]) -> None:
        """Append a text document, each token an arc of 1.0 and a slot."""
        ids = array("i", map(self.index.__getitem__, chain.from_iterable(sentences)))
        ends = accumulate(map(len, sentences))
        self.add(ids, array("d", [1.0]) * len(ids), ends, range(1, len(ids) + 1))

    def finish(self) -> ArcStore:
        """The store, read-only over buffers that can then grow no more."""
        columns = (self.ids, self.probs, self.offsets, self.slot_ends)
        return ArcStore(dict(self.index), *(
            np.frombuffer(memoryview(column).toreadonly(), dtype)
            for column, dtype in zip(columns, (np.intc, np.float64, np.int64, np.int64))
        ))


class _Utterances(Sequence):
    """A loaded speech document's networks, built from the corpus's ArcStore
    on each read: `segments` are its rows of the store, words[i] the token
    of id i. Equal to any sequence of equal networks; nothing is cached."""

    __slots__ = ("arcs", "words", "segments")

    def __init__(self, arcs: ArcStore, words: tuple[Token, ...], segments: range):
        self.arcs, self.words, self.segments = arcs, words, segments

    def __len__(self) -> int:
        return len(self.segments)

    def __getitem__(self, u):
        if isinstance(u, slice):
            return tuple(map(self._network, self.segments[u]))
        return self._network(self.segments[u])

    def __iter__(self) -> Iterator[ConfusionNetwork]:
        return map(self._network, self.segments)

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def _network(self, segment: int) -> ConfusionNetwork:
        arcs = self.arcs
        start, end = arcs.offsets[segment : segment + 2].tolist()
        first, last = np.searchsorted(arcs.slot_ends, (start, end), side="right").tolist()
        ends = tuple((arcs.slot_ends[first:last] - start).tolist())
        tokens = tuple(map(self.words.__getitem__, arcs.ids[start:end].tolist()))
        return _checked_network(tokens, arcs.probs[start:end], ends)


@dataclass(frozen=True)
class Corpus:
    """Documents to search, keyed by id, in file order."""

    documents: dict[str, Document]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.documents

    def __getitem__(self, doc_id: str) -> Document:
        return self.documents[doc_id]

    @cached_property
    def segment_keys(self) -> tuple[tuple[str, int], ...]:
        """(doc id, segment index) of every segment, in corpus order: row i is key i."""
        return tuple((doc.id, index) for doc in self for index in range(len(doc)))

    @cached_property
    def segment_docs(self) -> np.ndarray:
        """The corpus-order index of every segment's document, in row order.

        Row i (key i of `segment_keys`) lies in document segment_docs[i].
        """
        return np.repeat(np.arange(len(self)), [len(doc) for doc in self])

    @cached_property
    def by_id(self) -> np.ndarray:
        """The corpus-order index of every document, in ascending id order."""
        ids = list(self.documents)
        return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)

    @cached_property
    def arcs(self) -> ArcStore:
        """Every arc of every segment. `load_corpus` fills the store as it
        parses; any other corpus builds it from its documents on first use."""
        builder = _ArcStoreBuilder()
        for doc in self:  # a document has sentences or utterances, not both
            builder.add_text(doc.sentences)
            for cn in doc.utterances:
                ids = map(builder.index.__getitem__, cn.tokens)
                builder.add(ids, array("d", cn.probs.tobytes()), [len(cn.tokens)], cn.ends)
        return builder.finish()

    @classmethod
    def from_documents(cls, docs: Iterable[Document]) -> "Corpus":
        out: dict[str, Document] = {}
        for doc in docs:
            if doc.id in out:
                raise DataError(f"duplicate document id {doc.id!r}")
            out[doc.id] = doc
        return cls(out)


@dataclass(frozen=True)
class Query:
    """An English query: comma-separated phrases of normalized words.

    kind is "lexical" for plain queries, "conceptual" for a trailing '+',
    and "example_of" for the EXAMPLE_OF(...) wrapper. Only lexical queries
    are retrievable; the others are parsed so they can be rejected with a
    clear diagnostic instead of a tokenizer accident.
    """

    id: str
    kind: str
    phrases: tuple[QueryPhrase, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("query with empty id")
        if self.kind not in (LEXICAL, CONCEPTUAL, EXAMPLE_OF):
            raise DataError(f"query {self.id!r} has unknown kind {self.kind!r}")
        if not self.phrases or any(not p for p in self.phrases):
            raise DataError(f"query {self.id!r} has an empty phrase")


def parse_query(line: str) -> Query:
    """Parse one query line: `<id> <TAB> <query string>`.

    Phrases are comma separated; a trailing '+' on any phrase marks the
    query conceptual, and an EXAMPLE_OF(...) wrapper around the whole
    string marks it example_of. Raises DataError naming the line.
    """
    line = line.rstrip("\n")
    if "\t" not in line:
        raise DataError(f"query line has no tab separator: {line!r}")
    qid, _, text = line.partition("\t")
    qid = qid.strip()
    text = text.strip()
    if not qid:
        raise DataError(f"query line has empty id: {line!r}")
    _check_id("", "query", qid)
    if not text:
        raise DataError(f"query {qid!r} has empty query string")

    kind = LEXICAL
    wrapped = _EXAMPLE_OF_RE.match(text)
    if wrapped:
        kind = EXAMPLE_OF
        text = wrapped.group(1)

    phrases = []
    for raw_phrase in text.split(","):
        raw_phrase = raw_phrase.strip()
        if not raw_phrase:
            raise DataError(f"query {qid!r} has an empty phrase: {line!r}")
        if raw_phrase.endswith("+"):
            if kind == LEXICAL:
                kind = CONCEPTUAL
            raw_phrase = raw_phrase[:-1]
        words = normalize(raw_phrase)
        if not words:
            raise DataError(
                f"query {qid!r} phrase {raw_phrase!r} normalizes to no words"
            )
        phrases.append(words)
    return Query(qid, kind, tuple(phrases))


@dataclass(frozen=True)
class TranslationTable:
    """Foreign-to-English lexical translation probabilities.

    entries maps each foreign token to {english token: p(e|f)}. Every prob
    lies in (0, 1] and each foreign token's outgoing mass sums to at most 1
    (plus tolerance). source_tag names the aligner that produced the table
    and doubles as the evidence generator tag.
    """

    entries: dict[Token, dict[Token, float]]
    source_tag: str

    def __post_init__(self) -> None:
        if not self.source_tag:
            raise DataError("translation table with empty source tag")
        for foreign, row in self.entries.items():
            total = 0.0
            for english, prob in row.items():
                if not 0.0 < prob <= 1.0:
                    raise DataError(
                        f"translation prob p({english!r}|{foreign!r}) = {prob!r}"
                        " outside (0, 1]"
                    )
                total += prob
            if total > 1.0 + TABLE_SUM_TOLERANCE:
                raise DataError(
                    f"translation probs for {foreign!r} sum to {total!r} > 1"
                )


@dataclass(frozen=True)
class Bitext:
    """Sentence-aligned foreign/English pairs used for fitting, not retrieval."""

    pairs: tuple[tuple[Sentence, Sentence], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise DataError("bitext has no sentence pairs")
        for i, (src, tgt) in enumerate(self.pairs):
            if not src or not tgt:
                raise DataError(f"bitext pair {i} has an empty side")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[Sentence, Sentence]]:
        return iter(self.pairs)


def bitext_doc_id(index: int) -> str:
    """Stable pseudo-document id for bitext pair `index`.

    Fitting code views each bitext foreign sentence as a one-sentence text
    document so that evidence matrices over the bitext and over a real
    corpus share one address space of (doc id, sentence index).
    """
    return f"bt{index:06d}"


def bitext_corpus(bitext: Bitext) -> Corpus:
    """Wrap the foreign side of a bitext as a corpus of one-sentence docs."""
    docs = [
        Document(id=bitext_doc_id(i), kind=TEXT, sentences=(src,))
        for i, (src, _) in enumerate(bitext)
    ]
    return Corpus.from_documents(docs)


@dataclass(frozen=True)
class Judgments:
    """Gold relevance: query id -> set of relevant document ids."""

    relevant: dict[str, frozenset[str]]

    def for_query(self, query_id: str) -> frozenset[str]:
        return self.relevant.get(query_id, frozenset())

    def validate_against(self, corpus: Corpus) -> None:
        for qid, docs in self.relevant.items():
            for doc_id in docs:
                if doc_id not in corpus:
                    raise DataError(
                        f"judgments for query {qid!r} name unknown document"
                        f" {doc_id!r}"
                    )


# ---------------------------------------------------------------------------
# File I/O. Floats are written with repr() so that reading them back is
# exact and repeated writes are byte-identical.
# ---------------------------------------------------------------------------


def data_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line without its newline) for every non-blank line.

    The one way the package reads a file line by line: an unreadable file
    or a line that is not UTF-8 raises DataError naming the file. A leading
    byte order mark is not part of the first line.
    """
    try:
        # Undecodable bytes become lone surrogates, which encode() refuses,
        # so the error can name the line rather than a buffered chunk.
        handle = open(path, encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"{path}:{lineno}: not valid UTF-8") from None
            line = line.rstrip("\n")
            if line.strip():
                yield lineno, line


@contextmanager
def atomic_output(path, binary: bool = False) -> Iterator[IO]:
    """A handle whose contents replace `path` only once the block ends.

    The handle takes UTF-8 text, or bytes if `binary`. What is written
    goes to a temporary file next to `path`, which os.replace moves into
    place; the directory is created first if it is missing. If the block
    raises, the temporary file is removed and whatever `path` held before
    stays. A path whose directory cannot be created, or that cannot be
    written or replaced, is a ConfigError naming it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory for {path}: {exc}") from exc
    try:
        out = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        with out:
            yield out
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot replace {path}: {exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def split_tsv(path, lineno: int, line: str, n_fields: int) -> list[str]:
    fields = line.split("\t")
    if len(fields) != n_fields:
        raise DataError(
            f"{path}:{lineno}: expected {n_fields} tab-separated fields,"
            f" got {len(fields)}"
        )
    return fields


def parse_prob(path, lineno: int, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: bad probability {raw!r}") from exc


def parse_index(path, lineno: int, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: bad sentence index {raw!r}") from exc


def _check_id(prefix: str, what: str, value: str) -> None:
    """Refuse an id no output line can hold: `ranked.run` and `sets.tsv` split
    at whitespace, and a lone surrogate (a JSON escape gives one) has no UTF-8."""
    if value.split() != [value]:
        raise DataError(f"{prefix}{what} id {value!r} holds whitespace")
    if re.search("[\ud800-\udfff]", value):
        raise DataError(f"{prefix}{what} id {value!r} is not valid UTF-8")


def load_corpus(path) -> Corpus:
    """Read a JSONL corpus, validating every document, into its ArcStore.

    Each distinct raw arc token is normalized once per call: `arc_tokens`
    maps it to its store id, so an arc costs one dict lookup. A speech
    document's ids and probabilities are appended to two lists, which numpy
    checks in bulk before they join the store: every probability in (0, 1]
    and every slot's sum at most 1 + SLOT_SUM_TOLERANCE. Only a document
    that fails builds its networks one by one, whose slot walk names the
    first fault. A loaded speech document holds its arcs in the store only;
    each of its networks is built from it, unchecked, when read.

    The cyclic garbage collector is paused while the file is parsed, and
    its earlier state is restored afterwards. JSON values and the documents
    built from them are trees, so it has no cycles to find; left running,
    it promotes each line's lists and rescans them in full collections.
    """
    docs: dict[str, Document | range] = {}
    arc_tokens: dict[str, int] = {}
    store = _ArcStoreBuilder()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for lineno, line in data_lines(path):
            ctx = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also too deeply nested
                raise DataError(f"{ctx}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{ctx}: document line is not a JSON object")
            try:
                doc_id, doc = _document_from_json(obj, ctx, arc_tokens, store)
            except DataError:
                raise
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{ctx}: malformed document: {exc}") from exc
            if doc_id in docs:
                raise DataError(f"{ctx}: duplicate document id {doc_id!r}")
            docs[doc_id] = doc
        if not docs:
            raise DataError(f"{path}: corpus file is empty")
        arcs = store.finish()
        words = tuple(arcs.index)
        for doc_id, segments in docs.items():
            if isinstance(segments, range):
                docs[doc_id] = Document(doc_id, SPEECH, (), _Utterances(arcs, words, segments))
    finally:
        if gc_was_enabled:
            gc.enable()
    corpus = Corpus(docs)
    vars(corpus)["arcs"] = arcs  # where the cached property keeps its value
    return corpus


def _document_from_json(
    obj: dict, ctx: str, arc_tokens: dict[str, int], store: _ArcStoreBuilder
) -> tuple[str, Document | range]:
    """One document's id and its Document, or for speech its utterances'
    rows of the store, once its arcs are in `store`.

    A raw arc token enters `arc_tokens`, mapped to its store id, only once
    it has passed the exactly-one-token check, so every arc is checked, on
    its token's first sight or by the lookup.
    """
    doc_id = obj.get("id")
    kind = obj.get("kind")
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError(f"{ctx}: document id missing or not a string")
    _check_id(f"{ctx}: ", "document", doc_id)
    if kind == TEXT:
        raw_sentences = obj.get("sentences")
        if not isinstance(raw_sentences, list) or not raw_sentences:
            raise DataError(f"{ctx}: text document {doc_id!r} needs sentences")
        sentences = []
        for j, raw in enumerate(raw_sentences):
            if not isinstance(raw, str):
                raise DataError(f"{ctx}: sentence {j} of {doc_id!r} is not a string")
            tokens = normalize(raw)
            if not tokens:
                raise DataError(
                    f"{ctx}: sentence {j} of {doc_id!r} normalizes to no tokens"
                )
            sentences.append(tokens)
        store.add_text(sentences)
        return doc_id, Document(id=doc_id, kind=TEXT, sentences=tuple(sentences))
    if kind != SPEECH:
        raise DataError(f"{ctx}: document {doc_id!r} has unknown kind {kind!r}")
    raw_utts = obj.get("utterances")
    if not isinstance(raw_utts, list) or not raw_utts:
        raise DataError(f"{ctx}: speech document {doc_id!r} needs utterances")
    ids: list[int] = []
    probs: list[float] = []
    bounds = [0]  # 0, then the arc at which each slot ends
    utterances = [0]  # 0, then the bound at which each whole utterance ends
    checked = False
    try:
        for u, raw_slots in enumerate(raw_utts):
            if not isinstance(raw_slots, list) or not raw_slots:
                raise DataError(f"{ctx}: utterance {u} of {doc_id!r} has no slots")
            for s, raw_arcs in enumerate(raw_slots):
                if not isinstance(raw_arcs, list) or not raw_arcs:
                    raise DataError(
                        f"{ctx}: utterance {u} slot {s} of {doc_id!r} has no arcs"
                    )
                for arc in raw_arcs:
                    if not isinstance(arc, list) or len(arc) != 2:
                        raise DataError(
                            f"{ctx}: utterance {u} slot {s} of {doc_id!r} has a"
                            " malformed arc (want [token, prob])"
                        )
                    raw_token, prob = arc
                    if not isinstance(raw_token, str):
                        raise DataError(
                            f"{ctx}: utterance {u} slot {s} of {doc_id!r} has a"
                            " non-string token"
                        )
                    arc_id = arc_tokens.get(raw_token)
                    if arc_id is None:
                        normalized = normalize(raw_token)
                        if len(normalized) != 1:
                            raise DataError(
                                f"{ctx}: arc token {raw_token!r} in {doc_id!r} does"
                                " not normalize to exactly one token"
                            )
                        arc_id = arc_tokens[raw_token] = store.index[normalized[0]]
                    if type(prob) is not float:  # float(prob) is prob for a float
                        if type(prob) is not int:  # JSON true and false are bools
                            raise DataError(
                                f"{ctx}: arc prob for {raw_token!r} in {doc_id!r}"
                                " is not a number"
                            )
                        prob = float(prob)
                    ids.append(arc_id)
                    probs.append(prob)
                bounds.append(len(ids))
            utterances.append(len(bounds) - 1)
        # numpy sums pairwise, the walk in arc order: for n arcs in (0, 1] each
        # sum is within n * 2**-53 of the exact one (relative), so with half
        # the tolerance as margin a slot of under 10**9 arcs that passes here
        # passes the walk. NaN fails every comparison.
        chunk = array("d", probs)
        values = np.frombuffer(chunk)
        checked = values.min() > 0.0 and values.max() <= 1.0 and (
            np.add.reduceat(values, bounds[:-1]).max() <= 1.0 + SLOT_SUM_TOLERANCE / 2)
    except (DataError, KeyError, TypeError, ValueError, OverflowError) as exc:
        fault = exc  # load_corpus reports these, after any earlier fault
    else:
        fault = None
    if not checked:
        # On a failed check, or a fault after the last whole utterance (whose
        # own faults come first in the file), the networks walk their slots.
        words = list(store.index)
        for u, (lo, hi) in enumerate(zip(utterances, utterances[1:])):
            first, last = bounds[lo], bounds[hi]
            ends = tuple(end - first for end in bounds[lo + 1 : hi + 1])
            try:
                net_tokens = tuple(map(words.__getitem__, ids[first:last]))
                ConfusionNetwork(net_tokens, np.array(probs[first:last]), ends)
            except DataError as err:
                raise DataError(f"{ctx}: utterance {u} of {doc_id!r}: {err}") from err
        if fault is not None:
            raise fault
    segment = len(store.offsets) - 1
    store.add(ids, chunk, [bounds[hi] for hi in utterances[1:]], bounds[1:])
    return doc_id, range(segment, segment + len(utterances) - 1)


class _Encodings(dict):
    """Maps a value to its JSON piece, encoding each distinct value once."""

    def __init__(self, encode: Callable[[object], str]):
        super().__init__()
        self.encode = encode

    def __missing__(self, value) -> str:
        piece = self[value] = self.encode(value)
        return piece


def save_corpus(corpus: Corpus, path) -> None:
    """Write one JSON line per document, in corpus order.

    Every line is byte for byte what `json.dumps(obj, separators=(",", ":"))`
    writes for the document's object, escapes (`ensure_ascii`) included;
    text documents go through that call. A speech line is joined from the
    networks' columns instead: each distinct token's `["token",` prefix and
    each distinct probability's `prob]` suffix is encoded once per call
    (`json.dumps` of a float is its repr, finite by the network's
    invariant), and no (token, prob) pair is built per arc. Arcs join with
    `,`, slots with `],[` and utterances with `,`.
    """
    heads = _Encodings(lambda token: "[" + json.dumps(token) + ",")
    tails = _Encodings(lambda prob: json.dumps(prob) + "]")
    with atomic_output(path) as out:
        for doc in corpus:
            if doc.kind == TEXT:
                obj = {
                    "id": doc.id,
                    "kind": TEXT,
                    "sentences": [" ".join(sent) for sent in doc.sentences],
                }
                out.write(json.dumps(obj, separators=(",", ":")) + "\n")
                continue
            networks = []
            for cn in doc.utterances:
                arcs = list(map(
                    str.__add__,
                    map(heads.__getitem__, cn.tokens),
                    map(tails.__getitem__, cn.probs.tolist()),
                ))
                networks.append("[[" + "],[".join([
                    ",".join(arcs[start:end])
                    for start, end in zip((0, *cn.ends), cn.ends)
                ]) + "]]")
            out.write(
                '{"id":' + json.dumps(doc.id) + ',"kind":"' + SPEECH
                + '","utterances":[' + ",".join(networks) + "]}\n"
            )


def load_translation_table(path) -> TranslationTable:
    """Read a TSV translation table, tagged with the file stem."""
    entries: dict[Token, dict[Token, float]] = {}
    first_line: dict[tuple[Token, Token], int] = {}
    for lineno, line in data_lines(path):
        foreign_raw, english_raw, prob_raw = split_tsv(path, lineno, line, 3)
        foreign = normalize(foreign_raw)
        english = normalize(english_raw)
        if len(foreign) != 1 or len(english) != 1:
            raise DataError(
                f"{path}:{lineno}: table entry is not a single token pair"
            )
        prob = parse_prob(path, lineno, prob_raw)
        if not 0.0 < prob <= 1.0:
            raise DataError(
                f"{path}:{lineno}: translation prob {prob!r} outside (0, 1]"
            )
        key = (foreign[0], english[0])
        if key in first_line:
            raise DataError(
                f"{path}:{lineno}: duplicate entry for {key[0]!r} -> {key[1]!r}"
                f" (first at line {first_line[key]})"
            )
        first_line[key] = lineno
        entries.setdefault(key[0], {})[key[1]] = prob
    if not entries:
        raise DataError(f"{path}: translation table file is empty")
    try:
        return TranslationTable(entries, Path(path).stem)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_translation_table(table: TranslationTable, path) -> None:
    with atomic_output(path) as out:
        for foreign in sorted(table.entries):
            row = table.entries[foreign]
            for english in sorted(row):
                out.write(f"{foreign}\t{english}\t{row[english]!r}\n")


def load_bitext(path) -> Bitext:
    pairs = []
    for lineno, line in data_lines(path):
        src_raw, tgt_raw = split_tsv(path, lineno, line, 2)
        src = normalize(src_raw)
        tgt = normalize(tgt_raw)
        if not src or not tgt:
            raise DataError(f"{path}:{lineno}: bitext side normalizes to no tokens")
        pairs.append((src, tgt))
    if not pairs:
        raise DataError(f"{path}: bitext file is empty")
    return Bitext(tuple(pairs))


def save_bitext(bitext: Bitext, path) -> None:
    with atomic_output(path) as out:
        for src, tgt in bitext:
            out.write(f"{' '.join(src)}\t{' '.join(tgt)}\n")


def load_queries(path) -> list[Query]:
    queries = []
    seen: dict[str, int] = {}
    for lineno, line in data_lines(path):
        try:
            query = parse_query(line)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if query.id in seen:
            raise DataError(
                f"{path}:{lineno}: duplicate query id {query.id!r}"
                f" (first at line {seen[query.id]})"
            )
        seen[query.id] = lineno
        queries.append(query)
    if not queries:
        raise DataError(f"{path}: query file is empty")
    return queries


def format_query(query: Query) -> str:
    """Render a Query back into its file representation."""
    text = ", ".join(" ".join(phrase) for phrase in query.phrases)
    if query.kind == CONCEPTUAL:
        text += "+"
    elif query.kind == EXAMPLE_OF:
        text = f"EXAMPLE_OF({text})"
    return f"{query.id}\t{text}"


def save_queries(queries: Iterable[Query], path) -> None:
    with atomic_output(path) as out:
        for query in queries:
            out.write(format_query(query) + "\n")


def query_document_pair(
    path, lineno: int, line: str, corpus: Corpus | None
) -> tuple[str, str]:
    """The ids of a `query-id <TAB> doc-id` line, without surrounding space.

    Each must be a valid id, and the document one of `corpus`'s if given.
    """
    qid, doc_id = (field.strip() for field in split_tsv(path, lineno, line, 2))
    if not qid or not doc_id:
        raise DataError(f"{path}:{lineno}: empty query or document id")
    _check_id(f"{path}:{lineno}: ", "query", qid)
    _check_id(f"{path}:{lineno}: ", "document", doc_id)
    if corpus is not None and doc_id not in corpus:
        raise DataError(f"{path}:{lineno}: document {doc_id!r} is not in the corpus")
    return qid, doc_id


def load_judgments(path, corpus: Corpus | None = None) -> Judgments:
    relevant: dict[str, set[str]] = {}
    for lineno, line in data_lines(path):
        qid, doc_id = query_document_pair(path, lineno, line, corpus)
        relevant.setdefault(qid, set()).add(doc_id)
    return Judgments({qid: frozenset(docs) for qid, docs in relevant.items()})


def save_judgments(judgments: Judgments, path) -> None:
    with atomic_output(path) as out:
        for qid in sorted(judgments.relevant):
            for doc_id in sorted(judgments.relevant[qid]):
                out.write(f"{qid}\t{doc_id}\n")
