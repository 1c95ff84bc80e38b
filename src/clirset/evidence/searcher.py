"""Shared-embedding relevance scorer over foreign sentences.

Foreign tokens and English words live in one d-dimensional space. A
sentence is embedded token by token, optionally passed through a single
scaled-dot-product self-attention layer, and the evidence for English
word w is sigmoid(max_j <e(w), h_j> + bias_w): the best match between the
word embedding and any contextualized token vector, squashed through a
per-word bias.

Training minimizes the summed cross-entropy over bitext-derived labels:
for each sentence pair, -log p for every vocabulary word in the reference
translation and -log(1 - p) for the rest of the vocabulary (the full
complement when the vocabulary is small, otherwise a sampled subset).
Gradients are computed in closed form; `searcher_objective` exposes the
loss/gradient pair so finite-difference checks can run against it. A
training step computes and updates only the parameter rows its sentence
pair touches; with the full vocabulary scored, those are every row of
`english_emb` and `bias`, whose gradients then come in row order.

Persisted form is a .npz archive holding the parameter arrays, both token
lists, and a JSON manifest recording the dimension, the attention depth,
and sha256 hashes of both vocabularies. Loading builds the model from the
arrays and refuses a manifest that does not describe it.
"""

from __future__ import annotations

import json
import logging
import math
import zipfile
import zlib
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..corpus import Bitext, ConfusionNetwork, Corpus, Token, atomic_output
from ..errors import DataError
from ..numerics import require_positive, sigmoid, softplus
from .instances import DEFAULT_NEGATIVES_PER_POSITIVE, reference_grid
from .matrix import Columns, Vocabulary, ranked_tokens

log = logging.getLogger(__name__)

SEARCHER_GENERATOR_TAG = "searcher"

# Below this vocabulary size the trainer scores every non-reference word
# instead of sampling negatives.
FULL_VOCAB_MAX = 2000

# Standard deviation of the normal draw for every initial weight.
INIT_SCALE = 0.1

_ATTENTION_KEYS = ("wq", "wk", "wv")
_PARAM_KEYS = ("foreign_emb", "english_emb", "bias", *_ATTENTION_KEYS)

# Segments whose evidence SearcherGenerator.columns computes at a time.
_BLOCK_SEGMENTS = 1024


@dataclass(frozen=True)
class SearcherConfig:
    """How the searcher trains.

    `m_neg` negatives per positive are sampled only when the vocabulary
    holds more than FULL_VOCAB_MAX (2000) words; a smaller vocabulary scores
    every word that is not in the reference. So `train-searcher --m-neg`
    matters only with `--vocab-size` above 2000 on a bitext with that many
    English types.
    """

    dim: int = 16
    depth: int = 0  # number of self-attention layers, 0 or 1
    epochs: int = 20
    lr: float = 0.5
    m_neg: int = DEFAULT_NEGATIVES_PER_POSITIVE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DataError(f"embedding dim {self.dim} must be positive")
        if self.depth not in (0, 1):
            raise DataError(f"attention depth {self.depth} must be 0 or 1")
        if self.epochs < 1:
            raise DataError(f"epoch count {self.epochs} must be positive")
        require_positive("learning rate", self.lr)
        if self.m_neg < 1:
            raise DataError(f"negative sampling rate {self.m_neg} must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed {self.seed} must be non-negative")


@dataclass
class SearcherModel:
    """Trained embeddings: row i of `foreign_emb` is foreign_vocab's token i,
    and its one extra, last row the unknown-token vector; row i of
    `english_emb` and `bias` is english_vocab's word i."""

    english_vocab: Vocabulary
    foreign_vocab: Vocabulary
    params: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not {"foreign_emb", "english_emb", "bias"} <= self.params.keys():
            raise DataError("searcher model missing parameter arrays")
        present = [key for key in _ATTENTION_KEYS if key in self.params]
        if present and len(present) != len(_ATTENTION_KEYS):
            raise DataError("attention parameters must appear all together")
        femb, n_foreign = self.params["foreign_emb"], len(self.foreign_vocab)
        if femb.ndim != 2 or femb.shape[0] != n_foreign + 1:
            raise DataError(
                f"searcher parameter 'foreign_emb' has shape {femb.shape},"
                f" want ({n_foreign + 1}, dim)"
            )
        dim, n_english = femb.shape[1], len(self.english_vocab)
        wanted = {"english_emb": (n_english, dim), "bias": (n_english,)}
        wanted.update((key, (dim, dim)) for key in present)
        for key, shape in wanted.items():
            if self.params[key].shape != shape:
                raise DataError(
                    f"searcher parameter {key!r} has shape"
                    f" {self.params[key].shape}, want {shape}"
                )

    @property
    def dim(self) -> int:
        return self.params["foreign_emb"].shape[1]

    @property
    def depth(self) -> int:
        return 1 if "wq" in self.params else 0

    def foreign_ids(self, tokens: Iterable[Token]) -> np.ndarray:
        """Each token's embedding row; the unknown-token row for the unknown ones."""
        return self.foreign_vocab.ids(tokens, missing=len(self.foreign_vocab))


def _contextualize(params: Mapping[str, np.ndarray], x: np.ndarray):
    """Apply the optional self-attention layer; returns (h, cache)."""
    if "wq" not in params:
        return x, None
    wq, wk, wv = params["wq"], params["wk"], params["wv"]
    scale = 1.0 / math.sqrt(x.shape[1])
    q, k, v = x @ wq, x @ wk, x @ wv
    scores = (q @ k.T) * scale
    scores -= scores.max(axis=1, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=1, keepdims=True)
    h = attn @ v
    return h, (x, q, k, v, attn, scale)


# The rows of a gradient that covers every row of its parameter.
_ALL_ROWS = slice(None)


class _Ids(NamedTuple):
    """Row ids as a step reads them, and the distinct rows they touch."""

    ids: np.ndarray
    rows: np.ndarray | slice  # the distinct ids; _ALL_ROWS when they are every row
    slots: np.ndarray  # each id's index into rows; for every row, each row's index into ids
    # For grouped ids and values `width` wide: `cells[i, j]` is the flat index
    # of (i, j) in a (len(ids) x width) array, and `bins` each value's flat
    # (slot, column) bin, `cells[slots].ravel()`.
    cells: np.ndarray | None = None
    bins: np.ndarray | None = None

    @classmethod
    def grouped(cls, ids: np.ndarray, width: int) -> "_Ids":
        rows, slots = np.unique(ids, return_inverse=True)
        cells = np.arange(len(ids) * width).reshape(len(ids), width)
        return cls(ids, rows, slots, cells, cells[slots].ravel())

    @classmethod
    def every_row(cls, ids: np.ndarray) -> "_Ids":
        """Ids that hold each row of their parameter once, in any order."""
        return cls(ids, _ALL_ROWS, np.argsort(ids))

    def row_grads(self, values: np.ndarray) -> np.ndarray:
        """The gradient rows `rows`, as `np.add.at` into zeros leaves them."""
        if self.rows is _ALL_ROWS:
            return values.take(self.slots, axis=0) + 0.0
        if values.ndim == 1:
            return _add_at(self.slots, values, len(self.rows))
        return _add_at(self.bins, values, len(self.rows))


def _add_at(bins: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """`np.add.at(np.zeros((n, ...)), ids, values)`, by one `np.bincount`.

    `bins` is `ids` for 1-D values, and each value's flat (id, column) index
    for 2-D ones. Both add each value into its row from 0.0 in the order of
    `ids`, so the sums are bit-identical; bincount does it without add.at's
    per-element dispatch.
    """
    if values.ndim == 1:
        return np.bincount(bins, weights=values, minlength=n)
    width = values.shape[1]
    sums = np.bincount(bins, weights=values.ravel(), minlength=n * width)
    return sums.reshape(n, width)


# One step's gradient: (parameter key, rows, values). `values` holds those
# rows of the dense gradient, which is zero in every other row.
_Grads = list[tuple[str, np.ndarray | slice, np.ndarray]]


def _backprop_context(params, cache, grad_h, foreign: _Ids) -> _Grads:
    if cache is None:
        return [("foreign_emb", foreign.rows, foreign.row_grads(grad_h))]
    x, q, k, v, attn, scale = cache
    grad_v = attn.T @ grad_h
    grad_attn = grad_h @ v.T
    # softmax backward, rowwise
    grad_scores = attn * (grad_attn - (grad_attn * attn).sum(axis=1, keepdims=True))
    grad_q = (grad_scores @ k) * scale
    grad_k = (grad_scores.T @ q) * scale
    grad_x = grad_q @ params["wq"].T + grad_k @ params["wk"].T + grad_v @ params["wv"].T
    # `+ 0.0` as adding into a zero gradient does: -0.0 becomes 0.0.
    return [
        ("wq", _ALL_ROWS, x.T @ grad_q + 0.0),
        ("wk", _ALL_ROWS, x.T @ grad_k + 0.0),
        ("wv", _ALL_ROWS, x.T @ grad_v + 0.0),
        ("foreign_emb", foreign.rows, foreign.row_grads(grad_x)),
    ]


def _pair_loss_and_grads(
    params: Mapping[str, np.ndarray],
    foreign: _Ids,
    words: _Ids,
    labels: np.ndarray,
) -> tuple[float, _Grads]:
    """Summed cross-entropy for one sentence's words, and its gradient.

    `foreign` is grouped as wide as the embeddings, and its `cells` place
    each word's share of `grad_h` in the row of its best-matching token.
    """
    x = params["foreign_emb"].take(foreign.ids, axis=0)
    h, cache = _contextualize(params, x)
    word_emb = params["english_emb"].take(words.ids, axis=0)
    scores = h @ word_emb.T  # (tokens, words)
    best = scores.argmax(axis=0)
    z = scores[best, np.arange(len(words.ids))] + params["bias"].take(words.ids)
    loss = float((softplus(z) - labels * z).sum())
    dz = sigmoid(z) - labels
    if words.rows is _ALL_ROWS:
        # every row once: gather each row's token and dz, then multiply
        english = h.take(best.take(words.slots), axis=0)
        english *= dz.take(words.slots)[:, None]
        english += 0.0
    else:
        english = words.row_grads(dz[:, None] * h.take(best, axis=0))
    grads = [
        ("bias", words.rows, words.row_grads(dz)),
        ("english_emb", words.rows, english),
    ]
    tokens = foreign.cells.take(best, axis=0).ravel()
    grad_h = _add_at(tokens, dz[:, None] * word_emb, len(h))
    return loss, grads + _backprop_context(params, cache, grad_h, foreign)


def searcher_objective(
    params: Mapping[str, np.ndarray],
    examples: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over (foreign_ids, word_ids, labels) examples.

    Returns the loss and matching analytic gradients; the contract checked
    by the finite-difference tests.
    """
    grads = {key: np.zeros_like(value) for key, value in params.items()}
    dim = params["foreign_emb"].shape[1]
    total = 0.0
    count = 0
    for foreign_ids, word_ids, labels in examples:
        loss, pair_grads = _pair_loss_and_grads(
            params, _Ids.grouped(foreign_ids, dim), _Ids.grouped(word_ids, dim), labels
        )
        total += loss
        count += len(word_ids)
        for key, rows, values in pair_grads:
            grads[key][rows] += values
    if count == 0:
        raise DataError("no scoring instances in objective")
    for key in grads:
        grads[key] /= count
    return total / count, grads


def _step_words(positives: np.ndarray, negatives: np.ndarray, ids, lr: float):
    """A step's words (`ids` of the positives, then the negatives), their
    labels, 1.0 then 0.0, and the step's scale."""
    words = np.concatenate([positives, negatives])
    labels = (np.arange(len(words)) < len(positives)).astype(float)
    return ids(words), labels, lr / len(words)


def train_searcher(
    bitext: Bitext, vocab: Vocabulary, config: SearcherConfig = SearcherConfig()
) -> tuple[SearcherModel, list[float]]:
    """SGD over bitext pairs; returns the model and per-epoch mean losses.

    Single-threaded and fully determined by config.seed. A pair's
    positives are its `reference_grid` row's vocabulary indices. With at
    most FULL_VOCAB_MAX words, each pair's words, labels and step scale are
    built once, before the first epoch, and a step subtracts the whole
    `english_emb` and `bias` gradients, in row order; a larger vocabulary
    re-draws each step's negatives, drops those the grid row marks, and
    updates the rows they touch.
    """
    rng = np.random.default_rng(config.seed)
    foreign_vocab = Vocabulary(ranked_tokens(src for src, _ in bitext))

    k = len(vocab)
    params: dict[str, np.ndarray] = {
        "foreign_emb": rng.normal(
            0.0, INIT_SCALE, (len(foreign_vocab) + 1, config.dim)
        ),
        "english_emb": rng.normal(0.0, INIT_SCALE, (k, config.dim)),
        "bias": np.zeros(k),
    }
    if config.depth == 1:
        for key in _ATTENTION_KEYS:
            params[key] = rng.normal(0.0, INIT_SCALE, (config.dim, config.dim))

    # the model holds `params`, which the steps below update in place
    model = SearcherModel(vocab, foreign_vocab, params)

    # Per pair with a vocabulary word: its foreign rows, its positives and,
    # for a small vocabulary, which is scored in full, its fixed step (its
    # words: the positives, then every other word; labels; scale). A larger
    # vocabulary re-draws the negatives per step (None). Pairs without a
    # vocabulary word are never trained on.
    grid = reference_grid(bitext, vocab)
    pairs: dict[int, tuple[_Ids, np.ndarray, tuple | None]] = {}
    for i, ((src, _), in_reference) in enumerate(zip(bitext, grid)):
        positives = np.flatnonzero(in_reference)
        if not len(positives):
            continue
        step = None
        if k <= FULL_VOCAB_MAX:
            negatives = np.flatnonzero(~in_reference)
            step = _step_words(positives, negatives, _Ids.every_row, config.lr)
        pairs[i] = (_Ids.grouped(model.foreign_ids(src), config.dim), positives, step)
    if not pairs:
        raise DataError("no bitext pair shares a word with the vocabulary")

    # A step reads and updates only the rows its pair touches: every other
    # row of the dense gradient is 0.0, and p - s * 0.0 leaves p as it is.
    # Scoring every word touches every row of `english_emb` and `bias`, and
    # their gradients come in row order, so those update whole.
    grouped = partial(_Ids.grouped, width=config.dim)
    losses: list[float] = []
    for epoch in range(config.epochs):
        order = np.array(list(pairs))
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_count = 0
        for i in order:
            foreign, positives, step = pairs[i]
            if step is None:
                negatives = rng.integers(0, k, size=config.m_neg * len(positives))
                negatives = negatives[~grid[i, negatives]]
                step = _step_words(positives, negatives, grouped, config.lr)
            words, labels, scale = step
            loss, grads = _pair_loss_and_grads(params, foreign, words, labels)
            for key, rows, values in grads:
                values *= scale
                params[key][rows] -= values
            epoch_loss += loss
            epoch_count += len(words.ids)
        losses.append(epoch_loss / epoch_count)
        log.info("searcher epoch %d mean loss %.6f", epoch + 1, losses[-1])
    return model, losses


class SearcherGenerator:
    """Evidence generator wrapping a trained embedding scorer.

    Speech segments are reduced to their one-best token sequence before
    scoring. Query words outside the model's English vocabulary are
    skipped, which reads back as the evidence floor.
    """

    tag = SEARCHER_GENERATOR_TAG

    def __init__(self, model: SearcherModel):
        self.model = model

    def columns(self, corpus: Corpus, words: Sequence[Token]) -> Columns:
        """One matmul per segment, since a batched one may sum in another
        order; then bias and sigmoid, element by element, over a block of
        segments at a time. Each block's probabilities go into one
        (words x segments) array, so that a word's column is a row of it."""
        model = self.model
        known = [w for w in words if w in model.english_vocab]
        if not known:
            return {}, None
        ids = np.array([model.english_vocab.index_of(w) for w in known])
        english = model.params["english_emb"][ids].T
        foreign_emb = model.params["foreign_emb"]
        sentences = [
            segment.one_best() if isinstance(segment, ConfusionNetwork) else segment
            for doc in corpus
            for segment in doc.segments
        ]
        token_ids = model.foreign_ids(chain.from_iterable(sentences))
        ends = np.cumsum([len(sentence) for sentence in sentences]).tolist()
        starts = [0, *ends]
        bias = model.params["bias"][ids]
        n = len(sentences)
        probs = np.empty((len(known), n))
        block = np.empty((min(_BLOCK_SEGMENTS, n), len(known)))
        for first in range(0, n, _BLOCK_SEGMENTS):
            last = min(first + _BLOCK_SEGMENTS, n)
            best = block[: last - first]
            spans = zip(starts[first:last], ends[first:last])
            for row, (start, end) in enumerate(spans):
                h, _ = _contextualize(model.params, foreign_emb[token_ids[start:end]])
                np.maximum.reduce(h @ english, axis=0, out=best[row])
            best += bias
            probs[:, first:last] = sigmoid(best).T
        rows = np.arange(n)
        return {word: (rows, column) for word, column in zip(known, probs)}, None


def _manifest(model: SearcherModel) -> dict:
    return {
        "dim": model.dim,
        "depth": model.depth,
        "english_vocab_sha256": model.english_vocab.sha256(),
        "foreign_vocab_sha256": model.foreign_vocab.sha256(),
    }


def save_searcher(model: SearcherModel, path) -> None:
    arrays = dict(model.params)
    arrays["english_tokens"] = np.array(model.english_vocab.tokens)
    arrays["foreign_tokens"] = np.array(model.foreign_vocab.tokens)
    arrays["manifest"] = np.array(json.dumps(_manifest(model), sort_keys=True))
    with atomic_output(path, binary=True) as out:
        np.savez(out, **arrays)


def load_searcher(path) -> SearcherModel:
    """The model saved at `path`; a malformed archive is a DataError naming `path`."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    # EOFError: an empty file; TypeError: a lone .npy array, not an archive;
    # NotImplementedError, RuntimeError, zlib.error: a member zipfile cannot
    # decompress (unknown method, encrypted, corrupt data)
    except (OSError, EOFError, TypeError, ValueError, NotImplementedError,
            RuntimeError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"cannot read searcher model {path}: {exc}") from exc
    try:
        manifest = json.loads(str(arrays["manifest"]))
        english = Vocabulary(tuple(str(t) for t in arrays["english_tokens"]))
        foreign = Vocabulary(tuple(str(t) for t in arrays["foreign_tokens"]))
        params = {
            key: np.asarray(arrays[key], dtype=float)
            for key in _PARAM_KEYS
            if key in arrays
        }
        model = SearcherModel(english, foreign, params)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    # TypeError: a 0-d token array; RecursionError: a manifest nested too deeply
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DataError(f"{path}: malformed searcher model: {exc}") from exc
    for key, values in params.items():
        if not np.isfinite(values).all():
            raise DataError(f"{path}: searcher parameter {key!r} is not finite")
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: malformed searcher model: manifest is not an object")
    for key, value in _manifest(model).items():
        if manifest.get(key) != value:
            raise DataError(f"{path}: manifest {key} does not match the arrays")
    return model
