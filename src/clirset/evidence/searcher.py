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
pair touches, subtracting repeated rows one at a time (`np.subtract.at`);
with the full vocabulary scored, it updates `english_emb` and `bias`
whole. The results agree with a step that builds dense gradients and
updates every row to rounding, not bit for bit.

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
from itertools import chain
from typing import Iterable, Mapping, Sequence

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


# The rows of a gradient that covers every row of its parameter, in row order.
_ALL_ROWS = slice(None)

# One step's gradient: (parameter key, rows, values). `values` holds the
# gradient of those rows, which may repeat; it is zero in every other row.
_Grads = list[tuple[str, np.ndarray | slice, np.ndarray]]


def _backprop_context(params, cache, grad_h, foreign_ids: np.ndarray) -> _Grads:
    if cache is None:
        return [("foreign_emb", foreign_ids, grad_h)]
    x, q, k, v, attn, scale = cache
    grad_v = attn.T @ grad_h
    grad_attn = grad_h @ v.T
    # softmax backward, rowwise
    grad_scores = attn * (grad_attn - (grad_attn * attn).sum(axis=1, keepdims=True))
    grad_q = (grad_scores @ k) * scale
    grad_k = (grad_scores.T @ q) * scale
    grad_x = grad_q @ params["wq"].T + grad_k @ params["wk"].T + grad_v @ params["wv"].T
    return [
        ("wq", _ALL_ROWS, x.T @ grad_q),
        ("wk", _ALL_ROWS, x.T @ grad_k),
        ("wv", _ALL_ROWS, x.T @ grad_v),
        ("foreign_emb", foreign_ids, grad_x),
    ]


def _pair_loss_and_grads(
    params: Mapping[str, np.ndarray],
    foreign_ids: np.ndarray,
    word_ids: np.ndarray | slice,
    labels: np.ndarray,
) -> tuple[float, _Grads]:
    """Summed cross-entropy for one sentence's words, and its gradient.

    `word_ids` is _ALL_ROWS when every word is scored. Each word's dz goes
    to its best-matching token through one (tokens x words) matrix.
    """
    h, cache = _contextualize(params, params["foreign_emb"][foreign_ids])
    word_emb = params["english_emb"][word_ids]
    scores = h @ word_emb.T  # (tokens, words)
    best = scores.argmax(axis=0)
    words = np.arange(scores.shape[1])
    z = scores[best, words] + params["bias"][word_ids]
    loss = float((softplus(z) - labels * z).sum())
    dz = sigmoid(z) - labels
    routed = np.zeros_like(scores)
    routed[best, words] = dz
    grads = [("bias", word_ids, dz), ("english_emb", word_ids, dz[:, None] * h[best])]
    return loss, grads + _backprop_context(params, cache, routed @ word_emb, foreign_ids)


def searcher_objective(
    params: Mapping[str, np.ndarray],
    examples: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over (foreign_ids, word_ids, labels) examples.

    Returns the loss and matching analytic gradients; the contract checked
    by the finite-difference tests.
    """
    grads = {key: np.zeros_like(value) for key, value in params.items()}
    total = 0.0
    count = 0
    for foreign_ids, word_ids, labels in examples:
        loss, pair_grads = _pair_loss_and_grads(params, foreign_ids, word_ids, labels)
        total += loss
        count += len(word_ids)
        for key, rows, values in pair_grads:
            np.add.at(grads[key], rows, values)
    if count == 0:
        raise DataError("no scoring instances in objective")
    for key in grads:
        grads[key] /= count
    return total / count, grads


def train_searcher(
    bitext: Bitext, vocab: Vocabulary, config: SearcherConfig = SearcherConfig()
) -> tuple[SearcherModel, list[float]]:
    """SGD over bitext pairs; returns the model and per-epoch mean losses.

    Single-threaded and fully determined by config.seed. A pair's labels
    are its `reference_grid` row. With at most FULL_VOCAB_MAX words a step
    scores every word; a larger vocabulary scores the pair's positives and
    `m_neg` sampled negatives per positive, less those the grid row marks.
    Raises DataError after an epoch whose mean loss or any parameter is
    not finite.
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

    # Per pair with a vocabulary word: its foreign rows and its positives.
    # Pairs without a vocabulary word are never trained on.
    grid = reference_grid(bitext, vocab)
    pairs = {
        i: (model.foreign_ids(src), np.flatnonzero(in_reference))
        for i, ((src, _), in_reference) in enumerate(zip(bitext, grid))
        if in_reference.any()
    }
    if not pairs:
        raise DataError("no bitext pair shares a word with the vocabulary")

    losses: list[float] = []
    for epoch in range(config.epochs):
        order = np.array(list(pairs))
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_count = 0
        # an overflow shows as a loss or parameter that is not finite, below
        with np.errstate(over="ignore", invalid="ignore"):
            for i in order:
                foreign_ids, positives = pairs[i]
                word_ids = _ALL_ROWS
                if k > FULL_VOCAB_MAX:
                    negatives = rng.integers(0, k, size=config.m_neg * len(positives))
                    word_ids = np.concatenate([positives, negatives[~grid[i, negatives]]])
                labels = grid[i, word_ids].astype(float)
                loss, grads = _pair_loss_and_grads(params, foreign_ids, word_ids, labels)
                scale = config.lr / len(labels)
                for key, rows, values in grads:
                    if rows is _ALL_ROWS:
                        params[key] -= scale * values
                    else:  # the rows may repeat
                        np.subtract.at(params[key], rows, scale * values)
                epoch_loss += loss
                epoch_count += len(labels)
        losses.append(epoch_loss / epoch_count)
        if not (math.isfinite(losses[-1]) and all(np.isfinite(p).all() for p in params.values())):
            raise DataError(
                f"searcher training diverged in epoch {epoch + 1} at learning"
                f" rate {config.lr!r}: the mean loss or a parameter is not finite"
            )
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
