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
pair touches.

Persisted form is a .npz archive holding the parameter arrays, both token
lists, and a JSON manifest recording the dimension, the attention depth,
and sha256 hashes of both vocabularies.
"""

from __future__ import annotations

import json
import logging
import math
import zipfile
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..corpus import Bitext, ConfusionNetwork, Corpus, Token, atomic_output
from ..errors import DataError
from ..numerics import require_positive, sigmoid
from .instances import DEFAULT_NEGATIVES_PER_POSITIVE
from .matrix import Columns, Vocabulary, ranked_tokens, sha256_tokens

log = logging.getLogger(__name__)

SEARCHER_GENERATOR_TAG = "searcher"

# Below this vocabulary size the trainer scores every non-reference word
# instead of sampling negatives.
FULL_VOCAB_MAX = 2000

# Standard deviation of the normal draw for every initial weight.
INIT_SCALE = 0.1

_ATTENTION_KEYS = ("wq", "wk", "wv")

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


@dataclass
class SearcherModel:
    """Trained embeddings. The last foreign row is the unknown-token vector."""

    english_vocab: Vocabulary
    foreign_tokens: tuple[Token, ...]
    params: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not {"foreign_emb", "english_emb", "bias"} <= self.params.keys():
            raise DataError("searcher model missing parameter arrays")
        present = [key for key in _ATTENTION_KEYS if key in self.params]
        if present and len(present) != len(_ATTENTION_KEYS):
            raise DataError("attention parameters must appear all together")
        femb = self.params["foreign_emb"]
        if femb.ndim != 2 or femb.shape[0] != len(self.foreign_tokens) + 1:
            raise DataError(
                f"searcher parameter 'foreign_emb' has shape {femb.shape},"
                f" want ({len(self.foreign_tokens) + 1}, dim)"
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
        self._foreign_index = {tok: i for i, tok in enumerate(self.foreign_tokens)}

    @property
    def dim(self) -> int:
        return self.params["foreign_emb"].shape[1]

    @property
    def depth(self) -> int:
        return 1 if "wq" in self.params else 0

    def foreign_ids(self, tokens: Iterable[Token]) -> np.ndarray:
        """Each token's embedding row; the unknown-token row for the unknown ones."""
        unk = len(self.foreign_tokens)
        return np.fromiter(map(self._foreign_index.get, tokens, repeat(unk)), dtype=int)


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


class _Ids(NamedTuple):
    """Row ids as a step reads them, and the distinct rows they touch."""

    ids: np.ndarray
    rows: np.ndarray  # the distinct ids
    slots: np.ndarray | None  # each id's index into rows; None when ids are distinct

    @classmethod
    def distinct(cls, ids: np.ndarray) -> "_Ids":
        return cls(ids, ids, None)

    @classmethod
    def grouped(cls, ids: np.ndarray) -> "_Ids":
        rows, slots = np.unique(ids, return_inverse=True)
        return cls(ids, rows, slots)

    def row_grads(self, values: np.ndarray) -> np.ndarray:
        """The gradient rows `rows`, as `np.add.at` into zeros leaves them."""
        if self.slots is None:
            return values + 0.0
        return _add_at(self.slots, values, len(self.rows))


def _add_at(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """`np.add.at(np.zeros((n, ...)), ids, values)`, by one `np.bincount`.

    Both add each value into its row from 0.0 in the order of `ids`, so the
    sums are bit-identical; bincount does it without add.at's per-element
    dispatch.
    """
    if values.ndim == 1:
        return np.bincount(ids, weights=values, minlength=n)
    width = values.shape[1]
    flat = (ids[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=n * width)
    return sums.reshape(n, width)


# One step's gradient: (parameter key, rows, values). `values` holds those
# rows of the dense gradient, which is zero in every other row.
_Grads = list[tuple[str, np.ndarray | slice, np.ndarray]]
_ALL_ROWS = slice(None)


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
    """Summed cross-entropy for one sentence's words, and its gradient."""
    x = params["foreign_emb"][foreign.ids]
    h, cache = _contextualize(params, x)
    word_emb = params["english_emb"][words.ids]
    scores = h @ word_emb.T  # (tokens, words)
    best = scores.argmax(axis=0)
    z = scores[best, np.arange(len(words.ids))] + params["bias"][words.ids]
    loss = float(np.sum(np.logaddexp(0.0, z) - labels * z))
    dz = sigmoid(z) - labels
    grads = [
        ("bias", words.rows, words.row_grads(dz)),
        ("english_emb", words.rows, words.row_grads(dz[:, None] * h[best])),
    ]
    grad_h = _add_at(best, dz[:, None] * word_emb, len(h))
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
    total = 0.0
    count = 0
    for foreign_ids, word_ids, labels in examples:
        loss, pair_grads = _pair_loss_and_grads(
            params, _Ids.grouped(foreign_ids), _Ids.grouped(word_ids), labels
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


def _foreign_vocabulary(bitext: Bitext) -> tuple[Token, ...]:
    return ranked_tokens(src for src, _ in bitext)


def train_searcher(
    bitext: Bitext, vocab: Vocabulary, config: SearcherConfig = SearcherConfig()
) -> tuple[SearcherModel, list[float]]:
    """SGD over bitext pairs; returns the model and per-epoch mean losses.

    Single-threaded and fully determined by config.seed.
    """
    rng = np.random.default_rng(config.seed)
    foreign_tokens = _foreign_vocabulary(bitext)
    if not foreign_tokens:
        raise DataError("bitext yields an empty foreign vocabulary")

    k = len(vocab)
    params: dict[str, np.ndarray] = {
        "foreign_emb": rng.normal(
            0.0, INIT_SCALE, (len(foreign_tokens) + 1, config.dim)
        ),
        "english_emb": rng.normal(0.0, INIT_SCALE, (k, config.dim)),
        "bias": np.zeros(k),
    }
    if config.depth == 1:
        for key in _ATTENTION_KEYS:
            params[key] = rng.normal(0.0, INIT_SCALE, (config.dim, config.dim))

    foreign_index = {tok: i for i, tok in enumerate(foreign_tokens)}
    unk = len(foreign_tokens)
    all_word_ids = np.arange(k)

    # Foreign rows and positive word ids per pair are fixed; negatives are
    # re-drawn per step unless the vocabulary is small enough to score in
    # full. Pairs without a vocabulary word are never trained on.
    pair_foreign: dict[int, _Ids] = {}
    pair_positive: dict[int, np.ndarray] = {}
    for i, (src, tgt) in enumerate(bitext):
        reference = {word for word in tgt if word in vocab}
        if not reference:
            continue
        pair_foreign[i] = _Ids.grouped(
            np.array([foreign_index.get(tok, unk) for tok in src], dtype=int)
        )
        pair_positive[i] = np.array(
            sorted(vocab.index_of(word) for word in reference), dtype=int
        )
    usable = list(pair_positive)
    if not usable:
        raise DataError("no bitext pair shares a word with the vocabulary")

    # A step reads and updates only the rows its pair touches: every other
    # row of the dense gradient is 0.0, and p - s * 0.0 leaves p as it is.
    full_vocab = k <= FULL_VOCAB_MAX
    losses: list[float] = []
    for epoch in range(config.epochs):
        order = np.array(usable)
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_count = 0
        for i in order:
            positives = pair_positive[i]
            is_positive = np.zeros(k, dtype=bool)
            is_positive[positives] = True
            if full_vocab:
                negatives = all_word_ids[~is_positive]
                words = _Ids.distinct(np.concatenate([positives, negatives]))
            else:
                negatives = rng.integers(0, k, size=config.m_neg * len(positives))
                negatives = negatives[~is_positive[negatives]]
                words = _Ids.grouped(np.concatenate([positives, negatives]))
            labels = np.zeros(len(words.ids))
            labels[: len(positives)] = 1.0
            loss, grads = _pair_loss_and_grads(params, pair_foreign[i], words, labels)
            scale = config.lr / len(words.ids)
            for key, rows, values in grads:
                params[key][rows] -= scale * values
            epoch_loss += loss
            epoch_count += len(words.ids)
        losses.append(epoch_loss / epoch_count)
        log.info("searcher epoch %d mean loss %.6f", epoch + 1, losses[-1])

    model = SearcherModel(vocab, foreign_tokens, params)
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


def save_searcher(model: SearcherModel, path) -> None:
    manifest = {
        "dim": model.dim,
        "depth": model.depth,
        "english_vocab_sha256": model.english_vocab.sha256(),
        "foreign_vocab_sha256": sha256_tokens(model.foreign_tokens),
    }
    arrays = dict(model.params)
    arrays["english_tokens"] = np.array(model.english_vocab.tokens)
    arrays["foreign_tokens"] = np.array(model.foreign_tokens)
    arrays["manifest"] = np.array(json.dumps(manifest, sort_keys=True))
    with atomic_output(path, binary=True) as out:
        np.savez(out, **arrays)


def load_searcher(path) -> SearcherModel:
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read searcher model {path}: {exc}") from exc
    with archive:
        try:
            manifest = json.loads(str(archive["manifest"]))
            english = tuple(str(t) for t in archive["english_tokens"])
            foreign = tuple(str(t) for t in archive["foreign_tokens"])
            params = {
                key: archive[key].astype(float)
                for key in ("foreign_emb", "english_emb", "bias")
            }
            if manifest["depth"] == 1:
                for key in _ATTENTION_KEYS:
                    params[key] = archive[key].astype(float)
        # TypeError: a manifest that is not an object; RecursionError: nested too deeply
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DataError(f"{path}: malformed searcher model: {exc}") from exc
    for key, values in params.items():
        if not np.isfinite(values).all():
            raise DataError(f"{path}: searcher parameter {key!r} is not finite")
    vocab = Vocabulary(english)
    if manifest.get("english_vocab_sha256") != vocab.sha256():
        raise DataError(f"{path}: english vocabulary hash mismatch")
    if manifest.get("foreign_vocab_sha256") != sha256_tokens(foreign):
        raise DataError(f"{path}: foreign vocabulary hash mismatch")
    try:
        model = SearcherModel(vocab, foreign, params)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if manifest.get("dim") != model.dim:
        raise DataError(f"{path}: manifest dim does not match arrays")
    return model
