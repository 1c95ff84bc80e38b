"""Batch cross-lingual retrieval with set-valued answers.

English queries run against foreign-language text and speech documents.
Per-sentence evidence generators (translation tables, confusion networks,
an MT ensemble, a shared-embedding scorer) each estimate the probability
that an English query word is relevant to a sentence; an EM-weighted
mixture combines them; a probabilistic algebra lifts word evidence to
query/document probabilities; and a thresholder returns, per query, the
document set maximizing the expected query value under the
miss/false-alarm trade-off that also drives the final mAQWV score. That
choice assumes the probabilities are calibrated, which they are not yet:
calibration on held-out bitext is ROADMAP item 4.
"""

__version__ = "0.1.0"
