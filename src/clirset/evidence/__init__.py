"""Evidence generators: p(rel | sentence, English word) from each source."""

from .ensemble import (
    MT_GENERATOR_TAG,
    MtEnsembleGenerator,
    MtEnsembleModel,
    MtHypothesisSet,
    ensemble_objective,
    fit_mt_ensemble,
    load_mt_ensemble,
    load_mt_hypotheses,
    save_mt_ensemble,
    save_mt_hypotheses,
)
from .instances import (
    DEFAULT_NEGATIVES_PER_POSITIVE,
    LabeledInstance,
    LabeledInstances,
    labeled_instances,
)
from .matrix import (
    EvidenceGenerator,
    EvidenceMatrix,
    Vocabulary,
    build_evidence,
    build_evidence_for_words,
    query_words,
    save_matrix,
)
from .searcher import (
    SEARCHER_GENERATOR_TAG,
    SearcherConfig,
    SearcherGenerator,
    SearcherModel,
    load_searcher,
    save_searcher,
    searcher_objective,
    train_searcher,
)
from .tables import TranslationTableGenerator

__all__ = [
    "DEFAULT_NEGATIVES_PER_POSITIVE",
    "EvidenceGenerator",
    "EvidenceMatrix",
    "LabeledInstance",
    "LabeledInstances",
    "MT_GENERATOR_TAG",
    "MtEnsembleGenerator",
    "MtEnsembleModel",
    "MtHypothesisSet",
    "SEARCHER_GENERATOR_TAG",
    "SearcherConfig",
    "SearcherGenerator",
    "SearcherModel",
    "TranslationTableGenerator",
    "Vocabulary",
    "build_evidence",
    "build_evidence_for_words",
    "ensemble_objective",
    "fit_mt_ensemble",
    "labeled_instances",
    "load_mt_ensemble",
    "load_mt_hypotheses",
    "load_searcher",
    "query_words",
    "save_matrix",
    "save_mt_ensemble",
    "save_mt_hypotheses",
    "save_searcher",
    "searcher_objective",
    "train_searcher",
]
