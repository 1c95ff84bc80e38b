"""Evidence generators: p(rel | sentence, English word) from each source."""

from .ensemble import (
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
from .instances import LabeledInstance, labeled_instances
from .matrix import (
    EvidenceMatrix,
    Vocabulary,
    build_evidence,
    build_evidence_for_words,
    save_matrix,
)
from .searcher import (
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
    "EvidenceMatrix",
    "LabeledInstance",
    "MtEnsembleGenerator",
    "MtEnsembleModel",
    "MtHypothesisSet",
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
    "save_matrix",
    "save_mt_ensemble",
    "save_mt_hypotheses",
    "save_searcher",
    "searcher_objective",
    "train_searcher",
]
