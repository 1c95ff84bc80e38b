"""The traced run: the pipeline's layers called in-process, with a span each.

The spans live here, around calls into clirset's public functions, not
inside the program. Each span records its name, start, end, parent span
and run id; spans stay in memory and are written out once at the end.
The same layer sequence runs twice, once with the tracer on and once off,
so `trace.overhead_s` compares like with like.

Layers are looked up by name at call time. If a later version of clirset
drops or re-signs one of them, that step and the ones after it are
reported as absent; the end-to-end measurement never comes through here.
"""

from __future__ import annotations

import gc
import importlib
import json
import random
import statistics
import time
import uuid
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import SEARCHER_DIM, SEARCHER_EPOCHS, SEARCHER_LR, Workload, World

# Layers whose public functions the traced run calls, by module.
LAYERS = {
    "corpus": ("load_corpus", "load_queries", "load_translation_table", "load_bitext",
               "load_judgments", "bitext_corpus", "LEXICAL"),
    "evidence": ("build_evidence", "build_evidence_for_words", "TranslationTableGenerator",
                 "MtEnsembleGenerator", "SearcherGenerator", "SearcherConfig",
                 "load_mt_ensemble", "load_mt_hypotheses", "load_searcher",
                 "fit_mt_ensemble", "train_searcher", "labeled_instances", "Vocabulary"),
    "combiner": ("combine", "fit_mixture", "load_weights", "MixtureWeights"),
    "relevance": ("rank", "save_run"),
    "thresholder": ("decide", "ThresholdConfig", "returned_set", "save_cutoffs",
                    "save_returned_sets"),
    "scorer": ("score_run",),
    "numerics": ("DEFAULT_EPSILON",),
}

# CLI defaults the traced run mirrors.
VOCAB_SIZE = 2000
M_NEG = 50

GENERATORS = ("table", "mt", "searcher")

# (name, unit, better, where it applies). Every workload reports every
# metric: a layer the workload never runs reads 0, a layer that could not
# be called is left out.
PER_LAYER = [
    ("corpus.load_s", "s", "lower", "all"),
    ("corpus.segments", "count", "lower", "all"),
    ("corpus.arcs", "count", "lower", "all"),
    ("evidence.load_s", "s", "lower", "all"),
    *[
        metric
        for gen in GENERATORS
        for metric in (
            (f"evidence.{gen}.build_s", "s", "lower", gen),
            (f"evidence.{gen}.cells", "count", "lower", gen),
            (f"evidence.{gen}.modal_share", "fraction", "lower", gen),
        )
    ],
    ("combiner.combine_s", "s", "lower", "all"),
    ("combiner.cells", "count", "lower", "all"),
    *[(f"combiner.fit_build.{gen}_s", "s", "lower", "fit") for gen in GENERATORS],
    ("combiner.fit_mixture_s", "s", "lower", "fit"),
    ("combiner.em_iterations", "count", "lower", "fit"),
    ("combiner.instances", "count", "lower", "fit"),
    ("evidence.ensemble.fit_s", "s", "lower", "fit"),
    ("evidence.searcher.train_s", "s", "lower", "fit"),
    ("relevance.rank_s", "s", "lower", "all"),
    ("relevance.rank_ms_p50", "ms", "lower", "all"),
    ("relevance.rank_ms_tail", "ms", "lower", "all"),
    ("relevance.cell_reads", "count", "lower", "all"),
    ("relevance.save_run_s", "s", "lower", "all"),
    ("relevance.run_mb", "MB", "lower", "all"),
    ("thresholder.decide_s", "s", "lower", "all"),
    ("thresholder.save_s", "s", "lower", "all"),
    ("thresholder.mean_k", "docs", "lower", "all"),
    ("thresholder.empty_queries", "count", "lower", "all"),
    ("scorer.score_s", "s", "lower", "all"),
    ("trace.overhead_s", "s", "lower", "all"),
    ("trace.unattributed_s", "s", "lower", "all"),
]
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def applies(w: Workload, where: str) -> bool:
    if where == "all":
        return True
    if where == "fit":
        return w.fits
    return where in w.generators


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    ok: bool = True  # False when the call inside raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; with enabled=False every span is a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = Span(len(self.spans), name, self._open[-1] if self._open else None,
                      self.run_id, time.perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield
        except BaseException:
            record.ok = False
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        covered = Counter()
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        totals: Counter = Counter()
        for span in self.spans:
            totals[span.name] += span.duration - covered[span.id]
        return dict(totals)

    def totals(self) -> dict[str, float]:
        """Total duration per span name, leaving out names with a failed call."""
        totals: Counter = Counter()
        for span in self.spans:
            totals[span.name] += span.duration
        for span in self.spans:
            if not span.ok:
                totals.pop(span.name, None)
        return dict(totals)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")


class _Layers:
    """clirset's public names, resolved when first used."""

    def __getattr__(self, name: str):
        for module, names in LAYERS.items():
            if name in names:
                return getattr(importlib.import_module(f"clirset.{module}"), name)
        raise AttributeError(name)


L = _Layers()


# ---------------------------------------------------------------------------
# Layer sequences, mirroring what the CLI commands do
# ---------------------------------------------------------------------------


def _retrieve_layers(tr: Tracer, w: Workload, world: World, out: Path, state: dict) -> None:
    """What `clirset retrieve` does, one span per layer call."""
    eps = L.DEFAULT_EPSILON
    with tr.span("corpus.load"):
        corpus = state["corpus"] = L.load_corpus(world.corpus)
    with tr.span("evidence.load"):
        queries = [q for q in L.load_queries(world.queries) if q.kind == L.LEXICAL]
        generators = []
        if "table" in w.generators:
            generators.append(L.TranslationTableGenerator(L.load_translation_table(world.table)))
        if "mt" in w.generators:
            generators.append(L.MtEnsembleGenerator(
                L.load_mt_ensemble(world.mt_model), L.load_mt_hypotheses(world.mt_hyps)))
        if "searcher" in w.generators:
            generators.append(L.SearcherGenerator(L.load_searcher(world.searcher)))
        if len(generators) > 1:
            mixture = L.load_weights(world.weights)
        else:
            mixture = L.MixtureWeights.uniform([g.tag for g in generators])
    state["queries"] = queries
    matrices = state["matrices"] = {}
    for gen_name, gen in zip(w.generators, generators):
        with tr.span(f"evidence.{gen_name}.build"):
            matrices[gen_name] = L.build_evidence(gen, corpus, queries, eps)
    with tr.span("combiner.combine"):
        combined = state["combined"] = L.combine(list(matrices.values()), mixture)
    cfg = L.ThresholdConfig(beta=w.beta)
    results = state["results"] = []
    for query in queries:
        with tr.span("relevance.rank"):
            ranked = L.rank(combined, corpus, query)
        with tr.span("thresholder.decide"):
            decision = L.decide(ranked, cfg)
        results.append((ranked, decision))
    out.mkdir(parents=True, exist_ok=True)
    with tr.span("relevance.save_run"):
        L.save_run([ranked for ranked, _ in results], out / "ranked.run")
    with tr.span("thresholder.save"):
        L.save_cutoffs([decision for _, decision in results], out / "cutoffs.tsv")
        L.save_returned_sets(
            {r.query_id: L.returned_set(r, d) for r, d in results}, out / "sets.tsv")


def _fit_layers(tr: Tracer, world: World, state: dict) -> None:
    """What fit-ensemble, train-searcher and fit-mixture do, in one process."""
    with tr.span("evidence.load"):
        bitext = L.load_bitext(world.bitext)
        hyps = L.load_mt_hypotheses(world.mt_hyps)
        table = L.load_translation_table(world.table)
        vocab = L.Vocabulary.from_bitext(bitext, VOCAB_SIZE)
    with tr.span("evidence.ensemble.fit"):
        mt_model, _ = L.fit_mt_ensemble(hyps, bitext, vocab, m_neg=M_NEG, seed=0)
    with tr.span("evidence.searcher.train"):
        config = L.SearcherConfig(dim=SEARCHER_DIM, depth=0, epochs=SEARCHER_EPOCHS,
                                  lr=SEARCHER_LR, m_neg=M_NEG, seed=0)
        searcher, _ = L.train_searcher(bitext, vocab, config)
    with tr.span("combiner.fit_instances"):
        instances = L.labeled_instances(bitext, vocab, M_NEG, random.Random(0))
        words = {inst.word for inst in instances}
        pseudo = L.bitext_corpus(bitext)
    state["instances"] = len(instances)
    generators = {
        "table": L.TranslationTableGenerator(table),
        "mt": L.MtEnsembleGenerator(mt_model, hyps),
        "searcher": L.SearcherGenerator(searcher),
    }
    matrices = []
    for gen_name, gen in generators.items():
        with tr.span(f"combiner.fit_build.{gen_name}"):
            matrices.append(L.build_evidence_for_words(gen, pseudo, words, L.DEFAULT_EPSILON))
    with tr.span("combiner.fit_mixture"):
        state["mixture"] = L.fit_mixture(matrices, bitext, vocab, m_neg=M_NEG, seed=0)


# Exceptions that mean "this layer's public function is gone or re-signed".
LAYER_CHANGED = (ImportError, AttributeError, TypeError)


def _run_layers(tr: Tracer, w: Workload, world: World, out: Path, state: dict):
    """Run the layer sequence under a root span; returns (wall_s, error or None)."""
    gc.collect()  # start both passes from the same heap state
    start = time.perf_counter()
    try:
        with tr.span("pipeline"):
            if w.fits:
                _fit_layers(tr, world, state)
            _retrieve_layers(tr, w, world, out, state)
    except LAYER_CHANGED as exc:
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, None


def _modal_share(matrix) -> float:
    values = Counter(value for *_, value in matrix.iter_cells())
    total = sum(values.values())
    return values.most_common(1)[0][1] / total if total else 0.0


def _counts(w: Workload, state: dict, out: Path, tr: Tracer) -> dict[str, float]:
    """Work counts taken from the traced run's results, after its spans closed."""
    m: dict[str, float] = {}
    if w.fits:
        m["combiner.instances"] = state["instances"]
        m["combiner.em_iterations"] = len(state["mixture"].loglik_history)
    corpus = state["corpus"]
    segments = [seg for doc in corpus for seg in doc.segments]
    m["corpus.segments"] = len(segments)
    m["corpus.arcs"] = sum(len(slot) for seg in segments for slot in getattr(seg, "slots", ()))
    for gen_name, matrix in state["matrices"].items():
        m[f"evidence.{gen_name}.cells"] = matrix.n_cells()
        m[f"evidence.{gen_name}.modal_share"] = _modal_share(matrix)
    m["combiner.cells"] = state["combined"].n_cells()
    m["relevance.cell_reads"] = sum(
        len(phrase) * len(segments) for q in state["queries"] for phrase in q.phrases)
    rank_ms = sorted(1000.0 * s.duration for s in tr.spans if s.name == "relevance.rank")
    m["relevance.rank_ms_p50"] = statistics.median(rank_ms)
    # The highest percentile with at least ten queries beyond it.
    m["relevance.rank_ms_tail"] = rank_ms[max(len(rank_ms) - 11, 0)]
    m["relevance.run_mb"] = (out / "ranked.run").stat().st_size / 1e6
    ks = [decision.k for _, decision in state["results"]]
    m["thresholder.mean_k"] = sum(ks) / len(ks)
    m["thresholder.empty_queries"] = sum(1 for k in ks if k == 0)
    return m


def _score(tr: Tracer, world: World, state: dict) -> None:
    """Score every query, empty sets included, under its own root span."""
    judgments = L.load_judgments(world.judgments, state["corpus"])
    sets = {r.query_id: L.returned_set(r, d) for r, d in state["results"]}
    with tr.span("scorer.score"):
        L.score_run(sets, judgments, state["corpus"])


SPAN_METRICS = {
    "corpus.load": "corpus.load_s",
    "evidence.load": "evidence.load_s",
    **{f"evidence.{g}.build": f"evidence.{g}.build_s" for g in GENERATORS},
    "combiner.combine": "combiner.combine_s",
    **{f"combiner.fit_build.{g}": f"combiner.fit_build.{g}_s" for g in GENERATORS},
    "combiner.fit_mixture": "combiner.fit_mixture_s",
    "evidence.ensemble.fit": "evidence.ensemble.fit_s",
    "evidence.searcher.train": "evidence.searcher.train_s",
    "relevance.rank": "relevance.rank_s",
    "relevance.save_run": "relevance.save_run_s",
    "thresholder.decide": "thresholder.decide_s",
    "thresholder.save": "thresholder.save_s",
    "scorer.score": "scorer.score_s",
}


@dataclass
class TraceResult:
    metrics: dict[str, float]
    absent: dict[str, str]  # metric -> why it could not be measured
    self_share: dict[str, float]  # span name -> self time / traced wall
    traced_wall_s: float
    tracer: Tracer


def traced_run(w: Workload, world: World, out: Path, time_left=lambda: float("inf")
               ) -> TraceResult:
    """Traced then untraced pass over the layers; per-layer metrics from the former.

    The untraced pass, needed only for `trace.overhead_s`, is skipped when
    `time_left()` seconds would not comfortably hold it.
    """
    tr = Tracer()
    state: dict = {}
    _, error = _run_layers(tr, w, world, out / "traced", state)
    root = tr.spans[0]  # the pipeline span, opened first
    values: dict[str, float] = {}
    absent: dict[str, str] = {}
    if error is None:
        try:
            values.update(_counts(w, state, out / "traced", tr))
            _score(tr, world, state)
        except LAYER_CHANGED as exc:
            error = f"{type(exc).__name__}: {exc}"
    del state
    untraced_wall = None
    if error is None and time_left() > 1.5 * root.duration:
        untraced_wall, _ = _run_layers(Tracer(enabled=False), w, world, out / "untraced", {})
    totals = tr.totals()
    for span_name, metric in SPAN_METRICS.items():
        if span_name in totals:
            values[metric] = totals[span_name]
    self_times = tr.self_times()
    if error is None:
        values["trace.unattributed_s"] = self_times["pipeline"]
        if untraced_wall is not None:
            values["trace.overhead_s"] = root.duration - untraced_wall
    metrics = {}
    for name, _, _, where in PER_LAYER:
        if not applies(w, where):
            metrics[name] = 0
        elif name in values:
            metrics[name] = values[name]
        elif name == "trace.overhead_s" and error is None:
            absent[name] = "untraced pass skipped to stay within the run's deadline"
        else:
            absent[name] = error or "not measured"
    # Shares of the traced wall, so only spans under the pipeline root.
    outside = {s.name for s in tr.spans if s.parent is None and s.name != "pipeline"}
    share = {name: t / root.duration for name, t in self_times.items() if name not in outside}
    return TraceResult(metrics, absent, share, root.duration, tr)
