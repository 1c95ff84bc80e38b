"""Command-line interface.

Subcommands cover the whole batch pipeline: synth, train-searcher,
fit-ensemble, fit-mixture, dump-evidence, retrieve, evaluate. Options can
also come from a flat `key = value` config file (underscores or dashes in
keys); explicit flags beat the config file, which beats built-in
defaults. Exit codes: 0 success, 1 usage or configuration error, 2
malformed data or violated invariant.
"""

from __future__ import annotations

import argparse
import logging
import random
import sys
from pathlib import Path
from typing import Sequence

from .combiner import MixtureWeights, combine, fit_mixture, load_weights, save_weights
from .corpus import (
    LEXICAL,
    bitext_corpus,
    data_lines,
    load_bitext,
    load_corpus,
    load_judgments,
    load_queries,
    load_translation_table,
)
from .errors import ConfigError, DataError
from .evidence import (
    DEFAULT_NEGATIVES_PER_POSITIVE,
    MtEnsembleGenerator,
    SearcherConfig,
    SearcherGenerator,
    TranslationTableGenerator,
    Vocabulary,
    build_evidence,
    build_evidence_for_words,
    fit_mt_ensemble,
    labeled_instances,
    load_mt_ensemble,
    load_mt_hypotheses,
    load_searcher,
    save_matrix,
    save_mt_ensemble,
    save_searcher,
    train_searcher,
)
from .evidence.ensemble import DEFAULT_L2, DEFAULT_LEARNING_RATE
from .numerics import DEFAULT_EPSILON
from .relevance import rank, save_run
from .scorer import format_summary, save_report, score_run
from .synth import SynthSpec, generate, write_dataset
from .thresholder import (
    DEFAULT_BETA,
    DEFAULT_GAMMA,
    ThresholdConfig,
    decide,
    load_cutoffs,
    load_returned_sets,
    returned_set,
    save_cutoffs,
    save_returned_sets,
)

log = logging.getLogger(__name__)

RANKED_FILE = "ranked.run"
CUTOFFS_FILE = "cutoffs.tsv"
SETS_FILE = "sets.tsv"
REPORT_FILE = "report.tsv"

DEFAULT_VOCAB_SIZE = 2000


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _load_config(path: Path, command: str, options) -> dict[str, str]:
    """The `key = value` lines of `path`; every key must be one of `options`."""
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    config: dict[str, str] = {}
    for lineno, line in data_lines(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected `key = value`, got {line!r}"
            )
        raw_key, _, value = line.partition("=")
        key = raw_key.strip().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key not in options:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {raw_key.strip()!r}:"
                f" {command} has no option --{key.replace('_', '-')}"
            )
        config[key] = value.strip()
    return config


class Options:
    """Flag / config-file / default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        config_path = self._args.get("config")
        # argparse gives every option of the subcommand a value, None if unset
        options = self._args.keys() - {"command", "handler"}
        self._config = (
            _load_config(config_path, args.command, options) if config_path else {}
        )

    def get(self, key: str, default=None, cast=str, required: bool = False):
        value = self._args.get(key)
        if value is None and key in self._config:
            raw = self._config[key]
            try:
                value = cast(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"config value {key} = {raw!r} is not a valid"
                    f" {getattr(cast, '__name__', 'value')}"
                ) from exc
        if value is None:
            value = default
        if required and value is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return value

    def input_file(self, key: str, required: bool = False) -> Path | None:
        value = self.get(key, cast=Path, required=required)
        if value is not None and not Path(value).is_file():
            raise ConfigError(f"input file does not exist: {value}")
        return Path(value) if value is not None else None

    def output_file(self, key: str, required: bool = False) -> Path | None:
        """The path under `key`, with its parent directory created."""
        value = self.get(key, cast=Path, required=required)
        if value is None:
            return None
        path = Path(value)
        _make_directory(path.parent, path)
        return path

    def output_dir(self, key: str) -> Path:
        """The required directory under `key`, created if it does not exist."""
        path = Path(self.get(key, cast=Path, required=True))
        _make_directory(path, path)
        return path

    def input_files(self, key: str) -> list[Path]:
        value = self._args.get(key)
        if value is None and key in self._config:
            value = [Path(p) for p in self._config[key].split(",") if p.strip()]
        if not value:
            return []
        for path in value:
            if not Path(path).is_file():
                raise ConfigError(f"input file does not exist: {path}")
        return [Path(p) for p in value]


def _make_directory(directory: Path, target: Path) -> None:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory for {target}: {exc}") from exc


def _int_pair(raw: str) -> tuple[int, int]:
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError("expected two integers")
    return int(parts[0]), int(parts[1])


def _float_pair(raw: str) -> tuple[float, float]:
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError("expected two floats")
    return float(parts[0]), float(parts[1])


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns 0; errors surface as exceptions.
# ---------------------------------------------------------------------------


def cmd_synth(opt: Options) -> int:
    d = SynthSpec()  # dataclass defaults are the single source of truth
    spec = SynthSpec(
        seed=opt.get("seed", d.seed, int),
        foreign_vocab=opt.get("foreign_vocab", d.foreign_vocab, int),
        english_vocab=opt.get("english_vocab", d.english_vocab, int),
        noise=opt.get("noise", d.noise, float),
        docs=opt.get("docs", d.docs, int),
        sentences_per_doc=tuple(
            opt.get("sentences_per_doc", d.sentences_per_doc, _int_pair)
        ),
        sentence_len=tuple(opt.get("sentence_len", d.sentence_len, _int_pair)),
        queries=opt.get("queries", d.queries, int),
        phrases_per_query=tuple(
            opt.get("phrases_per_query", d.phrases_per_query, _int_pair)
        ),
        phrase_len=tuple(opt.get("phrase_len", d.phrase_len, _int_pair)),
        speech_fraction=opt.get("speech_fraction", d.speech_fraction, float),
        confusion_depth=opt.get("confusion_depth", d.confusion_depth, int),
        relevance_rate=opt.get("relevance_rate", d.relevance_rate, float),
        bitext_pairs=opt.get("bitext_pairs", d.bitext_pairs, int),
        mt_error_rates=tuple(
            opt.get("mt_error_rates", d.mt_error_rates, _float_pair)
        ),
    )
    outdir = opt.output_dir("out")
    dataset = generate(spec)
    write_dataset(dataset, outdir)
    print(
        f"synth: {len(dataset.corpus)} documents, {len(dataset.queries)}"
        f" queries, {len(dataset.bitext)} bitext pairs -> {outdir}"
    )
    return 0


def cmd_train_searcher(opt: Options) -> int:
    bitext = load_bitext(opt.input_file("bitext", required=True))
    vocab = Vocabulary.from_bitext(bitext, opt.get("vocab_size", DEFAULT_VOCAB_SIZE, int))
    d = SearcherConfig()
    config = SearcherConfig(
        dim=opt.get("dim", d.dim, int),
        depth=opt.get("depth", d.depth, int),
        epochs=opt.get("epochs", d.epochs, int),
        lr=opt.get("lr", d.lr, float),
        m_neg=opt.get("m_neg", d.m_neg, int),
        seed=opt.get("seed", d.seed, int),
    )
    out = opt.output_file("out", required=True)
    model, losses = train_searcher(bitext, vocab, config)
    save_searcher(model, out)
    print(
        f"train-searcher: {len(bitext)} pairs, {config.epochs} epochs,"
        f" final mean loss {losses[-1]:.6f} -> {out}"
    )
    return 0


def cmd_fit_ensemble(opt: Options) -> int:
    bitext = load_bitext(opt.input_file("bitext", required=True))
    hyps = load_mt_hypotheses(opt.input_file("mt_hyps", required=True))
    vocab = Vocabulary.from_bitext(bitext, opt.get("vocab_size", DEFAULT_VOCAB_SIZE, int))
    out = opt.output_file("out", required=True)
    model, loss = fit_mt_ensemble(
        hyps,
        bitext,
        vocab,
        m_neg=opt.get("m_neg", DEFAULT_NEGATIVES_PER_POSITIVE, int),
        l2=opt.get("l2", DEFAULT_L2, float),
        lr=opt.get("lr", DEFAULT_LEARNING_RATE, float),
        seed=opt.get("seed", 0, int),
    )
    save_mt_ensemble(model, out)
    print(
        f"fit-ensemble: {len(model.systems)} systems, final loss"
        f" {loss:.6f} -> {out}"
    )
    return 0


def _build_generators(opt: Options) -> list:
    generators = []
    for path in opt.input_files("table"):
        generators.append(TranslationTableGenerator(load_translation_table(path)))
    mt_hyps_path = opt.input_file("mt_hyps")
    mt_model_path = opt.input_file("mt_model")
    if (mt_hyps_path is None) != (mt_model_path is None):
        raise ConfigError("--mt-hyps and --mt-model must be given together")
    if mt_hyps_path is not None:
        generators.append(
            MtEnsembleGenerator(
                load_mt_ensemble(mt_model_path), load_mt_hypotheses(mt_hyps_path)
            )
        )
    searcher_path = opt.input_file("searcher_model")
    if searcher_path is not None:
        generators.append(SearcherGenerator(load_searcher(searcher_path)))

    if not generators:
        raise ConfigError(
            "no evidence generators configured; pass --table, --mt-hyps/"
            "--mt-model, or --searcher-model"
        )
    tags = [gen.tag for gen in generators]
    if len(set(tags)) != len(tags):
        raise ConfigError(f"duplicate generator tags: {sorted(tags)}")
    return generators


def _fit_weights(opt: Options, generators, bitext_path: Path) -> MixtureWeights:
    """EM-fit mixture weights for `generators` on held-out bitext."""
    bitext = load_bitext(bitext_path)
    vocab = Vocabulary.from_bitext(bitext, opt.get("vocab_size", DEFAULT_VOCAB_SIZE, int))
    epsilon = opt.get("epsilon", DEFAULT_EPSILON, float)
    m_neg = opt.get("m_neg", DEFAULT_NEGATIVES_PER_POSITIVE, int)
    seed = opt.get("seed", 0, int)

    # The instances are drawn once: the matrices only need to cover their
    # words, and the fitter reads them as they are.
    instances = labeled_instances(bitext, vocab, m_neg, random.Random(seed))
    words = {inst.word for inst in instances}
    pseudo = bitext_corpus(bitext)
    matrices = [
        build_evidence_for_words(gen, pseudo, words, epsilon) for gen in generators
    ]
    return fit_mixture(
        matrices, bitext, vocab, m_neg=m_neg, seed=seed, instances=instances
    )


def cmd_fit_mixture(opt: Options) -> int:
    bitext_path = opt.input_file("bitext", required=True)
    generators = _build_generators(opt)
    out = opt.output_file("out", required=True)
    mixture = _fit_weights(opt, generators, bitext_path)
    save_weights(mixture, out)
    parts = " ".join(
        f"{tag}={mixture.weights[tag]:.4f}" for tag in sorted(mixture.weights)
    )
    print(f"fit-mixture: {parts} loglik={mixture.loglik:.6f} -> {out}")
    return 0


def _lexical_queries(queries):
    lexical = []
    for query in queries:
        if query.kind == LEXICAL:
            lexical.append(query)
        else:
            log.warning(
                "skipping query %s: kind %r is not retrievable",
                query.id,
                query.kind,
            )
    if not lexical:
        raise DataError("no lexical queries to retrieve")
    return lexical


def cmd_dump_evidence(opt: Options) -> int:
    corpus = load_corpus(opt.input_file("corpus", required=True))
    queries = load_queries(opt.input_file("queries", required=True))
    generators = _build_generators(opt)
    if len(generators) != 1:
        raise ConfigError(
            "dump-evidence writes one matrix; configure exactly one generator"
        )
    epsilon = opt.get("epsilon", DEFAULT_EPSILON, float)
    out = opt.output_file("out", required=True)
    matrix = build_evidence(generators[0], corpus, _lexical_queries(queries), epsilon)
    cells = save_matrix(matrix, out)
    print(f"dump-evidence: generator={matrix.generator} cells={cells} -> {out}")
    return 0


def _resolve_weights(opt: Options, generators) -> MixtureWeights:
    choice = opt.get("weights", "uniform")
    bitext_path = opt.input_file("bitext")
    if choice == "uniform":
        return MixtureWeights.uniform([gen.tag for gen in generators])
    if choice == "fit":
        if bitext_path is None:
            raise ConfigError("--weights fit needs --bitext for held-out fitting")
        return _fit_weights(opt, generators, bitext_path)
    weights_path = Path(choice)
    if not weights_path.is_file():
        raise ConfigError(f"weights file does not exist: {weights_path}")
    return load_weights(weights_path)


def cmd_retrieve(opt: Options) -> int:
    corpus = load_corpus(opt.input_file("corpus", required=True))
    queries = _lexical_queries(load_queries(opt.input_file("queries", required=True)))
    generators = _build_generators(opt)
    epsilon = opt.get("epsilon", DEFAULT_EPSILON, float)
    cfg = ThresholdConfig(
        beta=opt.get("beta", DEFAULT_BETA, float),
        gamma=opt.get("gamma", DEFAULT_GAMMA, float),
        epsilon=epsilon,
    )
    outdir = opt.output_dir("out")

    matrices = [build_evidence(gen, corpus, queries, epsilon) for gen in generators]
    mixture = _resolve_weights(opt, generators)
    combined = combine(matrices, mixture)

    decisions = []
    sets_by_query = {}

    def ranked_lists():
        """Each query's ranked list, once its decision and set are kept."""
        for query in queries:
            ranked = rank(combined, corpus, query)
            decision = decide(ranked, cfg)
            decisions.append(decision)
            sets_by_query[ranked.query_id] = returned_set(ranked, decision)
            yield ranked

    save_run(ranked_lists(), outdir / RANKED_FILE)
    save_cutoffs(decisions, outdir / CUTOFFS_FILE)
    save_returned_sets(sets_by_query, outdir / SETS_FILE)
    mean_k = sum(d.k for d in decisions) / len(decisions)
    print(
        f"retrieve: {len(queries)} queries over {len(corpus)} documents,"
        f" mean cutoff {mean_k:.2f} -> {outdir}"
    )
    return 0


def cmd_evaluate(opt: Options) -> int:
    corpus = load_corpus(opt.input_file("corpus", required=True))
    judgments = load_judgments(opt.input_file("judgments", required=True), corpus)
    returned_sets = load_returned_sets(opt.input_file("sets", required=True))
    cutoffs_path = opt.input_file("cutoffs")
    if cutoffs_path is not None:
        retrieved = load_cutoffs(cutoffs_path)
        for qid in sorted(judgments.relevant):
            if qid not in retrieved:
                log.warning("query %s not retrieved; scored as an empty set", qid)
    beta = opt.get("beta", DEFAULT_BETA, float)
    run_score = score_run(returned_sets, judgments, corpus, beta)
    out = opt.output_file("out")
    if out is not None:
        save_report(run_score, out)
    print(f"evaluate: {format_summary(run_score)}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="clirset", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, help="flat key = value file")
    common.add_argument("--verbose", action="store_true")
    common.add_argument("--seed", type=int)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset")
    p.add_argument("--out", type=Path)
    p.add_argument("--foreign-vocab", type=int)
    p.add_argument("--english-vocab", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--docs", type=int)
    p.add_argument("--sentences-per-doc", type=int, nargs=2)
    p.add_argument("--sentence-len", type=int, nargs=2)
    p.add_argument("--queries", type=int)
    p.add_argument("--phrases-per-query", type=int, nargs=2)
    p.add_argument("--phrase-len", type=int, nargs=2)
    p.add_argument("--speech-fraction", type=float)
    p.add_argument("--confusion-depth", type=int)
    p.add_argument("--relevance-rate", type=float)
    p.add_argument("--bitext-pairs", type=int)
    p.add_argument("--mt-error-rates", type=float, nargs=2)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train-searcher", parents=[common],
                       help="train the embedding scorer on bitext")
    p.add_argument("--bitext", type=Path)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--depth", type=int, choices=(0, 1))
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--m-neg", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_train_searcher)

    p = sub.add_parser("fit-ensemble", parents=[common],
                       help="fit per-system MT ensemble weights")
    p.add_argument("--bitext", type=Path)
    p.add_argument("--mt-hyps", type=Path)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--m-neg", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_fit_ensemble)

    def add_generator_args(p):
        p.add_argument("--table", type=Path, action="append",
                       help="translation table (repeatable)")
        p.add_argument("--mt-hyps", type=Path)
        p.add_argument("--mt-model", type=Path)
        p.add_argument("--searcher-model", type=Path)
        p.add_argument("--epsilon", type=float)

    p = sub.add_parser("fit-mixture", parents=[common],
                       help="EM-fit mixture weights on held-out bitext")
    add_generator_args(p)
    p.add_argument("--bitext", type=Path)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--m-neg", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_fit_mixture)

    p = sub.add_parser("dump-evidence", parents=[common],
                       help="write one generator's evidence matrix")
    add_generator_args(p)
    p.add_argument("--corpus", type=Path)
    p.add_argument("--queries", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_dump_evidence)

    p = sub.add_parser("retrieve", parents=[common],
                       help="rank, threshold, and emit returned sets")
    add_generator_args(p)
    p.add_argument("--corpus", type=Path)
    p.add_argument("--queries", type=Path)
    p.add_argument("--weights",
                   help="'uniform', 'fit', or a weights file path")
    p.add_argument("--bitext", type=Path, help="held-out bitext for --weights fit")
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--m-neg", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_retrieve)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score returned sets against judgments")
    p.add_argument("--corpus", type=Path)
    p.add_argument("--judgments", type=Path)
    p.add_argument("--sets", type=Path)
    p.add_argument("--cutoffs", type=Path)
    p.add_argument("--beta", type=float)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.handler(Options(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
