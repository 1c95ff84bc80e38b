"""Command-line interface.

Subcommands cover the whole batch pipeline: synth, train-searcher,
fit-ensemble, fit-mixture, dump-evidence, retrieve, evaluate. Every
option but --config and --verbose can also come from a flat `key = value`
config file (underscores or dashes in keys). Each line reads as the flag `--key` followed by the value split
like shell words, and sets that option only if the command line did not.
An option set nowhere takes the library's default. Exit codes: 0 success,
1 usage or configuration error, 2 malformed data or violated invariant.
"""

from __future__ import annotations

import argparse
import logging
import shlex
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from .combiner import (
    MixtureWeights,
    check_tags,
    combine,
    fit_mixture,
    load_weights,
    save_weights,
)
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
    MtEnsembleGenerator,
    SearcherConfig,
    SearcherGenerator,
    TranslationTableGenerator,
    Vocabulary,
    build_evidence,
    build_evidence_for_words,
    fit_mt_ensemble,
    load_mt_ensemble,
    load_mt_hypotheses,
    load_searcher,
    save_matrix,
    save_mt_ensemble,
    save_searcher,
    train_searcher,
)
from .relevance import rank, save_run
from .scorer import format_summary, save_report, score_run
from .synth import DATASET_FILES, SynthSpec, generate, write_dataset
from .thresholder import (
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


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1).

    A flag must be spelled out in full, as a config key must: no prefix of
    a flag stands for it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _input_file(value: str) -> Path:
    """argparse type of an input path: the file must exist."""
    path = Path(value)
    if not path.is_file():
        raise argparse.ArgumentTypeError(f"input file does not exist: {path}")
    return path


def _add_fields(parser: argparse.ArgumentParser, cls) -> None:
    """One flag per field of the dataclass `cls`, typed by the field's default."""
    for field in fields(cls):
        flag = "--" + field.name.replace("_", "-")
        if isinstance(field.default, tuple):
            parser.add_argument(
                flag, type=type(field.default[0]), nargs=len(field.default)
            )
        else:
            parser.add_argument(flag, type=type(field.default))


def _with_config(parser: _Parser, args: argparse.Namespace) -> argparse.Namespace:
    """`args`, with the options it left unset taken from its --config file.

    Each line is parsed by the subcommand's own parser, so a config value
    is checked exactly as the same flag on the command line would be.
    """
    path = args.config
    if path is None:
        return args
    unset = vars(parser.parse_args([args.command]))
    keys = unset.keys() - {"command", "handler", "config", "verbose"}
    for lineno, line in data_lines(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected `key = value`, got {line!r}"
            )
        raw_key, _, value = line.partition("=")
        raw_key = raw_key.strip()
        key = raw_key.replace("-", "_")
        flag = "--" + key.replace("_", "-")
        if key not in keys:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {raw_key!r}:"
                f" {args.command} has no option {flag}"
            )
        sets_other = ConfigError(
            f"{path}:{lineno}: the value of {raw_key!r} sets other options"
        )
        try:
            words = shlex.split(value)
        except ValueError as exc:  # unbalanced quotes
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        # -h (-hh too) or --help would print the help and exit in parse_args
        if any(word == "--help" or word.startswith("-h") for word in words):
            raise sets_other
        try:
            given = vars(parser.parse_args([args.command, flag, *words]))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if any(given[other] != unset[other] for other in unset.keys() - {key}):
            raise sets_other
        if getattr(args, key) is None:
            setattr(args, key, given[key])
    return args


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among `names` that were set, as library keyword arguments.

    argparse gives a multi-value option as a list; the library takes tuples.
    """
    values = {name: getattr(args, name) for name in names}
    return {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in values.items()
        if value is not None
    }


def _field_names(cls) -> list[str]:
    return [field.name for field in fields(cls)]


def _required(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _output_file(path: Path) -> Path:
    """`path`, checked before any work.

    An existing directory cannot be replaced, and no directory can be made
    under a file; the directories themselves are made only at the write.
    A path the checks cannot look at, such as one under a directory that
    cannot be searched, is refused with the system's reason.
    """
    try:
        is_dir = path.is_dir()
        nearest = next(parent for parent in path.parents if parent.exists())
        nearest_is_dir = nearest.is_dir()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if is_dir:
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not nearest_is_dir:
        raise ConfigError(
            f"cannot create directory for {path}: {nearest} is not a directory"
        )
    return path


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns 0; errors surface as exceptions.
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(**_given(args, *_field_names(SynthSpec)))
    outdir = _required(args, "out")
    for name in DATASET_FILES.values():
        _output_file(outdir / name)
    dataset = generate(spec)
    write_dataset(dataset, outdir)
    print(
        f"synth: {len(dataset.corpus)} documents, {len(dataset.queries)}"
        f" queries, {len(dataset.bitext)} bitext pairs -> {outdir}"
    )
    return 0


def cmd_train_searcher(args: argparse.Namespace) -> int:
    bitext_path = _required(args, "bitext")
    out = _output_file(_required(args, "out"))
    config = SearcherConfig(**_given(args, *_field_names(SearcherConfig)))
    bitext = load_bitext(bitext_path)
    vocab = Vocabulary.from_bitext(bitext, **_given(args, "vocab_size"))
    model, losses = train_searcher(bitext, vocab, config)
    save_searcher(model, out)
    print(
        f"train-searcher: {len(bitext)} pairs, {config.epochs} epochs,"
        f" final mean loss {losses[-1]:.6f} -> {out}"
    )
    return 0


def cmd_fit_ensemble(args: argparse.Namespace) -> int:
    bitext_path = _required(args, "bitext")
    hyps_path = _required(args, "mt_hyps")
    out = _output_file(_required(args, "out"))
    bitext = load_bitext(bitext_path)
    hyps = load_mt_hypotheses(hyps_path)
    vocab = Vocabulary.from_bitext(bitext, **_given(args, "vocab_size"))
    model, loss = fit_mt_ensemble(hyps, bitext, vocab)
    save_mt_ensemble(model, out)
    print(
        f"fit-ensemble: {len(model.systems)} systems, final loss"
        f" {loss:.6f} -> {out}"
    )
    return 0


def _build_generators(args: argparse.Namespace) -> list:
    tables = [] if args.table is None else args.table
    generators = [
        TranslationTableGenerator(load_translation_table(path)) for path in tables
    ]
    if (args.mt_hyps is None) != (args.mt_model is None):
        raise ConfigError("--mt-hyps and --mt-model must be given together")
    if args.mt_hyps is not None:
        generators.append(
            MtEnsembleGenerator(
                load_mt_ensemble(args.mt_model), load_mt_hypotheses(args.mt_hyps)
            )
        )
    if args.searcher_model is not None:
        generators.append(SearcherGenerator(load_searcher(args.searcher_model)))

    if not generators:
        raise ConfigError(
            "no evidence generators configured; pass --table, --mt-hyps/"
            "--mt-model, or --searcher-model"
        )
    tags = [gen.tag for gen in generators]
    if len(set(tags)) != len(tags):
        raise ConfigError(f"duplicate generator tags: {sorted(tags)}")
    return generators


def _build_each(generators: list, build) -> list:
    """`build(gen)` for each generator in order, emptying `generators`.

    A generator, and the model and hypotheses it holds, is released as
    soon as its matrix is built.
    """
    matrices = []
    while generators:
        matrices.append(build(generators.pop(0)))
    return matrices


def cmd_fit_mixture(args: argparse.Namespace) -> int:
    bitext_path = _required(args, "bitext")
    out = _output_file(_required(args, "out"))
    generators = _build_generators(args)
    bitext = load_bitext(bitext_path)
    vocab = Vocabulary.from_bitext(bitext, **_given(args, "vocab_size"))
    # Every word of a vocabulary drawn from this bitext is a positive of
    # some pair, so the matrices cover exactly the instances' words.
    pseudo = bitext_corpus(bitext)
    matrices = _build_each(
        generators, lambda gen: build_evidence_for_words(gen, pseudo, vocab.tokens)
    )
    mixture = fit_mixture(matrices, bitext, vocab)
    save_weights(mixture, out)
    parts = " ".join(
        f"{tag}={mixture.weights[tag]:.4f}" for tag in sorted(mixture.weights)
    )
    print(
        f"fit-mixture: {parts} loglik={mixture.loglik:.6f}"
        f" kkt_gap={mixture.kkt_gap:.3g}"
        f" iterations={len(mixture.loglik_history)} -> {out}"
    )
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


def cmd_dump_evidence(args: argparse.Namespace) -> int:
    corpus_path = _required(args, "corpus")
    queries_path = _required(args, "queries")
    out = _output_file(_required(args, "out"))
    corpus = load_corpus(corpus_path)
    queries = load_queries(queries_path)
    generators = _build_generators(args)
    if len(generators) != 1:
        raise ConfigError(
            "dump-evidence writes one matrix; configure exactly one generator"
        )
    matrix = build_evidence(generators[0], corpus, _lexical_queries(queries))
    cells = save_matrix(matrix, out)
    print(f"dump-evidence: generator={matrix.generator} cells={cells} -> {out}")
    return 0


def _resolve_weights(args: argparse.Namespace, generators) -> MixtureWeights:
    if args.weights is None or args.weights == "uniform":
        return MixtureWeights.uniform([gen.tag for gen in generators])
    weights_path = Path(args.weights)
    if not weights_path.is_file():
        raise ConfigError(f"weights file does not exist: {weights_path}")
    mixture = load_weights(weights_path)
    try:
        check_tags(mixture, [gen.tag for gen in generators])
    except DataError as exc:
        raise DataError(f"{weights_path}: {exc}") from exc
    return mixture


def cmd_retrieve(args: argparse.Namespace) -> int:
    corpus_path = _required(args, "corpus")
    queries_path = _required(args, "queries")
    outdir = _required(args, "out")
    for name in (RANKED_FILE, CUTOFFS_FILE, SETS_FILE):
        _output_file(outdir / name)
    corpus = load_corpus(corpus_path)
    queries = _lexical_queries(load_queries(queries_path))
    generators = _build_generators(args)
    cfg = ThresholdConfig(**_given(args, "beta", "gamma"))

    mixture = _resolve_weights(args, generators)
    matrices = _build_each(
        generators, lambda gen: build_evidence(gen, corpus, queries)
    )
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


def cmd_evaluate(args: argparse.Namespace) -> int:
    out = None if args.out is None else _output_file(args.out)
    corpus = load_corpus(_required(args, "corpus"))
    judgments = load_judgments(_required(args, "judgments"), corpus)
    returned_sets = load_returned_sets(_required(args, "sets"), corpus)
    if args.cutoffs is not None:
        retrieved = load_cutoffs(args.cutoffs)
        for qid in sorted(judgments.relevant):
            if qid not in retrieved:
                log.warning("query %s not retrieved; scored as an empty set", qid)
    run_score = score_run(returned_sets, judgments, corpus, **_given(args, "beta"))
    if out is not None:
        save_report(run_score, out)
    print(f"evaluate: {format_summary(run_score)}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly. Every option defaults to None, meaning "not set".
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="clirset", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", type=_input_file, help="flat key = value file")
    common.add_argument("--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset")
    _add_fields(p, SynthSpec)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train-searcher", parents=[common],
                       help="train the embedding scorer on bitext")
    p.add_argument("--bitext", type=_input_file)
    p.add_argument("--vocab-size", type=int)
    _add_fields(p, SearcherConfig)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_train_searcher)

    p = sub.add_parser("fit-ensemble", parents=[common],
                       help="fit per-system MT ensemble weights")
    p.add_argument("--bitext", type=_input_file)
    p.add_argument("--mt-hyps", type=_input_file)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_fit_ensemble)

    def add_generator_args(p):
        p.add_argument("--table", type=_input_file, action="extend", nargs="+",
                       help="translation tables (repeatable)")
        p.add_argument("--mt-hyps", type=_input_file)
        p.add_argument("--mt-model", type=_input_file)
        p.add_argument("--searcher-model", type=_input_file)

    p = sub.add_parser("fit-mixture", parents=[common],
                       help="EM-fit mixture weights on held-out bitext")
    add_generator_args(p)
    p.add_argument("--bitext", type=_input_file)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_fit_mixture)

    p = sub.add_parser("dump-evidence", parents=[common],
                       help="write one generator's evidence matrix")
    add_generator_args(p)
    p.add_argument("--corpus", type=_input_file)
    p.add_argument("--queries", type=_input_file)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_dump_evidence)

    p = sub.add_parser("retrieve", parents=[common],
                       help="rank, threshold, and emit returned sets")
    add_generator_args(p)
    p.add_argument("--corpus", type=_input_file)
    p.add_argument("--queries", type=_input_file)
    p.add_argument("--weights", help="'uniform' or a weights file path")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_retrieve)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score returned sets against judgments")
    p.add_argument("--corpus", type=_input_file)
    p.add_argument("--judgments", type=_input_file)
    p.add_argument("--sets", type=_input_file)
    p.add_argument("--cutoffs", type=_input_file)
    p.add_argument("--beta", type=float)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _with_config(parser, parser.parse_args(argv))
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
