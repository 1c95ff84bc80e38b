"""End-to-end command-line tests, driving main() in process."""

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import re
import shlex
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest

import clirset.cli as cli_module
import clirset.combiner as combiner_module
from clirset.cli import build_parser, main
from clirset.combiner import load_weights
from clirset.corpus import load_bitext
from clirset.relevance import rank
from clirset.evidence import (
    SearcherConfig,
    Vocabulary,
    fit_mt_ensemble,
    labeled_instances,
    load_mt_ensemble,
    load_mt_hypotheses,
    load_searcher,
    save_mt_ensemble,
    save_searcher,
    train_searcher,
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """One small noise-free dataset shared by the read-only tests."""
    out = tmp_path_factory.mktemp("data")
    code = main([
        "synth", "--out", str(out),
        "--docs", "30", "--queries", "5",
        "--foreign-vocab", "60", "--english-vocab", "60",
        "--bitext-pairs", "60",
    ])
    assert code == 0
    return out


def retrieve_args(data_dir, out):
    return [
        "retrieve",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--queries", str(data_dir / "queries.tsv"),
        "--table", str(data_dir / "table.tsv"),
        "--out", str(out),
    ]


def fit_ensemble(data_dir, out):
    assert main([
        "fit-ensemble",
        "--bitext", str(data_dir / "bitext.tsv"),
        "--mt-hyps", str(data_dir / "mt_hyps.tsv"),
        "--out", str(out),
    ]) == 0
    return out


def npz_members(path):
    """Each array's .npy bytes in a .npz archive; the zip entries' times differ."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def evaluate_args(data_dir, sets):
    return [
        "evaluate",
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--judgments", str(data_dir / "judgments.tsv"),
        "--sets", str(sets),
    ]


def without_query(path, qid, out):
    """Copy a TSV keyed by query id, leaving out `qid`'s lines."""
    kept = [
        line for line in path.read_text().splitlines()
        if not line.startswith(qid + "\t")
    ]
    out.write_text("".join(line + "\n" for line in kept))
    return out


class TestPipeline:
    def test_synth_reports_sizes(self, data_dir, capsys):
        # fixture already ran synth; run again to observe stdout
        code = main([
            "synth", "--out", str(data_dir),
            "--docs", "30", "--queries", "5",
            "--foreign-vocab", "60", "--english-vocab", "60",
            "--bitext-pairs", "60",
        ])
        assert code == 0
        assert "30 documents, 5 queries" in capsys.readouterr().out

    def test_retrieve_then_evaluate_is_perfect_on_clean_data(
        self, data_dir, tmp_path, capsys
    ):
        run = tmp_path / "run"
        assert main(retrieve_args(data_dir, run)) == 0
        for name in ("ranked.run", "cutoffs.tsv", "sets.tsv"):
            assert (run / name).is_file()
        report = tmp_path / "report.tsv"
        code = main(evaluate_args(data_dir, run / "sets.tsv") + [
            "--cutoffs", str(run / "cutoffs.tsv"),
            "--out", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluate: mAQWV=1.0 " in out
        assert report.read_text().splitlines()[-1].startswith("mAQWV=1.0 ")

    def test_retrieve_output_is_byte_deterministic(self, data_dir, tmp_path):
        run1, run2 = tmp_path / "r1", tmp_path / "r2"
        assert main(retrieve_args(data_dir, run1)) == 0
        assert main(retrieve_args(data_dir, run2)) == 0
        for name in ("ranked.run", "cutoffs.tsv", "sets.tsv"):
            assert (run1 / name).read_bytes() == (run2 / name).read_bytes()

    def test_retrieve_holds_one_ranked_list_at_a_time(
        self, data_dir, tmp_path, monkeypatch
    ):
        alive = []  # weak references to every ranked list made so far
        most_alive = 0

        def tracked_rank(*args):
            nonlocal most_alive
            most_alive = max(most_alive, sum(ref() is not None for ref in alive))
            ranked = rank(*args)
            alive.append(weakref.ref(ranked))
            return ranked

        monkeypatch.setattr(cli_module, "rank", tracked_rank)
        assert main(retrieve_args(data_dir, tmp_path / "run")) == 0
        assert len(alive) == 5
        # at most the list before, whose lines may still be being written
        assert most_alive <= 1
        assert all(ref() is None for ref in alive)

    @pytest.mark.parametrize(
        "command, consumer", [("retrieve", "combine"), ("fit-mixture", "fit_mixture")]
    )
    def test_no_generator_outlives_its_build(
        self, data_dir, tmp_path, monkeypatch, command, consumer
    ):
        loaded = []  # a weak reference to each hypothesis set loaded
        entered = []  # whether the sets were dead when the consumer was entered

        def tracked_load(*args):
            hyps = load_mt_hypotheses(*args)
            loaded.append(weakref.ref(hyps))
            return hyps

        def spy(*args, real=getattr(cli_module, consumer)):
            entered.append(all(ref() is None for ref in loaded))
            return real(*args)

        mt = fit_ensemble(data_dir, tmp_path / "mt.json")
        monkeypatch.setattr(cli_module, "load_mt_hypotheses", tracked_load)
        monkeypatch.setattr(cli_module, consumer, spy)
        mt_args = ["--mt-hyps", str(data_dir / "mt_hyps.tsv"), "--mt-model", str(mt)]
        argv = {
            "retrieve": retrieve_args(data_dir, tmp_path / "run"),
            "fit-mixture": [
                command, "--bitext", str(data_dir / "bitext.tsv"),
                "--table", str(data_dir / "table.tsv"),
                "--out", str(tmp_path / "weights.tsv"),
            ],
        }[command]
        assert main(argv + mt_args) == 0
        assert len(loaded) == 1
        assert entered == [True]

    def test_missing_query_in_sets_scores_as_empty_set(
        self, data_dir, tmp_path, capsys
    ):
        run = tmp_path / "run"
        assert main(retrieve_args(data_dir, run)) == 0
        trimmed = without_query(run / "sets.tsv", "q000", tmp_path / "sets.tsv")
        base = evaluate_args(data_dir, trimmed)
        with_cutoffs = base + ["--cutoffs", str(run / "cutoffs.tsv")]
        for argv in (base, with_cutoffs):
            assert main(argv) == 0
            out = capsys.readouterr().out
            # q000 scores 0 as an empty set, dragging the mean to 4/5
            assert "n_q=5" in out
            assert "mAQWV=0.8 " in out

    def test_judged_query_missing_from_cutoffs_warns(
        self, data_dir, tmp_path, caplog
    ):
        run = tmp_path / "run"
        assert main(retrieve_args(data_dir, run)) == 0
        cutoffs = without_query(
            run / "cutoffs.tsv", "q000", tmp_path / "cutoffs.tsv"
        )
        argv = evaluate_args(data_dir, run / "sets.tsv")
        with caplog.at_level(logging.WARNING):
            assert main(argv + ["--cutoffs", str(cutoffs)]) == 0
        assert [
            rec.getMessage() for rec in caplog.records
            if "not retrieved" in rec.getMessage()
        ] == ["query q000 not retrieved; scored as an empty set"]


class TestTrainers:
    def test_train_searcher_smoke(self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "searcher.npz"
        code = main([
            "train-searcher",
            "--bitext", str(data_dir / "bitext.tsv"),
            "--dim", "4", "--epochs", "2", "--out", str(model_path),
        ])
        assert code == 0
        assert "final mean loss" in capsys.readouterr().out
        assert load_searcher(model_path).dim == 4

    def test_searcher_model_is_written_where_out_says(self, data_dir, tmp_path, capsys):
        model = tmp_path / "model.bin"
        assert main([
            "train-searcher", "--bitext", str(data_dir / "bitext.tsv"),
            "--dim", "4", "--epochs", "1", "--out", str(model),
        ]) == 0
        assert capsys.readouterr().out.endswith(f"-> {model}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]
        code = main(retrieve_args(data_dir, tmp_path / "run") + [
            "--searcher-model", str(model),
        ])
        assert code == 0

    @pytest.mark.parametrize("command, spec", [
        ("synth", "SynthSpec"), ("train-searcher", "SearcherConfig"),
    ])
    def test_every_spec_field_has_a_flag(
        self, data_dir, tmp_path, monkeypatch, command, spec
    ):
        built = []

        # a field added to the library's dataclass needs no CLI edit
        @dataclasses.dataclass(frozen=True)
        class Extended(getattr(cli_module, spec)):
            extra: tuple[int, int] = (1, 2)

            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        monkeypatch.setattr(cli_module, spec, Extended)
        chosen = {
            "synth": dict(docs=5, queries=2, foreign_vocab=60, english_vocab=60,
                          bitext_pairs=40),
            "train-searcher": dict(dim=4, epochs=1),
        }[command]
        chosen["extra"] = (3, 4)
        argv = [command, "--out", str(tmp_path / "out")]
        if command == "train-searcher":
            argv += ["--bitext", str(data_dir / "bitext.tsv")]
        for field in dataclasses.fields(Extended):
            value = chosen.get(field.name, field.default)
            values = value if isinstance(value, tuple) else (value,)
            argv += ["--" + field.name.replace("_", "-"), *map(str, values)]
        assert main(argv) == 0
        assert built[-1] == Extended(**chosen)

    def test_depth_out_of_range_is_a_data_error_by_flag_or_config(
        self, data_dir, tmp_path
    ):
        cfg = tmp_path / "depth.cfg"
        cfg.write_text("depth = 2\n")
        argv = [
            "train-searcher", "--bitext", str(data_dir / "bitext.tsv"),
            "--out", str(tmp_path / "searcher.npz"),
        ]
        assert main(argv + ["--depth", "2"]) == 2
        assert main(argv + ["--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "-1", "seed -1 must be non-negative"),
        ("m_neg", "-3", "negative sampling rate -3 must be >= 1"),
        ("m_neg", "0", "negative sampling rate 0 must be >= 1"),
    ])
    def test_negative_seed_or_sampling_rate_is_a_data_error_by_flag_or_config(
        self, data_dir, tmp_path, capsys, monkeypatch, key, value, message
    ):
        ran = []
        monkeypatch.setattr(cli_module, "load_bitext", ran.append)
        cfg = tmp_path / "searcher.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = [
            "train-searcher", "--bitext", str(data_dir / "bitext.tsv"),
            "--out", str(tmp_path / "searcher.npz"),
        ]
        flag = "--" + key.replace("_", "-")
        for extra in ([flag, value], ["--config", str(cfg)]):
            assert main(argv + extra) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert ran == []
        assert not (tmp_path / "searcher.npz").exists()

    def test_fit_ensemble_smoke(self, data_dir, tmp_path):
        model_path = tmp_path / "mt.json"
        code = main([
            "fit-ensemble",
            "--bitext", str(data_dir / "bitext.tsv"),
            "--mt-hyps", str(data_dir / "mt_hyps.tsv"),
            "--out", str(model_path),
        ])
        assert code == 0
        model = load_mt_ensemble(model_path)
        assert model.systems == ("mt1", "mt2")
        # mt1 errs less than mt2 by construction
        weights = dict(zip(model.systems, model.weights))
        assert weights["mt1"] > weights["mt2"]

    def test_defaults_are_the_library_defaults(self, data_dir, tmp_path):
        bitext = load_bitext(data_dir / "bitext.tsv")
        vocab = Vocabulary.from_bitext(bitext)

        searcher = tmp_path / "searcher.npz"
        assert main([
            "train-searcher", "--bitext", str(data_dir / "bitext.tsv"),
            "--out", str(searcher),
        ]) == 0
        model, _ = train_searcher(bitext, vocab, SearcherConfig())
        save_searcher(model, tmp_path / "library.npz")
        assert npz_members(searcher) == npz_members(tmp_path / "library.npz")

        mt = fit_ensemble(data_dir, tmp_path / "mt.json")
        hyps = load_mt_hypotheses(data_dir / "mt_hyps.tsv")
        save_mt_ensemble(fit_mt_ensemble(hyps, bitext, vocab)[0], tmp_path / "library.json")
        assert mt.read_bytes() == (tmp_path / "library.json").read_bytes()

    def test_fit_mixture_identical_tables_stay_uniform(
        self, data_dir, tmp_path, capsys
    ):
        # same table twice under different stems -> two tags, equal merit
        copy1 = tmp_path / "t1.tsv"
        copy2 = tmp_path / "t2.tsv"
        content = (data_dir / "table.tsv").read_bytes()
        copy1.write_bytes(content)
        copy2.write_bytes(content)
        out = tmp_path / "weights.tsv"
        code = main([
            "fit-mixture",
            "--bitext", str(data_dir / "bitext.tsv"),
            "--table", str(copy1), "--table", str(copy2),
            "--out", str(out),
        ])
        assert code == 0
        weights = load_weights(out).weights
        assert weights["t1"] == pytest.approx(0.5, abs=1e-9)
        printed = capsys.readouterr().out
        assert "loglik=" in printed
        # identical tables stay uniform: the first update gains nothing
        assert " iterations=1 -> " in printed

    def test_fit_mixture_prints_a_smaller_kkt_gap_once_converged(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        # each table knows half of the dictionary, so the optimum is inside
        # the simplex and EM stops on its tolerance
        rows = (data_dir / "table.tsv").read_text(encoding="utf-8").splitlines(True)
        (tmp_path / "odd.tsv").write_text("".join(rows[0::2]), encoding="utf-8")
        (tmp_path / "even.tsv").write_text("".join(rows[1::2]), encoding="utf-8")
        argv = [
            "fit-mixture", "--bitext", str(data_dir / "bitext.tsv"),
            "--table", str(tmp_path / "odd.tsv"), "--table", str(tmp_path / "even.tsv"),
            "--out", str(tmp_path / "weights.tsv"),
        ]

        def printed():
            assert main(argv) == 0
            line = capsys.readouterr().out
            assert re.search(r" loglik=\S+ kkt_gap=\S+ iterations=\d+ -> ", line)
            return (
                float(re.search(r" kkt_gap=(\S+) ", line)[1]),
                int(re.search(r" iterations=(\d+) ", line)[1]),
            )

        converged_gap, iterations = printed()
        weights = (tmp_path / "weights.tsv").read_bytes()
        assert 5 < iterations < combiner_module.DEFAULT_EM_MAX_ITERATIONS
        em_fit = combiner_module.em_fit
        monkeypatch.setattr(
            combiner_module, "em_fit", lambda q, counts: em_fit(q, max_iter=5, counts=counts)
        )
        cut_gap, cut_iterations = printed()
        assert cut_iterations == 5
        assert 0.0 <= converged_gap < cut_gap
        # the gap is printed, not saved
        assert b"kkt" not in weights

    def test_fit_mixture_draws_the_instances_once(
        self, data_dir, tmp_path, monkeypatch
    ):
        calls = []

        def counted(*args):
            calls.append(args)
            return labeled_instances(*args)

        monkeypatch.setattr(combiner_module, "labeled_instances", counted)
        assert main([
            "fit-mixture",
            "--bitext", str(data_dir / "bitext.tsv"),
            "--table", str(data_dir / "table.tsv"),
            "--out", str(tmp_path / "weights.tsv"),
        ]) == 0
        assert len(calls) == 1

    def test_retrieve_with_fitted_weights_file(self, data_dir, tmp_path):
        weights = tmp_path / "weights.tsv"
        assert main([
            "fit-mixture",
            "--bitext", str(data_dir / "bitext.tsv"),
            "--table", str(data_dir / "table.tsv"),
            "--out", str(weights),
        ]) == 0
        run = tmp_path / "run"
        code = main(retrieve_args(data_dir, run) + ["--weights", str(weights)])
        assert code == 0
        assert (run / "sets.tsv").is_file()


class TestDumpEvidence:
    def test_writes_one_matrix(self, data_dir, tmp_path):
        out = tmp_path / "evidence.tsv"
        code = main([
            "dump-evidence",
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--queries", str(data_dir / "queries.tsv"),
            "--table", str(data_dir / "table.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert header == "#generator=table"
        assert rows
        for row in rows:
            doc_id, index, word, prob = row.split("\t")
            assert int(index) >= 0 and word
            assert 0.0 < float(prob) < 1.0

    def test_printed_count_is_the_files_cell_lines(self, data_dir, tmp_path, capsys):
        mt = fit_ensemble(data_dir, tmp_path / "mt.json")
        out = tmp_path / "evidence.tsv"
        capsys.readouterr()
        assert main([
            "dump-evidence",
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--queries", str(data_dir / "queries.tsv"),
            "--mt-hyps", str(data_dir / "mt_hyps.tsv"),
            "--mt-model", str(mt),
            "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert header == "#generator=mt"
        assert f" cells={len(rows)} " in printed

    def test_two_generators_rejected(self, data_dir, tmp_path):
        code = main([
            "dump-evidence",
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--queries", str(data_dir / "queries.tsv"),
            "--table", str(data_dir / "table.tsv"),
            "--searcher-model", str(data_dir / "table.tsv"),
            "--out", str(tmp_path / "out.tsv"),
        ])
        assert code in (1, 2)  # one generator rule or unreadable model


class TestOutputPaths:
    @pytest.mark.parametrize(
        "command, name",
        [
            ("train-searcher", "searcher.npz"),
            ("fit-ensemble", "mt.json"),
            ("fit-mixture", "weights.tsv"),
            ("dump-evidence", "evidence.tsv"),
            ("evaluate", "report.tsv"),
        ],
    )
    def test_out_under_missing_directory_is_created(
        self, data_dir, tmp_path, command, name
    ):
        bitext = ["--bitext", str(data_dir / "bitext.tsv")]
        table = ["--table", str(data_dir / "table.tsv")]
        argv = {
            "train-searcher": [command, *bitext, "--dim", "4", "--epochs", "1"],
            "fit-ensemble": [
                command, *bitext, "--mt-hyps", str(data_dir / "mt_hyps.tsv")
            ],
            "fit-mixture": [command, *bitext, *table],
            "dump-evidence": [
                command,
                "--corpus", str(data_dir / "corpus.jsonl"),
                "--queries", str(data_dir / "queries.tsv"),
                *table,
            ],
            "evaluate": evaluate_args(data_dir, tmp_path / "run" / "sets.tsv"),
        }[command]
        if command == "evaluate":
            assert main(retrieve_args(data_dir, tmp_path / "run")) == 0
        out = tmp_path / "missing" / "deeper" / name
        assert main(argv + ["--out", str(out)]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("command", ["retrieve", "synth"])
    def test_out_naming_a_file_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, monkeypatch, command
    ):
        ran = []  # retrieve refuses the path before it loads the corpus, synth before it generates
        monkeypatch.setattr(cli_module, "load_corpus", ran.append)
        monkeypatch.setattr(cli_module, "generate", ran.append)
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        argv = {
            "retrieve": retrieve_args(data_dir, afile),
            "synth": ["synth", "--docs", "5", "--queries", "2", "--out", str(afile)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create directory for {afile}")
        assert len(err.splitlines()) == 1
        assert afile.read_text() == "not a directory\n"
        assert ran == []

    @pytest.mark.parametrize("command, code", [("synth", 2), ("retrieve", 1)])
    def test_failing_command_leaves_no_directory(
        self, data_dir, tmp_path, capsys, command, code
    ):
        out = tmp_path / "new"
        argv = {
            "synth": ["synth", "--queries", "400", "--out", str(out)],
            "retrieve": retrieve_args(data_dir, out)
            + ["--weights", str(tmp_path / "missing.tsv")],
        }[command]
        assert main(argv) == code
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, name",
        [
            pytest.param("fit-ensemble", "mt.json", id="fit-ensemble"),
            pytest.param("train-searcher", "searcher.npz", id="train-searcher"),
            pytest.param("fit-mixture", "weights.tsv", id="fit-mixture"),
            pytest.param("dump-evidence", "evidence.tsv", id="dump-evidence"),
            pytest.param("retrieve", "ranked.run", id="retrieve"),
            pytest.param("retrieve", "cutoffs.tsv", id="retrieve-cutoffs"),
            pytest.param("retrieve", "sets.tsv", id="retrieve-sets"),
            pytest.param("evaluate", "report.tsv", id="evaluate"),
        ],
    )
    def test_out_that_is_a_directory_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, monkeypatch, command, name
    ):
        ran = []
        for work in (
            "load_bitext", "load_corpus", "load_mt_hypotheses", "train_searcher",
            "fit_mt_ensemble", "fit_mixture", "build_evidence",
            "build_evidence_for_words", "load_judgments", "score_run",
        ):
            monkeypatch.setattr(
                cli_module, work, lambda *args, work=work, **kwargs: ran.append(work)
            )
        bitext = ["--bitext", str(data_dir / "bitext.tsv")]
        hyps = ["--mt-hyps", str(data_dir / "mt_hyps.tsv")]
        table = ["--table", str(data_dir / "table.tsv")]
        corpus = [
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--queries", str(data_dir / "queries.tsv"),
        ]
        if command == "retrieve":
            out = tmp_path / "run" / name
            out.mkdir(parents=True)
            argv = retrieve_args(data_dir, out.parent)
        else:
            out = tmp_path / name
            out.mkdir()
            argv = {
                "fit-ensemble": [command, *bitext, *hyps],
                "train-searcher": [command, *bitext],
                "fit-mixture": [command, *bitext, *table],
                "dump-evidence": [command, *corpus, *table],
                "evaluate": [
                    command,
                    "--corpus", str(data_dir / "corpus.jsonl"),
                    "--judgments", str(data_dir / "judgments.tsv"),
                    "--sets", str(data_dir / "judgments.tsv"),
                ],
            }[command] + ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: it is a directory\n"
        assert ran == []
        assert list(out.iterdir()) == []
        assert sorted(p.name for p in out.parent.iterdir()) == [out.name]

    @pytest.mark.parametrize("command", ["fit-mixture", "retrieve"])
    def test_unsearchable_out_directory_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, monkeypatch, command
    ):
        # A chmod-ed directory would not stop a root user, so the stat
        # failure is simulated: anything under `locked` cannot be searched.
        ran = []
        monkeypatch.setattr(cli_module, "load_bitext", ran.append)
        monkeypatch.setattr(cli_module, "load_corpus", ran.append)
        locked = tmp_path / "locked"
        is_dir = Path.is_dir

        def denied_is_dir(path):
            if locked in path.parents:
                raise PermissionError(13, "Permission denied", str(path))
            return is_dir(path)

        monkeypatch.setattr(Path, "is_dir", denied_is_dir)
        argv = {
            "fit-mixture": [
                command,
                "--bitext", str(data_dir / "bitext.tsv"),
                "--table", str(data_dir / "table.tsv"),
                "--out", str(locked / "weights.tsv"),
            ],
            "retrieve": retrieve_args(data_dir, locked / "run"),
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {locked}/")
        assert "Permission denied" in err
        assert len(err.splitlines()) == 1
        assert ran == []


class TestErrorPaths:
    @pytest.mark.parametrize("command", ["fit-mixture", "retrieve"])
    def test_mt_system_mismatch_names_both_files(self, data_dir, tmp_path, capsys, command):
        model = fit_ensemble(data_dir, tmp_path / "mt.json")
        text = (data_dir / "mt_hyps.tsv").read_text(encoding="utf-8")
        hyps = tmp_path / "hyps.tsv"
        hyps.write_text(text.replace("mt1\t", "mtX\t"), encoding="utf-8")
        argv = {
            "fit-mixture": ["fit-mixture", "--bitext", str(data_dir / "bitext.tsv"),
                            "--out", str(tmp_path / "w.tsv")],
            "retrieve": retrieve_args(data_dir, tmp_path / "run"),
        }[command]
        capsys.readouterr()
        assert main([*argv, "--mt-model", str(model), "--mt-hyps", str(hyps)]) == 2
        assert capsys.readouterr().err == (
            f"error: ensemble model {model} systems ['mt1', 'mt2'] do not match"
            f" hypothesis set {hyps} systems ['mt2', 'mtX']\n"
        )

    @pytest.mark.parametrize("command", ["fit-ensemble", "fit-mixture", "retrieve"])
    def test_missing_hypothesis_names_the_hypotheses_file(
        self, data_dir, tmp_path, capsys, command
    ):
        model = fit_ensemble(data_dir, tmp_path / "mt.json")
        lines = (data_dir / "mt_hyps.tsv").read_text(encoding="utf-8").splitlines(True)
        # the fits read the bitext's sentences, retrieve the corpus's
        wanted = (lambda doc_id: doc_id.startswith("bt")) if command != "retrieve" else (
            lambda doc_id: not doc_id.startswith("bt")
        )
        dropped = next(line for line in lines if wanted(line.split("\t")[1]))
        hyps = tmp_path / "hyps.tsv"
        hyps.write_text("".join(line for line in lines if line != dropped), encoding="utf-8")
        system, doc_id, index = dropped.split("\t")[:3]
        argv = {
            "fit-ensemble": ["fit-ensemble", "--bitext", str(data_dir / "bitext.tsv"),
                             "--out", str(tmp_path / "out.json")],
            "fit-mixture": ["fit-mixture", "--bitext", str(data_dir / "bitext.tsv"),
                            "--mt-model", str(model), "--out", str(tmp_path / "w.tsv")],
            "retrieve": [*retrieve_args(data_dir, tmp_path / "run"), "--mt-model", str(model)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--mt-hyps", str(hyps)]) == 2
        assert capsys.readouterr().err == (
            f"error: {hyps}: system {system!r} has no hypothesis for sentence"
            f" {doc_id!r}:{index}\n"
        )

    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 7.28 TiB for an array with shape (10, 10**11)",
         "error: out of memory: Unable to allocate 7.28 TiB for an array with shape (10, 10**11)\n"),
        ("", "error: out of memory\n"),
    ])
    def test_out_of_memory_in_a_handler_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, monkeypatch, message, printed
    ):
        def out_of_memory(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli_module, "cmd_train_searcher", out_of_memory)
        argv = ["train-searcher", "--bitext", str(data_dir / "bitext.tsv"),
                "--out", str(tmp_path / "s.npz")]
        assert main(argv) == 1
        assert capsys.readouterr().err == printed

    def test_missing_input_file_is_config_error(self, tmp_path):
        code = main([
            "retrieve",
            "--corpus", str(tmp_path / "nope.jsonl"),
            "--queries", str(tmp_path / "nope.tsv"),
            "--table", str(tmp_path / "nope2.tsv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    @pytest.mark.parametrize("command, flag", [
        ("evaluate", "--seed"),
        ("dump-evidence", "--seed"),
        ("retrieve", "--epsilon"),
        ("fit-mixture", "--epsilon"),
        ("dump-evidence", "--epsilon"),
        ("retrieve", "--bitext"),
        ("retrieve", "--vocab-size"),
        ("retrieve", "--m-neg"),
        ("retrieve", "--seed"),
        ("fit-ensemble", "--l2"),
        ("fit-ensemble", "--lr"),
        ("synth", "--sentence-len"),
        ("synth", "--phrases-per-query"),
        ("synth", "--phrase-len"),
        ("synth", "--relevance-rate"),
        ("synth", "--mt-error-rates"),
        ("fit-ensemble", "--m-neg"),
        ("fit-ensemble", "--seed"),
        ("fit-mixture", "--m-neg"),
        ("fit-mixture", "--seed"),
    ])
    def test_removed_flags_are_usage_errors(self, capsys, command, flag):
        assert main([command, flag, "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: unrecognized arguments: {flag} 1\n"
        )

    @pytest.mark.parametrize("argv", [
        ["retrieve", "--bet", "40"],
        ["retrieve", "--beta", "40", "--gam", "2"],
    ])
    def test_flag_prefix_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"
        )

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["synth", "--frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_config_error(self):
        assert main(["no-such-command"]) == 1

    def test_malformed_corpus_is_data_error(self, data_dir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{this is not json\n")
        code = main([
            "retrieve",
            "--corpus", str(bad),
            "--queries", str(data_dir / "queries.tsv"),
            "--table", str(data_dir / "table.tsv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "doc_id, flaw",
        [("d\ud800", "is not valid UTF-8"), ("d\t1", "holds whitespace")],
    )
    def test_corpus_id_no_output_can_hold_is_data_error(
        self, data_dir, tmp_path, capsys, doc_id, flaw
    ):
        corpus = tmp_path / "corpus.jsonl"
        original = (data_dir / "corpus.jsonl").read_bytes()
        bad = json.dumps({"id": doc_id, "kind": "text", "sentences": ["virus"]})
        corpus.write_bytes(original + bad.encode() + b"\n")
        line = original.count(b"\n") + 1
        argv = retrieve_args(data_dir, tmp_path / "run")
        argv[argv.index("--corpus") + 1] = str(corpus)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{corpus}:{line}: document id {doc_id!r} {flaw}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_non_utf8_queries_is_data_error(self, data_dir, tmp_path, capsys):
        queries = tmp_path / "queries.tsv"
        original = (data_dir / "queries.tsv").read_bytes()
        queries.write_bytes(original + b"q9\tvirus \xff\n")
        line = original.count(b"\n") + 1
        code = main([
            "retrieve",
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--queries", str(queries),
            "--table", str(data_dir / "table.tsv"),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{queries}:{line}: not valid UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, beta", [
        ("retrieve", "nan"),
        ("evaluate", "nan"),
        ("evaluate", "-5"),
    ])
    def test_beta_must_be_finite_and_positive(
        self, data_dir, tmp_path, capsys, command, beta
    ):
        if command == "retrieve":
            argv = retrieve_args(data_dir, tmp_path / "run")
        else:
            sets = tmp_path / "sets.tsv"
            sets.write_text("")
            argv = evaluate_args(data_dir, sets)
        assert main(argv + ["--beta", beta]) == 2
        err = capsys.readouterr().err
        assert f"beta {float(beta)!r} must be finite and positive" in err
        assert "Traceback" not in err

    def test_weights_fit_is_a_missing_file(self, data_dir, tmp_path, capsys):
        code = main(
            retrieve_args(data_dir, tmp_path / "run") + ["--weights", "fit"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: weights file does not exist: fit\n"
        )

    def test_bad_weights_fail_before_the_evidence_build(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def build_evidence(*args):
            raise AssertionError("evidence built before the weights were read")

        monkeypatch.setattr(cli_module, "build_evidence", build_evidence)
        bad = tmp_path / "weights.tsv"
        bad.write_text("table\tnot-a-number\n")
        other_tags = tmp_path / "other-tags.tsv"
        other_tags.write_text("table\t0.5\nmt\t0.5\n")
        for weights, code in (
            (tmp_path / "missing.tsv", 1), (bad, 2), (other_tags, 2)
        ):
            assert main(
                retrieve_args(data_dir, tmp_path / "run")
                + ["--weights", str(weights)]
            ) == code
        err = capsys.readouterr().err
        assert f"weights file does not exist: {tmp_path / 'missing.tsv'}" in err
        assert f"{bad}:1:" in err
        assert (
            f"{other_tags}: mixture weights ['mt', 'table'] do not match"
            " generator tags ['table']"
        ) in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_judgments_naming_an_unknown_document(
        self, data_dir, tmp_path, capsys
    ):
        judgments = tmp_path / "judgments.tsv"
        judgments.write_text("q1\tno-such-doc\n")
        sets = tmp_path / "sets.tsv"
        sets.write_text("")
        argv = evaluate_args(data_dir, sets)
        argv[argv.index("--judgments") + 1] = str(judgments)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {judgments}:1: document 'no-such-doc' is not in the corpus\n"
        )

    @pytest.mark.parametrize("line, message", [
        ("q1\tno-such-doc", "document 'no-such-doc' is not in the corpus"),
        ("q 1\td0001", "query id 'q 1' holds whitespace"),
    ], ids=["unknown-document", "spaced-query-id"])
    def test_sets_line_checked_with_file_and_line(
        self, data_dir, tmp_path, capsys, line, message
    ):
        sets = tmp_path / "sets.tsv"
        sets.write_text(f"q1\td0000\n{line}\n")
        assert main(evaluate_args(data_dir, sets)) == 2
        assert capsys.readouterr().err == f"error: {sets}:2: {message}\n"

    def test_non_lexical_queries_skipped_with_warning(
        self, data_dir, tmp_path, capsys, caplog
    ):
        queries = tmp_path / "queries.tsv"
        original = (data_dir / "queries.tsv").read_text().splitlines()
        queries.write_text(
            original[0] + "\n" + "qc\tsomething conceptual+\n"
        )
        run = tmp_path / "run"
        code = main([
            "retrieve",
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--queries", str(queries),
            "--table", str(data_dir / "table.tsv"),
            "--out", str(run),
        ])
        assert code == 0
        sets = (run / "sets.tsv").read_text()
        assert "qc\t" not in sets

    @pytest.mark.parametrize("weights, bias, named", [
        ([1.0, 0.5], math.nan, "ensemble bias is not finite"),
        ([math.inf, 0.5], -2.0, "ensemble weight for 'mt1' is not finite"),
        ([True, False], 0.5, "malformed ensemble model: True is not a number"),
        ([1.0, 0.5], False, "malformed ensemble model: False is not a number"),
        (["1.0", 0.5], 0.5, "malformed ensemble model: '1.0' is not a number"),
        ([1.0, 0.5], None, "malformed ensemble model: None is not a number"),
    ])
    def test_non_finite_mt_model_names_the_file(
        self, data_dir, tmp_path, capsys, weights, bias, named
    ):
        model = tmp_path / "mt.json"
        model.write_text(json.dumps(
            {"systems": ["mt1", "mt2"], "weights": weights, "bias": bias}
        ))
        code = main(retrieve_args(data_dir, tmp_path / "run") + [
            "--mt-hyps", str(data_dir / "mt_hyps.tsv"), "--mt-model", str(model),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{model}: {named}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("systems, named", [
        ("ab", "ensemble systems must be a JSON list, got 'ab'"),
        ({"a": 1, "b": 2}, "ensemble systems must be a JSON list, got {"),
        ([1, 2], "ensemble system 1 is not a non-empty string"),
        (["mt1", ""], "ensemble system '' is not a non-empty string"),
        (["mt1", "mt1"], "duplicate system ids in ensemble model: ['mt1', 'mt1']"),
    ], ids=["string", "object", "numbers", "empty-name", "duplicate"])
    def test_malformed_mt_systems_name_the_file(
        self, data_dir, tmp_path, capsys, systems, named
    ):
        model = tmp_path / "mt.json"
        model.write_text(json.dumps(
            {"systems": systems, "weights": [1.0, 0.5], "bias": 0.5}
        ))
        code = main(retrieve_args(data_dir, tmp_path / "run") + [
            "--mt-hyps", str(data_dir / "mt_hyps.tsv"), "--mt-model", str(model),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: {named}")
        assert "Traceback" not in err

    def test_non_finite_searcher_array_names_the_file(
        self, data_dir, tmp_path, capsys
    ):
        bitext = load_bitext(data_dir / "bitext.tsv")
        model, _ = train_searcher(
            bitext, Vocabulary.from_bitext(bitext, 50), SearcherConfig(dim=4, epochs=1)
        )
        good = tmp_path / "good.npz"
        save_searcher(model, good)
        with np.load(good) as archive:
            arrays = dict(archive)
        arrays["bias"] = np.full_like(arrays["bias"], math.nan)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        code = main(retrieve_args(data_dir, tmp_path / "run") + [
            "--searcher-model", str(bad),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: searcher parameter 'bias' is not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, reshape, want", [
        ("wq", lambda a: np.zeros((3, 3)), "(3, 3), want (4, 4)"),
        ("foreign_emb", np.ravel, "want ("),
        ("english_emb", lambda a: a[:-1], "want ("),
    ], ids=["attention-not-dim-by-dim", "foreign-1d", "english-rows"])
    def test_misshapen_searcher_array_names_the_file(
        self, data_dir, tmp_path, capsys, key, reshape, want
    ):
        bitext = load_bitext(data_dir / "bitext.tsv")
        model, _ = train_searcher(
            bitext, Vocabulary.from_bitext(bitext, 50),
            SearcherConfig(dim=4, depth=1, epochs=1),
        )
        good = tmp_path / "good.npz"
        save_searcher(model, good)
        with np.load(good) as archive:
            arrays = dict(archive)
        arrays[key] = reshape(arrays[key])
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        code = main(retrieve_args(data_dir, tmp_path / "run") + [
            "--searcher-model", str(bad),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: searcher parameter {key!r} has shape" in err
        assert want in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tamper", [
        "empty", "depth-1-says-0", "depth-1-says-2", "depth-0-beside-attention",
        "repeated-foreign-token",
    ])
    def test_tampered_searcher_archive_is_one_line_naming_the_file(
        self, data_dir, tmp_path, capsys, tamper
    ):
        bitext = load_bitext(data_dir / "bitext.tsv")
        model, _ = train_searcher(
            bitext, Vocabulary.from_bitext(bitext, 50),
            SearcherConfig(dim=4, depth=0 if "depth-0" in tamper else 1, epochs=1),
        )
        bad = tmp_path / "bad.npz"
        save_searcher(model, bad)
        with np.load(bad) as archive:
            arrays = dict(archive)
        manifest = json.loads(str(arrays["manifest"]))
        if tamper.startswith("depth-1-says-"):
            manifest["depth"] = int(tamper[-1])
        elif tamper == "depth-0-beside-attention":
            arrays.update((key, np.zeros((4, 4))) for key in ("wq", "wk", "wv"))
        elif tamper == "repeated-foreign-token":  # with the manifest hash to match
            tokens = arrays["foreign_tokens"].tolist()
            tokens[1] = tokens[0]
            arrays["foreign_tokens"] = np.array(tokens)
            joined = "\n".join(tokens).encode("utf-8")
            manifest["foreign_vocab_sha256"] = hashlib.sha256(joined).hexdigest()
        arrays["manifest"] = np.array(json.dumps(manifest))
        np.savez(bad, **arrays)
        if tamper == "empty":
            bad.write_bytes(b"")
        code = main(retrieve_args(data_dir, tmp_path / "run") + [
            "--searcher-model", str(bad),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and str(bad) in err

    def test_all_non_lexical_is_data_error(self, data_dir, tmp_path):
        queries = tmp_path / "queries.tsv"
        queries.write_text("qc\tterm+\nqe\tEXAMPLE_OF(term)\n")
        code = main([
            "retrieve",
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--queries", str(queries),
            "--table", str(data_dir / "table.tsv"),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 2


class TestSurface:
    def test_options_per_subcommand(self):
        """Every option each subcommand takes; a new one is a reviewed edit here."""
        common = ["--config", "--verbose"]
        generators = ["--table", "--mt-hyps", "--mt-model", "--searcher-model"]
        parser = build_parser()
        (sub,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = {
            name: [
                option
                for action in p._actions
                for option in action.option_strings
                if option not in ("-h", "--help")
            ]
            for name, p in sub.choices.items()
        }
        assert options == {
            "synth": [
                *common, "--seed", "--foreign-vocab", "--english-vocab", "--noise",
                "--docs", "--sentences-per-doc", "--queries", "--speech-fraction",
                "--confusion-depth", "--bitext-pairs", "--out",
            ],
            "train-searcher": [
                *common, "--bitext", "--vocab-size", "--dim", "--depth", "--epochs",
                "--lr", "--m-neg", "--seed", "--out",
            ],
            "fit-ensemble": [
                *common, "--bitext", "--mt-hyps", "--vocab-size", "--out",
            ],
            "fit-mixture": [
                *common, *generators, "--bitext", "--vocab-size", "--out",
            ],
            "dump-evidence": [
                *common, *generators, "--corpus", "--queries", "--out",
            ],
            "retrieve": [
                *common, *generators, "--corpus", "--queries", "--weights",
                "--beta", "--gamma", "--out",
            ],
            "evaluate": [
                *common, "--corpus", "--judgments", "--sets", "--cutoffs", "--beta",
                "--out",
            ],
        }


class TestConfigFile:
    def test_flags_beat_config_beats_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "clirset.cfg"
        cfg.write_text(
            "# comment\n"
            "docs = 7\n"
            "queries = 2\n"
            "foreign-vocab = 60\n"
            "english_vocab = 60\n"
            "bitext-pairs = 40\n"
        )
        out1 = tmp_path / "a"
        assert main(["synth", "--config", str(cfg), "--out", str(out1)]) == 0
        assert "7 documents, 2 queries" in capsys.readouterr().out
        out2 = tmp_path / "b"
        assert main([
            "synth", "--config", str(cfg), "--docs", "5", "--out", str(out2)
        ]) == 0
        assert "5 documents, 2 queries" in capsys.readouterr().out

    def test_bad_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("docs 7\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_bad_config_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("docs = seven\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("docs = 7\n# queries\nqueriez = 2\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: unknown key 'queriez': synth has no option --queriez\n"
        )

    def test_config_key_of_another_command_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "other.cfg"
        cfg.write_text("beta = 40\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"{cfg}:1: unknown key 'beta'" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, tmp_path):
        assert main([
            "synth", "--config", str(tmp_path / "none.cfg"),
            "--out", str(tmp_path),
        ]) == 1

    @pytest.mark.parametrize("line", ["verbose = 1", "config = other.cfg"])
    def test_config_cannot_set_config_or_verbose(self, tmp_path, capsys, line):
        cfg = tmp_path / "meta.cfg"
        cfg.write_text(line + "\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"error: {cfg}:1: unknown key {key!r}: synth has no option --{key}\n"
        )

    @pytest.mark.parametrize("lines, lineno, message", [
        ("docs = 7\ndocs = seven\n", 2, "argument --docs: invalid int value: 'seven'"),
        ("sentences-per-doc = 4\n", 1,
         "argument --sentences-per-doc: expected 2 arguments"),
        ("docs = 7 --queries 2\n", 1, "the value of 'docs' sets other options"),
        ("docs = 7 -h\n", 1, "the value of 'docs' sets other options"),
        ("docs = --help\n", 1, "the value of 'docs' sets other options"),
        ("docs = '7\n", 1, "No closing quotation"),
    ])
    def test_bad_config_value_names_file_and_line(
        self, tmp_path, capsys, lines, lineno, message
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}:{lineno}: {message}\n"
        assert captured.out == ""

    def test_table_flag_beats_config_tables(self, data_dir, tmp_path, capsys):
        tables = []
        for name in ("a", "b", "c d"):
            tables.append(tmp_path / f"{name}.tsv")
            tables[-1].write_bytes((data_dir / "table.tsv").read_bytes())
        cfg = tmp_path / "tables.cfg"
        cfg.write_text(f"table = {tables[0]} {tables[1]} '{tables[2]}'\n")
        argv = [
            "fit-mixture", "--config", str(cfg),
            "--bitext", str(data_dir / "bitext.tsv"),
        ]
        assert main(argv + ["--out", str(tmp_path / "w1.tsv")]) == 0
        assert sorted(load_weights(tmp_path / "w1.tsv").weights) == ["a", "b", "c d"]
        assert main(argv + [
            "--table", str(tables[2]), "--out", str(tmp_path / "w2.tsv"),
        ]) == 0
        assert sorted(load_weights(tmp_path / "w2.tsv").weights) == ["c d"]


README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough_commands():
    """Each `clirset` command of README's walkthrough, as argv after `clirset`."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command-line walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [
        shlex.split(line)[1:]
        for line in joined.splitlines()
        if line.startswith("clirset ")
    ]


class TestReadme:
    def test_walkthrough_commands_parse(self, tmp_path, monkeypatch):
        commands = walkthrough_commands()
        assert [argv[0] for argv in commands] == [
            "synth", "train-searcher", "fit-ensemble", "fit-mixture",
            "retrieve", "evaluate",
        ]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            # a value with a letter in it, but --out's, names an input file
            for flag, value in zip(argv, argv[1:]):
                if flag != "--out" and re.match(r"[^-].*[a-z]", value):
                    Path(value).parent.mkdir(parents=True, exist_ok=True)
                    Path(value).touch()
            args = build_parser().parse_args(argv)
            assert args.command == argv[0]
