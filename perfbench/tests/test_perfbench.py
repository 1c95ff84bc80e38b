"""Every workload path of the benchmark on tiny worlds (200 documents).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from workloads import WORKLOADS, World

ROOT = Path(__file__).resolve().parents[2]
TINY = {"docs": 200, "queries": 12}
N_FITS = 3  # fit-ensemble, train-searcher, fit-mixture


class Setup:
    """A tiny world for one workload, measured once (which also fits its models)."""

    def __init__(self, name, base):
        self.w = replace(WORKLOADS[name], **TINY)
        self.work = base / name
        (self.work / "logs").mkdir(parents=True)
        self.world = World(self.work / "world")
        self.runner = run.Runner(ROOT, self.work / "logs", time.monotonic() + 600)
        self.setups, self.hashes = run.set_up(self.w, 3, self.world, self.runner)
        self.measured = self.measure(self.w, self.world)

    def measure(self, w, world):
        return run.measure(w, world, self.work, self.runner, 0.0, None)

    def retrieve(self, run_dir):
        """One untimed retrieve into run_dir; returns its exit code."""
        name, cmd = run.timed_commands(self.w, self.world, run_dir)[-1]
        return self.runner.run(name, cmd)["exit_code"]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def setup(request, tmp_path_factory):
    return Setup(request.param, tmp_path_factory.mktemp("bench"))


def test_workload_passes_every_check(setup):
    s = setup
    samples, total, observed, facts = s.measured
    assert len(samples) == 1 and list(samples[0])[-1] == "retrieve"
    for timing in samples[0].values():
        assert timing["adjusted_s"] > 0 and timing["peak_rss_mb"] > 0 and timing["probe_ms"] > 0
    assert total.problems == []
    fits = N_FITS if s.w.fits else 0
    assert (total.attempted, total.failed) == (TINY["queries"] + 1 + fits, 0)  # + mAQWV
    assert set(observed["queries"]) == set(checks.query_ids(s.world.queries))
    assert 0.0 <= facts["maqwv"] <= 1.0
    assert len(s.setups) >= 1 and all(h == s.hashes[0] for h in s.hashes)
    e2e = run.end_to_end(s.setups, samples, facts)
    assert set(run.END_TO_END) <= set(e2e) and "qd_per_s" in e2e and "retrieve_s" in e2e


def test_fit_outputs_are_checked_against_the_reference(setup):
    s = setup
    if not s.w.fits:
        pytest.skip("no fit commands in this workload")
    samples, _, observed, _ = s.measured
    codes = dict.fromkeys(samples[0], 0)
    reference = {"weights": dict(observed["weights"]), "loglik": observed["loglik"]}
    assert checks.check_fit(s.world, codes, reference).failed == 0
    reference["weights"]["table"] += 1e-3
    assert checks.check_fit(s.world, codes, reference).failed == 1


@pytest.fixture
def fresh_run(setup, tmp_path):
    run_dir = tmp_path / "run"
    assert setup.retrieve(run_dir) == 0
    return setup, run_dir


def _check(s, run_dir, reference=None, exit_code=0):
    return checks.check_retrieve(run_dir, s.world, s.w.beta, reference, exit_code)


def test_corrupted_sets_are_counted(fresh_run):
    s, run_dir = fresh_run
    cutoffs = checks.read_cutoffs(run_dir / "cutoffs.tsv")
    sets = run_dir / "sets.tsv"
    lines = sets.read_text().splitlines(keepends=True)
    if lines:
        sets.write_text("".join(lines[:-1]))  # drop the last returned document
    else:  # every set empty: return a document the cutoff did not choose
        qid = next(iter(cutoffs))
        sets.write_text(f"{qid}\t{checks.corpus_doc_ids(s.world.corpus)[0]}\n")
    result = _check(s, run_dir)
    assert result.failed == 1 and result.attempted == TINY["queries"]


def test_corrupted_cutoffs_are_counted(fresh_run):
    s, run_dir = fresh_run
    path = run_dir / "cutoffs.tsv"
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    rows[0][1] = str(int(rows[0][1]) + 1)
    rows[1][2] = repr(float(rows[1][2]) + 1e-3)
    path.write_text("".join("\t".join(row) + "\n" for row in rows))
    result = _check(s, run_dir)
    assert result.failed == 2 and result.attempted == TINY["queries"]


def test_reference_mismatch_is_counted(fresh_run):
    s, run_dir = fresh_run
    observed = _check(s, run_dir).observed
    assert _check(s, run_dir, observed).failed == 0
    qids = sorted(observed["queries"])
    bad = json.loads(json.dumps(observed))
    bad["queries"][qids[0]][0] += 1  # k
    bad["queries"][qids[1]][3] *= 1 + 1e-6  # ranked probabilities
    assert _check(s, run_dir, bad).failed == 2


def test_unreadable_output_fails_every_check(fresh_run):
    s, run_dir = fresh_run
    with open(run_dir / "ranked.run", "a") as out:
        out.write("q000 d0000 not-a-rank 0.5 clirset\n")
    result = _check(s, run_dir)
    assert result.failed == result.attempted == TINY["queries"]


def test_nonzero_exit_fails_every_check_of_that_command(setup):
    broken = replace(setup.w, beta=-1.0)  # retrieve rejects it and exits 2
    samples, total, _, facts = setup.measure(broken, setup.world)
    assert samples[0]["retrieve"]["exit_code"] == 2
    assert total.failed == TINY["queries"]
    assert total.attempted == TINY["queries"] + (N_FITS if setup.w.fits else 0)
    assert facts == {}


def test_failed_fit_fails_every_later_check(setup, tmp_path):
    if not setup.w.fits:
        pytest.skip("no fit commands in this workload")
    world = World(tmp_path / "world")
    shutil.copytree(setup.world.root, world.root)
    world.bitext.write_text("only-one-field\n")
    samples, total, _, _ = setup.measure(setup.w, world)
    assert list(samples[0]) == ["fit_ensemble"]  # nothing after it ran
    assert total.failed == total.attempted == N_FITS + TINY["queries"]


def test_expected_qv_matches_the_program_bit_for_bit():
    from clirset.relevance import RankedList
    from clirset.thresholder import ThresholdConfig, decide, expected_qv_curve

    rng = random.Random(7)
    for n in (1, 2, 10, 300):
        probs = sorted((rng.random() ** 3 * 0.999 + 1e-9 for _ in range(n)), reverse=True)
        ranked = RankedList("q", tuple((f"d{i}", p) for i, p in enumerate(probs)))
        cfg = ThresholdConfig(beta=40.0)
        ours = checks.expected_qv(np.array(probs), 40.0)
        assert ours.tolist() == expected_qv_curve(ranked, cfg)
        assert int(np.argmax(ours)) == decide(ranked, cfg).k


def test_traced_run_reports_every_per_layer_metric(setup, tmp_path):
    s = setup
    traced = tracing.traced_run(s.w, s.world, tmp_path)
    assert traced.absent == {}
    assert list(traced.metrics) == [m[0] for m in tracing.PER_LAYER]
    for metric, _, _, where in tracing.PER_LAYER:
        if not tracing.applies(s.w, where):
            assert traced.metrics[metric] == 0, metric
        elif not metric.startswith("trace.") and metric != "thresholder.empty_queries":
            assert traced.metrics[metric] > 0, metric
    assert {span.name for span in traced.tracer.spans} >= {"pipeline", "relevance.rank"}
    assert len({span.run_id for span in traced.tracer.spans}) == 1
    assert sum(traced.self_share.values()) == pytest.approx(1.0)


def test_missing_layer_is_reported_absent(setup, tmp_path, monkeypatch):
    s = setup
    layers = dict(tracing.LAYERS, combiner=("fit_mixture", "load_weights", "MixtureWeights"))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    traced = tracing.traced_run(s.w, s.world, tmp_path)
    assert "combiner.combine_s" in traced.absent and "relevance.rank_s" in traced.absent
    assert "AttributeError" in traced.absent["relevance.rank_s"]
    assert traced.metrics["corpus.load_s"] > 0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.PER_LAYER]


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "mix3-2k", "--seed", "0", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
