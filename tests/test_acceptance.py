"""Acceptance suite: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py`; the verbose listing gives
exactly one PASSED/FAILED line per criterion. Each test also prints an
`ACCEPTANCE n PASS` line (visible with -s or -rA) naming the property and
the pinned tolerance.

Criteria:
  1 cutoff selection matches an exhaustive subset oracle (1e-9)
  2 hand-worked expected-QV curve (1e-5)
  3 scorer exactness on hand cases (1e-5 / exact / 1e-12)
  4 relevance algebra matches brute force (1e-12) plus property suites
  5 EM recovers planted mixture weights (+-0.05, monotone loglik, 20 seeds)
  6 analytic gradients match central differences (rel err <= 1e-4, 20 points)
  7 end-to-end planted retrieval: clean run scores exactly 1.0; noisy
    combined run is within 0.02 of the best single generator (< 60 s)
  8 speech with certain arcs reproduces the text evidence bitwise
"""

import contextlib
import io
import math
import random
import re
import time

import numpy as np
import pytest
from evidence_cells import matrix_over

from clirset.cli import main
from clirset.combiner import MixtureWeights, fit_mixture
from clirset.corpus import Bitext, Corpus, Document, Judgments
from clirset.errors import DataError
from clirset.evidence import (
    Vocabulary,
    ensemble_objective,
    searcher_objective,
)
from clirset.corpus import bitext_corpus, bitext_doc_id
from clirset.relevance import RankedList, rank
from clirset.scorer import score_query, score_run
from clirset.thresholder import ThresholdConfig, decide, expected_qv_curve
from clirset.corpus import LEXICAL, Query

EPS = 1e-6


def run_cli(argv):
    """Drive the CLI in process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def maqwv_from(output):
    match = re.search(r"mAQWV=([-\d.e]+) ", output)
    assert match, f"no mAQWV in output: {output!r}"
    return float(match.group(1))


def ranked_from(probs, query_id="q"):
    entries = tuple(
        (f"d{i:03d}", p) for i, p in enumerate(sorted(probs, reverse=True))
    )
    return RankedList(query_id=query_id, entries=entries)


def test_acceptance_1_cutoff_matches_exhaustive_subset_oracle():
    """decide() attains the best expected QV over all 2^N subsets (1e-9)."""
    started = time.perf_counter()
    rng = random.Random(20260815)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        probs = np.sort(rng_uniform(rng, n))[::-1]
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        for beta in (1.0, 2.0, 40.0):
            cfg = ThresholdConfig(beta=beta, gamma=1.0, epsilon=EPS)
            e_rel = float(probs.sum())
            scaled = min(max(cfg.gamma * e_rel, EPS), n - EPS)
            values = (
                1.0
                - (e_rel - bits @ probs) / scaled
                - beta * (bits @ (1.0 - probs)) / (n - scaled)
            )
            best = float(values.max())
            decision = decide(ranked_from(probs), cfg)
            # recompute the chosen prefix's value from scratch
            k = decision.k
            prefix = 1.0 - (
                (e_rel - probs[:k].sum()) / scaled
                + beta * float((1.0 - probs[:k]).sum()) / (n - scaled)
            )
            assert abs(prefix - best) <= 1e-9, (
                f"n={n} beta={beta} probs={probs.tolist()} k={k}:"
                f" prefix {prefix} vs subset max {best}"
            )
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"subset oracle took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 PASS: cutoff optimal vs exhaustive subsets"
        f" ({checked} cases, tol 1e-9, {elapsed:.1f}s)"
    )


def rng_uniform(rng, n):
    return np.array([rng.uniform(EPS, 1 - EPS) for _ in range(n)])


def test_acceptance_2_hand_worked_expected_qv_curve():
    """probs (0.9, 0.6, 0.1), beta 2, gamma 1: pinned curve within 1e-5."""
    cfg = ThresholdConfig(beta=2.0, gamma=1.0)
    curve = expected_qv_curve(ranked_from((0.9, 0.6, 0.1)), cfg)
    expected = (0.0, 0.41964, 0.22321, -1.0)
    for got, want in zip(curve, expected):
        assert got == pytest.approx(want, abs=1e-5)
    decision = decide(ranked_from((0.9, 0.6, 0.1)), cfg)
    assert decision.k == 1
    print("ACCEPTANCE 2 PASS: hand-worked E_QV curve within 1e-5, k=1")


def test_acceptance_3_scorer_exactness():
    """Pinned hand case 1e-5; empty/perfect sets exact; mean 1e-12."""
    gold = {"d000", "d001", "d002", "d003"}
    returned = {"d000", "d001", "d002", "d090", "d091"}
    qs = score_query("q", returned, gold, n_docs=100, beta=40.0)
    assert qs.qv == pytest.approx(-0.08333, abs=1e-5)

    assert score_query("q", set(), gold, n_docs=100, beta=40.0).qv == 0.0
    assert score_query("q", set(gold), gold, n_docs=100, beta=40.0).qv == 1.0

    corpus = Corpus.from_documents(
        [Document(id=f"d{i:03d}", kind="text", sentences=(("t",),)) for i in range(100)]
    )
    judgments = Judgments({"q1": frozenset(gold), "q2": frozenset({"d010"})})
    rs = score_run(
        {"q1": returned, "q2": {"d010"}}, judgments, corpus, beta=40.0
    )
    assert rs.maqwv == pytest.approx((qs.qv + 1.0) / 2, abs=1e-12)
    print("ACCEPTANCE 3 PASS: scorer hand case -0.08333 (1e-5), exact edges, mean 1e-12")


def test_acceptance_4_relevance_algebra_matches_brute_force():
    """1000 random instances within 1e-12, plus property suites."""
    rng = random.Random(41)
    words = [f"w{i}" for i in range(6)]

    def brute(sentences, phrases):
        total = 1.0
        for phrase in phrases:
            miss = 1.0
            for sent in sentences:
                p = 1.0
                for w in phrase:
                    p *= sent.get(w, EPS)
                miss *= 1.0 - p
            total *= math.fsum([1.0, -miss])
        return total

    def relevance(cells, doc, query):
        """The document's relevance: its rank over a corpus of it alone."""
        corpus = Corpus({doc.id: doc})
        matrix = matrix_over(corpus, cells, epsilon=EPS)
        [(_, prob)] = rank(matrix, corpus, query).entries
        return prob

    for case in range(1000):
        n_sent = rng.randint(1, 10)
        sentences = []
        cells = []
        for i in range(n_sent):
            sent = {}
            for w in rng.sample(words, rng.randint(0, 4)):
                p = rng.uniform(1e-4, 1 - 1e-4)
                sent[w] = p
                cells.append(("d", i, w, p))
            sentences.append(sent)
        phrases = tuple(
            tuple(rng.sample(words, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2))
        )
        doc = Document(
            id="d", kind="text", sentences=tuple(("x",) for _ in range(n_sent))
        )
        query = Query(id="q", kind=LEXICAL, phrases=phrases)
        got = relevance(cells, doc, query)
        want = brute(sentences, phrases)
        assert abs(got - want) <= 1e-12, f"case {case}: {got} vs {want}"

    # monotonicity: raising any single evidence value never lowers the score
    for _ in range(100):
        cells = []
        for i in range(3):
            for w in rng.sample(words, 2):
                p = rng.uniform(0.05, 0.7)
                cells.append(("d", i, w, p))
        doc = Document(id="d", kind="text", sentences=(("x",),) * 3)
        query = Query(id="q", kind=LEXICAL, phrases=((words[0], words[1]),))
        base = relevance(cells, doc, query)
        _, i, w, p = cells[rng.randrange(len(cells))]
        raised = cells + [("d", i, w, min(p + 0.2, 1.0))]  # replaces the cell
        assert relevance(raised, doc, query) >= base - 1e-15

    # permutation invariance: sentence order is irrelevant
    for _ in range(100):
        probs = [rng.uniform(0.05, 0.9) for _ in range(4)]
        doc = Document(id="d", kind="text", sentences=(("x",),) * 4)
        query = Query(id="q", kind=LEXICAL, phrases=((words[0],),))
        forward = [("d", i, words[0], p) for i, p in enumerate(probs)]
        backward = [("d", i, words[0], p) for i, p in enumerate(probs[::-1])]
        a = relevance(forward, doc, query)
        b = relevance(backward, doc, query)
        assert a == pytest.approx(b, rel=1e-14)

    print(
        "ACCEPTANCE 4 PASS: relevance algebra vs brute force, 1000 cases"
        " within 1e-12; monotonicity and permutation suites clean"
    )


def test_acceptance_5_em_recovers_planted_mixture():
    """fit_mixture lands within +-0.05 of (0.7, 0.3) on 10k instances, 20 seeds."""
    p_a, p_b = 0.9, 0.2
    n_pairs = 5_000  # 1 positive + 1 negative instance per pair
    vocab = Vocabulary(("wp", "wn"))
    bitext = Bitext(tuple(((f"f{i}",), ("wp",)) for i in range(n_pairs)))
    pseudo = bitext_corpus(bitext)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cells_a, cells_b = [], []
        for i in range(n_pairs):
            doc = bitext_doc_id(i)
            # positive instance: q_k reads the stored prob directly
            x = rng.random() < (p_a if rng.random() < 0.7 else p_b)
            cells_a.append((doc, 0, "wp", p_a if x else 1 - p_a))
            cells_b.append((doc, 0, "wp", p_b if x else 1 - p_b))
            # negative instance: q_k reads one minus the stored prob
            x = rng.random() < (p_a if rng.random() < 0.7 else p_b)
            cells_a.append((doc, 0, "wn", 1 - (p_a if x else 1 - p_a)))
            cells_b.append((doc, 0, "wn", 1 - (p_b if x else 1 - p_b)))
        expert_a = matrix_over(pseudo, cells_a, "expert-a", EPS)
        expert_b = matrix_over(pseudo, cells_b, "expert-b", EPS)
        fitted = fit_mixture([expert_a, expert_b], bitext, vocab, m_neg=1, seed=seed)
        assert fitted.weights["expert-a"] == pytest.approx(0.7, abs=0.05), (
            f"seed {seed}: {fitted.weights}"
        )
        assert fitted.weights["expert-b"] == pytest.approx(0.3, abs=0.05)
        history = np.array(fitted.loglik_history)
        assert np.all(np.diff(history) >= -1e-9), f"seed {seed}: loglik dipped"
    print(
        "ACCEPTANCE 5 PASS: mixture weights recovered within 0.05 with"
        " non-decreasing loglik, 20 seeds x 10000 instances"
    )


def _max_rel_err(analytic, numeric):
    scale = max(abs(analytic) + abs(numeric), 1e-8)
    return abs(analytic - numeric) / scale


def test_acceptance_6_gradients_match_central_differences():
    """Both training objectives gradcheck to rel err <= 1e-4 at 20 points."""
    h = 1e-6

    # logistic ensemble objective
    rng = np.random.default_rng(6)
    features = (rng.random((30, 3)) < 0.4).astype(float)
    labels = (rng.random(30) < 0.3).astype(float)
    worst = 0.0
    for _ in range(20):
        w = rng.normal(size=3)
        b = float(rng.normal())
        _, grad_w, grad_b = ensemble_objective(w, b, features, labels, 1e-3)
        for j in range(3):
            bump = np.zeros(3)
            bump[j] = h
            hi, _, _ = ensemble_objective(w + bump, b, features, labels, 1e-3)
            lo, _, _ = ensemble_objective(w - bump, b, features, labels, 1e-3)
            worst = max(worst, _max_rel_err(grad_w[j], (hi - lo) / (2 * h)))
        hi, _, _ = ensemble_objective(w, b + h, features, labels, 1e-3)
        lo, _, _ = ensemble_objective(w, b - h, features, labels, 1e-3)
        worst = max(worst, _max_rel_err(grad_b, (hi - lo) / (2 * h)))
    assert worst <= 1e-4, f"ensemble gradcheck rel err {worst}"

    # embedding searcher objective, plain and with attention
    n_foreign, n_english, dim = 3, 4, 3
    worst_s = 0.0
    for point in range(20):
        rng = np.random.default_rng(100 + point)
        params = {
            "foreign_emb": rng.normal(size=(n_foreign + 1, dim)),
            "english_emb": rng.normal(size=(n_english, dim)),
            "bias": rng.normal(size=n_english),
        }
        if point % 2:
            for key in ("wq", "wk", "wv"):
                params[key] = rng.normal(size=(dim, dim)) * 0.5
        examples = []
        for _ in range(3):
            length = int(rng.integers(2, 5))
            examples.append((
                rng.integers(0, n_foreign + 1, size=length),
                np.array([0, 1, 3]),
                np.array([1.0, 0.0, 0.0]),
            ))
        _, grads = searcher_objective(params, examples)
        for key, array in params.items():
            for flat in range(array.size):
                idx = np.unravel_index(flat, array.shape)
                orig = array[idx]
                array[idx] = orig + h
                hi, _ = searcher_objective(params, examples)
                array[idx] = orig - h
                lo, _ = searcher_objective(params, examples)
                array[idx] = orig
                worst_s = max(
                    worst_s, _max_rel_err(grads[key][idx], (hi - lo) / (2 * h))
                )
    assert worst_s <= 1e-4, f"searcher gradcheck rel err {worst_s}"
    print(
        f"ACCEPTANCE 6 PASS: gradcheck rel err ensemble {worst:.2e},"
        f" searcher {worst_s:.2e} (tol 1e-4, 20 points each)"
    )


def test_acceptance_7_end_to_end_planted_retrieval(tmp_path):
    """Clean data scores exactly 1.0; noisy combined run keeps pace."""
    started = time.perf_counter()

    # clean pass: translation-table evidence alone reconstructs the plant
    clean = tmp_path / "clean"
    code, _ = run_cli([
        "synth", "--out", str(clean), "--seed", "0",
        "--docs", "200", "--queries", "20", "--noise", "0",
    ])
    assert code == 0
    run = tmp_path / "clean-run"
    code, _ = run_cli([
        "retrieve",
        "--corpus", str(clean / "corpus.jsonl"),
        "--queries", str(clean / "queries.tsv"),
        "--table", str(clean / "table.tsv"),
        "--beta", "40", "--gamma", "1.3",
        "--out", str(run),
    ])
    assert code == 0
    code, out = run_cli([
        "evaluate",
        "--corpus", str(clean / "corpus.jsonl"),
        "--judgments", str(clean / "judgments.tsv"),
        "--sets", str(run / "sets.tsv"),
        "--cutoffs", str(run / "cutoffs.tsv"),
    ])
    assert code == 0
    assert maqwv_from(out) == 1.0, f"clean run fell short: {out!r}"

    # noisy pass: every generator family active, EM-combined
    noisy = tmp_path / "noisy"
    code, _ = run_cli([
        "synth", "--out", str(noisy), "--seed", "0",
        "--docs", "200", "--queries", "20",
        "--noise", "0.3", "--speech-fraction", "0.5",
        "--confusion-depth", "3",
    ])
    assert code == 0
    searcher_model = tmp_path / "searcher.npz"
    code, _ = run_cli([
        "train-searcher", "--bitext", str(noisy / "bitext.tsv"),
        "--dim", "16", "--epochs", "40", "--lr", "2.0",
        "--out", str(searcher_model),
    ])
    assert code == 0
    mt_model = tmp_path / "mt.json"
    code, _ = run_cli([
        "fit-ensemble", "--bitext", str(noisy / "bitext.tsv"),
        "--mt-hyps", str(noisy / "mt_hyps.tsv"), "--out", str(mt_model),
    ])
    assert code == 0

    def evaluate_run(run_dir):
        code, out = run_cli([
            "evaluate",
            "--corpus", str(noisy / "corpus.jsonl"),
            "--judgments", str(noisy / "judgments.tsv"),
            "--sets", str(run_dir / "sets.tsv"),
            "--cutoffs", str(run_dir / "cutoffs.tsv"),
        ])
        assert code == 0
        return maqwv_from(out)

    base = [
        "retrieve",
        "--corpus", str(noisy / "corpus.jsonl"),
        "--queries", str(noisy / "queries.tsv"),
        "--beta", "40", "--gamma", "1.3",
    ]
    table_args = ["--table", str(noisy / "table.tsv")]
    mt_args = ["--mt-hyps", str(noisy / "mt_hyps.tsv"), "--mt-model", str(mt_model)]
    searcher_args = ["--searcher-model", str(searcher_model)]

    singles = {}
    for name, extra in (
        ("table", table_args),
        ("mt", mt_args),
        ("searcher", searcher_args),
    ):
        run_dir = tmp_path / f"single-{name}"
        code, _ = run_cli(base + extra + ["--out", str(run_dir)])
        assert code == 0
        singles[name] = evaluate_run(run_dir)

    weights = tmp_path / "weights.tsv"
    code, _ = run_cli(
        ["fit-mixture"] + table_args + mt_args + searcher_args + [
            "--bitext", str(noisy / "bitext.tsv"), "--out", str(weights),
        ]
    )
    assert code == 0
    combined_dir = tmp_path / "combined"
    code, _ = run_cli(
        base + table_args + mt_args + searcher_args + [
            "--weights", str(weights), "--out", str(combined_dir),
        ]
    )
    assert code == 0
    combined = evaluate_run(combined_dir)

    best_single = max(singles.values())
    assert combined >= best_single - 0.02, (
        f"combined {combined:.4f} vs singles {singles}"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 7 PASS: clean mAQWV 1.0 exactly; noisy combined"
        f" {combined:.4f} vs best single {best_single:.4f}"
        f" (singles {singles}, {elapsed:.1f}s)"
    )


def test_acceptance_8_speech_with_certain_arcs_matches_text_bitwise(tmp_path):
    """Depth-1 noise-free confusion networks reproduce text evidence bytes."""
    outputs = []
    for fraction in ("0.0", "1.0"):
        data = tmp_path / f"data-{fraction}"
        code, _ = run_cli([
            "synth", "--out", str(data), "--seed", "3",
            "--docs", "60", "--queries", "8",
            "--noise", "0", "--confusion-depth", "1",
            "--speech-fraction", fraction,
        ])
        assert code == 0
        matrix_path = tmp_path / f"evidence-{fraction}.tsv"
        code, _ = run_cli([
            "dump-evidence",
            "--corpus", str(data / "corpus.jsonl"),
            "--queries", str(data / "queries.tsv"),
            "--table", str(data / "table.tsv"),
            "--out", str(matrix_path),
        ])
        assert code == 0
        outputs.append(matrix_path.read_bytes())
    assert outputs[0] == outputs[1], "speech and text evidence dumps differ"
    assert len(outputs[0]) > 100
    print(
        "ACCEPTANCE 8 PASS: speech evidence with certain arcs is"
        " byte-identical to the text pipeline"
    )
