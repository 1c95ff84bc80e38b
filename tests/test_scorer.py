"""Set-based value scoring.

Hand case: 100 docs, 4 relevant, returned set hits 3 of them plus 2
irrelevant. p_miss = 1/4 and p_fa = 2/96, so with beta = 40
QV = 1 - 0.25 - 40*(2/96) = -0.08333...
"""

import logging
import math

import pytest

from clirset.corpus import Corpus, Document, Judgments
from clirset.errors import DataError
from clirset.scorer import (
    QueryScore,
    format_summary,
    save_report,
    score_query,
    score_run,
)


def corpus_of(n):
    return Corpus.from_documents(
        [Document(id=f"d{i:03d}", kind="text", sentences=(("tok",),)) for i in range(n)]
    )


class TestScoreQuery:
    def test_hand_case(self):
        gold = {"d000", "d001", "d002", "d003"}
        returned = {"d000", "d001", "d002", "d090", "d091"}
        qs = score_query("q", returned, gold, n_docs=100, beta=40.0)
        assert qs.n_r == 4 and qs.n_t == 3 and qs.n_f == 2
        assert qs.p_miss == 0.25
        assert qs.p_fa == pytest.approx(2 / 96, abs=1e-15)
        assert qs.qv == pytest.approx(1 - 0.25 - 40 * (2 / 96), abs=1e-5)

    def test_empty_return_scores_zero_exactly(self):
        qs = score_query("q", set(), {"d000"}, n_docs=10, beta=40.0)
        assert qs.qv == 0.0

    def test_perfect_return_scores_one_exactly(self):
        gold = {"d000", "d001"}
        qs = score_query("q", set(gold), gold, n_docs=10, beta=40.0)
        assert qs.qv == 1.0

    def test_all_relevant_returned_with_junk(self):
        gold = {"d000"}
        qs = score_query("q", {"d000", "d001"}, gold, n_docs=10, beta=40.0)
        assert qs.p_miss == 0.0
        assert qs.qv == pytest.approx(1 - 40 / 9, abs=1e-12)

    def test_empty_gold_rejected(self):
        with pytest.raises(DataError, match="empty gold"):
            score_query("q", set(), set(), n_docs=10, beta=40.0)

    def test_gold_covering_corpus_rejected(self):
        with pytest.raises(DataError):
            score_query("q", set(), {"d0", "d1"}, n_docs=2, beta=40.0)


class TestScoreRun:
    def test_mean_over_queries(self):
        corpus = corpus_of(100)
        judgments = Judgments({
            "q1": frozenset({"d000", "d001", "d002", "d003"}),
            "q2": frozenset({"d010"}),
        })
        returned = {
            "q1": {"d000", "d001", "d002", "d090", "d091"},
            "q2": {"d010"},
        }
        rs = score_run(returned, judgments, corpus, beta=40.0)
        q1 = 1 - 0.25 - 40 * (2 / 96)
        assert rs.n_q == 2
        assert rs.maqwv == pytest.approx((q1 + 1.0) / 2, abs=1e-12)
        assert [s.query_id for s in rs.scores] == ["q1", "q2"]

    def test_explicit_empty_set_scores_zero(self):
        # the roster is the judged queries: an empty set and a missing
        # query are the same (bad) answer
        corpus = corpus_of(10)
        judgments = Judgments({"q1": frozenset({"d000"}), "q2": frozenset({"d001"})})
        rs = score_run({"q1": {"d000"}, "q2": set()}, judgments, corpus, beta=40.0)
        assert rs.maqwv == pytest.approx(0.5, abs=1e-15)
        rs_partial = score_run({"q1": {"d000"}}, judgments, corpus, beta=40.0)
        assert rs_partial.n_q == 2
        assert rs_partial.maqwv == pytest.approx(0.5, abs=1e-15)

    def test_no_returned_sets_scores_every_judged_query_zero(self):
        corpus = corpus_of(10)
        judgments = Judgments({"q1": frozenset({"d000"}), "q2": frozenset({"d001"})})
        rs = score_run({}, judgments, corpus, beta=40.0)
        assert rs.n_q == 2
        assert [s.qv for s in rs.scores] == [0.0, 0.0]
        assert rs.maqwv == 0.0

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -5.0])
    def test_beta_must_be_finite_and_positive(self, beta):
        corpus = corpus_of(10)
        judgments = Judgments({"q1": frozenset({"d000"})})
        with pytest.raises(DataError, match=f"beta {beta!r} must be finite"):
            score_run({"q1": {"d000"}}, judgments, corpus, beta=beta)

    def test_empty_gold_query_excluded_with_warning(self, caplog):
        corpus = corpus_of(10)
        judgments = Judgments({"q1": frozenset({"d000"}), "q2": frozenset()})
        with caplog.at_level(logging.WARNING):
            rs = score_run({"q1": {"d000"}, "q2": set()}, judgments, corpus, beta=40.0)
        assert rs.n_q == 1
        assert rs.maqwv == 1.0
        assert any("q2" in rec.message for rec in caplog.records)

    def test_all_queries_excluded_rejected(self):
        corpus = corpus_of(10)
        judgments = Judgments({"q1": frozenset()})
        with pytest.raises(DataError):
            score_run({"q1": set()}, judgments, corpus, beta=40.0)

    def test_unknown_returned_doc_rejected(self):
        corpus = corpus_of(3)
        judgments = Judgments({"q1": frozenset({"d000"})})
        with pytest.raises(DataError, match="unknown"):
            score_run({"q1": {"nope"}}, judgments, corpus, beta=40.0)

    def test_unknown_gold_doc_rejected(self):
        corpus = corpus_of(3)
        judgments = Judgments({"q1": frozenset({"zzz"})})
        with pytest.raises(DataError, match="unknown"):
            score_run({"q1": set()}, judgments, corpus, beta=40.0)

    def test_mean_uses_stable_summation(self):
        corpus = corpus_of(50)
        qids = [f"q{i:03d}" for i in range(30)]
        judgments = Judgments({q: frozenset({"d000"}) for q in qids})
        returned = {q: {"d000"} for q in qids}
        rs = score_run(returned, judgments, corpus, beta=40.0)
        assert rs.maqwv == pytest.approx(1.0, abs=1e-12)


class TestReporting:
    def test_format_summary_shape(self):
        corpus = corpus_of(10)
        judgments = Judgments({"q1": frozenset({"d000"})})
        rs = score_run({"q1": {"d000"}}, judgments, corpus, beta=40.0)
        line = format_summary(rs)
        assert line == "mAQWV=1.0 beta=40.0 n_q=1"

    def test_save_report(self, tmp_path):
        corpus = corpus_of(100)
        judgments = Judgments({
            "q1": frozenset({"d000", "d001", "d002", "d003"}),
        })
        rs = score_run(
            {"q1": {"d000", "d001", "d002", "d090", "d091"}},
            judgments, corpus, beta=40.0,
        )
        path = tmp_path / "report.tsv"
        save_report(rs, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("query-id\t")
        fields = lines[1].split("\t")
        assert fields[0] == "q1"
        assert fields[1:4] == ["4", "3", "2"]
        assert lines[-1].startswith("mAQWV=")
