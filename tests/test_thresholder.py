"""Expected-value cutoff selection.

The 3-doc curve below was worked out by hand:
probs = (0.9, 0.6, 0.1), beta = 2, gamma = 1, so e_rel = 1.6.
  k=0: 1 - (1.6/1.6 + 0)            = 0
  k=1: 1 - (0.7/1.6 + 2*0.1/1.4)    = 0.419642857142857...
  k=2: 1 - (0.1/1.6 + 2*0.5/1.4)    = 0.223214285714285...
  k=3: 1 - (0 + 2*1.4/1.4)          = -1
so the argmax is k=1.
"""

import itertools
import math
import random

import pytest

from clirset.errors import DataError
from clirset.relevance import RankedList
from clirset.thresholder import (
    CutoffDecision,
    ThresholdConfig,
    decide,
    expected_qv_curve,
    load_cutoffs,
    load_returned_sets,
    returned_set,
    save_cutoffs,
    save_returned_sets,
)

HAND_PROBS = (0.9, 0.6, 0.1)
HAND_CURVE = (0.0, 0.4196428571428571, 0.22321428571428575, -1.0)


def ranked(probs, query_id="q"):
    entries = tuple(
        (f"d{i:03d}", p) for i, p in enumerate(sorted(probs, reverse=True))
    )
    return RankedList(query_id=query_id, entries=entries)


def direct_qv(probs, k, beta, gamma, epsilon=1e-6):
    """Definition-level oracle, no recursions."""
    n = len(probs)
    e_rel = sum(probs)
    e_miss = sum(probs[k:])
    e_fa = sum(1.0 - p for p in probs[:k])
    scaled = min(max(gamma * e_rel, epsilon), n - epsilon)
    return 1.0 - (e_miss / scaled + beta * e_fa / (n - scaled))


class TestHandCurve:
    def test_curve_values(self):
        config = ThresholdConfig(beta=2.0, gamma=1.0)
        curve = expected_qv_curve(ranked(HAND_PROBS), config)
        assert curve == pytest.approx(HAND_CURVE, abs=1e-12)

    def test_decision(self):
        decision = decide(ranked(HAND_PROBS), ThresholdConfig(beta=2.0, gamma=1.0))
        assert decision.k == 1
        assert decision.expected_qv == pytest.approx(HAND_CURVE[1], abs=1e-12)

    def test_returned_set_is_prefix(self):
        rl = ranked(HAND_PROBS)
        decision = decide(rl, ThresholdConfig(beta=2.0, gamma=1.0))
        assert returned_set(rl, decision) == ["d000"]


class TestRecursions:
    def test_match_direct_sums(self):
        rng = random.Random(3)
        config = ThresholdConfig(beta=7.0, gamma=1.15)
        for _ in range(40):
            probs = tuple(sorted(
                (rng.uniform(1e-5, 1 - 1e-5) for _ in range(rng.randint(1, 30))),
                reverse=True,
            ))
            curve = expected_qv_curve(ranked(probs), config)
            assert len(curve) == len(probs) + 1
            for k, value in enumerate(curve):
                want = direct_qv(probs, k, config.beta, config.gamma, config.epsilon)
                assert value == pytest.approx(want, abs=1e-9)

    def test_pass_conservation(self):
        # e_miss(k) + sum of p over the prefix = e_rel for every k
        rng = random.Random(4)
        probs = tuple(sorted((rng.uniform(0.01, 0.99) for _ in range(25)), reverse=True))
        config = ThresholdConfig()
        n = len(probs)
        curve = expected_qv_curve(ranked(probs), config)
        e_rel = decide(ranked(probs), config).e_rel
        scaled = min(max(config.gamma * e_rel, config.epsilon), n - config.epsilon)
        for k in range(n + 1):
            prefix = math.fsum(probs[:k])
            e_miss, e_fa = e_rel - prefix, k - prefix
            want = 1.0 - (e_miss / scaled + config.beta * e_fa / (n - scaled))
            assert curve[k] == pytest.approx(want, abs=1e-9)
        assert e_rel == pytest.approx(sum(probs), abs=1e-9)

    def test_e_fa_is_forward_sum(self):
        probs = (0.75, 0.5, 0.25)
        config = ThresholdConfig()
        curve = expected_qv_curve(ranked(probs), config)
        e_rel = decide(ranked(probs), config).e_rel
        scaled = min(max(config.gamma * e_rel, config.epsilon), 3 - config.epsilon)
        # solve E_QV(k) for e_fa(k), with e_miss(k) from the prefix mass
        e_fa = [
            (1.0 - curve[k] - (e_rel - math.fsum(probs[:k])) / scaled)
            * (3 - scaled) / config.beta
            for k in range(4)
        ]
        assert e_fa == pytest.approx((0.0, 0.25, 0.75, 1.5), abs=1e-12)


class TestDecisionRules:
    def test_all_floor_returns_nothing(self):
        probs = (1e-6,) * 8
        decision = decide(ranked(probs), ThresholdConfig())
        assert decision.k == 0

    def test_all_ceiling_returns_everything(self):
        # with e_rel close to N the fa denominator is tiny, so this only
        # holds when beta is small enough not to dominate
        probs = (1.0 - 1e-6,) * 8
        decision = decide(ranked(probs), ThresholdConfig(beta=0.5, gamma=1.0))
        assert decision.k == 8

    def test_all_ceiling_with_harsh_beta_returns_nothing(self):
        # same list, default beta=40: every false alarm costs 40/(N-e_rel')
        # which dwarfs the miss savings, so the optimum collapses to k=0
        probs = (1.0 - 1e-6,) * 8
        decision = decide(ranked(probs), ThresholdConfig(gamma=1.0))
        assert decision.k == 0

    def test_exact_tie_keeps_smaller_k(self):
        # N=1, p=0.5, beta=1, gamma=1: k=0 and k=1 both give
        # 1 - 0.5/0.5 = 0 and 1 - 0.5/0.5 = 0. Smallest k wins.
        decision = decide(
            ranked((0.5,)), ThresholdConfig(beta=1.0, gamma=1.0)
        )
        curve = expected_qv_curve(
            ranked((0.5,)), ThresholdConfig(beta=1.0, gamma=1.0)
        )
        assert curve[0] == curve[1]
        assert decision.k == 0

    def test_beta_pressure_shrinks_sets(self):
        rng = random.Random(11)
        probs = tuple(sorted((rng.uniform(0.05, 0.95) for _ in range(20)), reverse=True))
        ks = [
            decide(ranked(probs), ThresholdConfig(beta=b)).k
            for b in (1.0, 5.0, 20.0, 40.0, 80.0)
        ]
        assert ks == sorted(ks, reverse=True)

    def test_prefix_beats_every_subset(self):
        # the chosen prefix must score at least as well as any subset of
        # the ranked list when scored with the same expectations
        rng = random.Random(12)
        config = ThresholdConfig(beta=3.0, gamma=1.0)
        for _ in range(10):
            probs = tuple(
                sorted((rng.uniform(0.01, 0.99) for _ in range(8)), reverse=True)
            )
            n = len(probs)
            e_rel = sum(probs)
            scaled = min(max(config.gamma * e_rel, config.epsilon), n - config.epsilon)
            best = -math.inf
            for mask in range(2 ** n):
                chosen = [i for i in range(n) if mask >> i & 1]
                e_miss = e_rel - sum(probs[i] for i in chosen)
                e_fa = sum(1.0 - probs[i] for i in chosen)
                value = 1.0 - (e_miss / scaled + config.beta * e_fa / (n - scaled))
                best = max(best, value)
            decision = decide(ranked(probs), config)
            assert decision.expected_qv == pytest.approx(best, abs=1e-9)

    def test_empty_ranked_list_rejected(self):
        with pytest.raises(DataError, match="empty"):
            decide(RankedList(query_id="q", entries=()), ThresholdConfig())


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0},
        {"beta": -1.0},
        {"beta": math.nan},
        {"beta": math.inf},
        {"gamma": 0.0},
        {"gamma": math.nan},
        {"gamma": -math.inf},
        {"epsilon": 0.0},
        {"epsilon": 0.5},
    ])
    def test_bad_values(self, kwargs):
        with pytest.raises(DataError):
            ThresholdConfig(**kwargs)

    def test_error_names_the_value(self):
        with pytest.raises(DataError, match="gamma nan must be finite and positive"):
            ThresholdConfig(gamma=math.nan)


class TestCutoffIO:
    def test_round_trip(self, tmp_path):
        decisions = [
            decide(ranked(HAND_PROBS, "q2"), ThresholdConfig(beta=2.0, gamma=1.0)),
            decide(ranked((0.8, 0.2), "q1"), ThresholdConfig(beta=2.0, gamma=1.0)),
        ]
        path = tmp_path / "cutoffs.tsv"
        save_cutoffs(decisions, path)
        loaded = load_cutoffs(path)
        assert set(loaded) == {"q1", "q2"}
        assert loaded["q2"][0] == 1
        # repr formatting makes the float round trip bit exact
        assert loaded["q2"][1] == decisions[0].expected_qv

    def test_duplicate_query_rejected(self, tmp_path):
        path = tmp_path / "cutoffs.tsv"
        path.write_text("q1\t2\t0.5\nq1\t1\t0.4\n")
        with pytest.raises(DataError, match="duplicate"):
            load_cutoffs(path)

    def test_returned_sets_round_trip(self, tmp_path):
        sets = {"q1": ("d1", "d2"), "q2": ()}
        path = tmp_path / "sets.tsv"
        save_returned_sets(sets, path)
        loaded = load_returned_sets(path)
        # empty sets leave no lines behind
        assert loaded == {"q1": {"d1", "d2"}}
