"""Exact enumeration of empirical-measure events and the finite-sample
identity; the conditional law; nested events; Monte Carlo estimates."""

import math
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentlab import (
    ConstraintSet,
    DomainError,
    EmptyEvent,
    EnumerationCapExceeded,
    FeatureSet,
    FiniteDistribution,
    Method,
    compositions,
    conditional_law,
    enumerate_event,
    gibbs_conditioning_curve,
    monte_carlo_event,
    nested_relative_probability,
)
from maxentlab import sanov
from maxentlab.sanov import gibbs_curve_csv, num_compositions
from maxentlab._rng import substream

from oracles import binomial_tail_prob, iter_compositions, masked_log_ratio_loop


def coin():
    return FiniteDistribution(["0", "1"], [0.5, 0.5])


def tail_event(threshold):
    return ConstraintSet(FeatureSet(["x"], [[0.0, 1.0]]), ["ge"], [threshold])


class TestCompositions:
    def test_counts(self):
        assert num_compositions(10, 2) == 11
        assert compositions(10, 2).shape == (11, 2)
        assert compositions(6, 4).shape == (num_compositions(6, 4), 4)

    def test_matches_reference_enumeration(self):
        # Same rows in the same (lexicographic) order as the recursive oracle.
        for parts in (1, 2, 3, 6):
            for n in (0, 1, 2, 5, 9):
                comps = compositions(n, parts)
                assert comps.dtype == np.int64
                want = list(iter_compositions(n, parts))
                assert list(map(tuple, comps)) == want, (n, parts)

    def test_rows_sum_to_n(self):
        comps = compositions(7, 4)
        assert np.all(comps.sum(axis=1) == 7)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapExceeded):
            compositions(100, 6, cap=1000)

    def test_cap_checked_before_allocating(self):
        # C(10**6 + 9, 9) ~ 2.8e48 rows: only the count may be computed.
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(EnumerationCapExceeded):
                compositions(10**6, 10)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 1 << 20

    def test_negative_sample_size_is_domain_error(self):
        with pytest.raises(DomainError, match="sample size"):
            num_compositions(-1, 3)
        with pytest.raises(DomainError, match="sample size"):
            compositions(-1, 3)
        with pytest.raises(DomainError):
            compositions(3, 0)


class TestEnumerateEvent:
    def test_full_simplex_event(self):
        report = enumerate_event(
            coin(), ConstraintSet.equalities(FeatureSet.empty(2), []), 12
        )
        assert report.log_prob == pytest.approx(0.0, abs=1e-10)
        assert report.rate == pytest.approx(0.0, abs=1e-12)
        assert report.residual == pytest.approx(0.0, abs=1e-10)

    def test_bernoulli_tail_fixture(self):
        report = enumerate_event(coin(), tail_event(0.8), 10)
        assert math.exp(report.log_prob) == pytest.approx(56 / 1024, rel=1e-12)
        assert report.log_prob == pytest.approx(-2.906120114864304, abs=1e-10)
        assert report.rate == pytest.approx(0.1927447570217575, abs=1e-8)
        assert report.residual == pytest.approx(0.0978672544646729, abs=1e-6)
        # grouped conditional divergence and the slack term, separately
        assert report.conditional_divergence == pytest.approx(
            0.0681609467263896, abs=1e-6
        )
        assert report.pythagorean_gap == pytest.approx(0.0297063077382834, abs=1e-6)
        assert report.num_histograms_in_event == 3
        assert abs(report.identity_defect()) <= 1e-10

    def test_degenerate_vertex_event(self):
        report = enumerate_event(coin(), tail_event(1.0), 5)
        assert report.log_prob == pytest.approx(5 * math.log(0.5), abs=1e-12)
        assert report.boundary_projection
        assert report.residual == pytest.approx(0.0, abs=1e-6)
        assert abs(report.identity_defect()) <= 1e-10

    def test_empty_event_reported(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        # mean exactly 0.95 is unreachable with n = 10
        constraints = ConstraintSet.equalities(f, [0.95])
        report = enumerate_event(coin(), constraints, 10)
        assert report.empty_event
        assert report.log_prob == -math.inf

    def test_identity_closure_on_random_instances(self):
        rng = substream(2, 50)
        checked = 0
        for seed in range(300):
            if checked >= 50:
                break
            k = int(rng.integers(2, 5))
            n = int(rng.integers(4, 31))
            outcomes = [str(i) for i in range(k)]
            w = rng.random(k) + 0.1
            p = FiniteDistribution(outcomes, w / w.sum())
            d = int(rng.integers(1, 3))
            f = FeatureSet([f"f{i}" for i in range(d)], rng.normal(size=(d, k)))
            kinds = [str(rng.choice(["ge", "le"])) for _ in range(d)]
            base = f.matrix @ p.probs
            targets = base + rng.uniform(-0.5, 0.5, d)
            constraints = ConstraintSet(f, kinds, targets)
            report = enumerate_event(p, constraints, n)
            if report.empty_event or report.boundary_projection:
                continue
            assert abs(report.identity_defect()) <= 1e-10, seed
            assert report.residual >= -1e-12, seed
            checked += 1
        assert checked >= 50

    def test_partition_of_simplex_sums_to_one(self):
        # Disjoint bands of the empirical mean partition all histograms;
        # thresholds are irrational so no histogram sits on a boundary.
        p = FiniteDistribution(["0", "1", "2"], [0.5, 0.3, 0.2])
        band = FeatureSet(["x_lo", "x_hi"], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        edges = [-0.1, 0.5 + 1e-7 * math.pi, 1.1 + 1e-7 * math.e, 2.5]
        total = 0.0
        n = 9
        for lo, hi in zip(edges, edges[1:]):
            constraints = ConstraintSet(band, ["ge", "le"], [lo, hi])
            report = enumerate_event(p, constraints, n)
            if not report.empty_event:
                total += math.exp(report.log_prob)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_given_projection_is_used_unchanged(self, monkeypatch):
        p = FiniteDistribution(["0", "1", "2"], [0.5, 0.3, 0.2])
        constraints = ConstraintSet(
            FeatureSet(["x"], [[0.0, 1.0, 2.0]]), ["ge"], [1.1]
        )
        solved = enumerate_event(p, constraints, 9)

        def no_solve(*args, **kwargs):
            raise AssertionError("projection solved again")

        monkeypatch.setattr(sanov, "project_inequality", no_solve)
        reused = enumerate_event(p, constraints, 9, projection=solved.projection)
        assert reused.projection is solved.projection
        assert reused == solved

    def test_cap_exceeded(self):
        p = FiniteDistribution([str(i) for i in range(30)], [1 / 30] * 30)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_event(p, ConstraintSet.equalities(FeatureSet.empty(30), []), 50)


class TestConditionalLaw:
    def test_full_event_is_multinomial_law(self):
        p = coin()
        law = conditional_law(p, ConstraintSet.equalities(FeatureSet.empty(2), []), 4)
        assert law.masses.sum() == pytest.approx(1.0, abs=1e-12)
        for hist, mass in zip(law.histograms, law.masses):
            k = hist[1]
            assert mass == pytest.approx(math.comb(4, int(k)) / 16, rel=1e-12)

    def test_bernoulli_tail_masses(self):
        law = conditional_law(coin(), tail_event(0.8), 10)
        by_ones = {int(h[1]): m for h, m in zip(law.histograms, law.masses)}
        assert by_ones[8] == pytest.approx(45 / 56, rel=1e-12)
        assert by_ones[9] == pytest.approx(10 / 56, rel=1e-12)
        assert by_ones[10] == pytest.approx(1 / 56, rel=1e-12)

    def test_single_histogram_event_is_point_mass(self):
        law = conditional_law(coin(), tail_event(1.0), 6)
        assert law.histograms.shape[0] == 1
        assert law.masses[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_event_raises(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        with pytest.raises(EmptyEvent):
            conditional_law(coin(), ConstraintSet.equalities(f, [0.95]), 10)

    def test_sample_size_must_be_positive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sample size must be at least 1"):
                conditional_law(coin(), tail_event(0.8), 0)

    def test_masses_are_the_event_stats_weights(self):
        # The law and the identity decomposition condition the same
        # histograms with the same weights, to the bit.
        p, event, n = coin(), tail_event(0.8), 10
        law = conditional_law(p, event, n)
        comps, mask, log_w, lhp = sanov._enumerate(
            p, event, n, sanov.DEFAULT_ENUMERATION_CAP
        )
        sel = mask & (lhp > -math.inf)
        p_star = enumerate_event(p, event, n).projection.model.to_distribution()
        log_prob, _, mu_bar = sanov._event_stats(comps, log_w, lhp, sel, p_star, n)
        assert np.array_equal(law.histograms, comps[sel])
        assert np.array_equal(law.masses, np.exp(lhp[sel] - log_prob))
        assert np.array_equal(law.masses @ (law.histograms / n), mu_bar)


class TestGibbsConditioning:
    def test_residual_shrinks_from_10_to_40(self):
        curve = gibbs_conditioning_curve(coin(), tail_event(0.8), [10, 20, 40])
        res = {r.n: r.residual for r in curve}
        assert res[40] < res[10]

    def test_full_event_residual_zero(self):
        curve = gibbs_conditioning_curve(
            coin(), ConstraintSet.equalities(FeatureSet.empty(2), []), [3, 6, 9]
        )
        for r in curve:
            assert r.residual == pytest.approx(0.0, abs=1e-10)

    def test_n_equal_one_direct(self):
        # With n = 1 the conditional law sits on single-outcome histograms.
        p = FiniteDistribution(["0", "1"], [0.3, 0.7])
        report = enumerate_event(p, tail_event(0.5), 1)
        # only histogram (0,1) qualifies; its conditional mass is 1
        assert math.exp(report.log_prob) == pytest.approx(0.7, rel=1e-12)
        assert abs(report.identity_defect()) <= 1e-10

    def test_projection_solved_once(self, monkeypatch):
        calls = []
        solve = sanov.project_inequality

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sanov, "project_inequality", counted)
        curve = gibbs_conditioning_curve(coin(), tail_event(0.8), [10, 20, 40])
        assert len(calls) == 1
        assert all(r.projection is curve[0].projection for r in curve)

    def test_csv_rendering(self):
        curve = gibbs_conditioning_curve(coin(), tail_event(0.8), [10, 20])
        text = gibbs_curve_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "n,log_prob,rate,residual"
        assert len(lines) == 3


class TestNestedEvents:
    def test_inner_equal_outer(self):
        rep = nested_relative_probability(coin(), tail_event(0.8), tail_event(0.8), 10)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_tail_pair(self):
        rep = nested_relative_probability(coin(), tail_event(0.8), tail_event(0.9), 10)
        assert rep.passed
        assert rep.lhs == pytest.approx(math.log(11 / 56), abs=1e-10)
        assert rep.rhs == pytest.approx(math.log(11 / 56), abs=1e-10)

    def test_single_histogram_inner(self):
        rep = nested_relative_probability(coin(), tail_event(0.8), tail_event(1.0), 10)
        assert rep.passed
        assert rep.lhs == pytest.approx(math.log(1 / 56), abs=1e-10)

    def test_sample_size_must_be_positive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sample size must be at least 1"):
                nested_relative_probability(
                    coin(), tail_event(0.8), tail_event(0.9), 0
                )

    def test_not_nested_raises(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        outer = tail_event(0.8)
        not_inner = ConstraintSet(f, ["le"], [0.5])
        with pytest.raises(DomainError):
            nested_relative_probability(coin(), outer, not_inner, 10)

    def test_equality_outer_reduces_to_plain_formula(self):
        # For equality-type outer events the slack term vanishes.
        f = FeatureSet(["x"], [[0.0, 1.0]])
        outer = ConstraintSet.equalities(f, [0.8])
        inner = outer
        rep = nested_relative_probability(coin(), outer, inner, 10)
        assert rep.passed
        assert rep.details["slack"] == pytest.approx(0.0, abs=1e-9)


class TestMonteCarlo:
    def test_full_event_hits_everything(self):
        report = monte_carlo_event(
            coin(), ConstraintSet.equalities(FeatureSet.empty(2), []), 5, trials=2000
        )
        assert report.hits == 2000
        assert report.log_prob == 0.0
        assert report.method is Method.MONTE_CARLO

    def test_bernoulli_tail_estimate(self):
        exact = float(binomial_tail_prob(10, 8))
        report = monte_carlo_event(coin(), tail_event(0.8), 10, trials=10**6, seed=0)
        assert report.hits / report.trials == pytest.approx(exact, rel=0.05)
        assert report.wilson_low < report.wilson_high
        assert report.residual == pytest.approx(
            -report.log_prob / 10 - report.rate, abs=1e-15
        )

    def test_sample_size_must_be_positive(self):
        with pytest.raises(DomainError, match="sample size"):
            monte_carlo_event(
                coin(), ConstraintSet.equalities(FeatureSet.empty(2), []), 0, 10
            )

    def test_impossible_event_flagged(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        constraints = ConstraintSet.equalities(f, [0.95])
        report = monte_carlo_event(coin(), constraints, 10, trials=5000, seed=3)
        assert report.hits == 0
        assert report.empty_event
        assert math.isnan(report.residual)
        assert report.wilson_high > 0.0

    def test_deterministic_across_threads(self):
        a = monte_carlo_event(coin(), tail_event(0.8), 10, trials=200_000, seed=9)
        b = monte_carlo_event(
            coin(), tail_event(0.8), 10, trials=200_000, seed=9, threads=8
        )
        assert a.hits == b.hits

    def test_wilson_calibration_sample(self):
        # Small calibration run; the acceptance suite runs the full one.
        exact = float(binomial_tail_prob(10, 8))
        inside = 0
        for seed in range(20):
            r = monte_carlo_event(coin(), tail_event(0.8), 10, trials=10**5, seed=seed)
            if r.wilson_low <= exact <= r.wilson_high:
                inside += 1
        assert inside >= 17


def _same_float(a: float, b: float) -> bool:
    """Bit equality, which tells -0.0 from +0.0."""
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestMaskedLogRatio:
    """The vectorised ratio against the term-by-term loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5000),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.2, 0.9]),
        st.sampled_from([0.0, 0.0005, 0.01, 0.3]),
    )
    def test_bit_equal_to_loop(self, k, seed, zero_share, inf_share):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=k)
        weights[rng.random(k) < zero_share] = 0.0
        num_log = rng.normal(scale=3.0, size=k)
        den_log = rng.normal(scale=3.0, size=k)
        # A -inf numerator gives a -inf term, a -inf denominator a +inf one.
        u = rng.random(k)
        num_log[u < inf_share / 2] = -math.inf
        den_log[(u >= inf_share / 2) & (u < inf_share)] = -math.inf
        want = masked_log_ratio_loop(weights, num_log, den_log)
        got = sanov._masked_log_ratio(weights, num_log, den_log)
        assert _same_float(got, want), (got, want)

    def test_first_infinity_decides(self):
        fin, ninf = 0.5, -math.inf
        weights = np.array([1.0, 0.0, 2.0, 3.0, -1.0])
        # Term 1 is infinite under zero weight and is skipped; term 2 is
        # -inf, term 3 +inf: the first one met wins.
        num_log = np.array([fin, ninf, ninf, fin, fin])
        den_log = np.array([0.1, 0.2, 0.3, ninf, 0.4])
        assert sanov._masked_log_ratio(weights, num_log, den_log) == -math.inf
        assert masked_log_ratio_loop(weights, num_log, den_log) == -math.inf
        flipped = np.array([fin, ninf, fin, fin, fin]), np.array(
            [0.1, 0.2, ninf, 0.3, 0.4]
        )
        assert sanov._masked_log_ratio(weights, *flipped) == math.inf
        # A negative weight flips the sign of its infinite term.
        assert sanov._masked_log_ratio(-weights, *flipped) == -math.inf

    def test_zero_weights_and_signed_zero(self):
        zeros = np.zeros(4)
        assert _same_float(sanov._masked_log_ratio(zeros, zeros, zeros), 0.0)
        neg = np.full(3, -0.0)
        got = sanov._masked_log_ratio(np.ones(3), neg, np.zeros(3))
        assert _same_float(got, masked_log_ratio_loop(np.ones(3), neg, np.zeros(3)))
