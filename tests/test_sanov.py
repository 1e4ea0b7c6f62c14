"""Exact enumeration of empirical-measure events and the finite-sample
identity; the conditional law; nested events; Monte Carlo estimates."""

import dataclasses
import math
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from maxentlab import (
    ConstraintSet,
    ConvergenceError,
    DomainError,
    EmptyEvent,
    EnumerationCapExceeded,
    FeatureSet,
    FiniteDistribution,
    Method,
    ShapeMismatch,
    compositions,
    conditional_law,
    enumerate_event,
    gibbs_conditioning_curve,
    monte_carlo_event,
    nested_relative_probability,
)
from maxentlab import sanov
from maxentlab.sanov import gibbs_curve_csv, num_compositions
from maxentlab._rng import chunk_stream, substream
from maxentlab.jsonio import dump_json
from maxentlab.projection import SolverOptions, project

from oracles import (
    binomial_tail_prob,
    full_event_rows,
    full_histogram_table,
    iter_compositions,
    monte_carlo_hits_per_row,
    per_histogram_law,
    per_outcome_gap,
    per_outcome_slack,
    stars_and_bars_compositions,
)


def coin():
    return FiniteDistribution(["0", "1"], [0.5, 0.5])


def tail_event(threshold):
    return ConstraintSet(FeatureSet(["x"], [[0.0, 1.0]]), ["ge"], [threshold])


def five_outcome_tail():
    """``count_0 / 2000 >= 1030 / 2000`` under a prior with ``p_0 = 1/2``:
    a binomial tail over five outcomes whose last four share a column."""
    prior = FiniteDistribution(list("abcde"), [0.5, 0.1, 0.15, 0.1, 0.15])
    row = [[1.0, 0.0, 0.0, 0.0, 0.0]]
    return prior, ConstraintSet(FeatureSet(["x"], row), ["ge"], [1030 / 2000])


class TestCompositions:
    def test_counts(self):
        assert num_compositions(10, 2) == 11
        assert compositions(10, 2).shape == (11, 2)
        assert compositions(6, 4).shape == (num_compositions(6, 4), 4)

    def test_matches_reference_enumeration(self):
        # Same rows in the same (lexicographic) order as the recursive oracle
        # and the stars-and-bars table, C-contiguous int64.
        grid = [(n, parts) for parts in range(1, 9) for n in range(13)]
        for n, parts in grid + [(300, 3), (25, 5), (12, 6)]:
            comps = compositions(n, parts)
            assert comps.dtype == np.int64 and comps.flags.c_contiguous
            assert np.array_equal(comps, stars_and_bars_compositions(n, parts))
            want = list(iter_compositions(n, parts))
            assert list(map(tuple, comps.tolist())) == want, (n, parts)

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

    @staticmethod
    def weighed_grid(outcomes):
        """``(n, parts)`` for n 1-40 over ``outcomes``, up to 2e5 rows each."""
        return [
            (n, parts)
            for parts in outcomes
            for n in range(1, 41)
            if num_compositions(n, parts) <= 200_000
        ]

    def test_weights_bit_equal_to_log_multinomial(self):
        # Up to 7 outcomes the running sums add each row's log-factorials
        # in numpy's row-sum order, so the weights keep their bits.
        from maxentlab.multinomial import _log_multinomial

        grid = self.weighed_grid(range(1, 8)) + [(999, 3), (25, 5), (44, 6)]
        for n, parts in grid:
            comps, weights = sanov._enumerate(n, parts, sanov.DEFAULT_ENUMERATION_CAP)
            assert np.array_equal(weights, _log_multinomial(comps, n)), (n, parts)

    def test_weights_past_seven_outcomes_agree_to_rounding(self):
        # From 8 outcomes numpy sums rows pairwise, and the last bits of the
        # left-to-right running sums may differ; this is the one place.
        from maxentlab.multinomial import _log_multinomial

        for n, parts in self.weighed_grid(range(8, 13)):
            comps, weights = sanov._enumerate(n, parts, sanov.DEFAULT_ENUMERATION_CAP)
            want = _log_multinomial(comps, n)
            np.testing.assert_array_less(
                np.abs(weights - want), 1e-15 * np.maximum(1.0, np.abs(want))
            )

    def test_one_outcome_takes_no_table_of_n(self):
        # One outcome has one histogram, of weight 0, at any n up to the
        # sampler's 2**63 - 1; no table of n + 1 log-factorials is built.
        p = FiniteDistribution(["a"], [1.0])
        event = ConstraintSet(FeatureSet(["x"], [[1.0]]), ["ge"], [0.5])
        tracemalloc.start()
        try:
            report = enumerate_event(p, event, 10**15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.log_prob == 0.0 and report.num_histograms_in_event == 1

    def test_negative_sample_size_is_domain_error(self):
        with pytest.raises(DomainError, match="sample size"):
            num_compositions(-1, 3)
        with pytest.raises(DomainError, match="sample size"):
            compositions(-1, 3)
        with pytest.raises(DomainError):
            compositions(3, 0)


def _pruning_cases():
    """A seeded grid of ``(p, event, inner, n)`` over 2-6 outcomes, each
    table at most 3,000 histograms, that reaches every edge of the pruned
    enumeration:

    - lattice and real features in 1 and 2 rows, at scales 1e-3 to 1e2
      and some at 1e9, where rounding, not the membership tolerance, sets
      which rows the mask keeps; ``ge``, ``le`` and ``eq`` targets at a
      drawn histogram's means, on lattice points and 1e-10 to 5e-10 off
      them, or drawn around them;
    - full-support priors and priors with one or more zero-mass outcomes;
    - featureless events (every histogram) and events past the features'
      range (no histogram);
    - events of one histogram, ``(0, ..., 0, n)`` under a ``ge`` at the
      last outcome's indicator, and events of one supported histogram
      among others, ``(n/2, 0, ..., 0, n/2)`` under ``eq 1`` on ``(0, 1, 2,
      ..., 2)`` when only the first and last outcomes have mass;
    - inner events over another feature than the event's, with and
      without the event's own rows (so some are not contained in it).
    """
    rng = np.random.default_rng(2608)
    cases = []
    for parts in range(2, 7):
        n = max(m for m in range(1, 300) if num_compositions(m, parts) <= 3000)
        names = [str(i) for i in range(parts)]

        def prior(zero_mass):
            probs = rng.dirichlet(np.ones(parts))
            if zero_mass:
                dead = rng.choice(parts, size=rng.integers(1, parts), replace=False)
                probs[dead] = 0.0
            return FiniteDistribution(names, probs / probs.sum())

        def event(d):
            if rng.random() < 0.5:
                matrix = rng.integers(-3, 4, size=(d, parts)).astype(float)
            else:
                matrix = rng.normal(size=(d, parts)) * 10.0 ** rng.integers(-3, 3)
            if rng.random() < 0.15:  # one unit in the last place exceeds 1e-9
                matrix *= 1e9
            kinds = list(rng.choice(["ge", "le", "eq"], size=d))
            counts = rng.multinomial(n, rng.dirichlet(np.ones(parts)))
            targets = matrix @ (counts / n)
            for i in range(d):
                u = rng.random()
                if u < 0.4:
                    targets[i] += rng.choice([-1.0, 1.0]) * rng.uniform(1e-10, 5e-10)
                elif u < 0.6 and kinds[i] != "eq":
                    targets[i] += 0.3 * rng.normal() * np.abs(matrix[i]).max()
            names_d = [f"f{i}" for i in range(d)]
            return ConstraintSet(FeatureSet(names_d, matrix), kinds, targets)

        for k in range(24):
            event_a = event(1 + k % 2)
            inner = None
            if k % 3 == 0:
                other = event(1)
                inner = other
                if k % 6 == 0:  # the event's rows and another feature's
                    matrix = np.vstack((event_a.features.matrix, other.features.matrix))
                    inner = ConstraintSet(
                        FeatureSet([f"g{i}" for i in range(len(matrix))], matrix),
                        [*(kind.value for kind in event_a.kinds), other.kinds[0].value],
                        np.append(event_a.targets, other.targets),
                    )
            cases.append((prior(k % 4 == 3), event_a, inner, n))
        ramp = np.arange(parts, dtype=float)[None]
        last = np.eye(parts)[-1:]
        cases += [
            (prior(False), ConstraintSet(FeatureSet.empty(parts), [], []), None, n),
            (prior(True), ConstraintSet(FeatureSet.empty(parts), [], []), None, n),
            (prior(False), ConstraintSet(FeatureSet(["r"], ramp), ["ge"], [parts]), None, n),
            (prior(False), ConstraintSet(FeatureSet(["e"], last), ["ge"], [1.0]), None, n),
            (prior(True), ConstraintSet(FeatureSet(["e"], last), ["ge"], [1.0]), None, n),
        ]
        if parts >= 3:
            probs = np.full(parts, 1.0)
            probs[1:-1] = 0.0
            halves = FiniteDistribution(names, probs / probs.sum())
            row = np.minimum(np.arange(parts, dtype=float), 2.0)[None]
            even = n - n % 2
            eq_one = ConstraintSet(FeatureSet(["h"], row), ["eq"], [1.0])
            cases.append((halves, eq_one, None, even))
    return cases


def _outcome(call, *args, **kwargs):
    """The JSON bytes of a report, the arrays of a conditional law, or the
    type and message of the error raised."""
    try:
        result = call(*args, **kwargs)
    except (DomainError, EmptyEvent) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, sanov.ConditionalLaw):
        return result.histograms.tolist(), result.masses.tobytes()
    return dump_json(result.to_json())


class TestPrunedTable:
    """The enumeration keeps the rows that can reach the event; the mask
    still decides, so every row, log-probability and report equals the
    full table's, to the bit (:func:`oracles.full_histogram_table`)."""

    CAP = sanov.DEFAULT_ENUMERATION_CAP

    def test_event_rows_and_reports_equal_the_full_tables(self, monkeypatch):
        # Every table is pruned here, not only those past sanov._PRUNE_FROM.
        monkeypatch.setattr(sanov, "_PRUNE_FROM", 0)
        cases = _pruning_cases()
        kept = one_row = one_supported = 0
        for p, event, inner, n in cases:
            comps, log_probs = sanov._table(p, n, self.CAP, (event,))
            mask, sel, _ = sanov._event_rows((comps, log_probs), event, n)
            want_rows, want_log_probs = full_event_rows(p, event, n, self.CAP)
            assert np.array_equal(comps[mask], want_rows)
            assert log_probs[mask].tobytes() == want_log_probs.tobytes()
            kept += len(comps)
            one_row += len(comps) == 1
            one_supported += int(sel.sum()) == 1 and not p.support.all()
            calls = [(conditional_law, (p, event, n), {})]
            try:
                projection = sanov.project_inequality(p, event)
            except ConvergenceError:  # features at 1e9 against moment_tol 1e-9
                projection = None
            else:
                calls.append(
                    (enumerate_event, (p, event, n), {"projection": projection})
                )
            if inner is not None and projection is not None:
                calls.append(
                    (
                        nested_relative_probability,
                        (p, event, inner, n),
                        {"projection": projection},
                    )
                )
            pruned = [_outcome(f, *args, **kw) for f, args, kw in calls]
            with monkeypatch.context() as full:
                full.setattr(sanov, "_table", full_histogram_table)
                assert [_outcome(f, *args, **kw) for f, args, kw in calls] == pruned
        # The grid reaches the edges it is built for, and prunes.
        assert one_row >= 10 and one_supported >= 4
        assert kept < 0.5 * sum(num_compositions(n, len(p)) for p, _, _, n in cases)

    def test_sums_past_the_float_range_keep_the_whole_simplex(self, monkeypatch):
        # n times 1e306 overflows: the tests would drop rows the mask keeps,
        # so nothing is pruned; at 1e300 the table is pruned.
        monkeypatch.setattr(sanov, "_PRUNE_FROM", 0)
        p = FiniteDistribution(list("abc"), [0.2, 0.3, 0.5])
        for scale, pruned in ((1e306, False), (1e300, True)):
            row = [[scale, 0.0, -scale]]
            event = ConstraintSet(FeatureSet(["x"], row), ["ge"], [0.1 * scale])
            comps, log_probs = sanov._table(p, 1000, self.CAP, (event,))
            mask = sanov._event_rows((comps, log_probs), event, 1000)[0]
            want_rows, want_log_probs = full_event_rows(p, event, 1000, self.CAP)
            assert np.array_equal(comps[mask], want_rows)
            assert log_probs[mask].tobytes() == want_log_probs.tobytes()
            assert (len(comps) < num_compositions(1000, 3)) == pruned

    def test_a_table_of_the_tail_holds_little_more_than_the_event(self, monkeypatch):
        # The shape of the benchmark's largest exact op: 3 outcomes, n = 999
        # (500,500 histograms), a ge tail halfway between the feature's mean
        # and its maximum.  Counts, not times: the table's rows and the
        # report's traced peak (32 MB when the whole simplex was built).
        p = FiniteDistribution(list("abc"), [0.4, 0.25, 0.35])
        row = np.array([[-0.4, 1.3, 0.2]])
        target = row.mean() + 0.5 * (row.max() - row.mean())
        event = ConstraintSet(FeatureSet(["x"], row), ["ge"], [target])
        projection = sanov.project_inequality(p, event)
        built = []
        enumerate_all = sanov._enumerate

        def counted(*args, **kwargs):
            table = enumerate_all(*args, **kwargs)
            built.append(len(table[0]))
            return table

        monkeypatch.setattr(sanov, "_enumerate", counted)
        tracemalloc.start()
        try:
            report = enumerate_event(p, event, 999, projection=projection)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.num_histograms_in_event > 50_000
        assert built == [pytest.approx(report.num_histograms_in_event, rel=0.1)]
        assert built[0] <= 1.1 * report.num_histograms_in_event
        assert peak < 8 << 20


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

    def test_cap_is_keyword_only(self):
        with pytest.raises(TypeError):
            conditional_law(coin(), tail_event(0.8), 10, 1000)
        with pytest.raises(EnumerationCapExceeded):
            conditional_law(coin(), tail_event(0.8), 10, cap=10)

    def test_masses_are_the_event_stats_weights(self):
        # The law and the identity decomposition condition the same
        # histograms with the same weights, and the masses' feature means
        # are the event law's, to the bit.
        p, event, n = coin(), tail_event(0.8), 10
        law = conditional_law(p, event, n)
        table = sanov._table(p, n, sanov.DEFAULT_ENUMERATION_CAP)
        comps, lhp = table
        _, sel, moments = sanov._event_rows(table, event, n)
        log_prob, means = sanov._event_law(lhp, sel, moments)
        assert np.array_equal(law.histograms, comps[sel])
        assert np.array_equal(law.masses, np.exp(lhp[sel] - log_prob))
        feature_means = event.features.matrix @ (law.histograms.T / n) @ law.masses
        assert np.array_equal(feature_means, means)


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

    @pytest.mark.parametrize(
        "grid, error",
        [([40, 44, 400], EnumerationCapExceeded), ([40, 0], DomainError)],
    )
    def test_every_n_is_checked_before_any_table(self, monkeypatch, grid, error):
        # Six outcomes: 400 samples are past the cap, 0 is no sample size;
        # neither grid projects or enumerates a point before it raises.
        p = FiniteDistribution([str(i) for i in range(6)], np.full(6, 1 / 6))
        row = np.arange(6.0)[None]
        event = ConstraintSet(FeatureSet(["f"], row), ["ge"], [3.2])
        calls = []
        monkeypatch.setattr(sanov, "_enumerate", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(
            sanov, "project_inequality", lambda *a, **k: calls.append(a)
        )
        with pytest.raises(error):
            gibbs_conditioning_curve(p, event, grid)
        assert calls == []

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

    def test_inner_event_on_another_alphabet_raises(self):
        inner = ConstraintSet(FeatureSet(["x"], [[0.0, 1.0, 2.0]]), ["ge"], [0.8])
        with pytest.raises(ShapeMismatch, match="3 outcomes"):
            nested_relative_probability(coin(), tail_event(0.5), inner, 5)

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


def _zero_mass_events():
    """A prior with a zero-mass outcome and a nested pair of half-spaces."""
    p = FiniteDistribution(list("abcd"), [0.3, 0.0, 0.45, 0.25])
    f = FeatureSet(["x"], [[0.0, 2.0, 1.0, -0.5]])
    return p, ConstraintSet(f, ["ge"], [0.55]), ConstraintSet(f, ["ge"], [0.75]), 40


def _boundary_events():
    """An event whose target lies on the moment polytope's boundary, so
    ``P*`` is the descent's last iterate, which reaches tolerance at
    ``lam`` about 19; the inner event is the event itself."""
    p = FiniteDistribution(list("abc"), [0.2, 0.3, 0.5])
    event = ConstraintSet(FeatureSet(["x"], [[0.0, 1.0, 1.0]]), ["ge"], [1.0])
    return p, event, event, 30


class TestSharedLaw:
    """Every exact report reads its event's law off one function."""

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (coin(), tail_event(0.8), tail_event(0.9), 10),
            _zero_mass_events,
            _boundary_events,
        ],
        ids=["coin", "zero-mass", "boundary"],
    )
    def test_outer_divergence_is_the_event_reports(self, case):
        p, outer, inner, n = case()
        nested = nested_relative_probability(p, outer, inner, n)
        report = enumerate_event(p, outer, n)
        assert _same_float(
            nested.details["divergence_outer"], report.conditional_divergence
        )


def two_class_events(n: int):
    """Ten seeded ``(prior, event)`` pairs over 3-6 outcomes that lump to
    two classes: outcome-indicator tails and real-valued columns at scales
    1e-3 to 1e3, over one or two features, of kinds ``ge``, ``le`` and
    ``eq``.  Every target is the moments of a lattice histogram ``(k, n -
    k)`` near the mean, so an ``eq`` event holds it.  One prior in five
    gives its last outcome zero mass, under a column of its own."""
    cases = []
    for i in range(10):
        rng = np.random.default_rng(i)
        size = 3 + i % 4
        weights = rng.random(size) + 0.05
        in_first = np.arange(size) < 1 + i % (size - 2)
        d = 1 + i % 2
        if i % 3 == 0:  # an indicator of the first class
            columns = np.array([[1.0, 0.0]] * d)
        else:
            columns = rng.normal(size=(d, 2)) * 10.0 ** rng.uniform(-3, 3, size=(d, 1))
        matrix = np.where(in_first, columns[:, :1], columns[:, 1:])
        if i % 5 == 0:
            weights[-1] = 0.0
            matrix[:, -1] = 7.0 * matrix.max() + 1.0
        q = weights[in_first].sum() / weights.sum()
        sd = math.sqrt(n * q * (1 - q))
        k = min(max(round(n * q + sd * rng.normal()), 0), n)
        targets = columns[:, 0] * (k / n) + columns[:, 1] * ((n - k) / n)
        kinds = [("ge", "le", "eq")[(i + j) % 3] for j in range(d)]
        prior = FiniteDistribution([str(x) for x in range(size)], weights / weights.sum())
        features = FeatureSet([f"f{j}" for j in range(d)], matrix)
        cases.append((prior, ConstraintSet(features, kinds, targets)))
    return cases


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

    def test_chunk_streams_are_keyed_by_seed_and_chunk(self):
        # The same (seed, chunk) gives the same draws; a neighbouring chunk
        # or seed gives other draws.
        def draws(seed, index):
            return chunk_stream(seed, index).binomial(2000, 0.5, size=64)

        same = draws(7, 3)
        assert np.array_equal(same, draws(7, 3))
        for seed, index in [(7, 2), (7, 4), (6, 3), (8, 3)]:
            assert not np.array_equal(same, draws(seed, index))
        top = 2**64 - 1
        assert np.array_equal(draws(top, 0), draws(top, 0))
        assert not np.array_equal(draws(top, 0), draws(0, 0))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_raises(self, seed):
        # Such a seed once ran as its value mod 2**64: -1 drew the chunks
        # of seed 2**64 - 1.
        with pytest.raises(DomainError, match="seed"):
            chunk_stream(seed, 0)
        with pytest.raises(DomainError, match="seed"):
            monte_carlo_event(coin(), tail_event(0.8), 10, trials=100, seed=seed)

    def test_sample_size_must_be_positive(self):
        with pytest.raises(DomainError, match="sample size"):
            monte_carlo_event(
                coin(), ConstraintSet.equalities(FeatureSet.empty(2), []), 0, 10
            )

    def test_sample_size_must_fit_int64(self):
        # numpy's multinomial sampler takes its sample size as an int64.
        with pytest.raises(DomainError, match=r"at most 2\*\*63 - 1"):
            monte_carlo_event(coin(), tail_event(0.8), 2**63, 10)

    def test_options_after_the_sample_size_are_keyword_only(self):
        # A call that passed SolverOptions positionally fails at the call.
        with pytest.raises(TypeError):
            monte_carlo_event(coin(), tail_event(0.8), 10, 10, 0, SolverOptions())
        with pytest.raises(TypeError):
            enumerate_event(coin(), tail_event(0.8), 10, SolverOptions())

    def test_impossible_event_flagged(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        constraints = ConstraintSet.equalities(f, [0.95])
        report = monte_carlo_event(coin(), constraints, 10, trials=5000, seed=3)
        assert report.hits == 0
        assert report.empty_event
        assert math.isnan(report.residual)
        assert report.wilson_high > 0.0

    def test_given_projection_is_not_solved_again(self, monkeypatch):
        solved = monte_carlo_event(*five_outcome_tail(), 2000, trials=5000, seed=2)

        def refuse(*args, **kwargs):
            raise AssertionError("the projection was solved again")

        monkeypatch.setattr(sanov, "project_inequality", refuse)
        reused = monte_carlo_event(
            *five_outcome_tail(), 2000, trials=5000, seed=2, projection=solved.projection
        )
        assert dump_json(reused.to_json()) == dump_json(solved.to_json())

    def test_deterministic_across_threads(self):
        a = monte_carlo_event(coin(), tail_event(0.8), 10, trials=200_000, seed=9)
        b = monte_carlo_event(
            coin(), tail_event(0.8), 10, trials=200_000, seed=9, threads=8
        )
        assert a.hits == b.hits

    def test_memory_bounded_at_large_alphabets(self):
        # A chunk is drawn in row blocks: at K=2000 one 8192-row chunk held
        # ~260 MB of counts and their float copy; the hits are unchanged.
        k = 2000
        rng = substream(5, 91)
        w = rng.random(k) + 0.1
        prior = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
        features = FeatureSet(["x", "y"], rng.normal(size=(2, k)))
        mean = features.matrix @ prior.probs
        event = ConstraintSet(features, ["ge", "le"], [mean[0] + 0.05, mean[1] + 0.1])
        tracemalloc.start()
        try:
            report = monte_carlo_event(prior, event, 50, trials=8192, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.hits == 2176
        assert peak <= 100 * 2**20
        # Philox chunk streams drew 2,252 hits on these trials: two
        # independent counts of one law agree within 5 SE of their difference.
        p_hat = (report.hits + 2252) / (2 * report.trials)
        se = math.sqrt(2 * p_hat * (1 - p_hat) / report.trials)
        assert abs(report.hits - 2252) / report.trials <= 5 * se

    def test_lumped_law_on_repeated_columns(self):
        # Outcomes 1-2 and 3-4 share a column, so trials draw 3 classes.
        prior = FiniteDistribution(list("abcde"), [0.1, 0.2, 0.3, 0.15, 0.25])
        event = ConstraintSet(FeatureSet(["x"], [[0, 1, 1, 2, 2]]), ["ge"], [1.4])
        probs, lumped = sanov._outcome_classes(prior, event)
        assert probs.tolist() == pytest.approx([0.1, 0.5, 0.4], abs=1e-15)
        assert lumped.features.matrix.tolist() == [[0.0, 1.0, 2.0]]
        exact = math.exp(enumerate_event(prior, event, 10).log_prob)
        assert exact == pytest.approx(0.40971228160, abs=1e-11)
        for seed in range(3):
            r = monte_carlo_event(prior, event, 10, trials=200_000, seed=seed)
            se = math.sqrt(exact * (1 - exact) / r.trials)
            assert abs(r.hits / r.trials - exact) <= 5 * se

    def test_lumped_indicator_tail_at_benchmark_size(self):
        # The benchmark's shape: an outcome-0 indicator tail at D=5, n=2000,
        # which lumps to 2 classes.
        r = monte_carlo_event(*five_outcome_tail(), 2000, trials=200_000, seed=6)
        exact = float(binomial_tail_prob(2000, 1030))
        se = math.sqrt(exact * (1 - exact) / r.trials)
        assert abs(r.hits / r.trials - exact) <= 5 * se

    def test_lumped_hits_thread_invariant(self):
        a = monte_carlo_event(*five_outcome_tail(), 2000, trials=200_000, seed=8)
        b = monte_carlo_event(
            *five_outcome_tail(), 2000, trials=200_000, seed=8, threads=4
        )
        assert a.hits == b.hits

    def test_distinct_columns_keep_their_draws(self):
        # Full support and distinct columns: the class map is the identity,
        # so the hits are those of the unlumped sampler.
        prior = FiniteDistribution(["a", "b", "c"], [0.2, 0.3, 0.5])
        event = ConstraintSet(FeatureSet(["x"], [[0, 1, 2]]), ["ge"], [1.5])
        r = monte_carlo_event(prior, event, 20, trials=200_000, seed=7)
        assert r.hits == 31_587
        exact = math.exp(enumerate_event(prior, event, 20).log_prob)
        assert exact == pytest.approx(0.158905, abs=5e-7)
        se = math.sqrt(exact * (1 - exact) / r.trials)
        assert abs(r.hits / r.trials - exact) <= 5 * se

    def test_zero_mass_outcome_is_dropped(self):
        # The zero-mass outcome's column (5) is never drawn: the hits are
        # those of the alphabet without it, at any thread count.
        with_zero = (
            FiniteDistribution(["a", "z", "b"], [0.3, 0.0, 0.7]),
            ConstraintSet(FeatureSet(["x"], [[0, 5, 1]]), ["ge"], [0.8]),
        )
        without = (
            FiniteDistribution(["a", "b"], [0.3, 0.7]),
            ConstraintSet(FeatureSet(["x"], [[0, 1]]), ["ge"], [0.8]),
        )
        probs, lumped = sanov._outcome_classes(*with_zero)
        assert probs.tolist() == [0.3, 0.7]
        assert lumped.features.matrix.tolist() == [[0.0, 1.0]]
        hits = {
            monte_carlo_event(*pair, 20, trials=150_000, seed=2, threads=t).hits
            for pair in (with_zero, without)
            for t in (1, 3)
        }
        assert len(hits) == 1

    @pytest.mark.parametrize("columns", [4, 0])
    def test_featureless_event_is_one_class(self, columns):
        # A featureless set may tabulate its zero features over no columns.
        prior = FiniteDistribution(list("abcd"), [0.1, 0.2, 0.3, 0.4])
        event = ConstraintSet.equalities(FeatureSet.empty(columns), [])
        assert len(sanov._outcome_classes(prior, event)[0]) == 1
        r = monte_carlo_event(prior, event, 7, trials=3000, seed=1)
        assert r.hits == r.trials == 3000

    def test_event_needing_a_zero_mass_outcome_is_empty(self):
        prior = FiniteDistribution(["a", "z", "b"], [0.4, 0.0, 0.6])
        event = ConstraintSet(FeatureSet(["z"], [[0, 1, 0]]), ["ge"], [0.1])
        r = monte_carlo_event(prior, event, 10, trials=5000, seed=0)
        assert r.hits == 0
        assert r.empty_event

    @pytest.mark.parametrize("trials", [1, 65_536, 65_537, 200_000])
    @pytest.mark.parametrize("n", [1, 7, 2000, 10**5, 2**40])
    def test_two_class_hits_match_the_per_row_loop(self, n, trials):
        for prior, event in two_class_events(n):
            assert len(sanov._outcome_classes(prior, event)[0]) == 2
            want = monte_carlo_hits_per_row(prior, event, n, trials, seed=n % 97)
            for threads in (1, 3):
                r = monte_carlo_event(
                    prior, event, n, trials, seed=n % 97, threads=threads
                )
                assert r.hits == want, (event, threads)

    def test_two_class_blocks_test_each_distinct_count_once(self, monkeypatch):
        # The benchmark's shape lumps to 2 classes: each block's membership
        # test sees one row per count from its smallest to its largest
        # draw, at most n + 1 rows, not one row per trial.
        rows = []
        event_mask = sanov._event_mask

        def recording(counts, constraints, n):
            rows.append(counts.shape[0])
            return event_mask(counts, constraints, n)

        monkeypatch.setattr(sanov, "_event_mask", recording)
        monte_carlo_event(*five_outcome_tail(), 2000, trials=200_000, seed=6)
        assert len(rows) == 4
        assert max(rows) <= 2001

    def test_two_class_wide_count_range_tests_the_drawn_rows(self):
        # At n = 2**62 a block's draws span ~1e10 counts: the drawn rows are
        # tested, and memory stays within the large-alphabet bound.
        n = 2**62
        event = tail_event(0.5 + 1.5e-9)
        tracemalloc.start()
        try:
            report = monte_carlo_event(coin(), event, n, trials=65_537, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < report.hits < report.trials
        assert report.hits == monte_carlo_hits_per_row(coin(), event, n, 65_537, 5)
        assert peak <= 100 * 2**20

    def test_refuted_event_draws_nothing(self, monkeypatch):
        # No histogram has mean x >= 2.5 on x = (0, 1, 2), and the dual
        # floor refutes the target, so no chunk is drawn; the report is the
        # one that drawing all 16 chunks and scoring 0 hits gave.
        def refuse(*args):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr(sanov, "chunk_stream", refuse)
        prior = FiniteDistribution(list("abc"), [0.2, 0.3, 0.5])
        event = ConstraintSet(FeatureSet(["f"], [[0.0, 1.0, 2.0]]), ["ge"], [2.5])
        report = monte_carlo_event(prior, event, 2000, trials=2**20, seed=0)
        expected = {
            "boundary_projection": False,
            "conditional_divergence": math.nan,
            "empty_event": True,
            "hits": 0,
            "log_prob": -math.inf,
            "method": "monte-carlo",
            "n": 2000,
            "num_histograms_in_event": 0,
            "projection": {
                "iterations": 0,
                "lambda_star": [0.0],
                "min_divergence": math.inf,
                "moment_residual": [-1.2],
                "status": "infeasible",
            },
            "pythagorean_gap": math.nan,
            "rate": math.inf,
            "residual": math.nan,
            "trials": 2**20,
            "wilson_high": 3.663487193640643e-06,
            "wilson_low": 0.0,
        }
        assert dump_json(report.to_json()) == dump_json(expected)

    def test_wilson_ends_at_no_hits_and_all_hits(self):
        # The score formula reaches 0 at no hits and 1 at all hits only up
        # to rounding (2.2e-19 at 1,000 trials); those ends are exact, and
        # the other two ends are the formula's.
        z, rounded = sanov._WILSON_Z, 0
        for trials in range(1, 20_001):
            denom = 1.0 + z**2 / trials
            for hits in (0, trials):
                phat = hits / trials
                center = (phat + z**2 / (2 * trials)) / denom
                spread = phat * (1 - phat) / trials + z**2 / (4 * trials**2)
                half = z * math.sqrt(spread) / denom
                low, high = sanov._wilson_interval(hits, trials)
                if hits == 0:
                    assert (low, high) == (0.0, min(1.0, center + half)), trials
                    rounded += center - half > 0.0
                else:
                    assert (low, high) == (max(0.0, center - half), 1.0), trials
                    rounded += center + half < 1.0
        assert rounded > 10_000

    def test_wilson_calibration_sample(self):
        # Small calibration run; the acceptance suite runs the full one.
        exact = float(binomial_tail_prob(10, 8))
        inside = 0
        for seed in range(20):
            r = monte_carlo_event(coin(), tail_event(0.8), 10, trials=10**5, seed=seed)
            if r.wilson_low <= exact <= r.wilson_high:
                inside += 1
        assert inside >= 17


# Each sanov entry point that takes a solved projection, called on
# (p, constraints, projection).
_TAKES_PROJECTION = {
    "enumerate_event": lambda p, c, proj: enumerate_event(p, c, 10, projection=proj),
    "gibbs_conditioning_curve": lambda p, c, proj: gibbs_conditioning_curve(
        p, c, [5, 10], projection=proj
    ),
    "nested_relative_probability": lambda p, c, proj: nested_relative_probability(
        p, c, c, 10, projection=proj
    ),
    "monte_carlo_event": lambda p, c, proj: monte_carlo_event(
        p, c, 10, 100, projection=proj
    ),
}


class TestRateProjection:
    @pytest.mark.parametrize("entry", sorted(_TAKES_PROJECTION))
    @pytest.mark.parametrize(
        "foreign",
        [
            FiniteDistribution(["0", "1"], [0.4, 0.6]),
            FiniteDistribution(["h", "t"], [0.5, 0.5]),
        ],
        ids=["other-probs", "other-outcomes"],
    )
    def test_projection_of_another_prior_is_rejected(self, entry, foreign):
        projection = project(foreign, tail_event(0.8))
        with pytest.raises(DomainError, match="another prior"):
            _TAKES_PROJECTION[entry](coin(), tail_event(0.8), projection)

    @pytest.mark.parametrize("entry", sorted(_TAKES_PROJECTION))
    def test_projection_on_other_features_is_rejected(self, entry):
        # lam* weighs the features it was solved on; the exact reports read
        # the event's feature means against it.
        projection = project(coin(), _event([1.0, 0.0], "le", 0.2))
        with pytest.raises(DomainError, match="other features"):
            _TAKES_PROJECTION[entry](coin(), tail_event(0.8), projection)

    def test_zero_mass_boundary_event_is_finite(self):
        # A boundary event over a prior with a zero-mass outcome: P* is the
        # descent's last iterate and keeps the prior's support, so the
        # conditional divergence and the residual are finite and the
        # identity closes.
        p = FiniteDistribution(list("abcd"), [0.3, 0.0, 0.45, 0.25])
        event = ConstraintSet(FeatureSet(["x"], [[1.0, 1.0, 0.0, 0.0]]), ["le"], [0.0])
        report = enumerate_event(p, event, 40)
        assert report.boundary_projection
        p_star = report.projection.model.to_distribution()
        assert np.array_equal(p_star.support, p.support)
        assert math.isfinite(report.conditional_divergence)
        assert math.isfinite(report.residual)
        assert report.identity_defect() == pytest.approx(0.0, abs=1e-12)


def _same_float(a: float, b: float) -> bool:
    """Bit equality, which tells -0.0 from +0.0."""
    return struct.pack("<d", a) == struct.pack("<d", b)


def _event(row, kind, target):
    return ConstraintSet(FeatureSet(["x"], [row]), [kind], [target])


def _zero_mass_prior():
    return FiniteDistribution(list("abcd"), [0.3, 0.0, 0.45, 0.25])


_ZERO_MASS_ROW = [0, 2, 1, -0.5]


def _full_prior():
    return FiniteDistribution(list("abc"), [0.2, 0.3, 0.5])


def _random_instances(count: int, seed: int):
    """``(p, outer, inner, n)`` over 2 to 5 outcomes at ``n <= 12``: two
    random features, each constraint ``ge`` or ``le`` at a target near the
    prior's mean, and an inner event whose targets are tightened by a
    random step, so it lies inside the outer one.  One prior in five has a
    zero-mass outcome."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        k = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(k))
        if i % 5 == 4:
            probs[rng.integers(k)] = 0.0
            probs /= probs.sum()
        p = FiniteDistribution([f"o{j}" for j in range(k)], probs)
        features = FeatureSet(["u", "v"], rng.normal(size=(2, k)).round(3))
        kinds = list(rng.choice(["ge", "le"], size=2))
        sign = np.where(np.array(kinds) == "ge", 1.0, -1.0)
        targets = features.matrix @ p.probs + sign * rng.uniform(-0.4, 0.2, size=2)
        inner = targets + sign * rng.uniform(0.0, 0.3, size=2)
        out.append(
            (
                p,
                ConstraintSet(features, kinds, targets),
                ConstraintSet(features, kinds, inner),
                int(rng.integers(3, 13)),
            )
        )
    return out


def _oracle_law(p, constraints, n, p_star):
    comps = compositions(n, len(p))
    return per_histogram_law(comps, sanov._event_mask(comps, constraints, n), p, p_star)


class TestStatisticForm:
    """Every exact report field is a closed form in ``log Pr(A)`` and the
    event's feature means; on enumerable instances it matches the
    per-histogram form, which scores every histogram under ``P*``."""

    _FIXED = {
        "coin": (coin(), tail_event(0.8), 10),
        "zero-mass prior": (_zero_mass_prior(), _event(_ZERO_MASS_ROW, "ge", 0.55), 40),
        "boundary": (_full_prior(), _event([0, 1, 1], "ge", 1.0), 300),
        "zero-mass boundary": (_zero_mass_prior(), _event([1, 1, 0, 0], "le", 0.0), 40),
        "eq on a lattice feature": (_full_prior(), _event([0, 1, 2], "eq", 1.2), 30),
    }

    @staticmethod
    def _check_report(p, constraints, n) -> bool:
        report = enumerate_event(p, constraints, n)
        if report.empty_event:
            return False
        p_star = report.projection.model.to_distribution()
        log_prob, divergence, mu_bar = _oracle_law(p, constraints, n, p_star)
        gap = per_outcome_gap(mu_bar, p, p_star)
        assert report.log_prob == pytest.approx(log_prob, rel=1e-12, abs=1e-12)
        assert report.conditional_divergence == pytest.approx(divergence / n, abs=1e-12)
        assert report.pythagorean_gap == pytest.approx(gap, abs=1e-12)
        assert report.residual == pytest.approx(divergence / n + gap, abs=1e-12)
        return True

    @staticmethod
    def _check_nested(p, outer, inner, n) -> None:
        rep = nested_relative_probability(p, outer, inner, n)
        p_star = project(p, outer).model.to_distribution()
        _, div_a, mu_bar_a = _oracle_law(p, outer, n, p_star)
        _, div_b, mu_bar_b = _oracle_law(p, inner, n, p_star)
        slack = per_outcome_slack(mu_bar_b, mu_bar_a, p, p_star, n)
        assert rep.details["divergence_inner"] == pytest.approx(div_b / n, abs=1e-12)
        assert rep.details["divergence_outer"] == pytest.approx(div_a / n, abs=1e-12)
        assert rep.details["slack"] / n == pytest.approx(slack / n, abs=1e-12)
        assert rep.passed

    @pytest.mark.parametrize("name", sorted(_FIXED))
    def test_fixed_events(self, name):
        assert self._check_report(*self._FIXED[name])

    def test_random_events(self):
        checked = sum(
            self._check_report(p, outer, n)
            for p, outer, _, n in _random_instances(40, seed=0)
        )
        assert checked >= 30

    def test_nested_pairs(self):
        outer, inner = (_event(_ZERO_MASS_ROW, "ge", t) for t in (0.55, 0.75))
        self._check_nested(_zero_mass_prior(), outer, inner, 40)
        # An inner event on other features: its means are the outer's.
        lattice = FeatureSet(["f", "c"], [[0, 1, 2], [0, 0, 1]])
        inner = ConstraintSet(lattice, ["ge", "ge"], [1.0, 0.5])
        self._check_nested(_full_prior(), _event([0, 1, 2], "ge", 1.0), inner, 20)
        checked = 0
        for p, outer, inner, n in _random_instances(40, seed=1):
            try:
                self._check_nested(p, outer, inner, n)
            except EmptyEvent:
                continue
            checked += 1
        assert checked >= 20


class TestJson:
    """Results serialize from their fields: every field that holds a value
    is a key, so a new field needs no edit to ``to_json``.  A projection's
    ``model`` is the one field left out; its inputs and ``lambda_star``
    rebuild it."""

    @staticmethod
    def _keys(result) -> set:
        values = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
        return {
            name
            for name, value in values.items()
            if value is not None and not (isinstance(value, tuple) and not value)
        }

    def test_every_set_field_is_a_key(self):
        traced = project(coin(), tail_event(0.8), SolverOptions(trace=True))
        exact = enumerate_event(coin(), tail_event(0.8), 10, projection=traced)
        mc = monte_carlo_event(coin(), tail_event(0.8), 10, 100, projection=traced)
        for report in (exact, mc):
            out = report.to_json()
            assert set(out) == self._keys(report)
            assert out["method"] == report.method.value
            assert set(out["projection"]) == self._keys(report.projection) - {"model"}
            assert out["projection"]["trace"][0] == dataclasses.asdict(
                report.projection.trace[0]
            )
        assert not {"hits", "trials", "wilson_low", "wilson_high"} & set(exact.to_json())
        untraced = enumerate_event(coin(), tail_event(0.8), 10).projection
        assert "trace" not in untraced.to_json()
        assert set(untraced.to_json()) == self._keys(untraced) - {"model"}
