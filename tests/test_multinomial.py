"""Histogram log-probabilities, Stirling approximations, and the accuracy
experiment."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from maxentlab import (
    DomainError,
    EmpiricalMeasure,
    FiniteDistribution,
    StirlingOrder,
    describe_histogram,
    entropy,
    kl_divergence,
    log_histogram_prob,
    log_multinomial,
    stirling_log_multinomial,
)
from maxentlab.multinomial import PriorMode, entropy_approx_experiment, experiment_csv
from maxentlab._rng import substream

from oracles import (
    dirichlet1_exact_by_weights,
    exact_histogram_prob,
    exact_log_multinomial,
    iter_compositions,
    log_fraction,
    log_likelihood_rows_and_columns,
    stirling_by_caller,
)


def dist(*probs):
    return FiniteDistribution([str(i) for i in range(len(probs))], probs)


class TestLogMultinomial:
    def test_single_bin_arrangement(self):
        assert log_multinomial(EmpiricalMeasure([7, 0, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_two_arrangements(self):
        assert log_multinomial(EmpiricalMeasure([1, 1])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_2_3_5(self):
        # 10! / (2! 3! 5!) = 2520
        assert log_multinomial(EmpiricalMeasure([2, 3, 5])) == pytest.approx(
            math.log(2520), abs=1e-12
        )

    def test_against_big_integer_oracle(self):
        rng = substream(0, 10)
        for _ in range(200):
            parts = int(rng.integers(1, 6))
            counts = rng.integers(0, 15, size=parts)
            if counts.sum() == 0:
                counts[0] = 1
            got = log_multinomial(EmpiricalMeasure(counts))
            want = exact_log_multinomial(list(counts))
            assert got == pytest.approx(want, abs=1e-9)

    def test_table_bit_equal_to_gammaln_per_count(self):
        # The shared log-factorial table holds gammaln's values in the
        # order gammaln(c + 1) gives them, so every sum has the same bits,
        # for one count vector and for a batch of histograms at one n.
        from scipy.special import gammaln

        from maxentlab.multinomial import _log_factorials, _log_multinomial
        from maxentlab.sanov import compositions

        rng = substream(1, 10)
        for _ in range(200):
            parts = int(rng.integers(1, 5000))
            n = int(rng.integers(1, 400_000))
            counts = rng.multinomial(n, np.ones(parts) / parts)
            want = float(gammaln(n + 1) - gammaln(counts + 1).sum())
            assert _log_multinomial(counts, n).hex() == want.hex()
        comps = compositions(12, 4, 10_000)
        table = _log_factorials(12)
        np.testing.assert_array_equal(
            table[12] - table[comps].sum(axis=1),
            gammaln(13) - gammaln(comps + 1).sum(axis=1),
        )

    def test_table_rows_bit_equal_to_gammaln_per_count(self):
        # A table of histograms gets one coefficient per row, in both
        # branches: the log-factorial table (n = 999 <= the number of
        # counts) and gammaln per count (one row of D = 1 at n = 5).
        from scipy.special import gammaln

        from maxentlab.multinomial import _log_multinomial
        from maxentlab.sanov import compositions

        for n, parts in ((999, 3), (25, 5), (5, 1)):
            comps = compositions(n, parts, 10**6)
            want = gammaln(n + 1) - gammaln(comps + 1).sum(axis=1)
            np.testing.assert_array_equal(_log_multinomial(comps, n), want)
        # Counts of up to 2**62 take the per-count branch, which adds the 1
        # in uint64: the same float as int64's c + 1 wherever that fits.
        n = 2**62
        first = substream(1, 11).integers(2**50, n - 2**50, size=1000)
        rows = np.stack([first, n - first], axis=1)
        want = gammaln(n + 1) - gammaln(rows + 1).sum(axis=1)
        np.testing.assert_array_equal(_log_multinomial(rows, n), want)

    def test_large_counts_skip_the_table(self):
        # Past max(c) = len(c) the counts go to gammaln directly: a table up
        # to 1.2e7 would peak at ~210 MB (arange, its float copy, the table).
        from scipy.special import gammaln

        from maxentlab.multinomial import _log_multinomial

        n = 20_000_000
        counts = np.array([12_345_678, n - 12_345_678])
        tracemalloc.start()
        try:
            got = _log_multinomial(counts, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        want = float(gammaln(n + 1) - gammaln(counts + 1).sum())
        assert got.hex() == want.hex()

    def test_single_count_at_the_sample_size_limit(self):
        # One count of 2**63 - 1: in int64 its c + 1 would wrap to -2**63,
        # whose log-factorial is inf.
        m = EmpiricalMeasure([2**63 - 1, 0])
        assert log_multinomial(m) == 0.0
        rep = describe_histogram(m, dist(0.5, 0.5))
        assert rep.log_multinomial == 0.0 and rep.stirling_zeroth == 0.0
        assert rep.stirling_first_correction is None


class TestLogHistogramProb:
    def test_fair_coin_one_one(self):
        assert log_histogram_prob(EmpiricalMeasure([1, 1]), dist(0.5, 0.5)) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_single_microstate(self):
        assert log_histogram_prob(EmpiricalMeasure([10, 0]), dist(0.5, 0.5)) == pytest.approx(
            10 * math.log(0.5), abs=1e-12
        )

    def test_2_3_5_rational(self):
        # log(2520 * 0.2^2 * 0.3^3 * 0.5^5), frozen from the exact
        # rational oracle
        got = log_histogram_prob(EmpiricalMeasure([2, 3, 5]), dist(0.2, 0.3, 0.5))
        assert got == pytest.approx(-2.4645159601402655, abs=1e-10)

    def test_unsupported_count_is_minus_inf(self):
        assert log_histogram_prob(EmpiricalMeasure([1, 1]), dist(1.0, 0.0)) == -math.inf

    def test_matches_multinomial_minus_cross_entropy(self):
        rng = substream(1, 11)
        for _ in range(100):
            parts = int(rng.integers(2, 5))
            counts = rng.integers(0, 12, size=parts)
            if counts.sum() == 0:
                counts[0] = 1
            w = rng.random(parts) + 0.05
            p = dist(*(w / w.sum()))
            m = EmpiricalMeasure(counts)
            q = m.to_distribution(p.outcomes)
            lhs = log_histogram_prob(m, p)
            rhs = log_multinomial(m) - m.n * (kl_divergence(q, p) + entropy(q))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_exactness_against_rational_oracle(self):
        # All histograms, n <= 30 in steps, D <= 5, rational sampling
        # distributions; the oracle is exact big-integer arithmetic.
        rationals = {
            2: [Fraction(3, 10), Fraction(7, 10)],
            3: [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)],
            4: [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)],
            5: [
                Fraction(1, 10),
                Fraction(1, 10),
                Fraction(1, 5),
                Fraction(3, 10),
                Fraction(3, 10),
            ],
        }
        for parts, probs in rationals.items():
            p = dist(*(float(x) for x in probs))
            for n in (1, 7, 30):
                for counts in iter_compositions(n, parts):
                    got = log_histogram_prob(EmpiricalMeasure(counts), p)
                    want = log_fraction(exact_histogram_prob(counts, probs))
                    assert got == pytest.approx(want, abs=1e-9)

    def test_total_probability_is_one(self):
        # Sum over all histograms of exp(log prob) == 1 for small n, D.
        rng = substream(2, 12)
        for parts, n in [(2, 12), (3, 9), (4, 7)]:
            w = rng.random(parts) + 0.1
            p = dist(*(w / w.sum()))
            total = sum(
                math.exp(log_histogram_prob(EmpiricalMeasure(c), p))
                for c in iter_compositions(n, parts)
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def seeded_prior(kind: str, seed: int) -> FiniteDistribution:
    """A prior over 1-8 outcomes: full support, some zero-mass outcomes (at
    least one left), or all mass on one outcome."""
    rng = substream(seed, 13)
    parts = int(rng.integers(1, 9))
    w = rng.random(parts) + 0.01
    if kind == "zero-mass":
        w[rng.random(parts) < 0.4] = 0.0
        w[int(rng.integers(parts))] += 0.5
    elif kind == "one-outcome":
        w = np.zeros(parts)
        w[int(rng.integers(parts))] = 1.0
    return dist(*(w / w.sum()))


class TestLogLikelihood:
    @pytest.mark.parametrize("kind", ["full", "zero-mass", "one-outcome"])
    def test_bit_equal_to_rows_and_columns_copy(self, kind):
        # The table is scored with no copy of its rows; every row keeps the
        # bits of the earlier product over the supported rows and columns,
        # on the whole table and on a subset of its rows.
        from maxentlab.multinomial import _log_likelihood
        from maxentlab.sanov import compositions

        for seed in range(100):
            p = seeded_prior(kind, seed)
            rng = substream(seed, 14)
            counts = compositions(int(rng.integers(0, 13)), len(p))
            subset = counts[rng.random(counts.shape[0]) < 0.3]
            for table in (counts, subset):
                got = _log_likelihood(table, p)
                want = log_likelihood_rows_and_columns(table, p)
                assert np.array_equal(got, want), (kind, seed)


class TestStirling:
    def test_zeroth_one_one(self):
        assert stirling_log_multinomial(
            EmpiricalMeasure([1, 1]), StirlingOrder.ZEROTH
        ) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_first_one_one(self):
        # 2 log 2 - 0.5 log pi
        assert stirling_log_multinomial(
            EmpiricalMeasure([1, 1]), StirlingOrder.FIRST
        ) == pytest.approx(0.8139294181951906, abs=1e-12)

    def test_zeroth_degenerate_histogram(self):
        assert stirling_log_multinomial(
            EmpiricalMeasure([9, 0, 0]), StirlingOrder.ZEROTH
        ) == pytest.approx(0.0, abs=1e-12)

    def test_first_rejects_zero_counts(self):
        with pytest.raises(DomainError):
            stirling_log_multinomial(EmpiricalMeasure([3, 0]), StirlingOrder.FIRST)

    def test_first_order_dominates_zeroth_on_full_support(self):
        # At n >= 5 D the first-order estimate loses to the zeroth-order
        # one in well under 1% of seeded trials.
        rng = substream(3, 13)
        losses = 0
        trials = 500
        for _ in range(trials):
            parts = int(rng.integers(2, 6))
            n = 5 * parts * int(rng.integers(1, 8))
            w = rng.random(parts) + 0.2
            counts = rng.multinomial(n, w / w.sum())
            while np.any(counts == 0):
                counts = rng.multinomial(n, w / w.sum())
            m = EmpiricalMeasure(counts)
            exact = log_multinomial(m)
            e0 = abs(exact - stirling_log_multinomial(m, StirlingOrder.ZEROTH))
            e1 = abs(exact - stirling_log_multinomial(m, StirlingOrder.FIRST))
            if e0 < e1:
                losses += 1
        assert losses / trials < 0.01

    def test_identity_decomposition(self):
        # (1/n) log prob + D(Q||P) - (1/n)(log multinomial - n H(Q)) == 0
        rng = substream(4, 14)
        for _ in range(100):
            parts = int(rng.integers(2, 5))
            counts = rng.integers(0, 20, size=parts)
            if counts.sum() == 0:
                counts[0] = 3
            w = rng.random(parts) + 0.05
            p = dist(*(w / w.sum()))
            m = EmpiricalMeasure(counts)
            q = m.to_distribution(p.outcomes)
            n = m.n
            value = (
                log_histogram_prob(m, p) / n
                + kl_divergence(q, p)
                - (log_multinomial(m) - n * entropy(q)) / n
            )
            assert abs(value) <= 1e-10


_MAX_N = 2**63 - 1


def _same_bits(got, want) -> bool:
    return got is want if want is None else got.hex() == want.hex()


class TestStirlingTerms:
    """The approximation, the histogram report and the experiment cell
    read one Stirling body; each keeps the bits of its own earlier
    assembly (``oracles.stirling_by_caller``)."""

    def test_approximation_and_report_keep_their_bits(self):
        from maxentlab.multinomial import _uniform_composition

        rng = substream(5, 15)
        cases = 0
        for parts in (2, 3, 8, 50, 5000, 50_000):
            p = dist(*np.full(parts, 1.0 / parts))
            grid = {1, max(parts - 2, 1), parts, 7 * parts, 10**6, 2**40, _MAX_N}
            for n in sorted(grid):
                vectors = [_uniform_composition(rng, n, parts)]  # zeros while n < D
                if n > parts:  # every count positive
                    vectors.append(_uniform_composition(rng, n - parts, parts) + 1)
                elif n == parts:
                    vectors.append(np.ones(parts, dtype=np.int64))
                for c in vectors:
                    want = stirling_by_caller(c, n)
                    m = EmpiricalMeasure(c)
                    assert m.n == n
                    zeroth = stirling_log_multinomial(m, StirlingOrder.ZEROTH)
                    assert _same_bits(zeroth, want["stirling_zeroth"])
                    if want["stirling_first"] is None:
                        with pytest.raises(DomainError):
                            stirling_log_multinomial(m, StirlingOrder.FIRST)
                    else:
                        first = stirling_log_multinomial(m, StirlingOrder.FIRST)
                        assert _same_bits(first, want["stirling_first"])
                    rep = describe_histogram(m, p)
                    assert _same_bits(rep.stirling_zeroth, want["describe_zeroth"])
                    assert _same_bits(
                        rep.stirling_first_correction, want["describe_correction"]
                    )
                    cases += 1
        assert cases > 60

    @pytest.mark.parametrize(
        "mode, parts, n",
        [
            ("dirichlet1", 2, _MAX_N),
            ("dirichlet1", 3, _MAX_N),
            ("uniform-orthant", 2, _MAX_N),
            ("uniform-orthant", 3, _MAX_N),
            ("dirichlet1", 50, 20),
            ("uniform-orthant", 50, 2000),
            ("dirichlet1", 50_000, 100_000),
            ("uniform-orthant", 50_000, 1),
        ],
    )
    def test_experiment_cells_keep_their_bits(self, mode, parts, n):
        from maxentlab.multinomial import PriorMode, _draw_counts, _experiment_cell

        mode = PriorMode(mode)
        for idx in range(4):
            row = _experiment_cell(parts, n, idx, mode, 23, idx)
            counts = _draw_counts(substream(23, idx), mode, n, parts)
            want = stirling_by_caller(counts, n)
            assert _same_bits(row.zeroth, want["cell_zeroth"])
            assert _same_bits(row.first, want["cell_first"])
            assert row.skipped_first is want["cell_skipped"]


class TestDescribeHistogram:
    def test_fields_are_consistent(self):
        m = EmpiricalMeasure([2, 3, 5])
        p = dist(0.2, 0.3, 0.5)
        rep = describe_histogram(m, p)
        assert rep.exact_log_prob == pytest.approx(
            rep.log_multinomial + float(np.dot(m.counts, np.log(p.probs))), abs=1e-10
        )
        assert rep.stirling_zeroth >= 0.0
        assert rep.n == 10 and rep.alphabet_size == 3

    def test_correction_none_on_partial_support(self):
        rep = describe_histogram(EmpiricalMeasure([4, 0]), dist(0.5, 0.5))
        assert rep.stirling_first_correction is None


class TestExperiment:
    def test_forced_tiny_case(self):
        for mode in PriorMode:
            rows = entropy_approx_experiment(2, [2], mode, trials=64, seed=7)
            hit = [r for r in rows if abs(r.zeroth - 2 * math.log(2)) < 1e-12]
            # counts (1,1) occur in some trial; there exact = log 2
            assert hit, f"no (1,1) histogram in 64 {mode.value} trials"
            assert hit[0].exact == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic_given_seed(self):
        a = entropy_approx_experiment(20, [50, 100], "dirichlet1", trials=5, seed=3)
        b = entropy_approx_experiment(20, [50, 100], "dirichlet1", trials=5, seed=3)
        assert a == b

    def test_thread_count_does_not_change_rows(self):
        # Both sides of the dirichlet1 draw: bars at n >= D - 1, stars below.
        for mode in PriorMode:
            a = entropy_approx_experiment(30, [20, 60, 120], mode, trials=6, seed=9)
            b = entropy_approx_experiment(
                30, [20, 60, 120], mode, trials=6, seed=9, threads=4
            )
            assert a == b

    def test_skip_flag_marks_partial_support(self):
        rows = entropy_approx_experiment(50, [60], "dirichlet1", trials=10, seed=1)
        for r in rows:
            assert r.skipped_first in (True, False)
            assert math.isfinite(r.first)

    def test_first_order_error_shrinks_with_n(self):
        rows = entropy_approx_experiment(
            100, [500, 1000, 2000], "dirichlet1", trials=10, seed=5
        )
        medians = []
        for n in (500, 1000, 2000):
            errs = sorted(abs(r.err_first) for r in rows if r.n == n)
            medians.append(errs[len(errs) // 2])
        assert medians[0] > medians[1] > medians[2]

    def test_csv_shape(self):
        rows = entropy_approx_experiment(5, [10], "dirichlet1", trials=2, seed=0)
        text = experiment_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "prior_mode,D,n,trial,exact,zeroth,first,err_zeroth,err_first,skipped_first"
        )
        assert len(lines) == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            entropy_approx_experiment(1, [5], "dirichlet1", trials=1, seed=0)
        with pytest.raises(DomainError):
            entropy_approx_experiment(3, [0], "dirichlet1", trials=1, seed=0)
        with pytest.raises(DomainError):
            entropy_approx_experiment(3, [5], "dirichlet1", trials=0, seed=0)
        with pytest.raises(DomainError, match="2\\*\\*63 - 1"):
            entropy_approx_experiment(3, [2**63], "dirichlet1", trials=1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_raises(self, seed):
        # Such a seed once ran as its value mod 2**64: 2**64 gave the rows
        # of seed 0.
        with pytest.raises(DomainError, match="seed"):
            entropy_approx_experiment(3, [5], "dirichlet1", trials=1, seed=seed)

    def test_largest_seed_runs(self):
        top = entropy_approx_experiment(3, [5], "dirichlet1", trials=2, seed=2**64 - 1)
        zero = entropy_approx_experiment(3, [5], "dirichlet1", trials=2, seed=0)
        assert experiment_csv(top) != experiment_csv(zero)


class TestDirichlet1Draw:
    """The ``dirichlet1`` histogram is drawn from its marginal law, uniform
    over the ``C(n + D - 1, D - 1)`` histograms of n draws over D
    outcomes."""

    @pytest.mark.parametrize(
        "parts, n",
        [
            # bars: n >= D - 1, the D - 1 bar positions are drawn
            (2, 5), (3, 4), (3, 2), (4, 3), (4, 9),
            # stars: n < D - 1, the n star positions are drawn
            (5, 1), (5, 3), (6, 2), (7, 4),
        ],
    )
    def test_law_is_uniform_over_histograms(self, parts, n):
        from scipy.stats import chisquare

        from maxentlab.multinomial import _uniform_composition

        index = {c: i for i, c in enumerate(iter_compositions(n, parts))}
        assert len(index) == math.comb(n + parts - 1, parts - 1)
        rng = substream(parts * 100 + n, 41)
        seen = np.zeros(len(index))
        for _ in range(60 * len(index)):
            counts = _uniform_composition(rng, n, parts)
            assert counts.dtype == np.int64 and counts.size == parts
            seen[index[tuple(int(c) for c in counts)]] += 1
        assert chisquare(seen).pvalue > 1e-3

    @pytest.mark.parametrize("parts, n", [(50, 200), (200, 50)])
    def test_exact_column_matches_the_two_step_draw(self, parts, n):
        # Two samples of the exact column: this experiment's cells and the
        # two-step draw (Dirichlet weights, then a multinomial histogram) on
        # other seeds.  A row is a function of the counts, so equal laws of
        # the counts give equal laws of the column.
        from scipy.stats import ks_2samp

        trials = 600
        rows = entropy_approx_experiment(parts, [n], "dirichlet1", trials=trials, seed=8)
        two_step = [dirichlet1_exact_by_weights(parts, n, 9, i) for i in range(trials)]
        assert ks_2samp([r.exact for r in rows], two_step).pvalue > 1e-3

    def test_uniform_subset_is_sorted_distinct_and_in_range(self):
        from maxentlab.multinomial import _uniform_subset

        rng = substream(3, 42)
        for size, population in ((1, 2), (3, 6), (999, 2000), (40, 2**64 - 1)):
            got = _uniform_subset(rng, size, population)
            assert got.dtype == np.uint64 and got.size == size
            assert np.all(got[1:] > got[:-1])
            assert int(got[-1]) < population
