"""Distribution types and the three information measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentlab import (
    ConstraintSet,
    DomainError,
    EmpiricalMeasure,
    FeatureSet,
    FiniteDistribution,
    InputError,
    ShapeMismatch,
    AlphabetMismatch,
    constraint_contains,
    cross_entropy,
    entropy,
    kl_divergence,
    mix,
    moments,
)
from maxentlab._rng import substream
from maxentlab.dist import constraint_mask


def dist(*probs):
    return FiniteDistribution([str(i) for i in range(len(probs))], probs)


class TestEntropy:
    def test_uniform_is_log_alphabet(self):
        assert entropy(FiniteDistribution.uniform("abcd")) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_point_mass_is_zero(self):
        assert entropy(FiniteDistribution.point_mass("abc", 1)) == 0.0

    def test_skewed_pair(self):
        # -0.75 log 0.75 - 0.25 log 0.25, evaluated directly
        assert entropy(dist(0.75, 0.25)) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )

    def test_never_exceeds_log_alphabet(self):
        for seed in range(50):
            rng = substream(seed, 1)
            k = int(rng.integers(2, 30))
            w = rng.random(k) + 1e-3
            p = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
            assert entropy(p) <= math.log(k) + 1e-12


class TestCrossEntropy:
    def test_self_cross_entropy_is_entropy(self):
        for seed in range(20):
            rng = substream(seed, 2)
            w = rng.random(5) + 0.01
            p = dist(*(w / w.sum()))
            assert cross_entropy(p, p) == pytest.approx(entropy(p), abs=1e-12)

    def test_point_mass_against_fair_coin(self):
        assert cross_entropy(dist(1, 0), dist(0.5, 0.5)) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_support_violation_is_infinite(self):
        assert cross_entropy(dist(1, 0), dist(0, 1)) == math.inf

    def test_dominates_entropy(self):
        rng = substream(3, 3)
        for _ in range(100):
            w1, w2 = rng.random(6) + 1e-3, rng.random(6) + 1e-3
            p, q = dist(*(w1 / w1.sum())), dist(*(w2 / w2.sum()))
            assert cross_entropy(p, q) >= entropy(p) - 1e-12

    def test_alphabet_mismatch(self):
        p = FiniteDistribution("ab", [0.5, 0.5])
        q = FiniteDistribution("ac", [0.5, 0.5])
        with pytest.raises(AlphabetMismatch):
            cross_entropy(p, q)


class TestKLDivergence:
    def test_identity_is_zero(self):
        p = dist(0.3, 0.3, 0.4)
        assert kl_divergence(p, p) == 0.0

    def test_skewed_vs_fair(self):
        assert kl_divergence(dist(0.75, 0.25), dist(0.5, 0.5)) == pytest.approx(
            0.13081203594113697, abs=1e-12
        )

    def test_support_violation_is_infinite(self):
        assert kl_divergence(dist(1, 0), dist(0, 1)) == math.inf

    def test_gibbs_inequality_on_random_pairs(self):
        # Non-negativity over 1000 seeded pairs; equality only at equality.
        rng = substream(0, 4)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            w1 = rng.random(k) + 1e-6
            w2 = rng.random(k) + 1e-6
            p = FiniteDistribution([str(i) for i in range(k)], w1 / w1.sum())
            q = FiniteDistribution([str(i) for i in range(k)], w2 / w2.sum())
            d = kl_divergence(q, p)
            assert d >= 0.0
            if d <= 1e-12:
                assert np.max(np.abs(p.probs - q.probs)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_chain_identity(self, seed):
        # D(P||Q) = H(P,Q) - H(P) whenever finite.
        rng = substream(seed, 5)
        k = int(rng.integers(2, 10))
        w1 = rng.random(k) + 1e-4
        w2 = rng.random(k) + 1e-4
        p = FiniteDistribution([str(i) for i in range(k)], w1 / w1.sum())
        q = FiniteDistribution([str(i) for i in range(k)], w2 / w2.sum())
        lhs = kl_divergence(p, q)
        rhs = cross_entropy(p, q) - entropy(p)
        assert abs(lhs - rhs) <= 1e-10


class TestMoments:
    def test_uniform_mean(self):
        f = FeatureSet(["x"], [[0.0, 1.0, 2.0]])
        assert moments(FiniteDistribution.uniform("abc"), f)[0] == pytest.approx(1.0)

    def test_point_mass_reads_column(self):
        f = FeatureSet(["a", "b"], [[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]])
        got = moments(FiniteDistribution.point_mass("xyz", 2), f)
        np.testing.assert_allclose(got, [3.0, 1.0])

    def test_bernoulli_mean(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        assert moments(dist(0.2, 0.8), f)[0] == pytest.approx(0.8)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_linearity_under_mixing(self, seed, w):
        rng = substream(seed, 6)
        k, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        f = FeatureSet([f"f{i}" for i in range(d)], rng.normal(size=(d, k)))
        w1 = rng.random(k) + 1e-4
        w2 = rng.random(k) + 1e-4
        p = FiniteDistribution([str(i) for i in range(k)], w1 / w1.sum())
        q = FiniteDistribution([str(i) for i in range(k)], w2 / w2.sum())
        lhs = moments(mix(p, q, w), f)
        rhs = w * moments(p, f) + (1 - w) * moments(q, f)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        with pytest.raises(ShapeMismatch):
            moments(dist(0.2, 0.3, 0.5), f)


class TestMembership:
    def test_empty_constraint_set_contains_everything(self):
        a = ConstraintSet.equalities(FeatureSet.empty(3), [])
        assert constraint_contains(a, dist(0.2, 0.3, 0.5))

    def test_uniform_satisfies_symmetric_equality(self):
        f = FeatureSet(["x"], [[0.0, 1.0, 2.0]])
        a = ConstraintSet.equalities(f, [1.0])
        assert constraint_contains(a, FiniteDistribution.uniform("abc"), 1e-9)

    def test_one_sided_violation(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        a = ConstraintSet(f, ["ge"], [0.8])
        assert not constraint_contains(a, dist(0.5, 0.5))
        assert constraint_contains(a, dist(0.1, 0.9))

    def test_negative_tolerance_rejected(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        a = ConstraintSet(f, ["ge"], [0.8])
        with pytest.raises(DomainError):
            constraint_contains(a, dist(0.1, 0.9), -1e-9)
        with pytest.raises(DomainError):
            constraint_mask(a, np.zeros((1, 4)), -1e-9)

    def test_mask_agrees_with_per_constraint_rule(self):
        # Values on, just inside and just outside each slack edge, and NaN.
        tol = 1e-3
        f = FeatureSet(["a", "b", "c"], np.zeros((3, 2)))
        a = ConstraintSet(f, ["eq", "ge", "le"], [0.5, -1.0, 2.0])
        offsets = np.array([0.0, tol, -tol, 2 * tol, -2 * tol, 0.5 * tol, math.nan])
        grid = np.array(np.meshgrid(offsets, offsets, offsets)).reshape(3, -1)
        values = a.targets[:, None] + grid
        diff = values - a.targets[:, None]
        want = (np.abs(diff[0]) <= tol) & (diff[1] >= -tol) & (diff[2] <= tol)
        got = constraint_mask(a, values, tol)
        assert got.dtype == bool and got.shape == (values.shape[1],)
        np.testing.assert_array_equal(got, want)
        for j in range(values.shape[1]):
            q = values[:, j]
            if np.isnan(q).any():
                continue
            # one column through the scalar entry point
            f1 = FeatureSet(["a", "b", "c"], np.tile(q[:, None], (1, 2)))
            a1 = ConstraintSet(f1, a.kinds, a.targets)
            assert constraint_contains(a1, dist(0.5, 0.5), tol) == want[j]

    def test_mask_of_empty_constraint_set_is_all_true(self):
        a = ConstraintSet.equalities(FeatureSet.empty(3), [])
        assert constraint_mask(a, np.zeros((0, 5))).tolist() == [True] * 5


class TestConstruction:
    def test_renormalizes_small_deviation(self):
        p = dist(0.5, 0.5 + 5e-10)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_deviation(self):
        with pytest.raises(InputError):
            dist(0.5, 0.6)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            dist(-0.1, 1.1)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InputError):
            FiniteDistribution(["a", "a"], [0.5, 0.5])

    def test_probs_are_immutable(self):
        p = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_log_domain_consistency(self):
        p = dist(0.25, 0.75)
        np.testing.assert_allclose(np.exp(p.log_probs), p.probs, rtol=1e-15)

    def test_zero_prob_gets_minus_inf_log(self):
        p = dist(1.0, 0.0)
        assert p.log_probs[1] == -math.inf

    def test_validated_labels_are_reused(self):
        p = FiniteDistribution([1, "b", 3.5], [0.2, 0.3, 0.5])
        assert p.outcomes == ("1", "b", "3.5")
        q = FiniteDistribution(p.outcomes, [0.5, 0.25, 0.25])
        assert q.outcomes is p.outcomes
        assert mix(p, q, 0.5).outcomes is p.outcomes

    @pytest.mark.parametrize(
        "probs, error",
        [
            ([0.5, math.nan, 0.5], InputError),
            ([-0.1, 0.6, 0.5], InputError),
            ([0.5, 0.5, 0.5], InputError),
            ([1.0, 0.0], ShapeMismatch),
        ],
    )
    def test_reused_labels_keep_every_numeric_check(self, probs, error):
        p = FiniteDistribution(["a", "b", "c"], [0.2, 0.3, 0.5])
        with pytest.raises(error):
            FiniteDistribution(p.outcomes, probs)

    def test_normalization_always_within_1e12(self):
        rng = substream(9, 7)
        for _ in range(200):
            k = int(rng.integers(2, 50))
            w = rng.random(k)
            p = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
            assert abs(p.probs.sum() - 1.0) <= 1e-12


class TestEmpiricalMeasure:
    def test_counts_to_distribution_is_exact(self):
        m = EmpiricalMeasure([2, 3, 5])
        assert m.n == 10
        np.testing.assert_array_equal(m.to_distribution().probs, [0.2, 0.3, 0.5])

    def test_rejects_zero_total(self):
        with pytest.raises(InputError):
            EmpiricalMeasure([0, 0])

    def test_total_at_the_sample_size_limit(self):
        m = EmpiricalMeasure([2**62, 2**62 - 1])
        assert m.n == 2**63 - 1 and isinstance(m.n, int)

    @pytest.mark.parametrize(
        "counts",
        [
            [2**63 - 1, 1],
            [2**62, 2**62],
            [2**63 - 1, 2**63 - 1, 3],
            [2**63, 0],
            np.array([2**63, 2**63], dtype=np.uint64),
            [2**64, 1],
            [1e19, 1.0],
        ],
        ids=[
            "limit-plus-one",
            "two-halves",
            "wraps-to-one",
            "one-count-past",
            "uint64",
            "object",
            "float",
        ],
    )
    def test_rejects_a_total_past_the_sample_size_limit(self, counts):
        # An int64 sum would wrap: to -2**63 (the first two) or to 1; an
        # int64 cast would make the single counts past the limit negative.
        with pytest.raises(InputError, match="at most 2\\*\\*63 - 1"):
            EmpiricalMeasure(counts)

    def test_rejects_negative_counts(self):
        with pytest.raises(InputError):
            EmpiricalMeasure([3, -1])

    @pytest.mark.parametrize("bad", [0.5, math.nan, math.inf])
    def test_rejects_counts_that_are_not_integers(self, bad):
        with pytest.raises(InputError, match="counts must be integers"):
            EmpiricalMeasure([2.0, bad])

    def test_from_labels(self):
        m = EmpiricalMeasure.from_labels(["a", "b"], ["a", "b", "b", "b"])
        np.testing.assert_array_equal(m.counts, [1, 3])

    def test_from_labels_rejects_unknown(self):
        with pytest.raises(InputError):
            EmpiricalMeasure.from_labels(["a", "b"], ["a", "z"])

    def test_from_labels_names_the_first_unknown_label(self):
        labels = ["zeta", "a", "alpha", "alpha", "alpha", "zeta"]
        with pytest.raises(InputError, match="'zeta'"):
            EmpiricalMeasure.from_labels(["a", "b"], labels)

    def test_from_labels_matches_bincount_at_5e4_outcomes(self):
        # The advertised alphabet size, a skewed draw (many outcomes never
        # seen) and outcomes listed in shuffled order.
        k, n = 50_000, 500_000
        rng = substream(25, 0)
        outcomes = [f"o{j}" for j in rng.permutation(k)]
        drawn = rng.choice(k, size=n, p=rng.dirichlet(np.full(k, 0.2)))
        m = EmpiricalMeasure.from_labels(outcomes, [outcomes[j] for j in drawn])
        expected = np.bincount(drawn, minlength=k)
        assert (expected == 0).sum() > 1000
        assert m.counts.dtype == np.int64
        np.testing.assert_array_equal(m.counts, expected)
        assert m.n == n

    def test_from_labels_matches_through_str(self):
        m = EmpiricalMeasure.from_labels([0, 1, 2], [1, "2", np.int64(1), "0", 2])
        np.testing.assert_array_equal(m.counts, [1, 2, 2])
        # 1, 1.0 and True are equal (one dict key) but are three labels.
        outcomes = ["1", "1.0", "True", "x"]
        m = EmpiricalMeasure.from_labels(outcomes, [1, 1.0, True, 1.0, "1"])
        np.testing.assert_array_equal(m.counts, [2, 2, 1, 0])
        m = EmpiricalMeasure.from_labels(outcomes, (x for x in [1, 1.0, True]))
        np.testing.assert_array_equal(m.counts, [1, 1, 1, 0])
        with pytest.raises(InputError, match="'1.0'"):
            EmpiricalMeasure.from_labels(["1", "True"], [True, 1, 1.0])


class TestJsonRoundTrips:
    def test_distribution(self):
        p = dist(0.25, 0.75)
        q = FiniteDistribution.from_json(p.to_json())
        assert q.outcomes == p.outcomes
        np.testing.assert_array_equal(q.probs, p.probs)

    def test_featureset(self):
        f = FeatureSet(["a", "b"], [[1, 2, 3], [4, 5, 6]])
        g = FeatureSet.from_json(f.to_json())
        np.testing.assert_array_equal(g.matrix, f.matrix)

    def test_constraintset(self):
        f = FeatureSet(["x"], [[0.0, 1.0]])
        a = ConstraintSet(f, ["ge"], [0.8])
        b = ConstraintSet.from_json(a.to_json())
        assert b.kinds == a.kinds
        np.testing.assert_array_equal(b.targets, a.targets)

    def test_empirical_measure(self):
        m = EmpiricalMeasure([1, 2])
        assert EmpiricalMeasure.from_json(m.to_json()).n == 3

    @pytest.mark.parametrize(
        "cls, obj, field",
        [
            (
                FiniteDistribution,
                {"outcomes": ["a", "b"], "probs": [True, 0.0]},
                "probs",
            ),
            (
                FeatureSet,
                {"names": ["u", "v"], "matrix": [[0.5, 1.0], [2.0, False]]},
                "feature matrix",
            ),
            (
                ConstraintSet,
                {
                    "kinds": ["ge"],
                    "targets": [False],
                    "featureset": {"names": ["x"], "matrix": [[0.0, 1.0]]},
                },
                "constraint targets",
            ),
            (EmpiricalMeasure, {"counts": [True, 2]}, "counts"),
        ],
        ids=["probs", "nested-matrix", "targets", "counts"],
    )
    def test_booleans_are_not_numbers(self, cls, obj, field):
        # numpy would read true and false as 1 and 0.
        with pytest.raises(InputError, match=f"{field} must be numbers"):
            cls.from_json(obj)

    def test_missing_field_diagnostic(self):
        with pytest.raises(InputError, match="probs"):
            FiniteDistribution.from_json({"outcomes": ["a"]})
