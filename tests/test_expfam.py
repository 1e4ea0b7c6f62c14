"""Exponential-family analytics: partition function, moments, Fisher
information, energies, and their identities."""

import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from maxentlab import (
    ExpFamModel,
    FamilyMismatch,
    FeatureSet,
    FiniteDistribution,
    InputError,
    centered_cgf,
    cgf,
    cross_entropy,
    deviance,
    energies,
    entropy,
    fisher_information,
    free_energy,
    heat_capacity,
    internal_energy,
    kl_divergence,
    mean_parameters,
    model_cross_entropy,
    model_entropy,
)
from maxentlab.expfam import _logsumexp, _member, compute_log_partition
from maxentlab._rng import substream

from oracles import member_objects

LOG4 = math.log(4.0)
# scipy 1.15 took the maximal terms out of the sum; earlier releases used a
# different formula, so only newer ones agree with the kernel to the bit.
SCIPY_SPLITS_MAX = tuple(map(int, scipy.__version__.split(".")[:2])) >= (1, 15)


@pytest.fixture
def bernoulli():
    """Uniform prior on {0,1} with f(x)=x at lambda = log 4: P_lam = Ber(0.8)."""
    prior = FiniteDistribution.uniform(["0", "1"])
    features = FeatureSet(["x"], [[0.0, 1.0]])
    return ExpFamModel(prior, features, [LOG4])


def random_model(seed, k_max=40, d_max=6, lam_scale=3.0):
    rng = substream(seed, 20)
    k = int(rng.integers(3, k_max + 1))
    d = int(rng.integers(1, d_max + 1))
    w = rng.random(k) + 0.05
    prior = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
    features = FeatureSet([f"f{i}" for i in range(d)], rng.normal(size=(d, k)))
    lam = rng.uniform(-lam_scale, lam_scale, d)
    return ExpFamModel(prior, features, lam), rng


class TestLogPartition:
    def test_zero_parameters_normalized_prior(self, bernoulli):
        assert bernoulli.with_lambda([0.0]).log_partition == pytest.approx(0.0, abs=1e-14)

    def test_bernoulli_closed_form(self, bernoulli):
        assert bernoulli.log_partition == pytest.approx(math.log(2.5), abs=1e-12)

    def test_shift_covariance(self):
        # Adding a constant c to a feature shifts A by lambda * c.
        m, rng = random_model(11)
        c = 1.7
        shifted = np.array(m.features.matrix)
        shifted[0] += c
        m2 = ExpFamModel(m.prior, FeatureSet(m.features.names, shifted), m.lam)
        assert m2.log_partition == pytest.approx(
            m.log_partition + m.lam[0] * c, abs=1e-10
        )

    def test_member_distribution_normalized_at_extreme_parameters(self):
        rng = substream(5, 21)
        for _ in range(20):
            k = int(rng.integers(3, 30))
            w = rng.random(k) + 0.01
            prior = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
            f = FeatureSet(["f"], rng.normal(size=(1, k)))
            lam = rng.choice([-50.0, 50.0], size=1)
            m = ExpFamModel(prior, f, lam)
            assert abs(m.to_distribution().probs.sum() - 1.0) <= 1e-12

    def test_member_distribution_built_once(self, bernoulli):
        assert bernoulli.to_distribution() is bernoulli.to_distribution()

    def test_convexity(self):
        rng = substream(6, 22)
        for _ in range(100):
            m, _ = random_model(int(rng.integers(0, 1 << 31)))
            lam1 = rng.uniform(-3, 3, m.dim)
            lam2 = rng.uniform(-3, 3, m.dim)
            w = float(rng.random())
            a_mix = compute_log_partition(
                m.prior, m.features, w * lam1 + (1 - w) * lam2
            )
            a1 = compute_log_partition(m.prior, m.features, lam1)
            a2 = compute_log_partition(m.prior, m.features, lam2)
            assert a_mix <= w * a1 + (1 - w) * a2 + 1e-12


def _assert_matches_scipy(a: np.ndarray) -> None:
    expected = float(logsumexp(a))
    if SCIPY_SPLITS_MAX:
        assert _logsumexp(a) == expected
    else:
        assert _logsumexp(a) == pytest.approx(expected, rel=1e-14, abs=1e-12)


class TestLogSumExpKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
    def test_short_vectors(self, values):
        _assert_matches_scipy(np.array(values))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 50_000),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
        ties=st.integers(0, 8),
        rounded=st.booleans(),
    )
    def test_long_vectors_with_ties(self, k, seed, log_scale, ties, rounded):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 10.0**log_scale, k).clip(-1e3, 1e3)
        if rounded:
            a = np.round(a)
        a[rng.integers(0, k, size=ties)] = a.max()
        _assert_matches_scipy(a)

    def test_single_term_is_exact(self):
        for x in (-1e3, -0.5, 0.0, 3.25, 1e3):
            assert _logsumexp(np.array([x])) == x


@st.composite
def _members(draw):
    """A prior with zero-mass outcomes, 0 to 4 features and ``|lam| <= 30``."""
    k = draw(st.integers(1, 30))
    d = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(k) + 0.01
    empty = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    empty[draw(st.integers(0, k - 1))] = False
    w[empty] = 0.0
    prior = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
    features = FeatureSet([f"f{i}" for i in range(d)], rng.normal(0.0, 2.0, (d, k)))
    lam = np.array(draw(st.lists(st.floats(-30.0, 30.0), min_size=d, max_size=d)))
    return prior, features, lam


class TestMemberKernel:
    @settings(max_examples=300, deadline=None)
    @given(member=_members())
    def test_bit_equal_to_object_path(self, member):
        prior, features, lam = member
        args = (prior.log_probs, prior.support, features.matrix[:, prior.support], lam)
        log_z, q = _member(*args)
        ref_z, ref_q = member_objects(*args)
        assert log_z.hex() == ref_z.hex()
        assert q.tobytes() == ref_q.tobytes()
        model = ExpFamModel(prior, features, lam)
        assert model.log_partition.hex() == ref_z.hex()
        assert model.to_distribution().probs.tobytes() == ref_q.tobytes()


class TestMeanParameters:
    def test_zero_parameters_give_prior_moments(self):
        m, _ = random_model(1)
        from maxentlab import moments

        np.testing.assert_allclose(
            mean_parameters(m.with_lambda(np.zeros(m.dim))),
            moments(m.prior, m.features),
            atol=1e-12,
        )

    def test_bernoulli(self, bernoulli):
        assert mean_parameters(bernoulli)[0] == pytest.approx(0.8, abs=1e-12)

    def test_symmetric_prior_odd_feature(self):
        prior = FiniteDistribution.uniform(["-1", "0", "1"])
        f = FeatureSet(["x"], [[-1.0, 0.0, 1.0]])
        m = ExpFamModel(prior, f, [0.0])
        assert mean_parameters(m)[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_difference_gradient(self):
        h = 1e-5
        for seed in range(100):
            m, _ = random_model(seed)
            grad = mean_parameters(m)
            for i in range(m.dim):
                e = np.zeros(m.dim)
                e[i] = h
                fd = (
                    compute_log_partition(m.prior, m.features, m.lam + e)
                    - compute_log_partition(m.prior, m.features, m.lam - e)
                ) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6


class TestFisherInformation:
    def test_bernoulli_variance(self, bernoulli):
        np.testing.assert_allclose(fisher_information(bernoulli), [[0.16]], atol=1e-12)

    def test_constant_feature_gives_zero_row(self):
        prior = FiniteDistribution.uniform(["a", "b", "c"])
        f = FeatureSet(["one", "x"], [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
        m = ExpFamModel(prior, f, [0.3, -0.2])
        info = fisher_information(m)
        np.testing.assert_allclose(info[0], 0.0, atol=1e-14)
        np.testing.assert_allclose(info[:, 0], 0.0, atol=1e-14)

    def test_duplicated_feature_is_rank_deficient(self):
        prior = FiniteDistribution.uniform(["a", "b", "c"])
        f = FeatureSet(["x", "x2"], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        m = ExpFamModel(prior, f, [0.4, 0.1])
        assert abs(np.linalg.det(fisher_information(m))) <= 1e-12

    def test_positive_semidefinite_and_symmetric(self):
        for seed in range(50):
            m, _ = random_model(seed)
            info = fisher_information(m)
            np.testing.assert_allclose(info, info.T, atol=1e-14)
            assert np.linalg.eigvalsh(info)[0] >= -1e-12

    def test_matches_finite_difference_hessian(self):
        h = 1e-4
        for seed in range(100):
            m, _ = random_model(seed)
            info = fisher_information(m)
            scale = max(1.0, float(np.max(np.abs(info))))
            for i in range(m.dim):
                e = np.zeros(m.dim)
                e[i] = h
                fd = (
                    mean_parameters(m.with_lambda(m.lam + e))
                    - mean_parameters(m.with_lambda(m.lam - e))
                ) / (2 * h)
                assert float(np.max(np.abs(fd - info[i]))) <= 1e-4 * scale


class TestEnergies:
    def test_zero_parameters_zero_energies(self):
        m, _ = random_model(2)
        m0 = m.with_lambda(np.zeros(m.dim))
        rep = energies(m0, m.prior)
        assert rep.internal_energy == 0.0
        assert rep.free_energy == pytest.approx(0.0, abs=1e-14)

    def test_own_free_energy_is_minus_log_partition(self, bernoulli):
        rep = energies(bernoulli, bernoulli.to_distribution())
        assert rep.free_energy == pytest.approx(-math.log(2.5), abs=1e-10)

    def test_equilibrium_internal_energy(self, bernoulli):
        # Distributions matching the constraint alpha have U = -lambda . alpha.
        p = FiniteDistribution(["0", "1"], [0.2, 0.8])
        assert internal_energy(bernoulli, p) == pytest.approx(-LOG4 * 0.8, abs=1e-12)

    def test_loss_energy_identity_uniform_prior(self):
        # H(P,P_lam) - H(Q,P_lam) = U(P) - U(Q) under a uniform carrier.
        rng = substream(7, 23)
        for seed in range(100):
            k = int(rng.integers(3, 30))
            d = int(rng.integers(1, 5))
            prior = FiniteDistribution.uniform([str(i) for i in range(k)])
            f = FeatureSet([f"f{i}" for i in range(d)], rng.normal(size=(d, k)))
            m = ExpFamModel(prior, f, rng.uniform(-3, 3, d))
            w1 = rng.random(k) + 1e-3
            w2 = rng.random(k) + 1e-3
            p = FiniteDistribution(prior.outcomes, w1 / w1.sum())
            q = FiniteDistribution(prior.outcomes, w2 / w2.sum())
            lhs = model_cross_entropy(m, p) - model_cross_entropy(m, q)
            rhs = internal_energy(m, p) - internal_energy(m, q)
            assert abs(lhs - rhs) <= 1e-10

    def test_loss_energy_identity_general_prior(self):
        # With a non-uniform carrier the loss difference carries the
        # prior cross-entropy difference alongside the energy difference.
        rng = substream(17, 23)
        for seed in range(100):
            m, _ = random_model(seed)
            k = len(m.prior)
            w1 = rng.random(k) + 1e-3
            w2 = rng.random(k) + 1e-3
            p = FiniteDistribution(m.prior.outcomes, w1 / w1.sum())
            q = FiniteDistribution(m.prior.outcomes, w2 / w2.sum())
            lhs = model_cross_entropy(m, p) - model_cross_entropy(m, q)
            rhs = (
                internal_energy(m, p)
                - internal_energy(m, q)
                + cross_entropy(p, m.prior)
                - cross_entropy(q, m.prior)
            )
            assert abs(lhs - rhs) <= 1e-10

    def test_regret_free_energy_identity(self):
        # D(P || P_lam) = F(P) - F(P_lam) for P supported on the prior.
        rng = substream(8, 24)
        for seed in range(100):
            m, _ = random_model(seed)
            k = len(m.prior)
            w = rng.random(k) + 1e-3
            p = FiniteDistribution(m.prior.outcomes, w / w.sum())
            p_lam = m.to_distribution()
            lhs = kl_divergence(p, p_lam)
            rhs = free_energy(m, p) - free_energy(m, p_lam)
            assert abs(lhs - rhs) <= 1e-10


class TestModelEntropy:
    def test_zero_parameters_give_prior_entropy(self):
        m, _ = random_model(3)
        m0 = m.with_lambda(np.zeros(m.dim))
        assert model_entropy(m0) == pytest.approx(entropy(m.prior), abs=1e-12)

    def test_featureless_model_is_its_prior(self):
        # With no features the general formula reduces to H(P0, P0) + A,
        # bit for bit.
        prior = FiniteDistribution(["a", "b", "c"], [0.2, 0.3, 0.5])
        m = ExpFamModel(prior, FeatureSet.empty(3), [])
        assert model_entropy(m) == cross_entropy(prior, prior) + m.log_partition

    def test_bernoulli_value(self, bernoulli):
        # log 2 - 0.8 log 4 + log 2.5
        assert model_entropy(bernoulli) == pytest.approx(0.5004024235381879, abs=1e-10)

    def test_point_mass_prior_stays_degenerate(self):
        prior = FiniteDistribution.point_mass(["a", "b"], 0)
        f = FeatureSet(["x"], [[0.0, 1.0]])
        for lam in (-3.0, 0.0, 2.5):
            assert model_entropy(ExpFamModel(prior, f, [lam])) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_agrees_with_direct_entropy(self):
        for seed in range(100):
            m, _ = random_model(seed)
            assert model_entropy(m) == pytest.approx(
                entropy(m.to_distribution()), abs=1e-10
            )


class TestModelCrossEntropy:
    def test_on_own_distribution_equals_entropy(self, bernoulli):
        assert model_cross_entropy(bernoulli, bernoulli.to_distribution()) == pytest.approx(
            model_entropy(bernoulli), abs=1e-10
        )

    def test_bernoulli_against_fair_coin(self, bernoulli):
        fair = FiniteDistribution.uniform(["0", "1"])
        assert model_cross_entropy(bernoulli, fair) == pytest.approx(
            0.916290731874155, abs=1e-10
        )

    def test_zero_parameters_give_prior_cross_entropy(self):
        m, rng = random_model(4)
        m0 = m.with_lambda(np.zeros(m.dim))
        k = len(m.prior)
        w = rng.random(k) + 1e-3
        p = FiniteDistribution(m.prior.outcomes, w / w.sum())
        assert model_cross_entropy(m0, p) == pytest.approx(
            cross_entropy(p, m.prior), abs=1e-12
        )

    def test_agrees_with_direct_cross_entropy(self):
        rng = substream(9, 25)
        for seed in range(50):
            m, _ = random_model(seed)
            k = len(m.prior)
            w = rng.random(k) + 1e-3
            p = FiniteDistribution(m.prior.outcomes, w / w.sum())
            assert model_cross_entropy(m, p) == pytest.approx(
                cross_entropy(p, m.to_distribution()), abs=1e-10
            )

    def test_infinite_outside_prior_support(self):
        prior = FiniteDistribution(["a", "b", "c"], [0.5, 0.5, 0.0])
        f = FeatureSet(["x"], [[0.0, 1.0, 2.0]])
        m = ExpFamModel(prior, f, [0.3])
        p = FiniteDistribution(["a", "b", "c"], [0.2, 0.3, 0.5])
        assert model_cross_entropy(m, p) == math.inf


class TestDeviance:
    def test_same_parameters_zero(self, bernoulli):
        assert deviance(bernoulli, bernoulli) == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_vs_fair(self, bernoulli):
        assert deviance(bernoulli, bernoulli.with_lambda([0.0])) == pytest.approx(
            0.1927447570217575, abs=1e-10
        )

    def test_asymmetric(self, bernoulli):
        a, b = bernoulli, bernoulli.with_lambda([-1.0])
        assert deviance(a, b) != pytest.approx(deviance(b, a), abs=1e-6)

    def test_matches_direct_kl(self):
        for seed in range(50):
            m, rng = random_model(seed)
            other = m.with_lambda(rng.uniform(-3, 3, m.dim))
            assert deviance(m, other) == pytest.approx(
                kl_divergence(m.to_distribution(), other.to_distribution()),
                abs=1e-10,
            )
            assert deviance(m, other) >= -1e-12

    def test_family_mismatch(self, bernoulli):
        other = ExpFamModel(
            FiniteDistribution(["0", "1"], [0.4, 0.6]), bernoulli.features, [0.0]
        )
        with pytest.raises(FamilyMismatch):
            deviance(bernoulli, other)


class TestCgf:
    def test_zero_offset(self, bernoulli):
        assert centered_cgf(bernoulli, [0.0]) == 0.0

    def test_bregman_equals_reverse_deviance(self, bernoulli):
        # Moving back to lambda = 0: the centered CGF equals the deviance
        # between the two members.
        got = centered_cgf(bernoulli, [-LOG4])
        assert got == pytest.approx(0.1927447570217573, abs=1e-10)

    def test_uncentered_form(self, bernoulli):
        assert cgf(bernoulli, [-LOG4]) == pytest.approx(-math.log(2.5), abs=1e-12)

    def test_nonnegative_by_convexity(self):
        for seed in range(50):
            m, rng = random_model(seed)
            theta = rng.uniform(-2, 2, m.dim)
            assert centered_cgf(m, theta) >= -1e-12

    def test_quadratic_limit(self, bernoulli):
        theta = 1e-3
        ratio = centered_cgf(bernoulli, [theta]) / (0.5 * 0.16 * theta**2)
        assert ratio == pytest.approx(1.0, abs=1e-3)


class TestHeatCapacity:
    def test_zero_parameter(self, bernoulli):
        hc = heat_capacity(bernoulli.with_lambda([0.0]), 0)
        assert hc.value == 0.0
        assert hc.temperature is None

    def test_bernoulli_value(self, bernoulli):
        hc = heat_capacity(bernoulli, 0)
        assert hc.value == pytest.approx(-0.30748992890764887, abs=1e-10)
        assert hc.temperature == pytest.approx(1.0 / LOG4, abs=1e-12)

    def test_constant_feature(self):
        prior = FiniteDistribution.uniform(["a", "b"])
        f = FeatureSet(["one"], [[1.0, 1.0]])
        assert heat_capacity(ExpFamModel(prior, f, [2.0]), 0).value == pytest.approx(
            0.0, abs=1e-14
        )

    def test_never_positive(self):
        for seed in range(50):
            m, _ = random_model(seed)
            for i in range(m.dim):
                assert heat_capacity(m, i).value <= 0.0

    def test_index_out_of_range(self, bernoulli):
        from maxentlab import DomainError

        with pytest.raises(DomainError):
            heat_capacity(bernoulli, 1)


class TestJson:
    def test_round_trip(self, bernoulli):
        again = ExpFamModel.from_json(bernoulli.to_json())
        assert again.log_partition == pytest.approx(bernoulli.log_partition, abs=1e-15)
        np.testing.assert_array_equal(again.lam, bernoulli.lam)

    @pytest.mark.parametrize("obj", [5, "prior features lambda"])
    def test_non_object_is_an_input_error(self, obj):
        # A string holding every key name passes a bare key-membership test.
        with pytest.raises(InputError, match="model: expected a JSON object"):
            ExpFamModel.from_json(obj)

    def test_missing_field_is_named(self, bernoulli):
        obj = bernoulli.to_json()
        del obj["lambda"]
        with pytest.raises(InputError, match="model: missing field 'lambda'"):
            ExpFamModel.from_json(obj)
