"""The identity diagnostics suite."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentlab import (
    ConstraintSet,
    ConstraintViolation,
    DomainError,
    ExpFamModel,
    FeatureSet,
    FiniteDistribution,
    approximation_error_entropy,
    bogoliubov,
    data_approximates_family,
    entropy,
    entropy_multiplicity_bound,
    enumerate_event,
    kl_divergence,
    moments,
    pretend_data_identity,
    project,
    pythagorean,
    robustness,
    run_identity_suite,
)
from maxentlab import identities as ident
from maxentlab.cli import main
from maxentlab.errors import EnergyMatchingError
from maxentlab.identities import random_instance, run_instance
from maxentlab._rng import substream
from maxentlab.jsonio import dump_json
from oracles import (
    match_scale_full_grid,
    object_path_identity_suite,
    upper_defect_objects,
)

LOG4 = math.log(4.0)


@pytest.fixture(scope="module")
def bernoulli_star():
    prior = FiniteDistribution.uniform(["0", "1"])
    features = FeatureSet(["x"], [[0.0, 1.0]])
    star = project(prior, ConstraintSet.equalities(features, [0.8]))
    return prior, features, star


@pytest.fixture(scope="module")
def suite_results():
    return run_identity_suite(100, seed=0)


class TestPythagorean:
    def test_data_equal_projection(self, bernoulli_star):
        _, _, star = bernoulli_star
        model = star.model.with_lambda([0.0])
        rep = pythagorean(star.model.to_distribution(), star, model)
        assert rep.passed
        assert rep.details["approximation_error"] == pytest.approx(0.0, abs=1e-12)
        assert rep.details["estimation_error"] == pytest.approx(
            rep.details["regret"], abs=1e-9
        )

    def test_model_equal_projection(self, bernoulli_star):
        prior, features, star = bernoulli_star
        # a member of the constraint set that is not the projection
        q = FiniteDistribution(["0", "1"], [0.2, 0.8])
        rep = pythagorean(q, star, star.model)
        assert rep.passed
        assert rep.details["estimation_error"] == pytest.approx(0.0, abs=1e-10)

    def test_rejects_nonmember(self, bernoulli_star):
        _, _, star = bernoulli_star
        with pytest.raises(ConstraintViolation):
            pythagorean(FiniteDistribution.uniform(["0", "1"]), star, star.model)


class TestRobustness:
    def test_q_equal_first_model(self, bernoulli_star):
        _, _, star = bernoulli_star
        a = star.model
        b = a.with_lambda([-0.7])
        rep = robustness(a.to_distribution(), a, b)
        assert rep.passed
        assert rep.lhs == pytest.approx(
            kl_divergence(a.to_distribution(), b.to_distribution()), abs=1e-10
        )

    def test_same_models_zero(self, bernoulli_star):
        _, _, star = bernoulli_star
        a = star.model
        rep = robustness(a.to_distribution(), a, a)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_rejects_moment_mismatch(self, bernoulli_star):
        _, _, star = bernoulli_star
        q = FiniteDistribution(["0", "1"], [0.5, 0.5])
        with pytest.raises(ConstraintViolation):
            robustness(q, star.model, star.model.with_lambda([0.0]))

    def test_featureless_models(self):
        # With no features every distribution meets the (empty) moments,
        # and both models are the prior.
        prior = FiniteDistribution(["0", "1", "2"], [0.2, 0.3, 0.5])
        a = ExpFamModel(prior, FeatureSet.empty(3), [])
        q = FiniteDistribution(["0", "1", "2"], [0.6, 0.3, 0.1])
        rep = robustness(q, a, a)
        assert rep.passed
        assert rep.lhs == rep.rhs == 0.0


class TestBogoliubov:
    def test_variational_equals_target(self, bernoulli_star):
        _, _, star = bernoulli_star
        upper, lower = bogoliubov(star.model, star.model)
        assert upper.passed and lower.passed
        assert upper.details["gap"] == pytest.approx(0.0, abs=1e-9)
        assert lower.details["gap"] == pytest.approx(0.0, abs=1e-9)

    def test_complement_feature_family(self, bernoulli_star):
        prior, _, star = bernoulli_star
        flipped = ExpFamModel(prior, FeatureSet(["1-x"], [[1.0, 0.0]]), [0.9])
        upper, lower = bogoliubov(star.model, flipped)
        assert upper.passed and lower.passed
        assert upper.details["gap"] >= -1e-10
        assert upper.details["gap"] == pytest.approx(upper.details["kl"], abs=1e-9)
        assert lower.details["gap"] <= 1e-10
        assert lower.details["gap"] == pytest.approx(-lower.details["kl"], abs=1e-9)

    def test_rejects_mismatched_priors(self, bernoulli_star):
        _, features, star = bernoulli_star
        other = ExpFamModel(
            FiniteDistribution(["0", "1"], [0.3, 0.7]), features, [0.5]
        )
        with pytest.raises(DomainError):
            bogoliubov(star.model, other)


class TestApproximationError:
    def test_data_equal_projection(self, bernoulli_star):
        _, _, star = bernoulli_star
        rep = approximation_error_entropy(star.model.to_distribution(), star)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)

    def test_uniform_prior_entropy_form(self, bernoulli_star):
        _, _, star = bernoulli_star
        q = FiniteDistribution(["0", "1"], [0.2, 0.8])
        rep = approximation_error_entropy(q, star)
        assert rep.passed
        assert rep.details["mode"] == "uniform-entropy"

    def test_projection_has_max_entropy_in_set(self):
        # H(P*) >= H(P) for member distributions under a uniform prior.
        rng = substream(0, 40)
        for _ in range(30):
            k = int(rng.integers(3, 10))
            outcomes = [str(i) for i in range(k)]
            prior = FiniteDistribution.uniform(outcomes)
            f = FeatureSet(["f"], rng.normal(size=(1, k)))
            w = rng.random(k) + 0.05
            q = FiniteDistribution(outcomes, w / w.sum())
            from maxentlab import moments

            star = project(prior, ConstraintSet.equalities(f, moments(q, f)))
            assert entropy(star.model.to_distribution()) >= entropy(q) - 1e-9

    def test_general_prior_mode_recorded(self):
        prior = FiniteDistribution(["a", "b", "c"], [0.5, 0.3, 0.2])
        f = FeatureSet(["f"], [[0.0, 1.0, 2.0]])
        q = FiniteDistribution(["a", "b", "c"], [0.3, 0.4, 0.3])
        from maxentlab import moments

        star = project(prior, ConstraintSet.equalities(f, moments(q, f)))
        rep = approximation_error_entropy(q, star)
        assert rep.passed
        assert rep.details["mode"] == "prior-relative"


class TestPretendData:
    def test_data_equal_projection(self, bernoulli_star):
        _, _, star = bernoulli_star
        rep = pretend_data_identity(
            star.model.to_distribution(), star, star.model.with_lambda([2.0])
        )
        assert rep.passed

    def test_zero_model_uniform_prior(self, bernoulli_star):
        # With lambda = 0 and a uniform prior both losses are log |X|.
        _, _, star = bernoulli_star
        q = FiniteDistribution(["0", "1"], [0.2, 0.8])
        rep = pretend_data_identity(q, star, star.model.with_lambda([0.0]))
        assert rep.passed
        assert rep.lhs == pytest.approx(math.log(2), abs=1e-12)


@pytest.fixture(scope="module")
def bernoulli_event():
    prior = FiniteDistribution.uniform(["0", "1"])
    features = FeatureSet(["x"], [[0.0, 1.0]])
    constraints = ConstraintSet(features, ["ge"], [0.8])
    star = project(prior, ConstraintSet.equalities(features, [0.8]))
    report = enumerate_event(prior, constraints, 10)
    return prior, star, report


class TestSanovCoupled:
    def test_multiplicity_bound_bernoulli(self, bernoulli_event):
        prior, star, report = bernoulli_event
        rep = entropy_multiplicity_bound(star, report)
        assert rep.passed
        assert rep.lhs == pytest.approx(-0.2906120114864304, abs=1e-10)
        assert rep.rhs == pytest.approx(-0.19274475702175742, abs=1e-9)

    def test_multiplicity_bound_rejects_nonuniform(self, bernoulli_event):
        _, star, report = bernoulli_event
        prior = FiniteDistribution(["0", "1"], [0.4, 0.6])
        bad_star = project(
            prior, ConstraintSet.equalities(star.model.features, [0.8])
        )
        with pytest.raises(DomainError):
            entropy_multiplicity_bound(bad_star, report)

    def test_sandwich_bernoulli(self, bernoulli_event):
        prior, star, report = bernoulli_event
        rep = data_approximates_family(star, prior, report)
        assert rep.passed
        assert rep.details["upper"] == pytest.approx(-0.1927447570217575, abs=1e-9)
        assert rep.details["lower"] == pytest.approx(-math.log(2), abs=1e-12)
        assert rep.details["sandwich_width"] == pytest.approx(
            entropy(star.model.to_distribution()), abs=1e-9
        )

    def test_full_event_bound_tight(self):
        prior = FiniteDistribution.uniform(["a", "b", "c"])
        constraints = ConstraintSet.equalities(FeatureSet.empty(3), [])
        star = project(prior, constraints)
        report = enumerate_event(prior, constraints, 6)
        rep = entropy_multiplicity_bound(star, report)
        assert rep.passed
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-10)

    def test_random_enumerable_instances(self):
        rng = substream(1, 41)
        done = 0
        for seed in range(200):
            if done >= 25:
                break
            k = int(rng.integers(2, 5))
            n = int(rng.integers(6, 13))
            outcomes = [str(i) for i in range(k)]
            prior = FiniteDistribution.uniform(outcomes)
            f = FeatureSet(["f"], rng.normal(size=(1, k)))
            lo, hi = float(f.matrix.min()), float(f.matrix.max())
            base = float(f.matrix[0] @ prior.probs)
            alpha = base + (hi - base) * float(rng.uniform(0.2, 0.8))
            constraints = ConstraintSet(f, ["ge"], [alpha])
            report = enumerate_event(prior, constraints, n)
            if report.empty_event or report.boundary_projection:
                continue
            star = report.projection
            bound = entropy_multiplicity_bound(star, report)
            sandwich = data_approximates_family(star, prior, report)
            assert bound.passed, (seed, bound)
            assert sandwich.passed, (seed, sandwich)
            done += 1
        assert done >= 25


class TestSuite:
    def test_hundred_instances_all_pass(self, suite_results):
        failures = [
            (desc.seed, rep.name)
            for desc, reports in suite_results
            for rep in reports
            if not rep.passed
        ]
        assert failures == []

    def test_residual_tolerances(self, suite_results):
        for _, reports in suite_results:
            for rep in reports:
                if rep.name in (
                    "pythagorean",
                    "robustness",
                    "approximation_error_entropy",
                    "pretend_data_identity",
                ):
                    assert abs(rep.residual) <= 1e-8
                if rep.name.startswith("bogoliubov"):
                    assert abs(rep.residual) <= 1e-9

    def test_reports_are_pure_data(self):
        instance = random_instance(17)
        before = instance.data.probs.copy()
        run_instance(instance)
        run_instance(instance)
        np.testing.assert_array_equal(instance.data.probs, before)

    def test_deterministic(self):
        a = random_instance(5)
        b = random_instance(5)
        np.testing.assert_array_equal(a.prior.probs, b.prior.probs)
        np.testing.assert_array_equal(a.model.lam, b.model.lam)

    @pytest.mark.parametrize("count, seed", [(1, -1), (1, 2**64), (2, 2**64 - 1)])
    def test_instance_seeds_outside_64_bits_raise(self, count, seed):
        # Instance i runs at seed + i; past 2**64 - 1 it once ran at that
        # seed mod 2**64 while its descriptor named the seed itself.
        with pytest.raises(DomainError, match="seed"):
            run_identity_suite(count, seed=seed)

    def test_bogoliubov_gap_signs(self, suite_results):
        for _, reports in suite_results:
            for rep in reports:
                if rep.name == "bogoliubov_upper":
                    assert rep.details["gap"] >= -1e-10
                if rep.name == "bogoliubov_lower":
                    assert rep.details["gap"] <= 1e-10


class TestHardSeeds:
    @pytest.mark.parametrize("seed", [241, 245, 533, 871, 1750, 1754598617])
    def test_target_redrawn_when_no_candidate_brackets(self, seed):
        # No variational candidate brackets the first target parameters of
        # these seeds; the instance redraws them instead of failing.
        reports = run_instance(random_instance(seed))
        assert all(r.passed for r in reports)


class TestIdentitySuiteWork:
    def test_scale_scan_matches_full_grid_reference(self, monkeypatch):
        # Every upper energy-matching objective the suite scans on
        # instances 0-119 (each candidate the lower condition lets through)
        # gets the same scale, or the same lack of one, from the
        # first-bracket scan as from the full-grid reference.
        scan = ident._match_scale
        checked = []

        def compared(objective):
            expected = match_scale_full_grid(objective)
            try:
                got = scan(objective)
            except EnergyMatchingError:
                assert expected is None
                checked.append(None)
                raise
            assert got == expected
            checked.append(got)
            return got

        monkeypatch.setattr(ident, "_match_scale", compared)
        for seed in range(120):
            random_instance(seed)
        assert len(checked) >= 200

    def test_one_bogoliubov_solve_per_attempt(self, monkeypatch, tmp_path):
        calls = []
        attempts = []
        solve = ident.bogoliubov
        make_features = ident.FeatureSet

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        def features(names, matrix):
            # Each variational candidate gets features named g0, g1, ...
            if names[0] == "g0":
                attempts.append(1)
            return make_features(names, matrix)

        monkeypatch.setattr(ident, "bogoliubov", counted)
        monkeypatch.setattr(ident, "FeatureSet", features)
        instance = random_instance(3)
        calls.clear()
        reports = run_instance(instance)
        assert calls == []
        fresh = solve(instance.model, instance.variational)
        assert [r.to_json() for r in reports[-2:]] == [r.to_json() for r in fresh]

        calls.clear()
        attempts.clear()
        out = tmp_path / "d.json"
        args = ["diagnose", "--random", "--instances", "3", "--output", str(out)]
        assert main(args) == 0
        assert len(calls) == len(attempts) > 3


_SCALE_GRID = np.geomspace(1e-3, 1e3, 61)


@st.composite
def _bogoliubov_pairs(draw):
    """A target and a variational model on one prior that may give some
    outcomes zero mass; the target may have no features."""
    k = draw(st.integers(2, 8))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=k, max_size=k
        ).filter(lambda w: sum(w) > 0)
    )
    prior = FiniteDistribution(
        [f"x{i}" for i in range(k)], np.array(weights) / sum(weights)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def family(d: int, name: str) -> ExpFamModel:
        features = FeatureSet(
            [f"{name}{i}" for i in range(d)], rng.normal(size=(d, k))
        )
        return ExpFamModel(prior, features, rng.uniform(-3.0, 3.0, d))

    target = family(draw(st.integers(0, 3)), "f")
    variational = family(draw(st.integers(1, 4)), "g")
    return target, variational


# Scales on the scan's grid, and between two neighbouring grid points.
_scales = st.one_of(
    st.sampled_from(_SCALE_GRID.tolist()),
    st.tuples(st.integers(0, 59), st.floats(0.0, 1.0)).map(
        lambda t: float(
            _SCALE_GRID[t[0]] * (_SCALE_GRID[t[0] + 1] / _SCALE_GRID[t[0]]) ** t[1]
        )
    ),
)


class TestArrayObjective:
    @settings(max_examples=300, deadline=None)
    @given(pair=_bogoliubov_pairs(), scales=st.lists(_scales, min_size=1, max_size=4))
    def test_upper_defect_bit_equal_to_object_path(self, pair, scales):
        target, variational = pair
        arrays = ident._upper_defect(target, variational)
        objects = upper_defect_objects(target, variational)
        for c in scales:
            for scale in (c, np.float64(c)):
                assert arrays(scale).hex() == objects(scale).hex(), c

    @settings(max_examples=300, deadline=None)
    @given(pair=_bogoliubov_pairs())
    def test_scan_matches_full_grid_reference(self, pair):
        objective = ident._upper_defect(*pair)
        try:
            got = ident._match_scale(objective)
        except EnergyMatchingError:
            got = None
        assert got == match_scale_full_grid(objective)

    @settings(max_examples=300, deadline=None)
    @given(pair=_bogoliubov_pairs())
    def test_lower_scale_matches_full_grid_reference(self, pair):
        # The closed-form lower scale against the full-grid scan of the
        # linear lower condition; the upper scan is stubbed to a scale, so
        # bogoliubov raises only on the lower condition.
        target, variational = pair
        u_target, psi = target._energies[0], variational.lam
        g_target = moments(target.to_distribution(), variational.features)
        expected = match_scale_full_grid(
            lambda c: u_target + float(np.dot(c * psi, g_target))
        )
        with mock.patch.object(ident, "_match_scale", lambda objective: 1.0):
            try:
                got = bogoliubov(target, variational)[1].details["scale"]
            except EnergyMatchingError:
                got = None
        if got is None or expected is None:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_scan_makes_one_array_call(self, monkeypatch):
        # The upper bound's scan evaluates the grid in one array call; every
        # scalar call is brentq's, on the bracket the array values chose.
        # The lower bound's scale is in closed form and scans nothing.
        instance = random_instance(3)
        scans, solving = [], []
        scan, brentq = ident._match_scale, ident.brentq

        def traced_brentq(*args, **kwargs):
            solving.append(True)
            try:
                return brentq(*args, **kwargs)
            finally:
                solving.pop()

        def traced_scan(objective):
            calls = []
            scans.append(calls)

            def counted(c):
                calls.append((np.ndim(c), bool(solving)))
                return objective(c)

            return scan(counted)

        monkeypatch.setattr(ident, "brentq", traced_brentq)
        monkeypatch.setattr(ident, "_match_scale", traced_scan)
        ident.bogoliubov(instance.model, instance.variational)
        assert len(scans) == 1
        for calls in scans:
            assert calls[0] == (1, False)
            assert len(calls) > 1
            assert all(call == (0, True) for call in calls[1:])

    def test_suite_bytes_match_object_and_lp_paths(self, monkeypatch, linprog_calls):
        def suite_bytes() -> str:
            return dump_json(
                [
                    {
                        "instance": descriptor.to_json(),
                        "reports": [r.to_json() for r in reports],
                    }
                    for descriptor, reports in run_identity_suite(50, 0)
                ]
            )

        fast = suite_bytes()
        assert linprog_calls == []
        object_path_identity_suite(monkeypatch)
        assert suite_bytes() == fast
        # Both projections of every instance went through the LP.
        assert len(linprog_calls) == 2 * 50


class TestWitnessedProjections:
    def test_random_diagnose_runs_no_lp(self, linprog_calls, tmp_path):
        out = tmp_path / "d.json"
        argv = ["diagnose", "--random", "--instances", "3", "--seed", "4"]
        assert main(argv + ["--output", str(out)]) == 0
        assert linprog_calls == []

    def test_witness_certifies_what_the_member_cannot(self, monkeypatch, linprog_calls):
        # In one projection of each of these instances the converged member
        # puts less than the margin on an outcome (2e-15, 1.2e-11, 1.3e-13),
        # so it cannot certify its targets; the distribution whose moments
        # it matches does (instance 180's has 1.2e-10 as its smallest
        # mass), no LP runs, and the bytes are those of the LP path.
        from maxentlab import projection

        seeds = (22, 138, 180)
        verdicts = []
        certify = projection._certifies_interior

        def recorded(*args):
            verdicts.append((args[-1], certify(*args)))
            return verdicts[-1][1]

        def suite_bytes() -> str:
            instances = [random_instance(seed) for seed in seeds]
            return dump_json(
                [[r.to_json() for r in run_instance(i)] for i in instances]
            )

        monkeypatch.setattr(projection, "_certifies_interior", recorded)
        fast = suite_bytes()
        assert linprog_calls == []
        margin, tol = projection._CERTIFICATE_MARGIN, projection._INTERIOR_TOL
        fallbacks = [
            pair for pair in zip(verdicts, verdicts[1:])
            if pair == ((margin, False), (tol, True))
        ]
        assert len(fallbacks) == len(seeds)
        object_path_identity_suite(monkeypatch)
        assert suite_bytes() == fast
        assert len(linprog_calls) == 2 * len(seeds)

    def test_star_bit_equal_to_lp_path(self):
        for seed in range(200):
            instance = random_instance(seed)
            features = instance.features
            constraints = ConstraintSet.equalities(
                features, moments(instance.data, features)
            )
            solved = project(instance.prior, constraints, ident._INSTANCE_OPTS)
            star = instance.star
            assert star.lambda_star.tobytes() == solved.lambda_star.tobytes(), seed
            assert (star.status, star.iterations) == (
                solved.status,
                solved.iterations,
            ), seed
