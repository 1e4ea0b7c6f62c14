"""Information projection: feasibility, the dual Newton solver, projected
Newton for one-sided constraints, the direct log-loss fit, and their
agreement."""

import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from maxentlab import (
    ConstraintSet,
    ConvergenceError,
    ExpFamModel,
    FeatureSet,
    FiniteDistribution,
    InputError,
    Status,
    SupportViolation,
    check_feasibility,
    constraint_contains,
    fit_log_loss,
    kl_divergence,
    mean_parameters,
    moments,
    project,
    project_inequality,
    robust_bayes_value,
    total_variation,
)
from maxentlab import projection
from maxentlab.cli import main
from maxentlab.projection import SolverOptions
from maxentlab._rng import substream
from maxentlab.jsonio import dump_json

from oracles import (
    grid_min_divergence_on_segment,
    interior_lp_optimum,
    interior_lp_reference,
    kkt_violations,
)

LOG4 = math.log(4.0)


def coin():
    return FiniteDistribution.uniform(["0", "1"])


def coin_feature():
    return FeatureSet(["x"], [[0.0, 1.0]])


def three():
    return FiniteDistribution.uniform(["0", "1", "2"])


def three_feature():
    return FeatureSet(["x"], [[0.0, 1.0, 2.0]])


def random_instance(seed, k_max=40, d_max=5):
    rng = substream(seed, 30)
    k = int(rng.integers(3, k_max + 1))
    d = int(rng.integers(1, d_max + 1))
    outcomes = [str(i) for i in range(k)]
    w = rng.random(k) + 0.1
    prior = FiniteDistribution(outcomes, w / w.sum())
    features = FeatureSet([f"f{i}" for i in range(d)], rng.normal(size=(d, k)))
    w = rng.random(k) + 0.05
    data = FiniteDistribution(outcomes, w / w.sum())
    return prior, features, data, rng


def criterion_4_instance(seed):
    """Acceptance criterion 4's generator: K in 3..30, d in 1..5, a
    uniform prior on even seeds, interior data."""
    rng = substream(seed, 61)
    k = int(rng.integers(3, 31))
    d = int(rng.integers(1, 6))
    outcomes = [str(i) for i in range(k)]
    if seed % 2 == 0:
        prior = FiniteDistribution.uniform(outcomes)
    else:
        w = rng.random(k) + 0.1
        prior = FiniteDistribution(outcomes, w / w.sum())
    features = FeatureSet([f"f{i}" for i in range(d)], rng.normal(size=(d, k)))
    w = rng.random(k) + 0.05
    return prior, features, FiniteDistribution(outcomes, w / w.sum())


def one_sided_instance(seed):
    """K in 5..400, d in 1..6, random eq/ge/le kinds.  The targets are the
    moments of ``q``, the prior tilted by a random ``theta``, each
    one-sided one moved by up to a twentieth of its feature's range to the
    side ``q`` satisfies: the targets are interior, and a one-sided
    constraint binds when it cuts the prior's moments off."""
    rng = substream(seed, 32)
    k = int(rng.integers(5, 401))
    d = int(rng.integers(1, 7))
    outcomes = [str(i) for i in range(k)]
    w = rng.random(k) + 0.1
    prior = FiniteDistribution(outcomes, w / w.sum())
    f = rng.normal(size=(d, k))
    q = w * np.exp(rng.normal(size=d) @ f)
    kinds = [str(kind) for kind in rng.choice(["eq", "ge", "le"], size=d)]
    sign = np.array([{"eq": 0.0, "ge": 1.0, "le": -1.0}[kind] for kind in kinds])
    spread = f.max(axis=1) - f.min(axis=1)
    targets = f @ (q / q.sum()) - sign * 0.05 * spread * rng.random(d)
    features = FeatureSet([f"f{i}" for i in range(d)], f)
    return prior, ConstraintSet(features, kinds, targets)


LP_CASES = ("interior", "face", "zero_prior", "mixed", "infeasible")


def lp_oracle_instance(case, seed):
    """A seeded feasibility instance (K <= 60) and the verdict its case is
    built to have, ``(in_hull, on_boundary)``."""
    rng = substream(seed, 31 + LP_CASES.index(case))
    k = int(rng.integers(6, 61))
    d = int(rng.integers(1, 5))
    outcomes = [str(i) for i in range(k)]
    prior_w = rng.random(k) + 0.1
    f = rng.normal(size=(d, k))
    q_w = rng.random(k) + 0.05
    kinds = ["eq"] * d
    fixed = {}  # targets set exactly rather than drawn
    expected = (True, False)
    if case == "face":
        # Feature 0 vanishes on the first half and is positive on the rest;
        # target 0 confines Q to the first half.
        half = k // 2
        f = np.vstack([np.zeros(k), f])
        f[0, half:] = rng.random(k - half) + 0.5
        kinds = ["eq"] * (d + 1)
        q_w[half:] = 0.0
        expected = (True, True)
    elif case == "zero_prior":
        zero = rng.permutation(k)[: k // 3]
        prior_w[zero] = 0.0
        q_w[zero] = 0.0
        if seed % 2:
            # Reachable on the full simplex, not on the prior's support.
            f = np.vstack([np.zeros(k), f])
            f[0, zero] = 1.0
            kinds = ["eq"] * (d + 1)
            fixed[0] = 0.5
            expected = (False, False)
    elif case == "mixed":
        kinds = [("eq", "ge", "le")[i % 3] for i in range(d + 2)]
        f = np.vstack([f, rng.normal(size=(2, k))])
        if seed % 2:
            # A 0/1 feature held at >= 1 puts all mass on its ones.
            ones = rng.permutation(k)[: k // 2]
            f[1] = 0.0
            f[1, ones] = 1.0
            q_w[np.setdiff1d(np.arange(k), ones)] = 0.0
            fixed[1] = 1.0
            expected = (True, True)
    targets = f @ (q_w / q_w.sum())
    for i, kind in enumerate(kinds):
        if i in fixed:
            targets[i] = fixed[i]
        elif kind == "ge":
            targets[i] -= 0.1 * rng.random()
        elif kind == "le":
            targets[i] += 0.1 * rng.random()
    if case == "infeasible":
        if seed % 2:
            targets[0] = f[0].max() + 0.5
        else:
            # A ge/le pair on one feature that cannot both hold.
            f = np.vstack([f, f[0]])
            kinds = ["ge"] + kinds[1:] + ["le"]
            targets = np.append(targets, targets[0] - 0.3)
        expected = (False, False)
    prior = FiniteDistribution(outcomes, prior_w / prior_w.sum())
    features = FeatureSet([f"f{i}" for i in range(len(kinds))], f)
    return prior, ConstraintSet(features, kinds, targets), expected


DEGENERATE_CASES = (
    "duplicate",
    "lattice",
    "zero_prior",
    "at_max",
    "prior_moments",
    "dependent",
    "outside",
    "barely_inside",
)


def degenerate_instance(seed):
    """A seeded instance (K 5..60, d 1..4, random eq/ge/le kinds) of the
    shape ``DEGENERATE_CASES[seed % 8]``; ``odd`` is the parity of
    ``seed // 8``.  The targets are the moments of a random interior
    distribution, each one-sided one moved by up to a twentieth of its
    feature's range to either side, except where the shape sets them:

    - ``duplicate``: feature 0 also as a last row, ``ge`` on the first copy
      and ``le`` on the last, each target at the moment or a twentieth of
      the range to either side (infeasible when they cross);
    - ``lattice``: features in {0, 1, 2}; if odd, the targets are one
      outcome's feature column, a lattice point that may be a vertex;
    - ``zero_prior``: a third of the outcomes have no prior mass; if odd,
      the targets' distribution charges them too;
    - ``at_max``: target 0 at feature 0's maximum, as ``eq`` or ``ge``;
    - ``prior_moments``: the targets are the prior's moments;
    - ``dependent``: one more ``eq`` row, the sum of the first and last
      features, at its moment;
    - ``outside``: target 0 beyond feature 0's range on the side its kind
      forbids;
    - ``barely_inside``: the moments of mass ``1 - eta`` on the outcome
      that maximizes feature 0 (``eq`` or ``ge``) and ``eta`` spread evenly,
      ``eta`` log-uniform in 1e-11..1e-7, so the interior LP's ``t*`` is
      within about ``eta / K`` of 0.
    """
    case = DEGENERATE_CASES[seed % len(DEGENERATE_CASES)]
    odd = seed // len(DEGENERATE_CASES) % 2 == 1
    rng = substream(seed, 33)
    k = int(rng.integers(5, 61))
    d = int(rng.integers(1, 5))
    w = rng.random(k) + 0.1
    f = rng.normal(size=(d, k))
    kinds = [str(kind) for kind in rng.choice(["eq", "ge", "le"], size=d)]
    q = rng.random(k) + 0.05
    if case == "lattice":
        f = rng.integers(0, 3, size=(d, k)).astype(float)
    elif case == "zero_prior":
        zero = rng.permutation(k)[: k // 3]
        w[zero] = 0.0
        if not odd:
            q[zero] = 0.0
    elif case == "dependent":
        f = np.vstack([f, f[0] + f[-1]])
        kinds.append("eq")
    elif case == "duplicate":
        f = np.vstack([f, f[0]])
        kinds[0] = "ge"
        kinds.append("le")
    elif case == "barely_inside":
        eta = 10.0 ** rng.uniform(-11, -7)
        q = np.full(k, eta / k)
        q[np.argmax(f[0])] += 1.0 - eta
        kinds[0] = str(rng.choice(["eq", "ge"]))
    prior = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
    sign = np.array([{"eq": 0.0, "ge": 1.0, "le": -1.0}[kind] for kind in kinds])
    spread = f.max(axis=1) - f.min(axis=1)
    targets = f @ (q / q.sum())
    if case != "barely_inside":
        targets += (sign != 0) * 0.05 * spread * rng.uniform(-1, 1, len(kinds))
    if case == "duplicate":
        step = 0.05 * spread[0] * rng.integers(-1, 2, size=2)
        mean = float(f[0] @ (q / q.sum()))
        targets[0], targets[-1] = mean - step[0], mean + step[1]
    elif case == "lattice" and odd:
        targets = f[:, rng.integers(k)].copy()
    elif case == "at_max":
        kinds[0] = str(rng.choice(["eq", "ge"]))
        targets[0] = f[0].max()
    elif case == "prior_moments":
        targets = f @ prior.probs
    elif case == "outside":
        beyond = spread[0] * rng.uniform(0.01, 0.5)
        low = kinds[0] == "le"
        targets[0] = f[0].min() - beyond if low else f[0].max() + beyond
    features = FeatureSet([f"f{i}" for i in range(len(kinds))], f)
    return prior, ConstraintSet(features, kinds, targets)


def solve_outcome(prior, a) -> tuple:
    """``(status, JSON bytes)`` of a projection, or the error it raised."""
    try:
        result = project(prior, a)
    except ConvergenceError as exc:
        return "error", str(exc)
    return result.status, dump_json(result.to_json())


class TestFeasibility:
    def test_prior_moments_are_interior(self):
        prior, features, _, _ = random_instance(0)
        a = ConstraintSet.equalities(features, moments(prior, features))
        rep = check_feasibility(prior, a)
        assert rep.in_hull and not rep.on_boundary

    def test_outside_range_is_infeasible(self):
        a = ConstraintSet.equalities(three_feature(), [3.0])
        rep = check_feasibility(three(), a)
        assert not rep.in_hull

    def test_vertex_is_boundary(self):
        a = ConstraintSet.equalities(three_feature(), [2.0])
        rep = check_feasibility(three(), a)
        assert rep.in_hull and rep.on_boundary

    def test_constraint_rows_per_kind(self):
        # Each row and its target are divided by the row's largest magnitude
        # (2, 3, 2, 2); eq rows are split off; ge rows are negated (0.0
        # becomes -0.0), le rows kept, both in constraint order.
        f = FeatureSet(
            ["a", "b", "c", "d"],
            [[0.0, 1.0, 2.0], [0.0, -1.0, 3.0], [1.0, 0.0, -2.0], [2.0, 0.0, 1.0]],
        )
        a = ConstraintSet(f, ["ge", "eq", "le", "ge"], [0.5, 0.0, -0.0, 1.0])
        a_eq, b_eq, a_ub, b_ub = projection._constraint_rows(a, np.ones(3, bool))
        m = f.matrix
        ub = np.vstack([-m[0] / 2, m[2] / 2, -m[3] / 2])
        expected = (m[[1]] / 3, [0.0], ub, [-0.25, -0.0, -0.5])
        for got, want in zip((a_eq, b_eq, a_ub, b_ub), expected):
            want = np.asarray(want, dtype=float)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_one_sided_relaxation(self):
        a = ConstraintSet(three_feature(), ["ge"], [1.5])
        rep = check_feasibility(three(), a)
        assert rep.in_hull and not rep.on_boundary

    @pytest.mark.parametrize("case", LP_CASES)
    def test_agrees_with_dense_interior_lp(self, case):
        for seed in range(10):
            prior, a, expected = lp_oracle_instance(case, seed)
            rep = check_feasibility(prior, a)
            reference = interior_lp_reference(
                prior.probs,
                a.features.matrix,
                [kind.value for kind in a.kinds],
                a.targets,
            )
            assert (rep.in_hull, rep.on_boundary) == reference == expected, seed

    @pytest.mark.parametrize("status", [1, 4])
    def test_solver_failure_is_not_infeasibility(self, monkeypatch, status):
        def stalled(*args, **kwargs):
            return OptimizeResult(
                status=status, success=False, message="stalled", x=None
            )

        monkeypatch.setattr(projection, "linprog", stalled)
        a = ConstraintSet.equalities(three_feature(), [1.0])
        with pytest.raises(ConvergenceError, match=f"status {status}: stalled"):
            check_feasibility(three(), a)


def tiny_mass_case():
    """An interior equality target whose converged member puts less than
    the certificate margin on outcome 0 (the prior puts 1e-15 there), and
    a distribution ``q`` meeting it with ``q_0 = 0.1``."""
    prior = FiniteDistribution(["0", "1", "2"], [1e-15, 0.5, 0.5 - 1e-15])
    q = FiniteDistribution(["0", "1", "2"], [0.1, 0.4, 0.5])
    targets = moments(q, three_feature())
    return prior, q, ConstraintSet.equalities(three_feature(), targets)


def lp_path(monkeypatch):
    """Make every solve take its verdict from the feasibility LP: neither
    the interior certificate nor the dual floor decides."""
    monkeypatch.setattr(projection, "_certifies_interior", lambda *args: False)
    monkeypatch.setattr(projection, "_below_dual_floor", lambda *args: False)


class TestWitnessedFeasibility:
    """A distribution meeting the targets certifies them interior when the
    converged member cannot; when it cannot either, the LP runs."""

    def test_interior_witness_replaces_the_lp(self, linprog_calls):
        prior, q, a = tiny_mass_case()
        witnessed = project(prior, a, witness=q)
        assert linprog_calls == []
        solved = project(prior, a)
        assert len(linprog_calls) == 1
        assert dump_json(witnessed.to_json()) == dump_json(solved.to_json())
        assert witnessed.status is solved.status is Status.CONVERGED
        assert witnessed.model.to_distribution().probs[0] < 1e-9
        rep = check_feasibility(prior, a)
        assert rep.in_hull and not rep.on_boundary

    @pytest.mark.parametrize(
        "case", ["zero-mass", "mass-at-tolerance", "outside-support"]
    )
    def test_undecided_witness_leaves_it_to_the_lp(self, linprog_calls, case):
        # The member puts < 1e-9 on outcome 0 in every case, so the witness
        # alone could spare the LP.  "outside-support" restricts to the
        # prior's support a witness that has 0.3 outside it and 0.01 on
        # outcome 0; the correction onto the targets takes outcome 0 below
        # zero.
        tol = projection._INTERIOR_TOL
        prior, _, _ = tiny_mass_case()
        probs = {
            "zero-mass": [0.0, 0.4, 0.6, 0.0],
            "mass-at-tolerance": [tol, 0.5, 0.5 - tol, 0.0],
            "outside-support": [0.01, 0.39, 0.3, 0.3],
        }[case]
        prior = FiniteDistribution(["0", "1", "2", "3"], [*prior.probs, 0.0])
        q = FiniteDistribution(["0", "1", "2", "3"], probs)
        assert q.probs[0] == probs[0]
        features = FeatureSet(["x"], [[0.0, 1.0, 2.0, 2.0]])
        a = ConstraintSet.equalities(features, moments(q, features))
        result = project(prior, a, witness=q)
        assert len(linprog_calls) == 1
        assert result.status is Status.CONVERGED


class TestInteriorCertificate:
    """The converged member, corrected onto the constraints, proves the
    targets interior exactly when every corrected mass clears the margin
    and every row holds; no LP runs then."""

    @staticmethod
    def certifies(a, p):
        """The member check on a full-support prior, every multiplier 0."""
        return projection._certifies_interior(
            a.features.matrix, a.targets, a._sign, np.zeros(a.dim), p,
            projection._CERTIFICATE_MARGIN,
        )

    def test_exact_interior_point_needs_no_correction(self):
        # delta = 0: a point meeting the targets with every mass above the
        # margin is the certificate as it stands.
        q = np.array([0.1, 0.6, 0.3])
        a = ConstraintSet.equalities(three_feature(), three_feature().matrix @ q)
        assert self.certifies(a, q)
        rep = check_feasibility(three(), a)
        assert rep.in_hull and not rep.on_boundary

    @pytest.mark.parametrize(
        "mass, certified", [(0.0, False), (1e-12, False), (2e-9, True)]
    )
    def test_smallest_mass_must_clear_the_margin(self, mass, certified):
        q = np.array([mass, 0.5, 0.5 - mass])
        a = ConstraintSet.equalities(three_feature(), three_feature().matrix @ q)
        assert self.certifies(a, q) is certified

    def test_point_off_the_targets_by_rounding_is_corrected(self):
        q = np.array([0.1, 0.6, 0.3])
        targets = np.nextafter(three_feature().matrix @ q, math.inf)
        a = ConstraintSet.equalities(three_feature(), targets)
        assert self.certifies(a, q)

    def test_inconsistent_rows_do_not_certify(self):
        # Two copies of x held 1e-10 apart: no point meets both, so no
        # correction does.
        f = FeatureSet(["x", "x2"], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        q = np.array([0.2, 0.3, 0.5])
        a = ConstraintSet.equalities(f, [1.3, 1.3 + 1e-10])
        assert not self.certifies(a, q)

    @pytest.mark.parametrize("kind, certified", [("ge", True), ("le", False)])
    def test_other_one_sided_rows_must_still_hold(self, kind, certified):
        # q misses x = m + 1e-10 by 1e-10 and meets the copy y of x at m
        # exactly.  Correcting x raises y by 1e-10: y >= m still holds, and
        # y <= m, tight at q with a zero multiplier, breaks.
        f = FeatureSet(["x", "y"], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        q = np.array([0.2, 0.3, 0.5])
        mean = float(f.matrix[0] @ q)
        a = ConstraintSet(f, ["eq", kind], [mean + 1e-10, mean])
        assert self.certifies(a, q) is certified

    def test_violated_one_sided_row_is_met_exactly(self):
        q = np.array([0.2, 0.3, 0.5])
        mean = float(three_feature().matrix[0] @ q)
        a = ConstraintSet(three_feature(), ["ge"], [mean + 1e-10])
        assert self.certifies(a, q)

    def test_interior_solves_run_no_lp(self, monkeypatch, linprog_calls):
        # The same bits as the LP path, with no LP.
        prior, features, data, _ = random_instance(3)
        equalities = ConstraintSet.equalities(features, moments(data, features))
        cases = [
            lambda: project(prior, equalities),
            lambda: project(*one_sided_instance(2)),
            lambda: fit_log_loss(prior, features, data),
        ]
        certified = [dump_json(case().to_json()) for case in cases]
        assert linprog_calls == []
        lp_path(monkeypatch)
        assert [dump_json(case().to_json()) for case in cases] == certified
        assert len(linprog_calls) == len(cases)


class TestCertificateAgreesWithLP:
    """On seeded and degenerate instances, certifying the interior from the
    converged member, or refuting the targets by the dual floor, gives the
    status and bytes of the LP-first order.

    The LP path is the solve with the certificate and the floor turned off:
    the descent never reads the verdict, and an infeasible result does not
    depend on where the descent stopped, so only the verdict's source
    differs.  A certified solve must also have an interior LP verdict, and
    a refuted one an infeasible LP verdict.
    """

    def outcomes(self, monkeypatch, linprog_calls, instances):
        certified, lps = [], []
        for prior, a in instances:
            linprog_calls.clear()
            certified.append(solve_outcome(prior, a))
            lps.append(len(linprog_calls))
        with monkeypatch.context() as patch:
            lp_path(patch)
            via_lp = [solve_outcome(prior, a) for prior, a in instances]
        return certified, lps, via_lp

    def test_degenerate_instances(self, monkeypatch, linprog_calls):
        instances = [degenerate_instance(seed) for seed in range(80)]
        certified, lps, via_lp = self.outcomes(monkeypatch, linprog_calls, instances)
        assert certified == via_lp
        for seed, ((prior, a), (status, _), lp) in enumerate(
            zip(instances, certified, lps)
        ):
            if lp == 0:
                # Certified interior by the member, or refuted by the floor.
                assert status in (Status.CONVERGED, Status.INFEASIBLE), seed
                rep = check_feasibility(prior, a)
                assert rep.in_hull is (status is Status.CONVERGED), seed
                assert not rep.on_boundary, seed
        statuses = {status for status, _ in certified}
        assert statuses == set(Status)
        assert lps.count(0) >= 20

    def test_seeded_mixes(self, monkeypatch, linprog_calls):
        instances = [one_sided_instance(seed) for seed in range(20)]
        certified, lps, via_lp = self.outcomes(monkeypatch, linprog_calls, instances)
        assert certified == via_lp
        assert lps == [0] * 20

    def test_barely_inside_defers_to_the_lp(self, linprog_calls):
        # t* between the interior tolerance and the margin (by the dense
        # reference LP): no feasible point clears the margin, so the LP
        # decides.  The status is then the LP's, CONVERGED where it reads
        # the targets interior; at these t* HiGHS's own t* differs from the
        # reference by up to 10x, and reads some of them as boundary.
        barely = DEGENERATE_CASES.index("barely_inside")
        converged = 0
        for seed in range(barely, 40 * len(DEGENERATE_CASES), len(DEGENERATE_CASES)):
            prior, a = degenerate_instance(seed)
            kinds = [kind.value for kind in a.kinds]
            t_star = interior_lp_optimum(
                prior.probs, a.features.matrix, kinds, a.targets
            )
            if not projection._INTERIOR_TOL < t_star < projection._CERTIFICATE_MARGIN:
                continue
            linprog_calls.clear()
            status, _ = solve_outcome(prior, a)
            assert len(linprog_calls) == 1, seed
            rep = check_feasibility(prior, a)
            assert rep.in_hull, seed
            assert status is (
                Status.BOUNDARY_NONATTAINED if rep.on_boundary else Status.CONVERGED
            ), seed
            converged += status is Status.CONVERGED
        assert converged >= 10


def beyond_hull_instance(seed, overshoot):
    """A seeded instance (K 5..40, d 1..3, random eq/ge/le kinds, a third of
    the outcomes without prior mass on every third seed) whose targets are
    the feature column of the supported outcome that maximizes ``v . f``,
    moved by ``overshoot`` along the unit direction ``v``.  ``v_i`` is
    positive on ``ge`` rows and negative on ``le`` rows, so every
    distribution on the support misses the targets when ``overshoot > 0``;
    at 0 they are a vertex of the moment polytope."""
    rng = substream(seed, 34)
    k = int(rng.integers(5, 41))
    d = int(rng.integers(1, 4))
    w = rng.random(k) + 0.1
    if seed % 3 == 0:
        w[rng.permutation(k)[: k // 3]] = 0.0
    prior = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
    f = rng.normal(size=(d, k))
    kinds = [str(kind) for kind in rng.choice(["eq", "ge", "le"], size=d)]
    sign = np.array([{"eq": 0.0, "ge": 1.0, "le": -1.0}[kind] for kind in kinds])
    v = rng.normal(size=d)
    v = np.where(sign == 0, v, sign * np.abs(v))
    v /= np.linalg.norm(v)
    vertex = int(np.argmax(np.where(prior.support, v @ f, -np.inf)))
    features = FeatureSet([f"f{i}" for i in range(d)], f)
    return prior, ConstraintSet(features, kinds, f[:, vertex] + overshoot * v)


class TestDualFloor:
    """A dual value below ``log min_S P`` ends the descent as INFEASIBLE
    with no LP.  The floor fires only where the LP reads the targets
    infeasible, and the result has the bytes of the LP's verdict."""

    @pytest.fixture
    def solve(self, monkeypatch, linprog_calls):
        """``solve(prior, a) -> (outcome, fired, LPs)``: one projection's
        :func:`solve_outcome`, whether the floor fired, the LPs it ran."""
        fired, floor = [], projection._below_dual_floor

        def recorded(*args):
            fired.append(floor(*args))
            return fired[-1]

        monkeypatch.setattr(projection, "_below_dual_floor", recorded)

        def run(prior, a):
            fired.clear()
            linprog_calls.clear()
            outcome = solve_outcome(prior, a)
            return outcome, any(fired), len(linprog_calls)

        return run

    def test_near_hull_sweep(self, monkeypatch, solve):
        overshoots = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
        fires = dict.fromkeys(overshoots, 0)
        for seed in range(24):
            for overshoot in overshoots:
                prior, a = beyond_hull_instance(seed, overshoot)
                outcome, fired, lps = solve(prior, a)
                rep = check_feasibility(prior, a)
                if overshoot == 0.0:  # a vertex
                    assert rep.in_hull and rep.on_boundary, seed
                    assert not fired, seed
                if fired:
                    assert not rep.in_hull, (seed, overshoot)
                    assert outcome[0] is Status.INFEASIBLE and lps == 0
                else:
                    assert lps == 1, (seed, overshoot)
                with monkeypatch.context() as patch:
                    lp_path(patch)
                    assert solve_outcome(prior, a) == outcome, (seed, overshoot)
                fires[overshoot] += fired
        # Within the LP's tolerance of the hull the LP decides; far past it
        # the floor does, every time.
        assert fires[0.0] == fires[1e-10] == fires[1e-8] == 0
        assert fires[1e-2] == fires[1.0] == 24

    def test_never_fires_on_faces(self, solve):
        faces = 0
        for seed in range(160):
            prior, a = degenerate_instance(seed)
            rep = check_feasibility(prior, a)
            if not (rep.in_hull and rep.on_boundary):
                continue
            _, fired, lps = solve(prior, a)
            assert not fired and lps == 1, seed
            faces += 1
        assert faces >= 15

    @pytest.mark.parametrize("kind", ["eq", "ge"])
    def test_leaves_a_tiny_overshoot_to_the_lp(self, solve, kind):
        # 1e-10 past the vertex x = 2: within the LP's tolerance, so the
        # floor stays silent and the LP's verdict stands.
        a = ConstraintSet(three_feature(), [kind], [2.0 + 1e-10])
        (status, _), fired, lps = solve(three(), a)
        assert not fired and lps == 1
        rep = check_feasibility(three(), a)
        if rep.in_hull:
            assert rep.on_boundary and status is Status.BOUNDARY_NONATTAINED
        else:
            assert status is Status.INFEASIBLE

    def test_floor_is_over_the_support(self, solve):
        # Only outcome "b", which has no prior mass, reaches x = 1.5; over
        # the support the floor is log 0.25, where it fires.  Over the whole
        # alphabet the target is attainable.
        outcomes = ["a", "b", "c", "d"]
        prior = FiniteDistribution(outcomes, [0.3, 0.0, 0.45, 0.25])
        features = FeatureSet(["x"], [[0.0, 2.0, 1.0, -0.5]])
        a = ConstraintSet.equalities(features, [1.5])
        (status, _), fired, lps = solve(prior, a)
        assert fired and lps == 0 and status is Status.INFEASIBLE
        assert not check_feasibility(prior, a).in_hull
        assert check_feasibility(FiniteDistribution.uniform(outcomes), a).in_hull

    def test_one_sided_rows(self, solve):
        # x >= 1.5 and a copy of x <= 1.0 cross: each alone is attainable,
        # together they are not, and the floor proves it on the orthant.
        f = FeatureSet(["x", "y"], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        crossed = ConstraintSet(f, ["ge", "le"], [1.5, 1.0])
        (status, _), fired, lps = solve(three(), crossed)
        assert fired and lps == 0 and status is Status.INFEASIBLE
        assert not check_feasibility(three(), crossed).in_hull
        for kind, target in (("ge", 1.5), ("le", 1.0)):
            alone = ConstraintSet(three_feature(), [kind], [target])
            _, fired, _ = solve(three(), alone)
            assert not fired
        for seed in range(20):  # feasible mixes
            _, fired, _ = solve(*one_sided_instance(seed))
            assert not fired, seed


def scaled_instance(seed):
    """A seeded instance (K 3..39, d 1..4, random eq/ge/le kinds) whose
    N(0, 1) features are scaled by ``s``, log-uniform in [1e-6, 1e3]; on
    30% of the d >= 2 seeds the second row is the first plus 1e-6 N(0, 1)
    noise.  By ``seed % 4`` the targets are the moments of a positive
    distribution (0, 1: interior), the feature column of the outcome
    maximizing ``v . f`` (2: a vertex), or that column moved by ``1e-2 s``
    along the unit direction ``v`` (3: past the hull), with ``v`` signed
    as in :func:`beyond_hull_instance`."""
    rng = substream(seed, 35)
    k = int(rng.integers(3, 40))
    d = int(rng.integers(1, 5))
    scale = 10.0 ** rng.uniform(-6, 3)
    w = rng.random(k) + 0.1
    prior = FiniteDistribution([str(i) for i in range(k)], w / w.sum())
    f = rng.normal(size=(d, k))
    if d >= 2 and rng.random() < 0.3:
        f[1] = f[0] + 1e-6 * rng.normal(size=k)
    f *= scale
    kinds = [str(kind) for kind in rng.choice(["eq", "ge", "le"], size=d)]
    sign = np.array([{"eq": 0.0, "ge": 1.0, "le": -1.0}[kind] for kind in kinds])
    v = rng.normal(size=d)
    v = np.where(sign == 0, v, sign * np.abs(v))
    v /= np.linalg.norm(v)
    q = rng.random(k) + 0.05
    interior, vertex = f @ (q / q.sum()), f[:, int(np.argmax(v @ f))]
    targets = (interior, interior, vertex, vertex + 1e-2 * scale * v)
    features = FeatureSet([f"f{i}" for i in range(d)], f)
    return prior, ConstraintSet(features, kinds, targets[seed % 4])


class TestNoBoundOnLambda:
    """The size of ``lam`` is set by the units of the features, so no bound
    on it ends a descent: a descent ends at tolerance, below the dual floor
    or at its budget, and only the feasibility LP reads a target as on the
    boundary."""

    def test_rescaled_feature_converges(self):
        # f = (0, s, 2s), target 1.9 s: lam* = 2.3763 / s at every scale.
        scaled = []
        for s in (1.0, 1e-3, 1e-4, 1e-5):
            feature = FeatureSet(["x"], [[0.0, s, 2 * s]])
            res = project(three(), ConstraintSet.equalities(feature, [1.9 * s]))
            assert res.status is Status.CONVERGED, s
            assert np.abs(res.moment_residual).max() <= SolverOptions().moment_tol, s
            scaled.append(res.lambda_star[0] * s)
        assert scaled[1:] == pytest.approx([scaled[0]] * 3, rel=1e-3)

    def test_nearly_dependent_pair_is_not_a_boundary(self):
        # Interior targets on two rows 1e-6 apart: lam passes 1e4 and the
        # budget runs out, which the LP's interior verdict makes an error.
        f1 = np.array([0.0, 1.0, 2.0, 3.0])
        f2 = f1 + 1e-6 * np.array([1.0, -1.0, -1.0, 1.0])
        q = np.array([0.1, 0.2, 0.3, 0.4])
        prior = FiniteDistribution.uniform(list("abcd"))
        features = FeatureSet(["f1", "f2"], [f1, f2])
        a = ConstraintSet.equalities(features, [f1 @ q, f2 @ q])
        rep = check_feasibility(prior, a)
        assert rep.in_hull and not rep.on_boundary
        with pytest.raises(ConvergenceError, match="in 200 iterations"):
            project(prior, a)

    def test_scaled_sweep_statuses_match_the_truth(self):
        # seed % 4 fixes the truth (interior, interior, vertex, past the
        # hull).  Vertex seeds 1614, 3610 and 3982, with features at scales
        # 1.9e-6 to 1.5e-4, are the ones an LP on unscaled rows read as
        # infeasible.
        truth = {2: Status.BOUNDARY_NONATTAINED, 3: Status.INFEASIBLE}
        converged = 0
        for seed in (*range(300), 1614, 3610, 3982):
            status, _ = solve_outcome(*scaled_instance(seed))
            if seed % 4 in truth:
                assert status is truth[seed % 4], seed
            else:  # interior: converged, or the budget spent
                assert status in (Status.CONVERGED, "error"), seed
                converged += status is Status.CONVERGED
        assert converged >= 140

    def test_refuted_iterates_separate(self, monkeypatch):
        # The iterate the dual floor refutes is the infeasibility
        # certificate: lam . alpha > max_S lam . f.
        refuted, floor = [], projection._below_dual_floor

        def recorded(g, lam, *rest):
            below = floor(g, lam, *rest)
            if below:
                refuted.append(lam.copy())
            return below

        monkeypatch.setattr(projection, "_below_dual_floor", recorded)
        fired = 0
        for seed in range(3, 300, 4):
            prior, a = scaled_instance(seed)
            refuted.clear()
            project(prior, a)
            for lam in refuted:
                values = lam @ a.features.matrix[:, prior.support]
                assert float(lam @ a.targets) - float(values.max()) > 0.0, seed
            fired += len(refuted)
        assert fired >= 50


class TestProject:
    def test_no_constraints_returns_prior(self):
        prior = three()
        res = project(prior, ConstraintSet.equalities(FeatureSet.empty(3), []))
        assert res.status is Status.CONVERGED
        assert res.min_divergence == 0.0
        assert res.lambda_star.size == 0

    def test_prior_already_feasible(self):
        res = project(three(), ConstraintSet.equalities(three_feature(), [1.0]))
        assert res.status is Status.CONVERGED
        np.testing.assert_allclose(res.lambda_star, [0.0], atol=1e-9)
        assert res.min_divergence == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_closed_form(self):
        res = project(coin(), ConstraintSet.equalities(coin_feature(), [0.8]))
        assert res.status is Status.CONVERGED
        assert res.lambda_star[0] == pytest.approx(LOG4, abs=1e-8)
        assert res.min_divergence == pytest.approx(0.1927447570217575, abs=1e-6)
        np.testing.assert_allclose(
            res.model.to_distribution().probs, [0.2, 0.8], atol=1e-9
        )

    def test_infeasible_status(self):
        res = project(three(), ConstraintSet.equalities(three_feature(), [3.0]))
        assert res.status is Status.INFEASIBLE
        assert res.min_divergence == math.inf

    def test_boundary_flagged(self):
        res = project(three(), ConstraintSet.equalities(three_feature(), [2.0]))
        assert res.status is Status.BOUNDARY_NONATTAINED

    def test_takes_every_constraint_kind(self):
        # project_inequality is project under its older name: one solve,
        # the same bits, on ge/le sets as on equalities.
        for seed in range(20):
            prior, a = one_sided_instance(seed)
            direct, forwarded = project(prior, a), project_inequality(prior, a)
            assert direct.status is forwarded.status, seed
            assert dump_json(direct.to_json()) == dump_json(forwarded.to_json()), seed

    def test_primal_dual_agreement(self):
        for seed in range(100):
            prior, features, data, _ = random_instance(seed)
            a = ConstraintSet.equalities(features, moments(data, features))
            res = project(prior, a)
            assert res.status is Status.CONVERGED
            dual = float(res.lambda_star @ a.targets) - res.model.log_partition
            assert abs(res.min_divergence - dual) <= 1e-9

    def test_moment_matching_on_random_instances(self):
        for seed in range(200):
            prior, features, data, _ = random_instance(seed)
            a = ConstraintSet.equalities(features, moments(data, features))
            res = project(prior, a)
            gap = np.max(np.abs(mean_parameters(res.model) - a.targets))
            assert gap <= 1e-8

    def test_grid_oracle_finds_nothing_better(self):
        # |X| = 3, one equality constraint: scan the feasible segment.
        for seed in range(20):
            rng = substream(seed, 31)
            w = rng.random(3) + 0.1
            prior = FiniteDistribution(["a", "b", "c"], w / w.sum())
            row = rng.normal(size=3)
            while abs(row[1] - row[2]) < 0.3:
                row = rng.normal(size=3)
            features = FeatureSet(["f"], [row])
            w = rng.random(3) + 0.1
            q0 = w / w.sum()
            alpha = float(row @ q0)
            res = project(prior, ConstraintSet.equalities(features, [alpha]))
            best = grid_min_divergence_on_segment(prior.probs, row, alpha, 1e-4)
            assert best >= res.min_divergence - 1e-6

    def test_pythagorean_certificate(self):
        # D(Q||prior) = D(P*||prior) + D(Q||P*) for random Q in the
        # constraint set (equality constraints built from Q itself).
        for seed in range(50):
            prior, features, data, _ = random_instance(seed)
            a = ConstraintSet.equalities(features, moments(data, features))
            res = project(prior, a)
            p_star = res.model.to_distribution()
            lhs = kl_divergence(data, prior)
            rhs = res.min_divergence + kl_divergence(data, p_star)
            assert abs(lhs - rhs) <= 1e-8

    def test_trace_recorded(self):
        opts = SolverOptions(trace=True)
        res = project(coin(), ConstraintSet.equalities(coin_feature(), [0.8]), opts)
        assert len(res.trace) >= 2
        assert res.trace[0].grad_norm >= res.trace[-1].grad_norm


class TestProjectInequality:
    def test_inactive_constraint_returns_prior(self):
        a = ConstraintSet(coin_feature(), ["ge"], [0.3])
        res = project_inequality(coin(), a)
        assert res.status is Status.CONVERGED
        np.testing.assert_allclose(res.lambda_star, [0.0], atol=1e-12)
        assert res.min_divergence == pytest.approx(0.0, abs=1e-12)
        assert kkt_violations(coin(), a, res, 1e-9) == []

    def test_active_constraint_matches_equality_projection(self):
        a = ConstraintSet(coin_feature(), ["ge"], [0.8])
        res = project_inequality(coin(), a)
        eq = project(coin(), ConstraintSet.equalities(coin_feature(), [0.8]))
        assert res.status is Status.CONVERGED
        assert kkt_violations(coin(), a, res, 1e-9) == []
        assert total_variation(
            res.model.to_distribution(), eq.model.to_distribution()
        ) <= 1e-9
        # dense scan of the Bernoulli marginal as an independent check
        grid = np.arange(0.8, 1.0 + 1e-6, 1e-6)
        kl = grid * np.log(grid / 0.5) + (1 - grid) * np.log(
            np.maximum(1 - grid, 1e-300) / 0.5
        )
        assert float(kl.min()) >= res.min_divergence - 1e-6

    def test_contradictory_pair_infeasible(self):
        f = FeatureSet(["x", "x2"], [[0.0, 1.0], [0.0, 1.0]])
        a = ConstraintSet(f, ["ge", "le"], [0.9, 0.1])
        assert project_inequality(coin(), a).status is Status.INFEASIBLE

    def test_kkt_multiplier_signs(self):
        # A ge constraint that binds must carry a non-negative multiplier.
        a = ConstraintSet(coin_feature(), ["ge"], [0.8])
        res = project_inequality(coin(), a)
        assert res.lambda_star[0] >= -1e-9
        b = ConstraintSet(coin_feature(), ["le"], [0.2])
        res = project_inequality(coin(), b)
        assert res.lambda_star[0] <= 1e-9
        assert kkt_violations(coin(), b, res, 1e-9) == []

    def test_mixed_random_instances_satisfy_constraints(self):
        for seed in range(50):
            prior, features, data, rng = random_instance(seed, k_max=20, d_max=4)
            kinds = [rng.choice(["eq", "ge", "le"]) for _ in range(features.dim)]
            targets = moments(data, features)
            a = ConstraintSet(features, kinds, targets)
            res = project_inequality(prior, a)
            assert res.status is Status.CONVERGED
            assert constraint_contains(a, res.model.to_distribution(), 1e-7)
            assert kkt_violations(prior, a, res, 1e-9) == [], seed

    def test_kkt_certificate_on_random_instances(self):
        binding = 0
        for seed in range(200):
            prior, a = one_sided_instance(seed)
            res = project_inequality(prior, a)
            assert res.status is Status.CONVERGED, seed
            assert np.max(np.abs(res.moment_residual)) <= 1e-9, seed
            assert kkt_violations(prior, a, res, 1e-9) == [], seed
            binding += int(np.count_nonzero(a._sign * res.lambda_star > 0.0))
        assert binding >= 100  # the one-sided constraints do bind

    def test_dual_value_with_inactive_zeros(self):
        a = ConstraintSet(
            FeatureSet(["x", "y"], [[0.0, 1.0], [1.0, 0.0]]),
            ["ge", "ge"],
            [0.8, 0.05],
        )
        res = project_inequality(coin(), a)
        assert res.status is Status.CONVERGED
        dual = float(res.lambda_star @ a.targets) - res.model.log_partition
        assert abs(res.min_divergence - dual) <= 1e-9
        assert kkt_violations(coin(), a, res, 1e-9) == []

    def test_one_lp_per_solve(self, monkeypatch, linprog_calls):
        # The converged member certifies this interior mix, so no LP runs;
        # made to fall back, the solve runs the verdict LP on the whole set
        # once, and no LP per binding constraint.
        prior, a = one_sided_instance(2)
        assert {kind.value for kind in a.kinds} == {"eq", "ge", "le"}
        res = project_inequality(prior, a)
        assert res.status is Status.CONVERGED
        assert np.count_nonzero(a._sign * res.lambda_star > 0.0) >= 1
        assert linprog_calls == []
        lp_path(monkeypatch)
        assert project_inequality(prior, a).status is Status.CONVERGED
        assert len(linprog_calls) == 1

    def test_budget_exhausted_inside_raises(self):
        prior, a = one_sided_instance(2)
        with pytest.raises(ConvergenceError, match="projected Newton"):
            project_inequality(prior, a, SolverOptions(max_iter=1))

    def test_budget_exhausted_on_boundary_reports_the_budget(self):
        # x >= 2 leaves only the outcome "2", a vertex of the polytope.
        f = FeatureSet(["x", "y"], [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]])
        a = ConstraintSet(f, ["ge", "le"], [2.0, 0.5])
        res = project_inequality(three(), a, SolverOptions(max_iter=1))
        assert res.status is Status.BOUNDARY_NONATTAINED
        assert res.iterations == 1


class TestFitLogLoss:
    def test_data_equal_prior_gives_zero(self):
        res = fit_log_loss(coin(), coin_feature(), coin())
        assert res.status is Status.CONVERGED
        np.testing.assert_allclose(res.lambda_star, [0.0], atol=1e-8)

    def test_bernoulli(self):
        data = FiniteDistribution(["0", "1"], [0.2, 0.8])
        res = fit_log_loss(coin(), coin_feature(), data)
        assert res.lambda_star[0] == pytest.approx(LOG4, abs=1e-7)

    def test_vertex_data_flags_boundary(self):
        data = FiniteDistribution(["0", "1"], [0.0, 1.0])
        res = fit_log_loss(coin(), coin_feature(), data)
        assert res.status is Status.BOUNDARY_NONATTAINED

    def test_budget_exhausted_on_boundary_reports_the_budget(self, monkeypatch):
        monkeypatch.setattr(projection, "_GD_MAX_ITER", 5)
        data = FiniteDistribution(["0", "1", "2"], [0.0, 0.0, 1.0])
        res = fit_log_loss(three(), three_feature(), data)
        assert res.status is Status.BOUNDARY_NONATTAINED
        assert res.iterations == 5

    def test_budget_exhausted_inside_raises(self, monkeypatch):
        monkeypatch.setattr(projection, "_GD_MAX_ITER", 5)
        prior, features, data, _ = random_instance(3)
        with pytest.raises(ConvergenceError, match="gradient descent"):
            fit_log_loss(prior, features, data)

    def test_never_forms_the_fisher_matrix(self, monkeypatch):
        # The fit stays first order, so its agreement with project is an
        # independent check; project's Newton steps do use the matrix.
        calls = []
        fisher = projection._covariance

        def counted(matrix, q):
            calls.append(1)
            return fisher(matrix, q)

        monkeypatch.setattr(projection, "_covariance", counted)
        prior, features, data, _ = random_instance(3)
        fit_log_loss(prior, features, data)
        assert calls == []
        project(prior, ConstraintSet.equalities(features, moments(data, features)))
        assert calls

    def test_support_violation(self):
        prior = FiniteDistribution(["0", "1", "2"], [0.5, 0.5, 0.0])
        f = FeatureSet(["x"], [[0.0, 1.0, 2.0]])
        data = FiniteDistribution(["0", "1", "2"], [0.2, 0.3, 0.5])
        with pytest.raises(SupportViolation):
            fit_log_loss(prior, f, data)

    def test_loss_decreases_monotonically(self):
        prior, features, data, _ = random_instance(3)
        opts = SolverOptions(trace=True)
        res = fit_log_loss(prior, features, data, opts)
        values = [t.dual_value for t in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_agrees_with_projection(self):
        for seed in range(100):
            prior, features, data, _ = random_instance(seed, k_max=30)
            a = ConstraintSet.equalities(features, moments(data, features))
            via_newton = project(prior, a)
            via_gd = fit_log_loss(prior, features, data)
            tv = total_variation(
                via_newton.model.to_distribution(), via_gd.model.to_distribution()
            )
            assert tv <= 1e-6

    def test_converges_where_fixed_lengths_ran_out_of_budget(self):
        # Plain gradient steps hit the 100,000-step budget on these two.
        for seed in (505, 1094):
            prior, features, data = criterion_4_instance(seed)
            a = ConstraintSet.equalities(features, moments(data, features))
            res = fit_log_loss(prior, features, data)
            assert res.status is Status.CONVERGED, seed
            tv = total_variation(
                project(prior, a).model.to_distribution(),
                res.model.to_distribution(),
            )
            assert tv <= 1e-6, seed

    def test_step_counts_on_criterion_4_instances(self):
        steps = [
            fit_log_loss(*criterion_4_instance(seed)).iterations
            for seed in range(100)
        ]
        assert sum(steps) <= 3_000
        assert max(steps) <= 200

    def test_uncertified_steps_predict_a_decrease_below_resolution(self):
        # Steps that skip the Armijo test are the ones whose predicted
        # decrease at the proposed length is below the float resolution of
        # g.  Judged at unit length instead, a long BB step skips the test
        # and raises g by up to 3e-10 of |g| on these instances.
        for seed in (127, 169):
            opts = SolverOptions(trace=True)
            res = fit_log_loss(*criterion_4_instance(seed), opts)
            g = [point.dual_value for point in res.trace]
            rise = max((b - a) / max(1.0, abs(a)) for a, b in zip(g, g[1:]))
            assert rise <= 1e-12, seed


class TestOneModelPerSolve:
    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = ExpFamModel.__init__

        def counted(model, *args):
            built.append(1)
            init(model, *args)

        monkeypatch.setattr(ExpFamModel, "__init__", counted)
        return built

    def test_project_builds_one_model(self, built):
        # Iterates and Armijo candidates are arrays; only the result is a
        # model, however many steps the solve takes.
        prior, features, data, _ = random_instance(3)
        equalities = ConstraintSet.equalities(features, moments(data, features))
        for prior, a in ((prior, equalities), one_sided_instance(2)):
            built.clear()
            res = project(prior, a)
            assert res.status is Status.CONVERGED and res.iterations > 1
            assert len(built) == 1

    def test_fit_builds_one_model(self, built):
        prior, features, data, _ = random_instance(3)
        res = fit_log_loss(prior, features, data)
        assert res.status is Status.CONVERGED and res.iterations > 1
        assert len(built) == 1


class TestGradientDirection:
    def at(self, lam):
        """The rule's first two arguments at ``lam``: the parameters and the
        member's probabilities."""
        features = FeatureSet(["x", "y"], [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]])
        model = ExpFamModel(three(), features, lam)
        return model.lam, model.to_distribution().probs

    def test_first_call_doubles_the_unit_length(self):
        rule = projection._gradient_direction()
        grad = np.array([0.5, -1.0])
        step, slope, short_t, first_t = rule(*self.at([0.0, 0.0]), grad, 1.0)
        np.testing.assert_array_equal(step, -grad)
        assert slope == -1.25
        assert (short_t, first_t) == (1.0, 2.0)

    def test_curved_step_proposes_the_bb2_length(self):
        rule = projection._gradient_direction()
        rule(*self.at([0.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        # s = (-1, -1), y = (-0.5, -0.25): s.y / y.y = 0.75 / 0.3125.
        _, _, short_t, first_t = rule(
            *self.at([-1.0, -1.0]), np.array([0.5, 0.75]), 0.25
        )
        assert short_t == first_t == 0.75 / 0.3125

    def test_bb2_length_is_capped(self):
        rule = projection._gradient_direction()
        rule(*self.at([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)
        _, _, short_t, first_t = rule(
            *self.at([-1.0, 0.0]), np.array([1.0 - 1e-7, 0.0]), 1.0
        )
        assert short_t == first_t == 1e6

    @pytest.mark.parametrize("t, first", [(0.3, 0.6), (8e5, 1e6)])
    def test_no_curvature_falls_back_to_doubling(self, t, first):
        rule = projection._gradient_direction()
        rule(*self.at([0.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        # s = (-1, -1), y = (0.5, 0): s.y < 0.
        _, _, short_t, first_t = rule(
            *self.at([-1.0, -1.0]), np.array([1.5, 1.0]), t
        )
        assert (short_t, first_t) == (t, first)

    def test_zero_curvature_falls_back_to_doubling(self):
        rule = projection._gradient_direction()
        rule(*self.at([0.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        # s = (-1, 0), y = (0, 0.5): s.y == 0.
        _, _, short_t, first_t = rule(
            *self.at([-1.0, 0.0]), np.array([1.0, 1.5]), 0.5
        )
        assert (short_t, first_t) == (0.5, 1.0)

    def test_each_fit_starts_a_fresh_rule(self, monkeypatch):
        made = []
        make = projection._gradient_direction

        def counted():
            made.append(1)
            return make()

        monkeypatch.setattr(projection, "_gradient_direction", counted)
        prior, features, data, _ = random_instance(3)
        fit_log_loss(prior, features, data)
        fit_log_loss(prior, features, data)
        assert len(made) == 2


class TestRobustBayes:
    def test_unconstrained_uniform_is_log_alphabet(self):
        a = ConstraintSet.equalities(FeatureSet.empty(4), [])
        rb = robust_bayes_value(FiniteDistribution.uniform("abcd"), a)
        assert rb.entropy_reading
        assert rb.value == pytest.approx(math.log(4), abs=1e-12)

    def test_bernoulli_tail_value(self):
        a = ConstraintSet(coin_feature(), ["ge"], [0.8])
        rb = robust_bayes_value(coin(), a)
        assert rb.value == pytest.approx(0.5004024235381879, abs=1e-9)

    def test_vertex_constraint_value_zero(self):
        a = ConstraintSet.equalities(three_feature(), [2.0])
        rb = robust_bayes_value(three(), a)
        assert rb.value == pytest.approx(0.0, abs=1e-6)

    def test_non_uniform_prior_returns_discrimination_value(self):
        prior = FiniteDistribution(["0", "1"], [0.4, 0.6])
        a = ConstraintSet.equalities(coin_feature(), [0.8])
        rb = robust_bayes_value(prior, a)
        assert not rb.entropy_reading
        res = project(prior, a)
        assert rb.value == pytest.approx(res.min_divergence, abs=1e-12)

    def test_infeasible_raises(self):
        a = ConstraintSet.equalities(three_feature(), [3.0])
        with pytest.raises(InputError):
            robust_bayes_value(three(), a)


class TestSolverOptions:
    def test_json_round_trip(self):
        opts = SolverOptions(moment_tol=1e-10, max_iter=77, trace=True)
        again = SolverOptions.from_json(opts.to_json())
        assert again == opts

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError):
            SolverOptions.from_json({"momentum": 0.9})

    @pytest.mark.parametrize("obj", [[1, 2], "max_iter", 5])
    def test_non_object_rejected(self, obj):
        with pytest.raises(InputError, match="solver options: expected a JSON object"):
            SolverOptions.from_json(obj)

    def test_seed_is_not_an_option(self):
        # No solver draws random numbers.
        with pytest.raises(InputError, match="seed"):
            SolverOptions.from_json({"seed": 0})

    @pytest.mark.parametrize("value", ["1e-9", 0, -1e-9, math.inf, math.nan, True, None])
    def test_moment_tol_validated(self, value):
        with pytest.raises(InputError, match="moment_tol"):
            SolverOptions.from_json({"moment_tol": value})

    @pytest.mark.parametrize("value", ["5", 5.0, 0, -3, True, None])
    def test_max_iter_validated(self, value):
        with pytest.raises(InputError, match="max_iter"):
            SolverOptions.from_json({"max_iter": value})

    @pytest.mark.parametrize("value", ["1e4", 0.0, -1.0, math.inf, math.nan, False])
    def test_lambda_cap_validated(self, value, tmp_path, capsys):
        # There is no bound on lam: the units of the features set its size.
        # A file that still sets one is refused, whatever the value.
        with pytest.raises(InputError, match=r"unknown fields \['lambda_cap'\]"):
            SolverOptions.from_json({"lambda_cap": value})

        def write(name, obj):
            (tmp_path / name).write_text(dump_json(obj))
            return str(tmp_path / name)

        a = ConstraintSet(three_feature(), ["eq"], [1.0])
        argv = ["project", "--prior", write("p.json", three().to_json())]
        argv += ["--constraints", write("a.json", a.to_json())]
        argv += ["--solver-options", write("o.json", {"lambda_cap": value})]
        assert main(argv) == 2
        assert "unknown fields ['lambda_cap']" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-6", 0, -1e-6, math.inf, math.nan, [1e-6]])
    def test_equiv_tol_validated(self, value):
        with pytest.raises(InputError, match="equiv_tol"):
            SolverOptions.from_json({"equiv_tol": value})

    @pytest.mark.parametrize("value", ["true", 1, 0, None])
    def test_trace_validated(self, value):
        with pytest.raises(InputError, match="trace"):
            SolverOptions.from_json({"trace": value})

    def test_valid_values_accepted(self):
        opts = SolverOptions.from_json(
            {"moment_tol": 1, "max_iter": 3, "equiv_tol": 0.5}
        )
        assert opts == SolverOptions(moment_tol=1.0, max_iter=3, equiv_tol=0.5)
