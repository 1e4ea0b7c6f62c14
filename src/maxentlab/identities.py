"""Numerical certification of the loss/energy/divergence identities as a
reusable diagnostics suite.

Each check returns an :class:`IdentityReport` with the two sides, their
residual, the tolerance applied, and a pass flag.  Inequality checks are
one-sided: only violations in the forbidden direction count.  Tolerances
follow a fixed ladder: 1e-10 (``TOL_CLOSED_FORM``) for identities with no
solver output (the multiplicity bound, the nested-event formula) and for
the sign of each Bogoliubov gap; 1e-9 (``TOL_BOUND``) for the Bogoliubov
gap-versus-divergence residuals and the data-approximates-family
sandwich; 1e-8 (``TOL_ONE_SOLVER``) for the identities that take a
projection's output.  A distribution a check requires to meet a model's
moments must do so within ``dist.MEMBERSHIP_TOL`` (1e-9).

Identities whose textbook form assumes a uniform prior (the entropy form
of the approximation error, and loss evaluation by substituting the
projected distribution) are checked in their prior-relative general form
for non-uniform priors; the mode used is recorded in the report details.

Random instances build no object and solve no LP in their inner loops:
the lower Bogoliubov bound's energy match, linear in the scale, is solved
in closed form before the upper bound's scan, which evaluates its
objective on the whole scale grid in one array call; each projection of
an instance certifies its targets interior by its member, else by the
distribution whose moments it matches (:func:`_project_to_moments`); both
give the output of the paths they replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._rng import MAX_SEED, random_simplex, substream
from .dist import (
    MEMBERSHIP_TOL,
    ConstraintSet,
    FeatureSet,
    FiniteDistribution,
    _same_prior,
    cross_entropy,
    entropy,
    kl_divergence,
    moments,
)
from .errors import (
    ConstraintViolation,
    ConvergenceError,
    DomainError,
    EnergyMatchingError,
)
from .expfam import (
    ExpFamModel,
    _family_arrays,
    _member,
    free_energy,
    mean_parameters,
)
from .jsonio import _fields_json
from .projection import ProjectionResult, SolverOptions, _require_on_support, project

if TYPE_CHECKING:  # pragma: no cover
    from .sanov import SanovReport

TOL_CLOSED_FORM = 1e-10
TOL_BOUND = 1e-9
TOL_ONE_SOLVER = 1e-8

# Random instances: alphabet sizes 3.._MAX_OUTCOMES, 1.._MAX_FEATURES
# features, parameters uniform in +-_LAMBDA_SCALE, solved at _INSTANCE_OPTS.
_MAX_OUTCOMES = 20
_MAX_FEATURES = 4
_LAMBDA_SCALE = 3.0
_INSTANCE_OPTS = SolverOptions(moment_tol=1e-11, max_iter=500)
# Variational candidates tried per target parameter draw, and draws of the
# target parameters before random_instance gives up.
_CANDIDATES = 64
_TARGET_DRAWS = 8


@dataclass(frozen=True)
class IdentityReport:
    """One certified identity: both sides, residual, tolerance, verdict."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tol: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = _fields_json(self)
        out["pass"] = out.pop("passed")
        return out


def _report(
    name: str,
    lhs: float,
    rhs: float,
    tol: float,
    details: dict,
    one_sided: bool = False,
    residual: float | None = None,
) -> IdentityReport:
    """The report of one check.  The residual is ``lhs - rhs`` unless given;
    a two-sided check passes when ``|residual| <= tol``, a one-sided one
    (``lhs <= rhs``) when ``residual <= tol``."""
    if residual is None:
        residual = lhs - rhs
    passed = residual <= tol if one_sided else abs(residual) <= tol
    return IdentityReport(name, lhs, rhs, residual, tol, bool(passed), details)


def _require_member(p: FiniteDistribution, model: ExpFamModel, what: str) -> None:
    """Raise unless ``p`` meets the moments of ``model``."""
    if not model.dim:
        return
    mism = float(np.max(np.abs(moments(p, model.features) - mean_parameters(model))))
    if mism > MEMBERSHIP_TOL:
        raise ConstraintViolation(
            f"{what}: distribution does not meet the model's moments "
            f"(off by {mism:.2e})"
        )


def _project_to_moments(
    prior: FiniteDistribution,
    features: FeatureSet,
    q: FiniteDistribution,
    opts: SolverOptions,
) -> ProjectionResult:
    """Project ``prior`` onto the moments of ``q``, which certifies them
    interior when the converged member does not.  A ``q`` with mass off
    the prior's support is an input error before any solve."""
    targets = moments(q, features)
    _require_on_support(prior, q)
    constraints = ConstraintSet.equalities(features, targets)
    return project(prior, constraints, opts, witness=q)


def pythagorean(
    p: FiniteDistribution, star: ProjectionResult, model: ExpFamModel
) -> IdentityReport:
    """Regret decomposition ``D(P||P_lam) = D(P*||P_lam) + D(P||P*)``.

    Requires ``p`` to satisfy the moment constraints of the projection and
    ``model`` to lie in the same family.
    """
    if not star.model.same_family(model):
        raise DomainError("model must share the projection's prior and features")
    _require_member(p, star.model, "pythagorean")
    p_star = star.model.to_distribution()
    p_model = model.to_distribution()
    regret = kl_divergence(p, p_model)
    estimation = kl_divergence(p_star, p_model)
    approximation = kl_divergence(p, p_star)
    details = dict(
        regret=regret, estimation_error=estimation, approximation_error=approximation
    )
    return _report(
        "pythagorean", regret, estimation + approximation, TOL_ONE_SOLVER, details
    )


def robustness(
    q: FiniteDistribution, a: ExpFamModel, b: ExpFamModel
) -> IdentityReport:
    """``D(Q||P_b) - D(Q||P_a) = D(P_a||P_b)`` whenever ``Q`` matches the
    moments of ``P_a``; the same difference in cross-entropy form is
    verified alongside and the larger residual is reported.
    """
    if not a.same_family(b):
        raise DomainError("both models must share prior and features")
    _require_member(q, a, "robustness")
    pa = a.to_distribution()
    pb = b.to_distribution()
    rhs = kl_divergence(pa, pb)
    lhs_kl = kl_divergence(q, pb) - kl_divergence(q, pa)
    lhs_ce = cross_entropy(q, pb) - cross_entropy(q, pa)
    residual_kl = lhs_kl - rhs
    residual_ce = lhs_ce - rhs
    return _report(
        "robustness",
        lhs_kl,
        rhs,
        TOL_ONE_SOLVER,
        {"kl_form_residual": residual_kl, "cross_entropy_form_residual": residual_ce},
        residual=max(residual_kl, residual_ce, key=abs),
    )


def _upper_defect(target: ExpFamModel, variational: ExpFamModel):
    """The upper bound's energy-matching objective of the scale ``c``:
    ``U_target(P_c) - U_c(P_c)`` with ``P_c`` the variational member at
    parameters ``c psi``.

    For a scalar ``c``, ``P_c`` comes from :func:`~maxentlab.expfam._member`,
    with the bits of ``variational.with_lambda(c * psi).to_distribution()``;
    the objective is ``c psi . E_c[g] - lam . E_c[f]``.  A 1-D array of
    scales stacks the members, one row each, in one max-shifted log-sum-exp
    pass over the support: the same values up to rounding.
    """
    family = _family_arrays(target.prior, variational.features)
    f, g = target.features.matrix, variational.features.matrix
    lam, psi = target.lam, variational.lam
    mask = family[1]
    log_prior, f_support, g_support = family[0][mask], f[:, mask], g[:, mask]

    def upper_defect(c):
        if np.ndim(c):
            c_psi = np.outer(c, psi)
            scores = log_prior + c_psi @ g_support
            q = np.exp(scores - scores.max(axis=1, keepdims=True))
            q /= q.sum(axis=1, keepdims=True)
            return (c_psi * (q @ g_support.T)).sum(1) - (q @ f_support.T) @ lam
        c_psi = c * psi
        q = _member(*family, c_psi)[1]
        return float(np.dot(c_psi, g @ q)) - float(np.dot(lam, f @ q))

    return upper_defect


# The energy-matching scales: the scan's grid, in order, whose ends bound
# every matched scale.
_SCALE_GRID = np.geomspace(1e-3, 1e3, 61)
_NO_MATCH = "no parameter scaling in [1e-3, 1e3] matches the energies"


def brentq(
    f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100
) -> float:
    """Root of ``f`` on the bracket ``[a, b]`` by Brent's method (Brent 1973,
    *Algorithms for Minimization without Derivatives*, ch. 4).

    A port of scipy's ``brentq.c``, float operation for float operation, so
    the root is scipy's ``brentq`` root bit for bit.  Both ends are
    evaluated first, and an end where ``f`` is exactly zero is the root.
    Then each iteration keeps the bracket ``[xcur, xblk]`` with ``xcur``
    the end of smaller ``|f|``, stops once half the bracket is under
    ``delta = (xtol + rtol |xcur|) / 2``, and steps by inverse quadratic
    extrapolation or secant interpolation when that step is short enough,
    else by bisection; a step is at least ``delta`` long.

    Raises :class:`DomainError` when ``f(a)`` and ``f(b)`` have the same
    sign, and :class:`ConvergenceError` when ``f`` returns NaN or
    ``maxiter`` iterations leave the bracket wider than the tolerance.
    """
    a, b = float(a), float(b)

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ConvergenceError(
                f"root search on [{a!r}, {b!r}]: the objective is NaN at {x!r}"
            )
        return fx

    def negative(fx: float) -> bool:  # the sign bit, as C's signbit
        return math.copysign(1.0, fx) < 0.0

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise DomainError(
            f"root search on [{a!r}, {b!r}]: the objective has one sign at both ends"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre)
                    stry /= dblk * dpre * (fblk - fpre)
            except ZeroDivisionError:  # C's inf or NaN step, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(
        f"root search on [{a!r}, {b!r}]: no convergence in {maxiter} iterations"
    )


def _match_scale(objective) -> float:
    """Root of the upper bound's energy-matching condition on the scale ``c``.

    ``objective`` takes a scale or a 1-D array of scales.  One array call
    evaluates the log-spaced grid; the first exact zero or sign change in
    grid order wins, and :func:`brentq`, the package's port of scipy's,
    solves that bracket on the scalar objective: scipy's root, bit for bit.
    Raises when no bracket exists inside ``[1e-3, 1e3]``.
    """
    values = objective(_SCALE_GRID)
    hits = values == 0.0
    hits[1:] |= values[:-1] * values[1:] < 0
    if not hits.any():
        raise EnergyMatchingError(_NO_MATCH)
    k = int(hits.argmax())
    if values[k] == 0.0:
        return float(_SCALE_GRID[k])
    lo, hi = _SCALE_GRID[k - 1], _SCALE_GRID[k]
    return brentq(objective, lo, hi, xtol=1e-14, rtol=1e-15)


def bogoliubov(
    target: ExpFamModel, variational: ExpFamModel
) -> tuple[IdentityReport, IdentityReport]:
    """Variational free-energy bounds with energy-matched scalings.

    Upper bound: scale the variational parameters so both energy functions
    agree under the variational distribution; then its free energy sits
    above the target's, with gap exactly ``D(P_psi || P_lam)``.  Lower
    bound: match the energies under the target distribution instead; the
    gap is ``-D(P_lam || P_psi)``.  Each report's residual is the gap
    mismatch; the sign condition is folded into the pass flag.

    The lower condition, ``U_target + c psi . E_target[g] = 0``, is linear
    in ``c`` and solved in closed form first, so a family it rejects (a
    zero slope, or a root outside ``[1e-3, 1e3]``) costs no upper scan.
    The upper condition is scanned on the scale grid in one array call and
    solved by Brent's method on its scalar form (:func:`_match_scale`,
    :func:`brentq`, :func:`_upper_defect`), so models are built only for
    the two matched scales.  Both bounds share one body and the target's energies, which
    the target model evaluates once for every variational family scaled
    against it.
    """
    if not _same_prior(target.prior, variational.prior):
        raise DomainError("both families must share the same prior")
    p_target = target.to_distribution()
    u_target, f_target = target._energies
    psi = variational.lam
    slope = float(np.dot(psi, moments(p_target, variational.features)))
    lower = -u_target / slope if slope else math.nan
    if not _SCALE_GRID[0] <= lower <= _SCALE_GRID[-1]:
        raise EnergyMatchingError(_NO_MATCH)
    upper = _match_scale(_upper_defect(target, variational))

    reports = []
    # sign +1: the upper bound, gap = +D(P_c || P_lam) >= 0; sign -1: the
    # lower bound, gap = -D(P_lam || P_c) <= 0.
    for name, sign, c in (
        ("bogoliubov_upper", 1.0, upper),
        ("bogoliubov_lower", -1.0, lower),
    ):
        scaled = variational.with_lambda(c * psi)
        p_c = scaled.to_distribution()
        f_c = free_energy(scaled, p_c)
        gap = f_c - f_target
        kl = kl_divergence(p_c, p_target) if sign > 0 else kl_divergence(p_target, p_c)
        residual = gap - sign * kl
        passed = abs(residual) <= TOL_BOUND and sign * gap >= -TOL_CLOSED_FORM
        details = {"gap": gap, "kl": kl, "scale": c}
        reports.append(
            IdentityReport(
                name, f_c, f_target, residual, TOL_BOUND, bool(passed), details
            )
        )
    return tuple(reports)


def approximation_error_entropy(
    p: FiniteDistribution, star: ProjectionResult
) -> IdentityReport:
    """Approximation error against the projection, in entropy form.

    Uniform prior: ``D(P||P*) = H(P*) - H(P)``.  Other priors use the
    general form ``D(P||P*) = D(P||P0) - D(P*||P0)``; the mode is recorded.
    """
    _require_member(p, star.model, "approximation_error_entropy")
    p_star = star.model.to_distribution()
    prior = star.model.prior
    lhs = kl_divergence(p, p_star)
    if prior.is_uniform():
        rhs = entropy(p_star) - entropy(p)
        mode = "uniform-entropy"
    else:
        rhs = kl_divergence(p, prior) - kl_divergence(p_star, prior)
        mode = "prior-relative"
    return _report(
        "approximation_error_entropy", lhs, rhs, TOL_ONE_SOLVER, {"mode": mode}
    )


def pretend_data_identity(
    p: FiniteDistribution, star: ProjectionResult, model: ExpFamModel
) -> IdentityReport:
    """Loss evaluation by substituting the projection for the data:
    ``H(P, P_lam) = H(P*, P_lam)`` for every ``P`` meeting the constraints.

    The cross-entropy form needs a uniform prior (the prior term is then
    constant); otherwise the prior-corrected difference is checked and the
    mode recorded.
    """
    if not star.model.same_family(model):
        raise DomainError("model must share the projection's prior and features")
    _require_member(p, star.model, "pretend_data_identity")
    p_star = star.model.to_distribution()
    p_model = model.to_distribution()
    prior = star.model.prior
    lhs = cross_entropy(p, p_model)
    rhs = cross_entropy(p_star, p_model)
    if prior.is_uniform():
        mode = "uniform-cross-entropy"
    else:
        rhs = rhs + (cross_entropy(p, prior) - cross_entropy(p_star, prior))
        mode = "prior-relative"
    return _report("pretend_data_identity", lhs, rhs, TOL_ONE_SOLVER, {"mode": mode})


def entropy_multiplicity_bound(
    star: ProjectionResult, sanov: "SanovReport"
) -> IdentityReport:
    """Multiplicity bound under a uniform prior: the per-sample log
    probability of the event never exceeds ``H(P*) - log |X|``."""
    prior = star.model.prior
    if not prior.is_uniform():
        raise DomainError("the multiplicity bound requires a uniform prior")
    h_star = entropy(star.model.to_distribution())
    lhs = sanov.log_prob / sanov.n
    rhs = h_star - math.log(len(prior))
    return _report(
        "entropy_multiplicity_bound",
        lhs,
        rhs,
        TOL_CLOSED_FORM,
        {"entropy_star": h_star},
        one_sided=True,
    )


def data_approximates_family(
    star: ProjectionResult, prior: FiniteDistribution, sanov: "SanovReport"
) -> IdentityReport:
    """Two-sided sandwich on the per-sample event log probability:
    ``-D(P*||P) >= (1/n) log Pr >= -H(P*, P)``.

    The sandwich width is the entropy of the projected distribution and is
    reported in the details.
    """
    p_star = star.model.to_distribution()
    upper = -kl_divergence(p_star, prior)
    lower = -cross_entropy(p_star, prior)
    mid = sanov.log_prob / sanov.n
    return _report(
        "data_approximates_family",
        mid,
        upper,
        TOL_BOUND,
        {
            "upper": upper,
            "lower": lower,
            "sandwich_width": upper - lower,
            "entropy_star": entropy(p_star),
        },
        one_sided=True,
        # The larger excess over the two ends of the sandwich.
        residual=max(mid - upper, lower - mid),
    )


@dataclass(frozen=True)
class InstanceDescriptor:
    seed: int
    alphabet_size: int
    num_features: int
    prior_mode: str

    def to_json(self) -> dict:
        return _fields_json(self)


@dataclass(frozen=True)
class IdentityInstance:
    """One randomly generated (prior, features, data, model) quadruple with
    its projection, ready to feed every identity check."""

    descriptor: InstanceDescriptor
    prior: FiniteDistribution
    features: FeatureSet
    data: FiniteDistribution
    star: ProjectionResult
    model: ExpFamModel
    matched_data: FiniteDistribution
    variational: ExpFamModel
    bogoliubov_reports: tuple[IdentityReport, IdentityReport]


def _bracketed_variational(rng: np.random.Generator, model: ExpFamModel):
    """The first of ``_CANDIDATES`` seeded variational families whose
    energies match ``model``'s at a scale of the grid, with its two
    Bogoliubov reports; ``None`` when none matches.  The scaled member
    keeps the prior's support, so both gaps are finite."""
    prior, features, lam = model.prior, model.features, model.lam
    d, k = features.matrix.shape
    for attempt in range(_CANDIDATES):
        if attempt < 4:
            # Unstructured candidate first, for diversity.
            d_var = int(rng.integers(1, _MAX_FEATURES + 1))
            g_matrix = rng.normal(0.0, 1.0, size=(d_var, k))
            psi = rng.uniform(-_LAMBDA_SCALE, _LAMBDA_SCALE, d_var)
        else:
            # Affinely perturbed copy of the target family; its energy
            # curves usually cross the target's near c = 1/s.
            s = rng.uniform(0.5, 2.0)
            g_matrix = features.matrix + rng.normal(0.0, 0.1, size=(d, k))
            psi = s * lam + rng.normal(0.0, 0.1 * max(np.max(np.abs(lam)), 0.1), d)
            d_var = d
        g = FeatureSet(tuple(f"g{i}" for i in range(d_var)), g_matrix)
        cand = ExpFamModel(prior, g, psi)
        try:
            return cand, bogoliubov(model, cand)
        except EnergyMatchingError:
            continue
    return None


def random_instance(seed: int) -> IdentityInstance:
    """Deterministically generate one diagnostics instance from a seed.

    Data distributions are drawn on the simplex and the constraint targets
    are set to the data's own moments, so membership holds by
    construction.  The variational family is resampled (seeded) until its
    energy-matching bracket exists, and the target parameters are redrawn
    when no candidate has one; the Bogoliubov reports of the accepted
    candidate are kept on the instance.
    """
    rng = substream(seed, 0)
    k = int(rng.integers(3, _MAX_OUTCOMES + 1))
    d = int(rng.integers(1, _MAX_FEATURES + 1))
    uniform = bool(rng.random() < 0.5)
    outcomes = tuple(f"x{i}" for i in range(k))
    if uniform:
        prior = FiniteDistribution.uniform(outcomes)
    else:
        prior = FiniteDistribution(outcomes, random_simplex(rng, k, 0.1))
    features = FeatureSet(
        tuple(f"f{i}" for i in range(d)), rng.normal(0.0, 1.0, size=(d, k))
    )
    data = FiniteDistribution(outcomes, random_simplex(rng, k, 0.05))
    star = _project_to_moments(prior, features, data, _INSTANCE_OPTS)
    lam = rng.uniform(-_LAMBDA_SCALE, _LAMBDA_SCALE, size=d)
    perturbed = FiniteDistribution(outcomes, random_simplex(rng, k, 0.05))
    # The target parameters are redrawn when no variational candidate
    # brackets its energy match (seen when the target's internal energy is
    # near 0, which moves the match below c = 1e-3).
    for _ in range(_TARGET_DRAWS):
        model = ExpFamModel(prior, features, lam)
        found = _bracketed_variational(rng, model)
        if found is not None:
            break
        lam = rng.uniform(-_LAMBDA_SCALE, _LAMBDA_SCALE, size=d)
    else:
        raise EnergyMatchingError(f"no variational bracket found for seed {seed}")
    variational, bogoliubov_reports = found

    # A second member of the family plus a distribution matched to its
    # moments (via projection of a perturbed simplex point).
    matched = _project_to_moments(
        perturbed, features, model.to_distribution(), _INSTANCE_OPTS
    )
    matched_data = matched.model.to_distribution()

    descriptor = InstanceDescriptor(
        seed=seed,
        alphabet_size=k,
        num_features=d,
        prior_mode="uniform" if uniform else "random",
    )
    return IdentityInstance(
        descriptor=descriptor,
        prior=prior,
        features=features,
        data=data,
        star=star,
        model=model,
        matched_data=matched_data,
        variational=variational,
        bogoliubov_reports=bogoliubov_reports,
    )


def run_instance(instance: IdentityInstance) -> list[IdentityReport]:
    """All identity checks that apply to one instance."""
    reports = [
        pythagorean(instance.data, instance.star, instance.model),
        robustness(instance.matched_data, instance.model, instance.star.model),
        approximation_error_entropy(instance.data, instance.star),
        pretend_data_identity(instance.data, instance.star, instance.model),
    ]
    # bogoliubov(instance.model, instance.variational), as probed when the
    # instance was generated.
    reports.extend(instance.bogoliubov_reports)
    return reports


def run_identity_suite(
    num_instances: int, seed: int = 0
) -> list[tuple[InstanceDescriptor, list[IdentityReport]]]:
    """Run the diagnostics over seeded random instances.

    Instance ``i`` uses seed ``seed + i``; results are pure data and the
    inputs are never mutated.  Instance seeds outside 0..2**64 - 1 raise
    :class:`DomainError` before the first instance runs.
    """
    if seed < 0 or seed + num_instances - 1 > MAX_SEED:
        raise DomainError(
            f"seed {seed} with {num_instances} instances: instance seeds "
            "(seed + i) leave 0..2**64 - 1"
        )
    out = []
    for i in range(num_instances):
        instance = random_instance(seed + i)
        out.append((instance.descriptor, run_instance(instance)))
    return out
