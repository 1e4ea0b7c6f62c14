"""Information projection ``argmin_{Q in A} D(Q || P)`` via its convex dual.

For constraints ``E_Q[f] = alpha`` the dual objective is
``g(lam) = A(lam) - lam . alpha``, a smooth convex function whose gradient
is ``E_{P_lam}[f] - alpha`` and whose Hessian is the Fisher information.
The same function, up to the constant ``H(data, P)``, is the log loss
``H(data, P_lam)`` of the family when ``alpha`` is the data's moments, so
:func:`project` and :func:`fit_log_loss` share one descent loop,
:func:`_solve`, which evaluates iterates on arrays through the family's
one member kernel and builds one model per result.  They differ only in
the direction rule and the iteration budget.  :func:`project` takes damped
Newton steps (a Levenberg shift when the Fisher matrix is near-singular);
:func:`fit_log_loss` takes gradient steps with Barzilai-Borwein lengths
and never forms the Fisher matrix, so the agreement of the two is an
independent check.

``ge`` and ``le`` constraints confine the dual to an orthant (``lam_i >= 0``,
``lam_i <= 0``), where the same loop on the same path runs projected Newton
(Bertsekas 1982); an ``eq`` coordinate is never clipped or held at a bound,
so :func:`project` takes every kind.  The I-projection lies in the family
exactly when the targets meet the relative interior of the moment polytope
(Csiszar 1975), so a converged member, corrected onto the constraints, is
its own certificate of feasibility (:func:`_certifies_interior`).
Infeasibility has a certificate inside the descent: on attainable targets
weak duality bounds ``g`` below by ``log min_S P`` over the prior's
support ``S``, so an iterate below that floor ends the solve
(:func:`_below_dual_floor`) with no further step.  A descent ends at
tolerance, below the floor or at its budget, never at a bound on ``lam``,
whose size the units of the features set.  The refuted iterate is itself
the certificate: ``A(lam) >= log min_S P + max_S lam . f`` makes
``lam . alpha > max_S lam . f``, so ``lam`` separates the targets from the
polytope.  Only what neither a member nor a caller's witness certifies nor
the floor refutes, a solve that spends its budget included, runs the one
interior LP (:func:`check_feasibility`) over the simplex restricted to the
prior's support, on feature rows divided by their largest magnitude there.
It substitutes ``q = s + t 1`` so that "every outcome has mass at least t"
needs no per-outcome row: d + 1 rows and K + 1 columns for K supported
outcomes and d constraints.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from ._scipy import linprog
from .dist import (
    ConstraintSet,
    FeatureSet,
    FiniteDistribution,
    _check_same_alphabet,
    _require_keys,
    entropy,
    kl_divergence,
    moments,
)
from .errors import ConvergenceError, InputError, SupportViolation
from .expfam import (
    ExpFamModel,
    _covariance,
    _family_arrays,
    _member,
    mean_parameters,
)
from .jsonio import _fields_json

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_INTERIOR_TOL = 1e-12
_CERTIFICATE_MARGIN = 1e-9
_FLOOR_SLACK = 1e-6
_UNIT_ROUNDOFF = 2.0**-53
_GD_MAX_ITER = 100_000


class Status(str, enum.Enum):
    CONVERGED = "converged"
    INFEASIBLE = "infeasible"
    BOUNDARY_NONATTAINED = "boundary-nonattained"


_OPTION_KINDS = {
    bool: "true or false",
    int: "a positive integer",
    float: "a positive finite number",
}


@dataclass(frozen=True)
class SolverOptions:
    moment_tol: float = 1e-9
    max_iter: int = 200
    trace: bool = False

    def to_json(self) -> dict:
        return _fields_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SolverOptions":
        """Options from a JSON object; every field is optional, and a wrong
        field, type or range raises :class:`InputError`."""
        _require_keys(obj, (), "solver options")
        bad = set(obj) - set(cls.__dataclass_fields__)
        if bad:
            raise InputError(f"solver options: unknown fields {sorted(bad)}")
        for name, value in obj.items():
            kind = type(getattr(cls, name))  # the default's type
            if kind is bool:
                ok = isinstance(value, bool)
            else:
                number = int if kind is int else (int, float)
                ok = type(value) is not bool and isinstance(value, number)
                ok = ok and 0 < value < math.inf
            if not ok:
                raise InputError(
                    f"solver options: {name} must be {_OPTION_KINDS[kind]}, "
                    f"got {value!r}"
                )
        return cls(**obj)


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    dual_value: float
    grad_norm: float


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of one projection solve.

    On ``CONVERGED`` the moment residual is below tolerance and the dual
    value ``lam* . alpha - A(lam*)`` equals ``min_divergence``.  On
    ``BOUNDARY_NONATTAINED`` the returned model is the descent's last
    iterate (the supremum is approached but not attained).  On
    ``INFEASIBLE`` the model is the prior and ``min_divergence`` is
    infinite.

    The JSON form leaves out ``model``: ``ExpFamModel(prior, features,
    lambda_star)`` rebuilds it from the solve's inputs.
    """

    lambda_star: np.ndarray
    model: ExpFamModel
    min_divergence: float
    moment_residual: np.ndarray
    iterations: int
    status: Status
    trace: tuple[TracePoint, ...] = field(default=())

    def to_json(self) -> dict:
        out = _fields_json(self)
        del out["model"]
        return out


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether the targets intersect the moment polytope of the features
    (``in_hull``), and whether only its relative boundary (``on_boundary``).

    Infeasible targets are separated from the polytope by the solvers, not
    here: the iterate the weak-duality floor refutes is a separating
    direction (:func:`_below_dual_floor`).
    """

    in_hull: bool
    on_boundary: bool


def _row_scale(f: np.ndarray) -> np.ndarray:
    """Each feature row's largest magnitude over the columns of ``f``, 1
    for a zero row."""
    scale = np.abs(f).max(axis=1)
    return np.where(scale > 0.0, scale, 1.0)


def _constraint_rows(constraints: ConstraintSet, support: np.ndarray):
    """Split constraints into linprog-style equality/upper-bound rows, each
    row and its target divided by the row's :func:`_row_scale` on the
    support so that the LP's absolute tolerances read every row at its own
    scale; a ``ge`` row is negated into ``-f . q <= -target``."""
    f = constraints.features.matrix[:, support]
    scale = _row_scale(f)
    f, targets = f / scale[:, None], constraints.targets / scale
    sign = constraints._sign
    eq, ub = sign == 0, sign != 0
    flip = -sign[ub]
    return f[eq], targets[eq], f[ub] * flip[:, None], targets[ub] * flip


def _with_t_column(block: np.ndarray) -> np.ndarray | None:
    """Append the column of ``t`` to LP rows over ``s``.

    With ``q = s + t 1`` a row ``a . q`` becomes ``a . s + (sum a) t``.
    """
    if not len(block):
        return None
    return np.hstack([block, block.sum(axis=1, keepdims=True)])


def check_feasibility(
    prior: FiniteDistribution, constraints: ConstraintSet
) -> FeasibilityReport:
    """Decide whether the targets are attainable by a distribution on the
    prior's support, and whether only on the polytope boundary.

    The boundary test asks for a feasible distribution with mass at least
    ``t > 0`` on every supported outcome: such a point exists exactly when
    the targets meet the relative interior, which is also exactly when the
    dual optimum is attained at finite parameters.  Writing ``q = s + t 1``
    with ``s, t >= 0`` turns ``q_j >= t`` into variable bounds, so the LP
    maximizing ``t`` has d + 1 rows (the moment rows and the normalization
    ``sum s + K t = 1``, which also bounds ``t <= 1/K``) and K + 1 columns
    over the K supported outcomes.

    Each feature row and its target are divided by the row's largest
    magnitude on the support first, which leaves the polytope's shape and
    ``t*`` as they are and puts HiGHS's absolute tolerances on one scale.
    This is the solvers' only LP, and they run it only when their descent
    neither certifies an interior point nor falls below the weak-duality
    floor, whose refuted iterate separates the targets from the polytope.

    Raises :class:`ConvergenceError` when the LP solver stops without
    either an optimum or a proof of infeasibility.
    """
    constraints.features.check_alphabet(prior)
    if constraints.dim == 0:
        return FeasibilityReport(in_hull=True, on_boundary=False)
    support = prior.support
    k = int(support.sum())
    a_eq, b_eq, a_ub, b_ub = _constraint_rows(constraints, support)
    a_eq = np.vstack([a_eq, np.ones(k)])
    b_eq = np.append(b_eq, 1.0)

    c = np.zeros(k + 1)
    c[-1] = -1.0  # maximize t
    res = linprog(
        c,
        A_eq=_with_t_column(a_eq),
        b_eq=b_eq,
        A_ub=_with_t_column(a_ub),
        b_ub=b_ub if len(b_ub) else None,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 0:
        t_star = float(res.x[-1])
        return FeasibilityReport(in_hull=True, on_boundary=t_star <= _INTERIOR_TOL)
    if res.status == 2:
        return FeasibilityReport(in_hull=False, on_boundary=False)
    raise ConvergenceError(
        f"feasibility LP stopped with HiGHS status {res.status}: {res.message}"
    )


def _certifies_interior(f, alpha, sign, lam, p, margin: float) -> bool:
    """Whether the masses ``p`` on the prior's support, corrected by the
    minimum-norm ``delta`` that makes them sum to 1 and meets exactly the
    ``eq`` rows of ``f`` (on the support), the rows with ``lam_i != 0`` and
    the one-sided rows ``p`` violates, are a feasible point (every row held
    within ``_INTERIOR_TOL`` times the largest feature value) with every mass
    above ``margin``, so that the interior LP's ``t*`` is at least ``margin``.
    ``delta`` solves on the rows' Gram matrix, so nothing K x K is built.
    """
    residual = f @ p - alpha
    exact = (sign == 0) | (lam != 0) | (sign * residual < 0)
    rows = np.concatenate([f[exact], np.ones((1, len(p)))])
    gram, gap = rows @ rows.T, np.concatenate([-residual[exact], [1.0 - p.sum()]])
    try:
        point = p + np.linalg.solve(gram, gap) @ rows
    except np.linalg.LinAlgError:  # dependent rows
        point = p + np.linalg.lstsq(gram, gap, rcond=None)[0] @ rows
    after = f @ point - alpha
    slip = np.where(exact, np.abs(after), -sign * after)
    off = max(float(slip.max()), abs(point.sum() - 1.0))
    tol = _INTERIOR_TOL * max(1.0, float(np.abs(f).max()))
    return bool(off <= tol and point.min() > margin)


def _below_dual_floor(g: float, lam, alpha, log_floor: float, row_scale) -> bool:
    """Whether the dual value ``g = g(lam)`` proves the targets infeasible.

    For any ``Q`` on the prior's support ``S`` that meets the targets, weak
    duality gives ``g(lam) >= -D(Q || P) >= log min_S P`` (``log_floor``) at
    every ``lam`` on the sign orthant, so a value below that floor is a
    certificate of infeasibility, and ``lam`` separates: ``A(lam) >=
    log min_S P + max_S lam . f`` gives ``lam . alpha > max_S lam . f``.
    The margin covers the rounding of ``g``'s two terms,
    ``8 (d + 2) u (|g| + sum |lam_i alpha_i|)``, plus
    ``1e-6 sum_i |lam_i| s_i`` with ``s_i`` row ``i``'s :func:`_row_scale`
    on ``S``: the floor then also holds for every target moved by
    ``1e-6 s_i`` in each row, ten times the LP solver's primal tolerance on
    the LP's scaled rows, so the LP would read the targets infeasible too.
    """
    if g >= log_floor:  # the margin only lowers the floor
        return False
    rounding = 8 * (len(lam) + 2) * _UNIT_ROUNDOFF
    rounding *= abs(g) + float(np.abs(lam * alpha).sum())
    slack = _FLOOR_SLACK * float(np.abs(lam) @ row_scale)
    return g < log_floor - rounding - slack


def _unsolved(
    prior: FiniteDistribution, constraints: ConstraintSet, status: Status
) -> ProjectionResult:
    """The result at ``lam = 0`` of an empty constraint set (``CONVERGED``)
    or of infeasible targets (``INFEASIBLE``), wherever the descent stopped."""
    model = ExpFamModel(prior, constraints.features, np.zeros(constraints.dim))
    return ProjectionResult(
        lambda_star=np.zeros(constraints.dim),
        model=model,
        min_divergence=0.0 if status is Status.CONVERGED else math.inf,
        moment_residual=mean_parameters(model) - constraints.targets,
        iterations=0,
        status=status,
    )


def _result(
    prior: FiniteDistribution,
    features: FeatureSet,
    lam: np.ndarray,
    residual: np.ndarray,
    iterations: int,
    status: Status,
    trace,
) -> ProjectionResult:
    model = ExpFamModel(prior, features, lam)
    return ProjectionResult(
        lambda_star=np.array(model.lam, copy=True),
        model=model,
        min_divergence=kl_divergence(model.to_distribution(), prior),
        moment_residual=residual,
        iterations=iterations,
        status=status,
        trace=tuple(trace),
    )


def _levenberg_shift(hessian: np.ndarray) -> float:
    """Shift ensuring the Newton system is positive definite.

    Uses the exact smallest eigenvalue (d is small here); cheap surrogates
    such as Gershgorin bounds overdamp correlated features badly enough to
    stall convergence.
    """
    smallest = float(np.linalg.eigvalsh(hessian)[0])
    return max(0.0, 1e-10 - smallest)


def _newton_direction(matrix: np.ndarray, lam, q, grad, t, free=None):
    """Levenberg-shifted Newton step on the Fisher matrix of the feature
    rows ``matrix`` under ``q``, or steepest descent if the solve was bad;
    every iteration tries the full step first.  With a ``free`` mask the
    step solves on the free coordinates only, and the others (the binding
    ones) step to 0."""
    hessian, g = _covariance(matrix, q), grad
    if free is not None:
        hessian, g = hessian[np.ix_(free, free)], grad[free]
    step = np.zeros(0)
    if len(g):
        system = hessian + np.diag(np.full(len(g), _levenberg_shift(hessian)))
        try:
            step = np.linalg.solve(system, -g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(system, -g, rcond=None)
    slope = float(np.dot(g, step))
    if slope >= 0.0:
        step = -g
        slope = -float(np.dot(g, g))
    if free is not None:
        full = -lam
        full[free] = step
        step, slope = full, float(np.dot(grad, full))
    return step, slope, 1.0, 1.0


def _gradient_direction():
    """A fresh steepest-descent rule with Barzilai-Borwein lengths.

    The step is ``-grad``.  Its first length is the BB2 length
    ``s . y / y . y`` (Barzilai & Borwein 1988), where ``s`` and ``y`` are
    the changes in ``lam`` and in the gradient since the rule's last call,
    capped at 1e6; the float-resolution step takes the same length.  On
    the first call, and whenever ``s . y <= 0``, the line search starts at
    twice the last accepted length ``t`` and the float-resolution step
    keeps ``t``.  The rule remembers the last ``lam`` and gradient, so
    each solve needs its own.  The log-loss fit has equality constraints
    only, so every coordinate is free; the rule reads neither ``q`` nor
    ``free``.
    """
    last = None

    def direction(lam, q, grad, t, free=None):
        nonlocal last
        short_t, first_t = t, min(t * 2.0, 1e6)
        if last is not None:
            s, y = lam - last[0], grad - last[1]
            sy = float(np.dot(s, y))
            if sy > 0.0:
                short_t = first_t = min(sy / float(np.dot(y, y)), 1e6)
        last = lam, grad
        return -grad, -float(np.dot(grad, grad)), short_t, first_t

    return direction


def _solve(
    prior: FiniteDistribution,
    constraints: ConstraintSet,
    opts: SolverOptions,
    direction,
    max_iter: int,
    what: str,
    witness: FiniteDistribution | None = None,
    interior: bool = False,
) -> ProjectionResult:
    """Minimize ``g(lam) = A(lam) - lam . alpha`` over the orthant
    ``sign_i lam_i >= 0`` by projected line search along ``direction``,
    starting at ``lam = 0``.

    Iterates are arrays, each evaluated by :func:`~maxentlab.expfam._member`
    into ``A(lam)`` and the member's probabilities ``q``; the result's one
    model is built at the end.  ``direction(lam, q, grad, t, free)`` returns
    ``(step, slope, short_t, first_t)``: a step that takes the coordinates
    outside the ``free`` mask (``None`` when all are free) to 0, the
    directional derivative ``grad . step``, the length taken when the
    decrease predicted at the first length is below the float resolution of
    ``g``, and the first length, which Armijo backtracking tries first;
    ``t`` is the last accepted length.  Outside ``free`` are the binding
    coordinates: one-sided ones within ``min(1e-6, |projected gradient|)``
    of their bound that the gradient pushes outward.  A candidate clipped to
    the orthant must decrease ``g`` by ``c grad . (lam(t) - lam)``.  The
    tolerance test reads the projected gradient, 0 where a coordinate sits
    at its bound and is pushed outward; an ``eq`` coordinate (sign 0) is
    never clipped, projected, binding or clamped.  Every accepted iterate
    whose ``g`` falls below the weak-duality floor (:func:`_below_dual_floor`)
    ends the solve as ``INFEASIBLE``, a result that does not depend on the
    iterate, with no LP.  Otherwise the descent ends at tolerance or after
    ``max_iter`` iterations, and the verdict follows it: a converged member
    (or else the ``witness``) that certifies the interior gives
    ``CONVERGED`` with no LP; otherwise the LP decides, and a budget spent
    inside the polytope is a :class:`ConvergenceError`.  A caller that
    already knows the targets interior (``interior``) spares a converged
    descent the certificate.
    """
    features, alpha, d = constraints.features, constraints.targets, constraints.dim
    if d == 0:
        return _unsolved(prior, constraints, Status.CONVERGED)
    matrix, family = features.matrix, _family_arrays(prior, features)
    sign = constraints._sign
    log_floor = float(family[0][family[1]].min())  # log min_S P
    row_scale = _row_scale(family[2])
    lam = np.zeros(d)
    trace: list[TracePoint] = []

    def dual_value(lam_t: np.ndarray):
        """``g(lam_t)`` and the member's probabilities at ``lam_t``."""
        log_z, q_t, _ = _member(*family, lam_t)
        return log_z - float(np.dot(lam_t, alpha)), q_t

    def candidate_at(t: float):
        """The current iterate moved by ``t step`` and clipped to the
        orthant, and the change of ``g`` Armijo's test allows it."""
        lam_t = lam + t * step
        change = _ARMIJO_C * t * slope
        outside = sign * lam_t < 0.0
        if outside.any():
            lam_t[outside] = 0.0
            change = _ARMIJO_C * float(np.dot(grad, lam_t - lam))
        return lam_t, change

    g, q = dual_value(lam)
    t = 1.0
    for iteration in range(max_iter):
        grad = matrix @ q - alpha
        outward, slack = sign * grad > 0.0, sign * lam
        projected = np.where(outward & (slack <= 0.0), 0.0, grad)
        gnorm = float(np.max(np.abs(projected)))
        if opts.trace:
            trace.append(TracePoint(iteration, g, gnorm))
        if gnorm <= opts.moment_tol:
            status = Status.CONVERGED
            break
        binding = outward & (slack <= min(1e-6, gnorm))
        free = ~binding if binding.any() else None
        step, slope, short_t, t = direction(lam, q, grad, t, free)
        # Near the optimum the decrease predicted at the first length drops
        # below the float resolution of g; Armijo cannot certify progress
        # there, but the short step is locally contracting, so take it.
        if -t * slope <= 1e-13 * max(1.0, abs(g)):
            t = short_t
            lam_new, _ = candidate_at(t)
            g_new, q_new = dual_value(lam_new)
        else:
            for _ in range(_MAX_BACKTRACKS):
                lam_new, change = candidate_at(t)
                g_new, q_new = dual_value(lam_new)
                if g_new <= g + change:
                    break
                t *= 0.5
        lam, g, q = lam_new, g_new, q_new
        if _below_dual_floor(g, lam, alpha, log_floor, row_scale):
            return _unsolved(prior, constraints, Status.INFEASIBLE)
    else:
        status, iteration = None, max_iter
        grad = matrix @ q - alpha
    # A member must clear a margin far above the LP's threshold (HiGHS's t*
    # is noise there); a witness meets the targets and keeps that threshold.
    points = [(q, _CERTIFICATE_MARGIN)]
    if witness is not None:
        points.append((witness.probs, _INTERIOR_TOL))
    certified = status is Status.CONVERGED and (
        interior
        or any(
            _certifies_interior(family[2], alpha, sign, lam, p[family[1]], margin)
            for p, margin in points
        )
    )
    if not certified:
        feas = check_feasibility(prior, constraints)
        if not feas.in_hull:
            return _unsolved(prior, constraints, Status.INFEASIBLE)
        if feas.on_boundary:
            # The optimum lives on a face the family only approaches; the
            # returned model is the (possibly tolerance-converged) iterate.
            status = Status.BOUNDARY_NONATTAINED
        elif status is None:
            raise ConvergenceError(
                f"{what} did not reach tolerance {opts.moment_tol} in "
                f"{max_iter} iterations"
            )
    # The satisfied side of a one-sided constraint clamps to 0.
    grad = np.where(sign * grad > 0.0, 0.0, grad)
    return _result(prior, features, lam, grad, iteration, status, trace)


def project(
    prior: FiniteDistribution,
    constraints: ConstraintSet,
    opts: SolverOptions | None = None,
    witness: FiniteDistribution | None = None,
) -> ProjectionResult:
    """Project ``prior`` onto moment constraints of every kind.

    Newton steps minimize ``g`` over the orthant ``lam_i >= 0`` for ``ge``,
    ``lam_i <= 0`` for ``le`` (free for ``eq``).  The stopping test, the
    projected gradient within the moment tolerance, certifies the KKT
    conditions: the clamped residual is within tolerance, and a constraint
    with a nonzero multiplier holds as an equality.  The converged member
    (or else the ``witness``) then certifies the targets interior; an
    iterate below the weak-duality floor refutes them; and the feasibility
    LP runs only when none of these decides (:func:`_solve`).

    Parameters
    ----------
    prior : FiniteDistribution
        The reference distribution ``P`` of ``min_Q D(Q || P)``.
    constraints : ConstraintSet
        ``eq``, ``ge`` and ``le`` constraints, in any mix.
    opts : SolverOptions, optional
    witness : FiniteDistribution, optional
        A distribution on the prior's alphabet whose moments meet the
        constraints, tried as the certificate when the member is not one.
    """
    opts = opts or SolverOptions()
    if witness is not None:
        _check_same_alphabet(prior, witness)
    return _solve(
        prior,
        constraints,
        opts,
        partial(_newton_direction, constraints.features.matrix),
        opts.max_iter,
        "dual Newton" if constraints.is_equality_only() else "projected Newton",
        witness,
    )


def project_inequality(
    prior: FiniteDistribution,
    constraints: ConstraintSet,
    opts: SolverOptions | None = None,
) -> ProjectionResult:
    """:func:`project`, under its name from when only it took ``ge``/``le``."""
    return project(prior, constraints, opts)


def _require_on_support(prior: FiniteDistribution, data: FiniteDistribution) -> None:
    """Raise unless ``data`` lives on the prior's alphabet and puts no mass
    outside its support, where no member of the family puts any."""
    _check_same_alphabet(prior, data)
    if np.any(data.probs[~prior.support] > 0):
        raise SupportViolation("data puts mass outside the prior's support")


def fit_log_loss(
    prior: FiniteDistribution,
    features: FeatureSet,
    data: FiniteDistribution,
    opts: SolverOptions | None = None,
    *,
    _interior: bool = False,
) -> ProjectionResult:
    """Minimize the log loss ``H(data, P_lam)`` directly over ``lam``.

    Gradient descent with Barzilai-Borwein step lengths and Armijo
    backtracking; the gradient is ``E_{P_lam}[f] - E_data[f]``.  No dual
    reformulation or second-order information is used, so agreement with
    :func:`project` at the data's moments is an independent check of the
    two learning prescriptions being one problem.  The budget is 100,000
    steps.  The converged member, or else the data, whose moments are the
    targets, certify them interior; the feasibility LP runs only when
    neither does, or the descent spends its budget.  The private
    ``_interior`` says the data's moments are already known interior (a
    converged projection onto them, in ``fit``), so a converged descent
    skips the certificate.
    """
    opts = opts or SolverOptions()
    features.check_alphabet(prior)
    features.check_alphabet(data)
    _require_on_support(prior, data)
    # At the data's moments, H(data, P_lam) = g(lam) + H(data, prior).
    constraints = ConstraintSet.equalities(features, moments(data, features))
    return _solve(
        prior,
        constraints,
        opts,
        _gradient_direction(),
        _GD_MAX_ITER,
        "log-loss gradient descent",
        data,
        _interior,
    )


class RobustBayesValue(NamedTuple):
    """Game value plus how it was read.

    ``entropy_reading`` is true when the prior is uniform and ``value`` is
    the entropy of the projected distribution (the minimax log-loss value);
    otherwise ``value`` falls back to the minimum discrimination
    information ``D(P* || prior)``.
    """

    value: float
    entropy_reading: bool


def robust_bayes_value(
    prior: FiniteDistribution,
    constraints: ConstraintSet,
    opts: SolverOptions | None = None,
) -> RobustBayesValue:
    """Minimax log-loss value of the game over the constraint set."""
    result = project(prior, constraints, opts)
    if result.status is Status.INFEASIBLE:
        raise InputError("constraint set is infeasible; the game has no value")
    if prior.is_uniform():
        return RobustBayesValue(
            value=entropy(result.model.to_distribution()), entropy_reading=True
        )
    return RobustBayesValue(value=result.min_divergence, entropy_reading=False)
