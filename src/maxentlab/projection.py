"""Information projection ``argmin_{Q in A} D(Q || P)`` via its convex dual.

For equality constraints ``E_Q[f] = alpha`` the dual objective is
``g(lam) = A(lam) - lam . alpha``, a smooth convex function whose gradient
is ``E_{P_lam}[f] - alpha`` and whose Hessian is the Fisher information.
The solver runs damped Newton with a Levenberg shift when the Fisher
matrix is near-singular and Armijo backtracking on ``g``.

Inequality constraints are handled by an active-set loop around the
equality solver.  Feasibility and boundary detection are linear programs
over the simplex restricted to the prior's support: the interior LP
substitutes ``q = s + t 1`` so that "every outcome has mass at least t"
needs no per-outcome row, leaving d + 1 rows and K + 1 columns for K
supported outcomes and d constraints.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from .dist import (
    ConstraintKind,
    ConstraintSet,
    FeatureSet,
    FiniteDistribution,
    entropy,
    kl_divergence,
    moments,
)
from .errors import ConvergenceError, InputError, SupportViolation
from .expfam import ExpFamModel, fisher_information, mean_parameters

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_INTERIOR_TOL = 1e-12
_ACTIVE_SET_MAX_PASSES = 50
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
    lambda_cap: float = 1e4
    equiv_tol: float = 1e-6
    trace: bool = False

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SolverOptions":
        """Options from a JSON object; every field is optional, and a wrong
        field, type or range raises :class:`InputError`."""
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
    ``BOUNDARY_NONATTAINED`` the returned model is the capped iterate (the
    supremum is approached but not attained).  On ``INFEASIBLE`` the model
    is the prior and ``min_divergence`` is infinite.
    """

    lambda_star: np.ndarray
    model: ExpFamModel
    min_divergence: float
    moment_residual: np.ndarray
    iterations: int
    status: Status
    trace: tuple[TracePoint, ...] = field(default=())

    def to_json(self) -> dict:
        out = {
            "lambda_star": np.asarray(self.lambda_star).tolist(),
            "model": self.model.to_json(),
            "min_divergence": self.min_divergence,
            "moment_residual": np.asarray(self.moment_residual).tolist(),
            "iterations": self.iterations,
            "status": self.status.value,
        }
        if self.trace:
            out["trace"] = [
                {
                    "iteration": t.iteration,
                    "dual_value": t.dual_value,
                    "grad_norm": t.grad_norm,
                }
                for t in self.trace
            ]
        return out


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether the targets intersect the moment polytope of the features.

    ``witness``, present when ``in_hull`` is false, is a direction ``v``
    with ``min over the target set of v . t  >  max_x v . f(x)``.
    """

    in_hull: bool
    on_boundary: bool
    witness: np.ndarray | None


def _constraint_rows(constraints: ConstraintSet, support: np.ndarray):
    """Split constraints into linprog-style equality/upper-bound rows."""
    f = constraints.features.matrix[:, support]
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for i, kind in enumerate(constraints.kinds):
        if kind is ConstraintKind.EQ:
            a_eq.append(f[i])
            b_eq.append(constraints.targets[i])
        elif kind is ConstraintKind.GE:
            a_ub.append(-f[i])
            b_ub.append(-constraints.targets[i])
        else:
            a_ub.append(f[i])
            b_ub.append(constraints.targets[i])
    return a_eq, b_eq, a_ub, b_ub


def _separating_witness(
    constraints: ConstraintSet, support: np.ndarray
) -> np.ndarray | None:
    """LP for a direction certifying that the targets miss the polytope.

    Maximizes ``v . alpha - max_x v . f(x)`` over the box ``|v| <= 1``,
    with the sign of ``v_i`` restricted so the target-set infimum is
    attained at ``alpha`` for one-sided constraints.
    """
    d = constraints.dim
    f = constraints.features.matrix[:, support]
    k = f.shape[1]
    # Variables: v (d), s (1).  Objective: maximize v . alpha - s.
    c = np.concatenate([-constraints.targets, [1.0]])
    a_ub = np.hstack([f.T, -np.ones((k, 1))])  # v . f(x) - s <= 0
    b_ub = np.zeros(k)
    bounds = []
    for kind in constraints.kinds:
        if kind is ConstraintKind.GE:
            bounds.append((0.0, 1.0))
        elif kind is ConstraintKind.LE:
            bounds.append((-1.0, 0.0))
        else:
            bounds.append((-1.0, 1.0))
    bounds.append((None, None))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None
    if -res.fun <= 1e-9:
        return None
    return res.x[:d]


def _with_t_column(rows: list) -> np.ndarray | None:
    """Stack LP rows over ``s`` and append the column of ``t``.

    With ``q = s + t 1`` a row ``a . q`` becomes ``a . s + (sum a) t``.
    """
    if not rows:
        return None
    block = np.vstack(rows)
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

    Raises :class:`ConvergenceError` when the LP solver stops without
    either an optimum or a proof of infeasibility.
    """
    constraints.features.check_alphabet(prior)
    if constraints.dim == 0:
        return FeasibilityReport(in_hull=True, on_boundary=False, witness=None)
    support = prior.support
    k = int(support.sum())
    a_eq, b_eq, a_ub, b_ub = _constraint_rows(constraints, support)
    a_eq.append(np.ones(k))
    b_eq.append(1.0)

    c = np.zeros(k + 1)
    c[-1] = -1.0  # maximize t
    res = linprog(
        c,
        A_eq=_with_t_column(a_eq),
        b_eq=np.asarray(b_eq),
        A_ub=_with_t_column(a_ub),
        b_ub=np.asarray(b_ub) if b_ub else None,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 0:
        t_star = float(res.x[-1])
        return FeasibilityReport(
            in_hull=True, on_boundary=t_star <= _INTERIOR_TOL, witness=None
        )
    if res.status == 2:
        witness = _separating_witness(constraints, support)
        return FeasibilityReport(in_hull=False, on_boundary=False, witness=witness)
    raise ConvergenceError(
        f"feasibility LP stopped with HiGHS status {res.status}: {res.message}"
    )


def _empty_projection(
    prior: FiniteDistribution, features: FeatureSet
) -> ProjectionResult:
    model = ExpFamModel(prior, FeatureSet.empty(len(prior)), np.zeros(0))
    if features.dim:
        model = ExpFamModel(prior, features, np.zeros(features.dim))
    return ProjectionResult(
        lambda_star=np.zeros(features.dim),
        model=model,
        min_divergence=0.0,
        moment_residual=np.zeros(features.dim),
        iterations=0,
        status=Status.CONVERGED,
    )


def _infeasible_result(
    prior: FiniteDistribution, constraints: ConstraintSet
) -> ProjectionResult:
    model = ExpFamModel(prior, constraints.features, np.zeros(constraints.dim))
    return ProjectionResult(
        lambda_star=np.zeros(constraints.dim),
        model=model,
        min_divergence=math.inf,
        moment_residual=mean_parameters(model) - constraints.targets,
        iterations=0,
        status=Status.INFEASIBLE,
    )


def _levenberg_shift(hessian: np.ndarray) -> float:
    """Shift ensuring the Newton system is positive definite.

    Uses the exact smallest eigenvalue (d is small here); cheap surrogates
    such as Gershgorin bounds overdamp correlated features badly enough to
    stall convergence.
    """
    if hessian.shape[0] == 0:
        return 0.0
    smallest = float(np.linalg.eigvalsh(hessian)[0])
    return max(0.0, 1e-10 - smallest)


def _newton_on_dual(
    prior: FiniteDistribution,
    features: FeatureSet,
    alpha: np.ndarray,
    opts: SolverOptions,
    lambda0: np.ndarray | None,
    boundary_expected: bool,
):
    """Minimize ``A(lam) - lam . alpha``; shared by both projection paths."""
    d = features.dim
    lam = np.zeros(d) if lambda0 is None else np.asarray(lambda0, dtype=float)
    model = ExpFamModel(prior, features, lam)
    trace: list[TracePoint] = []

    def dual_value(m: ExpFamModel) -> float:
        return m.log_partition - float(np.dot(m.lam, alpha))

    g = dual_value(model)
    for iteration in range(opts.max_iter):
        grad = mean_parameters(model) - alpha
        gnorm = float(np.max(np.abs(grad))) if d else 0.0
        if opts.trace:
            trace.append(TracePoint(iteration, g, gnorm))
        if gnorm <= opts.moment_tol:
            return model, grad, iteration, Status.CONVERGED, trace
        if float(np.max(np.abs(model.lam))) > opts.lambda_cap:
            capped = np.clip(model.lam, -opts.lambda_cap, opts.lambda_cap)
            model = ExpFamModel(prior, features, capped)
            grad = mean_parameters(model) - alpha
            return model, grad, iteration, Status.BOUNDARY_NONATTAINED, trace
        hessian = fisher_information(model)
        system = hessian + np.diag(np.full(d, _levenberg_shift(hessian)))
        try:
            step = np.linalg.solve(system, -grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(system, -grad, rcond=None)
        slope = float(np.dot(grad, step))
        if slope >= 0.0:  # fall back to steepest descent if the solve was bad
            step = -grad
            slope = -float(np.dot(grad, grad))
        # Near the optimum the predicted decrease drops below the float
        # resolution of g; Armijo cannot certify progress there, but the
        # undamped Newton step is locally contracting, so take it.
        if -slope <= 1e-13 * max(1.0, abs(g)):
            candidate = ExpFamModel(prior, features, model.lam + step)
            g_new = dual_value(candidate)
        else:
            t = 1.0
            for _ in range(_MAX_BACKTRACKS):
                candidate = ExpFamModel(prior, features, model.lam + t * step)
                g_new = dual_value(candidate)
                if g_new <= g + _ARMIJO_C * t * slope:
                    break
                t *= 0.5
        model = candidate
        g = g_new
    if boundary_expected:
        grad = mean_parameters(model) - alpha
        return model, grad, opts.max_iter, Status.BOUNDARY_NONATTAINED, trace
    raise ConvergenceError(
        f"dual Newton did not reach tolerance {opts.moment_tol} in "
        f"{opts.max_iter} iterations"
    )


def project(
    prior: FiniteDistribution,
    constraints: ConstraintSet,
    opts: SolverOptions | None = None,
    lambda0: np.ndarray | None = None,
) -> ProjectionResult:
    """Project ``prior`` onto equality moment constraints.

    Parameters
    ----------
    prior : FiniteDistribution
        The reference distribution ``P`` of ``min_Q D(Q || P)``.
    constraints : ConstraintSet
        Equality constraints only; use :func:`project_inequality` for
        one-sided constraints.
    opts : SolverOptions, optional
    lambda0 : array, optional
        Starting parameters; the converged result does not depend on the
        start beyond the moment tolerance.
    """
    opts = opts or SolverOptions()
    if not constraints.is_equality_only():
        raise InputError(
            "project handles equality constraints only; "
            "use project_inequality for ge/le kinds"
        )
    constraints.features.check_alphabet(prior)
    if constraints.dim == 0:
        return _empty_projection(prior, constraints.features)
    feas = check_feasibility(prior, constraints)
    if not feas.in_hull:
        return _infeasible_result(prior, constraints)
    model, grad, iterations, status, trace = _newton_on_dual(
        prior,
        constraints.features,
        constraints.targets,
        opts,
        lambda0,
        boundary_expected=feas.on_boundary,
    )
    if feas.on_boundary:
        # The optimum lives on a face the family only approaches; the
        # returned model is the (possibly tolerance-converged) iterate.
        status = Status.BOUNDARY_NONATTAINED
    return ProjectionResult(
        lambda_star=np.array(model.lam, copy=True),
        model=model,
        min_divergence=kl_divergence(model.to_distribution(), prior),
        moment_residual=grad,
        iterations=iterations,
        status=status,
        trace=tuple(trace),
    )


def _clamped_residual(
    constraints: ConstraintSet, mean: np.ndarray
) -> np.ndarray:
    """Signed residuals; the satisfied side of an inequality clamps to 0."""
    res = mean - constraints.targets
    out = np.array(res)
    for i, kind in enumerate(constraints.kinds):
        if kind is ConstraintKind.GE:
            out[i] = min(res[i], 0.0)
        elif kind is ConstraintKind.LE:
            out[i] = max(res[i], 0.0)
    return out


def project_inequality(
    prior: FiniteDistribution,
    constraints: ConstraintSet,
    opts: SolverOptions | None = None,
) -> ProjectionResult:
    """Project ``prior`` onto a mix of equality and one-sided constraints.

    Active-set strategy: solve with only the equalities active, then move
    violated inequalities into the active set (and drop any active
    inequality whose multiplier takes the wrong sign) until the KKT
    conditions hold.  Divergence grows monotonically as constraints
    activate; a violation of that order, or a repeated working set, aborts
    with :class:`ConvergenceError`.  Equality-only constraints go straight
    to :func:`project`.
    """
    if constraints.is_equality_only():
        return project(prior, constraints, opts)
    opts = opts or SolverOptions()
    constraints.features.check_alphabet(prior)
    d = constraints.dim
    feas = check_feasibility(prior, constraints)
    if not feas.in_hull:
        return _infeasible_result(prior, constraints)

    eq_idx = [i for i, k in enumerate(constraints.kinds) if k is ConstraintKind.EQ]
    working: list[int] = []
    seen: set[frozenset] = set()
    last_divergence = -math.inf
    kkt_tol = 10.0 * opts.moment_tol
    sub_result = None
    for _ in range(_ACTIVE_SET_MAX_PASSES):
        key = frozenset(working)
        if key in seen:
            raise ConvergenceError("active-set cycling detected")
        seen.add(key)
        active = sorted(eq_idx + working)
        sub = constraints.subset(active).as_equalities()
        sub_result = project(prior, sub, opts)
        if sub_result.status is Status.INFEASIBLE:
            return _infeasible_result(prior, constraints)
        mean = moments(sub_result.model.to_distribution(), constraints.features)
        residual = _clamped_residual(constraints, mean)
        violated = [
            i
            for i in range(d)
            if i not in active and abs(residual[i]) > opts.moment_tol
        ]
        if violated and sub_result.status is Status.CONVERGED:
            if sub_result.min_divergence < last_divergence - 1e-12:
                raise ConvergenceError(
                    "divergence decreased while activating a constraint"
                )
            last_divergence = sub_result.min_divergence
            worst = max(violated, key=lambda i: abs(residual[i]))
            working.append(worst)
            continue
        # KKT sign check on active inequality multipliers.
        lam_by_index = dict(zip(active, sub_result.lambda_star))
        wrong = []
        for i in working:
            if constraints.kinds[i] is ConstraintKind.GE and lam_by_index[i] < -kkt_tol:
                wrong.append(i)
            if constraints.kinds[i] is ConstraintKind.LE and lam_by_index[i] > kkt_tol:
                wrong.append(i)
        if wrong and sub_result.status is Status.CONVERGED:
            working.remove(wrong[0])
            continue
        lam_full = np.zeros(d)
        for i in active:
            lam_full[i] = lam_by_index[i]
        model = ExpFamModel(prior, constraints.features, lam_full)
        return ProjectionResult(
            lambda_star=lam_full,
            model=model,
            min_divergence=kl_divergence(model.to_distribution(), prior),
            moment_residual=residual,
            iterations=sub_result.iterations,
            status=sub_result.status,
            trace=sub_result.trace,
        )
    raise ConvergenceError("active-set loop exceeded its pass budget")


def fit_log_loss(
    prior: FiniteDistribution,
    features: FeatureSet,
    data: FiniteDistribution,
    opts: SolverOptions | None = None,
    lambda0: np.ndarray | None = None,
) -> ProjectionResult:
    """Minimize the log loss ``H(data, P_lam)`` directly over ``lam``.

    Plain gradient descent with Armijo backtracking; the gradient is
    ``E_{P_lam}[f] - E_data[f]``.  No dual reformulation is used, so
    agreement with :func:`project` at the data's moments is an independent
    check of the two learning prescriptions being one problem.
    """
    opts = opts or SolverOptions()
    features.check_alphabet(prior)
    features.check_alphabet(data)
    if np.any(data.probs[~prior.support] > 0):
        raise SupportViolation("data puts mass outside the prior's support")
    d = features.dim
    if d == 0:
        return _empty_projection(prior, features)
    target = moments(data, features)
    on_boundary = check_feasibility(
        prior, ConstraintSet.equalities(features, target)
    ).on_boundary
    lam = np.zeros(d) if lambda0 is None else np.asarray(lambda0, dtype=float)
    model = ExpFamModel(prior, features, lam)

    def loss(m: ExpFamModel) -> float:
        # H(data, P_lam) up to the constant H(data, prior).
        return m.log_partition - float(np.dot(m.lam, target))

    value = loss(model)
    step_size = 1.0
    iterations = 0
    status = None
    trace: list[TracePoint] = []
    for iterations in range(_GD_MAX_ITER):
        grad = mean_parameters(model) - target
        gnorm = float(np.max(np.abs(grad)))
        if opts.trace:
            trace.append(TracePoint(iterations, value, gnorm))
        if gnorm <= opts.moment_tol:
            status = Status.CONVERGED
            break
        if float(np.max(np.abs(model.lam))) > opts.lambda_cap:
            capped = np.clip(model.lam, -opts.lambda_cap, opts.lambda_cap)
            model = ExpFamModel(prior, features, capped)
            status = Status.BOUNDARY_NONATTAINED
            break
        slope = -float(np.dot(grad, grad))
        if -slope <= 1e-13 * max(1.0, abs(value)):
            # Predicted decrease below float resolution of the loss; keep
            # stepping at the last accepted size, which is contracting.
            t = step_size
            candidate = ExpFamModel(prior, features, model.lam - t * grad)
            value_new = loss(candidate)
        else:
            t = min(step_size * 2.0, 1e6)
            for _ in range(_MAX_BACKTRACKS):
                candidate = ExpFamModel(prior, features, model.lam - t * grad)
                value_new = loss(candidate)
                if value_new <= value + _ARMIJO_C * t * slope:
                    break
                t *= 0.5
        model = candidate
        value = value_new
        step_size = t
    if status is None:
        if not on_boundary:
            raise ConvergenceError(
                f"log-loss gradient descent did not converge in {_GD_MAX_ITER} steps"
            )
        status = Status.BOUNDARY_NONATTAINED
    elif on_boundary:
        status = Status.BOUNDARY_NONATTAINED
    grad = mean_parameters(model) - target
    return ProjectionResult(
        lambda_star=np.array(model.lam, copy=True),
        model=model,
        min_divergence=kl_divergence(model.to_distribution(), prior),
        moment_residual=grad,
        iterations=iterations,
        status=status,
        trace=tuple(trace),
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
    result = project_inequality(prior, constraints, opts)
    if result.status is Status.INFEASIBLE:
        raise InputError("constraint set is infeasible; the game has no value")
    if prior.is_uniform():
        return RobustBayesValue(
            value=entropy(result.model.to_distribution()), entropy_reading=True
        )
    return RobustBayesValue(value=result.min_divergence, entropy_reading=False)
