"""Independent oracles used by the tests.

Everything here is deliberately simple and slow: exact big-integer and
rational arithmetic for histogram probabilities, brute-force enumeration,
dense grids, a dense-LP interior test, a full-grid root bracket and a KKT
certificate for one-sided projections.  None of it shares code paths with
the library, except the object-path member evaluation (around the
library's log-sum-exp, which has its own tests against scipy), the
object-path energy-matching objective and the harness that swaps it (and
the LP feasibility verdict) back into the identity suite, which are the
library's earlier code paths kept as references for their array
replacements, and the certificate's last condition, which re-runs the
library's equality projection.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq, linprog


def iter_compositions(n: int, parts: int):
    """All tuples of `parts` non-negative ints summing to n (recursive)."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in iter_compositions(n - first, parts - 1):
            yield (first,) + rest


def exact_multinomial(counts) -> int:
    n = sum(counts)
    coef = math.factorial(n)
    for c in counts:
        coef //= math.factorial(c)
    return coef


def exact_log_multinomial(counts) -> float:
    return math.log(exact_multinomial(counts))


def exact_histogram_prob(counts, probs: list[Fraction]) -> Fraction:
    out = Fraction(exact_multinomial(counts))
    for c, p in zip(counts, probs):
        out *= Fraction(p) ** c
    return out


def log_fraction(f: Fraction) -> float:
    if f == 0:
        return -math.inf
    return math.log(f.numerator) - math.log(f.denominator)


def grid_min_divergence_on_segment(
    prior_probs: np.ndarray, feature_row: np.ndarray, alpha: float, step: float
) -> float:
    """Dense scan of the feasible segment for a single equality constraint
    on a 3-outcome simplex.

    The feasible set {q >= 0, sum q = 1, f . q = alpha} is a line segment;
    it is parameterized by q_0 and scanned at the given resolution.
    """
    f0, f1, f2 = feature_row
    if abs(f1 - f2) < 1e-13:
        raise ValueError("degenerate feature row for the segment scan")
    best = math.inf
    logp = np.log(prior_probs)
    for q0 in np.arange(0.0, 1.0 + step, step):
        # Solve f1 q1 + f2 q2 = alpha - f0 q0 with q1 + q2 = 1 - q0.
        rem = 1.0 - q0
        q1 = (alpha - f0 * q0 - f2 * rem) / (f1 - f2)
        q2 = rem - q1
        if q1 < 0.0 or q2 < 0.0 or q0 > 1.0:
            continue
        q = np.array([q0, q1, q2])
        mask = q > 0
        d = float(np.sum(q[mask] * (np.log(q[mask]) - logp[mask])))
        best = min(best, d)
    return best


def binomial_tail_prob(n: int, k_min: int) -> Fraction:
    """Pr(X >= k_min) for X ~ Binomial(n, 1/2), exactly."""
    num = sum(math.comb(n, k) for k in range(k_min, n + 1))
    return Fraction(num, 2**n)


def masked_log_ratio_loop(weights, num_log, den_log) -> float:
    """``sum_i w_i (a_i - b_i)`` term by term, skipping zero weights; the
    first infinite term returns an infinity of its sign times its weight's."""
    total = 0.0
    for w, a, b in zip(weights, num_log, den_log):
        if w == 0.0:
            continue
        term = a - b
        if math.isinf(term):
            return math.inf if (term > 0) == (w > 0) else -math.inf
        total += float(w) * float(term)
    return total


def interior_lp_reference(
    prior_probs, feature_matrix, kinds, targets, interior_tol: float = 1e-12
) -> tuple[bool, bool]:
    """(in_hull, on_boundary) from the direct interior LP.

    Maximizes ``t`` over ``q`` on the prior's support subject to the moment
    rows, ``sum q = 1`` and one row ``t - q_j <= 0`` per outcome (a dense
    identity block, so only for small alphabets).  The targets are
    attainable when the LP is feasible, and only on the polytope boundary
    when its optimum is ``t* = 0``.
    """
    support = np.asarray(prior_probs) > 0
    f = np.asarray(feature_matrix, dtype=float)[:, support]
    k = f.shape[1]
    a_eq, b_eq, a_ub, b_ub = [np.ones(k)], [1.0], [], []
    for row, kind, target in zip(f, kinds, targets):
        if kind == "eq":
            a_eq.append(row)
            b_eq.append(target)
        elif kind == "ge":
            a_ub.append(-row)
            b_ub.append(-target)
        else:
            a_ub.append(row)
            b_ub.append(target)
    a_eq = np.hstack([np.vstack(a_eq), np.zeros((len(a_eq), 1))])
    a_ub = np.vstack(
        [np.concatenate([row, [0.0]]) for row in a_ub]
        + [np.hstack([-np.eye(k), np.ones((k, 1))])]
    )
    b_ub = np.concatenate([b_ub, np.zeros(k)])
    c = np.zeros(k + 1)
    c[-1] = -1.0
    res = linprog(
        c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
        bounds=(0.0, None), method="highs",
    )
    if res.status == 2:
        return False, False
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return True, float(res.x[-1]) <= interior_tol


def match_scale_full_grid(objective, lo: float = 1e-3, hi: float = 1e3):
    """Root of ``objective`` on ``[lo, hi]`` by the full-grid scan: all 61
    log-spaced points are evaluated, the first exact zero wins, else the
    first sign change is bisected.  ``None`` when there is no bracket."""
    grid = np.geomspace(lo, hi, 61)
    values = [objective(c) for c in grid]
    for v, c in zip(values, grid):
        if v == 0.0:
            return float(c)
    for k in range(len(grid) - 1):
        if values[k] * values[k + 1] < 0:
            return float(
                brentq(objective, grid[k], grid[k + 1], xtol=1e-14, rtol=1e-15)
            )
    return None


def member_objects(log_prior, mask, f_support, lam):
    """``A(lam)`` and the member's probabilities by the float operations the
    object path used before the member kernel, in its order: the
    log-partition's tilt and log-sum-exp, the model's log-probabilities
    shifted in place (the tilt computed a second time), their exponential,
    and the distribution's division by the float sum."""
    from maxentlab.expfam import _logsumexp

    scores = log_prior[mask]
    if len(lam):
        scores = scores + lam @ f_support
    log_z = _logsumexp(scores)
    lp = np.array(log_prior, copy=True)
    if len(lam):
        lp[mask] += lam @ f_support
    lp[mask] += -log_z
    q = np.exp(lp)
    total = float(q.sum())
    return log_z, q / total


def upper_defect_objects(target, variational):
    """The Bogoliubov upper bound's energy-matching objective, evaluated by
    building the scaled variational model and its distribution on every
    call."""
    from maxentlab.expfam import internal_energy

    def upper_defect(c: float) -> float:
        scaled = variational.with_lambda(c * variational.lam)
        p_psi = scaled.to_distribution()
        return internal_energy(target, p_psi) - internal_energy(scaled, p_psi)

    return upper_defect


def object_path_identity_suite(monkeypatch) -> None:
    """Put the identity suite back on its object and LP paths: the upper
    objective builds objects per evaluation, and every projection of an
    instance runs the feasibility LP instead of reading the verdict off its
    witness distribution."""
    from maxentlab import identities

    monkeypatch.setattr(identities, "_upper_defect", upper_defect_objects)
    monkeypatch.setattr(identities, "witnessed_feasibility", lambda *args: None)


def kkt_violations(prior, constraints, result, moment_tol: float) -> list[str]:
    """The KKT conditions a converged projection onto ``eq``/``ge``/``le``
    constraints breaks, as messages; empty when it is certified optimal.

    The problem is convex, so these conditions certify the optimum with no
    second solver:

    - each multiplier has its kind's sign (``>= 0`` for ``ge``, ``<= 0``
      for ``le``);
    - the residual ``E f - alpha``, recomputed from the model and clamped
      to 0 on the satisfied side of a one-sided constraint, is within
      ``moment_tol``;
    - complementary slackness: ``|lam_i (E f_i - alpha_i)|`` is within
      ``moment_tol`` times ``max(1, |lam_i|)``;
    - the model is, within 1e-9 in total variation, the equality
      projection onto the equalities and the one-sided constraints with a
      nonzero multiplier.
    """
    from maxentlab import ConstraintSet, FeatureSet, project, total_variation

    sign = {"eq": 0.0, "ge": 1.0, "le": -1.0}
    signs = np.array([sign[kind.value] for kind in constraints.kinds])
    lam = np.asarray(result.lambda_star, dtype=float)
    q = result.model.to_distribution()
    residual = constraints.features.matrix @ q.probs - constraints.targets
    clamped = np.where(signs * residual > 0.0, 0.0, residual)
    out = []
    wrong_sign = np.flatnonzero(signs * lam < 0.0)
    if wrong_sign.size:
        out.append(f"multipliers {wrong_sign.tolist()} have the wrong sign")
    if np.max(np.abs(clamped), initial=0.0) > moment_tol:
        out.append(f"clamped residual {np.max(np.abs(clamped))} > {moment_tol}")
    slack = np.abs(lam * residual) > moment_tol * np.maximum(1.0, np.abs(lam))
    if slack.any():
        out.append(f"complementary slackness fails on {np.flatnonzero(slack).tolist()}")
    active = [i for i in range(constraints.dim) if signs[i] == 0.0 or lam[i] != 0.0]
    f = constraints.features
    equalities = ConstraintSet.equalities(
        FeatureSet([f.names[i] for i in active], f.matrix[active]),
        constraints.targets[active],
    )
    tv = total_variation(q, project(prior, equalities).model.to_distribution())
    if tv > 1e-9:
        out.append(f"TV {tv} to the projection onto the active constraints")
    return out
