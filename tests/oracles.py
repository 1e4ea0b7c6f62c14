"""Independent oracles used by the tests.

Everything here is deliberately simple and slow: exact big-integer and
rational arithmetic for histogram probabilities, brute-force enumeration,
dense grids, a dense-LP interior test, a full-grid root bracket and a KKT
certificate for one-sided projections.  None of it shares code paths with
the library, except the object-path member evaluation (around the
library's log-sum-exp, which has its own tests against scipy), the
object-path energy-matching objective and the harness that swaps it (and
the LP feasibility verdict) back into the identity suite, the
stars-and-bars histogram table, the row-and-column histogram scorer, the
full histogram table that the enumeration prunes and the per-histogram
event law (every histogram of an event scored under
``P*``, the gap and the nested slack summed over outcomes), the per-row
Monte Carlo chunk loop, the two-step (weights, then multinomial)
Dirichlet(1) experiment cell and each caller's own assembly of the
Stirling terms, which are the library's earlier code paths kept as
references for their replacements,
and the certificate's last condition, which re-runs the library's
equality projection.
"""

from __future__ import annotations

import itertools
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


def stars_and_bars_compositions(n: int, parts: int) -> np.ndarray:
    """The histogram table of ``compositions(n, parts)`` by stars and bars
    (Knuth, TAOCP 4A, 7.2.1.3): each row is a choice of ``parts - 1`` bar
    positions among ``n + parts - 1`` slots, read off as the gaps between
    consecutive bars, with fixed end bars at ``-1`` and ``n + parts - 1``.
    Bar tuples come out of ``itertools.combinations`` in lexicographic
    order, and so do the gaps."""
    total = math.comb(n + parts - 1, parts - 1)
    slots = n + parts - 1
    bars = itertools.chain.from_iterable(
        itertools.combinations(range(slots), parts - 1)
    )
    edges = np.empty((total, parts + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:-1] = np.fromiter(bars, np.int64, total * (parts - 1)).reshape(
        total, parts - 1
    )
    edges[:, -1] = slots
    gaps = np.diff(edges, axis=1)
    gaps -= 1
    return gaps


def log_likelihood_rows_and_columns(counts: np.ndarray, p) -> np.ndarray:
    """``counts @ log p`` per histogram row, ``-inf`` for a row that counts an
    outcome outside ``p``'s support, by one product over a copy of the
    supported rows and columns (``np.ix_``)."""
    supported = p.support
    out = np.full(counts.shape[0], -math.inf)
    ok = ~(counts[:, ~supported] > 0).any(axis=1)
    if np.any(ok):
        out[ok] = counts[np.ix_(ok, supported)] @ p.log_probs[supported]
    return out


def full_histogram_table(p, n: int, cap: int, events=()):
    """Every histogram of ``n`` samples over ``p``'s alphabet, whatever
    ``events`` are, and its log-probability under ``p``: ``compositions``,
    each row's ``_log_multinomial`` plus ``_log_likelihood`` over the whole
    table.  It takes ``sanov._table``'s arguments, so it stands in for the
    pruned table as the full-table reference."""
    from maxentlab.multinomial import _log_likelihood, _log_multinomial
    from maxentlab.sanov import compositions

    comps = compositions(n, len(p), cap)
    return comps, _log_multinomial(comps, n) + _log_likelihood(comps, p)


def full_event_rows(p, constraints, n: int, cap: int):
    """``(histograms, log probabilities)`` of the event's rows of the full
    table (:func:`full_histogram_table`), selected by ``constraint_mask``
    over every row's feature means."""
    from maxentlab.dist import constraint_mask

    comps, log_probs = full_histogram_table(p, n, cap)
    if constraints.dim:
        means = constraints.features.matrix @ (comps.T / n)
        mask = constraint_mask(constraints, means)
        return comps[mask], log_probs[mask]
    return comps, log_probs


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


def per_histogram_law(histograms, in_event, p, p_star):
    """``(log Pr(A), D(mu_A || P*^n), mu_bar)`` of an event in the
    per-histogram form, which scores every histogram of it under ``P*``.

    ``histograms`` are count rows summing to ``n``; ``in_event`` marks the
    event's rows.  Each row ``c`` that counts no outcome outside ``p``'s
    support is scored row by row as ``log w(c) + c . log p``, with the
    exact multinomial coefficient; the divergence sums ``mu(c) (c . (log p
    - log p*) - log Pr(A))`` over those rows, and ``mu_bar`` is the mean
    empirical measure over outcomes.  ``p_star`` keeps ``p``'s support."""
    from scipy.special import logsumexp

    n = int(histograms[0].sum())
    rows, scores, ratios = [], [], []
    for c in histograms[in_event]:
        used = c > 0
        if not np.all(p.support[used]):
            continue
        rows.append(c)
        log_p, log_star = p.log_probs[used], p_star.log_probs[used]
        scores.append(exact_log_multinomial(c.tolist()) + float(c[used] @ log_p))
        ratios.append(float(c[used] @ (log_p - log_star)))
    log_prob = float(logsumexp(scores))
    weights = np.exp(np.array(scores) - log_prob)
    divergence = float(weights @ (np.array(ratios) - log_prob))
    return log_prob, divergence, weights @ (np.array(rows) / n)


def monte_carlo_hits_per_row(p, constraints, n: int, trials: int, seed: int) -> int:
    """The hits of ``monte_carlo_event(p, constraints, n, trials, seed)``
    by the per-row chunk loop: each chunk of ``_MC_CHUNK`` trials draws
    Multinomial(n, q) over the outcome classes from its own chunk stream, in
    row blocks of at most ``_MC_BLOCK_CELLS`` cells, and every drawn row
    goes through the membership test.  Past ``_rng.MAX_PIECE`` trials a
    block's counts are the sum of one such draw per piece: full pieces
    first, then the remainder."""
    from maxentlab import sanov
    from maxentlab._rng import MAX_PIECE, chunk_stream

    probs, lumped = sanov._outcome_classes(p, constraints)
    block = max(1, sanov._MC_BLOCK_CELLS // probs.size)
    full, rest = divmod(n, MAX_PIECE)
    pieces = [n] if n <= MAX_PIECE else [MAX_PIECE] * full + [rest] * (rest > 0)
    hits = 0
    for idx, start in enumerate(range(0, trials, sanov._MC_CHUNK)):
        size = min(sanov._MC_CHUNK, trials - start)
        rng = chunk_stream(seed, idx)
        for row in range(0, size, block):
            m = min(block, size - row)
            counts = sum(rng.multinomial(piece, probs, size=m) for piece in pieces)
            hits += int(sanov._event_mask(counts, lumped, n).sum())
    return hits


def dirichlet1_exact_by_weights(
    alphabet_size: int, n: int, seed: int, cell_index: int
) -> float:
    """The ``exact`` column of a ``dirichlet1`` experiment cell drawn the
    two-step way: Dirichlet(1) weights as normalized standard exponentials,
    then a histogram from ``Multinomial(n, weights)``, both from the cell's
    substream."""
    from maxentlab._rng import substream
    from scipy.special import gammaln

    rng = substream(seed, cell_index)
    w = rng.standard_exponential(alphabet_size)
    counts = rng.multinomial(n, w / w.sum())
    return float(gammaln(n + 1) - gammaln(counts + 1).sum())


def stirling_by_caller(c: np.ndarray, n: int) -> dict:
    """The Stirling numbers each caller assembled for the count vector
    ``c`` of ``n`` samples before one body served them all: the positive
    counts by a boolean index and their logs, ``n log n - c . log c``, and
    the first-order correction over those logs.  ``stirling_first`` is
    ``None`` where ``stirling_log_multinomial`` raised on a zero count."""

    def positive_counts(c):
        pos = c[c > 0]
        return pos, np.log(pos)

    def counts_entropy_nats(pos, log_pos, n):
        return float(n * math.log(n) - np.dot(pos, log_pos))

    def first_order_correction(log_pos, n):
        log_2pi = math.log(2.0 * math.pi)
        return 0.5 * (log_2pi + math.log(n) - float(np.sum(log_2pi + log_pos)))

    out = {}
    # stirling_log_multinomial
    pos, log_pos = positive_counts(c)
    out["stirling_zeroth"] = counts_entropy_nats(pos, log_pos, n)
    out["stirling_first"] = (
        None
        if pos.size < c.size
        else out["stirling_zeroth"] + first_order_correction(log_pos, n)
    )
    # describe_histogram
    pos, log_pos = positive_counts(c)
    out["describe_correction"] = (
        None if pos.size < c.size else first_order_correction(log_pos, n)
    )
    out["describe_zeroth"] = counts_entropy_nats(pos, log_pos, n)
    # the experiment cell
    pos, log_pos = positive_counts(c)
    out["cell_zeroth"] = counts_entropy_nats(pos, log_pos, n)
    out["cell_skipped"] = pos.size < c.size
    out["cell_first"] = out["cell_zeroth"] + first_order_correction(log_pos, n)
    return out


def outcome_log_ratio(weights, num, den) -> float:
    """``sum_x w_x (log num_x - log den_x)`` term by term over the outcomes
    of non-zero weight, where both distributions have positive mass."""
    total = 0.0
    for w, a, b in zip(weights, num.log_probs, den.log_probs):
        if w != 0.0:
            total += float(w) * float(a - b)
    return total


def per_outcome_gap(mu_bar, p, p_star) -> float:
    """The Pythagorean gap ``(E_mu_bar - E_P*)[log(P*/P)]`` summed over
    outcomes."""
    star = outcome_log_ratio(p_star.probs, p_star, p)
    return outcome_log_ratio(mu_bar, p_star, p) - star


def per_outcome_slack(mu_bar_inner, mu_bar_outer, p, p_star, n: int) -> float:
    """The nested slack ``n (E_mu_bar_B - E_mu_bar_A)[log(P/P*)]`` summed
    over outcomes."""
    return n * outcome_log_ratio(mu_bar_inner - mu_bar_outer, p, p_star)


def interior_lp_reference(
    prior_probs, feature_matrix, kinds, targets, interior_tol: float = 1e-12
) -> tuple[bool, bool]:
    """(in_hull, on_boundary) from the direct interior LP: the targets are
    attainable when the LP is feasible, and only on the polytope boundary
    when its optimum is ``t* = 0``."""
    t_star = interior_lp_optimum(prior_probs, feature_matrix, kinds, targets)
    if t_star is None:
        return False, False
    return True, t_star <= interior_tol


def interior_lp_optimum(prior_probs, feature_matrix, kinds, targets) -> float | None:
    """``t*`` of the direct interior LP, or ``None`` when it is infeasible.

    Maximizes ``t`` over ``q`` on the prior's support subject to the moment
    rows, ``sum q = 1`` and one row ``t - q_j <= 0`` per outcome (a dense
    identity block, so only for small alphabets).
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
        return None
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[-1])


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
    """``A(lam)`` and the member's probabilities and log-probabilities by
    the float operations the object path used before the member kernel, in
    its order: the log-partition's tilt and log-sum-exp, the model's
    log-probabilities shifted in place (the tilt computed a second time),
    their exponential, and the distribution's division by the float sum;
    the log of that sum is subtracted from the log-probabilities."""
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
    return log_z, q / total, lp - math.log(total)


def upper_defect_objects(target, variational):
    """The Bogoliubov upper bound's energy-matching objective, evaluated by
    building the scaled variational model and its distribution on every
    call; a 1-D array of scales is evaluated one scale at a time."""
    from maxentlab.expfam import internal_energy

    def upper_defect(c):
        if np.ndim(c):
            return np.array([upper_defect(x) for x in c])
        scaled = variational.with_lambda(c * variational.lam)
        p_psi = scaled.to_distribution()
        return internal_energy(target, p_psi) - internal_energy(scaled, p_psi)

    return upper_defect


def object_path_identity_suite(monkeypatch) -> None:
    """Put the identity suite back on its object and LP paths: the upper
    objective builds objects per evaluation, and every projection of an
    instance runs the feasibility LP instead of certifying its targets
    interior by its converged member or its witness distribution."""
    from maxentlab import identities, projection

    monkeypatch.setattr(identities, "_upper_defect", upper_defect_objects)
    monkeypatch.setattr(projection, "_certifies_interior", lambda *args: False)


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
