"""Exact small-sample large-deviations laboratory.

Events are sets of empirical measures defined by moment constraints.  For
sample size ``n >= 1`` over ``D`` outcomes the histograms that can reach
the event are enumerated (microstates are grouped by histogram, which is
exact by exchangeability): column by column, each row prefix takes only
the counts from which every constraint can still be met, so the table
holds the event's rows and few others; a simplex of fewer than 4,096
histograms, where the tests cost more than the rows they save, is
enumerated whole, and the cap still counts all ``C(n+D-1, D-1)``
histograms of the simplex.  Each row is weighed by its log multinomial
coefficient while the table is built (:func:`_enumerate`) and scored
under ``P`` with the likelihood kernel of :mod:`maxentlab.multinomial`,
giving the event probability, the projection rate term, and the
conditional-law residual of the finite-sample identity

    (1/n) log Pr(event) + D(P*||P) + residual = 0.

The residual splits into the grouped conditional divergence
``(1/n) D(mu_A || P*^n)`` plus the Pythagorean gap
``E_{mu_bar}[log(P*/P)] - D(P*||P)``.  The gap vanishes when the active
constraints are equalities (every histogram in the event then shares the
projected moments, which is the textbook setting); for half-space events
it is non-negative, and the three-term identity above closes exactly for
*any* reference distribution, which is what makes it an identity rather
than a bound.

Every exact report is read off its event's law ``(log Pr(A), E_mu[f])``:
the event's log-probability and the mean of the constraint features ``f``
under ``mu_A``, the sampling law conditioned on the event.  For ``P* = P
exp(lam* . f - A(lam*))`` and the feature sum ``S = sum_i f(x_i)`` of a
sample, ``log dP^n/dP*^n = -(lam* . S - n A(lam*))`` (the method of types;
Csiszar & Shields 2004, section 2), so, with ``lam*`` and ``A(lam*)`` read
off the projection's model and no histogram scored under ``P*``,

    D(mu_A || P*^n) = -log Pr(A) - n lam* . E_mu[f] + n A(lam*),
    gap             = lam* . (E_mu[f] - E_P*[f]),
    nested slack    = -n lam* . (E_mu_B[f] - E_mu_A[f]).

One histogram table per ``(p, n)`` and event (:func:`_table`) holds each
histogram's log-probability under ``P``, its weight from the enumeration
plus its log-likelihood, neither of which depends on the table's other
rows; the event's membership mask selects rows of it, as on the whole
simplex, and gives each row's feature means (:func:`_event_rows`), and
:func:`_event_law` turns a selection into the law.  One body
(:func:`_exact_reports`) builds the table once, with the rows that can
reach the event or, when given, a nested inner event, selects each
event's rows, and returns the exact report and the nested report;
:func:`enumerate_event` and :func:`nested_relative_probability` are views
of it, and an exact ``sanov --nested`` command calls it once.
:func:`conditional_law` reads the same table and selection, and ``log Pr``
only.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._rng import _checked, chunk_stream, in_pieces, ordered_map
from .dist import (
    _MAX_SAMPLE_SIZE,
    MEMBERSHIP_TOL,
    ConstraintSet,
    FeatureSet,
    FiniteDistribution,
    _same_prior,
    constraint_mask,
)
from .errors import DomainError, EmptyEvent, EnumerationCapExceeded
from .expfam import _logsumexp, mean_parameters
from .identities import TOL_CLOSED_FORM, IdentityReport, _report
from .jsonio import _fields_json
from .multinomial import _log_factorials, _log_likelihood
from .projection import ProjectionResult, Status, project_inequality

DEFAULT_ENUMERATION_CAP = 2_000_000
_WILSON_Z = 1.959963984540054  # 97.5% normal quantile
_MC_CHUNK = 1 << 16
_MC_BLOCK_CELLS = 1 << 20  # histogram cells drawn at once in a chunk
# Simplices of fewer histograms are enumerated whole: below about 3,000 to
# 4,000 rows the reach tests' array passes cost more than the rows they save.
_PRUNE_FROM = 1 << 12


class Method(str, enum.Enum):
    EXACT = "exact-enumeration"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class SanovReport:
    """Event probability, rate, and residual for one (P, A, n) instance.

    For exact enumeration ``(1/n) log_prob + rate + residual == 0`` up to
    float roundoff and ``residual >= 0`` (the event sets are convex).  For
    Monte Carlo the residual is the identity-implied estimate, and the
    Wilson 95% interval for the hit probability is attached.
    """

    n: int
    log_prob: float
    rate: float
    residual: float
    num_histograms_in_event: int
    method: Method
    projection: ProjectionResult
    conditional_divergence: float = math.nan
    pythagorean_gap: float = math.nan
    boundary_projection: bool = False
    empty_event: bool = False
    hits: int | None = None
    trials: int | None = None
    wilson_low: float | None = None
    wilson_high: float | None = None

    def identity_defect(self) -> float:
        """``(1/n) log_prob + rate + residual``; zero for exact reports."""
        return self.log_prob / self.n + self.rate + self.residual

    def to_json(self) -> dict:
        return _fields_json(self)


def _sanov_report(projection: ProjectionResult, **values) -> SanovReport:
    """A report whose rate and boundary flag are read off ``projection``."""
    return SanovReport(
        rate=projection.min_divergence,
        projection=projection,
        boundary_projection=projection.status is Status.BOUNDARY_NONATTAINED,
        **values,
    )


@dataclass(frozen=True)
class ConditionalLaw:
    """The sampling law conditioned on the event, grouped by histogram.

    ``masses[j]`` is the conditional probability of observing histogram
    ``histograms[j]``; per-microstate masses follow by dividing out the
    multinomial count of each histogram.
    """

    histograms: np.ndarray
    masses: np.ndarray
    n: int


def num_compositions(n: int, parts: int) -> int:
    """``C(n+parts-1, parts-1)``: the number of histograms of ``n`` samples
    over ``parts`` outcomes."""
    if parts < 1:
        raise DomainError("need at least one part")
    if n < 0:
        raise DomainError(f"sample size must be non-negative, got {n}")
    return math.comb(n + parts - 1, parts - 1)


def _check_cap(n: int, parts: int, cap: int, hint: str = "") -> int:
    """The number of histograms of ``n`` samples over ``parts`` outcomes;
    past ``cap`` it raises :class:`EnumerationCapExceeded`, with ``hint``
    appended to the message."""
    total = num_compositions(n, parts)
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} histograms exceed the cap of {cap}{hint}"
        )
    return total


def compositions(n: int, parts: int, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """All vectors of ``parts`` non-negative integers summing to ``n``, as
    C-contiguous ``int64`` rows in lexicographic order: the table of
    :func:`_enumerate`.

    Raises :class:`EnumerationCapExceeded` when the count would pass ``cap``,
    before anything is allocated.
    """
    return _enumerate(n, parts, cap)[0]


def _enumerate(n: int, parts: int, cap: int, events=()):
    """The histograms of ``n`` samples over ``parts`` outcomes that can
    reach one of ``events`` (constraint sets over the outcomes), and their
    log multinomial coefficients ``log(n! / (c_1! ... c_D!))``, weighed
    while the table is built: ``(C-contiguous int64 rows in lexicographic
    order, their coefficients)``.  With no events, a featureless one, or a
    simplex of fewer than ``_PRUNE_FROM`` histograms, every histogram is
    enumerated.  The reach tests are necessary, not sufficient
    (:func:`_reach_plan`): the table may hold rows outside every event, and
    it holds every row of each.

    The table is built one column at a time.  Each row prefix with
    remainder ``r`` takes the values ``lo..hi`` in the next column
    (:func:`_reach`), ``0..r`` when nothing prunes.  Each prefix carries
    the running sum of its values' ``log k!`` (and, when pruning, its reach
    tests' sums), so the sums run on the few prefixes of the early
    columns and only the last column's is as long as the table.  The sum
    runs left to right over the columns, numpy's row-sum order up to 7
    outcomes, where the coefficients are
    :func:`maxentlab.multinomial._log_multinomial`'s bit for bit; past
    that numpy sums pairwise and the last bits may differ.  The last
    level's values and remainders are written straight into the table, and
    the earlier columns are filled from each level's values, each repeated
    once per row below it.  One outcome has coefficient 0 and takes no
    table of ``n + 1`` log-factorials.

    Raises :class:`EnumerationCapExceeded` when the whole simplex would
    pass ``cap``, before anything is allocated: the cap counts the simplex,
    not the rows kept.
    """
    total = _check_cap(n, parts, cap)
    rem = np.array([n], dtype=np.int64)  # one remainder per prefix
    if parts == 1:
        return rem[:, None], np.zeros(1)
    log_fact = _log_factorials(n)
    plan = _reach_plan(n, parts, events) if total >= _PRUNE_FROM else None
    if plan is not None:
        sums, columns, groups = plan  # sums: one row per reach test
    weights = np.zeros(1)  # one running sum of log k! per prefix
    levels = []  # (values, segment starts and ends) of the levels before the last
    for j in range(parts - 1):
        if plan is None:
            sizes = rem + 1
        else:
            lo, sizes = _reach(columns[j], sums, rem, groups)
        ends = sizes.cumsum()
        rows = int(ends[-1])
        if rows == 0:
            return np.empty((0, parts), dtype=np.int64), np.empty(0)
        starts = ends - sizes  # each prefix's first child
        offsets = (starts if plan is None else starts - lo).repeat(sizes)
        if j == parts - 2:
            break
        value = np.subtract(np.arange(rows), offsets, out=offsets)
        rem = rem.repeat(sizes) - value
        weights = weights.repeat(sizes)
        weights += log_fact[value]
        if plan is not None:
            sums = sums.repeat(sizes, axis=1)
            sums += np.multiply.outer(columns[j][2], value)
        levels.append((value, starts, ends))
    # The last level's children are the rows.
    out = np.empty((rows, parts), dtype=np.int64)
    value = np.subtract(np.arange(rows), offsets, out=out[:, -2])
    del offsets
    np.subtract(rem.repeat(sizes), value, out=out[:, -1])
    weights = weights.repeat(sizes)
    weights += log_fact[value]
    weights += log_fact[out[:, -1]]
    below = sizes  # rows below each prefix of the current level
    for j in range(parts - 3, -1, -1):
        value, starts, ends = levels.pop()
        out[:, j] = value.repeat(below)
        if j:
            upto = np.zeros(below.size + 1, dtype=np.int64)
            below.cumsum(out=upto[1:])
            below = upto[ends] - upto[starts]
    return out, np.subtract(log_fact[n], weights, out=weights)


def _reach_plan(n: int, parts: int, events):
    """The one-sided reach tests of ``events`` for :func:`_enumerate`:
    ``(sums, columns, groups)``, or ``None`` when nothing prunes (no
    events, or a featureless one, which holds every histogram) or when
    ``n`` times a row's values would overflow the tests' sums.

    A row ``i`` of an event bounds the feature sum ``s = sum_k c_k f_ik``
    of a histogram by ``n (a_i - MEMBERSHIP_TOL) - slack <= s`` (``ge``,
    ``eq``) and ``s <= n (a_i + MEMBERSHIP_TOL) + slack`` (``le``, ``eq``),
    since the mask keeps rows up to the tolerance beyond the target.  The
    slack ``8 (D + 2) u n (max|f_i| + |a_i| + MEMBERSHIP_TOL)`` bounds the
    rounding of the mask's moments and of the tests themselves, so a test
    never drops a row the mask keeps.  Each bound is a test ``g . c >=
    beta`` with ``g = +-f_i``.  ``sums`` holds ``g . c - beta`` over a
    prefix's columns, one row per test, grouped by event, and starts at
    ``-beta``; ``groups`` are the groups' first rows, and the two clip
    tests of :func:`_reach` follow the last group.

    ``columns[j]`` serves column ``j``: ``(M, scales, g_j)``.  ``M`` is each
    test's largest ``g_k`` over the columns after ``j``, then the clip
    tests' 0 and 1.  ``scales`` are the ``(2, tests + 2, 1)`` factors of
    :func:`_reach`: ``-1 / |g_j - M|`` where ``g_j >= M`` in the first row
    and where ``g_j < M`` in the second, nan elsewhere, and -1 for the clip
    tests of ``v`` and of ``-v``.  The tests are few and short, so they are
    laid out in Python and each column's arrays made once.
    """
    if not events or any(event.dim == 0 for event in events):
        return None
    rounding = 8 * (parts + 2) * sys.float_info.epsilon * n
    tests, sums, groups = [], [], []
    for event in events:
        groups.append(len(tests))
        rows = event.features.matrix.tolist()
        for f, sign, a in zip(rows, event._sign.tolist(), event.targets.tolist()):
            size = max(map(abs, f)) + abs(a) + MEMBERSHIP_TOL
            if not math.isfinite(4.0 * n * size):  # the tests' sums would overflow
                return None
            margin = n * MEMBERSHIP_TOL + rounding * size
            for side in (1.0, -1.0):
                if sign * side >= 0:  # ge and eq below, le and eq above
                    tests.append([side * x for x in f])
                    sums.append(margin - side * n * a)
    maxima, scales = [], []  # per column
    for j in range(parts - 1):
        top = [max(g[j + 1 :]) for g in tests]
        scale = [-1.0 / abs(g[j] - m) if g[j] != m else -math.inf
                 for g, m in zip(tests, top)]
        up = [g[j] >= m for g, m in zip(tests, top)]
        maxima.append(top + [0.0, 1.0])
        scales.append(
            [
                [x if u else math.nan for x, u in zip(scale, up)] + [-1.0, math.nan],
                [math.nan if u else x for x, u in zip(scale, up)] + [math.nan, -1.0],
            ]
        )
    coefs = np.array(tests).T[:-1]
    columns = list(zip(np.array(maxima), np.array(scales)[..., None], coefs))
    return np.array(sums)[:, None], columns, np.array(groups + [len(tests)])


def _reach(column, sums, rem, groups):
    """``(lo, sizes)``: the values ``lo..lo + sizes - 1`` that each prefix
    (test sums ``sums``, remainder ``rem``) may take in the next column and
    still reach an event, the hull of the events' intervals; ``column`` and
    ``groups`` are :func:`_reach_plan`'s.

    With ``M`` the largest ``g_k`` over the columns after this one, the
    most a test's ``g . c - beta`` can reach from a prefix that takes ``v``
    here is ``sums + v g_j + (rem - v) M``.  It is at least 0 when ``(g_j -
    M) v >= -(sums + rem M)``: ``v >= (sums + rem M) (-1 / |g_j - M|)``
    when ``g_j >= M`` and ``-v >=`` the same when ``g_j < M``.  At ``g_j =
    M`` the factor is ``-inf``, so the end is ``-inf`` when the test holds
    whatever ``v`` is, ``+inf`` when it fails, and nan, which ``fmax``
    skips, at the edge.  The clip tests ``v >= 0`` and ``-v >= -rem`` come
    last.  Each event's ends are the largest of its tests', the hull's the
    smallest of the events', and the clip tests' bound them; each pass
    takes every test at once.
    """
    maxima, scales, _ = column
    reach = np.multiply.outer(maxima, rem)
    reach[: len(sums)] += sums
    with np.errstate(invalid="ignore"):  # 0 * -inf, at the edge
        ends = reach * scales  # (2, tests, prefixes): ends on v, then on -v
    if len(groups) == 2:  # one event
        ends = np.fmax.reduce(ends, axis=1)
    else:
        ends = np.fmax.reduceat(ends, groups, axis=1)
        ends = np.fmax(ends[:, :-1].min(axis=1), ends[:, -1])
    np.ceil(ends, out=ends)
    lo, neg_hi = ends
    sizes = 1.0 - lo
    sizes -= neg_hi
    np.maximum(sizes, 0.0, out=sizes)
    return np.minimum(lo, rem).astype(np.int64), sizes.astype(np.int64)


def _row_moments(counts: np.ndarray, constraints: ConstraintSet, n: int) -> np.ndarray:
    """The ``(d, M)`` constraint-feature means of the histogram rows of
    ``counts`` (``n`` samples each); a featureless matrix may be 0 x 0."""
    if constraints.dim == 0:
        return np.zeros((0, counts.shape[0]))
    return constraints.features.matrix @ (counts.T / n)


def _event_mask(counts: np.ndarray, constraints: ConstraintSet, n: int) -> np.ndarray:
    """Which histogram rows of ``counts`` (``n`` samples each) lie in the
    event, to the tolerance ``dist.MEMBERSHIP_TOL``."""
    return constraint_mask(constraints, _row_moments(counts, constraints, n))


def _outcome_classes(
    p: FiniteDistribution, constraints: ConstraintSet
) -> tuple[np.ndarray, ConstraintSet]:
    """Lump ``p``'s outcomes by their constraint-feature column:
    ``(class probabilities, the constraints over the classes)``.

    Outcomes of zero mass are dropped; the rest are grouped by equal
    columns, classes ordered by their first outcome.  A class's probability
    is the sum of its outcomes' masses and its column is its first
    outcome's, so a histogram's moments depend only on its class counts
    (the method of types).  With full support and distinct columns the map
    is the identity and the probabilities are ``p.probs`` bit for bit.
    """
    support = np.flatnonzero(p.support)
    matrix = constraints.features.matrix
    columns = matrix[:, support] if constraints.dim else np.zeros((0, support.size))
    _, first, inverse = np.unique(
        columns.T, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.argsort(order)  # class index of each unique column
    probs = np.bincount(rank[inverse.reshape(-1)], weights=p.probs[support])
    features = FeatureSet(constraints.features.names, columns[:, first[order]])
    return probs, ConstraintSet(features, constraints.kinds, constraints.targets)


def _rate_projection(p: FiniteDistribution, constraints: ConstraintSet, projection):
    """``projection``, solved on ``p`` (so ``P*`` keeps its support) and on
    the features of ``constraints`` (else :class:`DomainError`); when it is
    ``None``, ``p`` projected onto ``constraints`` at the default options."""
    if projection is None:
        return project_inequality(p, constraints)
    model = projection.model
    if not _same_prior(model.prior, p):
        raise DomainError("the projection was solved on another prior")
    if not np.array_equal(model.features.matrix, constraints.features.matrix):
        raise DomainError("the projection was solved on other features")
    return projection


def _check_sample(p: FiniteDistribution, constraints: ConstraintSet, n: int) -> None:
    """Reject a sample size below 1 or above 2**63 - 1 and features over
    another alphabet."""
    if n < 1:
        raise DomainError("sample size must be at least 1")
    if n > _MAX_SAMPLE_SIZE:
        raise DomainError(f"sample size must be at most 2**63 - 1, got {n}")
    constraints.features.check_alphabet(p)


def _table(p: FiniteDistribution, n: int, cap: int, events=()):
    """The histograms of ``n >= 1`` samples over ``p``'s alphabet that can
    reach one of ``events`` (:func:`_enumerate`), as ``(histograms, log
    probabilities under p)``.  A row's log-probability is its log
    multinomial coefficient, weighed while the table is enumerated, plus
    its log-likelihood; neither depends on the other rows.
    """
    comps, log_probs = _enumerate(n, len(p), cap, events)
    log_probs += _two_rows(lambda c: _log_likelihood(c, p), comps, p.support)
    return comps, log_probs


def _two_rows(score, counts: np.ndarray, support: np.ndarray | None = None):
    """``score(counts)``, a row-wise product over the rows of ``counts``
    that count no outcome outside ``support`` (every row when it is
    ``None``), taken over at least two such rows.

    numpy takes another kernel for a product over one row, whose last bits
    differ, so a table with one such row is scored twice over and the
    first half kept: a row scores the same bits in any table.
    """
    if support is None or support.all():
        rows = len(counts)
    else:
        rows = np.count_nonzero(~counts[:, ~support].any(axis=1))
    if rows != 1:
        return score(counts)
    return score(np.concatenate((counts, counts)))[..., : len(counts)]


def _event_rows(table, constraints: ConstraintSet, n: int):
    """``(mask, selection, moments)`` over the rows of ``table``: the
    histograms in the event, those of them with positive probability under
    ``p``, and every row's feature means (:func:`_row_moments`, over at
    least two rows)."""
    moments = _two_rows(lambda c: _row_moments(c, constraints, n), table[0])
    mask = constraint_mask(constraints, moments)
    return mask, mask & (table[1] > -math.inf), moments


def _event_law(log_probs: np.ndarray, sel: np.ndarray, moments: np.ndarray):
    """``(log Pr(A), E_mu[f])``, the law of the event whose supported rows
    are ``sel`` (not all false): ``mu`` weighs each selected histogram by
    ``exp(log_probs - log Pr(A))``, and ``E_mu[f]`` is the weighted mean of
    the selected columns of the rows' ``(d, M)`` feature ``moments``.  The
    reports read ``D(mu_A || P*^n) = -log Pr(A) - n lam* . E_mu[f] +
    n A(lam*)``, the gap ``lam* . (E_mu[f] - E_P*[f])`` and the nested
    slack ``-n lam* . (E_mu_B[f] - E_mu_A[f])`` off it;
    :func:`conditional_law` computes ``log Pr`` only."""
    sel_lhp = log_probs[sel]
    log_prob = _logsumexp(sel_lhp)
    return log_prob, moments[:, sel] @ np.exp(sel_lhp - log_prob)


def _exact_reports(p, constraints, n, cap, projection, inner=None):
    """The body of the exact reports: one table of ``p`` at ``n``, the
    projection onto ``constraints`` (:func:`_rate_projection`) and the law
    of each event on that table (:func:`_event_law`).

    Returns ``(report, nested)``: the event's :class:`SanovReport` and,
    when ``inner`` is given, the :class:`IdentityReport` of
    :func:`nested_relative_probability`, else ``None``; ``inner``'s means
    are taken over the event's features.  Before anything is projected,
    ``inner`` must lie inside the event (else :class:`DomainError`) and
    hold a supported histogram (else :class:`EmptyEvent`).
    """
    _check_sample(p, constraints, n)
    if inner is None:
        table = _table(p, n, cap, (constraints,))
    else:  # one table holds the rows that can reach either event
        inner.features.check_alphabet(p)
        table = _table(p, n, cap, (constraints, inner))
        # First, so that its moments are freed before the event's.
        inner_mask, inner_sel = _event_rows(table, inner, n)[:2]
    mask, sel, moments = _event_rows(table, constraints, n)
    if inner is not None:
        if np.any(inner_mask & ~mask):
            raise DomainError(
                "inner event is not contained in the outer event at this n"
            )
        if not np.any(inner_sel):
            raise EmptyEvent("both events must have positive probability")
    projection = _rate_projection(p, constraints, projection)
    model = projection.model
    law = _event_law(table[1], sel, moments) if np.any(sel) else None
    empty = projection.status is Status.INFEASIBLE or law is None
    log_prob, conditional_div, gap, residual = -math.inf, math.nan, math.nan, math.nan
    if not empty:
        log_prob, means = law
        # Grouped conditional divergence (1/n) D(mu_A || P*^n), and the
        # Pythagorean gap (E_mu_bar - E_P*)[log(P*/P)] = lam* . (E_mu - E_P*)[f].
        conditional_div = _divergence(log_prob, means, model, n) / n
        gap = float(model.lam @ (means - mean_parameters(model)))
        residual = conditional_div + gap
    report = _sanov_report(
        projection,
        n=n,
        log_prob=log_prob,
        residual=residual,
        num_histograms_in_event=int(mask.sum()),
        method=Method.EXACT,
        conditional_divergence=conditional_div,
        pythagorean_gap=gap,
        empty_event=empty,
    )
    if inner is None:
        return report, None
    # The inner event holds a supported histogram, so the event does too.
    law_b = _event_law(table[1], inner_sel, moments)
    div_a, div_b = _divergence(*law, model, n), _divergence(*law_b, model, n)
    slack = -n * float(model.lam @ (law_b[1] - law[1]))
    nested = _report(
        "nested_relative_probability",
        law_b[0] - law[0],
        -(div_b - div_a) + slack,
        TOL_CLOSED_FORM,
        {
            "divergence_inner": div_b / n,
            "divergence_outer": div_a / n,
            "slack": slack,
        },
    )
    return report, nested


def _divergence(log_prob: float, means: np.ndarray, model, n: int) -> float:
    """``D(mu_A || P*^n)`` of the event law ``(log_prob, means)``, not
    divided by ``n``, for ``P*`` the member ``model`` (:func:`_event_law`)."""
    return -log_prob - n * float(model.lam @ means) + n * model.log_partition


def enumerate_event(
    p: FiniteDistribution,
    constraints: ConstraintSet,
    n: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    projection: ProjectionResult | None = None,
) -> SanovReport:
    """Exact event probability and finite-sample identity decomposition.

    The rate term comes from the information projection of ``p`` onto the
    constraints; boundary-nonattained projections are evaluated at the
    descent's last iterate and flagged.  The projection is solved at the
    default solver options unless given as ``projection``, and then it is
    not solved again.
    """
    return _exact_reports(p, constraints, n, cap, projection)[0]


def conditional_law(
    p: FiniteDistribution,
    constraints: ConstraintSet,
    n: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ConditionalLaw:
    """Histogram-level conditional law given the event; masses sum to 1."""
    _check_sample(p, constraints, n)
    table = _table(p, n, cap, (constraints,))
    comps, lhp = table
    sel = _event_rows(table, constraints, n)[1]
    if not np.any(sel):
        raise EmptyEvent("the event has probability zero at this sample size")
    sel_lhp = lhp[sel]
    return ConditionalLaw(comps[sel], np.exp(sel_lhp - _logsumexp(sel_lhp)), n)


def gibbs_conditioning_curve(
    p: FiniteDistribution,
    constraints: ConstraintSet,
    n_list: list[int],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    projection: ProjectionResult | None = None,
) -> list[SanovReport]:
    """Per-``n`` identity decompositions along a sample-size schedule.

    The projection does not depend on ``n``: it is solved once (or taken
    from ``projection``) and shared by every point.  Every ``n`` is checked
    (:func:`_check_sample`, the cap) before anything is projected or
    enumerated.  The conditional residual tends to zero but is not
    asserted monotone; consumers compare endpoints.
    """
    for n in n_list:
        _check_sample(p, constraints, n)
        _check_cap(n, len(p), cap)
    projection = _rate_projection(p, constraints, projection)
    return [
        enumerate_event(p, constraints, n, cap=cap, projection=projection)
        for n in n_list
    ]


def gibbs_curve_csv(reports: list[SanovReport]) -> str:
    lines = ["n,log_prob,rate,residual"]
    for r in reports:
        lines.append(f"{r.n},{r.log_prob!r},{r.rate!r},{r.residual!r}")
    return "\n".join(lines) + "\n"


def nested_relative_probability(
    p: FiniteDistribution,
    outer: ConstraintSet,
    inner: ConstraintSet,
    n: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    projection: ProjectionResult | None = None,
) -> IdentityReport:
    """Relative probability of a nested event via the projection of the
    outer one: checks

        log Pr(inner | outer) = -(D(mu_B||P*^n) - D(mu_A||P*^n)) + slack

    where the slack term ``n (E_mu_bar_B - E_mu_bar_A)[log(P/P*)] = -n
    lam* . (E_mu_B - E_mu_A)[f]``, over the outer event's features ``f``,
    vanishes for equality-type outer constraints.  Containment of the inner
    event in the outer one is verified by enumeration.  A caller that has
    already projected ``p`` onto ``outer`` passes the result as
    ``projection``, and it is not solved again.
    """
    return _exact_reports(p, outer, n, cap, projection, inner)[1]


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """The Wilson score interval of ``hits`` in ``trials``.  Its lower end
    at 0 hits and its upper end at ``hits == trials`` are exactly 0 and 1,
    which the formula reaches only up to rounding."""
    z2 = _WILSON_Z**2
    phat = hits / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (
        _WILSON_Z
        * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials**2))
        / denom
    )
    low = 0.0 if hits == 0 else max(0.0, center - half)
    high = 1.0 if hits == trials else min(1.0, center + half)
    return low, high


def _two_class_hits(first: np.ndarray, constraints: ConstraintSet, n: int) -> int:
    """How many of the two-class histograms ``(k, n - k)``, one per entry
    ``k`` of ``first``, lie in the event (:func:`_event_mask`).

    When the draws span no more values than there are draws, each value
    from the smallest to the largest is tested once and the draws are
    counted per value; past that (the span grows as ``sqrt(n q (1 - q))``:
    65,536 draws at ``q = 1/2`` span about 65,000 values at ``n = 2e8``)
    the drawn rows are tested, so no more rows than draws are ever held.
    """
    lo, hi = int(first.min()), int(first.max())
    if hi - lo < first.size:
        first = first - lo
        k = np.arange(lo, hi + 1, dtype=np.int64)
        inside = _event_mask(np.column_stack((k, n - k)), constraints, n)
        return int(np.bincount(first, minlength=k.size) @ inside)
    return int(_event_mask(np.column_stack((first, n - first)), constraints, n).sum())


def monte_carlo_event(
    p: FiniteDistribution,
    constraints: ConstraintSet,
    n: int,
    trials: int,
    seed: int = 0,
    *,
    threads: int = 1,
    projection: ProjectionResult | None = None,
) -> SanovReport:
    """Monte Carlo estimate of the event probability, for instances past
    the enumeration cap.

    Trials are partitioned into fixed-size chunks, each with its own
    SFC64 stream keyed by ``(seed, chunk)`` (:func:`_rng.chunk_stream`), so
    the hit count is independent of thread count.  Targets the projection
    refutes (``INFEASIBLE``) hold no histogram, so they draw no chunk and
    score 0 hits.  The rate term stays exact (projection, solved at the
    default solver options unless given as ``projection``); the residual
    is the identity-implied estimate and is flagged by ``method``.

    Trials draw class counts, not outcome counts (:func:`_outcome_classes`):
    Multinomial(n, p) summed over the classes is Multinomial(n, q), so the
    hit law is exact.  An outcome-indicator tail lumps to 2 classes at any
    alphabet size.  Inputs with full support and distinct columns draw
    exactly what the unlumped sampler drew; a zero-mass outcome or a
    repeated column among supported outcomes changes the draws, and so the
    hits, but not their law.

    Two classes take one binomial draw per trial, the first class's count,
    which is what numpy's multinomial sampler draws from the same stream
    before it takes the remainder, and the membership test runs once per
    distinct count (:func:`_two_class_hits`): a chunk holds its draws and
    at most as many ``(k, n - k)`` rows and their float copy, at most 3 MB
    at 65,536 trials.  Other class counts draw per row, in blocks of at
    most 2^20 cells (about 16 MB of counts and their float copy).  Past
    n = 2^58 every draw is a sum of draws of at most 2^58 trials
    (:func:`_rng.in_pieces`), where numpy's samplers keep their law.
    """
    _check_sample(p, constraints, n)
    if trials < 1:
        raise DomainError("need at least one trial")
    _checked(seed)
    projection = _rate_projection(p, constraints, projection)

    probs, lumped = _outcome_classes(p, constraints)
    num_chunks = (trials + _MC_CHUNK - 1) // _MC_CHUNK
    if projection.status is Status.INFEASIBLE:  # no histogram meets them
        num_chunks = 0
    block = max(1, _MC_BLOCK_CELLS // probs.size)

    def run_chunk(idx: int) -> int:
        # One generator per chunk, drawn in row blocks: consecutive draws
        # give the same histograms as one draw of the whole chunk.
        size = min(_MC_CHUNK, trials - idx * _MC_CHUNK)
        rng = chunk_stream(seed, idx)
        hits = 0
        for start in range(0, size, block):
            m = min(block, size - start)
            if probs.size == 2:
                first = in_pieces(rng.binomial, n, probs[0], m)
                hits += _two_class_hits(first, lumped, n)
            else:
                counts = in_pieces(rng.multinomial, n, probs, m)
                hits += int(_event_mask(counts, lumped, n).sum())
        return hits

    hits = sum(ordered_map(run_chunk, range(num_chunks), threads))

    low, high = _wilson_interval(hits, trials)
    if hits == 0:
        log_prob = -math.inf
        residual = math.nan
    else:
        log_prob = math.log(hits / trials)
        residual = -log_prob / n - projection.min_divergence
    return _sanov_report(
        projection,
        n=n,
        log_prob=log_prob,
        residual=residual,
        num_histograms_in_event=0,
        method=Method.MONTE_CARLO,
        empty_event=hits == 0,
        hits=hits,
        trials=trials,
        wilson_low=low,
        wilson_high=high,
    )
