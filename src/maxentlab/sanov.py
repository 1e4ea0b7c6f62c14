"""Exact small-sample large-deviations laboratory.

Events are sets of empirical measures defined by moment constraints.  For
sample size ``n >= 1`` over ``D`` outcomes all ``C(n+D-1, D-1)`` histograms
are enumerated (microstates are grouped by histogram, which is exact by
exchangeability) and scored under ``P`` and ``P*`` with the likelihood
kernel of :mod:`maxentlab.multinomial`, giving the event probability, the
projection rate term, and the conditional-law residual of the finite-sample
identity

    (1/n) log Pr(event) + D(P*||P) + residual = 0.

The residual splits into the grouped conditional divergence
``(1/n) D(mu_A || P*^n)`` plus the Pythagorean gap
``E_{mu_bar}[log(P*/P)] - D(P*||P)``.  The gap vanishes when the active
constraints are equalities (every histogram in the event then shares the
projected moments, which is the textbook setting); for half-space events
it is non-negative, and the three-term identity above closes exactly for
*any* reference distribution, which is what makes it an identity rather
than a bound.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._rng import ordered_map, substream
from .dist import ConstraintSet, FiniteDistribution, constraint_mask
from .errors import DomainError, EmptyEvent, EnumerationCapExceeded
from .expfam import _logsumexp
from .identities import IdentityReport
from .multinomial import _log_likelihood
from .projection import ProjectionResult, SolverOptions, Status, project_inequality

DEFAULT_ENUMERATION_CAP = 2_000_000
_WILSON_Z = 1.959963984540054  # 97.5% normal quantile
_MC_CHUNK = 1 << 16


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
        out = {
            "n": self.n,
            "log_prob": self.log_prob,
            "rate": self.rate,
            "residual": self.residual,
            "num_histograms_in_event": self.num_histograms_in_event,
            "method": self.method.value,
            "conditional_divergence": self.conditional_divergence,
            "pythagorean_gap": self.pythagorean_gap,
            "boundary_projection": self.boundary_projection,
            "empty_event": self.empty_event,
            "projection": self.projection.to_json(),
        }
        if self.method is Method.MONTE_CARLO:
            out.update(
                hits=self.hits,
                trials=self.trials,
                wilson_low=self.wilson_low,
                wilson_high=self.wilson_high,
            )
        return out


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


def compositions(n: int, parts: int, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """All vectors of ``parts`` non-negative integers summing to ``n``, as
    ``int64`` rows in lexicographic order.

    Stars and bars (Knuth, TAOCP 4A, 7.2.1.3): each composition is a choice
    of ``parts - 1`` bar positions among ``n + parts - 1`` slots, and its
    entries are the gaps between consecutive bars, with fixed end bars at
    ``-1`` and ``n + parts - 1``.  Bar tuples come out of
    ``itertools.combinations`` in lexicographic order, and so do the gaps.

    Raises :class:`EnumerationCapExceeded` when the count would pass ``cap``,
    before anything is allocated.
    """
    total = num_compositions(n, parts)
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} histograms exceed the cap of {cap}"
        )
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


def _event_mask(counts: np.ndarray, constraints: ConstraintSet, n: int) -> np.ndarray:
    """Which histogram rows of ``counts`` (``n`` samples each) lie in the
    event, to the tolerance ``dist.MEMBERSHIP_TOL``."""
    if constraints.dim == 0:
        return np.ones(counts.shape[0], dtype=bool)
    values = constraints.features.matrix @ (counts.T / n)  # (d, M)
    return constraint_mask(constraints, values)


def _masked_log_ratio(
    weights: np.ndarray, num_log: np.ndarray, den_log: np.ndarray
) -> float:
    """``sum_i weights[i] * (num_log[i] - den_log[i])`` with 0 * (+-inf) = 0.

    Returns ``inf`` when positive weight meets a ``-inf`` numerator term's
    counterpart (support violation of the denominator distribution); the
    first infinite term decides.  Finite terms are summed left to right.
    """
    used = weights != 0.0
    w = weights[used]
    terms = num_log[used] - den_log[used]
    infinite = np.isinf(terms)
    if np.any(infinite):
        i = int(np.argmax(infinite))
        return math.inf if (terms[i] > 0) == (w[i] > 0) else -math.inf
    return float(np.cumsum(np.append(0.0, w * terms))[-1])


def _enumerate(p: FiniteDistribution, constraints: ConstraintSet, n: int, cap: int):
    """Every histogram of ``n >= 1`` samples over ``p``'s alphabet, as
    ``(histograms, event mask, log multinomial coefficients, log
    probabilities under p)``.

    ``log Gamma`` comes from a table over ``0..n``: the batch form of
    :func:`maxentlab.multinomial.log_multinomial` for many histograms at
    one ``n``, holding the same float64 values as evaluating it cell by cell.
    """
    if n < 1:
        raise DomainError("sample size must be at least 1")
    if constraints.dim:
        constraints.features.check_alphabet(p)
    comps = compositions(n, len(p), cap)
    mask = _event_mask(comps, constraints, n)
    lgamma = gammaln(np.arange(1, n + 2))
    log_w = lgamma[n] - lgamma[comps].sum(axis=1)
    log_probs = _log_likelihood(comps, p)
    log_probs += log_w
    return comps, mask, log_w, log_probs


def _condition(lhp: np.ndarray) -> tuple[float, np.ndarray]:
    """``(log Pr, conditional weights)`` of histograms with finite
    log-probabilities ``lhp``."""
    log_prob = _logsumexp(lhp)
    return log_prob, np.exp(lhp - log_prob)


def _event_stats(
    comps: np.ndarray,
    log_w: np.ndarray,
    lhp: np.ndarray,
    sel: np.ndarray,
    p_star: FiniteDistribution,
    n: int,
) -> tuple[float, float, np.ndarray]:
    """``(log_prob, divergence, mu_bar)`` of the histograms ``comps[sel]``,
    whose log multinomial coefficients and log-probabilities are
    ``log_w[sel]`` and ``lhp[sel]`` (all finite).

    ``divergence`` is ``D(mu || P*^n)`` (not divided by ``n``) for the
    conditional law ``mu`` given the selection, infinite when ``P*`` has no
    support on a histogram of positive conditional mass; ``mu_bar`` is that
    law's mean empirical measure.
    """
    sub = comps[sel]
    sel_lhp = lhp[sel]
    log_prob, weights = _condition(sel_lhp)
    star_scores = _log_likelihood(sub, p_star)
    if np.any(np.isneginf(star_scores) & (weights > 0)):
        divergence = math.inf
    else:
        per_hist = (sel_lhp - log_prob) - log_w[sel] - star_scores
        divergence = float(np.dot(weights, per_hist))
    return log_prob, divergence, weights @ (sub / n)


def enumerate_event(
    p: FiniteDistribution,
    constraints: ConstraintSet,
    n: int,
    opts: SolverOptions | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    projection: ProjectionResult | None = None,
) -> SanovReport:
    """Exact event probability and finite-sample identity decomposition.

    The rate term comes from the information projection of ``p`` onto the
    constraints; boundary-nonattained projections are evaluated at the
    capped parameters and flagged.  A caller that has already solved that
    projection passes it as ``projection``, and it is not solved again.
    """
    comps, mask, log_w, lhp = _enumerate(p, constraints, n, cap)
    sel = mask & (lhp > -math.inf)

    if projection is None:
        projection = project_inequality(p, constraints, opts)
    empty = projection.status is Status.INFEASIBLE or not np.any(sel)
    log_prob, conditional_div, gap, residual = -math.inf, math.nan, math.nan, math.nan
    if not empty:
        p_star = projection.model.to_distribution()
        log_prob, divergence, mu_bar = _event_stats(comps, log_w, lhp, sel, p_star, n)
        # Grouped conditional divergence (1/n) D(mu_A || P*^n).  It is
        # infinite when the capped projection has no support on part of the
        # event, and then the identity cannot close.
        conditional_div = divergence / n
        if math.isinf(divergence):
            residual = math.inf
        else:
            # Pythagorean gap: (E_mu_bar - E_P*)[log(P*/P)].
            log_ratio_mu = _masked_log_ratio(mu_bar, p_star.log_probs, p.log_probs)
            log_ratio_star = _masked_log_ratio(
                p_star.probs, p_star.log_probs, p.log_probs
            )
            gap = log_ratio_mu - log_ratio_star
            residual = conditional_div + gap
    return SanovReport(
        n=n,
        log_prob=log_prob,
        rate=projection.min_divergence,
        residual=residual,
        num_histograms_in_event=int(mask.sum()),
        method=Method.EXACT,
        projection=projection,
        conditional_divergence=conditional_div,
        pythagorean_gap=gap,
        boundary_projection=projection.status is Status.BOUNDARY_NONATTAINED,
        empty_event=empty,
    )


def conditional_law(
    p: FiniteDistribution,
    constraints: ConstraintSet,
    n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ConditionalLaw:
    """Histogram-level conditional law given the event; masses sum to 1."""
    comps, mask, _, lhp = _enumerate(p, constraints, n, cap)
    sel = mask & (lhp > -math.inf)
    if not np.any(sel):
        raise EmptyEvent("the event has probability zero at this sample size")
    _, masses = _condition(lhp[sel])
    return ConditionalLaw(histograms=comps[sel], masses=masses, n=n)


def gibbs_conditioning_curve(
    p: FiniteDistribution,
    constraints: ConstraintSet,
    n_list: list[int],
    opts: SolverOptions | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    projection: ProjectionResult | None = None,
) -> list[SanovReport]:
    """Per-``n`` identity decompositions along a sample-size schedule.

    The projection does not depend on ``n``: it is solved once (or taken
    from ``projection``) and shared by every point.  The conditional
    residual tends to zero but is not asserted monotone; consumers compare
    endpoints.
    """
    reports = []
    for n in n_list:
        report = enumerate_event(
            p, constraints, n, opts, cap, projection=projection
        )
        projection = report.projection
        reports.append(report)
    return reports


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
    opts: SolverOptions | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    projection: ProjectionResult | None = None,
) -> IdentityReport:
    """Relative probability of a nested event via the projection of the
    outer one: checks

        log Pr(inner | outer) = -(D(mu_B||P*^n) - D(mu_A||P*^n)) + slack

    where the slack term ``n (E_mu_bar_B - E_mu_bar_A)[log(P/P*)]``
    vanishes for equality-type outer constraints.  Containment of the
    inner event in the outer one is verified by enumeration.  A caller
    that has already projected ``p`` onto ``outer`` passes the result as
    ``projection``, and it is not solved again.
    """
    comps, mask_outer, log_w, lhp = _enumerate(p, outer, n, cap)
    mask_inner = _event_mask(comps, inner, n)
    if np.any(mask_inner & ~mask_outer):
        raise DomainError(
            "inner event is not contained in the outer event at this n"
        )
    finite = lhp > -math.inf
    if not np.any(mask_outer & finite) or not np.any(mask_inner & finite):
        raise EmptyEvent("both events must have positive probability")

    if projection is None:
        projection = project_inequality(p, outer, opts)
    p_star = projection.model.to_distribution()
    log_prob_outer, div_outer, mu_bar_outer = _event_stats(
        comps, log_w, lhp, mask_outer & finite, p_star, n
    )
    log_prob_inner, div_inner, mu_bar_inner = _event_stats(
        comps, log_w, lhp, mask_inner & finite, p_star, n
    )

    direct = log_prob_inner - log_prob_outer
    slack = n * _masked_log_ratio(
        mu_bar_inner - mu_bar_outer, p.log_probs, p_star.log_probs
    )
    formula = -(div_inner - div_outer) + slack
    residual = direct - formula
    return IdentityReport(
        name="nested_relative_probability",
        lhs=direct,
        rhs=formula,
        residual=residual,
        tol=1e-10,
        passed=bool(abs(residual) <= 1e-10),
        details={
            "divergence_inner": div_inner / n,
            "divergence_outer": div_outer / n,
            "slack": slack,
        },
    )


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    z2 = _WILSON_Z**2
    phat = hits / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (
        _WILSON_Z
        * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials**2))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def monte_carlo_event(
    p: FiniteDistribution,
    constraints: ConstraintSet,
    n: int,
    trials: int,
    seed: int = 0,
    opts: SolverOptions | None = None,
    threads: int = 1,
) -> SanovReport:
    """Monte Carlo estimate of the event probability, for instances past
    the enumeration cap.

    Trials are partitioned into fixed-size chunks with counter-derived
    random streams, so the hit count is independent of thread count.  The
    rate term stays exact (projection); the residual is the
    identity-implied estimate and is flagged by ``method``.
    """
    if n < 1:
        raise DomainError("sample size must be at least 1")
    if trials < 1:
        raise DomainError("need at least one trial")
    if constraints.dim:
        constraints.features.check_alphabet(p)

    num_chunks = (trials + _MC_CHUNK - 1) // _MC_CHUNK

    def run_chunk(idx: int) -> int:
        size = min(_MC_CHUNK, trials - idx * _MC_CHUNK)
        rng = substream(seed, idx)
        counts = rng.multinomial(n, p.probs, size=size)
        return int(_event_mask(counts, constraints, n).sum())

    hits = sum(ordered_map(run_chunk, range(num_chunks), threads))

    projection = project_inequality(p, constraints, opts)
    rate = projection.min_divergence
    low, high = _wilson_interval(hits, trials)
    if hits == 0:
        log_prob = -math.inf
        residual = math.nan
    else:
        log_prob = math.log(hits / trials)
        residual = -log_prob / n - rate
    return SanovReport(
        n=n,
        log_prob=log_prob,
        rate=rate,
        residual=residual,
        num_histograms_in_event=0,
        method=Method.MONTE_CARLO,
        projection=projection,
        boundary_projection=projection.status is Status.BOUNDARY_NONATTAINED,
        empty_event=hits == 0,
        hits=hits,
        trials=trials,
        wilson_low=low,
        wilson_high=high,
    )
