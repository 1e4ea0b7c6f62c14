"""Exact log-probabilities of sample histograms and their Stirling
approximations, plus the accuracy experiment comparing them.

The count vector ``(n_1, ..., n_D)`` of ``n`` i.i.d. draws from ``P`` has
probability ``n!/(n_1! ... n_D!) * prod_i P_i^{n_i}``.  Everything here is
computed in the log domain via ``lgamma`` so that alphabets of tens of
thousands of outcomes are exact to float precision.  Each formula exists
once here.  :mod:`maxentlab.sanov` scores its histogram tables with
``_log_likelihood`` and weighs each histogram from ``_log_factorials``
while it enumerates the table; ``_log_multinomial`` weighs single count
vectors.  ``_stirling_terms`` is the one Stirling body: the approximation,
the histogram report and every experiment cell read a histogram's zeroth
order, first-order correction and zero-count flag from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._rng import ordered_map, random_simplex, substream
from ._scipy import gammaln
from .dist import _MAX_SAMPLE_SIZE, EmpiricalMeasure, FiniteDistribution
from .errors import DomainError, ShapeMismatch

LOG_2PI = math.log(2.0 * math.pi)


class StirlingOrder(enum.Enum):
    ZEROTH = "zeroth"
    FIRST = "first"


def _log_factorials(m: int) -> np.ndarray:
    """``log k!`` at index ``k = 0..m``: indexed by counts ``c``, the values
    of ``gammaln(c + 1)`` in the same order, so sums keep their bits."""
    return gammaln(np.arange(1, m + 2))


def _log_multinomial(c: np.ndarray, n: int):
    """``log(n! / (c_1! ... c_D!))`` for a count vector ``c`` summing to
    ``n`` (a numpy float), or for each row of a table ``c`` of such vectors
    (an array).

    A table over ``0..max(c)`` costs no more than ``gammaln`` per count only
    while ``max(c)`` is at most the number of counts; past that
    ``gammaln(c + 1)`` is called directly, so time and memory follow the
    counts, not n.  Both give the same bits.
    """
    top = int(c.max())
    if top <= c.size:
        log_fact = _log_factorials(top)[c]
    else:
        # c + 1 in uint64: a count of 2**63 - 1 would wrap in int64.
        log_fact = gammaln(c.astype(np.uint64) + 1)
    return gammaln(n + 1) - log_fact.sum(axis=-1)


def log_multinomial(counts: EmpiricalMeasure) -> float:
    """Log of the multinomial coefficient ``n! / (n_1! ... n_D!)``."""
    return float(_log_multinomial(counts.counts, counts.n))


def _log_likelihood(counts: np.ndarray, p: FiniteDistribution) -> np.ndarray:
    """``counts @ log p`` for each histogram row of ``counts``, ``-inf`` for a
    row that counts an outcome outside ``p``'s support.  Rows over an
    alphabet of another size than ``p``'s raise :class:`ShapeMismatch`.

    The product runs over the supported rows and columns only: a zero-mass
    outcome's ``-inf`` never enters it, a full table of histograms scores
    only its few supported rows, and each row's sum keeps its bits
    whichever other rows lie outside the support."""
    if counts.shape[1] != len(p):
        raise ShapeMismatch(
            f"histogram over {counts.shape[1]} outcomes, distribution over {len(p)}"
        )
    supported = p.support
    if supported.all():
        return counts @ p.log_probs
    rows = ~counts[:, ~supported].any(axis=1)
    out = np.full(counts.shape[0], -math.inf)
    out[rows] = counts[np.ix_(rows, supported)] @ p.log_probs[supported]
    return out


def log_histogram_prob(counts: EmpiricalMeasure, p: FiniteDistribution) -> float:
    """Exact log-probability of observing the histogram ``counts`` under ``p``.

    Returns ``-inf`` when some outcome with zero probability was counted.
    """
    return log_multinomial(counts) + float(_log_likelihood(counts.counts[None], p)[0])


def _stirling_terms(c: np.ndarray, n: int) -> tuple[float, float, bool]:
    """The Stirling terms of the count vector ``c`` of ``n`` samples: the
    zeroth order ``n log n - sum_i c_i log c_i`` (``n * H(c / n)``), the
    first-order correction ``0.5 * [log(2 pi n) - sum_i log(2 pi c_i)]``
    and whether any count is zero.

    Both sums run over the positive counts, compacted and logged once.  A
    zero count adds its exact ``0 log 0 = 0`` to the zeroth order, but
    Stirling is not valid at ``0!``, so each caller states what a zero
    count does to the first order."""
    pos = np.compress(c > 0, c)
    log_pos = np.log(pos)
    zeroth = float(n * math.log(n) - np.dot(pos, log_pos))
    correction = 0.5 * (LOG_2PI + math.log(n) - float(np.sum(LOG_2PI + log_pos)))
    return zeroth, correction, pos.size < c.size


def stirling_log_multinomial(
    counts: EmpiricalMeasure, order: StirlingOrder = StirlingOrder.ZEROTH
) -> float:
    """Stirling approximation of :func:`log_multinomial`.

    Zeroth order is ``n * H(Q)`` with ``Q = counts / n``.  First order adds
    the correction ``0.5 * [log(2 pi n) - sum_i log(2 pi n Q_i)]``, which
    requires every count to be positive.
    """
    zeroth, correction, skipped = _stirling_terms(counts.counts, counts.n)
    if order is StirlingOrder.ZEROTH:
        return zeroth
    if skipped:
        raise DomainError(
            "first-order correction diverges on zero counts; "
            "every bin must be observed at least once"
        )
    return zeroth + correction


@dataclass(frozen=True)
class HistogramLogProb:
    """All log-domain quantities attached to one observed histogram."""

    exact_log_prob: float
    log_multinomial: float
    stirling_zeroth: float
    stirling_first_correction: float | None
    n: int
    alphabet_size: int


def describe_histogram(
    counts: EmpiricalMeasure, p: FiniteDistribution
) -> HistogramLogProb:
    """Bundle the exact log-probability with its Stirling approximations.

    The first-order correction is ``None`` when a zero count makes it
    undefined.
    """
    c = counts.counts
    coefficient = log_multinomial(counts)
    zeroth, correction, skipped = _stirling_terms(c, counts.n)
    return HistogramLogProb(
        exact_log_prob=coefficient + float(_log_likelihood(c[None], p)[0]),
        log_multinomial=coefficient,
        stirling_zeroth=zeroth,
        stirling_first_correction=None if skipped else correction,
        n=counts.n,
        alphabet_size=counts.alphabet_size,
    )


class PriorMode(str, enum.Enum):
    DIRICHLET1 = "dirichlet1"
    UNIFORM_ORTHANT = "uniform-orthant"


@dataclass(frozen=True)
class ExperimentRow:
    """One (n, trial) cell of the entropy-approximation experiment."""

    prior_mode: str
    alphabet_size: int
    n: int
    trial: int
    exact: float
    zeroth: float
    first: float
    err_zeroth: float
    err_first: float
    skipped_first: bool


def _uniform_subset(rng: np.random.Generator, size: int, population: int) -> np.ndarray:
    """A uniformly random ``size``-subset of ``range(population)``, sorted,
    as ``uint64``, for ``1 <= size <= population / 2`` and any population
    below ``2**64``.

    About ``-population * log1p(-size / population)`` uniform draws hold
    ``size`` distinct values on average; ``4 * sqrt`` of that many more
    draws, several standard deviations of the number of distinct values,
    make a redraw rare.  Given how many distinct values the draws hold,
    which values they are is a uniform subset of that size, so redrawing
    when there are too few, and keeping a uniform ``size``-subset of them
    when there are more, gives an exactly uniform subset.  Time and memory
    follow ``size``, whatever the population.
    """
    draws = -population * math.log1p(-size / population)
    draws = math.ceil(draws + 4.0 * math.sqrt(draws)) + 1
    while True:
        values = rng.integers(0, population, size=draws, dtype=np.uint64)
        values.sort()
        first = np.empty(values.size, dtype=bool)
        first[0] = True
        np.not_equal(values[1:], values[:-1], out=first[1:])
        # np.compress takes about half the time of a boolean index here.
        values = np.compress(first, values)
        surplus = values.size - size
        if surplus >= 0:
            break
    if surplus:
        keep = np.ones(values.size, dtype=bool)
        keep[rng.choice(values.size, surplus, replace=False, shuffle=False)] = False
        values = np.compress(keep, values)
    return values


def _uniform_composition(rng: np.random.Generator, n: int, parts: int) -> np.ndarray:
    """A uniformly random count vector of ``parts`` non-negative counts
    summing to ``n``: the histogram of ``Multinomial(n, P)`` with ``P``
    drawn from Dirichlet(1, ..., 1), which puts mass
    ``1 / C(n + parts - 1, parts - 1)`` on every histogram (Bose-Einstein
    counting).

    Stars and bars over ``n + parts - 1`` slots: while ``n >= parts - 1``
    the ``parts - 1`` bar positions are drawn and the counts are the gaps
    between them; below that the ``n`` star positions are drawn, and the
    star at position ``s_j`` falls in part ``s_j - j``.  Either way at most
    ``parts - 1`` positions are drawn, so memory stays O(parts) at any n.
    """
    slots = n + parts - 1
    if n < parts - 1:
        stars = _uniform_subset(rng, n, slots).astype(np.int64)
        stars -= np.arange(n)
        return np.bincount(stars, minlength=parts)
    edges = np.empty(parts + 1, dtype=np.uint64)
    edges[0] = 0
    np.add(_uniform_subset(rng, parts - 1, slots), 1, out=edges[1:-1])
    edges[-1] = slots + 1
    gaps = np.diff(edges)
    gaps -= 1
    return gaps.view(np.int64)  # every gap is at most n < 2**63


def _draw_counts(
    rng: np.random.Generator, mode: PriorMode, n: int, alphabet_size: int
) -> np.ndarray:
    """One cell's histogram of ``n`` draws from a ``P`` drawn from the prior.

    A row depends on the counts alone, so a Dirichlet(1) cell draws them
    from their marginal law, without drawing ``P``."""
    if mode is PriorMode.DIRICHLET1:
        return _uniform_composition(rng, n, alphabet_size)
    return rng.multinomial(n, random_simplex(rng, alphabet_size, 0.0))


def _experiment_cell(
    alphabet_size: int,
    n: int,
    trial: int,
    mode: PriorMode,
    seed: int,
    cell_index: int,
) -> ExperimentRow:
    counts = _draw_counts(substream(seed, cell_index), mode, n, alphabet_size)
    exact = float(_log_multinomial(counts, n))
    # The correction runs over observed bins only, keeping 0!'s exact
    # log 1 = 0; rows where that truncation happened carry skipped_first = 1.
    zeroth, correction, skipped = _stirling_terms(counts, n)
    first = zeroth + correction
    return ExperimentRow(
        prior_mode=mode.value,
        alphabet_size=alphabet_size,
        n=n,
        trial=trial,
        exact=exact,
        zeroth=zeroth,
        first=first,
        err_zeroth=exact - zeroth,
        err_first=exact - first,
        skipped_first=skipped,
    )


def entropy_approx_experiment(
    alphabet_size: int,
    n_grid: list[int],
    prior_mode: PriorMode | str = PriorMode.DIRICHLET1,
    trials: int = 20,
    seed: int = 0,
    threads: int = 1,
) -> list[ExperimentRow]:
    """Sample histograms and tabulate Stirling approximation errors.

    For every ``n`` in ``n_grid`` and every trial, a histogram of ``n``
    draws from a distribution ``P`` drawn from the prior is sampled, and
    the exact log-multinomial is recorded next to its zeroth- and
    first-order Stirling estimates.  Under ``uniform-orthant`` ``P`` is
    drawn and the histogram from ``Multinomial(n, P)``.  Under
    ``dirichlet1`` the histogram is drawn from its marginal law, uniform
    over all ``C(n + D - 1, D - 1)`` histograms (Bose-Einstein counting),
    with no ``P``: the same law, in O(D) memory and O(D log D) time at any
    ``n`` up to ``2**63 - 1``.  Each (n, trial) cell uses its own
    counter-derived random stream, so the output is identical for any
    thread count.
    """
    mode = PriorMode(prior_mode)
    if alphabet_size < 2:
        raise DomainError("alphabet size must be at least 2")
    if trials < 1:
        raise DomainError("need at least one trial")
    if any(n < 1 for n in n_grid):
        raise DomainError("every n must be at least 1")
    if any(n > _MAX_SAMPLE_SIZE for n in n_grid):
        raise DomainError("every n must be at most 2**63 - 1")
    cells = [
        (n, trial, idx)
        for idx, (n, trial) in enumerate(
            (n, t) for n in n_grid for t in range(trials)
        )
    ]

    def run(cell):
        n, trial, idx = cell
        return _experiment_cell(alphabet_size, n, trial, mode, seed, idx)

    return ordered_map(run, cells, threads)


EXPERIMENT_CSV_HEADER = (
    "prior_mode,D,n,trial,exact,zeroth,first,err_zeroth,err_first,skipped_first"
)


def experiment_csv(rows: list[ExperimentRow]) -> str:
    """Render experiment rows as CSV (deterministic float formatting)."""
    lines = [EXPERIMENT_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.prior_mode},{r.alphabet_size},{r.n},{r.trial},"
            f"{r.exact!r},{r.zeroth!r},{r.first!r},"
            f"{r.err_zeroth!r},{r.err_first!r},{int(r.skipped_first)}"
        )
    return "\n".join(lines) + "\n"
