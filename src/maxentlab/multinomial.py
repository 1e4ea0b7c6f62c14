"""Exact log-probabilities of sample histograms and their Stirling
approximations, plus the accuracy experiment comparing them.

The count vector ``(n_1, ..., n_D)`` of ``n`` i.i.d. draws from ``P`` has
probability ``n!/(n_1! ... n_D!) * prod_i P_i^{n_i}``.  Everything here is
computed in the log domain via ``lgamma`` so that alphabets of tens of
thousands of outcomes are exact to float precision.  Each formula exists
once here; :mod:`maxentlab.sanov` scores histograms with ``_log_likelihood``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._rng import ordered_map, substream
from .dist import EmpiricalMeasure, FiniteDistribution
from .errors import DomainError, ShapeMismatch

LOG_2PI = math.log(2.0 * math.pi)


class StirlingOrder(enum.Enum):
    ZEROTH = "zeroth"
    FIRST = "first"


def _log_multinomial(c: np.ndarray, n: int) -> float:
    """``log(n! / (c_1! ... c_D!))`` for a count vector ``c`` summing to ``n``."""
    return float(gammaln(n + 1) - gammaln(c + 1).sum())


def log_multinomial(counts: EmpiricalMeasure) -> float:
    """Log of the multinomial coefficient ``n! / (n_1! ... n_D!)``."""
    return _log_multinomial(counts.counts, counts.n)


def _log_likelihood(counts: np.ndarray, p: FiniteDistribution) -> np.ndarray:
    """``counts @ log p`` for each histogram row of ``counts``, ``-inf`` for a
    row that counts an outcome outside ``p``'s support."""
    supported = p.support
    out = np.full(counts.shape[0], -math.inf)
    ok = ~(counts[:, ~supported] > 0).any(axis=1)
    if np.any(ok):
        out[ok] = counts[np.ix_(ok, supported)] @ p.log_probs[supported]
    return out


def log_histogram_prob(counts: EmpiricalMeasure, p: FiniteDistribution) -> float:
    """Exact log-probability of observing the histogram ``counts`` under ``p``.

    Returns ``-inf`` when some outcome with zero probability was counted.
    """
    c = counts.counts
    if c.shape[0] != len(p):
        raise ShapeMismatch(
            f"histogram over {c.shape[0]} outcomes, distribution over {len(p)}"
        )
    return log_multinomial(counts) + float(_log_likelihood(c[None, :], p)[0])


def _counts_entropy_nats(c: np.ndarray, n: int) -> float:
    """``n * H(c / n)`` computed as ``n log n - sum_i c_i log c_i``."""
    pos = c[c > 0]
    return float(n * math.log(n) - np.dot(pos, np.log(pos)))


def _first_order_correction(pos: np.ndarray, n: int) -> float:
    """``0.5 * [log(2 pi n) - sum_i log(2 pi c_i)]`` over the positive counts
    ``pos`` of a histogram of ``n`` samples."""
    return 0.5 * (
        LOG_2PI + math.log(n) - float(np.sum(LOG_2PI + np.log(pos)))
    )


def stirling_log_multinomial(
    counts: EmpiricalMeasure, order: StirlingOrder = StirlingOrder.ZEROTH
) -> float:
    """Stirling approximation of :func:`log_multinomial`.

    Zeroth order is ``n * H(Q)`` with ``Q = counts / n``.  First order adds
    the correction ``0.5 * [log(2 pi n) - sum_i log(2 pi n Q_i)]``, which
    requires every count to be positive.
    """
    c = counts.counts
    n = counts.n
    zeroth = _counts_entropy_nats(c, n)
    if order is StirlingOrder.ZEROTH:
        return zeroth
    if np.any(c == 0):
        raise DomainError(
            "first-order correction diverges on zero counts; "
            "every bin must be observed at least once"
        )
    return zeroth + _first_order_correction(c, n)


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
    c, n = counts.counts, counts.n
    if np.any(c == 0):
        correction = None
    else:
        correction = _first_order_correction(c, n)
    return HistogramLogProb(
        exact_log_prob=log_histogram_prob(counts, p),
        log_multinomial=log_multinomial(counts),
        stirling_zeroth=_counts_entropy_nats(c, n),
        stirling_first_correction=correction,
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


def _sample_weights(rng: np.random.Generator, mode: PriorMode, size: int) -> np.ndarray:
    # Dirichlet(1) via normalized standard exponentials; the orthant mode
    # normalizes standard uniforms instead.
    if mode is PriorMode.DIRICHLET1:
        w = rng.standard_exponential(size)
    else:
        w = rng.random(size)
    total = w.sum()
    while total <= 0.0:  # pragma: no cover - measure-zero resample guard
        w = rng.random(size)
        total = w.sum()
    return w / total


def _experiment_cell(
    alphabet_size: int,
    n: int,
    trial: int,
    mode: PriorMode,
    seed: int,
    cell_index: int,
) -> ExperimentRow:
    rng = substream(seed, cell_index)
    weights = _sample_weights(rng, mode, alphabet_size)
    counts = rng.multinomial(n, weights)
    pos = counts > 0
    exact = _log_multinomial(counts, n)
    zeroth = _counts_entropy_nats(counts, n)
    # The correction product runs over observed bins only: Stirling is not
    # valid at 0!, whose exact contribution (log 1 = 0) is kept instead.
    # Rows where that truncation happened carry skipped_first = 1.
    skipped = bool(np.any(~pos))
    first = zeroth + _first_order_correction(counts[pos], n)
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

    For every ``n`` in ``n_grid`` and every trial, a distribution ``P`` is
    drawn from the prior, a histogram is drawn from ``Multinomial(n, P)``,
    and the exact log-multinomial is recorded next to its zeroth- and
    first-order Stirling estimates.  Each (n, trial) cell uses its own
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
