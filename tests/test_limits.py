"""The advertised limits: projection at 5e4 outcomes, exact event
enumeration at the default cap of 2e6 histograms, and entropy-approx
cells from n = 1 up to n = 2**63 - 1.

The feasibility LP and the interior certificate that usually replaces it
must stay linear in the alphabet size: a dense K x K block at this size
would need ~18.6 GiB, so a bound on the peak traced allocation keeps one
from coming back.  Enumeration at the cap must stay
within a wall-time and memory budget.
"""

import time
import tracemalloc

import numpy as np
import pytest

from maxentlab import (
    ConstraintSet,
    FeatureSet,
    FiniteDistribution,
    Status,
    check_feasibility,
    enumerate_event,
    project,
    project_inequality,
)
from maxentlab import multinomial, projection
from maxentlab.projection import SolverOptions
from maxentlab.sanov import DEFAULT_ENUMERATION_CAP, num_compositions
from maxentlab._rng import substream

K = 50_000


def wide_instance(seed: int, d: int):
    rng = substream(seed, 90)
    outcomes = [str(i) for i in range(K)]
    w = rng.random(K) + 0.1
    prior = FiniteDistribution(outcomes, w / w.sum())
    features = FeatureSet([f"f{i}" for i in range(d)], rng.normal(size=(d, K)))
    w = rng.random(K) + 0.1
    return prior, features, features.matrix @ (w / w.sum())


def test_projection_at_5e4_outcomes(monkeypatch):
    opts = SolverOptions()
    prior, features, alpha = wide_instance(0, 3)
    equalities = ConstraintSet.equalities(features, alpha)
    prior4, features4, alpha4 = wide_instance(1, 4)
    mixed = ConstraintSet(
        features4,
        ["eq", "ge", "le", "eq"],
        alpha4 + np.array([0.0, 0.02, 0.05, 0.0]),
    )

    # scipy's HiGHS wrapper walks the K columns of the solution in Python,
    # which tracemalloc slows ~15x (3 s per LP here).  Tracing pauses for
    # the solver call only: the LP's arrays are built, and traced, before
    # it, and the peak is the largest over the traced stretches.  The two
    # explicit LPs record a peak each; the solves, which certify their
    # targets interior and run no LP, record the last one.
    peaks = []
    traced_linprog = projection.linprog

    def linprog(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        try:
            return traced_linprog(*args, **kwargs)
        finally:
            tracemalloc.start()

    monkeypatch.setattr(projection, "linprog", linprog)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        for p, a in ((prior, equalities), (prior4, mixed)):
            rep = check_feasibility(p, a)
            assert rep.in_hull and not rep.on_boundary
        assert len(peaks) == 2
        tracemalloc.reset_peak()
        eq_result = project(prior, equalities, opts)
        mixed_result = project_inequality(prior4, mixed, opts)
        elapsed = time.perf_counter() - t0
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()

    for result in (eq_result, mixed_result):
        assert result.status is Status.CONVERGED
        assert float(np.max(np.abs(result.moment_residual))) <= opts.moment_tol
    assert len(peaks) == 3
    assert elapsed <= 20.0
    assert max(peaks) < 1 << 30


@pytest.mark.parametrize("parts, n", [(3, 1998), (6, 44)])
def test_enumeration_at_the_histogram_cap(parts, n):
    # Just under DEFAULT_ENUMERATION_CAP: 1,999,000 and 1,906,884 histograms.
    total = num_compositions(n, parts)
    assert 0.95 * DEFAULT_ENUMERATION_CAP < total <= DEFAULT_ENUMERATION_CAP
    rng = substream(2, parts)
    w = rng.random(parts) + 0.5
    prior = FiniteDistribution([str(i) for i in range(parts)], w / w.sum())
    row = rng.normal(size=(1, parts))
    mean, top = float(prior.probs @ row[0]), float(row[0].max())
    event = ConstraintSet(FeatureSet(["f"], row), ["ge"], [mean + 0.3 * (top - mean)])

    t0 = time.perf_counter()
    report = enumerate_event(prior, event, n)
    elapsed = time.perf_counter() - t0
    assert not report.empty_event and not report.boundary_projection
    assert 0 < report.num_histograms_in_event < total
    assert abs(report.identity_defect()) <= 1e-10
    assert elapsed <= 10.0

    # The peak comes from a second, traced run, so that tracemalloc's cost
    # per Python allocation stays out of the timing above.
    tracemalloc.start()
    try:
        traced = enumerate_event(prior, event, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced.to_json() == report.to_json()
    assert peak < 1 << 30


_MAX_N = 2**63 - 1


@pytest.mark.parametrize(
    "mode, parts, n",
    [
        ("dirichlet1", 2, _MAX_N),
        ("dirichlet1", 3, _MAX_N),
        ("dirichlet1", K, _MAX_N),
        ("uniform-orthant", 3, _MAX_N),
    ]
    # n = 1, then where the dirichlet1 draw switches from stars (n < D - 1)
    # to bars, and n = 49 D
    + [
        ("dirichlet1", parts, n)
        for parts in (3, K)
        for n in sorted({1, parts - 2, parts - 1, parts, 49 * parts})
    ],
)
def test_entropy_approx_cell_at_the_limits(mode, parts, n):
    # A cell's draw holds O(D) numbers whatever n is: no array over the
    # n + D - 1 stars-and-bars slots, no int64 overflow past them.
    seed = 17
    multinomial.entropy_approx_experiment(2, [1], mode, trials=1)  # loads scipy
    tracemalloc.start()
    try:
        (row,) = multinomial.entropy_approx_experiment(parts, [n], mode, trials=1, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * parts + (1 << 20)
    fields = (row.exact, row.zeroth, row.first, row.err_zeroth, row.err_first)
    assert all(np.isfinite(fields))
    counts = multinomial._draw_counts(
        substream(seed, 0), multinomial.PriorMode(mode), n, parts
    )
    assert counts.size == parts and counts.min() >= 0
    assert sum(int(c) for c in counts) == n
    assert row.exact == float(multinomial._log_multinomial(counts, n))
