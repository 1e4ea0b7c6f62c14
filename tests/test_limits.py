"""The advertised limits: projection at 5e4 outcomes, and exact event
enumeration at the default cap of 2e6 histograms.

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
from maxentlab import projection
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
