"""Projection at the advertised alphabet size: 5e4 outcomes.

The feasibility LP must stay linear in the alphabet size: a dense K x K
block at this size would need ~18.6 GiB, so a bound on the peak traced
allocation keeps one from coming back.
"""

import time
import tracemalloc

import numpy as np

from maxentlab import (
    ConstraintSet,
    FeatureSet,
    FiniteDistribution,
    Status,
    check_feasibility,
    project,
    project_inequality,
)
from maxentlab import projection
from maxentlab.projection import SolverOptions
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
    # it, and the peak is the largest over the traced stretches.
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
        eq_result = project(prior, equalities, opts)
        mixed_result = project_inequality(prior4, mixed, opts)
        elapsed = time.perf_counter() - t0
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()

    for result in (eq_result, mixed_result):
        assert result.status is Status.CONVERGED
        assert float(np.max(np.abs(result.moment_residual))) <= opts.moment_tol
    assert len(peaks) >= 5
    assert elapsed <= 20.0
    assert max(peaks) < 1 << 30
