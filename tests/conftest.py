"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def linprog_calls(monkeypatch) -> list:
    """One entry per call of the LP solver in ``maxentlab.projection``
    made during the test; the calls still solve."""
    from maxentlab import projection

    calls = []
    solve = projection.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(projection, "linprog", counted)
    return calls
