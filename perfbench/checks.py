"""Per-op output checks, at the repository's own acceptance tolerances.

Each checker gets the op and its exit code and returns ``None`` when the
output is right, or a one-line reason when it is not.  The checks recompute
what they can from the inputs instead of trusting the program's own
verdict: the projection residual from the returned parameters, and the
Monte Carlo target from the exact binomial tail.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np
from scipy.special import betainc

MOMENT_TOL = 1e-9  # SolverOptions.moment_tol default
IDENTITY_TOL = 1e-10  # exact Sanov identity and nested-event formula
MC_STANDARD_ERRORS = 5.0


def _load(path: str):
    return json.loads(Path(path).read_text())


def _clamped_residual(report: dict, prior: dict, constraints: dict) -> float:
    """Max clamped moment residual of ``P_lam`` for the reported ``lam``."""
    probs = np.asarray(prior["probs"], dtype=float)
    probs = probs / probs.sum()
    matrix = np.asarray(constraints["featureset"]["matrix"], dtype=float)
    targets = np.asarray(constraints["targets"], dtype=float)
    lam = np.asarray(report["lambda_star"], dtype=float)
    support = probs > 0
    scores = np.log(probs[support]) + lam @ matrix[:, support]
    w = np.exp(scores - scores.max())
    w /= w.sum()
    res = matrix[:, support] @ w - targets
    for i, kind in enumerate(constraints["kinds"]):
        if kind == "ge":
            res[i] = min(res[i], 0.0)
        elif kind == "le":
            res[i] = max(res[i], 0.0)
    return float(np.max(np.abs(res)))


def check_project(op, report: dict) -> str | None:
    if report["status"] != op.params["status"]:
        return f"status {report['status']}, expected {op.params['status']}"
    if op.params["status"] == "infeasible":
        return None
    residual = _clamped_residual(
        report, _load(op.params["prior"]), _load(op.params["constraints"])
    )
    if residual > MOMENT_TOL:
        return f"clamped moment residual {residual:.3e} > {MOMENT_TOL}"
    return None


def check_fit(op, report: dict) -> str | None:
    if report["prescriptions_agree"] is not True:
        return f"prescriptions disagree: tv {report['tv_distance']:.3e}"
    return None


def check_diagnose(op, report: dict) -> str | None:
    if report["all_pass"] is not True:
        return f"identity failures {report['failures']}"
    if len(report["instances"]) != op.params["instances"]:
        return f"{len(report['instances'])} instances, expected {op.params['instances']}"
    return None


def _identity_defect(r: dict) -> float:
    return r["log_prob"] / r["n"] + r["rate"] + r["residual"]


def check_sanov_exact(op, report: dict) -> str | None:
    if report["method"] != "exact-enumeration" or report["n"] != op.params["n"]:
        return f"method {report['method']} at n={report['n']}"
    defect = _identity_defect(report)
    if not abs(defect) <= IDENTITY_TOL:
        return f"identity defect {defect:.3e}"
    if op.params.get("nested") and report["nested"]["pass"] is not True:
        return f"nested formula residual {report['nested']['residual']:.3e}"
    if "curve" in op.params:
        with open(op.params["curve"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != op.params["curve_rows"]:
            return f"curve has {len(rows)} rows, expected {op.params['curve_rows']}"
    return None


def binomial_tail(n: int, m: int, p: float) -> float:
    """``Pr(Binomial(n, p) >= m)`` through the regularized incomplete beta."""
    if m <= 0:
        return 1.0
    return float(betainc(m, n - m + 1, p))


def check_sanov_mc(op, report: dict) -> str | None:
    trials = op.params["trials"]
    if report["method"] != "monte-carlo" or report["trials"] != trials:
        return f"method {report['method']} with {report['trials']} trials"
    exact = binomial_tail(op.params["n"], op.params["m"], op.params["p"])
    se = math.sqrt(exact * (1.0 - exact) / trials)
    estimate = report["hits"] / trials
    if not abs(estimate - exact) <= MC_STANDARD_ERRORS * se:
        return f"estimate {estimate:.6f} vs exact tail {exact:.6f} (se {se:.2e})"
    return None


def check_entropy_approx(op, report) -> str | None:
    rows = list(csv.DictReader(Path(op.output).read_text().splitlines()))
    grid, trials = op.params["grid"], op.params["trials"]
    if len(rows) != len(grid) * trials:
        return f"{len(rows)} rows, expected {len(grid) * trials}"
    for n in grid:
        cell = [r for r in rows if int(r["n"]) == n]
        med0 = statistics.median(abs(float(r["err_zeroth"])) for r in cell)
        med1 = statistics.median(abs(float(r["err_first"])) for r in cell)
        if not med1 < med0:
            return f"n={n}: first-order median error {med1:.3g} >= zeroth {med0:.3g}"
    return None


_CHECKERS = {
    "project": check_project,
    "fit": check_fit,
    "diagnose": check_diagnose,
    "sanov_exact": check_sanov_exact,
    "sanov_mc": check_sanov_mc,
    "entropy_approx": check_entropy_approx,
}


def check(op, exit_code: int) -> str | None:
    """Why the op's outcome is wrong, or ``None`` when it is right."""
    if exit_code != op.expect_exit:
        return f"exit {exit_code}, expected {op.expect_exit}"
    try:
        report = None if op.checker == "entropy_approx" else _load(op.output)
        return _CHECKERS[op.checker](op, report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
