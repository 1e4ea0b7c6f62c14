"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

from maxentlab import cli  # noqa: E402


def _normalized(ops, root: Path):
    text = str(root)
    return [
        (op.id, op.kind, op.expect_exit, op.checker, op.repeat,
         repr(op.argv).replace(text, "<w>"),
         repr(op.params).replace(text, "<w>"))
        for op in ops
    ]


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((root / "in").iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops_and_identical_files(tmp_path, workload):
    a = workloads.build(workload, 7, tmp_path / "a")
    b = workloads.build(workload, 7, tmp_path / "b")
    c = workloads.build(workload, 8, tmp_path / "c")
    assert _normalized(a, tmp_path / "a") == _normalized(b, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert {op.kind for op in a} == set(workloads.KINDS)
    order = [[op.id for op in workloads.pass_order(ops, workload, 7, 1)] for ops in (a, b)]
    assert order[0] == order[1]
    assert order[0] != [op.id for op in workloads.pass_order(a, workload, 7, 2)]
    assert sorted(order[0]) == sorted(op.id for op in a for _ in range(op.repeat))


def test_op_times_are_scaled_by_the_reference_loop():
    # Two runs of op 0 on a machine at half speed (the loop took twice
    # REFERENCE_S) and one run at full speed: every scaled run reads 0.1 s.
    ref = run.REFERENCE_S
    walls = [(0, 0.2, 2 * ref), (0, 0.1, ref), (0, 0.2, 2 * ref), (1, 0.3, ref)]
    assert run.per_op_times(walls) == pytest.approx({0: 0.1, 1: 0.3})
    assert run.per_op_times(walls, scaled=False) == pytest.approx({0: 0.2, 1: 0.3})


def test_wrong_expectation_counts_as_failed(tmp_path):
    good = workloads.warmup_op("solve-wide", 1, tmp_path)
    wrong_exit = dataclasses.replace(good, expect_exit=3)
    wrong_status = dataclasses.replace(
        good, params={**good.params, "status": "boundary-nonattained"}
    )
    client = run.Client(cli, lambda _: [good, wrong_exit, wrong_status], checks)
    client.run_pass()
    failed = [reason for _, _, reason in client.results if reason is not None]
    assert len(client.results) == 3
    assert len(failed) == 2
    assert failed[0].startswith("exit 0, expected 3")
    assert failed[1].startswith("status converged")


def _per_span_overhead() -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""
    t = tracer_mod.Tracer()
    wrapped = t._wrap("noop", lambda: None)
    calls = 20_000
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    plain = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    return max(traced - (time.perf_counter() - t0), 0.0) / calls


def test_self_times_sum_to_op_wall_time(tmp_path):
    ops = workloads.build("histograms", 3, tmp_path)
    sample = [next(op for op in ops if op.kind == kind) for kind in ("fit", "sanov_exact")]
    overhead = _per_span_overhead()
    t = tracer_mod.Tracer()
    t.install()
    try:
        walls = [run.run_op(cli, op, t, seq) for seq, op in enumerate(sample)]
    finally:
        t.remove()
    by_op = tracer_mod.self_time_by_op(t.spans)
    for seq, (wall, code) in enumerate(walls):
        assert code == 0
        spans = sum(1 for s in t.spans if s.op == seq)
        assert spans > 1
        gap = wall - by_op[seq]
        # Self times telescope to the root span; the gap is the root's own
        # wrapper entry and exit, within the per-span overhead of every span.
        assert 0.0 <= gap <= overhead * spans + 1e-4, (gap, overhead, spans)


def test_wrappers_reach_every_binding_and_are_removed():
    import maxentlab
    from maxentlab import identities, projection, sanov

    originals = (sanov.project_inequality, cli.fit_log_loss, identities.project)
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert sanov.project_inequality is cli.project_inequality
        assert sanov.project_inequality is not originals[0]
        assert cli.fit_log_loss is projection.fit_log_loss is maxentlab.fit_log_loss
        assert identities.project.__wrapped__ is originals[2]
        assert "maxentlab.sanov.project_inequality" in t.bindings()
    finally:
        t.remove()
    assert (sanov.project_inequality, cli.fit_log_loss, identities.project) == originals


def test_compositions_traced_outermost_only(tmp_path):
    from maxentlab import sanov

    t = tracer_mod.Tracer()
    t.install()
    try:
        rows = sanov.compositions(6, 4)
    finally:
        t.remove()
    assert [s.name for s in t.spans] == ["sanov.compositions"]
    assert t.spans[0].note == rows.shape[0] == 84


def test_binomial_tail_matches_direct_sum():
    from math import comb

    n, m, p = 40, 25, 0.55
    direct = sum(comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(m, n + 1))
    assert abs(checks.binomial_tail(n, m, p) - direct) <= 1e-12


def test_run_without_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "histograms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ops = [SimpleNamespace(id=i, kind=kind) for i, kind in enumerate(workloads.KINDS * 2)]
    walls = [(op.id, 0.01 * (op.id + 1), run.REFERENCE_S) for op in ops]
    e2e, _ = run.end_to_end(ops, walls, {"import_s": 0.5}, workloads.KINDS)
    layers = tracer_mod.layer_metrics([], 1, 65536)
    layers["trace.ops_per_s_ratio"] = (1.0, "ratio")
    for produced, declared in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {k: u for k, (_, u) in produced.items()} == {
            m["name"]: m["unit"] for m in declared
        }
