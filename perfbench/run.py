"""Benchmark of the maxentlab command line, run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-wide --seed 1 --seconds 20 --trace 0

One closed-loop client calls ``maxentlab.cli.main(argv)`` on a seeded list
of operations (see ``workloads.py``), one after another with no think
time, and checks every output (see ``checks.py``).  The list is run
in passes, twice whole and then until ``--seconds`` have passed; in each
pass a cheap op runs several times (``Op.repeat``), so that every op is
timed several times.

Every op's time is given in seconds at a fixed machine speed.  A shared
machine runs the same code at speeds up to 1.5 times apart, for minutes at
a time, which no choice of runs within one benchmark run can average away.
So a short, fixed reference loop (``reference_s``) is timed between every
two ops, and each run of an op is scaled by ``REFERENCE_S`` over the
mean of the two reference times next to it: the op's time at the speed
at which the loop takes ``REFERENCE_S``.  An op's time is the median of its
scaled runs.  The unscaled wall times are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (see ``tracer.py``) and reports the
per-layer metrics, per pass of the op list, with the tracing overhead.
The last line of standard output is one JSON object; the lines before it
are a readable table.  The program is imported from ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6
# The reference loop's time at the speed op times are given at: its fastest
# time on a 2-core shared x86-64 virtual machine with Python 3.11 and
# numpy 2, when the machine was quiet.  Any fixed value would do; this one
# keeps the scaled times close to wall times.
REFERENCE_S = 5.0e-3
_REFERENCE_ARRAY = None
# BLAS libraries thread large vector ops over every core by default.  On a
# small shared machine that makes an op's time flip between two modes with
# the load on the other core (entropy-approx at D=5e4: 0.05 s or 0.10 s with
# two OpenBLAS threads, 0.03-0.04 s with one), so the benchmark pins BLAS to
# one thread.  The program's own --threads pools are unaffected.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Two-thread op kinds run as fast as one thread or nearly twice as fast,
# depending on whether a shared 2-core machine's other core is free, and
# that stays one way for minutes; their medians are printed, not reported.
PRINTED_ONLY_KINDS = ("sanov_mc_t2", "entropy_approx_t2")
MIN_PASSES = 2  # whole passes before the deadline may end a run


def import_program():
    """Import ``maxentlab.cli`` from this checkout's ``src`` only."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("maxentlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"maxentlab imported from {cli.__file__}, not {SRC}")
    return cli


def reference_s() -> float:
    """Wall time of a fixed loop made of the three kinds of work the
    program's ops are made of: interpreted arithmetic, many numpy calls on
    tiny arrays, and numpy passes over an array larger than the caches."""
    global _REFERENCE_ARRAY
    import numpy as np

    if _REFERENCE_ARRAY is None:
        _REFERENCE_ARRAY = np.random.default_rng(0).random(1_000_000)
    big = _REFERENCE_ARRAY
    t0 = time.perf_counter()
    x = 0
    for i in range(30_000):
        x += i * i
    row = np.arange(4)[None, :]
    for first in range(150):
        np.vstack([np.hstack([np.full((1, 1), first), row])] * 2)
    np.sqrt(big[::2]).sum()
    np.sort(big[:20_000])
    big.sum()
    return time.perf_counter() - t0


def run_op(cli, op, tracer=None, seq=None) -> tuple[float, int]:
    """Wall time and exit code of one CLI call; its output is discarded."""
    Path(op.output).unlink(missing_ok=True)
    if tracer is not None:
        tracer.op(seq)
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - an op that crashes is a failed op
            code = -1
        wall = time.perf_counter() - t0
    return wall, code


class Client:
    """The closed-loop client: runs passes and keeps every result.

    ``order(pass_index)`` gives the ops of each pass in their run order."""

    def __init__(self, cli, order, checks):
        self.cli = cli
        self.order = order
        self.checks = checks
        self.passes = 0
        self.results: list[tuple[object, float, str | None]] = []
        self.failures: dict[str, int] = {}

    def run_pass(self, tracer=None, deadline=math.inf) -> list[tuple[int, float, float]]:
        """One pass, cut short when ``deadline`` passes.  Returns each run's
        op id, wall time and the mean reference time before and after it."""
        walls = []
        ops = self.order(self.passes)
        self.passes += 1
        before = reference_s()
        for op in ops:
            if time.perf_counter() >= deadline:
                break
            wall, code = run_op(self.cli, op, tracer, len(self.results))
            after = reference_s()
            reason = self.checks.check(op, code)
            if reason is not None:
                key = f"{op.kind} op{op.id}: {reason}"
                self.failures[key] = self.failures.get(key, 0) + 1
            self.results.append((op, wall, reason))
            walls.append((op.id, wall, (before + after) / 2))
            before = after
        return walls


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten ops of a pass beyond it."""
    return max(0, math.floor(100 * (ops_per_pass - 10) / ops_per_pass))


def per_op_times(walls, scaled: bool = True) -> dict[int, float]:
    """Each op's median time over its runs, scaled to ``REFERENCE_S``.

    On a shared machine, load from outside the process (a busy sibling
    core, other machines' work on the host) slows every instruction, in
    spells of seconds to minutes.  It slows the reference loop run just
    before and after an op as much as the op, so the ratio of the two is
    steady where either time alone is not."""
    by_op: dict[int, list[float]] = {}
    for op_id, wall, ref in walls:
        by_op.setdefault(op_id, []).append(wall * REFERENCE_S / ref if scaled else wall)
    return {op_id: statistics.median(ts) for op_id, ts in by_op.items()}


def ops_per_s(walls) -> float:
    times = per_op_times(walls)
    return len(times) / sum(times.values())


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_op(ops, times: dict[int, float], pct: int):
    """The op whose time is ``op_tail_s``."""
    value = nearest_rank(list(times.values()), pct)
    return next(op for op in ops if times[op.id] == value), value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


_IMPORT_TIMER = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import maxentlab.cli
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def setup(args, workdir: Path):
    """Time the set-up: import, input generation and the warm-up op, each
    the median of ``SETUP_REPEATS`` (the first import in this process, the
    others in fresh interpreters).  Returns the set-up pieces and the op
    list."""
    t0 = time.perf_counter()
    cli = import_program()
    import_times = [time.perf_counter() - t0]
    import_times += [import_seconds() for _ in range(SETUP_REPEATS - 1)]

    import checks
    import workloads

    gen_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, workdir)
        gen_times.append(time.perf_counter() - t0)
        digests.add(_digest(workdir / "in", ops))
    warm = workloads.warmup_op(args.workload, args.seed, workdir / "warmup")
    warm_times, codes = zip(*(run_op(cli, warm) for _ in range(SETUP_REPEATS)))
    problems = []
    if len(digests) != 1:
        problems.append("input generation is not deterministic")
    reason = next(filter(None, (checks.check(warm, code) for code in codes)), None)
    if reason is not None:
        problems.append(f"warm-up op: {reason}")
    pieces = {
        "import_s": statistics.median(import_times),
        "generate_s": statistics.median(gen_times),
        "warmup_s": statistics.median(warm_times),
    }
    return cli, checks, ops, pieces, problems


def _digest(indir: Path, ops) -> str:
    h = hashlib.sha256()
    for path in sorted(indir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    for op in ops:
        h.update(repr((op.kind, op.argv, op.expect_exit, op.params)).encode())
    return h.hexdigest()


def measure(args, cli, checks, ops):
    import workloads

    client = Client(
        cli, lambda i: workloads.pass_order(ops, args.workload, args.seed, i), checks
    )
    deadline = time.perf_counter() + args.seconds
    untraced: list[tuple[int, float, float]] = []
    traced: list[tuple[int, float, float]] = []
    tracer = passes = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        passes = 0
        pair_s = 0.0
        # Whole pairs only (layer metrics are per pass), and another pair
        # only if one as long as the last still ends before the deadline.
        while passes == 0 or time.perf_counter() + pair_s < deadline:
            t0 = time.perf_counter()
            untraced += client.run_pass()
            tracer.install()
            try:
                traced += client.run_pass(tracer)
            finally:
                tracer.remove()
            passes += 1
            pair_s = time.perf_counter() - t0
    else:
        for _ in range(MIN_PASSES):
            untraced += client.run_pass()
        while time.perf_counter() < deadline:
            untraced += client.run_pass(deadline=deadline)
    return client, untraced, traced, tracer, passes


def end_to_end(ops, walls, setup_pieces, kinds) -> dict:
    pct = tail_percentile(len(ops))
    times = per_op_times(walls)
    tail, tail_s = tail_op(ops, times, pct)
    metrics = {
        "ops_per_s": (ops_per_s(walls), "1/s"),
        "op_tail_s": (tail_s, "s"),
    }
    printed_only = []
    for kind in kinds:
        p50 = statistics.median(times[op.id] for op in ops if op.kind == kind)
        if kind in PRINTED_ONLY_KINDS:
            printed_only.append(f"{kind}_p50_s = {p50:.6g} s (printed only)")
        else:
            metrics[f"{kind}_p50_s"] = (p50, "s")
    metrics["setup_s"] = (sum(setup_pieces.values()), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    runs = [sum(1 for w in walls if w[0] == op.id) for op in ops]
    raw = per_op_times(walls, scaled=False)
    refs = sorted(w[2] for w in walls)
    notes = printed_only + [
        f"{len(walls)} runs of {len(ops)} ops, {min(runs)} to {max(runs)} runs "
        "per op; an op's time is the median of its runs, scaled to the "
        f"reference loop at {REFERENCE_S * 1e3:g} ms",
        f"reference loop: fastest {refs[0] * 1e3:.4g} ms, median "
        f"{statistics.median(refs) * 1e3:.4g} ms, slowest {refs[-1] * 1e3:.4g} ms",
    ]
    notes += [
        f"unscaled {kind}_p50_s = "
        f"{statistics.median(raw[op.id] for op in ops if op.kind == kind):.6g} s"
        for kind in kinds
    ]
    notes += [
        f"op_tail_s is p{pct} of the {len(ops)} op times (op {tail.id}, {tail.kind})",
        "setup_s = "
        + " + ".join(f"{k} {v:.4f}" for k, v in setup_pieces.items()),
    ]
    return metrics, notes


def per_layer(tracer, passes, untraced, traced, mc_chunk) -> dict:
    import tracer as tracer_mod

    metrics = tracer_mod.layer_metrics(tracer.spans, passes, mc_chunk)
    traced_rate = ops_per_s(traced)
    untraced_rate = ops_per_s(untraced)
    metrics["trace.ops_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")
    notes = [
        f"traced {traced_rate:.4f} ops/s vs untraced {untraced_rate:.4f} ops/s "
        f"over {passes} pass(es) each",
        f"{len(tracer.spans)} spans",
    ]
    return metrics, notes


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        # workloads.WORKLOADS; not imported here, as it loads numpy, whose
        # import belongs to the timed set-up.
        choices=("solve-wide", "diagnose-narrow", "histograms"),
    )
    parser.add_argument("--seed", type=int, required=True, help="input seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported, in setup()
        os.environ[var] = "1"

    workdir = Path.cwd() / ".perfbench_work" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    try:
        cli, checks, ops, pieces, problems = setup(args, workdir)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        _remove_workdir(workdir)
        return 2
    try:
        import workloads

        client, untraced, traced, tracer, passes = measure(args, cli, checks, ops)
        if args.trace:
            sanov = sys.modules["maxentlab.sanov"]
            metrics, notes = per_layer(
                tracer, passes, untraced, traced, sanov._MC_CHUNK
            )
            spans_path = Path.cwd() / ".perfbench_out" / (
                f"spans-{args.workload}-s{args.seed}-{os.getpid()}.jsonl"
            )
            tracer.dump(spans_path)
            notes.append(f"spans written to {spans_path.relative_to(Path.cwd())}")
        else:
            metrics, notes = end_to_end(ops, untraced, pieces, workloads.KINDS)
    finally:
        _remove_workdir(workdir)

    attempted = len(client.results)
    failed = sum(1 for _, _, reason in client.results if reason is not None)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} ops)")
    for line in notes + problems:
        print(f"  note: {line}")
    for key, count in sorted(client.failures.items()):
        print(f"  FAILED x{count}: {key}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
