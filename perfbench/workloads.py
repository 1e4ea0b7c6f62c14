"""Seeded operation lists and the input files they read.

Every workload is a fixed list of CLI invocations built from ``--seed``.
Sizes (alphabet sizes, histogram counts, trial counts) come from fixed
grids, so two seeds run the same mix of work.  The seed draws the numbers
inside the inputs, except for ops whose cost swings with the drawn data
(those are fixed instances), and the order of the ops in each pass.  The
same seed gives the same list and byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("solve-wide", "diagnose-narrow", "histograms")

#: Op kinds, one per timed subcommand variant; ``<kind>_p50_s`` is its metric.
KINDS = (
    "project",
    "fit",
    "diagnose",
    "sanov_exact",
    "sanov_mc_t1",
    "sanov_mc_t2",
    "entropy_approx_t1",
    "entropy_approx_t2",
)

_WORKLOAD_TAG = {name: i + 1 for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Op:
    """One CLI invocation with what its exit code and output must be."""

    id: int
    kind: str
    argv: tuple[str, ...]
    expect_exit: int
    output: str
    checker: str
    params: dict = field(default_factory=dict)
    repeat: int = 1  # runs per pass; cheap ops run more often, see pass_order


class _OpList:
    """Writes one workload's input files and collects its ops."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.indir = workdir / "in"
        self.outdir = workdir / "out"
        self.indir.mkdir(parents=True, exist_ok=True)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []

    def rng(self, stream: int, index: int, seeded: bool = True) -> np.random.Generator:
        """The generator for one op's inputs; ``seeded=False`` gives inputs
        that are the same for every seed."""
        tag = _WORKLOAD_TAG[self.workload]
        seed = self.seed % 2**64 if seeded else 0
        return np.random.default_rng([int(seeded), seed, tag, stream, index])

    def write(self, name: str, obj) -> str:
        path = self.indir / name
        path.write_text(json.dumps(obj, sort_keys=True))
        return str(path)

    def write_text(self, name: str, text: str) -> str:
        path = self.indir / name
        path.write_text(text)
        return str(path)

    def add(
        self,
        kind: str,
        argv: list[str],
        checker: str,
        expect_exit: int = 0,
        repeat: int = 1,
        **params,
    ) -> None:
        op_id = len(self.ops)
        output = str(self.outdir / f"op{op_id:03d}.json")
        argv = argv + ["--output", output]
        self.ops.append(
            Op(op_id, kind, tuple(argv), expect_exit, output, checker, params, repeat)
        )


# ---------------------------------------------------------------- inputs


def _labels(k: int) -> list[str]:
    return [f"x{i}" for i in range(k)]


def _simplex(rng: np.random.Generator, k: int, floor: float) -> np.ndarray:
    w = rng.random(k) + floor
    return w / w.sum()


def _dist(k: int, probs: np.ndarray) -> dict:
    return {"outcomes": _labels(k), "probs": probs.tolist()}


def _features(matrix: np.ndarray) -> dict:
    return {"names": [f"f{i}" for i in range(matrix.shape[0])], "matrix": matrix.tolist()}


def _constraints(matrix: np.ndarray, kinds: list[str], targets) -> dict:
    return {
        "kinds": kinds,
        "targets": [float(t) for t in targets],
        "featureset": _features(matrix),
    }


def _geom_int(lo: float, hi: float, count: int, j: int) -> int:
    """The ``j``-th of ``count`` log-spaced sizes from ``lo`` to ``hi``."""
    return int(round(lo * (hi / lo) ** (j / (count - 1))))


# ---------------------------------------------------------------- op kinds

# Projection cases: a converged equality solve, a converged ge/le mix, an
# infeasible target (exit 3) and a target on a face of the moment polytope
# that the family only approaches (exit 4).
_PROJECT_CASES = ("eq", "mix", "eq", "mix", "infeasible", "boundary")


def _project_op(
    b: _OpList,
    j: int,
    k: int,
    d: int,
    case: str,
    seeded: bool = True,
    repeat: int = 1,
) -> None:
    rng = b.rng(1, j, seeded)
    prior = _simplex(rng, k, 0.1)
    matrix = rng.normal(size=(d, k))
    q = _simplex(rng, k, 0.05)
    kinds = ["eq"] * d
    status, code = "converged", 0
    if case == "mix":
        kinds = ["ge" if i % 2 == 0 else "le" for i in range(d)]
        kinds[-1] = "eq" if d > 2 else kinds[-1]
    elif case == "infeasible":
        status, code = "infeasible", 3
    elif case == "boundary":
        # Feature 0 vanishes on half the outcomes and is positive elsewhere;
        # a zero target forces all mass onto that half, a face the
        # exponential family reaches only as lambda_0 -> -inf.
        half = k // 2
        matrix[0, :half] = 0.0
        matrix[0, half:] = rng.uniform(0.5, 1.5, size=k - half)
        q = np.zeros(k)
        q[:half] = _simplex(rng, half, 0.05)
        status, code = "boundary-nonattained", 4
    targets = matrix @ q
    if case == "infeasible":
        targets[0] = float(matrix[0].max()) + 1.0
    prior_path = b.write(f"op{len(b.ops):03d}-prior.json", _dist(k, prior))
    cons_path = b.write(
        f"op{len(b.ops):03d}-constraints.json", _constraints(matrix, kinds, targets)
    )
    b.add(
        "project",
        ["project", "--prior", prior_path, "--constraints", cons_path],
        expect_exit=code,
        checker="project",
        repeat=repeat,
        prior=prior_path,
        constraints=cons_path,
        status=status,
    )


def _fit_samples_op(
    b: _OpList,
    j: int,
    k: int,
    d: int,
    per_outcome: int,
    seeded: bool = True,
    repeat: int = 1,
) -> None:
    rng = b.rng(2, j, seeded)
    prior = _simplex(rng, k, 0.1)
    matrix = rng.normal(size=(d, k))
    q = _simplex(rng, k, 0.05)
    draws = rng.choice(k, size=per_outcome * k, p=q)
    labels = _labels(k)
    stem = f"op{len(b.ops):03d}"
    prior_path = b.write(f"{stem}-prior.json", _dist(k, prior))
    feat_path = b.write(f"{stem}-features.json", _features(matrix))
    samples = b.write_text(f"{stem}-samples.txt", "".join(labels[i] + "\n" for i in draws))
    b.add(
        "fit",
        ["fit", "--prior", prior_path, "--features", feat_path, "--samples", samples],
        checker="fit",
        repeat=repeat,
    )


def _fit_acceptance_op(b: _OpList, instance: int, repeat: int = 1) -> None:
    """Acceptance criterion 4's generator: K in 3..30, d in 1..5, a uniform
    prior on even instances; the same Philox stream the acceptance test
    draws from, so instance ``i`` here is instance ``i`` there."""
    key = np.array([instance, 61], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    k = int(rng.integers(3, 31))
    d = int(rng.integers(1, 6))
    if instance % 2 == 0:
        prior = np.full(k, 1.0 / k)
    else:
        w = rng.random(k) + 0.1
        prior = w / w.sum()
    matrix = rng.normal(size=(d, k))
    w = rng.random(k) + 0.05
    data = w / w.sum()
    stem = f"op{len(b.ops):03d}"
    prior_path = b.write(f"{stem}-prior.json", _dist(k, prior))
    feat_path = b.write(f"{stem}-features.json", _features(matrix))
    data_path = b.write(f"{stem}-data.json", _dist(k, data))
    b.add(
        "fit",
        ["fit", "--prior", prior_path, "--features", feat_path, "--data", data_path],
        checker="fit",
        repeat=repeat,
    )


def _diagnose_op(b: _OpList, instances: int, start: int, repeat: int = 1) -> None:
    """A batch of ``instances`` consecutive identity-suite instances.

    Batches lie inside acceptance criterion 5's instance range 0..99, the
    instances the repository certifies; outside it the instance generator
    can fail to find a variational bracket (seed 1754598617 does)."""
    config = {"instances": instances, "seed": start}
    path = b.write(f"op{len(b.ops):03d}-config.json", config)
    b.add(
        "diagnose",
        ["diagnose", "--random", "--config", path],
        checker="diagnose",
        repeat=repeat,
        instances=instances,
    )


def _n_for_count(count: float, parts: int) -> int:
    """Smallest sample size whose histogram count reaches ``count``."""
    n = 1
    while math.comb(n + parts - 1, parts - 1) < count:
        n += 1
    return n


def _sanov_exact_op(
    b: _OpList,
    j: int,
    parts: int,
    count: float,
    extra: str | None,
    repeat: int = 1,
) -> None:
    """A one-feature tail event ``E f >= t``, ``t`` halfway between the
    feature's average over the outcomes and its maximum.

    The feature and ``t`` are the same for every seed and the seed draws the
    prior.  The cost of an op grows with the number of histograms in the
    event, so a seeded feature made the median exact op take half as long
    again on one seed as on another; this way every seed scores the same
    histograms.  The prior's weights stay within a factor of two of each
    other, which keeps its mean of the feature below ``t`` (at most a third
    of the way up), so the constraint binds on every seed; a prior that
    already met it skipped the Newton solve and made the op a third faster."""
    rng = b.rng(4, j)
    n = _n_for_count(count, parts)
    prior = _simplex(rng, parts, 1.0)
    row = b.rng(4, j, seeded=False).normal(size=(1, parts))
    mean, top = float(row[0].mean()), float(row[0].max())
    outer = mean + 0.5 * (top - mean)
    stem = f"op{len(b.ops):03d}"
    prior_path = b.write(f"{stem}-prior.json", _dist(parts, prior))
    cons_path = b.write(f"{stem}-constraints.json", _constraints(row, ["ge"], [outer]))
    argv = ["sanov", "--prior", prior_path, "--constraints", cons_path, "--n", str(n)]
    check = {"checker": "sanov_exact", "n": n}
    if extra == "nested":
        inner = mean + 0.75 * (top - mean)
        nested = b.write(f"{stem}-inner.json", _constraints(row, ["ge"], [inner]))
        argv += ["--nested", nested]
        check["nested"] = True
    elif extra == "curve":
        grid = sorted({max(1, n // 4), max(2, n // 2)})
        curve_out = str(b.outdir / f"{stem}-curve.csv")
        argv += ["--curve", ",".join(map(str, grid)), "--curve-output", curve_out]
        check.update(curve=curve_out, curve_rows=len(grid))
    b.add("sanov_exact", argv, repeat=repeat, **check)


def _sanov_mc_pair(
    b: _OpList, j: int, parts: int, trials: int, z: float, repeat: int = 1
) -> None:
    """An outcome-indicator tail ``count_0 / n >= m / n`` at n=2000, whose hit
    probability is an exact binomial tail the check can compute; the same
    input runs at 1 and 2 threads, so the thread gain is paired."""
    n = 2000
    rng = b.rng(5, j)
    prior = _simplex(rng, parts, 0.2)
    p0 = float(prior[0] / prior.sum())
    m = int(math.ceil(n * p0 + z * math.sqrt(n * p0 * (1 - p0))))
    row = np.zeros((1, parts))
    row[0, 0] = 1.0
    stem = f"mc{j:03d}"
    prior_path = b.write(f"{stem}-prior.json", _dist(parts, prior))
    cons_path = b.write(f"{stem}-constraints.json", _constraints(row, ["ge"], [m / n]))
    config = b.write(
        f"{stem}-config.json",
        {"n": n, "trials": trials, "seed": int(rng.integers(0, 2**31))},
    )
    argv = ["sanov", "--monte-carlo", "--prior", prior_path, "--constraints", cons_path]
    argv += ["--config", config]
    for threads in (1, 2):
        b.add(
            f"sanov_mc_t{threads}",
            argv + ["--threads", str(threads)],
            checker="sanov_mc",
            repeat=repeat,
            n=n,
            m=m,
            p=p0,
            trials=trials,
        )


def _entropy_pair(
    b: _OpList, j: int, grid: list[int], trials: int, repeat: int = 1
) -> None:
    """Stirling cells at D=5e4, at 1 and 2 threads."""
    config = {
        "alphabet_size": 50_000,
        "n": ",".join(map(str, grid)),
        "trials": trials,
        "seed": int(b.rng(6, j).integers(0, 2**31)),
    }
    path = b.write(f"ea{j:03d}-config.json", config)
    for threads in (1, 2):
        b.add(
            f"entropy_approx_t{threads}",
            ["entropy-approx", "--config", path, "--threads", str(threads)],
            checker="entropy_approx",
            repeat=repeat,
            grid=grid,
            trials=trials,
        )


# ---------------------------------------------------------------- workloads

# Every workload also runs three small, fixed-size ops of each subcommand
# outside its focus, so that every per-subcommand metric and every traced
# layer is measured on every workload.  Their input indices start at 100.
#
# ``repeat`` is how many times an op runs in each pass.  An op's time is the
# median of its runs, which is steady only when the op runs often enough
# over the whole run; so the cheaper an op, the more often it runs: from 6
# for the cheapest down to 1 for ops over about 300 ms at the commit that
# defined the benchmark, with the higher counts on the probes and on the
# ops whose times set a metric.  The counts are fixed here, never
# measured, so every commit runs the same schedule.


def _probe_project(b: _OpList) -> None:
    # Fixed instances: the LP and the Newton solve at K=20 took a third as
    # long again on some seeds' data as on others'.
    for j in range(3):
        _project_op(b, 100 + j, 20, 2, "eq", seeded=False, repeat=6)


def _probe_fit(b: _OpList) -> None:
    # Fixed instances: gradient descent takes from 7 to over 400 steps on
    # seeded instances of this size, which would make the probe's time swing
    # with the seed.
    for j in range(3):
        _fit_samples_op(b, 100 + j, 20, 1, 20, seeded=False, repeat=6)


def _probe_diagnose(b: _OpList) -> None:
    # Fixed instances: the instance generator picks each instance's size, so
    # seeded ones would make this probe's time swing with the seed.
    for j in range(3):
        _diagnose_op(b, 1, start=j, repeat=3)


def _probe_sanov(b: _OpList) -> None:
    _sanov_exact_op(b, 100, 3, 1e3, None, repeat=4)
    _sanov_exact_op(b, 101, 4, 1e3, "nested", repeat=4)
    _sanov_exact_op(b, 102, 3, 1e3, "curve", repeat=4)


def _probe_mc_entropy(b: _OpList) -> None:
    for j in range(100, 103):
        _sanov_mc_pair(b, j, 3, 100_000, 1.0, repeat=4)
        _entropy_pair(b, j, [100_000, 200_000], 2, repeat=4)


def _solve_wide(b: _OpList) -> None:
    # Fixed instances: at one alphabet size the LP and the gradient descent
    # take from one to several times as long depending on the drawn data,
    # which swung this workload's tail op by a quarter from seed to seed.
    n_project, n_fit = 36, 9
    for j in range(n_project):
        k = _geom_int(100, 1000, n_project, j)
        case = _PROJECT_CASES[j % len(_PROJECT_CASES)]
        repeat = 3 if k < 450 else 2 if k < 600 else 1
        _project_op(b, j, k, 2 + j % 5, case, seeded=False, repeat=repeat)
    for j in range(n_fit):
        k = _geom_int(100, 1000, n_fit, j)
        repeat = 2 if k < 450 else 1
        _fit_samples_op(b, j, k, 2 + j % 5, 10, seeded=False, repeat=repeat)
    _probe_diagnose(b)
    _probe_sanov(b)
    _probe_mc_entropy(b)


# Acceptance instances whose fit takes seconds (instance 8, 12,645 gradient
# steps) or most of one (instance 18); they run once per pass.
_SLOW_FITS = (8, 18)


def _diagnose_narrow(b: _OpList) -> None:
    # The first quarter of the acceptance set; it holds the two slowest
    # fits of the whole set.
    for instance in range(25):
        _fit_acceptance_op(b, instance, repeat=1 if instance in _SLOW_FITS else 4)
    # Fixed batches spread over the acceptance range.  Each instance's size is
    # drawn by the generator, so seeded batches made this workload's tail op
    # (the fastest batch) swing by a third from seed to seed.
    for j in range(9):
        _diagnose_op(b, 3, start=11 * j, repeat=2)
    _probe_fit(b)
    _probe_project(b)
    _probe_sanov(b)
    _probe_mc_entropy(b)


def _histograms(b: _OpList) -> None:
    n_exact = 5
    # --nested and --curve enumerate again; they ride on the small counts.
    extras = {1: "nested", 2: "curve"}
    for j in range(n_exact):
        count = 1e3 * (5e5 / 1e3) ** (j / (n_exact - 1))
        # The largest counts get the fewest outcomes (cheapest per histogram).
        parts = 3 + (n_exact - 1 - j) % 4
        repeat = (4, 3, 3, 1, 1)[j]
        _sanov_exact_op(b, j, parts, count, extras.get(j), repeat=repeat)
    for j in range(3):
        _sanov_mc_pair(b, j, 3 + j, 1_000_000, (0.5, 1.0, 1.5)[j], repeat=2)
    for j in range(3):
        _entropy_pair(b, j, [100_000, 200_000, 400_000], 4, repeat=2)
    _probe_project(b)
    _probe_fit(b)
    _probe_diagnose(b)


_WORKLOAD_OPS = {
    "solve-wide": _solve_wide,
    "diagnose-narrow": _diagnose_narrow,
    "histograms": _histograms,
}


def warmup_op(workload: str, seed: int, workdir: Path) -> Op:
    """A small projection that pays the first ``linprog`` and log-sum-exp
    calls before anything is timed."""
    b = _OpList(workload, seed, Path(workdir))
    _project_op(b, 999, 20, 2, "eq")
    return b.ops[0]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's inputs under ``workdir`` and return its ops."""
    b = _OpList(workload, seed, Path(workdir))
    _WORKLOAD_OPS[workload](b)
    return b.ops


def pass_order(ops: list[Op], workload: str, seed: int, pass_index: int) -> list[Op]:
    """The seeded order of one pass, in which each op runs ``op.repeat``
    times.  Each pass has its own order, so an op does not always run
    after the same neighbour, and the repeats of a cheap op are spread over
    the pass instead of running back to back."""
    runs = [op for op in ops for _ in range(op.repeat)]
    key = [seed % 2**64, _WORKLOAD_TAG[workload], pass_index]
    return [runs[i] for i in np.random.default_rng(key).permutation(len(runs))]
