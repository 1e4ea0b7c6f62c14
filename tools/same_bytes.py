"""Compare two source trees op by op on the benchmark's workloads.

    python tools/same_bytes.py OLD_SRC NEW_SRC --seeds 1 2

``OLD_SRC`` and ``NEW_SRC`` are directories that hold a ``maxentlab``
package (a checkout's ``src``).  For every workload and seed the ops are
built once with ``perfbench/workloads.build``, into one work directory,
and run in order under each tree by a child interpreter that imports only
that tree.  An op's exit code, stdout, stderr and every file it writes
under the work directory's ``out`` (the ``--output`` file, a curve CSV)
are compared; the ops where any of them differ are listed.  Under each
listed op, every output that is JSON under both trees (stdout or a file)
gets one line per JSON path whose values differ, with list indices
collapsed to ``[*]`` (``[name=...]`` for an object with a ``name``, such
as an identity report): the number of values that differ there, and the
largest absolute change among the numbers, or ``removed`` or ``added``
for a key that only the old or only the new tree writes.  A CSV output
with a header row (a ``--curve`` or ``entropy-approx`` CSV) gets one such
line per column that differs, its rows collapsed to ``[*]``.  Thirty-seven
fixed ops that reach paths the workloads do not are compared the same way:

- ``diagnose --random --instances 2000 --seed 0``, the full seeded
  identity suite, whose 2,000 instances reach more of the Bogoliubov
  scan and the projection paths than the workloads' ``diagnose`` batches;
- ``diagnose`` on files: a three-outcome model at ``lambda = 800``, whose
  probabilities underflow to 0 where the data put mass, so the identities
  read the model's log-probabilities, not the logs of its probabilities;
- ``sanov`` on a prior with zero-mass outcomes, where histograms that
  count an outcome outside the support score ``-inf``: exact, plain, with
  ``--nested``, with ``--curve`` and with both (its curve CSV at the
  default path beside the ``--output`` file), and Monte Carlo with
  ``--nested``, whose nested check enumerates on its own;
- exact ``sanov`` on boundary events, whose ``P*`` is the descent's last
  iterate, one that reached tolerance on the boundary, on a full-support
  and a zero-mass prior;
- exact ``sanov`` on a featureless constraint file (a 0x0 matrix), whose
  event holds every histogram, and on an ``eq`` event of a lattice
  feature (prior (0.2, 0.3, 0.5), ``f = (0, 1, 2)``, ``eq 1.2``, n = 30),
  where the workloads run only ``ge`` events;
- Monte Carlo ``sanov`` (70,000 trials, two chunks) on events that no
  workload samples: a ``le`` event of a real-valued feature over the
  zero-mass prior (two classes: the supported outcomes "a" and "c"
  share a column), an ``eq`` event that lumps to two classes, and the
  ``eq`` event of the lattice feature, which keeps three classes and so
  draws per row;
- infeasible targets whose dual value falls below the weak-duality floor
  (exit 3): Monte Carlo ``sanov`` on a ``ge`` event past the ramp's
  maximum, at 70,000 trials and at 2**20 (16 chunks, none of which a
  refuted event draws), and ``project`` on a crossing ``ge``/``le`` pair
  and on an ``eq`` target that only the zero-mass prior's empty outcome
  could meet (the floor is taken over the support);
- ``project`` on a ``ge`` target 1e-6 past the ramp's maximum: past the
  LP's tolerance but within the floor's margin, so the descent spends its
  Newton budget and the LP reads the target infeasible (exit 3);
- ``project`` on a vertex target of two nearly equal ``le``/``eq`` rows
  whose features are at scale 1.5e-4 (12 outcomes): below every workload's
  feature scale, where the LP reads the target boundary (exit 4) only on
  rows scaled to their largest magnitude;
- exact ``sanov`` over 8 outcomes (a ``ge`` event, n = 20), the smallest
  alphabet where numpy sums a histogram's log-factorials pairwise, not
  left to right as the enumeration weighs it, so the last bits of its
  log multinomial coefficients may differ between the two;
- exact ``sanov --nested`` on three faulty inner events, each exit 2: one
  not contained in the outer event (``DomainError``), one that holds only
  histograms of probability zero (``EmptyEvent``) and a file that lacks a
  field;
- output shapes of the JSON writer that no workload writes: ``project
  --trace`` (a list of trace dicts) with ``--dump-config`` (the resolved
  options), ``--dump-config`` of an input file named outside ASCII
  (``\\u`` escapes) and ``fit --data``;
- ``fit --samples`` on sample files the workloads never write: CRLF line
  ends, blank and whitespace-only lines, tabs and spaces around labels,
  ``\\x0b`` and ``\\u2028`` line breaks, and the files that exit 2 (a
  label with an inner space, several unknown labels, only blank lines),
  whose stderr names the label or the file;
- ``entropy-approx --prior uniform-orthant`` (D = 2000, two n, 3 trials),
  whose cells draw weights and then a multinomial histogram; every
  workload ``entropy-approx`` op runs the default ``dirichlet1`` prior;
- ``entropy-approx`` at the sample-size limit n = 2**63 - 1, which no
  workload reaches (8 trials each): ``dirichlet1`` at D = 2, where every
  cell's exact coefficient takes ``gammaln`` per count, and
  ``uniform-orthant`` at D = 3, whose weights and multinomial draw run at
  that n.

The work directory is a temporary one, removed when the run ends, unless
``--workdir`` names one to keep.  A refactor that must keep the CLI's
output byte-identical lists none.
Exit status: 0 when no op differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, build  # noqa: E402

# Runs in the child: argv[1] is the source tree, argv[2] the output
# directory, stdin a JSON list of op argvs; stdout gets one JSON result per op.
_CHILD = r"""
import contextlib, io, json, sys, traceback
from pathlib import Path

src, outdir = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
sys.path.insert(0, str(src))
from maxentlab import cli

if not Path(cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"maxentlab imported from {cli.__file__}, not {src}")
results = []
for argv in json.load(sys.stdin):
    for path in outdir.iterdir():
        path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    files = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
    stdout, stderr = out.getvalue(), err.getvalue()
    results.append({"exit": code, "stdout": stdout, "stderr": stderr, "files": files})
json.dump(results, sys.stdout)
"""

# BLAS thread pools can change the last bits of a matrix product, so both
# trees run with one BLAS thread, as the benchmark does.
_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# Compared once, apart from the workloads and their seeds.
_DIAGNOSE = ["diagnose", "--random", "--instances", "2000", "--seed", "0"]


def _event(row: list[float], kind: str, target: float) -> dict:
    names = {"names": ["x"], "matrix": [row]}
    return {"kinds": [kind], "targets": [target], "featureset": names}


# Inputs of the fixed ops.  Outcome "b" of the zero-mass prior has no mass;
# the two boundary events' targets lie on the boundary of the moment polytope
# (over the prior's support), so P* is not attained.  Of the faulty inner
# events of the zero-mass prior, "le" admits histograms outside the outer
# event, and a mean of 1.5 or more needs outcome "b".  At lambda = 800 the
# model on the full prior puts probability 0.0 on "a" and "b".  The
# real-valued "le" event over the zero-mass prior has probability about
# 0.08 at n = 200, and the two-class "eq" event (a count of 10 in class
# "a" at n = 50) about 0.14.  Four targets are infeasible: a "ge" past the
# ramp's maximum, a "ge"/"le" pair on two copies of the ramp that cross,
# an "eq" on the zero-mass prior that only outcome "b" could meet, and a
# "ge" 1e-6 past the ramp's maximum, within the dual floor's margin.  The
# scaled vertex is seed 3610 of the test suite's ``scaled_instance``: two
# nearly equal rows at scale 1.5e-4 whose targets are outcome "1"'s column,
# a vertex of the moment polytope, so the solve is boundary (exit 4).  A
# --dump-config file writes the path of the prior named outside ASCII as
# ``\u`` escapes, one of them a surrogate pair.
_INPUTS = {
    "full-prior": {"outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]},
    "ramp-features": {"names": ["f"], "matrix": [[0.0, 1.0, 2.0]]},
    "ramp-data": {"outcomes": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]},
    "lambda-800": [800.0],
    "zero-mass-prior": {"outcomes": ["a", "b", "c", "d"], "probs": [0.3, 0.0, 0.45, 0.25]},
    "zero-mass-event": _event([0.0, 2.0, 1.0, -0.5], "ge", 0.55),
    "zero-mass-inner": _event([0.0, 2.0, 1.0, -0.5], "ge", 0.75),
    "uncontained-inner": _event([0.0, 2.0, 1.0, -0.5], "le", 0.75),
    "empty-inner": _event([0.0, 2.0, 1.0, -0.5], "ge", 1.5),
    "malformed-inner": {"kinds": ["ge"], "featureset": {"names": ["x"]}},
    "boundary-event": _event([0.0, 1.0, 1.0], "ge", 1.0),
    "zero-mass-boundary": _event([1.0, 1.0, 0.0, 0.0], "le", 0.0),
    "ramp-event": _event([0.0, 1.0, 2.0], "eq", 1.2),
    "zero-mass-real-le": _event([0.37, 5.0, 0.37, -1.25], "le", -0.1),
    "two-class-eq": _event([0.25, 1.5, 1.5], "eq", 1.25),
    "ramp-beyond": _event([0.0, 1.0, 2.0], "ge", 2.5),
    "ramp-just-beyond": _event([0.0, 1.0, 2.0], "ge", 2.0 + 1e-6),
    "crossed-mix": {
        "kinds": ["ge", "le"], "targets": [1.5, 1.0],
        "featureset": {"names": ["x", "y"], "matrix": [[0.0, 1.0, 2.0]] * 2},
    },
    "zero-mass-beyond": _event([0.0, 2.0, 1.0, -0.5], "eq", 1.5),
    "eight-prior": {
        "outcomes": list("abcdefgh"),
        "probs": [0.05, 0.1, 0.15, 0.2, 0.1, 0.15, 0.1, 0.15],
    },
    "eight-event": _event([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], "ge", 4.5),
    "featureless-event": {
        "kinds": [], "targets": [], "featureset": {"names": [], "matrix": []},
    },
    "scaled-vertex-prior": {
        "outcomes": [str(i) for i in range(12)],
        "probs": [
            0.05026651275009397, 0.0858428208060008, 0.09778616783858107,
            0.05090017501491412, 0.0790350134966935, 0.06423266302366099,
            0.0929193544753612, 0.13155468147527483, 0.11081498083178809,
            0.0780816059093264, 0.055773537914508856, 0.10279248646379645,
        ],
    },
    "scaled-vertex": {
        "kinds": ["le", "eq"],
        "targets": [-0.00014641574171942476, -0.00014641573753570222],
        "featureset": {"names": ["f0", "f1"], "matrix": [
            [
                8.621882791391263e-05, -0.00014641574171942476,
                -0.00013743984470675243, -4.2738528523056466e-05,
                -1.4330263343138545e-05, 4.658344074762135e-05,
                -0.00010949913748126737, 1.1029120260619997e-05,
                -1.5697019565106007e-05, 8.218006423843231e-06,
                0.00014785941083322597, -4.5911733063951516e-05,
            ],
            [
                8.621877651108412e-05, -0.00014641573753570222,
                -0.00013743978563809993, -4.273845582422729e-05,
                -1.4330255758789191e-05, 4.6583359082203856e-05,
                -0.0001094991559931678, 1.1029176058899251e-05,
                -1.5696850887552017e-05, 8.218025719579937e-06,
                0.00014785939687541648, -4.5911637968679696e-05,
            ],
        ]},
    },
    "prior-\u00e4\u03bb\U0001f600": {
        "outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5],
    },
}


# Sample files of the fixed ``fit --samples`` ops, over the labels a, b, c
# of the full prior; written byte for byte.
_SAMPLES = {
    "crlf": "a\r\nb\r\nc\r\nc\r\n",
    "blank lines": "a\n\n   \nb\n\t\nc\nc\n\n",
    "surrounding whitespace": " a\t\n\tb \n  c  \nc\n",
    "vt and u2028 breaks": "a\x0bb\u2028c\x0bc\u2028",
    "inner space": "a\nb c\nc\n",
    "several unknown": "a\nzeta\nb\nalpha\nalpha\nzeta\n",
    "all blank": " \n\t\r\n\n",
}


def fixed_ops(indir: Path, outdir: Path) -> tuple[list[str], list[list[str]]]:
    """The names and argvs of the fixed ops, with their inputs written to
    ``indir`` and their outputs sent to ``outdir``."""
    path = {}
    for name, obj in _INPUTS.items():
        path[name] = str(indir / f"{name}.json")
        Path(path[name]).write_text(json.dumps(obj, sort_keys=True))
    for name, text in _SAMPLES.items():
        path[name] = str(indir / f"{name.replace(' ', '-')}.txt")
        Path(path[name]).write_bytes(text.encode())

    def sanov(prior: str, event: str, n: int, *extra: str) -> list[str]:
        return ["sanov", "--prior", path[prior], "--constraints", path[event],
                "--n", str(n), *extra]

    zero_mass = sanov("zero-mass-prior", "zero-mass-event", 40)
    monte_carlo = ["--monte-carlo", "--trials", "70000", "--seed", "3"]

    def nested(inner: str) -> list[str]:
        return [*zero_mass, "--nested", path[inner]]

    ops = {
        "diagnose": _DIAGNOSE,
        "diagnose underflowed model": [
            "diagnose", "--prior", path["full-prior"],
            "--features", path["ramp-features"], "--data", path["ramp-data"],
            "--model-lambda", path["lambda-800"],
        ],
        "sanov zero-mass": zero_mass,
        "sanov zero-mass --nested": nested("zero-mass-inner"),
        "sanov --nested uncontained inner": nested("uncontained-inner"),
        "sanov --nested empty inner": nested("empty-inner"),
        "sanov --nested malformed inner": nested("malformed-inner"),
        "sanov zero-mass --curve": [
            *zero_mass, "--curve", "10,20,40",
            "--curve-output", str(outdir / "curve.csv"),
        ],
        "sanov zero-mass --nested --curve": [
            *nested("zero-mass-inner"), "--curve", "10,20,40",
        ],
        "sanov zero-mass --monte-carlo --nested": [
            *nested("zero-mass-inner"), "--monte-carlo", "--trials", "1000",
        ],
        "sanov boundary": sanov("full-prior", "boundary-event", 300),
        "sanov zero-mass boundary": sanov("zero-mass-prior", "zero-mass-boundary", 40),
        "sanov featureless": sanov("full-prior", "featureless-event", 12),
        "sanov eq lattice": sanov("full-prior", "ramp-event", 30),
        "sanov 8 outcomes": sanov("eight-prior", "eight-event", 20),
        "sanov --monte-carlo zero-mass real le": sanov(
            "zero-mass-prior", "zero-mass-real-le", 200, *monte_carlo
        ),
        "sanov --monte-carlo two-class eq": sanov(
            "full-prior", "two-class-eq", 50, *monte_carlo
        ),
        "sanov --monte-carlo three classes": sanov(
            "full-prior", "ramp-event", 30, *monte_carlo
        ),
        "sanov --monte-carlo infeasible": sanov(
            "full-prior", "ramp-beyond", 30, *monte_carlo
        ),
        "sanov --monte-carlo infeasible 16 chunks": sanov(
            "full-prior", "ramp-beyond", 2000, "--monte-carlo", "--trials", "1048576"
        ),
        "project infeasible within the floor's margin": [
            "project", "--prior", path["full-prior"],
            "--constraints", path["ramp-just-beyond"],
        ],
        "project infeasible ge/le mix": [
            "project", "--prior", path["full-prior"],
            "--constraints", path["crossed-mix"],
        ],
        "project vertex at feature scale 1.5e-4": [
            "project", "--prior", path["scaled-vertex-prior"],
            "--constraints", path["scaled-vertex"],
        ],
        "project infeasible on the support": [
            "project", "--prior", path["zero-mass-prior"],
            "--constraints", path["zero-mass-beyond"],
        ],
        "project --trace --dump-config": [
            "project", "--prior", path["full-prior"],
            "--constraints", path["ramp-event"],
            "--trace", "--dump-config", str(outdir / "config.json"),
        ],
        "project --dump-config non-ASCII file name": [
            "project", "--prior", path["prior-\u00e4\u03bb\U0001f600"],
            "--constraints", path["ramp-event"],
            "--dump-config", str(outdir / "config.json"),
        ],
        "fit --data": [
            "fit", "--prior", path["full-prior"], "--features", path["ramp-features"],
            "--data", path["ramp-data"],
        ],
    }
    ops["entropy-approx --prior uniform-orthant"] = [
        "entropy-approx", "--prior", "uniform-orthant", "--alphabet-size", "2000",
        "--n", "3000,40000", "--trials", "3", "--seed", "5",
    ]
    limit = str(2**63 - 1)
    ops["entropy-approx D=2 at the sample-size limit"] = [
        "entropy-approx", "--alphabet-size", "2", "--n", limit, "--trials", "8",
    ]
    ops["entropy-approx --prior uniform-orthant at the sample-size limit"] = [
        "entropy-approx", "--alphabet-size", "3", "--prior", "uniform-orthant",
        "--n", limit, "--trials", "8",
    ]
    for name in _SAMPLES:
        ops[f"fit --samples {name}"] = [
            "fit", "--prior", path["full-prior"], "--features", path["ramp-features"],
            "--samples", path[name],
        ]
    names = list(ops)
    argvs = [
        [*argv, "--output", str(outdir / f"op{i}.json")]
        for i, argv in enumerate(ops.values())
    ]
    return names, argvs


def run_tree(src: Path, argvs: list[list[str]], outdir: Path) -> list[dict]:
    """Every op's exit code, stdout, stderr and the text of each file it
    wrote, under the source tree ``src``."""
    env = {**os.environ, **_ENV}
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(outdir)],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{src}: the child interpreter failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _item_path(item) -> str:
    """A list item's collapsed index: the item's ``name`` when it is an
    object that has one, else ``*``."""
    if isinstance(item, dict) and isinstance(item.get("name"), str):
        return f"[name={item['name']}]"
    return "[*]"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_changes(a, b, path: str, changes: dict) -> None:
    """Record in ``changes`` each collapsed path where the JSON values
    ``a`` and ``b`` differ, keyed by ``(path, kind)``: ``kind`` is
    ``"removed"`` or ``"added"`` for a key that only ``a`` or only ``b``
    holds, else ``"values"``.  Each entry is ``[count, largest absolute
    change]``; the change is None while only non-numbers differ there."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                _json_changes(a[key], b[key], sub, changes)
            else:
                kind = "removed" if key in a else "added"
                changes.setdefault((sub, kind), [0, None])[0] += 1
        return
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _json_changes(x, y, path + _item_path(x), changes)
        return
    if type(a) is type(b) and (a == b or a != a and b != b):  # NaN counts as equal
        return
    entry = changes.setdefault((path, "values"), [0, None])
    entry[0] += 1
    if _is_number(a) and _is_number(b):
        change = abs(b - a) if math.isfinite(a) and math.isfinite(b) else math.inf
        entry[1] = change if entry[1] is None else max(entry[1], change)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_columns(text: str) -> dict | None:
    """The CSV text's columns, ``{header: [cells]}`` with numeric cells
    read as floats; None unless it has a header row of two or more names
    and every row is as wide."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len(rows[0]) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    return {name: [_cell(row[j]) for row in rows[1:]] for j, name in enumerate(rows[0])}


def _print_changes(label: str, a: str, b: str) -> None:
    """Print the paths where the JSON texts ``a`` and ``b`` differ, or the
    columns where the CSV texts do; other texts print nothing."""
    try:
        old, new = json.loads(a), json.loads(b)
    except ValueError:
        old, new = _csv_columns(a), _csv_columns(b)
        if old is None or new is None:
            return
    changes = {}
    _json_changes(old, new, "", changes)
    for (path, kind), (count, largest) in changes.items():
        if kind != "values":
            print(f"  {label} {path}: {kind} ({count} keys)")
            continue
        size = "not numbers" if largest is None else f"largest change {largest:.3g}"
        print(f"  {label} {path or '(top level)'}: {count} values, {size}")


def compare(names, argvs, outdir: Path, old_src: Path, new_src: Path) -> int:
    """Run the ops ``argvs`` under both trees, print each named op whose
    results differ with the JSON paths and CSV columns that moved, and
    return how many ops differ."""
    old = run_tree(old_src, argvs, outdir)
    new = run_tree(new_src, argvs, outdir)
    differing = 0
    for name, argv, a, b in zip(names, argvs, old, new):
        fields = [key for key in a if a[key] != b[key]]
        if not fields:
            continue
        differing += 1
        print(f"{name}: {', '.join(fields)} differ: {' '.join(argv)}")
        if a["stdout"] != b["stdout"]:
            _print_changes("stdout", a["stdout"], b["stdout"])
        for file, text in a["files"].items():
            if b["files"].get(file, text) != text:
                _print_changes(file, text, b["files"][file])
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="kept after the run (default: a temporary directory, removed)",
    )
    args = parser.parse_args(argv)
    trees = (args.old_src, args.new_src)
    total = differing = 0
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as temporary:
        base = args.workdir or Path(temporary)
        for workload in WORKLOADS:
            for seed in args.seeds:
                workdir = base / f"{workload}-{seed}"
                ops = build(workload, seed, workdir)
                names = [f"{workload} seed {seed} op {op.id} ({op.kind})" for op in ops]
                argvs = [list(op.argv) for op in ops]
                differing += compare(names, argvs, workdir / "out", *trees)
                total += len(ops)
                print(f"{workload} seed {seed}: {len(ops)} ops", file=sys.stderr)
        indir, outdir = base / "fixed" / "in", base / "fixed" / "out"
        indir.mkdir(parents=True)
        outdir.mkdir()
        names, argvs = fixed_ops(indir, outdir)
        differing += compare(names, argvs, outdir, *trees)
        total += len(argvs)
    kept = f" (work directory {base})" if args.workdir else ""
    print(f"{differing} of {total} ops differ{kept}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
