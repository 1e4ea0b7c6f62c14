"""Command-line interface: exit codes, schemas, and determinism."""

import csv
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from maxentlab import identities as ident
from maxentlab.cli import main
from maxentlab.errors import InputError
from maxentlab.jsonio import atomic_write_text

PRIOR = {"outcomes": ["0", "1"], "probs": [0.5, 0.5]}
FEATURES = {"names": ["x"], "matrix": [[0.0, 1.0]]}
CONSTRAINTS_EQ = {"kinds": ["eq"], "targets": [0.8], "featureset": FEATURES}
CONSTRAINTS_GE = {"kinds": ["ge"], "targets": [0.8], "featureset": FEATURES}
CONSTRAINTS_GE9 = {"kinds": ["ge"], "targets": [0.9], "featureset": FEATURES}
THREE_FEATURES = {"names": ["x"], "matrix": [[0.0, 1.0, 2.0]]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


def test_project_bernoulli_fixture(files):
    tmp, write = files
    out = tmp / "report.json"
    code = main(
        [
            "project",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_EQ),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["lambda_star"][0] - 1.3862943611198906) < 1e-6
    assert report["status"] == "converged"


def test_project_empty_constraints_is_identity(files):
    tmp, write = files
    out = tmp / "report.json"
    constraints = {"kinds": [], "targets": [], "featureset": {"names": [], "matrix": []}}
    code = main(
        [
            "project",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", constraints),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["min_divergence"] == 0.0


def test_project_infeasible_exit_code(files):
    tmp, write = files
    prior3 = {"outcomes": ["0", "1", "2"], "probs": [1 / 3, 1 / 3, 1 / 3]}
    constraints = {"kinds": ["eq"], "targets": [3.0], "featureset": THREE_FEATURES}
    code = main(
        [
            "project",
            "--prior",
            write("p.json", prior3),
            "--constraints",
            write("a.json", constraints),
            "--output",
            str(tmp / "r.json"),
        ]
    )
    assert code == 3


def test_project_boundary_exit_code(files):
    tmp, write = files
    prior3 = {"outcomes": ["0", "1", "2"], "probs": [1 / 3, 1 / 3, 1 / 3]}
    constraints = {"kinds": ["eq"], "targets": [2.0], "featureset": THREE_FEATURES}
    code = main(
        [
            "project",
            "--prior",
            write("p.json", prior3),
            "--constraints",
            write("a.json", constraints),
            "--output",
            str(tmp / "r.json"),
        ]
    )
    assert code == 4


def test_project_nonconvergence_exit_code(files, capsys):
    tmp, write = files
    out = tmp / "r.json"
    code = main(
        [
            "project",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_EQ),
            "--solver-options",
            write("o.json", {"max_iter": 1}),
            "--output",
            str(out),
        ]
    )
    assert code == 6
    assert "did not reach tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_one_sided_project_nonconvergence_names_the_solve(files, capsys):
    tmp, write = files
    argv = ["project", "--prior", write("p.json", PRIOR)]
    argv += ["--constraints", write("a.json", CONSTRAINTS_GE)]
    argv += ["--solver-options", write("o.json", {"max_iter": 1})]
    assert main(argv + ["--output", str(tmp / "r.json")]) == 6
    assert "projected Newton did not reach tolerance" in capsys.readouterr().err


def test_interior_target_that_spends_its_budget_exits_6(files, capsys):
    # Two features that differ by 1e-6, with targets at the moments of
    # (0.1, 0.2, 0.3, 0.4): interior, so never a boundary (exit 4), though
    # lam grows past 1e4 and the descent spends its 200 Newton steps.
    tmp, write = files
    f1 = [0.0, 1.0, 2.0, 3.0]
    f2 = [x + 1e-6 * e for x, e in zip(f1, [1, -1, -1, 1])]
    q = [0.1, 0.2, 0.3, 0.4]
    prior = {"outcomes": list("abcd"), "probs": [0.25] * 4}
    features = {"names": ["f1", "f2"], "matrix": [f1, f2]}
    targets = [sum(a * b for a, b in zip(row, q)) for row in (f1, f2)]
    a = {"kinds": ["eq", "eq"], "targets": targets, "featureset": features}
    out = tmp / "r.json"
    argv = ["project", "--prior", write("p.json", prior)]
    argv += ["--constraints", write("a.json", a), "--output", str(out)]
    assert main(argv) == 6
    err = capsys.readouterr().err
    assert "dual Newton did not reach tolerance 1e-09 in 200 iterations" in err
    assert not out.exists()


def test_project_schema_violation_diagnostic(files, capsys):
    tmp, write = files
    bad = {"outcomes": ["0", "1"], "probs": [0.9, 0.4]}  # sums to 1.3
    code = main(
        [
            "project",
            "--prior",
            write("p.json", bad),
            "--constraints",
            write("a.json", CONSTRAINTS_EQ),
            "--output",
            str(tmp / "r.json"),
        ]
    )
    assert code == 2
    assert "deviation" in capsys.readouterr().err


def test_project_malformed_json_reports_line(files, tmp_path, capsys):
    tmp, write = files
    bad = tmp_path / "broken.json"
    bad.write_text('{"outcomes": ["0"],\n  "probs": [}')
    code = main(
        [
            "project",
            "--prior",
            str(bad),
            "--constraints",
            write("a.json", CONSTRAINTS_EQ),
            "--output",
            str(tmp / "r.json"),
        ]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_fit_from_samples(files):
    tmp, write = files
    samples = tmp / "samples.txt"
    samples.write_text("1\n" * 8 + "0\n" * 2)
    out = tmp / "fit.json"
    code = main(
        [
            "fit",
            "--prior",
            write("p.json", PRIOR),
            "--features",
            write("f.json", FEATURES),
            "--samples",
            str(samples),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["alpha"] == [0.8]
    assert abs(report["log_loss_fit"]["lambda_star"][0] - 1.3862943611198906) < 1e-6
    assert report["tv_distance"] <= 1e-6
    assert report["prescriptions_agree"]


def _fit_samples(files, raw: bytes, name: str = "samples.txt"):
    """``fit --samples`` on a file holding ``raw``: the exit code and the
    output file's text (None when none was written)."""
    tmp, write = files
    samples = tmp / name
    samples.write_bytes(raw)
    out = tmp / f"{name}.json"
    code = main(
        [
            "fit",
            "--prior",
            write("p.json", PRIOR),
            "--features",
            write("f.json", FEATURES),
            "--samples",
            str(samples),
            "--output",
            str(out),
        ]
    )
    return code, out.read_text() if out.exists() else None


# One label per ``str.splitlines`` line, surrounding whitespace stripped and
# blank lines skipped: each file reads as the labels 0, 1, 1.
@pytest.mark.parametrize(
    "raw",
    [
        b"0\r\n1\r\n1\r\n",
        b"0\n\n   \n\t\n1\n1",
        b"\n 0\t\n\t1 \n  1  \n\n",
        "0\x0b1\u20281\n".encode(),
        "0\r1\x0c1\u2029".encode(),
    ],
    ids=["crlf", "blank-lines", "surrounding-whitespace", "vt-and-u2028", "cr-ff-u2029"],
)
def test_fit_samples_file_format(files, raw):
    code, plain = _fit_samples(files, b"0\n1\n1\n", "plain.txt")
    assert code == 0
    assert json.loads(plain)["sample_count"] == 3
    assert _fit_samples(files, raw) == (0, plain)


@pytest.mark.parametrize(
    "raw, named, unnamed",
    [
        (b"0\na b\n1\n", "'a b'", None),
        (b"1\nzeta\n0\nalpha\nalpha\nalpha\nzeta\n", "'zeta'", "alpha"),
        (b"q\n0\nb\nb\nb\n", "'q'", "'b'"),
    ],
    ids=["inner-space", "first-in-file-order", "first-not-most-frequent"],
)
def test_fit_samples_unknown_label_names_the_first(files, capsys, raw, named, unnamed):
    assert _fit_samples(files, raw) == (2, None)
    err = capsys.readouterr().err
    assert f"unknown outcome label {named}" in err
    if unnamed is not None:
        assert unnamed not in err


def test_fit_samples_all_blank(files, capsys):
    assert _fit_samples(files, b" \n\t\n\r\n\n") == (2, None)
    assert "no samples found" in capsys.readouterr().err


def test_fit_single_outcome_flags_boundary(files):
    tmp, write = files
    samples = tmp / "samples.txt"
    samples.write_text("1\n" * 5)
    code = main(
        [
            "fit",
            "--prior",
            write("p.json", PRIOR),
            "--features",
            write("f.json", FEATURES),
            "--samples",
            str(samples),
            "--output",
            str(tmp / "fit.json"),
        ]
    )
    assert code == 4


def test_fit_unknown_label_exit_code(files, capsys):
    tmp, write = files
    samples = tmp / "samples.txt"
    samples.write_text("0\n2\n")
    code = main(
        [
            "fit",
            "--prior",
            write("p.json", PRIOR),
            "--features",
            write("f.json", FEATURES),
            "--samples",
            str(samples),
            "--output",
            str(tmp / "fit.json"),
        ]
    )
    assert code == 2
    assert "unknown outcome label" in capsys.readouterr().err


def test_fit_data_on_other_labels_exit_code(files, capsys):
    # Data over other labels are not read by position: fit refuses them,
    # as diagnose does.
    tmp, write = files
    out = tmp / "fit.json"
    code = main(
        [
            "fit",
            "--prior",
            write("p.json", PRIOR),
            "--features",
            write("f.json", FEATURES),
            "--data",
            write("d.json", {"outcomes": ["b", "a"], "probs": [0.2, 0.8]}),
            "--output",
            str(out),
        ]
    )
    assert code == 2
    assert "alphabets differ" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_data_off_the_prior_support_exit_2_before_any_solve(
    files, capsys, monkeypatch, command
):
    # No member of the family puts mass on outcome "c", where the data do:
    # an input error, raised before the projection runs, that leaves no
    # report and no config behind.
    def no_solve(*args, **kwargs):
        raise AssertionError("projected data off the prior's support")

    monkeypatch.setattr(ident, "project", no_solve)
    tmp, write = files
    out, dump = tmp / "r.json", tmp / "dc.json"
    prior = {"outcomes": ["a", "b", "c"], "probs": [0.5, 0.5, 0.0]}
    data = {"outcomes": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]}
    argv = [command, "--prior", write("p.json", prior)]
    argv += ["--features", write("f.json", THREE_FEATURES)]
    argv += ["--data", write("d.json", data)]
    argv += ["--output", str(out), "--dump-config", str(dump)]
    assert main(argv) == 2
    assert "data puts mass outside the prior's support" in capsys.readouterr().err
    assert not out.exists() and not dump.exists()


def test_output_files_follow_the_umask(files):
    tmp, write = files
    old = os.umask(0o022)
    try:
        code = main(
            [
                "project",
                "--prior",
                write("p.json", PRIOR),
                "--constraints",
                write("a.json", CONSTRAINTS_EQ),
                "--output",
                str(tmp / "out.json"),
                "--dump-config",
                str(tmp / "config.json"),
            ]
        )
    finally:
        os.umask(old)
    assert code == 0
    for name in ("out.json", "config.json"):
        assert stat.S_IMODE((tmp / name).stat().st_mode) == 0o644, name
    assert sorted(p.name for p in tmp.iterdir()) == [
        "a.json",
        "config.json",
        "out.json",
        "p.json",
    ]


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(InputError):
        atomic_write_text(target, "text")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_fit_empty_samples_exit_code(files):
    tmp, write = files
    samples = tmp / "samples.txt"
    samples.write_text("\n")
    code = main(
        [
            "fit",
            "--prior",
            write("p.json", PRIOR),
            "--features",
            write("f.json", FEATURES),
            "--samples",
            str(samples),
            "--output",
            str(tmp / "fit.json"),
        ]
    )
    assert code == 2


def test_diagnose_random_instances(files):
    tmp, write = files
    out = tmp / "diag.json"
    code = main(
        ["diagnose", "--random", "--instances", "5", "--seed", "1", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"]
    assert len(report["instances"]) == 5


@pytest.mark.parametrize(
    "outputs, named",
    [
        (["--curve", "5,10", "--curve-output", "x.json", "--output", "x.json"],
         "--output and the --curve CSV would both write"),
        (["--curve", "5,10", "--curve-output", "./x.json", "--output", "x.json"],
         "--output and the --curve CSV would both write"),
        (["--dump-config", "y.json", "--output", "y.json"],
         "--output and --dump-config would both write"),
        (["--curve", "5,10", "--dump-config", "sanov.curve.csv"],
         "--dump-config and the --curve CSV would both write"),
        (["--curve", "5,10", "--dump-config", "x.json.curve.csv", "--output", "x.json"],
         "--dump-config and the --curve CSV would both write"),
    ],
    ids=["curve-output", "curve-output-spelled-apart", "dump-config",
         "default-curve-stdout", "default-curve"],
)
def test_outputs_that_collide_exit_2_before_any_work(
    files, monkeypatch, capsys, outputs, named
):
    # Two outputs that resolve to one file would lose the earlier write: the
    # command exits 2 before it runs or writes anything.
    tmp, write = files
    argv = ["sanov", "--prior", write("p.json", PRIOR), "--n", "10"]
    argv += ["--constraints", write("a.json", CONSTRAINTS_GE)]
    monkeypatch.chdir(tmp)
    before = sorted(tmp.iterdir())
    assert main(argv + outputs) == 2
    assert named in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


def test_diagnose_random_rejects_solver_options(files, capsys):
    # The random suite solves with its own settings; a solver-options file
    # would be ignored, so the combination is an input error.
    tmp, write = files
    out = tmp / "diag.json"
    code = main(
        [
            "diagnose",
            "--random",
            "--instances",
            "2",
            "--solver-options",
            write("opts.json", {"max_iter": 5}),
            "--output",
            str(out),
        ]
    )
    assert code == 2
    assert "--solver-options" in capsys.readouterr().err
    assert not out.exists()


def _ignored_option_cases(write, tmp):
    prior = write("p.json", PRIOR)
    data = write("d.json", {"outcomes": ["0", "1"], "probs": [0.3, 0.7]})
    sanov = ["sanov", "--prior", prior, "--n", "10"]
    sanov += ["--constraints", write("g.json", CONSTRAINTS_GE)]
    return {
        "diagnose-random": (
            ["diagnose", "--random", "--instances", "1", "--prior", "nonexistent.json"]
            + ["--model-lambda", "nope.json"],
            ["--prior", "--model-lambda"],
        ),
        "diagnose-files": (
            ["diagnose", "--instances", "3", "--prior", prior, "--data", data]
            + ["--features", write("f.json", FEATURES)],
            ["--instances"],
        ),
        "sanov-curve-output": (
            sanov + ["--curve-output", str(tmp / "curve.csv")],
            ["--curve-output"],
        ),
        "sanov-trials": (sanov + ["--trials", "7"], ["--trials"]),
        "sanov-mc-cap": (sanov + ["--monte-carlo", "--cap", "50"], ["--cap"]),
    }


@pytest.mark.parametrize(
    "case",
    [
        "diagnose-random",
        "diagnose-files",
        "sanov-curve-output",
        "sanov-trials",
        "sanov-mc-cap",
    ],
)
def test_ignored_options_exit_2(files, capsys, case):
    # diagnose --random takes no input files, --instances needs --random,
    # --curve-output needs --curve, --trials needs --monte-carlo and --cap
    # needs an enumeration: an option the command would drop is an input
    # error naming it.
    tmp, write = files
    argv, named = _ignored_option_cases(write, tmp)[case]
    out = tmp / "out.json"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(option in err for option in named), err
    assert not out.exists()
    assert not (tmp / "curve.csv").exists()


def test_diagnose_fixture_files(files):
    tmp, write = files
    data = {"outcomes": ["0", "1"], "probs": [0.2, 0.8]}
    out = tmp / "diag.json"
    code = main(
        [
            "diagnose",
            "--prior",
            write("p.json", PRIOR),
            "--features",
            write("f.json", FEATURES),
            "--data",
            write("d.json", data),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    names = {r["name"] for r in report["instances"][0]["reports"]}
    assert "pythagorean" in names
    pyth = [r for r in report["instances"][0]["reports"] if r["name"] == "pythagorean"]
    assert abs(pyth[0]["residual"]) <= 1e-10


def _diagnose_at_lambda(write, out, lam: float) -> list[str]:
    """``diagnose`` argv of a three-outcome model at ``lambda = lam`` whose
    data put mass where the model's probabilities underflow for large
    ``lam``."""
    prior = {"outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}
    data = {"outcomes": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]}
    argv = ["diagnose", "--prior", write("p.json", prior), "--output", str(out)]
    argv += ["--features", write("f.json", {"names": ["f"], "matrix": [[0, 1, 2]]})]
    argv += ["--data", write("d.json", data)]
    return argv + ["--model-lambda", write("lam.json", [lam])]


def test_diagnose_identity_failure_exits_5(files, capsys):
    # At lambda = 1e8 both sides of three identities are about 1.3e8 nats,
    # whose float spacing is ~1.5e-8: their residuals, about 1.1e-6, are
    # rounding, finite but above the 1e-8 tolerance.  (They are not
    # inf - inf: the model keeps finite log-probabilities where its
    # probabilities underflow to 0.)
    tmp, write = files
    out = tmp / "diag.json"
    assert main(_diagnose_at_lambda(write, out, 1e8)) == 5
    assert (
        "identity failures: ['pretend_data_identity', 'pythagorean', 'robustness']"
        in capsys.readouterr().err
    )
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    failed = [r for r in report["instances"][0]["reports"] if not r["pass"]]
    assert all(math.isfinite(r["lhs"]) and math.isfinite(r["rhs"]) for r in failed)
    assert all(math.isfinite(r["residual"]) for r in failed)
    assert all(abs(r["residual"]) > 1e-8 for r in failed)


def test_diagnose_underflowed_model_probabilities_exit_0(files):
    # At lambda = 800 the model's probabilities of a and b underflow to 0,
    # where the data put mass; the divergence to the model is still finite,
    # KL = H(data, model) - H(data) = 1039.58, and every identity holds.
    tmp, write = files
    out = tmp / "diag.json"
    assert main(_diagnose_at_lambda(write, out, 800.0)) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    by_name = {r["name"]: r for r in report["instances"][0]["reports"]}
    assert by_name["pythagorean"]["lhs"] == pytest.approx(1039.5817400390024, rel=1e-12)


def test_diagnose_corrupted_model_file(files, capsys):
    tmp, write = files
    bad = {"outcomes": ["0", "1"], "probs": [0.7, 0.7]}
    code = main(
        [
            "diagnose",
            "--prior",
            write("p.json", bad),
            "--features",
            write("f.json", FEATURES),
            "--data",
            write("d.json", PRIOR),
            "--output",
            str(tmp / "diag.json"),
        ]
    )
    assert code == 2


def test_diagnose_featureless_files(files):
    # With no features, the projection keeps the caller's empty feature set,
    # so the model read from the same files is in its family.
    tmp, write = files
    data = {"outcomes": ["0", "1"], "probs": [0.2, 0.8]}
    out = tmp / "diag.json"
    argv = ["diagnose", "--prior", write("p.json", PRIOR), "--output", str(out)]
    argv += ["--features", write("f.json", {"names": [], "matrix": []})]
    argv += ["--data", write("d.json", data)]
    assert main(argv) == 0
    reports = json.loads(out.read_text())["instances"][0]["reports"]
    assert len(reports) == 4
    assert all(r["pass"] for r in reports)


@pytest.mark.parametrize(
    "command, name, bad, field",
    [
        ("project", "prior", {**PRIOR, "probs": ["x", 0.5]}, "probs"),
        ("fit", "data", {**PRIOR, "probs": {"0": 0.2, "1": 0.8}}, "probs"),
        ("diagnose", "features", {"names": ["x", "y"], "matrix": [[0, 1], [0]]}, "matrix"),
        ("project", "constraints", {**CONSTRAINTS_EQ, "kinds": ["gt"]}, "kinds"),
        ("diagnose", "model-lambda", ["a"], "--model-lambda"),
        ("project", "prior", {**PRIOR, "outcomes": 5}, "outcomes"),
        ("project", "prior", {**PRIOR, "outcomes": "01"}, "outcomes"),
        ("fit", "features", {**FEATURES, "names": 3}, "names"),
        ("fit", "features", {"names": "xy", "matrix": [[0, 1], [1, 0]]}, "names"),
        ("fit", "features", {"names": ["u", "v"], "matrix": [1, 2, 3]}, "matrix"),
        ("fit", "features", {"names": [], "matrix": [1, 2]}, "matrix"),
        (
            "project",
            "constraints",
            {**CONSTRAINTS_EQ, "kinds": ["eq", "eq"]},
            "1 features but 2 kinds and 1 targets",
        ),
        (
            "fit",
            "features",
            {**FEATURES, "matrix": [[0.0, float("inf")]]},
            "feature values must be finite",
        ),
        (
            "project",
            "constraints",
            {**CONSTRAINTS_EQ, "targets": [float("nan")]},
            "constraint targets must be finite",
        ),
        # JSON booleans, which numpy would read as 1 and 0.
        (
            "project",
            "prior",
            {**PRIOR, "probs": [True, False]},
            "probs must be numbers",
        ),
        (
            "fit",
            "features",
            {**FEATURES, "matrix": [[False, True]]},
            "feature matrix must be numbers",
        ),
        (
            "project",
            "constraints",
            {**CONSTRAINTS_EQ, "targets": [True]},
            "constraint targets must be numbers",
        ),
        ("diagnose", "model-lambda", [True], "--model-lambda must be numbers"),
    ],
    ids=[
        "string-prob",
        "object-probs",
        "ragged-matrix",
        "unknown-kind",
        "text-lambda",
        "number-outcomes",
        "string-outcomes",
        "number-names",
        "string-names",
        "flat-matrix-two-names",
        "flat-matrix-no-names",
        "kinds-outnumber-features",
        "infinite-feature",
        "nan-target",
        "boolean-probs",
        "boolean-matrix",
        "boolean-target",
        "boolean-lambda",
    ],
)
def test_malformed_values_exit_2(files, capsys, command, name, bad, field):
    # A value of the wrong type is an input error naming its field, not a
    # numpy traceback.
    tmp, write = files
    good = {
        "prior": PRIOR,
        "constraints": CONSTRAINTS_EQ,
        "features": FEATURES,
        "data": {"outcomes": ["0", "1"], "probs": [0.2, 0.8]},
    }
    needs = {
        "project": ["prior", "constraints"],
        "fit": ["prior", "features", "data"],
        "diagnose": ["prior", "features", "data", name],
    }[command]
    out = tmp / "out.json"
    argv = [command, "--output", str(out)]
    for option in needs:
        obj = bad if option == name else good[option]
        argv += [f"--{option}", write(f"{option}.json", obj)]
    assert main(argv) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_one_feature_flat_matrix_reads_as_its_row(files):
    # The README allows one feature's row without the outer brackets.
    tmp, write = files
    outputs = []
    for form, matrix in (("nested", [[0.0, 1.0]]), ("flat", [0.0, 1.0])):
        featureset = {"names": ["x"], "matrix": matrix}
        constraints = {**CONSTRAINTS_EQ, "featureset": featureset}
        out = tmp / f"{form}.json"
        argv = ["project", "--prior", write("p.json", PRIOR), "--output", str(out)]
        argv += ["--constraints", write(f"a-{form}.json", constraints)]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "option, expected",
    [
        ("prior", "distribution: expected a JSON object, got list"),
        ("solver-options", "solver options: expected a JSON object, got list"),
        ("config", "config: expected a JSON object, got list"),
    ],
    ids=["prior", "solver-options", "config"],
)
def test_json_array_where_an_object_belongs_exits_2(files, capsys, option, expected):
    tmp, write = files
    paths = {"prior": write("p.json", PRIOR), option: write("bad.json", [1, 2])}
    out = tmp / "r.json"
    argv = ["project", "--prior", paths["prior"], "--output", str(out)]
    argv += ["--constraints", write("a.json", CONSTRAINTS_EQ)]
    if option != "prior":
        argv += [f"--{option}", paths[option]]
    assert main(argv) == 2
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file_exits_2_naming_it(files, capsys):
    tmp, write = files
    missing = tmp / "no-such-prior.json"
    out = tmp / "r.json"
    argv = ["project", "--prior", str(missing), "--output", str(out)]
    argv += ["--constraints", write("a.json", CONSTRAINTS_EQ)]
    assert main(argv) == 2
    assert f"error: {missing}: No such file or directory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("role", ["prior", "config", "samples"])
def test_non_utf8_input_file_exits_2_naming_it(files, capsys, role):
    # A file that is not UTF-8 is an input error, not a UnicodeDecodeError.
    tmp, write = files
    bad = tmp / "latin1.txt"
    bad.write_bytes("caf\xe9\n".encode("latin-1"))
    samples = tmp / "s.txt"
    samples.write_text("0\n1\n")
    paths = {"prior": write("p.json", PRIOR), "samples": str(samples)}
    out = tmp / "r.json"
    argv = ["fit", "--features", write("f.json", FEATURES), "--output", str(out)]
    for name, path in {**paths, role: str(bad)}.items():
        argv += [f"--{name}", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8 text" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sanov", "--monte-carlo", "--trials", "3"],
        ["entropy-approx", "--alphabet-size", "5", "--trials", "1"],
    ],
)
def test_sample_size_above_int64_exits_2(files, capsys, route, argv):
    # numpy's multinomial takes its sample size as an int64, so 2**63 would
    # end in an OverflowError.
    tmp, write = files
    out = tmp / "out"
    if argv[0] == "sanov":
        argv = argv + ["--prior", write("p.json", PRIOR)]
        argv += ["--constraints", write("a.json", CONSTRAINTS_GE)]
    if route == "flag":
        argv = argv + ["--n", str(2**63)]
    else:
        argv = argv + ["--config", write("c.json", {"n": 2**63})]
    assert main(argv + ["--output", str(out)]) == 2
    assert "2**63 - 1" in capsys.readouterr().err
    assert not out.exists()


def test_sanov_fixture(files):
    tmp, write = files
    out = tmp / "sanov.json"
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--n",
            "10",
            "--nested",
            write("b.json", CONSTRAINTS_GE9),
            "--curve",
            "10,20,40",
            "--curve-output",
            str(tmp / "curve.csv"),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["log_prob"] - (-2.906120114864304)) < 1e-9
    assert abs(report["nested"]["lhs"] - report["nested"]["rhs"]) < 1e-10
    lines = (tmp / "curve.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    res10 = float(lines[1].split(",")[3])
    res40 = float(lines[3].split(",")[3])
    assert res40 < res10


def test_exact_sanov_on_an_empty_event_exits_0(files):
    # No histogram has mean 3 or more of a feature bounded by 2: the exact
    # answer is probability 0, not an infeasible projection's exit 3.
    tmp, write = files
    prior = {"outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}
    event = {"kinds": ["ge"], "targets": [3.0], "featureset": THREE_FEATURES}
    out = tmp / "sanov.json"
    argv = ["sanov", "--prior", write("p.json", prior), "--n", "4"]
    argv += ["--constraints", write("a.json", event), "--output", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["empty_event"] is True
    assert report["log_prob"] == -math.inf
    assert report["projection"]["status"] == "infeasible"


@pytest.mark.parametrize(
    "extra", [[], ["--curve", "2,4"], ["--monte-carlo", "--trials", "10"]]
)
def test_sanov_featureless_constraints(files, extra):
    # A featureless constraint file (a 0x0 matrix) holds every histogram:
    # probability 1, rate 0, residual 0, with no feature means to read.
    tmp, write = files
    prior = {"outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}
    event = {"kinds": [], "targets": [], "featureset": {"names": [], "matrix": []}}
    out = tmp / "sanov.json"
    argv = ["sanov", "--prior", write("p.json", prior), "--n", "5"]
    argv += ["--constraints", write("a.json", event), "--output", str(out)]
    assert main(argv + extra) == 0
    report = json.loads(out.read_text())
    assert report["rate"] == 0.0
    if "--monte-carlo" in extra:
        assert report["hits"] == report["trials"] == 10
        return
    assert report["num_histograms_in_event"] == math.comb(5 + 3 - 1, 3 - 1)
    assert abs(report["log_prob"]) <= 1e-12
    assert abs(report["residual"]) <= 1e-12
    if extra:
        rows = (tmp / "sanov.json.curve.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "4"]
        assert all(abs(float(row.split(",")[3])) <= 1e-12 for row in rows)


@pytest.mark.parametrize("extra, code", [([], 0), (["--monte-carlo"], 3)])
def test_sanov_infeasible_event_exit_code_by_method(files, extra, code):
    # The same infeasible event: exact enumeration answers it (probability
    # 0, exit 0); Monte Carlo has only the infeasible projection (exit 3).
    tmp, write = files
    prior = {"outcomes": ["a", "b", "c"], "probs": [0.3, 0.3, 0.4]}
    event = {"kinds": ["eq"], "targets": [3.0], "featureset": THREE_FEATURES}
    out = tmp / "sanov.json"
    argv = ["sanov", "--prior", write("p.json", prior), "--n", "4"]
    argv += ["--constraints", write("a.json", event), "--output", str(out)]
    assert main(argv + extra) == code
    report = json.loads(out.read_text())
    assert report["empty_event"] is True
    assert report["projection"]["min_divergence"] == math.inf
    assert report["projection"]["status"] == "infeasible"


def test_sanov_cap_requires_monte_carlo(files, capsys):
    tmp, write = files
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--n",
            "100",
            "--cap",
            "50",
            "--output",
            str(tmp / "s.json"),
        ]
    )
    assert code == 2
    assert "monte-carlo" in capsys.readouterr().err


def test_sanov_monte_carlo_mode(files):
    tmp, write = files
    out = tmp / "mc.json"
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--n",
            "10",
            "--monte-carlo",
            "--trials",
            "50000",
            "--seed",
            "11",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["method"] == "monte-carlo"
    assert report["wilson_low"] <= 56 / 1024 + 0.01


def _keys_and_strings(obj):
    """Every object key and every string value at any depth of ``obj``."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys_and_strings(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from _keys_and_strings(item)
    elif isinstance(obj, str):
        yield obj


def test_results_hold_no_copy_of_their_inputs(files):
    # A projection is described by its lambda_star on the inputs' family:
    # no result writes the prior, the features or the curve CSV's path back.
    tmp, write = files
    labels = [f"outcome-{i}" for i in range(1000)]
    wide = write("wide.json", {"outcomes": labels, "probs": [0.001] * 1000})
    ramp = {"names": ["x"], "matrix": [[i / 999 for i in range(1000)]]}
    samples = tmp / "samples.txt"
    samples.write_text("\n".join(labels[::7]) + "\n")
    coin = write("coin.json", {"outcomes": ["heads", "tails"], "probs": [0.5, 0.5]})
    sanov = ["sanov", "--prior", coin, "--constraints", write("a.json", CONSTRAINTS_GE),
             "--n", "10", "--curve", "10,20"]
    runs = {
        "project": ["project", "--prior", wide, "--constraints",
                    write("eq.json", {"kinds": ["eq"], "targets": [0.3],
                                      "featureset": ramp})],
        "fit --samples": ["fit", "--prior", wide, "--features", write("f.json", ramp),
                          "--samples", str(samples)],
        "sanov exact": [*sanov, "--nested", write("b.json", CONSTRAINTS_GE9)],
        "sanov Monte Carlo": [*sanov, "--monte-carlo", "--trials", "100"],
    }
    for name, argv in runs.items():
        out = tmp / f"{name}.json"
        assert main([*argv, "--output", str(out)]) == 0, name
        found = set(_keys_and_strings(json.loads(out.read_text())))
        assert not {"model", "curve_file"} & found, name
        assert not {*labels, "heads", "tails"} & found, name
    # The curve goes to the documented default path, <--output>.curve.csv.
    assert (tmp / "sanov exact.json.curve.csv").exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--nested", "inner"],
        ["--curve", "10,100"],
        ["--curve", "100", "--nested", "inner"],
    ],
)
def test_sanov_cap_checked_before_monte_carlo(files, monkeypatch, capsys, extra):
    # --nested and --curve enumerate exactly even with --monte-carlo; past
    # the cap the command fails before estimating anything.
    from maxentlab import cli

    calls = []
    estimate = cli.sv.monte_carlo_event

    def counted(*args, **kwargs):
        calls.append(1)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cli.sv, "monte_carlo_event", counted)
    tmp, write = files
    if "inner" in extra:
        extra[extra.index("inner")] = write("b.json", CONSTRAINTS_GE9)
    out = tmp / "s.json"
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--n",
            "100",
            "--cap",
            "50",
            "--monte-carlo",
            "--trials",
            "1000",
            "--curve-output",
            str(tmp / "curve.csv"),
            "--output",
            str(out),
        ]
        + extra
    )
    assert code == 2
    assert calls == []
    assert "101 histograms exceed the cap of 50" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp / "curve.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--monte-carlo", "--trials", "100"]])
@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"kinds": ["ge"], "targets": [0.9]',
            "b.json: line 1, column 35: Expecting ',' delimiter",
        ),
        (
            json.dumps({"kinds": ["ge"], "featureset": FEATURES}),
            "constraintset: missing field 'targets'",
        ),
    ],
    ids=["syntax", "schema"],
)
def test_sanov_malformed_nested_file_fails_before_the_run(
    files, monkeypatch, capsys, extra, text, message
):
    # The --nested file is read with the other inputs: a malformed one
    # exits 2 before anything is enumerated or sampled.
    from maxentlab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the main run started before --nested was read")

    monkeypatch.setattr(cli.sv, "compositions", refuse)
    monkeypatch.setattr(cli.sv, "monte_carlo_event", refuse)
    tmp, write = files
    bad = tmp / "b.json"
    bad.write_text(text)
    out = tmp / "s.json"
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--n",
            "10",
            "--nested",
            str(bad),
            "--output",
            str(out),
        ]
        + extra
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sanov_monte_carlo_alone_counts_no_histograms(files, monkeypatch):
    from maxentlab import cli

    def refuse(*args):
        raise AssertionError("Monte Carlo needs no histogram count")

    monkeypatch.setattr(cli.sv, "num_compositions", refuse)
    tmp, write = files
    out = tmp / "mc.json"
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--n",
            "100",
            "--monte-carlo",
            "--trials",
            "1000",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["trials"] == 1000


@pytest.mark.parametrize(
    "n, extra",
    [("-5", []), ("-5", ["--monte-carlo"]), ("0", ["--monte-carlo"]), ("0", [])],
)
def test_sanov_bad_sample_size_is_input_error(files, capsys, n, extra):
    # One message for every n < 1, exact or Monte Carlo: the exact run's
    # histogram count, which takes n = 0, does not get there first.
    tmp, write = files
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--n",
            n,
            "--output",
            str(tmp / "s.json"),
        ]
        + extra
    )
    assert code == 2
    assert capsys.readouterr().err == "error: sample size must be at least 1\n"
    assert not (tmp / "s.json").exists()


@pytest.mark.parametrize(
    "extra",
    [
        [],
        ["--nested", "inner"],
        ["--curve", "10,20,40"],
        ["--nested", "inner", "--curve", "10,20"],
    ],
)
def test_sanov_projects_once_per_command(files, monkeypatch, extra):
    # The projection does not depend on n, and --nested projects onto the
    # main event: one solve serves the report, the nested check and the curve.
    # The report and the nested check read one histogram table, which is
    # also the curve's row at --n; each other curve point builds its own.
    from maxentlab import cli, sanov

    calls = []
    solve = sanov.project_inequality

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    built = []
    enumerate_all = sanov._enumerate

    def counted_table(*args, **kwargs):
        built.append(args[0])
        return enumerate_all(*args, **kwargs)

    monkeypatch.setattr(cli, "project_inequality", counted)
    monkeypatch.setattr(sanov, "project_inequality", counted)
    monkeypatch.setattr(sanov, "_enumerate", counted_table)
    tmp, write = files
    if "inner" in extra:
        extra[extra.index("inner")] = write("b.json", CONSTRAINTS_GE9)
    grid = []
    if "--curve" in extra:
        grid = extra[extra.index("--curve") + 1].split(",")
        extra += ["--curve-output", str(tmp / "curve.csv")]
    out = tmp / "s.json"
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--n",
            "10",
            "--output",
            str(out),
        ]
        + extra
    )
    assert code == 0
    assert len(calls) == 1
    assert calls[0].targets.tolist() == [0.8]
    assert sorted(built) == sorted({10, *map(int, grid)})
    report = json.loads(out.read_text())
    if "--nested" in extra:
        assert report["nested"]["pass"]
    if "--curve" in extra:
        assert (tmp / "curve.csv").exists()


def test_entropy_approx_csv(files):
    tmp, write = files
    out = tmp / "exp.csv"
    code = main(
        [
            "entropy-approx",
            "--alphabet-size",
            "20",
            "--n",
            "40,80",
            "--trials",
            "3",
            "--seed",
            "5",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("prior_mode,D,n,trial")
    assert len(lines) == 7


def test_entropy_approx_doubling_span(files):
    tmp, write = files
    out = tmp / "exp.csv"
    code = main(
        [
            "entropy-approx",
            "--alphabet-size",
            "10",
            "--n",
            "20..80",
            "--trials",
            "2",
            "--seed",
            "5",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    seen = sorted({int(r.split(",")[2]) for r in rows})
    assert seen == [20, 40, 80]


def test_entropy_approx_prints_the_median_of_two_trials(files, capsys):
    # With an even trial count the median is the mean of the two middle
    # |err|, not the upper one.
    tmp, write = files
    out = tmp / "exp.csv"
    argv = ["entropy-approx", "--alphabet-size", "10", "--n", "30,60"]
    assert main(argv + ["--trials", "2", "--seed", "4", "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    lines = capsys.readouterr().out.splitlines()
    for n, line in zip((30, 60), lines, strict=True):
        cell = [r for r in rows if int(r["n"]) == n]
        med0, med1 = (
            (abs(float(cell[0][col])) + abs(float(cell[1][col]))) / 2
            for col in ("err_zeroth", "err_first")
        )
        assert line == f"n={n}: median |err| zeroth={med0:.6g} first={med1:.6g} (2 trials)"


def test_config_file_defaults_with_flag_override(files):
    tmp, write = files
    config = write("config.json", {"trials": 4, "seed": 123})
    out1 = tmp / "a.csv"
    code = main(
        [
            "entropy-approx",
            "--alphabet-size",
            "10",
            "--n",
            "30",
            "--config",
            config,
            "--output",
            str(out1),
        ]
    )
    assert code == 0
    rows = out1.read_text().strip().split("\n")[1:]
    assert len(rows) == 4  # trials from config
    # flag wins over config
    out2 = tmp / "b.csv"
    main(
        [
            "entropy-approx",
            "--alphabet-size",
            "10",
            "--n",
            "30",
            "--trials",
            "2",
            "--config",
            config,
            "--output",
            str(out2),
        ]
    )
    assert len(out2.read_text().strip().split("\n")) == 3


def test_determinism_across_reruns_and_threads(files):
    tmp, write = files
    prior = write("p.json", PRIOR)
    constraints = write("a.json", CONSTRAINTS_GE)
    outs = []
    for tag, threads in (("t1", "1"), ("t8", "8"), ("t1b", "1")):
        out = tmp / f"mc-{tag}.json"
        code = main(
            [
                "sanov",
                "--prior",
                prior,
                "--constraints",
                constraints,
                "--n",
                "10",
                "--monte-carlo",
                "--trials",
                "200000",
                "--seed",
                "7",
                "--threads",
                threads,
                "--output",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_dump_config_reproduces_run(files):
    tmp, write = files
    out1 = tmp / "a.csv"
    cfg = tmp / "run.json"
    code = main(
        [
            "entropy-approx",
            "--alphabet-size",
            "12",
            "--n",
            "30,60",
            "--trials",
            "3",
            "--seed",
            "21",
            "--output",
            str(out1),
            "--dump-config",
            str(cfg),
        ]
    )
    assert code == 0
    saved = json.loads(cfg.read_text())
    assert saved["command"] == "entropy-approx"
    assert saved["seed"] == 21
    # replay from the dump file alone; only the output path is overridden
    out2 = tmp / "b.csv"
    code = main(["entropy-approx", "--config", str(cfg), "--output", str(out2)])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def _replay_cases(write, tmp):
    prior = write("p.json", PRIOR)
    eq = write("a.json", CONSTRAINTS_EQ)
    ge = write("g.json", CONSTRAINTS_GE)
    data = write("d.json", {"outcomes": ["0", "1"], "probs": [0.3, 0.7]})
    features = write("f.json", FEATURES)
    return {
        "entropy-approx": [
            "--alphabet-size", "12", "--n", "30,60", "--trials", "3",
            "--prior", "uniform-orthant", "--seed", "21",
        ],
        "project": ["--prior", prior, "--constraints", eq, "--trace"],
        "fit": ["--prior", prior, "--features", features, "--data", data],
        "diagnose": ["--random", "--instances", "2", "--seed", "4"],
        "sanov-mc": [
            "--prior", prior, "--constraints", ge, "--n", "10",
            "--monte-carlo", "--trials", "5000", "--seed", "3", "--threads", "2",
        ],
        "sanov-exact": [
            "--prior", prior, "--constraints", ge, "--n", "10", "--cap", "50",
            "--nested", write("b.json", CONSTRAINTS_GE9), "--curve", "10,20",
            "--curve-output", str(tmp / "curve.csv"),
        ],
    }


@pytest.mark.parametrize(
    "case",
    ["entropy-approx", "project", "fit", "diagnose", "sanov-mc", "sanov-exact"],
)
def test_dump_config_replays_every_command(files, capsys, case):
    # The dump is the resolved options as one flat object, booleans
    # included; fed back to --config it reruns the same computation.
    tmp, write = files
    command = "sanov" if case.startswith("sanov") else case
    flags = _replay_cases(write, tmp)[case]
    dump = tmp / "dump.json"
    out1, out2 = tmp / "first.out", tmp / "replay.out"
    code1 = main([command, *flags, "--output", str(out1), "--dump-config", str(dump)])
    stdout1 = capsys.readouterr().out
    saved = json.loads(dump.read_text())
    assert saved["command"] == command
    for flag in ("--trace", "--random", "--monte-carlo"):
        if flag in flags:
            assert saved[flag[2:].replace("-", "_")] is True
    code2 = main([command, "--config", str(dump), "--output", str(out2)])
    assert capsys.readouterr().out == stdout1
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["sanov", "--n", "5"],
        ["diagnose", "--random", "--instances", "2", "--seed", str(2**64 - 1)],
        ["project", "--prior", "p", "--constraints", "a", "--solver-options", "o"],
    ],
    ids=["missing-prior", "instance-seed-past-64-bits", "unread-solver-option"],
)
def test_dump_config_is_not_written_when_inputs_are_rejected(files, argv):
    # Each run exits 2 on its inputs; it leaves no config behind to replay.
    tmp, write = files
    named = {
        "p": write("p.json", PRIOR),
        "a": write("a.json", CONSTRAINTS_EQ),
        "o": write("o.json", {"equiv_tol": 0.5}),
    }
    argv = [named.get(arg, arg) for arg in argv]
    dump = tmp / "dc.json"
    assert main([*argv, "--output", str(tmp / "r"), "--dump-config", str(dump)]) == 2
    assert not dump.exists()


@pytest.mark.parametrize(
    "constraints, opts, code",
    [
        (CONSTRAINTS_EQ, {}, 0),
        ({**CONSTRAINTS_EQ, "targets": [1.5]}, {}, 3),
        (CONSTRAINTS_EQ, {"max_iter": 1}, 6),  # the budget runs out inside
    ],
    ids=["converged", "infeasible", "not-converged"],
)
def test_dump_config_is_written_once_the_command_ran(files, constraints, opts, code):
    # A verdict or a solver that stops short is a run on accepted inputs.
    tmp, write = files
    argv = ["project", "--prior", write("p.json", PRIOR)]
    argv += ["--constraints", write("a.json", constraints)]
    argv += ["--solver-options", write("o.json", opts)]
    dump = tmp / "dc.json"
    assert main([*argv, "--output", str(tmp / "r"), "--dump-config", str(dump)]) == code
    assert json.loads(dump.read_text())["command"] == "project"


def test_config_booleans_follow_flag_precedence(files):
    tmp, write = files
    base = ["project", "--prior", write("p.json", PRIOR)]
    base += ["--constraints", write("a.json", CONSTRAINTS_EQ)]
    for config, flags, traced in (
        ({"trace": True}, [], True),
        ({"trace": False}, [], False),
        ({"trace": None}, [], False),
        ({"trace": False}, ["--trace"], True),
    ):
        out = tmp / "r.json"
        cfg = write("c.json", config)
        assert main(base + ["--config", cfg, "--output", str(out)] + flags) == 0
        assert ("trace" in json.loads(out.read_text())) is traced


def test_trace_flag_wins_over_solver_options_file(files):
    tmp, write = files
    base = ["project", "--prior", write("p.json", PRIOR)]
    base += ["--constraints", write("a.json", CONSTRAINTS_EQ)]
    for opts, flags, traced in (
        ({"trace": False, "max_iter": 50}, ["--trace"], True),
        ({"trace": True}, [], True),
        ({"max_iter": 50}, [], False),
    ):
        out = tmp / "r.json"
        opts_path = write("o.json", opts)
        code = main(base + ["--solver-options", opts_path, "--output", str(out)] + flags)
        assert code == 0
        assert ("trace" in json.loads(out.read_text())) is traced


@pytest.mark.parametrize(
    "config, named",
    [
        ({"params": {"n": 10}}, "'params'"),
        ({"config": "other.json"}, "'config'"),
        ({"dump_config": "other.json"}, "'dump_config'"),
        ({"func": "cmd_fit"}, "'func'"),
        ({"command": "project"}, "'command'"),
        ({"monte_carlo": "yes"}, "'monte_carlo'"),
        ({"monte_carlo": 1}, "'monte_carlo'"),
        ({"n": [10, 20]}, "'n'"),
        ({"n": True}, "'n'"),
    ],
)
def test_bad_config_key_or_value_exits_2(files, capsys, config, named):
    tmp, write = files
    code = main(
        [
            "sanov",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_GE),
            "--config",
            write("c.json", config),
            "--output",
            str(tmp / "s.json"),
        ]
    )
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp / "s.json").exists()


def test_config_value_goes_through_the_parser_type_check(files, capsys):
    tmp, write = files
    argv = ["sanov", "--config", write("c.json", {"command": "sanov", "n": "ten"})]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--n: invalid int value: 'ten'" in capsys.readouterr().err
    proc = subprocess.run(
        [sys.executable, "-m", "maxentlab", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "--n" in proc.stderr


@pytest.mark.parametrize(
    "opts", [{"max_iter": "5"}, {"moment_tol": -1}, {"seed": 3}]
)
def test_bad_solver_options_exit_2(files, capsys, opts):
    tmp, write = files
    code = main(
        [
            "project",
            "--prior",
            write("p.json", PRIOR),
            "--constraints",
            write("a.json", CONSTRAINTS_EQ),
            "--solver-options",
            write("o.json", opts),
        ]
    )
    assert code == 2
    assert next(iter(opts)) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, opts, code",
    [
        ("project", {"equiv_tol": 0.5}, 2),
        ("diagnose", {"trace": True}, 2),
        ("diagnose", {"equiv_tol": 0.5}, 2),
        ("fit", {"trace": True, "max_iter": 50}, 0),
        ("fit", {"equiv_tol": 0.5}, 2),
        ("diagnose", {"trace": False, "max_iter": 50}, 0),
    ],
)
def test_solver_options_a_command_does_not_read_exit_2(
    files, capsys, command, opts, code
):
    # diagnose writes no trace: turning it on is an input error that names
    # the field and the command, and "trace": false asks for what diagnose
    # does.  project and fit read every field.  equiv_tol is no field (fit's
    # prescriptions agree within a fixed 1e-6), so every command refuses it.
    tmp, write = files
    if command == "project":
        inputs = ["--constraints", write("a.json", CONSTRAINTS_EQ)]
    else:
        data = write("d.json", {"outcomes": ["0", "1"], "probs": [0.3, 0.7]})
        inputs = ["--features", write("f.json", FEATURES), "--data", data]
    out = tmp / "r.json"
    argv = [command, "--prior", write("p.json", PRIOR), *inputs]
    argv += ["--solver-options", write("o.json", opts), "--output", str(out)]
    assert main(argv) == code
    if code == 2:
        message = {
            "equiv_tol": "unknown fields ['equiv_tol']",
            "trace": "trace would be ignored by diagnose",
        }[next(iter(opts))]
        assert message in capsys.readouterr().err
        assert not out.exists()
    elif command == "fit":
        report = json.loads(out.read_text())
        assert report["equivalence_tol"] == 1e-6
        assert report["prescriptions_agree"] == (report["tv_distance"] <= 1e-6)
        assert report["projection"]["trace"] and report["log_loss_fit"]["trace"]


@pytest.mark.parametrize("command, lps", [("project", 1), ("fit", 0)])
def test_equality_solves_run_one_lp_each(files, linprog_calls, command, lps):
    # An equality solve runs at most one feasibility LP, and only when its
    # converged member cannot certify the targets interior: project on a
    # vertex target runs one (exit 4); fit on interior data none.
    tmp, write = files
    argv = [command, "--prior", write("p.json", PRIOR), "--output", str(tmp / "r")]
    if command == "project":
        vertex = {"kinds": ["eq"], "targets": [1.0], "featureset": FEATURES}
        argv += ["--constraints", write("a.json", vertex)]
    else:
        data = {"outcomes": ["0", "1"], "probs": [0.3, 0.7]}
        argv += ["--features", write("f.json", FEATURES), "--data", write("d.json", data)]
    assert main(argv) == (4 if lps else 0)
    assert len(linprog_calls) == lps


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--constraints", "eq"],
        ["project", "--constraints", "ge"],
        ["sanov", "--n", "10", "--constraints", "ge"],
        ["sanov", "--n", "10", "--monte-carlo", "--trials", "100"]
        + ["--constraints", "ge"],
        ["fit", "--features", "f", "--data", "d"],
    ],
    ids=["project-eq", "project-ge", "sanov", "sanov-monte-carlo", "fit"],
)
def test_interior_solves_run_no_lp(files, linprog_calls, argv):
    # The converged member certifies interior targets; no LP runs.
    tmp, write = files
    named = {
        "eq": write("eq.json", CONSTRAINTS_EQ),
        "ge": write("ge.json", CONSTRAINTS_GE),
        "f": write("f.json", FEATURES),
        "d": write("d.json", {"outcomes": ["0", "1"], "probs": [0.3, 0.7]}),
    }
    argv = [named.get(arg, arg) for arg in argv] + ["--prior", write("p.json", PRIOR)]
    assert main(argv + ["--output", str(tmp / "r")]) == 0
    assert linprog_calls == []


def test_one_sided_sanov_runs_one_lp(files, linprog_calls):
    # An event on the boundary (x >= 1 holds only at x = 1) leaves the
    # verdict to the LP: one LP on the whole constraint set, and none on
    # its binding constraints as equalities.
    tmp, write = files
    face = {"kinds": ["ge"], "targets": [1.0], "featureset": FEATURES}
    argv = ["sanov", "--prior", write("p.json", PRIOR), "--n", "10"]
    argv += ["--constraints", write("a.json", face)]
    assert main(argv + ["--output", str(tmp / "r")]) == 4
    assert len(linprog_calls) == 1


@pytest.mark.parametrize(
    "constraints",
    [
        {"kinds": ["eq"], "targets": [3.0], "featureset": THREE_FEATURES},
        {
            "kinds": ["ge", "eq"],
            "targets": [2.5, 0.5],
            "featureset": {"names": ["x", "y"], "matrix": [[0, 1, 2], [1, 0, 1]]},
        },
    ],
    ids=["eq", "ge-eq"],
)
def test_infeasible_project_runs_no_lp(
    files, monkeypatch, linprog_calls, constraints
):
    # The dual floor refutes the targets inside the descent: no LP runs,
    # and the bytes are those of the solve whose verdict LP decides.
    from maxentlab import projection

    tmp, write = files
    prior3 = {"outcomes": ["0", "1", "2"], "probs": [1 / 3, 1 / 3, 1 / 3]}
    argv = ["project", "--prior", write("p.json", prior3)]
    argv += ["--constraints", write("a.json", constraints)]
    assert main([*argv, "--output", str(tmp / "floor.json")]) == 3
    assert linprog_calls == []
    monkeypatch.setattr(projection, "_below_dual_floor", lambda *args: False)
    assert main([*argv, "--output", str(tmp / "lp.json")]) == 3
    assert len(linprog_calls) == 1
    assert (tmp / "floor.json").read_text() == (tmp / "lp.json").read_text()


def test_infeasible_monte_carlo_sanov_runs_no_lp(files, linprog_calls):
    # The rate projection of an event past the polytope is refuted by the
    # dual floor: exit 3, as the verdict LP would give, with no LP.
    tmp, write = files
    beyond = {"kinds": ["ge"], "targets": [1.5], "featureset": FEATURES}
    argv = ["sanov", "--prior", write("p.json", PRIOR), "--n", "10"]
    argv += ["--constraints", write("a.json", beyond), "--monte-carlo"]
    argv += ["--trials", "100", "--output", str(tmp / "r")]
    assert main(argv) == 3
    assert linprog_calls == []
    report = json.loads((tmp / "r").read_text())
    assert report["projection"]["status"] == "infeasible"


def test_fit_runs_no_lp_when_data_miss_an_outcome(files, linprog_calls):
    # Data with an empty outcome cannot certify an interior target, but the
    # converged members of the projection and the log-loss fit do.
    tmp, write = files
    prior = {"outcomes": ["0", "1", "2"], "probs": [0.2, 0.3, 0.5]}
    data = {"outcomes": ["0", "1", "2"], "probs": [0.5, 0.5, 0.0]}
    out = tmp / "r"
    argv = [
        "fit",
        "--prior",
        write("p.json", prior),
        "--features",
        write("f.json", THREE_FEATURES),
        "--data",
        write("d.json", data),
        "--output",
        str(out),
    ]
    assert main(argv) == 0
    assert linprog_calls == []
    report = json.loads(out.read_text())
    assert report["projection"]["status"] == "converged"
    assert report["prescriptions_agree"]


@pytest.mark.parametrize(
    "data, code, fit_certificates, fit_lps",
    [
        ([0.5, 0.3, 0.2], 0, 0, 0),  # interior: one verdict serves both halves
        ([0.5, 0.5, 0.0], 0, 0, 0),  # interior, certified by the member only
        ([0.0, 0.0, 1.0], 4, 2, 1),  # boundary: the log-loss half decides again
    ],
    ids=["interior", "missing-outcome", "boundary"],
)
def test_fit_certifies_the_targets_once(
    files, monkeypatch, linprog_calls, data, code, fit_certificates, fit_lps
):
    from maxentlab import cli, projection

    tmp, write = files
    prior = {"outcomes": ["0", "1", "2"], "probs": [0.2, 0.3, 0.5]}
    argv = ["fit", "--prior", write("p.json", prior)]
    argv += ["--features", write("f.json", THREE_FEATURES)]
    argv += ["--data", write("d.json", {"outcomes": ["0", "1", "2"], "probs": data})]
    certificates = []
    certify, fit = projection._certifies_interior, cli.fit_log_loss
    in_fit = []

    def recorded(*args):
        certificates.append(bool(in_fit))
        return certify(*args)

    def marked(*args, **kwargs):
        in_fit.append(len(linprog_calls))
        return fit(*args, **kwargs)

    monkeypatch.setattr(projection, "_certifies_interior", recorded)
    monkeypatch.setattr(cli, "fit_log_loss", marked)
    assert main([*argv, "--output", str(tmp / "once.json")]) == code
    assert certificates[0] is False  # the projection half certifies
    assert certificates.count(True) == fit_certificates
    assert len(linprog_calls) - in_fit[0] == fit_lps

    # The log-loss half certifying on its own gives the same bytes.
    monkeypatch.setattr(
        cli, "fit_log_loss", lambda *args, _interior, **kwargs: fit(*args, **kwargs)
    )
    assert main([*argv, "--output", str(tmp / "twice.json")]) == code
    assert (tmp / "once.json").read_text() == (tmp / "twice.json").read_text()


def test_fit_half_of_cli_fit_forms_no_fisher_matrix(files, monkeypatch):
    from maxentlab import cli, projection

    calls = []
    fisher = projection._covariance
    fit = cli.fit_log_loss

    def counted(matrix, q):
        calls.append("fisher")
        return fisher(matrix, q)

    def marked(*args, **kwargs):
        calls.append("fit")
        result = fit(*args, **kwargs)
        calls.append("fit done")
        return result

    monkeypatch.setattr(projection, "_covariance", counted)
    monkeypatch.setattr(cli, "fit_log_loss", marked)
    tmp, write = files
    data = {"outcomes": ["0", "1"], "probs": [0.3, 0.7]}
    argv = ["fit", "--prior", write("p.json", PRIOR), "--output", str(tmp / "r")]
    argv += ["--features", write("f.json", FEATURES), "--data", write("d.json", data)]
    assert main(argv) == 0
    assert calls[-2:] == ["fit", "fit done"]
    assert "fisher" in calls[:-2]


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["diagnose", "--random"], "instances", -3),
        (["diagnose", "--random", "--instances", "1"], "threads", 0),
        (["entropy-approx", "--alphabet-size", "5"], "n", ","),
        (["entropy-approx", "--alphabet-size", "5", "--n", "10"], "trials", 0),
        (["sanov", "--n", "10", "--monte-carlo"], "trials", 0),
        (["sanov", "--n", "10"], "cap", 0),
        (["sanov", "--n", "10"], "cap", -5),
    ],
)
def test_count_option_out_of_range_exits_2(files, capsys, route, argv, option, value):
    tmp, write = files
    out = tmp / "out"
    if route == "flag":
        argv = argv + [f"--{option}", str(value)]
    else:
        argv = argv + ["--config", write("c.json", {option: value})]
    try:
        code = main(argv + ["--output", str(out)])
    except SystemExit as exc:  # the parser's own range check
        code = exc.code
    assert code == 2
    assert f"--{option}" in capsys.readouterr().err
    assert not out.exists()


def _seeded(files, route, seed, argv):
    """Run ``argv`` with ``seed`` from the flag or from a config file: the
    exit code (the parser's own range check exits 2) and the output, if
    one was written."""
    tmp, write = files
    out = tmp / "out"
    if route == "flag":
        argv = argv + [f"--seed={seed}"]
    else:
        argv = argv + ["--config", write("c.json", {"seed": seed})]
    try:
        code = main(argv + ["--output", str(out)])
    except SystemExit as exc:
        code = exc.code
    return code, out.read_text() if out.exists() else None


ENTROPY_APPROX = [
    "entropy-approx", "--alphabet-size", "5", "--n", "10", "--trials", "2"
]


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_exits_2(files, capsys, route, seed):
    # Such a seed once ran as its value mod 2**64: 2**64 wrote the bytes
    # of seed 0 and -1 those of 2**64 - 1.
    assert _seeded(files, route, seed, ENTROPY_APPROX) == (2, None)
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["flag", "config"])
def test_largest_seed_runs(files, route):
    code, text = _seeded(files, route, 2**64 - 1, ENTROPY_APPROX)
    assert code == 0
    assert text != _seeded(files, route, 0, ENTROPY_APPROX)[1]


@pytest.mark.parametrize(
    "instances, seed",
    [(["--instances", "2"], 2**64 - 1), ([], 2**64 - 99)],  # the default 100
)
def test_diagnose_instance_seeds_past_64_bits_exit_2(files, capsys, instances, seed):
    # Instance i runs at seed + i, so the last instance's seed must fit.
    argv = ["diagnose", "--random", *instances]
    assert _seeded(files, "flag", seed, argv) == (2, None)
    assert "2**64 - 1" in capsys.readouterr().err


def test_diagnose_last_instance_at_the_largest_seed_runs(files):
    argv = ["diagnose", "--random", "--instances", "2"]
    assert _seeded(files, "flag", 2**64 - 2, argv)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy-approx", "--alphabet-size", "5", "--n", "x..10"],
        ["entropy-approx", "--alphabet-size", "5", "--n", "10..y"],
        ["entropy-approx", "--alphabet-size", "5", "--n", "10,y"],
        ["entropy-approx", "--alphabet-size", "5", "--n", "0,10"],
        ["sanov", "--n", "4", "--monte-carlo", "--curve", "0,10"],
    ],
)
def test_bad_n_grid_exits_2(files, capsys, argv):
    tmp, write = files
    if argv[0] == "sanov":
        argv = argv + ["--prior", write("p.json", PRIOR)]
        argv += ["--constraints", write("a.json", CONSTRAINTS_GE)]
    out = tmp / "out"
    assert main(argv + ["--output", str(out)]) == 2
    assert "bad n grid" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_option_exits_2(files, capsys):
    tmp, write = files
    code = main(["project", "--prior", write("p.json", PRIOR)])
    assert code == 2
    assert "--constraints" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "maxentlab", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "entropy-approx" in proc.stdout


# Runs one statement in a fresh interpreter, then prints, as its last line,
# the scipy modules the interpreter has loaded.
_SCIPY_PROBE = """
import json, sys
{statement}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
_RUN_MAIN = "from maxentlab.cli import main\nassert main(sys.argv[1:]) == 0"
_RUN_MAIN_BOUNDARY = _RUN_MAIN.replace("== 0", "== 4")
_RUN_MAIN_INFEASIBLE = _RUN_MAIN.replace("== 0", "== 3")


@pytest.mark.parametrize(
    "statement, argv, loads, avoids",
    [
        ("import maxentlab", [], [], ["scipy"]),
        ("import maxentlab.cli", [], [], ["scipy"]),
        (_RUN_MAIN, ["fit"], [], ["scipy"]),
        (_RUN_MAIN, ["entropy-approx"], ["scipy.special"], ["scipy.optimize"]),
        (_RUN_MAIN_BOUNDARY, ["project"], ["scipy.optimize"], []),
        (_RUN_MAIN, ["project-interior"], [], ["scipy"]),
        (_RUN_MAIN_INFEASIBLE, ["project-infeasible"], [], ["scipy"]),
        (_RUN_MAIN, ["sanov"], ["scipy.special"], ["scipy.optimize"]),
        (_RUN_MAIN, ["sanov-monte-carlo"], [], ["scipy"]),
        (_RUN_MAIN, ["diagnose-random"], [], ["scipy"]),
        (_RUN_MAIN, ["diagnose-files"], [], ["scipy"]),
    ],
    ids=[
        "import",
        "import-cli",
        "fit-full-support",
        "entropy-approx",
        "project",
        "project-interior",
        "project-infeasible",
        "sanov",
        "sanov-monte-carlo",
        "diagnose-random",
        "diagnose-files",
    ],
)
def test_scipy_is_imported_on_first_use(files, statement, argv, loads, avoids):
    # Importing the package loads no scipy; a command loads the scipy
    # modules its computation calls and no others.  The boundary project
    # case, whose verdict needs the LP, shows that the probe sees scipy
    # when it is loaded; the infeasible one, refuted by the dual floor,
    # runs no LP.  diagnose solves its energy-matching roots in the package
    # and projects interior targets without the LP.
    tmp, write = files
    prior = write("p.json", PRIOR)
    features = write("f.json", FEATURES)
    data = write("d.json", {"outcomes": ["0", "1"], "probs": [0.3, 0.7]})
    at_least = write("g.json", CONSTRAINTS_GE)
    vertex = {"kinds": ["eq"], "targets": [1.0], "featureset": FEATURES}
    command_args = {
        "fit": ["--prior", prior, "--features", features, "--data", data],
        "entropy-approx": ["--alphabet-size", "5", "--n", "10", "--trials", "2"],
        "project": ["--prior", prior, "--constraints", write("v.json", vertex)],
        "project-interior": ["--prior", prior]
        + ["--constraints", write("a.json", CONSTRAINTS_EQ)],
        "project-infeasible": ["--prior", prior]
        + ["--constraints", write("b.json", {**CONSTRAINTS_EQ, "targets": [1.5]})],
        "sanov": ["--prior", prior, "--n", "10", "--constraints", at_least],
        "sanov-monte-carlo": ["--prior", prior, "--n", "10", "--constraints", at_least]
        + ["--monte-carlo", "--trials", "100"],
        "diagnose-random": ["--random", "--instances", "2"],
        "diagnose-files": ["--prior", prior, "--features", features, "--data", data],
    }
    if argv:
        command = argv[0]
        for case in ("-interior", "-infeasible", "-monte-carlo", "-random", "-files"):
            command = command.removesuffix(case)
        argv = [command] + command_args[argv[0]] + ["--output", str(tmp / "out")]
    code = _SCIPY_PROBE.replace("{statement}", statement)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert set(loads) <= loaded
    assert not loaded & set(avoids)
