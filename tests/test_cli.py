"""Command-line interface: exit codes, schemas, and determinism."""

import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_diagnose_identity_failure_exits_5(files, capsys):
    # At lambda = 800 the model's probabilities of a and b underflow to 0,
    # where the data put mass: both sides of three identities are infinite
    # and their residuals inf - inf fail.
    tmp, write = files
    prior = {"outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}
    data = {"outcomes": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]}
    out = tmp / "diag.json"
    argv = ["diagnose", "--prior", write("p.json", prior), "--output", str(out)]
    argv += ["--features", write("f.json", {"names": ["f"], "matrix": [[0, 1, 2]]})]
    argv += ["--data", write("d.json", data)]
    argv += ["--model-lambda", write("lam.json", [800.0])]
    assert main(argv) == 5
    assert (
        "identity failures: ['pretend_data_identity', 'pythagorean', 'robustness']"
        in capsys.readouterr().err
    )
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    failed = [r for r in report["instances"][0]["reports"] if not r["pass"]]
    assert all(r["lhs"] == r["rhs"] == math.inf for r in failed)
    assert all(math.isnan(r["residual"]) for r in failed)


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
    "n, extra", [("-5", []), ("-5", ["--monte-carlo"]), ("0", ["--monte-carlo"])]
)
def test_sanov_bad_sample_size_is_input_error(files, capsys, n, extra):
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
    assert "sample size" in capsys.readouterr().err
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
    from maxentlab import cli, sanov

    calls = []
    solve = sanov.project_inequality

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "project_inequality", counted)
    monkeypatch.setattr(sanov, "project_inequality", counted)
    tmp, write = files
    if "inner" in extra:
        extra[extra.index("inner")] = write("b.json", CONSTRAINTS_GE9)
    if "--curve" in extra:
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
def test_infeasible_project_runs_one_lp(files, linprog_calls, constraints):
    # The verdict LP alone decides an infeasible solve; no separating
    # witness is computed for it.
    tmp, write = files
    prior3 = {"outcomes": ["0", "1", "2"], "probs": [1 / 3, 1 / 3, 1 / 3]}
    argv = ["project", "--prior", write("p.json", prior3), "--output", str(tmp / "r")]
    argv += ["--constraints", write("a.json", constraints)]
    assert main(argv) == 3
    assert len(linprog_calls) == 1


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


@pytest.mark.parametrize(
    "statement, argv, loads, avoids",
    [
        ("import maxentlab", [], [], ["scipy"]),
        ("import maxentlab.cli", [], [], ["scipy"]),
        (_RUN_MAIN, ["fit"], [], ["scipy"]),
        (_RUN_MAIN, ["entropy-approx"], ["scipy.special"], ["scipy.optimize"]),
        (_RUN_MAIN_BOUNDARY, ["project"], ["scipy.optimize"], []),
        (_RUN_MAIN, ["project-interior"], [], ["scipy"]),
        (_RUN_MAIN, ["sanov"], ["scipy.special"], ["scipy.optimize"]),
    ],
    ids=[
        "import",
        "import-cli",
        "fit-full-support",
        "entropy-approx",
        "project",
        "project-interior",
        "sanov",
    ],
)
def test_scipy_is_imported_on_first_use(files, statement, argv, loads, avoids):
    # Importing the package loads no scipy; a command loads the scipy
    # modules its computation calls and no others.  The boundary project
    # case, whose verdict needs the LP, shows that the probe sees scipy
    # when it is loaded.
    tmp, write = files
    prior = write("p.json", PRIOR)
    vertex = {"kinds": ["eq"], "targets": [1.0], "featureset": FEATURES}
    command_args = {
        "fit": ["--prior", prior, "--features", write("f.json", FEATURES)]
        + ["--data", write("d.json", {"outcomes": ["0", "1"], "probs": [0.3, 0.7]})],
        "entropy-approx": ["--alphabet-size", "5", "--n", "10", "--trials", "2"],
        "project": ["--prior", prior, "--constraints", write("v.json", vertex)],
        "project-interior": ["--prior", prior]
        + ["--constraints", write("a.json", CONSTRAINTS_EQ)],
        "sanov": ["--prior", prior, "--n", "10"]
        + ["--constraints", write("g.json", CONSTRAINTS_GE)],
    }
    if argv:
        command = argv[0].split("-interior")[0]
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
