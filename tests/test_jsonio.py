"""The output writer on the CLI's own results: every subcommand that writes
JSON exits as expected and writes text that parses, laid out as
``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, holding the
output shape its run is named for."""

import json

import pytest

from maxentlab import cli

PRIOR = {"outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}
RAMP = {"names": ["f"], "matrix": [[0.0, 1.0, 2.0]]}
COIN = {"outcomes": ["0", "1"], "probs": [0.5, 0.5]}
COIN_FEATURE = {"names": ["x"], "matrix": [[0.0, 1.0]]}
# An input file named outside ASCII, one character a surrogate pair: a
# --dump-config file writes its path as \uXXXX escapes.
NON_ASCII_NAME = "prior-äλ\U0001f600"


def _event(featureset, kind, target):
    return {"kinds": [kind], "targets": [target], "featureset": featureset}


# Input files by name; a run's argv names them.
_FILES = {
    "prior": PRIOR,
    NON_ASCII_NAME: PRIOR,
    "ramp": RAMP,
    "data": {"outcomes": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]},
    "ramp-eq": _event(RAMP, "eq", 1.2),
    "ramp-infeasible": _event(RAMP, "eq", 3.0),
    "ramp-ge": _event(RAMP, "ge", 1.6),
    "ramp-empty": _event(RAMP, "ge", 3.0),
    "coin": COIN,
    "coin-eq-095": _event(COIN_FEATURE, "eq", 0.95),
    "lambda": [0.4],
}

# Each run's argv (input names stand for their files, "@name" for a file the
# run writes), its exit code, and a piece of text one of its outputs must
# hold, so the run reaches the shape it is named for.
_RUNS = {
    "project --trace --dump-config": (
        ["project", "--prior", "prior", "--constraints", "ramp-eq", "--trace",
         "--dump-config", "@config.json"],
        0,
        '"trace": [\n    {\n      "dual_value": ',
    ),
    "project --dump-config non-ASCII file name": (
        ["project", "--prior", NON_ASCII_NAME, "--constraints", "ramp-eq",
         "--dump-config", "@config.json"],
        0,
        '-\\u00e4\\u03bb\\ud83d\\ude00.json"',
    ),
    "project infeasible": (
        ["project", "--prior", "prior", "--constraints", "ramp-infeasible"],
        3,
        '"min_divergence": Infinity',
    ),
    "sanov exact": (
        ["sanov", "--prior", "prior", "--constraints", "ramp-ge", "--n", "12"],
        0,
        '"method": "exact-enumeration"',
    ),
    "sanov empty event": (
        ["sanov", "--prior", "prior", "--constraints", "ramp-empty", "--n", "4"],
        0,
        '"log_prob": -Infinity',
    ),
    "sanov Monte Carlo, no hits": (
        ["sanov", "--prior", "coin", "--constraints", "coin-eq-095", "--n", "10",
         "--monte-carlo", "--trials", "200"],
        0,
        '"residual": NaN',
    ),
    "diagnose files": (
        ["diagnose", "--prior", "prior", "--features", "ramp", "--data", "data",
         "--model-lambda", "lambda"],
        0,
        '"mode": "files"',
    ),
    "diagnose --random": (
        ["diagnose", "--random", "--instances", "2"],
        0,
        '"name": "bogoliubov_upper"',
    ),
    "fit --data": (
        ["fit", "--prior", "prior", "--features", "ramp", "--data", "data"],
        0,
        '"log_loss_fit": {',
    ),
}


@pytest.mark.parametrize("name", list(_RUNS))
def test_cli_results_match_the_stdlib(name, tmp_path):
    indir, outdir = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    outdir.mkdir()
    paths = {}
    for key, obj in _FILES.items():
        paths[key] = indir / f"{key}.json"
        paths[key].write_text(json.dumps(obj))
    args, code, shape = _RUNS[name]
    argv = [
        str(outdir / arg[1:]) if arg.startswith("@") else str(paths.get(arg, arg))
        for arg in args
    ]
    assert cli.main([*argv, "--output", str(outdir / "out.json")]) == code
    texts = [path.read_text() for path in sorted(outdir.iterdir())]
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert any(shape in text for text in texts)
