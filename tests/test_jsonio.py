"""The output writer: ``dump_json`` returns the stdlib indenting encoder's
bytes on every input, random trees and the CLI's own results alike."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentlab import cli
from maxentlab.jsonio import _FLAT, dump_json

from oracles import dump_json_reference

_SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1e-05, 1e16, 1.7976931348623157e308, 0.1,
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.dictionaries(st.integers(-5, 5), children, max_size=4),
        st.dictionaries(st.sampled_from(["ä", " ", "\x00", "k"]), children),
    )


trees = st.recursive(scalars, _containers, max_leaves=40)


@st.composite
def deep_trees(draw):
    """A tree wrapped in enough one-item lists and dicts to reach and pass
    the depth of the writer's encoder table."""
    tree = draw(trees)
    for kind in draw(st.lists(st.booleans(), min_size=len(_FLAT) - 2,
                              max_size=len(_FLAT) + 3)):
        tree = {"k": tree} if kind else [tree]
    return tree


@settings(max_examples=400, deadline=None)
@given(trees)
def test_random_trees_match_the_stdlib(tree):
    assert dump_json(tree) == dump_json_reference(tree)


@settings(max_examples=100, deadline=None)
@given(deep_trees())
def test_trees_past_the_encoder_table_match_the_stdlib(tree):
    assert dump_json(tree) == dump_json_reference(tree)


@pytest.mark.parametrize(
    "obj",
    [
        {1: [1.0], "a": 2},  # mixed keys: both sides cannot sort them
        {"s": {1, 2}},  # not serializable
        [np.float32(1.0)],
    ],
)
def test_unwritable_values_raise_as_the_stdlib(obj):
    with pytest.raises(TypeError) as expected:
        dump_json_reference(obj)
    with pytest.raises(TypeError) as raised:
        dump_json(obj)
    assert str(raised.value) == str(expected.value)


def test_circular_reference_raises_as_the_stdlib():
    loop = []
    loop.append({"again": loop})
    with pytest.raises(ValueError, match="Circular reference detected"):
        dump_json(loop)


# Results of the CLI, each run in-process; every object the CLI serializes
# is checked against the reference.
PRIOR = {"outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}
RAMP = {"names": ["f"], "matrix": [[0.0, 1.0, 2.0]]}
NON_ASCII_PRIOR = {"outcomes": ["ä", "λ", "\U0001f600"], "probs": [0.2, 0.3, 0.5]}
COIN = {"outcomes": ["0", "1"], "probs": [0.5, 0.5]}
COIN_FEATURE = {"names": ["x"], "matrix": [[0.0, 1.0]]}


def _event(featureset, kind, target):
    return {"kinds": [kind], "targets": [target], "featureset": featureset}


_FILES = {
    "prior": PRIOR,
    "non-ascii-prior": NON_ASCII_PRIOR,
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
# run writes) and a piece of text its output must hold, so the run reaches
# the shape it is named for.
_RUNS = {
    "project --trace --dump-config": (
        ["project", "--prior", "prior", "--constraints", "ramp-eq", "--trace",
         "--dump-config", "@config.json"],
        '"trace": [\n    {\n      "dual_value": ',
    ),
    "project infeasible": (
        ["project", "--prior", "prior", "--constraints", "ramp-infeasible"],
        '"min_divergence": Infinity',
    ),
    "project non-ASCII labels": (
        ["project", "--prior", "non-ascii-prior", "--constraints", "ramp-eq"],
        '"\\u00e4",\n        "\\u03bb",\n        "\\ud83d\\ude00"\n',
    ),
    "sanov exact": (
        ["sanov", "--prior", "prior", "--constraints", "ramp-ge", "--n", "12"],
        '"method": "exact-enumeration"',
    ),
    "sanov empty event": (
        ["sanov", "--prior", "prior", "--constraints", "ramp-empty", "--n", "4"],
        '"log_prob": -Infinity',
    ),
    "sanov Monte Carlo, no hits": (
        ["sanov", "--prior", "coin", "--constraints", "coin-eq-095", "--n", "10",
         "--monte-carlo", "--trials", "200"],
        '"residual": NaN',
    ),
    "diagnose files": (
        ["diagnose", "--prior", "prior", "--features", "ramp", "--data", "data",
         "--model-lambda", "lambda"],
        '"mode": "files"',
    ),
    "diagnose --random": (
        ["diagnose", "--random", "--instances", "2"],
        '"name": "bogoliubov_upper"',
    ),
    "fit --data": (
        ["fit", "--prior", "prior", "--features", "ramp", "--data", "data"],
        '"log_loss_fit": {',
    ),
}


@pytest.mark.parametrize("name", list(_RUNS))
def test_cli_results_match_the_stdlib(name, tmp_path, monkeypatch):
    written = []

    def recording(obj):
        written.append(obj)
        return dump_json(obj)

    monkeypatch.setattr(cli, "dump_json", recording)
    paths = {}
    for key, obj in _FILES.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(obj))
    args, shape = _RUNS[name]
    argv = [
        str(tmp_path / arg[1:]) if arg.startswith("@") else str(paths.get(arg, arg))
        for arg in args
    ]
    cli.main([*argv, "--output", str(tmp_path / "out.json")])
    assert written
    for obj in written:
        assert dump_json(obj) == dump_json_reference(obj)
    text = (tmp_path / "out.json").read_text()
    assert text == dump_json_reference(written[-1])
    assert shape in text
