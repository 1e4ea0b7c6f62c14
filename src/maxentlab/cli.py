"""Command-line front end.

Subcommands: ``entropy-approx``, ``project``, ``fit``, ``diagnose``,
``sanov``.  Global flags: ``--seed``, ``--threads``, ``--output``,
``--config``, ``--dump-config``.  Option precedence is flags over config
file over defaults; a ``--dump-config`` file is a valid ``--config`` file.

Exit codes: 0 ok, 2 input error, 3 infeasible, 4 boundary non-attainment,
5 identity failure, 6 solver did not converge.

All randomness flows from the single seed through named sub-streams, and
outputs are written atomically, so a run is reproducible byte-for-byte
from its configuration alone, at any thread count.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import identities as ident
from . import multinomial as mn
from . import sanov as sv
from ._rng import MAX_SEED
from .dist import (
    ConstraintSet,
    EmpiricalMeasure,
    FeatureSet,
    FiniteDistribution,
    _float_array,
    _json_numbers,
    _require_keys,
    moments,
    total_variation,
)
from .errors import ConvergenceError, InputError, MaxentError
from .expfam import ExpFamModel
from .jsonio import _read_text, atomic_write_text, dump_json, load_json
from .projection import SolverOptions, Status, fit_log_loss, project_inequality

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_BOUNDARY = 4
EXIT_IDENTITY = 5
EXIT_CONVERGENCE = 6

# ``fit``'s two prescriptions agree when their fits are this close in total
# variation.
EQUIVALENCE_TOL = 1e-6

_STATUS_EXIT = {
    Status.CONVERGED: EXIT_OK,
    Status.INFEASIBLE: EXIT_INFEASIBLE,
    Status.BOUNDARY_NONATTAINED: EXIT_BOUNDARY,
}


def _require_args(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise InputError(
            "missing required option(s): " + ", ".join(f"--{n}" for n in missing)
        )


def _reject_args(args, names, reason: str) -> None:
    """Reject the options among ``names`` that are set, as ignored ``reason``."""
    given = [f"--{n}" for n in names if getattr(args, n.replace("-", "_")) is not None]
    if given:
        raise InputError(f"{', '.join(given)} would be ignored {reason}")


def _parse_n_grid(text: str, option: str) -> list[int]:
    """Comma list (``5000,10000``) or doubling span (``5000..80000``) given
    to ``option``; an empty list or an entry below 1 is an error."""
    text = text.strip()
    try:
        if ".." not in text:
            grid = [int(tok) for tok in text.split(",") if tok.strip()]
            if not grid:
                raise InputError(f"{option}: empty n grid {text!r}")
            if min(grid) < 1:
                raise InputError(f"{option}: bad n grid {text!r}")
            return grid
        lo, hi = (int(tok) for tok in text.split("..", 1))
    except ValueError as exc:
        raise InputError(f"{option}: bad n grid {text!r}") from exc
    if lo < 1 or hi < lo:
        raise InputError(f"{option}: bad n range {text!r}")
    grid = []
    while lo <= hi:
        grid.append(lo)
        lo *= 2
    return grid


def _int_value(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """Parser type of a count option: an integer of at least 1."""
    value = _int_value(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    """Parser type of ``--seed``: an integer in 0..2**64 - 1, the random
    streams' domain, checked here so that the error names the option."""
    value = _int_value(text)
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"must be in 0..2**64 - 1, got {value}")
    return value


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def _load(cls, path: str):
    """An instance of ``cls`` from the JSON file at ``path``."""
    return cls.from_json(load_json(path))


def _solver_options(args) -> SolverOptions:
    """The ``--solver-options`` file's settings, or the defaults; the
    ``--trace`` flag wins over the file's ``trace``."""
    opts = SolverOptions()
    if args.solver_options is not None:
        opts = SolverOptions.from_json(load_json(args.solver_options))
    if getattr(args, "trace", False):
        opts = replace(opts, trace=True)
    return opts


def cmd_entropy_approx(args) -> int:
    _require_args(args, "alphabet-size", "n")
    grid = _parse_n_grid(args.n, "--n")
    rows = mn.entropy_approx_experiment(
        alphabet_size=args.alphabet_size,
        n_grid=grid,
        prior_mode=args.prior,
        trials=args.trials,
        seed=args.seed,
        threads=args.threads,
    )
    _emit(args.output, mn.experiment_csv(rows))
    # Imported here: statistics loads fractions and decimal, about 4 ms of
    # every command's start.
    import statistics

    for n in grid:
        cell = [r for r in rows if r.n == n]
        med0 = statistics.median(abs(r.err_zeroth) for r in cell)
        med1 = statistics.median(abs(r.err_first) for r in cell)
        print(
            f"n={n}: median |err| zeroth={med0:.6g} first={med1:.6g} "
            f"({len(cell)} trials)"
        )
    return EXIT_OK


def cmd_project(args) -> int:
    _require_args(args, "prior", "constraints")
    prior = _load(FiniteDistribution, args.prior)
    constraints = _load(ConstraintSet, args.constraints)
    opts = _solver_options(args)
    result = project_inequality(prior, constraints, opts)
    _emit(args.output, dump_json(result.to_json()))
    return _STATUS_EXIT[result.status]


def cmd_fit(args) -> int:
    _require_args(args, "prior", "features")
    prior = _load(FiniteDistribution, args.prior)
    features = _load(FeatureSet, args.features)
    if (args.samples is None) == (args.data is None):
        raise InputError("provide exactly one of --samples or --data")
    if args.samples is not None:
        text = _read_text(args.samples)
        labels = list(filter(None, map(str.strip, text.splitlines())))
        if not labels:
            raise InputError(f"{args.samples}: no samples found")
        measure = EmpiricalMeasure.from_labels(prior.outcomes, labels)
        data = measure.to_distribution(prior.outcomes)
        sample_count = measure.n
    else:
        data = _load(FiniteDistribution, args.data)
        sample_count = None
    opts = _solver_options(args)
    projected = ident._project_to_moments(prior, features, data, opts)
    # Both halves solve one equality set on one prior: a converged
    # projection has shown the targets interior for the log-loss half too.
    interior = projected.status is Status.CONVERGED
    fitted = fit_log_loss(prior, features, data, opts, _interior=interior)
    tv = total_variation(
        projected.model.to_distribution(), fitted.model.to_distribution()
    )
    report = {
        "alpha": moments(data, features).tolist(),
        "sample_count": sample_count,
        "projection": projected.to_json(),
        "log_loss_fit": fitted.to_json(),
        "tv_distance": tv,
        "equivalence_tol": EQUIVALENCE_TOL,
        "prescriptions_agree": bool(tv <= EQUIVALENCE_TOL),
    }
    _emit(args.output, dump_json(report))
    return max(_STATUS_EXIT[projected.status], _STATUS_EXIT[fitted.status])


def _diagnose_from_files(args, opts: SolverOptions):
    prior = _load(FiniteDistribution, args.prior)
    features = _load(FeatureSet, args.features)
    data = _load(FiniteDistribution, args.data)
    lam = np.zeros(features.dim)
    if args.model_lambda is not None:
        obj = load_json(args.model_lambda)
        if not isinstance(obj, list):
            raise InputError(f"{args.model_lambda}: expected a JSON array")
        lam = _float_array(_json_numbers(obj, "--model-lambda"), "--model-lambda")
    model = ExpFamModel(prior, features, lam)
    star = ident._project_to_moments(prior, features, data, opts)
    reports = [
        ident.pythagorean(data, star, model),
        ident.robustness(data, star.model, model),
        ident.approximation_error_entropy(data, star),
        ident.pretend_data_identity(data, star, model),
    ]
    descriptor = {
        "mode": "files",
        "alphabet_size": len(prior),
        "num_features": features.dim,
    }
    return descriptor, reports


def cmd_diagnose(args) -> int:
    if args.random:
        inputs = ("prior", "features", "data", "model-lambda", "solver-options")
        _reject_args(args, inputs, "by diagnose --random, which draws its instances")
        suite = ident.run_identity_suite(args.instances or 100, seed=args.seed)
        suite = [(descriptor.to_json(), reports) for descriptor, reports in suite]
    else:
        _reject_args(args, ("instances",), "without --random")
        for name in ("prior", "features", "data"):
            if getattr(args, name) is None:
                raise InputError(
                    "diagnose needs --random or --prior/--features/--data"
                )
        opts = _solver_options(args)
        if opts.trace:
            raise InputError("solver options: trace would be ignored by diagnose")
        suite = [_diagnose_from_files(args, opts)]
    blocks = []
    failures = []
    for descriptor, reports in suite:
        blocks.append(
            {"instance": descriptor, "reports": [r.to_json() for r in reports]}
        )
        failures.extend(r.name for r in reports if not r.passed)
    out = {"instances": blocks, "failures": failures, "all_pass": not failures}
    _emit(args.output, dump_json(out))
    if failures:
        print(f"identity failures: {sorted(set(failures))}", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def _curve_path(args) -> str:
    """The file that ``sanov --curve`` writes its CSV to."""
    return args.curve_output or (args.output or "sanov") + ".curve.csv"


def _reject_shared_outputs(args) -> None:
    """Reject a run two of whose output files resolve to one file, where
    the later write would replace the earlier."""
    outputs = {"--output": args.output, "--dump-config": args.dump_config}
    if getattr(args, "curve", None) is not None:
        outputs["the --curve CSV"] = _curve_path(args)
    given = {option: path for option, path in outputs.items() if path is not None}
    if len(given) < 2:  # nothing to compare: spare realpath's file-system reads
        return
    seen = {}
    for option, path in given.items():
        key = os.path.realpath(path)
        if key in seen:
            raise InputError(f"{seen[key]} and {option} would both write {path}")
        seen[key] = option


def cmd_sanov(args) -> int:
    _require_args(args, "prior", "constraints", "n")
    prior = _load(FiniteDistribution, args.prior)
    constraints = _load(ConstraintSet, args.constraints)
    inner = None if args.nested is None else _load(ConstraintSet, args.nested)
    # Every enumeration the command will run is checked against the cap
    # before any of them starts; a Monte Carlo report alone needs no count.
    cap = sv.DEFAULT_ENUMERATION_CAP if args.cap is None else args.cap
    k = len(prior)
    if args.n < 1:  # the library's rule, ahead of the count, which takes n = 0
        raise InputError("sample size must be at least 1")
    if not args.monte_carlo:
        sv._check_cap(args.n, k, cap, "; pass --monte-carlo to estimate instead")
    elif args.nested is not None:
        sv._check_cap(args.n, k, cap, " (--nested)")
    n_list = _parse_n_grid(args.curve, "--curve") if args.curve is not None else []
    if n_list:
        sv._check_cap(max(n_list), k, cap, " (--curve)")
    if args.curve is None:
        _reject_args(args, ("curve-output",), "without --curve")
    if not args.monte_carlo:
        _reject_args(args, ("trials",), "without --monte-carlo")
    elif args.nested is None and args.curve is None:
        _reject_args(args, ("cap",), "by --monte-carlo without --nested or --curve")
    if args.monte_carlo:
        report = sv.monte_carlo_event(
            prior,
            constraints,
            args.n,
            trials=20 if args.trials is None else args.trials,
            seed=args.seed,
            threads=args.threads,
        )
        nested = None if inner is None else sv.nested_relative_probability(
            prior, constraints, inner, args.n, cap=cap, projection=report.projection
        )
    else:  # one table serves the report and the nested check
        report, nested = sv._exact_reports(prior, constraints, args.n, cap, None, inner)
    out = report.to_json()
    if nested is not None:
        out["nested"] = nested.to_json()
    if args.curve is not None:
        # An exact report is the curve's row at its own n: the same table,
        # law and projection.
        curve = [
            report
            if m == args.n and not args.monte_carlo
            else sv.enumerate_event(
                prior, constraints, m, cap=cap, projection=report.projection
            )
            for m in n_list
        ]
        atomic_write_text(_curve_path(args), sv.gibbs_curve_csv(curve))
    _emit(args.output, dump_json(out))
    if report.empty_event and report.method is sv.Method.EXACT:
        return EXIT_OK
    return _STATUS_EXIT[report.projection.status]


@functools.cache  # one parser per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentlab",
        description=(
            "Exact probability calculations, information projections, and "
            "identity diagnostics over finite outcome spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--seed", type=_seed, default=0, help="master seed, 0..2**64 - 1"
        )
        p.add_argument(
            "--threads",
            type=_count,
            default=1,
            help="worker threads (results identical)",
        )
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.add_argument(
            "--config", default=None, help="JSON object of option values; flags win"
        )
        p.add_argument(
            "--dump-config",
            default=None,
            help="write the resolved options to this file, as a --config file",
        )

    p = sub.add_parser("entropy-approx", help="Stirling accuracy experiment")
    add_common(p)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--n", default=None, help="comma list or doubling span a..b")
    p.add_argument("--trials", type=_count, default=20)
    p.add_argument(
        "--prior",
        choices=[m.value for m in mn.PriorMode],
        default=mn.PriorMode.DIRICHLET1.value,
        help="distribution prior for sampled P",
    )
    p.set_defaults(func=cmd_entropy_approx)

    p = sub.add_parser("project", help="information projection onto constraints")
    add_common(p)
    p.add_argument("--prior", default=None, help="distribution JSON file")
    p.add_argument("--constraints", default=None, help="constraint-set JSON file")
    p.add_argument("--solver-options", default=None, help="solver options JSON file")
    p.add_argument("--trace", action="store_true", help="record per-iteration trace")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("fit", help="fit by log loss and by projection; compare")
    add_common(p)
    p.add_argument("--prior", default=None)
    p.add_argument("--features", default=None)
    p.add_argument("--samples", default=None, help="newline-delimited outcome labels")
    p.add_argument("--data", default=None, help="explicit empirical distribution JSON")
    p.add_argument("--solver-options", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnose", help="run the identity diagnostics suite")
    add_common(p)
    p.add_argument("--random", action="store_true", help="seeded random instances")
    p.add_argument("--instances", type=_count, default=None)  # --random: 100
    p.add_argument("--prior", default=None)
    p.add_argument("--features", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--model-lambda", default=None, help="JSON array of parameters")
    p.add_argument("--solver-options", default=None)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("sanov", help="exact or Monte Carlo event analysis")
    add_common(p)
    p.add_argument("--prior", default=None, help="sampling distribution JSON file")
    p.add_argument("--constraints", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--cap", type=_count, default=None)  # enumerations: 2e6
    p.add_argument("--monte-carlo", action="store_true")
    p.add_argument("--trials", type=_count, default=None)  # --monte-carlo: 20
    p.add_argument("--nested", default=None, help="inner constraint-set JSON file")
    p.add_argument("--curve", default=None, help="n grid for the conditioning curve")
    p.add_argument(
        "--curve-output",
        default=None,
        help="curve CSV file (default: <--output>.curve.csv, or "
        "sanov.curve.csv when writing to stdout)",
    )
    p.set_defaults(func=cmd_sanov)
    return parser


# Namespace entries that are not run options: never dumped, never set by
# a config file.
_NOT_OPTIONS = {"func", "config", "dump_config"}


def _config_tokens(args) -> list[str]:
    """The ``--config`` file, a flat object of option values keyed by
    option name, as the option tokens that set those values.

    ``true`` is a bare flag; ``false`` and ``null`` set nothing.  A
    ``command`` key must name ``args.command``.
    """
    config = load_json(args.config)
    _require_keys(config, (), "config")
    tokens = []
    for key, value in config.items():
        dest = key.replace("-", "_")
        flag = "--" + dest.replace("_", "-")
        if key == "command":
            if value != args.command:
                raise InputError(f"config: 'command' is {value!r}, not {args.command!r}")
        elif dest not in vars(args) or dest in _NOT_OPTIONS:
            raise InputError(f"config: {key!r} is not an option of {args.command}")
        elif isinstance(getattr(args, dest), bool):  # a store_true flag
            if not (value is None or isinstance(value, bool)):
                raise InputError(f"config: {key!r} takes true, false or null")
            if value:
                tokens.append(flag)
        elif value is not None:
            if isinstance(value, (bool, list, dict)):
                raise InputError(f"config: {key!r} takes a number or a string")
            tokens.append(f"{flag}={value}")
    return tokens


def _dump_config(args) -> None:
    """Write the resolved options to the ``--dump-config`` file, if any.
    :func:`main` calls it once the command has run on accepted inputs, so
    a run that exits 2 leaves no config behind."""
    if args.dump_config is not None:
        resolved = {
            k: v
            for k, v in vars(args).items()
            if k not in _NOT_OPTIONS and v is not None
        }
        atomic_write_text(args.dump_config, dump_json(resolved))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # The config's options parse ahead of the command line's, so
            # flags win.
            args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        _reject_shared_outputs(args)
        try:
            code = args.func(args)
        except ConvergenceError:  # the inputs were accepted
            _dump_config(args)
            raise
        _dump_config(args)
        return code
    except MaxentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError):
            return EXIT_CONVERGENCE
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
