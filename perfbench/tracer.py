"""Spans around each layer's public functions, installed from outside.

The tracer replaces a function at every place its name is bound (the
defining module, every module that imported it, the package namespace),
records one span per call on the main thread, and restores the originals
when removed.  Spans are kept in memory; a layer's self time is its
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, qualified attribute).  The span name is
# ``<module>.<function>`` with the package prefix dropped.
TRACED = (
    ("cli.main", "maxentlab.cli", "main"),
    ("jsonio.load_json", "maxentlab.jsonio", "load_json"),
    ("jsonio.atomic_write_text", "maxentlab.jsonio", "atomic_write_text"),
    ("dist.FiniteDistribution", "maxentlab.dist", "FiniteDistribution.__init__"),
    ("dist.EmpiricalMeasure.from_labels", "maxentlab.dist", "EmpiricalMeasure.from_labels"),
    ("expfam.compute_log_partition", "maxentlab.expfam", "compute_log_partition"),
    ("expfam.mean_parameters", "maxentlab.expfam", "mean_parameters"),
    ("expfam.fisher_information", "maxentlab.expfam", "fisher_information"),
    ("projection.check_feasibility", "maxentlab.projection", "check_feasibility"),
    ("projection.project", "maxentlab.projection", "project"),
    ("projection.project_inequality", "maxentlab.projection", "project_inequality"),
    ("projection.fit_log_loss", "maxentlab.projection", "fit_log_loss"),
    ("identities.random_instance", "maxentlab.identities", "random_instance"),
    ("identities.run_instance", "maxentlab.identities", "run_instance"),
    ("identities.bogoliubov", "maxentlab.identities", "bogoliubov"),
    ("sanov.compositions", "maxentlab.sanov", "compositions"),
    ("sanov.enumerate_event", "maxentlab.sanov", "enumerate_event"),
    ("sanov.nested_relative_probability", "maxentlab.sanov", "nested_relative_probability"),
    ("sanov.monte_carlo_event", "maxentlab.sanov", "monte_carlo_event"),
    ("multinomial.entropy_approx_experiment", "maxentlab.multinomial", "entropy_approx_experiment"),
)

# Recursive functions whose nested calls are not spans of their own.
_OUTERMOST_ONLY = {"sanov.compositions"}
# Functions whose spans also record process CPU time (their work runs on
# worker threads the tracer cannot see).
_CPU_TIMED = {"sanov.monte_carlo_event", "multinomial.entropy_approx_experiment"}


def _note(name: str, args, kwargs, result):
    """A per-call count taken from the call's arguments or result."""
    if name in ("projection.project", "projection.fit_log_loss"):
        return result.iterations
    if name == "projection.check_feasibility":
        return len(args[0])  # alphabet size of the LP
    if name == "sanov.compositions":
        return int(result.shape[0])
    if name == "jsonio.atomic_write_text":
        text = args[1] if len(args) > 1 else kwargs["text"]
        return len(text.encode())
    if name == "multinomial.entropy_approx_experiment":
        return len(result)
    if name == "sanov.monte_carlo_event":
        return result.trials
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note", "cpu", "children_s")

    def __init__(self, name, parent, op):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.op = op
        self.note = None
        self.cpu = None
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Install with :meth:`install`, run ops under :meth:`op`, then
    :meth:`remove`.  Spans accumulate in :attr:`spans`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        outermost = name in _OUTERMOST_ONLY
        cpu_timed = name in _CPU_TIMED
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main or (
                outermost and stack and spans[stack[-1]].name == name
            ):
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None, self._op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            cpu0 = time.process_time() if cpu_timed else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu_timed:
                    span.cpu = time.process_time() - cpu0
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].children_s += span.duration
            span.note = _note(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "maxentlab"]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: one binding, on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, raw, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, raw, self._wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, key: str, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._patched.append((owner, key, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def bindings(self) -> list[str]:
        """Where wrappers are installed, as ``module.attribute``."""
        return [f"{getattr(o, '__name__', o)}.{k}" for o, k, _ in self._patched]

    def op(self, op_id: int | None) -> None:
        self._op = op_id

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for s in self.spans:
                row = [s.name, s.start, s.end, s.parent, s.op, s.note]
                handle.write(json.dumps(row) + "\n")


def self_time_by_op(spans: list[Span]) -> dict[int, float]:
    """Sum of span self times within each op."""
    out: dict[int, float] = defaultdict(float)
    for s in spans:
        out[s.op] += s.self_s
    return dict(out)


def _inside(spans: list[Span], span: Span, names: tuple[str, ...]) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(
    spans: list[Span], passes: int, mc_chunk: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as ``name -> (value, unit)``, per pass of the op
    list; ratios are stated in their names' docs in the README."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    cpu: dict[str, float] = defaultdict(float)
    wall: dict[str, float] = defaultdict(float)
    lp_in_solves = active_set_passes = 0
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        if s.note is not None:
            notes[s.name].append(s.note)
        if s.cpu is not None:
            cpu[s.name] += s.cpu
            wall[s.name] += s.duration
        if s.name == "projection.check_feasibility" and _inside(
            spans, s, ("projection.project_inequality", "projection.fit_log_loss")
        ):
            lp_in_solves += 1
        if s.name == "projection.project" and _inside(
            spans, s, ("projection.project_inequality",)
        ):
            active_set_passes += 1

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name, _, _ in TRACED:
        m[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
    for name in (
        "dist.FiniteDistribution",
        "expfam.compute_log_partition",
        "projection.check_feasibility",
        "projection.project",
        "identities.bogoliubov",
    ):
        m[f"{name}.calls"] = (per_pass(calls[name]), "count")
    m["jsonio.bytes_written"] = (per_pass(sum(notes["jsonio.atomic_write_text"])), "B")
    solves = calls["projection.project_inequality"] + calls["projection.fit_log_loss"]
    m["projection.lp_calls_per_solve"] = (ratio(lp_in_solves, solves), "ratio")
    m["projection.newton_iterations"] = (per_pass(sum(notes["projection.project"])), "count")
    m["projection.active_set_passes"] = (per_pass(active_set_passes), "count")
    fit_iters = notes["projection.fit_log_loss"]
    m["projection.fit_iterations"] = (per_pass(sum(fit_iters)), "count")
    m["projection.fit_iterations_max"] = (float(max(fit_iters, default=0)), "count")
    m["identities.bogoliubov_per_instance"] = (
        ratio(calls["identities.bogoliubov"], calls["identities.random_instance"]),
        "ratio",
    )
    histograms = sum(notes["sanov.compositions"])
    m["sanov.histograms_enumerated"] = (per_pass(histograms), "count")
    m["sanov.compositions.us_per_histogram"] = (
        ratio(self_s["sanov.compositions"] * 1e6, histograms),
        "us",
    )
    trials = notes["sanov.monte_carlo_event"]
    m["sanov.mc_chunks"] = (per_pass(sum(-(-t // mc_chunk) for t in trials)), "count")
    for name in _CPU_TIMED:
        m[f"{name}.cpu_per_wall"] = (ratio(cpu[name], wall[name]), "ratio")
    m["multinomial.cells"] = (
        per_pass(sum(notes["multinomial.entropy_approx_experiment"])),
        "count",
    )
    return m
