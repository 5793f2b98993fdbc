"""Span tracing of the dfrcbeam layers from outside the package.

The tracer replaces module attributes (and class methods) by name with thin
wrappers that record one span per call: name, start, end, parent span and the
(trial, eta) of the design the call belongs to.  Spans stay in memory until
the run ends.  A name that a later version of the package no longer has is
reported as absent instead of failing the run.

Run as a script, it is the launcher of a traced CLI invocation:

    python3 perfbench/spans.py --spans out.json [--only NAME ...] -- <dfrcbeam args>

It imports `dfrcbeam.cli` (as span `import`), installs the wrappers, calls
`cli.main(args)` and writes the spans as JSON before exiting with main's code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time

# (module, attribute path) pairs wrapped by a traced run.  The span name is
# the defining module plus the attribute path, so `materialize_product`, which
# `altmin` imports by name, is recorded as one layer through both bindings.
LAYERS = (
    ("cli", "design_trial"),
    ("cli", "write_csv"),
    ("channel", "generate_channel"),
    ("channel", "optimal_digital_beamformers"),
    ("ula", "radar_beamformer"),
    ("ula", "beampattern"),
    ("ula", "covariance_of"),
    ("hybrid", "materialize_product"),
    ("altmin", "materialize_product"),
    ("hybrid", "AnalogBeamformer.to_matrix"),
    ("altmin", "alternating_minimization"),
    ("altmin", "solve_unitary"),
    ("altmin", "solve_analog"),
    ("altmin", "solve_baseband"),
    ("altmin", "solve_sphere_least_squares"),
    ("altmin", "objective"),
    ("metrics", "achievable_rate"),
    ("metrics", "fitting_errors"),
)

# span names whose binding in another module is an alias of the same layer
ALIASES = {"altmin.materialize_product": "hybrid.materialize_product"}

DESIGN_SPAN = "cli.design_trial"
SOLVER_SPAN = "altmin.alternating_minimization"

# spans are written as rows of these fields; rows dump several times faster
# than one JSON object per span, which keeps the write out of the traced wall
FIELDS = ("id", "name", "parent", "start", "end", "design", "iterations", "converged")


def _design_tag(args, kwargs):
    """(trial, eta) of a `design_trial(config, eta, trial)` call, if readable."""
    eta = kwargs.get("eta", args[1] if len(args) > 1 else None)
    trial = kwargs.get("trial", args[2] if len(args) > 2 else None)
    try:
        return int(trial), float(eta)
    except (TypeError, ValueError):
        return None


def _solver_info(report) -> dict:
    return {"iterations": getattr(report, "iterations_used", None),
            "converged": getattr(report, "converged", None)}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._design = None
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": self.clock(), "end": None, "design": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            outer_design = self._design
            if name == DESIGN_SPAN:
                self._design = _design_tag(args, kwargs)
            span["design"] = self._design
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
                self._design = outer_design
            if name == SOLVER_SPAN:
                span.update(_solver_info(result))
            return result
        return traced

    def install(self, package: str = "dfrcbeam", layers=LAYERS) -> list[str]:
        """Wrap each named attribute; return the names that do not exist."""
        for module_name, path in layers:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                func = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            if not callable(func):
                self.absent.append(label)
                continue
            self._restore.append((owner, attr, func))
            setattr(owner, attr, self.wrap(ALIASES.get(label, label), func))
        return list(self.absent)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self) -> dict:
        rows = [[span.get(field) for field in FIELDS] for span in self.spans]
        return {"fields": FIELDS, "spans": rows, "absent": self.absent}


def load(doc: dict) -> list[dict]:
    """Spans of a `Tracer.dump()` document, one dict per span."""
    return [dict(zip(doc["fields"], row)) for row in doc["spans"]]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span["id"], [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span["id"]] = (end - start) - covered
    return result


def _launch(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--only", action="append", default=None,
                        help="wrap only this span name (repeatable); default: every layer")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    started = tracer.clock()
    cli = importlib.import_module("dfrcbeam.cli")
    tracer.spans.append({"id": 0, "name": "import", "parent": None, "start": started,
                         "end": tracer.clock(), "design": None})
    layers = LAYERS if args.only is None else [
        (m, p) for m, p in LAYERS if ALIASES.get(f"{m}.{p}", f"{m}.{p}") in args.only
    ]
    tracer.install(layers=layers)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(args.spans, "w", encoding="ascii") as fh:
            fh.write(json.dumps({**tracer.dump(), "module": cli.__file__}))
    return code


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1:]))
