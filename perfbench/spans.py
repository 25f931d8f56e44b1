"""In-process traced run: spans around the public functions of each layer.

The benchmark wraps, from its own files, every public function defined in the
package modules (for `cli`, only `main`), in every module namespace that holds
a reference to it.  Each call records a span (name, start, end, parent span,
request) in memory; the list is written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.  A few wrappers
also add work counters taken from the call's arguments or result.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time
from collections import defaultdict

#: the layers, in dependency order
MODULES = ("rng", "qcore", "trajset", "simplex", "solver", "discrim", "beam", "qec", "cli")


def _len2(a):
    return len(a) * (len(a[0]) if len(a) else 0)


#: extra counters per wrapped function: f(bound arguments, result) -> {name: value}
COUNTERS = {
    "simplex.exact_phase1": lambda a, r: {"cells": _len2(a["A"])},
    "solver.max_gram_residual": lambda a, r: {
        "volume": len(a["ts"]) ** 2 * (1 << a["ts"].n)},
    "solver.solve_lp": lambda a, r: {"nontrivial": int(not a["problem"].trivial)},
    "qcore.symmetrized_basis": lambda a, r: {"elements": sum(len(e.support) for e in r)},
    "qcore.weight_on": lambda a, r: {"elements": len(r)},
    "discrim.optimal_measurement": lambda a, r: {
        "iterations": r.iterations, "converged": int(bool(r.converged))},
    "discrim.failure_curve": lambda a, r: {"points": len(r)},
    "beam.quadrature_failure": lambda a, r: {"lines": r.trials},
    "beam.run_beam_trials": lambda a, r: {"lines": a["trials"]},
    "beam.paired_advantage": lambda a, r: {"lines": a["trials"]},
    "beam.conditional_failure": lambda a, r: {"lines": len(r[0])},
    "rng.uniforms": lambda a, r: {"draws": r.size},
}


class Tracer:
    """Span recorder; `installed()` swaps the wrappers in and back out."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, request, child_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.request = None
        self._stack: list[int] = []
        self._patches = self._plan()

    def _plan(self):
        """(module, attribute, original, wrapper) for every reference to wrap."""
        mods = {name: sys.modules[f"trajsense.{name}"] for name in MODULES}
        wrappers = {}
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and (name != "cli" or attr == "main")):
                    wrappers[obj] = self._wrap(f"{name}.{attr}", obj)
        patches = []
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        return patches

    def _wrap(self, qualname: str, fn):
        counter = COUNTERS.get(qualname)
        sig = inspect.signature(fn) if counter else None
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [qualname, 0.0, 0.0, parent, self.request, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span[1], span[2] = start, end
                if parent is not None:
                    spans[parent][5] += end - start
            counts[f"{qualname}.calls"] += 1
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, val in counter(bound.arguments, result).items():
                    counts[f"{qualname}.{key}"] += val
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, request: str):
        self.request = request
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, orig, _ in self._patches:
                setattr(mod, attr, orig)
            self.request = None

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _, child in self.spans:
            out[name] += (end - start) - child
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")


def run_inprocess(main, argv: list[str]) -> tuple[int, str, str]:
    """Call cli.main with captured stdout/stderr; an escaping exception is exit 99."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:                 # a crash is a result to report
            print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 99
    return rc, out.getvalue(), err.getvalue()


#: functions whose self time and call count are reported per layer
TIMED = {
    "simplex": ("exact_phase1",),
    "solver": ("solve_symmetric", "solve_lp", "build_cyclic", "max_gram_residual"),
    "trajset": ("compile_phase", "compile_all"),
    "discrim": ("failure_curve", "optimal_measurement", "pgm", "classical_baseline",
                "make_ensemble", "repetition_analysis", "plurality_error"),
}
#: functions whose self time and a work counter are reported
WORK = {
    "qcore.symmetrized_basis": "elements", "qcore.weight_on": "elements",
    "beam.quadrature_failure": "lines", "beam.run_beam_trials": "lines",
    "beam.paired_advantage": "lines", "beam.conditional_failure": "lines",
    "rng.uniforms": "draws",
}
QEC_TIMED = ("qec.kl_verify", "qec.stabilizer_check", "qec.transversal_rotation_check")
IMPORTS = ("numpy", "scipy.stats", "scipy.optimize", "trajsense",
           *(f"trajsense.{m}" for m in MODULES))


def layer_metrics(selfs: dict, counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from span self times and counters."""
    selfs, counts = defaultdict(float, selfs), defaultdict(float, counts)
    out: dict[str, tuple[float, str]] = {}
    out["cli.main.self_s"] = (selfs["cli.main"], "s")
    for mod, fns in TIMED.items():
        for fn in fns:
            out[f"{mod}.{fn}.self_s"] = (selfs[f"{mod}.{fn}"], "s")
            out[f"{mod}.{fn}.calls"] = (counts[f"{mod}.{fn}.calls"], "count")
    out["simplex.exact_phase1.cells"] = (counts["simplex.exact_phase1.cells"], "count")
    out["solver.max_gram_residual.volume"] = (counts["solver.max_gram_residual.volume"], "count")
    out["solver.lp_float_fallbacks"] = (counts["solver.solve_lp.nontrivial"]
                                        - counts["simplex.exact_phase1.calls"], "count")
    for name, counter in WORK.items():
        out[f"{name}.self_s"] = (selfs[name], "s")
        out[f"{name}.{counter}"] = (counts[f"{name}.{counter}"], "count")
    for name in QEC_TIMED:
        out[f"{name}.self_s"] = (selfs[name], "s")
    om = counts["discrim.optimal_measurement.calls"]
    out["discrim.optimal_measurement.iterations"] = (
        counts["discrim.optimal_measurement.iterations"], "count")
    out["discrim.optimal_measurement.converged_ratio"] = (
        counts["discrim.optimal_measurement.converged"] / om if om else 0.0, "ratio")
    points = counts["discrim.failure_curve.points"]
    out["discrim.om_calls_per_point"] = (om / points if points else 0.0, "ratio")
    for mod in MODULES[:-1]:
        out[f"layer.{mod}.self_s"] = (sum(v for k, v in selfs.items()
                                          if k.startswith(mod + ".")), "s")
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        cumulative[name.strip()] = int(cum) / 1e6
    return {name: cumulative.get(name, 0.0) for name in IMPORTS}

