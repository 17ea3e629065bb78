"""Spans recorded from outside the package, and the per-layer figures
derived from them.

:func:`install` replaces every public function of the package's layer
modules with a timing wrapper, in every module that holds a reference to
it. The package calls across layers through module attributes (the solver
calls ``normalization.moment_and_slope``), so those calls are caught too.
Spans stay in memory as plain lists and are turned into counts and self
times once the run is over. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("model", "normalization", "solver", "comparator", "oracle", "cli")

# Span record fields. A span is a list so that the wrapper can fill in its
# end, error and counter in place.
SID, PARENT, OP, NAME, START, END, ERROR, VALUE = range(8)


def _terms(out):
    return out.terms_used


def _evals(out):
    return out.samples_or_evals


def _solve_evals(out):
    return out[1].evaluations


# Counters read from the values the package returns.
COUNTERS = {
    "normalization.log_zeta": _terms,
    "oracle.quadrature_zeta": _evals,
    "solver.solve_beta_detailed": _solve_evals,
}


class Tracer:
    """In-memory span recorder. ``op`` tags the spans of the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.op, name,
                   time.perf_counter_ns(), 0, None, None]
            spans.append(rec)
            stack.append(rec[SID])
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                if not hasattr(exc, "bench_layer"):
                    try:
                        exc.bench_layer = layer  # the innermost layer it left
                    except AttributeError:
                        pass
                raise
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                rec[VALUE] = counter(out)
            return out

        return traced


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: fn for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_")
    }


def install(tracer: Tracer, package: str = "momentbayes"):
    """Wrap the public functions of every layer; returns an undo function."""
    modules = [importlib.import_module(package)]
    modules += [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules[1:]):
        for name, fn in public_functions(module).items():
            wrapped[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    def uninstall():
        for module, attr, value in undo:
            setattr(module, attr, value)

    return uninstall


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns).

    Everything runs in one thread, so children nest inside their parent and
    do not overlap; the part they cover is the sum of their durations.
    """
    covered = defaultdict(int)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return {s[SID]: s[END] - s[START] - covered[s[SID]] for s in spans}


def _descendant_time(children, durations, root, stop) -> int:
    """Time under ``root`` spent in the outermost descendants ``stop`` accepts."""
    total = 0
    todo = list(children[root])
    while todo:
        sid = todo.pop()
        if stop(sid):
            total += durations[sid]
        else:
            todo.extend(children[sid])
    return total


def layer_figures(spans) -> dict[str, float]:
    """Counts (``.calls``, counters) and times (``.self_ms``, ms) per function,
    plus the solver's own time and the post-solve assembly time."""
    selfs = self_times(spans)
    names = {s[SID]: s[NAME] for s in spans}
    durations = {s[SID]: s[END] - s[START] for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s[SID])
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ns"] += selfs[s[SID]]
        if s[VALUE] is not None:
            out[f"{name}.value"] += s[VALUE]
            out[f"{name}.valued_calls"] += 1
        if name == "solver.solve_beta_detailed":
            out["solver.solve_ns"] += durations[s[SID]] - _descendant_time(
                children, durations, s[SID], lambda sid: names[sid].startswith("normalization."))
        elif name == "solver.full_update":
            out["solver.assembly_ns"] += durations[s[SID]] - _descendant_time(
                children, durations, s[SID], lambda sid: names[sid] == "solver.solve_beta_detailed")
    return dict(out)


def merge(figures: list[dict]) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    for fig in figures:
        for key, value in fig.items():
            total[key] += value
    return dict(total)
