"""The momentbayes benchmark.

    python3 perfbench/run.py --workload update-mix --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it drives the package in ``src/`` (the
library in process, the ``momentbayes`` command as ``python -m
momentbayes.cli``) in one closed loop, one operation at a time. With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it runs
a fixed list of operations twice, without and with spans, and prints the
per-layer metrics and the tracing overhead. The last line of stdout is one
JSON object; the full result, with provenance, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans as spanlib
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 3  # fresh processes per run; setup_s is their median
IMPORT_PROBES = 3
MAX_RUN_S = 150.0  # stop early rather than pass the 180 s limit per run
QUAD_REFERENCES = 2  # k = 3 answers per run checked against quadrature
KUMMER_REFERENCES = 10  # k = 2 answers per run checked against mpmath
QUAD_REFERENCE_MAX_N = 300  # keeps each reference integral quick, far from underflow

END_TO_END = {
    "ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "ok_share": "share", "setup_s": "s", "peak_rss_mb": "MB",
}

# Errors each layer can raise on these workloads; anything else is summed in
# "errors.other" and listed by name in the result file.
ERROR_METRICS = (
    "solver.errors.Diverged", "solver.errors.NoConvergence",
    "normalization.errors.DeadlineExceeded", "normalization.errors.NoConvergence",
    "oracle.errors.ZeroDivisionError", "oracle.errors.DimensionTooHigh",
    "oracle.errors.DeadlineExceeded", "oracle.errors.ToleranceNotMet",
    "check.errors.WrongAnswer",
)

PER_LAYER = {
    "model.make_problem.calls": "count", "model.make_problem.self_ms": "ms",
    "normalization.moment_and_slope.calls": "count",
    "normalization.moment_and_slope.self_ms": "ms",
    "normalization.moment_and_slope.calls_per_solve": "count",
    "normalization.posterior_mean.calls": "count", "normalization.posterior_mean.self_ms": "ms",
    "normalization.variance_of_f.calls": "count", "normalization.variance_of_f.self_ms": "ms",
    "normalization.log_zeta.calls": "count", "normalization.log_zeta.self_ms": "ms",
    "normalization.log_zeta.terms": "count",
    "solver.evals_per_solve": "count", "solver.self_ms": "ms", "solver.assembly_ms": "ms",
    "comparator.solve_tilt.calls": "count", "comparator.solve_tilt.self_ms": "ms",
    "oracle.quadrature_zeta.calls": "count", "oracle.quadrature_zeta.self_ms": "ms",
    "oracle.quadrature_zeta.evals": "count",
    "oracle.montecarlo_moments.calls": "count", "oracle.montecarlo_moments.self_ms": "ms",
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms",
    "cli.load_spec.self_ms": "ms", "cli.main.self_ms": "ms",
    **{name: "count" for name in ERROR_METRICS},
    "errors.other": "count",
    "trace.overhead_pct": "%",
}


class CheckoutError(Exception):
    """The working directory is not a checkout holding ``src/momentbayes``."""


@dataclass
class Record:
    """One finished operation: its answer, or the error it ended with."""

    op: workloads.Op
    latency: float
    output: object = None
    error: str | None = None
    layer: str | None = None  # innermost traced layer the error left
    message: str = ""
    rss_kb: int = 0  # peak RSS of the child process, for CLI operations


# -- the program under test ---------------------------------------------------

class Program:
    """The package in ``<root>/src``: imported here and run as a command."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "momentbayes" / "__init__.py").is_file():
            raise CheckoutError(f"no src/momentbayes package under {root}")
        sys.path.insert(0, str(self.src))
        import momentbayes

        if Path(momentbayes.__file__).resolve().parent != (self.src / "momentbayes").resolve():
            raise CheckoutError(f"imported momentbayes from {momentbayes.__file__}, not {self.src}")
        self.mb = momentbayes
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def child(self, argv, *, timeout: float, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        """Runs one child process to its end; returns (exit code, seconds, peak RSS kB)."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=stdout, stderr=stderr)
        try:
            with checks.deadline(timeout):
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, time.perf_counter() - start, usage.ru_maxrss

    def setup_seconds(self) -> float:
        """Median time for a fresh process to import the package and finish
        one warm-up ``full_update``."""
        probe = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
        times = []
        for _ in range(SETUP_PROBES):
            code, seconds, _ = self.child(probe, timeout=60.0)
            if code != 0:
                raise RuntimeError(f"set-up probe exited with {code}")
            times.append(seconds)
        return statistics.median(times)

    def import_times(self, log: Path) -> tuple[float, float]:
        """Median ``import momentbayes`` time and the part spent loading scipy
        (ms), from ``python -X importtime`` with its report in ``log``."""
        totals, scipy_parts = [], []
        for _ in range(IMPORT_PROBES):
            with open(log, "w") as err:
                self.child([sys.executable, "-X", "importtime", "-c", "import momentbayes"],
                           timeout=60.0, stderr=err)
            total, scipy_us = parse_importtime(log.read_text())
            totals.append(total / 1e3)
            scipy_parts.append(scipy_us / 1e3)
        return statistics.median(totals), statistics.median(scipy_parts)


def parse_importtime(text: str) -> tuple[int, int]:
    """``(cumulative us of momentbayes, cumulative us of the outermost scipy
    imports)`` from ``-X importtime`` output. Children are printed before
    their parent, one indent deeper."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total = scipy = 0
    stack: list[tuple[int, str]] = []  # ancestors of the current row
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            scipy += cumulative
        if name == "momentbayes":
            total = cumulative
        stack.append((depth, name))
    return total, scipy


# -- operations ----------------------------------------------------------------

class LibraryRunner:
    """Runs each library operation in this process, plain or traced."""

    def __init__(self, program: Program, traced: bool, deadline_s: float):
        self.mb = program.mb
        self.traced = traced
        self.deadline_s = deadline_s
        self.tracer = spanlib.Tracer()
        self.cut: set[int] = set()

    def call(self, op: workloads.Op):
        """One library operation; returns what the checks need."""
        p = self.mb.make_problem(op.labels, op.counts, op.moment_target, op.pseudo_counts)
        if op.kind == "sweep":
            return [(pt.F, pt.beta, pt.converged) for pt in self.mb.sweep(p, *op.grid)]
        state = self.mb.full_update(p)
        return {"beta": state.beta, "log_zeta": state.log_zeta, "means": list(state.means)}

    def __call__(self, op: workloads.Op) -> Record:
        if not self.traced:
            return timed(self.call, op, self.deadline_s)
        self.tracer.op += 1
        uninstall = spanlib.install(self.tracer)  # outside the timed window
        try:
            record = timed(self.call, op, self.deadline_s)
        finally:
            uninstall()
        if record.error == "DeadlineExceeded":
            self.cut.add(self.tracer.op)
        return record

    def figures(self) -> dict:
        # An operation cut by the deadline stops at a time-dependent point;
        # leaving its spans out keeps the counts identical between runs.
        return spanlib.layer_figures([s for s in self.tracer.spans if s[spanlib.OP] not in self.cut])


CLI_ARGS = {
    "cli-update": lambda op: ["update"],
    "cli-compare": lambda op: ["compare"],
    "cli-sweep": lambda op: ["sweep", "--min", repr(op.grid[0]), "--max", repr(op.grid[1]),
                             "--steps", str(op.grid[2])],
    "cli-oracle-mc": lambda op: ["oracle", "--method", "montecarlo", "--samples",
                                 str(op.samples), "--seed", str(op.mc_seed)],
    "cli-oracle-quad": lambda op: ["oracle", "--method", "quadrature"],
}


class CliRunner:
    """Runs each CLI operation as a fresh process, plain or traced."""

    def __init__(self, program: Program, work: Path, traced: bool, deadline_s: float):
        self.program = program
        self.work = work
        self.traced = traced
        self.deadline_s = deadline_s
        self.span_figures: list[dict] = []
        self.count = itertools.count()

    def __call__(self, op: workloads.Op) -> Record:
        i = next(self.count)
        spec, out, err, span_file = (self.work / f"{i}.{ext}" for ext in
                                     ("spec.json", "out", "err", "spans.json"))
        spec.write_text(json.dumps(op.spec()))
        args = CLI_ARGS[op.kind](op) + ["--spec", str(spec), "--out", str(out)]
        if self.traced:
            argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(span_file)] + args
        else:
            argv = [sys.executable, "-m", "momentbayes.cli"] + args
        with open(err, "w") as err_file:
            try:
                code, seconds, rss = self.program.child(argv, timeout=self.deadline_s, stderr=err_file)
            except checks.DeadlineExceeded:
                return Record(op, self.deadline_s, error="DeadlineExceeded", layer="cli")
        record = Record(op, seconds, rss_kb=rss)
        if code != 0:
            record.error, record.message = cli_error(err.read_text(), code)
            record.layer = "cli"
        else:
            record.output = out.read_text()
        if self.traced and span_file.exists():
            spans = json.loads(span_file.read_text())
            self.span_figures.append(spanlib.layer_figures(spans))
            if record.error:
                origin = [s for s in spans if s[spanlib.ERROR] == record.error]
                if origin:  # the innermost span that raised it started last
                    record.layer = origin[-1][spanlib.NAME].split(".")[0]
        return record

    def figures(self) -> dict:
        return spanlib.merge(self.span_figures)


def cli_error(stderr: str, code: int) -> tuple[str, str]:
    """Error type from the command's one-line JSON error, or from a traceback."""
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    if lines:
        try:
            obj = json.loads(lines[-1])
            return str(obj["error"]), str(obj.get("message", ""))
        except (ValueError, KeyError, TypeError):
            m = re.match(r"([A-Za-z_][\w.]*)(:|$)", lines[-1])
            if m:
                return m.group(1).rsplit(".", 1)[-1], lines[-1]
    return f"Exit{code}", stderr[-200:]


def timed(call, op: workloads.Op, deadline_s: float) -> Record:
    """Runs one library operation under its deadline. Every failure is kept:
    this is the boundary that records an operation's error and moves on."""
    start = time.perf_counter()
    try:
        with checks.deadline(deadline_s):
            output = call(op)
    except checks.DeadlineExceeded as exc:
        return Record(op, time.perf_counter() - start, error="DeadlineExceeded",
                      layer=getattr(exc, "bench_layer", "bench"))
    except Exception as exc:
        return Record(op, time.perf_counter() - start, error=type(exc).__name__,
                      layer=getattr(exc, "bench_layer", None), message=str(exc)[:300])
    return Record(op, time.perf_counter() - start, output=output)


def closed_loop(execute, cycle_iter, *, seconds: float, min_ops: int):
    """One operation at a time, whole cycles, until both ``seconds`` and
    ``min_ops`` are reached. Returns the records and each cycle's seconds."""
    records: list[Record] = []
    cycle_seconds: list[float] = []
    start = time.perf_counter()
    for cycle in cycle_iter:
        cycle_start = time.perf_counter()
        for op in cycle:
            records.append(execute(op))
        cycle_seconds.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(records) >= min_ops) or elapsed >= MAX_RUN_S:
            break
    return records, cycle_seconds


# -- correctness ---------------------------------------------------------------

class Checker:
    """Checks every answer, and a deterministic subsample against references:
    the first ``KUMMER_REFERENCES`` k = 2 answers and the first
    ``QUAD_REFERENCES`` k = 3 answers of the run, in stream order."""

    def __init__(self, mb):
        self.mb = mb
        self.kummer_left = KUMMER_REFERENCES
        self.quad_left = QUAD_REFERENCES
        self.references = 0

    def __call__(self, record: Record) -> None:
        if record.error is None:
            reason = self.problem_error(record)
            if reason:
                record.error, record.layer, record.message = "WrongAnswer", "check", reason

    def problem_error(self, record: Record) -> str | None:
        op, out = record.op, record.output
        if op.kind == "update":
            return self.answer(op, out["beta"], out["log_zeta"], out["means"])
        if op.kind == "sweep":
            return checks.sweep_error(op.grid, out) or self.sweep_point(op, out)
        if op.kind == "cli-sweep":
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            points = [(float(F), float(b), c == "true") for F, b, c in rows]
            return checks.sweep_error(op.grid, points)
        report = json.loads(out)
        if op.kind == "cli-update":
            return self.answer(op, report["beta"], report["log_zeta"], report["means"])
        if op.kind == "cli-compare":
            tilted = checks.answer_error(op.labels, op.moment_target, report["tilted"])
            return tilted or self.answer(op, report["beta"], None, report["me_means"])
        if op.kind == "cli-oracle-mc":
            return checks.montecarlo_error(report)
        if op.kind == "cli-oracle-quad":
            return checks.quadrature_report_error(report)
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def answer(self, op, beta, log_z, means) -> str | None:
        return (checks.answer_error(op.labels, op.moment_target, means)
                or self.reference(op, beta, log_z, means, op.moment_target))

    def sweep_point(self, op, points) -> str | None:
        F, beta, _ = points[len(points) // 2]
        if op.k != 3 or self.quad_left == 0:
            return None
        self.quad_left -= 1
        self.references += 1
        ref = checks.quadrature_reference(self.mb.oracle, self.problem(op, F), beta)
        f = np.asarray(op.labels, float)
        if abs(float(f @ ref[1]) - F) > checks.REFERENCE_TOL * float(f.max() - f.min()):
            return f"sweep point F={F!r}: the reference moment at beta={beta!r} is {float(f @ ref[1])!r}"
        return None

    def reference(self, op, beta, log_z, means, F) -> str | None:
        if op.k == 2 and self.kummer_left:
            self.kummer_left -= 1
            ref = checks.kummer_reference(op.labels, op.counts, op.pseudo_counts, beta)
        elif (op.k == 3 and self.quad_left and op.n <= QUAD_REFERENCE_MAX_N
              and min(c + a for c, a in zip(op.counts, op.pseudo_counts)) >= 1.0):
            self.quad_left -= 1
            ref = checks.quadrature_reference(self.mb.oracle, self.problem(op, F), beta)
        else:
            return None
        self.references += 1
        return checks.reference_error(ref, op.labels, F, log_z, means)

    def problem(self, op, F):
        return self.mb.make_problem(op.labels, op.counts, F, op.pseudo_counts)


# -- provenance and reporting ----------------------------------------------------

def provenance(root: Path, args) -> dict:
    import importlib.metadata as md

    def version(dist):
        try:
            return md.version(dist)
        except md.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def property_shares(records) -> dict:
    """Measured share of each input property value among the operations run."""
    shares: dict = {}
    for key in records[0].op.props:
        counts = Counter(str(r.op.props[key]) for r in records)
        shares[key] = {v: round(c / len(records), 6) for v, c in sorted(counts.items())}
    counts = Counter(r.op.stratum for r in records)
    shares["stratum"] = {v: round(c / len(records), 6) for v, c in sorted(counts.items())}
    return shares


def outcomes(records) -> dict:
    """Operations per stratum and outcome, with one message per error type."""
    table: dict = {}
    latency: dict = {}
    messages: dict = {}
    for r in records:
        table.setdefault(r.op.stratum, Counter())[r.error or "ok"] += 1
        latency.setdefault(r.op.stratum, []).append(r.latency * 1e3)
        if r.error and r.error not in messages:
            messages[r.error] = r.message
    return {
        "by_stratum": {s: dict(c) for s, c in sorted(table.items())},
        "latency_ms_by_stratum": {s: {"min": min(v), "median": statistics.median(v), "max": max(v)}
                                  for s, v in sorted(latency.items())},
        "messages": messages,
    }


def emit(result: dict, metrics: dict, units: dict, path: Path, notes: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    result["metrics_full"] = metrics
    path.write_text(json.dumps(result, indent=2, sort_keys=True, default=str) + "\n")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>14.6g} {unit}")
    for note in notes:
        print(note)
    print(f"result file: {path.relative_to(path.parents[2])}")
    line = {
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))


# -- the two kinds of run ----------------------------------------------------------

def executor(program: Program, spec: workloads.Workload, work: Path, traced: bool):
    if spec.name == "cli-cold":
        return CliRunner(program, work, traced, spec.deadline_s)
    return LibraryRunner(program, traced, spec.deadline_s)


ALLOCATOR_WARM_UP_BYTES = 32_000_000  # just under glibc's 32 MiB cap on the mmap threshold


def warm_up(program: Program) -> None:
    """Untimed set-up, so that what is timed is the steady state of a
    long-lived process: the demo update runs once, and one large block is
    allocated and freed. Freeing it raises glibc's mmap threshold, as the
    first large solve of any long-lived process does; later series arrays
    then reuse heap memory instead of faulting in fresh pages from the
    kernel, whose cost swings most with other load on a shared host. A
    fresh process pays that cost, and ``setup_s`` and ``cli-cold`` time it."""
    mb = program.mb
    mb.full_update(mb.make_problem([1.0, 2.0, 3.0], [11, 2, 7], 2.3))
    np.empty(ALLOCATOR_WARM_UP_BYTES, dtype=np.uint8)  # freed at once, never touched: RSS stays


def end_to_end(program, spec, args, work):
    setup_s = program.setup_seconds()
    execute = executor(program, spec, work, traced=False)
    warm_up(program)
    records, cycle_seconds = closed_loop(execute, workloads.cycles(spec.name, args.seed),
                                         seconds=args.seconds, min_ops=spec.min_ops)
    if spec.name == "cli-cold":
        peak_kb = max(r.rss_kb for r in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checker = Checker(program.mb)
    for r in records:
        checker(r)
    lat = np.array([r.latency for r in records])
    ok = sum(r.error is None for r in records)
    beyond = int(np.sum(lat > np.percentile(lat, spec.tail_percentile)))
    metrics = {
        # Over whole cycles, so every run has the same mix. The host's speed
        # drifts for tens of seconds at a time; the mean over the run evens
        # that out better than a median over cycles, which lands in one state.
        "ops_per_s": len(records) / sum(cycle_seconds),
        "p50_ms": float(np.median(lat)) * 1e3,
        "tail_ms": float(np.percentile(lat, spec.tail_percentile)) * 1e3,
        "ok_share": ok / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    errors = Counter(r.error for r in records if r.error)
    result = {
        "provenance": provenance(program.root, args),
        "correct": errors["WrongAnswer"] == 0,
        "attempted": len(records), "failed": len(records) - ok,
        "tail": {"percentile": spec.tail_percentile, "samples": len(records),
                 "samples_beyond": beyond},
        "closed_loop": "one client; next operation sent when the previous one ends",
        "deadline_s": spec.deadline_s, "cycle_seconds": cycle_seconds,
        "latencies_ms": [r.latency * 1e3 for r in records],
        "reference_checks": checker.references,
        "errors": dict(errors), "properties": property_shares(records),
        "outcomes": outcomes(records),
    }
    notes = [f"tail_ms is p{spec.tail_percentile:g} of {len(records)} operations "
             f"({beyond} beyond it); {len(records) - ok} failed: {dict(errors)}"]
    return result, metrics, END_TO_END, notes


def traced_run(program, spec, args, work):
    ops = [op for _, cycle in zip(range(spec.trace_cycles), workloads.cycles(spec.name, args.seed))
           for op in cycle]
    # Each operation runs plain and traced back to back, in alternating
    # order, so that drift in machine speed and the warmer second run cancel
    # out of the overhead.
    plain_execute = executor(program, spec, work, traced=False)
    execute = executor(program, spec, work, traced=True)
    warm_up(program)
    plain: list[Record] = []
    traced: list[Record] = []
    for i, op in enumerate(ops):
        if i % 2:
            traced.append(execute(op))
            plain.append(plain_execute(op))
        else:
            plain.append(plain_execute(op))
            traced.append(execute(op))
    figures = execute.figures()
    checker = Checker(program.mb)
    for r in traced:
        checker(r)
    both = [(p, t) for p, t in zip(plain, traced)
            if "DeadlineExceeded" not in (p.error, t.error)]
    base = sum(p.latency for p, _ in both)
    overhead = 100.0 * (sum(t.latency for _, t in both) - base) / base if base else 0.0
    import_ms, import_scipy_ms = program.import_times(work / "importtime.txt")
    errors = Counter(f"{r.layer or 'bench'}.errors.{r.error}" for r in traced if r.error)
    metrics = per_layer_metrics(figures, errors, overhead, import_ms, import_scipy_ms)
    ok = sum(r.error is None for r in traced)
    result = {
        "provenance": provenance(program.root, args),
        "correct": not any(r.error == "WrongAnswer" for r in traced),
        "attempted": len(traced), "failed": len(traced) - ok,
        "layer_errors": dict(errors), "figures": figures,
        "waits": "none: one thread, no layer queues or waits on another",
        "properties": property_shares(traced), "outcomes": outcomes(traced),
        "reference_checks": checker.references,
    }
    notes = [f"traced {len(ops)} operations (fixed list); overhead {overhead:.2f} % "
             f"over {len(both)} operations not cut by the deadline"]
    return result, metrics, PER_LAYER, notes


def per_layer_metrics(fig, layer_errors: Counter, overhead, import_ms, import_scipy_ms) -> dict:
    def calls(name):
        return fig.get(f"{name}.calls", 0.0)

    def self_ms(name):
        return fig.get(f"{name}.self_ns", 0.0) / 1e6

    solves = calls("solver.solve_beta_detailed")
    solved = fig.get("solver.solve_beta_detailed.valued_calls", 0.0)
    m = {}
    for name in ("model.make_problem", "normalization.moment_and_slope",
                 "normalization.posterior_mean", "normalization.variance_of_f",
                 "normalization.log_zeta", "comparator.solve_tilt",
                 "oracle.quadrature_zeta", "oracle.montecarlo_moments"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
    m["normalization.moment_and_slope.calls_per_solve"] = (
        calls("normalization.moment_and_slope") / solves if solves else 0.0)
    m["normalization.log_zeta.terms"] = fig.get("normalization.log_zeta.value", 0.0)
    m["oracle.quadrature_zeta.evals"] = fig.get("oracle.quadrature_zeta.value", 0.0)
    m["solver.evals_per_solve"] = (
        fig.get("solver.solve_beta_detailed.value", 0.0) / solved if solved else 0.0)
    m["solver.self_ms"] = fig.get("solver.solve_ns", 0.0) / 1e6
    m["solver.assembly_ms"] = fig.get("solver.assembly_ns", 0.0) / 1e6
    m["cli.import_ms"] = import_ms
    m["cli.import_scipy_ms"] = import_scipy_ms
    m["cli.load_spec.self_ms"] = self_ms("cli.load_spec")
    m["cli.main.self_ms"] = sum((
        v / 1e6 for k, v in fig.items()
        if k.startswith("cli.") and k.endswith(".self_ns") and k != "cli.load_spec.self_ns"), 0.0)
    for name in ERROR_METRICS:
        m[name] = float(layer_errors[name])
    m["errors.other"] = float(sum(v for k, v in layer_errors.items() if k not in ERROR_METRICS))
    m["trace.overhead_pct"] = overhead
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        program = Program(root)
    except CheckoutError as exc:
        print(f"perfbench: {exc}; run from the root of a momentbayes checkout", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else end_to_end
        result, metrics, units, notes = run(program, spec, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # left in place while another run uses it
        except OSError:
            pass
    path = BENCH_DIR / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    emit(result, metrics, units, path, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
