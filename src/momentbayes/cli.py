"""Command-line interface: JSON problem specs in, JSON/CSV reports out.

Commands
--------
update   solve the constrained posterior and write a JSON report
sweep    tabulate multiplier vs. moment target as CSV (plot-ready)
compare  posterior means next to the tilted-frequency solution
oracle   quadrature / Monte Carlo verification of the normalization

Exit codes: 0 success, 2 parse or validation failure, 3 solver divergence,
4 oracle failure.  Errors print one JSON line ``{"error": CODE, ...}`` to
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, comparator, normalization, oracle, solver
from .errors import BadSpec, MomentBayesError
from .model import Problem, bayes_posterior_mean, make_problem

_SPEC_FIELDS = {"labels", "counts", "moment_target", "pseudo_counts"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_spec(path: str) -> tuple[Problem, dict]:
    """Parse a spec file into a validated problem plus its canonical echo."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise BadSpec(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadSpec(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                      f"{exc.msg}") from exc
    if not isinstance(obj, dict):
        raise BadSpec(f"{path}: top level must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _SPEC_FIELDS
    if unknown:
        raise BadSpec(f"{path}: unknown field(s) {sorted(unknown)}")
    for field in ("labels", "counts", "moment_target"):
        if field not in obj:
            raise BadSpec(f"{path}: missing required field {field!r}")
    for field in ("labels", "counts"):
        if not (isinstance(obj[field], list) and all(map(_is_number, obj[field]))):
            raise BadSpec(f"{path}: field {field!r} must be an array of numbers")
    if not _is_number(obj["moment_target"]):
        raise BadSpec(f"{path}: field 'moment_target' must be a number")
    pseudo = obj.get("pseudo_counts")
    if pseudo is not None and not (isinstance(pseudo, list) and all(map(_is_number, pseudo))):
        raise BadSpec(f"{path}: field 'pseudo_counts' must be an array of numbers")
    try:
        problem = make_problem(obj["labels"], obj["counts"], obj["moment_target"], pseudo)
    except ValueError as exc:
        raise BadSpec(f"{path}: {exc}") from exc
    echo = {
        "labels": [float(x) for x in problem.model.labels],
        "counts": list(problem.data.counts),
        "moment_target": float(problem.moment_target),
        "pseudo_counts": [float(x) for x in problem.prior.pseudo_counts],
    }
    return problem, echo


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_report(report: dict, out_path: str | None) -> None:
    _emit(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n", out_path)


# JSON has no Infinity: huge normalizations are reported via their log only,
# and an absent cap and an unevaluated bracket side as null.
def _exp_or_none(log_x: float):
    return math.exp(log_x) if log_x < 700.0 else None


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def cmd_update(args) -> int:
    problem, echo = load_spec(args.spec)
    result = solver.full_update(problem, beta_cap=args.beta_cap)
    diag = result.diagnostics
    report = {
        "spec": echo,
        "beta": result.beta,
        "log_zeta": result.log_zeta,
        "zeta": _exp_or_none(result.log_zeta),
        "means": list(result.means),
        "bayes_means": [float(x) for x in bayes_posterior_mean(problem)],
        "variance_of_f": result.variance_of_f,
        "residual": result.residual,
        "solver": {
            "iterations": diag.evaluations,
            "seed": diag.seed,
            "bracket": [_finite_or_none(x) for x in diag.bracket],
            "beta_cap": _finite_or_none(args.beta_cap),
        },
    }
    _dump_report(report, args.out)
    return 0


def cmd_sweep(args) -> int:
    problem, _ = load_spec(args.spec)
    points = solver.sweep(problem, args.min, args.max, args.steps, beta_cap=args.beta_cap)
    lines = ["F,beta,converged"]
    for pt in points:
        lines.append(
            f"{pt.F:.17g},{pt.beta:.17g},{'true' if pt.converged else 'false'}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_compare(args) -> int:
    problem, echo = load_spec(args.spec)
    report = comparator.compare(problem, beta_cap=args.beta_cap)
    _dump_report(
        {
            "spec": echo,
            "beta": report.beta,
            "eta": report.eta,
            "me_means": list(report.me.means),
            "tilted": list(report.tilted.probabilities),
            "frequencies": list(report.tilted.frequencies),
            "difference": list(report.difference),
            "l1": report.l1,
            "linf": report.linf,
            "annotation": report.annotation,
        },
        args.out,
    )
    return 0


def cmd_oracle(args) -> int:
    problem, echo = load_spec(args.spec)
    if args.beta is not None:
        beta = args.beta
        log_z = normalization.evaluate(problem, beta).log_z
    else:
        result = solver.full_update(problem, beta_cap=args.beta_cap)
        beta, log_z = result.beta, result.log_zeta
    report = {
        "spec": echo,
        "beta": beta,
        "method": args.method,
        "log_zeta": log_z,
    }
    if args.method == "quadrature":
        est = oracle.quadrature_zeta(problem, beta)
        report.update(
            log_value=est.log_value,
            std_error=est.std_error,
            evaluations=est.samples_or_evals,
            discrepancy=est.log_value - log_z,
        )
    else:
        mm = oracle.montecarlo_moments(problem, beta, args.samples, args.seed)
        report.update(
            log_value=mm.estimate.log_value,
            std_error=mm.estimate.std_error,
            samples=mm.estimate.samples_or_evals,
            seed=mm.estimate.seed,
            discrepancy=mm.estimate.log_value - log_z,
            means=list(mm.means),
            mean_std_errors=list(mm.mean_std_errors),
            ess=mm.ess,
            low_ess=mm.low_ess,
        )
    _dump_report(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentbayes",
        description="Multinomial Bayes updating under a linear moment constraint.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--spec", required=True, help="JSON problem spec file")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--beta-cap", type=float, default=math.inf, dest="beta_cap",
                        help="cap on the tilt |beta| (f_max - f_min) beyond which the solve "
                             "reports divergence (exit 3); none by default, and 'inf' means none")

    sp = sub.add_parser("update", help="solve the constrained posterior")
    add_common(sp)
    sp.set_defaults(func=cmd_update)

    sp = sub.add_parser("sweep", help="CSV of multiplier vs. moment target")
    add_common(sp)
    sp.add_argument("--min", type=float, required=True, help="smallest moment target")
    sp.add_argument("--max", type=float, required=True, help="largest moment target")
    sp.add_argument("--steps", type=int, required=True, help="number of grid points")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("compare", help="posterior means vs. tilted frequencies")
    add_common(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("oracle", help="independent check of the normalization")
    add_common(sp)
    sp.add_argument("--method", choices=("quadrature", "montecarlo"), required=True)
    sp.add_argument("--beta", type=float, default=None,
                    help="multiplier to verify at (default: solve it first)")
    sp.add_argument("--samples", type=int, default=10**6,
                    help="Monte Carlo sample count (default 1e6)")
    sp.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")
    sp.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MomentBayesError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return exc.exit_status
    except ValueError as exc:
        sys.stderr.write(json.dumps({"error": "InvalidArgument", "message": str(exc)}) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "IOError", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
