"""Solve the multiplier enforcing the moment constraint and assemble the
full posterior state.

The map ``beta -> E_beta[f . theta]`` is smooth and strictly increasing
(slope equals the posterior variance of ``f . theta``), so a bracketed
Newton iteration with bisection fallback is globally convergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import normalization
from .errors import DegenerateLabels, Diverged, NoConvergence
from .model import Problem, bayes_posterior_mean

DEFAULT_TOL = 1e-10
DEFAULT_BETA_CAP = 1e4
MAX_EVALS = 200


@dataclass(frozen=True)
class SolveDiagnostics:
    evaluations: int
    bracket: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class MEPosterior:
    """Solved posterior state: multiplier, log-normalization, and moments."""

    problem: Problem
    beta: float
    log_zeta: float
    means: tuple[float, ...]
    variance_of_f: float
    residual: float
    diagnostics: SolveDiagnostics | None = None


@dataclass(frozen=True)
class SweepPoint:
    F: float
    beta: float
    converged: bool


def solve_increasing(value, newton, target, *, tol, cap, guess=0.0,
                     max_evals=MAX_EVALS):
    """Root of ``g(x) = target`` for a smooth strictly increasing ``g``.

    ``value(x)`` returns ``g(x)``; ``newton(x)`` returns ``(g(x), slope)``.
    Brackets the root by geometric expansion from ``guess`` (clipped to
    ``[-cap, cap]``); Newton steps outside the bracket fall back to
    bisection.  Raises :class:`Diverged` when the target is not bracketed
    within the cap, :class:`NoConvergence` when the evaluation budget runs
    out.  Deterministic: identical inputs take identical paths.
    """
    if not (tol > 0.0) or not (cap > 0.0):
        raise ValueError(f"tol and cap must be positive, got tol={tol}, cap={cap}")
    # Terminate slightly inside the requested tolerance so that the residual
    # re-measured as f . means, which rounds differently from the moment,
    # still satisfies it.
    stop = 0.5 * tol
    evals = 0

    x0 = min(max(float(guess), -cap), cap)
    g0 = value(x0)
    evals += 1
    if g0 == target:
        return x0, SolveDiagnostics(evals, (x0, x0), 0.0)

    # Bracket by geometric expansion; remember the closest probe as the
    # Newton seed.
    seed, seed_resid = x0, abs(g0 - target)
    if g0 < target:
        lo, hi = x0, None
        width = 1.0
        while hi is None:
            cand = min(x0 + width, cap)
            g = value(cand)
            evals += 1
            if abs(g - target) < seed_resid:
                seed, seed_resid = cand, abs(g - target)
            if g >= target:
                hi = cand
            elif cand >= cap:
                raise Diverged(
                    f"target {target} not reached at the cap {cap}: "
                    f"it lies at or beyond the attainable boundary"
                )
            else:
                lo = cand
                width *= 2.0
    else:
        lo, hi = None, x0
        width = 1.0
        while lo is None:
            cand = max(x0 - width, -cap)
            g = value(cand)
            evals += 1
            if abs(g - target) < seed_resid:
                seed, seed_resid = cand, abs(g - target)
            if g <= target:
                lo = cand
            elif cand <= -cap:
                raise Diverged(
                    f"target {target} not reached at the cap {-cap}: "
                    f"it lies at or beyond the attainable boundary"
                )
            else:
                hi = cand
                width *= 2.0

    bracket = (lo, hi)
    x = seed if lo <= seed <= hi else 0.5 * (lo + hi)
    best = None  # (residual, x) among in-tolerance iterates
    polish_left = 4
    while evals < max_evals:
        g, slope = newton(x)
        evals += 1
        resid = abs(g - target)
        newton_ok = slope > 0.0 and math.isfinite(slope)
        step = (target - g) / slope if newton_ok else math.nan
        if resid <= stop:
            if best is None or resid < best[0]:
                best = (resid, x)
            # The residual criterion alone leaves x sloppy by resid/slope
            # when the slope is small; polish until the Newton step itself
            # is negligible (a step or two, by quadratic convergence).
            if not newton_ok or abs(step) <= 1e-12 * max(1.0, abs(x)) or polish_left == 0:
                return best[1], SolveDiagnostics(evals, bracket, best[0])
            polish_left -= 1
        if g < target:
            lo = x
        else:
            hi = x
        if newton_ok:
            x_next = x + step
            if not (lo < x_next < hi):
                x_next = 0.5 * (lo + hi)
        else:
            x_next = 0.5 * (lo + hi)
        x = x_next
    if best is not None:
        return best[1], SolveDiagnostics(evals, bracket, best[0])
    raise NoConvergence(f"no solution to residual {tol} within {max_evals} evaluations")


def solve_beta_detailed(p: Problem, tol: float = DEFAULT_TOL,
                        beta_cap: float = DEFAULT_BETA_CAP,
                        guess: float = 0.0) -> tuple[float, SolveDiagnostics]:
    """As :func:`solve_beta`, also returning bracket/iteration diagnostics."""
    if p.model.degenerate:
        raise DegenerateLabels("all labels are equal: the multiplier is unidentified")

    def value(beta):
        return normalization.moment_and_slope(p, beta)[0]

    def newton(beta):
        return normalization.moment_and_slope(p, beta)

    return solve_increasing(value, newton, p.moment_target, tol=tol,
                            cap=beta_cap, guess=guess)


def solve_beta(p: Problem, tol: float = DEFAULT_TOL,
               beta_cap: float = DEFAULT_BETA_CAP, guess: float = 0.0) -> float:
    """The multiplier ``beta`` with ``|E_beta[f . theta] - F| <= tol``."""
    return solve_beta_detailed(p, tol, beta_cap, guess)[0]


def full_update(p: Problem, tol: float = DEFAULT_TOL,
                beta_cap: float = DEFAULT_BETA_CAP,
                guess: float = 0.0) -> MEPosterior:
    """Solve ``beta`` and assemble the complete posterior state.

    Degenerate labels make the constraint vacuous (it is satisfied by any
    distribution on the simplex), so the minimal update is ``beta = 0``.
    """
    f = p.labels_array()
    if p.model.degenerate:
        means = bayes_posterior_mean(p)
        lz = normalization.log_zeta(p, 0.0)
        return MEPosterior(
            problem=p,
            beta=0.0,
            log_zeta=lz.log_value,
            means=tuple(means),
            variance_of_f=0.0,
            residual=abs(float(np.dot(f, means)) - p.moment_target),
            diagnostics=SolveDiagnostics(0, (0.0, 0.0), 0.0),
        )
    beta, diag = solve_beta_detailed(p, tol, beta_cap, guess)
    log_z, means, _, variance, _ = normalization._evaluate(p, beta)
    residual = abs(float(np.dot(f, means)) - p.moment_target)
    if residual > tol or abs(float(means.sum()) - 1.0) > 1e-10:
        raise NoConvergence(
            f"inconsistent solution: residual {residual}, mean sum {means.sum()}"
        )
    return MEPosterior(
        problem=p,
        beta=beta,
        log_zeta=log_z,
        means=tuple(float(x) for x in means),
        variance_of_f=variance,
        residual=residual,
        diagnostics=diag,
    )


def sweep(p: Problem, f_min: float, f_max: float, steps: int,
          tol: float = DEFAULT_TOL, beta_cap: float = DEFAULT_BETA_CAP) -> list[SweepPoint]:
    """Solve ``beta`` on a uniform grid of moment targets (endpoints included).

    Points whose multiplier leaves the cap are reported with
    ``converged=False`` rather than aborting the sweep.  Sequential points
    reuse the previous converged multiplier as the initial guess; results
    are guess-independent up to the solver tolerance.
    """
    if p.model.degenerate:
        raise DegenerateLabels("all labels are equal: nothing to sweep")
    lo, hi = min(p.model.labels), max(p.model.labels)
    if not (lo < f_min < f_max < hi):
        raise ValueError(
            f"sweep range ({f_min}, {f_max}) must satisfy {lo} < f_min < f_max < {hi}"
        )
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    out = []
    warm = 0.0
    for F in np.linspace(f_min, f_max, steps):
        F = float(F)
        q = Problem(p.model, p.data, p.prior, F)
        try:
            beta = solve_beta(q, tol, beta_cap, guess=warm)
        except (Diverged, NoConvergence):
            out.append(SweepPoint(F=F, beta=math.nan, converged=False))
            continue
        out.append(SweepPoint(F=F, beta=beta, converged=True))
        warm = beta
    return out
