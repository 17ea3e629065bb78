"""Solve the multiplier enforcing the moment constraint and assemble the
full posterior state.

The map ``beta -> E_beta[f . theta]`` is smooth and strictly increasing
(slope equals the posterior variance of ``f . theta``).  It is solved on the
:func:`unit_span` labels ``(f - F) / (f_max - f_min)``, as is the comparator's
tilt, by safeguarded Newton from the tilt at the saddle point; the multiplier
there, ``tau = beta (f_max - f_min)``, is free of label shift and scale and is
what ``beta_cap`` caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import normalization
from .errors import DegenerateLabels, Diverged, NoConvergence
from .model import OutcomeModel, Problem, bayes_posterior_mean

DEFAULT_TOL = 1e-10
DEFAULT_BETA_CAP = 1e6
MAX_EVALS = 200


@dataclass(frozen=True)
class SolveDiagnostics:
    """Evaluations, starting multiplier, the tightest bracket evaluated (an
    unevaluated side stands at the cap) and the residual of the answer."""

    evaluations: int
    seed: float
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
    diagnostics: SolveDiagnostics


@dataclass(frozen=True)
class SweepPoint:
    F: float
    beta: float
    converged: bool


def solve_increasing(newton, target, *, tol, cap, guess):
    """Root of ``g(x) = target`` for a smooth strictly increasing ``g`` on
    ``[-cap, cap]``.

    ``newton(x)`` returns ``(g(x), slope)``.  Safeguarded Newton from
    ``guess`` (clipped to the cap): every evaluation narrows the bracket,
    whose sides stand at the cap until evaluated; a step that leaves the
    bracket bisects it, or probes the cap when that side is still open.  A
    probe at the cap that falls short raises :class:`Diverged`;
    :class:`NoConvergence` when the evaluation budget runs out.
    Deterministic: identical inputs take identical paths.
    """
    if not (tol > 0.0) or not (cap > 0.0):
        raise ValueError(f"tol and cap must be positive, got tol={tol}, cap={cap}")
    # Terminate slightly inside the requested tolerance so that the residual
    # re-measured from the means, which rounds differently from the moment,
    # still satisfies it.
    stop = 0.5 * tol
    seed = x = min(max(float(guess), -cap), cap)
    lo, hi = -cap, cap
    lo_open = hi_open = True
    best = None  # (residual, x) among in-tolerance iterates
    polish_left = 4
    for evals in range(1, MAX_EVALS + 1):
        g, slope = newton(x)
        if abs(x) == cap and (g - target) * x < 0.0:
            raise Diverged(f"target not reached at the cap {x:g}: "
                           f"it lies at or beyond the attainable boundary")
        if g < target:
            lo, lo_open = x, False
        else:
            hi, hi_open = x, False
        resid = abs(g - target)
        newton_ok = slope > 0.0 and math.isfinite(slope)
        step = (target - g) / slope if newton_ok else math.copysign(math.inf, target - g)
        if resid <= stop:
            if best is None or resid < best[0]:
                best = (resid, x)
            # The residual criterion alone leaves x sloppy by resid/slope
            # when the slope is small; polish until the Newton step itself
            # is negligible (a step or two, by quadratic convergence).
            if not newton_ok or abs(step) <= 1e-12 * max(1.0, abs(x)) or polish_left == 0:
                return best[1], SolveDiagnostics(evals, seed, (lo, hi), best[0])
            polish_left -= 1
        x += step
        if x >= hi:
            x = cap if hi_open else 0.5 * (lo + hi)
        elif x <= lo:
            x = -cap if lo_open else 0.5 * (lo + hi)
    if best is not None:
        return best[1], SolveDiagnostics(MAX_EVALS, seed, (lo, hi), best[0])
    raise NoConvergence(f"no solution to residual {tol} within {MAX_EVALS} evaluations")


def unit_span(f: np.ndarray, F: float) -> tuple[np.ndarray, float]:
    """Labels ``(f - F) / span`` and ``span = f_max - f_min``: their multiplier
    is the tilt ``multiplier * span``, free of label shift and scale, and
    ``f_i - F`` is exact whenever an offset dominates."""
    span = float(f.max() - f.min())
    return (f - F) / span, span


def _centred(p: Problem) -> tuple[Problem, float]:
    """The problem on :func:`unit_span` labels with target 0, and the span."""
    d, span = unit_span(p.labels_array(), p.moment_target)
    return Problem(OutcomeModel(d), p.data, p.prior, 0.0), span


def _seed(q: Problem) -> float:
    """Tilt ``-x sum_i a_i / (1 + x d_i)`` at the saddle point of ``q``
    (labels ``d``, target 0, ``a = m + alpha``): the constrained maximum of
    ``sum_i a_i ln theta_i`` is ``theta_i ∝ a_i / (1 + x d_i)`` with ``sum_i
    a_i d_i / (1 + x d_i) = 0``, strictly decreasing in ``x`` on ``1 + x d_i
    > 0``, so bracketed Newton from 0 finds ``x``."""
    d = q.model.labels
    a = (q.exponents() + 1.0).tolist()
    lo, hi = -1.0 / max(d), -1.0 / min(d)
    x = 0.0
    for _ in range(100):
        r = [ai / (1.0 + x * di) for ai, di in zip(a, d)]
        rd = [ri * di for ri, di in zip(r, d)]
        h = sum(rd)
        if abs(h) <= 1e-12 * sum(map(abs, rd)):
            break
        if h > 0.0:
            lo = x
        else:
            hi = x
        x += h / sum(t * t / ai for t, ai in zip(rd, a))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return -x * sum(r) if x else 0.0  # +0.0, not -0.0, at the Bayes point


def solve_beta_detailed(p: Problem, tol: float = DEFAULT_TOL,
                        beta_cap: float = DEFAULT_BETA_CAP) -> tuple[float, SolveDiagnostics]:
    """As :func:`solve_beta`, also returning seed/bracket/iteration diagnostics."""
    if p.model.degenerate:
        raise DegenerateLabels("all labels are equal: the multiplier is unidentified")
    q, span = _centred(p)
    tau, diag = solve_increasing(lambda t: normalization.moment_and_slope(q, t), 0.0,
                                 tol=tol / span, cap=beta_cap, guess=_seed(q))
    lo, hi = diag.bracket
    return tau / span, SolveDiagnostics(diag.evaluations, diag.seed / span,
                                        (lo / span, hi / span), diag.residual * span)


def solve_beta(p: Problem, tol: float = DEFAULT_TOL,
               beta_cap: float = DEFAULT_BETA_CAP) -> float:
    """The multiplier ``beta`` with ``|E_beta[f . theta] - F| <= tol``.

    The solve starts from the saddle-point seed; it raises
    :class:`Diverged` past ``|beta| (f_max - f_min) = beta_cap``."""
    return solve_beta_detailed(p, tol, beta_cap)[0]


def full_update(p: Problem, tol: float = DEFAULT_TOL,
                beta_cap: float = DEFAULT_BETA_CAP) -> MEPosterior:
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
            diagnostics=SolveDiagnostics(0, 0.0, (0.0, 0.0), 0.0),
        )
    beta, diag = solve_beta_detailed(p, tol, beta_cap)
    q, span = _centred(p)
    log_z, means, _, slope, _ = normalization._evaluate(q, beta * span)
    residual = abs(float((f - p.moment_target) @ means))
    if residual > tol or abs(float(means.sum()) - 1.0) > 1e-10:
        raise NoConvergence(
            f"inconsistent solution: residual {residual}, mean sum {means.sum()}"
        )
    return MEPosterior(
        problem=p,
        beta=beta,
        log_zeta=log_z + beta * p.moment_target,
        means=tuple(float(x) for x in means),
        variance_of_f=slope * span * span,
        residual=residual,
        diagnostics=diag,
    )


def sweep(p: Problem, f_min: float, f_max: float, steps: int,
          tol: float = DEFAULT_TOL, beta_cap: float = DEFAULT_BETA_CAP) -> list[SweepPoint]:
    """Solve ``beta`` on a uniform grid of moment targets (endpoints included).

    Points whose multiplier leaves the cap are reported with
    ``converged=False`` rather than aborting the sweep.  Every point starts
    from its own saddle-point seed, so each equals a cold :func:`solve_beta`.
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
    for F in np.linspace(f_min, f_max, steps):
        F = float(F)
        q = Problem(p.model, p.data, p.prior, F)
        try:
            beta = solve_beta(q, tol, beta_cap)
        except (Diverged, NoConvergence):
            out.append(SweepPoint(F=F, beta=math.nan, converged=False))
            continue
        out.append(SweepPoint(F=F, beta=beta, converged=True))
    return out
