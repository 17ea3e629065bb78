"""Solve the multiplier enforcing the moment constraint and assemble the
full posterior state.

The map ``beta -> E_beta[f . theta]`` is smooth and strictly increasing
(slope equals the posterior variance of ``f . theta``).  It is solved on the
:func:`unit_span` labels ``(f - F) / (f_max - f_min)``, as is the comparator's
tilt, by safeguarded Newton from the tilt at the saddle point; the multiplier
there, ``tau = beta (f_max - f_min)``, is free of label shift and scale.  The
solve stops when its logit residual is within :data:`TOL`, on that problem too;
a ``beta_cap`` the caller sets is a check on the solved ``tau``.  Each Newton
step is one contour evaluation, and the solver keeps the one at its answer:
:func:`full_update` assembles the posterior from it without evaluating again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import normalization
from .errors import DegenerateLabels, Diverged, NoConvergence
from .model import Problem, bayes_posterior_mean

TOL = 1e-12  # on the logit residual, so also on the unit-span moment ((f - F) / span) . means
MAX_EVALS = 200


@dataclass(frozen=True)
class SolveDiagnostics:
    """Evaluations, starting multiplier, the tightest bracket evaluated (an
    unevaluated side is infinite) and the logit residual ``|psi|`` there."""

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


def solve_increasing(newton, d, *, guess):
    """Root of the strictly increasing moment ``g(x) = p(x) . d``, its
    diagnostics, and what ``newton`` returned there.

    ``newton(x)`` returns ``(p, g'(x), kept)``, with weights ``p`` summing to
    1 on labels ``d`` around 0 that span at most 1.  Newton steps on the
    residual ``psi = ln A - ln B - ln(-d_min / d_max)``, ``A = p . (d - d_min)``
    and ``B = p . (d_max - d)``: sums of nonnegative terms, so nothing cancels
    near an edge.  ``psi`` vanishes with ``g``, ``|psi| >= 4 |g|`` to first
    order, ``psi' = g' (1/A + 1/B)``, and ``psi = -inf`` or ``inf`` where
    ``A`` or ``B`` underflows.  Every evaluation narrows the bracket, whose
    sides stand at ``-inf`` and ``inf`` until evaluated.  A step that leaves
    it bisects it, which is infinite toward an open side; once a step is not
    finite none goes further from ``guess`` than twice the last iterate's
    distance plus ``|guess| + 1``.  :class:`NoConvergence` when the
    evaluation budget runs out.  Identical inputs take identical paths.
    """
    lo_d, hi_d = float(d.min()), float(d.max())
    edges = np.stack([d - lo_d, hi_d - d], axis=1)
    offset = math.log(-lo_d / hi_d)
    seed = x = float(guess)
    lo, hi = -math.inf, math.inf
    flat = False  # a step was infinite: from then on open-side steps only double
    best = None  # (residual, x, kept) among in-tolerance iterates
    polish_left = 4
    for evals in range(1, MAX_EVALS + 1):
        p, slope, kept = newton(x)
        A, B = (p @ edges).tolist()
        if A > 0.0 < B:
            psi, slope = math.log(A) - math.log(B) - offset, slope * (1.0 / A + 1.0 / B)
        else:  # an edge underflowed
            psi = math.copysign(math.inf, A - B)
        lo, hi = (x, hi) if psi < 0.0 else (lo, x)
        resid = abs(psi)
        newton_ok = slope > 0.0 and math.isfinite(slope)
        step = -psi / slope if newton_ok else math.copysign(math.inf, -psi)
        if resid <= TOL:
            if best is None or resid < best[0]:
                best = (resid, x, kept)
            # The residual criterion alone leaves x sloppy by resid/slope
            # when the slope is small; polish until the Newton step itself
            # is negligible (a step or two, by quadratic convergence).
            if not newton_ok or abs(step) <= 1e-12 * max(1.0, abs(x)) or polish_left == 0:
                return best[1], SolveDiagnostics(evals, seed, (lo, hi), best[0]), best[2]
            polish_left -= 1
        last, x = x, x + step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        flat = flat or math.isinf(x)
        reach = 2.0 * abs(last - seed) + abs(seed) + 1.0
        if flat and abs(x - seed) > reach:
            x = seed + math.copysign(reach, x - seed)
    if best is not None:
        return best[1], SolveDiagnostics(MAX_EVALS, seed, (lo, hi), best[0]), best[2]
    raise NoConvergence(f"no solution to residual {TOL} within {MAX_EVALS} evaluations")


def unit_span(f: np.ndarray, F: float) -> tuple[np.ndarray, float]:
    """Labels ``(f - F) / span`` and ``span = f_max - f_min``: their multiplier
    is the tilt ``multiplier * span``, free of label shift and scale, and
    ``f_i - F`` is exact whenever an offset dominates."""
    span = float(f.max() - f.min())
    return (f - F) / span, span


def _seed(d: np.ndarray, a: np.ndarray) -> float:
    """Tilt ``-x sum_i a_i / (1 + x d_i)`` at the saddle point on the
    :func:`unit_span` labels ``d`` (``a = m + alpha``): the constrained maximum
    of ``sum_i a_i ln theta_i`` is ``theta_i ∝ a_i / (1 + x d_i)`` with ``sum_i
    a_i d_i / (1 + x d_i) = 0``, strictly decreasing in ``x`` on ``1 + x d_i
    > 0``, so bracketed Newton from 0 finds ``x``."""
    d, a = d.tolist(), a.tolist()
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


def solve_beta_detailed(p: Problem, beta_cap: float = math.inf
                        ) -> tuple[float, SolveDiagnostics, normalization.Evaluation]:
    """As :func:`solve_beta`, also returning seed/bracket/iteration diagnostics
    and the evaluation at the answer on the unit-span problem: its ``ln Z`` is
    ``ln Z - beta F``, its moment and slope are those of ``(f - F) / span`` in
    the tilt ``beta span``, and its means are the posterior means."""
    if not (beta_cap > 0.0):
        raise ValueError(f"cap must be positive, got {beta_cap}")
    if p.model.degenerate:
        raise DegenerateLabels("all labels are equal: the multiplier is unidentified")
    f, a, log_gamma = p.arrays
    d, span = unit_span(f, p.moment_target)

    def newton(t):
        ev = normalization.moment_and_slope(d, a, log_gamma, t)
        return ev.means, ev.slope, ev

    tau, diag, ev = solve_increasing(newton, d, guess=_seed(d, a))
    if abs(tau) > beta_cap:
        raise Diverged(f"the tilt {tau:g} lies past the cap {beta_cap:g}")
    lo, hi = diag.bracket
    return tau / span, SolveDiagnostics(diag.evaluations, diag.seed / span,
                                        (lo / span, hi / span), diag.residual), ev


def solve_beta(p: Problem, beta_cap: float = math.inf) -> float:
    """The multiplier ``beta`` with ``|E_beta[f . theta] - F| <= TOL (f_max -
    f_min)``.

    The solve starts from the saddle-point seed; with a finite ``beta_cap``
    it raises :class:`Diverged` when the solved tilt ``|beta| (f_max - f_min)``
    exceeds it."""
    return solve_beta_detailed(p, beta_cap)[0]


def full_update(p: Problem, beta_cap: float = math.inf) -> MEPosterior:
    """Solve ``beta`` and assemble the complete posterior state from the
    solver's evaluation at it.

    Degenerate labels make the constraint vacuous (it is satisfied by any
    distribution on the simplex), so the minimal update is ``beta = 0``.
    """
    f = p.arrays[0]
    try:
        beta, diag, ev = solve_beta_detailed(p, beta_cap)  # checks the cap first
    except DegenerateLabels:
        means = bayes_posterior_mean(p)
        return MEPosterior(
            problem=p,
            beta=0.0,
            log_zeta=normalization.evaluate(p, 0.0).log_z,
            means=tuple(float(x) for x in means),
            variance_of_f=0.0,
            residual=abs(float(np.dot(f, means)) - p.moment_target),
            diagnostics=SolveDiagnostics(0, 0.0, (0.0, 0.0), 0.0),
        )
    span = float(f.max() - f.min())
    means = ev.means
    residual = abs(float((f - p.moment_target) @ means))
    if residual > TOL * span or abs(float(means.sum()) - 1.0) > 1e-10:
        raise NoConvergence(f"inconsistent solution: residual {residual}, mean sum {means.sum()}")
    return MEPosterior(
        problem=p,
        beta=beta,
        log_zeta=ev.log_z + beta * p.moment_target,
        means=tuple(float(x) for x in means),
        variance_of_f=ev.slope * span * span,
        residual=residual,
        diagnostics=diag,
    )


def sweep(p: Problem, f_min: float, f_max: float, steps: int,
          beta_cap: float = math.inf) -> list[SweepPoint]:
    """Solve ``beta`` on a uniform grid of moment targets (endpoints included).

    Points whose multiplier lies past a ``beta_cap`` the caller set, or whose
    solve runs out of evaluations, are reported with ``converged=False``
    rather than aborting the sweep.  Every point starts from its own
    saddle-point seed, so each equals a cold :func:`solve_beta`.
    """
    if p.model.degenerate:
        raise DegenerateLabels("all labels are equal: nothing to sweep")
    lo, hi = min(p.model.labels), max(p.model.labels)
    if not (lo < f_min < f_max < hi):
        raise ValueError(f"sweep range ({f_min}, {f_max}) must satisfy "
                         f"{lo} < f_min < f_max < {hi}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    out = []
    for F in np.linspace(f_min, f_max, steps):
        F = float(F)
        q = Problem(p.model, p.data, p.prior, F)
        try:
            out.append(SweepPoint(F=F, beta=solve_beta(q, beta_cap), converged=True))
        except (Diverged, NoConvergence):
            out.append(SweepPoint(F=F, beta=math.nan, converged=False))
    return out
