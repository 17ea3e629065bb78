"""Solve the multiplier enforcing the moment constraint and assemble the
full posterior state.

The map ``beta -> E_beta[f . theta]`` is smooth and strictly increasing
(slope equals the posterior variance of ``f . theta``).  It is solved on the
unit-span labels ``(f - F) / (f_max - f_min)``, as is the comparator's
tilt, by safeguarded Newton from the tilt at the saddle point with the next
term of the saddle-point expansion taken in (:func:`_seed`); the multiplier on
those labels, ``tau = beta (f_max - f_min)``, is free of label shift and
scale.  The solve stops when its logit residual is within :data:`TOL`, on that
problem too; a ``beta_cap`` the caller sets is a check on the solved ``tau``.
Each Newton step is one contour evaluation, and the solver keeps the one at
its answer: :func:`full_update` assembles the posterior from it without
evaluating again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import normalization
from .errors import DegenerateLabels, Diverged, NoConvergence
from .model import Problem

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
    it bisects it, which is infinite toward an open side; an infinite step
    goes instead twice the last iterate's distance from ``guess`` plus
    ``|guess| + 1``.  The answer is the iterate whose evaluation met the stop
    rule; :class:`NoConvergence` when the evaluation budget runs out first.
    Identical inputs take identical paths.
    """
    lo_d, hi_d = float(d.min()), float(d.max())
    edges = np.stack([d - lo_d, hi_d - d], axis=1)
    offset = math.log(-lo_d / hi_d)
    seed = x = float(guess)
    lo, hi = -math.inf, math.inf
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
            # The residual criterion alone leaves x sloppy by resid/slope
            # when the slope is small; polish until the Newton step itself
            # is negligible (a step or two, by quadratic convergence).
            if not newton_ok or abs(step) <= 1e-12 * max(1.0, abs(x)) or polish_left == 0:
                return x, SolveDiagnostics(evals, seed, (lo, hi), resid), kept
            polish_left -= 1
        last, x = x, x + step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if math.isinf(x):
            x = seed + math.copysign(2.0 * abs(last - seed) + abs(seed) + 1.0, x - seed)
    raise NoConvergence(f"no solution to residual {TOL} within {MAX_EVALS} evaluations")


def _seed(d: np.ndarray, a: np.ndarray) -> float:
    """Tilt at the saddle point on the unit-span labels ``d`` (``a = m
    + alpha``), moved by the next term of the saddle-point expansion.

    The constrained maximum of ``sum_i a_i ln theta_i`` is ``theta_i = a_i /
    D_i`` with ``D_i = R (1 + x d_i)``, ``R = sum_i a_i / (1 + x d_i)`` and
    ``sum_i a_i d_i / (1 + x d_i) = 0``, strictly decreasing in ``x`` on ``1 +
    x d_i > 0``, so bracketed Newton from 0 finds ``x``; the tilt there is
    ``-x R``.  With ``s_p = sum_i a_i / D_i^p`` and ``e_p = sum_i a_i d_i /
    D_i^p``, the next term adds ``-a_i (1/D_i^3 - s_3 / (s_2 D_i^2)) / s_2`` to
    each mean (Daniels, Ann. Math. Statist. 25, 1954), and one Newton step on
    the saddle-point moment, of slope ``sum_i a_i d_i (d_i - e_2 / s_2) /
    D_i^2``, takes it into the tilt.  The step is skipped where the term
    outgrows the mean it corrects."""
    dl, al = d.tolist(), a.tolist()
    lo, hi = -1.0 / max(dl), -1.0 / min(dl)
    x = 0.0
    for _ in range(100):
        r = [ai / (1.0 + x * di) for ai, di in zip(al, dl)]
        rd = [ri * di for ri, di in zip(r, dl)]
        h = sum(rd)
        if abs(h) <= 1e-12 * sum(map(abs, rd)):
            break
        if h > 0.0:
            lo = x
        else:
            hi = x
        nxt = x + h / sum(t * t / ai for t, ai in zip(rd, al))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if nxt == x:  # the bracket is down to adjacent floats
                break
        x = nxt
    if not x:
        return 0.0  # +0.0, not -0.0, at the Bayes point
    big_r = sum(r)
    tau = -x * big_r
    inv = 1.0 / (big_r * (1.0 + x * d))  # 1 / D
    w = a * inv * inv
    s2, s3 = float(w.sum()), float(w @ inv)
    if float(np.max(np.abs(inv - s3 / s2) * inv)) > s2:
        return tau
    e2, e3 = float(w @ d), float((w * inv) @ d)
    return tau + (e3 - s3 * e2 / s2) / s2 / float(w @ (d * (d - e2 / s2)))


def solve_beta_detailed(p: Problem, beta_cap: float = math.inf
                        ) -> tuple[float, SolveDiagnostics, normalization.Evaluation]:
    """As :func:`solve_beta`, also returning seed/bracket/iteration diagnostics
    and the evaluation at the answer, in the problem's units: what
    ``normalization.evaluate(p, beta)`` describes."""
    if not (beta_cap > 0.0):
        raise ValueError(f"cap must be positive, got {beta_cap}")
    if p.model.degenerate:
        raise DegenerateLabels("all labels are equal: the multiplier is unidentified")
    f, a, log_gamma = p.arrays
    d, span = normalization.unit_span(f, p.moment_target)

    def newton(t):
        ev = normalization.moment_and_slope(d, a, log_gamma, t)
        return ev.means, ev.slope, ev

    tau, diag, ev = solve_increasing(newton, d, guess=_seed(d, a))
    if abs(tau) > beta_cap:
        raise Diverged(f"the tilt {tau:g} lies past the cap {beta_cap:g}")
    beta, (lo, hi) = tau / span, diag.bracket
    ev = normalization._in_problem_units(ev, p.moment_target, span, beta)
    return beta, SolveDiagnostics(diag.evaluations, diag.seed / span,
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
    distribution on the simplex), so the minimal update is ``beta = 0``: the
    conjugate posterior, with means ``a / sum(a)`` and ``ln Z = sum_i ln
    Gamma(a_i) - ln Gamma(sum_i a_i)``.
    """
    f, a, log_gamma = p.arrays
    span = float(f.max() - f.min())
    try:
        beta, diag, ev = solve_beta_detailed(p, beta_cap)  # checks the cap first
        means, log_zeta, variance = ev.means, ev.log_z, ev.slope
    except DegenerateLabels:
        beta, diag = 0.0, SolveDiagnostics(0, 0.0, (0.0, 0.0), 0.0)
        total = float(a.sum())
        means, log_zeta, variance = a / total, log_gamma - math.lgamma(total), 0.0
    residual = abs(float((f - p.moment_target) @ means))
    if residual > TOL * span or abs(float(means.sum()) - 1.0) > 1e-10:
        raise NoConvergence(f"inconsistent solution: residual {residual}, mean sum {means.sum()}")
    return MEPosterior(
        problem=p,
        beta=beta,
        log_zeta=log_zeta,
        means=tuple(float(x) for x in means),
        variance_of_f=variance,
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
