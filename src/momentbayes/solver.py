"""Solve the multiplier enforcing the moment constraint and assemble the
full posterior state.

The map ``beta -> E_beta[f . theta]`` is smooth and strictly increasing
(slope equals the posterior variance of ``f . theta``).  It is solved on the
unit-span labels ``(f - F) / (f_max - f_min)``, as is the comparator's tilt,
by safeguarded Newton from the corrected saddle-point tilt of :func:`_seed`;
the multiplier on those labels, ``tau = beta (f_max - f_min)``, is free of
label shift and scale.  The solve stops when its logit residual is within
:data:`TOL`, on that problem too; a ``beta_cap`` the caller sets is a check on
the solved ``tau``.  Each Newton step is one contour evaluation, and the
solver keeps the one at its answer: :func:`full_update` assembles the
posterior from it without evaluating again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import normalization
from .errors import DegenerateLabels, Diverged, NoConvergence
from .model import Problem

TOL = 1e-12  # on the logit residual, so also on the unit-span moment ((f - F) / span) . means
MAX_EVALS = 200
# The seed's Newton steps in z are at most _SEED_STEP long (psi is close to -z next to a
# pole, and unbounded steps overshot z past 745), and |z| <= _Z_MAX keeps e^|z| finite.
_SEED_STEP, _Z_MAX = 8.0, 700.0


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
    it goes instead to its midpoint in asinh scale, an open side standing at
    the largest float; where that rounds onto a side, to the plain midpoint.
    The answer is the iterate whose evaluation met the stop rule;
    :class:`NoConvergence` when the evaluation budget runs out first, or no
    float is left inside the bracket.  Identical inputs take identical paths.
    """
    lo_d, hi_d = float(d.min()), float(d.max())
    edges = np.stack([d - lo_d, hi_d - d], axis=1)
    offset = math.log(-lo_d / hi_d)
    seed = x = float(guess)
    lo, hi = -math.inf, math.inf
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
        nxt = x + step
        if not lo < nxt < hi:
            a, b = max(lo, -sys.float_info.max), min(hi, sys.float_info.max)
            nxt = math.sinh(0.5 * (math.asinh(a) + math.asinh(b)))
            nxt = nxt if a < nxt < b else 0.5 * a + 0.5 * b
        left = lo < nxt < hi  # a float is left inside the bracket
        # The residual criterion alone leaves x sloppy by resid/slope when
        # the slope is small; go on until the Newton step itself is negligible.
        if resid <= TOL and (not (left and newton_ok) or abs(step) <= 1e-12 * max(1.0, abs(x))):
            return x, SolveDiagnostics(evals, seed, (lo, hi), resid), kept
        if not left:
            raise NoConvergence(f"no float left inside the bracket ({lo!r}, {hi!r})")
        x = nxt
    raise NoConvergence(f"no solution to residual {TOL} within {MAX_EVALS} evaluations")


def _seed(d: np.ndarray, a: np.ndarray) -> float:
    """Tilt at the saddle point on the unit-span labels ``d`` (``a = m
    + alpha``), moved by the next term of the saddle-point expansion.

    The constrained maximum of ``sum_i a_i ln theta_i`` is ``theta_i = a_i /
    D_i``, ``D_i = R (1 + x d_i)``, ``R = sum_i a_i / (1 + x d_i)``, where the
    sums ``H_+`` and ``H_-`` of ``a_i |d_i| / (1 + x d_i)`` over ``d_i > 0`` and
    ``d_i < 0`` are equal; the tilt there is ``-x R``.  Newton steps on ``psi =
    ln H_+ - ln H_-``, close to ``-z`` plus a constant next to either pole, in
    ``z = ln(u / w)``: ``u`` and ``w = 1 - u`` are the shares of ``hi - lo``
    below and above ``x``, for the poles ``lo = -1 / d_max`` and ``hi = -1 /
    d_min``.  No bracket is needed, and nothing cancels in ``1 + x d_i = w (1 -
    d_i / d_max) + u (1 - d_i / d_min)``.  With ``s_p = sum_i a_i / D_i^p`` and
    ``e_p = sum_i a_i d_i / D_i^p``, the next term adds ``-a_i (1/D_i^3 - s_3 /
    (s_2 D_i^2)) / s_2`` to each mean (Daniels, Ann. Math. Statist. 25, 1954);
    one Newton step on the saddle-point moment, of slope ``sum_i a_i d_i (d_i -
    e_2 / s_2) / D_i^2``, takes it into the tilt unless the term outgrows the
    mean it corrects.  :class:`NoConvergence` where the tilt exceeds floats."""
    dl, al = d.tolist(), a.tolist()
    top, bottom = max(dl), -min(dl)
    if min(top, bottom) < 2.0 ** -1022:  # subnormal: 1 / d_max or 1 / d_min can overflow
        raise NoConvergence("the target lies within a subnormal distance of an edge label")
    ends = [((top - di) / top, (bottom + di) / bottom) for di in dl]
    z = min(max(math.log(bottom / top), -_Z_MAX), _Z_MAX)  # x = 0
    for steps in range(100):
        u, w = 1.0 / (1.0 + math.exp(-z)), 1.0 / (1.0 + math.exp(z))
        t = [ai * di / (w * el + u * eh) for ai, di, (el, eh) in zip(al, dl, ends)]
        hp, hm = sum(ti for ti in t if ti > 0.0), -sum(ti for ti in t if ti < 0.0)
        psi = math.log(hp) - math.log(hm) if hp and hm else math.copysign(math.inf, hp - hm)
        if abs(psi) <= 1e-12:
            break
        # -psi'(z) = x'(z) sum_i a_i d_i^2 / ((1 + x d_i)^2 H_(sign d_i)), x' = u w (hi - lo)
        curv = sum(ti / (hp if ti > 0.0 else hm) * ti / ai for ti, ai in zip(t, al) if ti)
        step = psi / ((1.0 / top + 1.0 / bottom) * u * w * curv) if math.isfinite(psi) else psi
        z = min(max(z + step, z - _SEED_STEP, -_Z_MAX), z + _SEED_STEP, _Z_MAX)
    if not steps:
        return 0.0  # +0.0, not -0.0, at the Bayes point
    inv = 1.0 / np.array([w * el + u * eh for el, eh in ends])
    big_r = float(a @ inv)
    tau = (w / top - u / bottom) * big_r
    if not math.isfinite(tau):
        raise NoConvergence(f"the saddle-point tilt is past the float range ({tau})")
    inv /= big_r  # 1 / D
    wt = a * inv * inv
    s2, s3 = float(wt.sum()), float(wt @ inv)
    e2, e3 = float(wt @ d), float((wt * inv) @ d)
    slope = float(wt @ (d * (d - e2 / s2)))  # 0 where its terms underflow
    fits = slope > 0.0 and float(np.max(np.abs(inv - s3 / s2) * inv)) <= s2
    return tau + (e3 - s3 * e2 / s2) / s2 / slope if fits else tau


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
