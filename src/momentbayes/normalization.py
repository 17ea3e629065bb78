"""Log-domain evaluation of the posterior normalization and its moments.

The unnormalized posterior on the simplex is

    rho(theta) = prod_i exp(beta * f_i * theta_i) * theta_i ** e_i,

with exponents ``e_i = m_i + alpha_i - 1``.  Its normalization

    Z(beta) = integral over the simplex of rho(theta) d theta

is evaluated as a nested series: eliminate one coordinate (index ``piv``),
factor out ``exp(beta * f_piv)``, and expand each remaining coordinate's
exponential-weighted Beta integral into a Kummer-type series.  Level ``j``
(outermost j=1) carries parameters

    a_j = e_j' + 1,   b_j = a_j + D_j + Q,   t_j = beta * (f_j' - f_piv),

where the primes denote the coordinate handled at that level, ``D_j``
accumulates the eliminated tail exponents, and ``Q`` is the running prefix
sum of the outer summation indices, threaded into every inner level.  The
pivot is chosen as the coordinate minimizing ``beta * f_i`` so that every
``t_j >= 0`` and all series terms are positive (this realizes the Kummer
transformation ``M(a; b; t) = exp(t) * M(b - a; b; -t)`` at the level of
the underlying integral, avoiding cancellation).

Everything is accumulated in log domain with log-sum-exp.  The series
needs only ``a_j > 0``, so integer and non-integer pseudo-counts take the
same path.  Ratios of shifted normalizations give the posterior means; one
derivative pass gives the moment of ``f . theta`` and its slope in beta
(the posterior variance), without numeric differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NoConvergence
from .model import Problem

TRUNCATION_EPS = 1e-15
TRUNCATION_RUN = 3
MAX_TERMS_PER_LEVEL = 10**6
_CHUNK_CELLS = 1 << 22
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SeriesParams:
    """Parameters of one level of the nested series, at zero prefix sum."""

    a: float
    b: float
    t: float
    level: int

    def __post_init__(self) -> None:
        if not (self.a > 0.0):
            raise ValueError(f"level {self.level}: a must be positive, got {self.a}")
        if not (self.b > self.a):
            # The Beta prefactor Gamma(b - a) must be finite; the series
            # also needs b > a for its terms to decay.
            raise ValueError(f"level {self.level}: require b > a, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class LogZeta:
    """``ln Z`` plus the number of series terms summed."""

    log_value: float
    terms_used: int


class _Plan:
    """Pivot choice, level ordering, and per-level series parameters."""

    def __init__(self, labels: np.ndarray, exponents: np.ndarray, beta: float):
        k = len(labels)
        piv = int(np.argmin(beta * labels))
        rem = [i for i in range(k) if i != piv]
        order = rem[::-1]  # outermost level first
        self.beta = beta
        self.piv = piv
        self.f_piv = float(labels[piv])
        self.a = np.array([exponents[i] + 1.0 for i in order])
        self.t = np.array([beta * (labels[i] - labels[piv]) for i in order])
        d0 = np.empty(k - 1)
        d0[0] = exponents[piv] + 1.0
        for j in range(1, k - 1):
            d0[j] = d0[j - 1] + self.a[j - 1]
        self.d0 = d0

    def caps(self, scale: int) -> list[int]:
        out = []
        for t in self.t:
            if t <= 0.0:
                out.append(0)
                continue
            n = int(math.ceil(t + 14.0 * math.sqrt(t + 8.0) + 60.0)) * scale
            if n > MAX_TERMS_PER_LEVEL:
                raise NoConvergence(
                    f"series level needs more than {MAX_TERMS_PER_LEVEL} terms (t={t:g})"
                )
            out.append(n)
        return out


def series_levels(p: Problem, beta: float) -> list[SeriesParams]:
    """Per-level ``(a_j, b_j, t_j)`` at zero prefix sum, outermost first."""
    plan = _Plan(p.labels_array(), p.exponents(), beta)
    return [
        SeriesParams(a=float(a), b=float(a + d), t=float(t), level=j + 1)
        for j, (a, d, t) in enumerate(zip(plan.a, plan.d0, plan.t))
    ]


def _series_pass(plan: _Plan, caps: list[int], derivatives: bool):
    """One bottom-up evaluation of the nested series.

    Returns ``(log_value, terms_used, tail_ok, ES, ESS1)`` where ``ES`` is
    the mean of the total summation index ``S`` under the term measure and
    ``ESS1`` the mean of ``S * (S - 1)`` (both ``None`` unless
    ``derivatives``).  Term-wise differentiation of the ``t_j^{q_j}``
    factors gives ``d ln Z / d beta = f_piv + ES / beta`` and
    ``d^2 ln Z / d beta^2 = (ESS1 - ES^2) / beta^2``.
    """
    n_levels = len(plan.a)
    value = None  # ln I at the inner level, indexed by prefix sum
    es = None
    ess1 = None
    terms_used = 0
    tail_ok = True
    for level in range(n_levels - 1, -1, -1):
        a = plan.a[level]
        t = plan.t[level]
        d0 = plan.d0[level]
        nq = caps[level] + 1
        n_prefix = 1 + sum(caps[:level])
        q = np.arange(nq, dtype=float)
        if t > 0.0:
            u = gammaln(a + q) - gammaln(1.0 + q) + q * math.log(t)
        else:
            u = np.array([gammaln(a)])
            nq = 1
        s_max = sum(caps[: level + 1])
        s_grid = np.arange(s_max + 1, dtype=float)
        gs = -gammaln(a + d0 + s_grid)
        if value is not None:
            gs = gs + value[: s_max + 1]
        new_value = np.empty(n_prefix)
        new_es = np.empty(n_prefix) if derivatives else None
        new_ess1 = np.empty(n_prefix) if derivatives else None
        block = max(1, _CHUNK_CELLS // nq)
        for start in range(0, n_prefix, block):
            stop = min(start + block, n_prefix)
            rows = np.arange(start, stop)
            idx = rows[:, None] + np.arange(nq)[None, :]
            terms = u[None, :] + gammaln(d0 + rows.astype(float))[:, None] + gs[idx]
            row_max = terms.max(axis=1, keepdims=True)
            weights = np.exp(terms - row_max)
            z = weights.sum(axis=1)
            new_value[start:stop] = np.log(z) + row_max[:, 0]
            if nq >= TRUNCATION_RUN and tail_ok:
                tail = weights[:, -TRUNCATION_RUN:] / z[:, None]
                if tail.max() >= TRUNCATION_EPS:
                    tail_ok = False
            if derivatives:
                qs = q[None, :nq]
                inner_es = es[idx] if es is not None else 0.0
                inner_ess1 = ess1[idx] if ess1 is not None else 0.0
                new_es[start:stop] = (weights * (qs + inner_es)).sum(axis=1) / z
                new_ess1[start:stop] = (
                    weights * (qs * (qs - 1.0) + 2.0 * qs * inner_es + inner_ess1)
                ).sum(axis=1) / z
        terms_used += n_prefix * nq
        value, es, ess1 = new_value, new_es, new_ess1
    log_value = plan.beta * plan.f_piv + float(value[0])
    if derivatives:
        return log_value, terms_used, tail_ok, float(es[0]), float(ess1[0])
    return log_value, terms_used, tail_ok, None, None


def _series_log_zeta(labels, exponents, beta: float, derivatives: bool = False):
    """Evaluate ``ln Z`` (and optionally its beta-derivative moments).

    ``exponents`` must exceed -1 (``a_j = e_j + 1 > 0``).  Retries with
    enlarged per-level budgets if the truncation rule is not met.
    Returns ``(log_value, terms_used, ES, ESS1, plan)``.
    """
    plan = _Plan(np.asarray(labels, float), np.asarray(exponents, float), beta)
    scale = 1
    while True:
        caps = plan.caps(scale)
        log_value, terms, tail_ok, es, ess1 = _series_pass(plan, caps, derivatives)
        if tail_ok:
            return log_value, terms, es, ess1, plan
        scale *= 2  # tail not flat yet: enlarge every level's budget


def _log_zeta_value(p: Problem, beta: float, exponent_shift: int | None = None):
    """Raw ``(ln Z, terms)``, with the exponent at index ``exponent_shift``
    raised by 1."""
    e = p.exponents()
    if exponent_shift is not None:
        e[exponent_shift] += 1.0
    logz, terms, _, _, _ = _series_log_zeta(p.labels_array(), e, beta)
    return logz, terms


def log_zeta(p: Problem, beta: float) -> LogZeta:
    """``ln Z(beta)`` for a validated problem."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    log_value, terms = _log_zeta_value(p, beta)
    return LogZeta(log_value=log_value, terms_used=terms)


def posterior_mean(p: Problem, beta: float) -> np.ndarray:
    """Posterior mean of ``theta`` via ratios of shifted normalizations:
    ``E[theta_i] = Z(e + delta_i) / Z(e)``."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    base, _ = _log_zeta_value(p, beta)
    return np.array(
        [math.exp(_log_zeta_value(p, beta, i)[0] - base) for i in range(p.k)]
    )


def moment_of_f(p: Problem, beta: float) -> float:
    """``E[sum_i f_i theta_i] = d ln Z / d beta``, via the mean ratios."""
    return float(np.dot(p.labels_array(), posterior_mean(p, beta)))


def variance_of_f(p: Problem, beta: float) -> float:
    """Posterior variance of ``sum_i f_i theta_i``: the slope of
    :func:`moment_of_f` in beta, from :func:`moment_and_slope`."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if p.model.degenerate:
        return 0.0  # f . theta is constant on the simplex
    return _moment_and_slope(p, beta)[1]


def moment_and_slope(p: Problem, beta: float) -> tuple[float, float]:
    """Moment and its beta-slope in one pass, for the root-finder.

    Callers inside this module use :func:`_moment_and_slope`, so that the
    calls of this function are the solver's evaluations and nothing else
    (``perfbench`` counts them per solve).
    """
    return _moment_and_slope(p, beta)


def _moment_and_slope(p: Problem, beta: float) -> tuple[float, float]:
    """Moment and its beta-slope from one derivative pass.

    Both derivatives are accumulated analytically during the nested
    summation (term-wise differentiation in beta).  Whenever ``|beta|``
    times the label span is below double resolution, the exact conjugate
    closed form of ``beta == 0`` is used: it is exact to rounding there,
    while the series moments, which scale like ``beta`` and ``beta**2``,
    run into underflow.
    """
    f = p.labels_array()
    if abs(beta) * float(f.max() - f.min()) < _EPS:
        al = p.exponents() + 1.0
        total = al.sum()
        mean = al / total
        mom = float(np.dot(f, mean))
        c = f - mom
        var = float(np.dot(c * c, mean) - np.dot(c, mean) ** 2) / (total + 1.0)
        return mom, float(var)
    _, _, es, ess1, plan = _series_log_zeta(f, p.exponents(), beta, derivatives=True)
    mom = plan.f_piv + es / beta
    # Var(f . theta) = (E[S^2] - E[S]^2 - E[S]) / beta^2 with E[S^2] =
    # E[S(S-1)] + E[S]; accumulating S(S-1) keeps the subtraction exact.
    var = (ess1 - es * es) / (beta * beta)
    return mom, max(var, 0.0)
