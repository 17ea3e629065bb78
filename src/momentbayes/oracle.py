"""Independent verification paths for the normalization and its moments.

Four routes that share no code with the contour evaluator:

- iterated adaptive quadrature over the simplex in reduced coordinates
  (small dimension only);
- self-normalized importance sampling from the conjugate proposal with
  weights ``exp(beta * f . theta)``;
- the nested positive-term series for any ``k``: ``ln Z`` and, by term-wise
  differentiation, the moment of ``f . theta`` and its slope in beta;
- the confluent hypergeometric function ``kummer_m_log``, which gives ``Z``
  in closed form for ``k = 2``.

Quadrature and the series need scipy, which is imported only when they run;
without it they raise :class:`OracleUnavailable`.
"""

from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooHigh, NoConvergence, OracleUnavailable, ToleranceNotMet
from .model import Problem

QUADRATURE_MAX_K = 4
DEFAULT_REL_TOL = 1e-10
MIN_SAMPLES = 10**3
LOW_ESS = 100.0
_BATCH = 1 << 17
_QUADRATURE_EVALS = 1_000_000  # integrand evaluations; tier-1 and benchmark cases need < 4e5
_KUMMER_EPS = 1e-15
_KUMMER_RUN = 3
_KUMMER_MAX_TERMS = 10**6
_LINEAR_SUM_MAX_T = 500.0
_SERIES_TAIL = 1e-15


@dataclass(frozen=True)
class OracleEstimate:
    log_value: float
    std_error: float
    method: str
    samples_or_evals: int
    seed: int | None = None


@dataclass(frozen=True)
class MonteCarloMoments:
    """Importance-sampling estimate of ``ln Z`` and the posterior means."""

    estimate: OracleEstimate
    means: tuple[float, ...]
    mean_std_errors: tuple[float, ...]
    ess: float
    low_ess: bool


def _scipy(name: str):
    """``scipy.<name>``, or :class:`OracleUnavailable` when scipy is missing."""
    try:
        return importlib.import_module(f"scipy.{name}")
    except ImportError as exc:
        raise OracleUnavailable(
            f"this oracle needs scipy ({exc}); install the 'oracle' extra"
        ) from exc


def quadrature_zeta(p: Problem, beta: float,
                    rel_tol: float = DEFAULT_REL_TOL) -> OracleEstimate:
    """``ln Z`` by iterated one-dimensional adaptive quadrature.

    Integrates in the reduced coordinates (the last coordinate eliminated
    via ``1 - sum``), innermost dimension adapting first.  Deterministic;
    raises when the error estimate cannot be brought under ``rel_tol``, the
    integrand underflows to zero, or the evaluation budget runs out.  scipy's
    warnings are recorded, not shown, and counted in that error.
    """
    integrate = _scipy("integrate")
    k = p.k
    if k > QUADRATURE_MAX_K:
        raise DimensionTooHigh(
            f"iterated quadrature is limited to k <= {QUADRATURE_MAX_K}, got k={k}"
        )
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    e = p.exponents()
    f = p.labels_array()
    shift = float(np.max(beta * f))
    evals = [0]
    # Request more than asked so QUADPACK's own (conservative) error
    # estimate lands under the caller's tolerance.
    eps = [max(rel_tol * 0.1**(d + 1), 5e-14) for d in range(k - 1)]

    def density(theta):
        evals[0] += 1
        if evals[0] > _QUADRATURE_EVALS:
            raise fail(f"no estimate within {_QUADRATURE_EVALS} integrand evaluations")
        total = -shift
        for ei, fi, ti in zip(e, f, theta):
            if ti <= 0.0:
                if ei > 0.0:
                    return 0.0
                if ei < 0.0:
                    return math.inf  # integrable endpoint singularity
            else:
                total += ei * math.log(ti)
            total += beta * fi * ti
        return math.exp(total)

    def nest(coords, depth):
        if depth == k - 1:
            return density(coords + [1.0 - sum(coords)])
        upper = 1.0 - sum(coords)
        if upper <= 0.0:
            return 0.0
        val, _ = integrate.quad(
            lambda x: nest(coords + [x], depth + 1),
            0.0, upper, epsabs=0.0, epsrel=eps[depth], limit=500,
        )
        return val

    def fail(reason):
        return ToleranceNotMet(f"{reason} ({len(caught)} scipy warnings)")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, abserr = integrate.quad(
            lambda x: nest([x], 1),
            0.0, 1.0, epsabs=0.0, epsrel=eps[0], limit=500,
        )
    if not math.isfinite(val) or val <= 0.0:
        raise fail(f"integral {val!r} is not a finite positive number")
    est_rel = abserr / val + sum(eps[1:])
    if est_rel > rel_tol:
        raise fail(f"estimated relative error {est_rel:.3g} exceeds {rel_tol:.3g}")
    return OracleEstimate(
        log_value=math.log(val) + shift,
        std_error=0.0,
        method="quadrature",
        samples_or_evals=evals[0],
    )


def montecarlo_moments(p: Problem, beta: float, samples: int,
                       seed: int) -> MonteCarloMoments:
    """Self-normalized importance sampling from the conjugate proposal.

    Draws ``theta`` from the Dirichlet with parameters ``m + alpha`` and
    weights each draw by ``exp(beta * f . theta)``; ``ln Z`` follows from
    the mean weight times the closed-form conjugate normalizer.  Fixed
    batch partitioning and a single seeded generator make repeated calls
    bit-identical.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    f = p.labels_array()
    al = np.asarray(p.data.counts, dtype=float) + np.asarray(
        p.prior.pseudo_counts, dtype=float
    )
    c = float(np.max(beta * f))
    rng = np.random.default_rng(seed)
    k = p.k
    sw = 0.0
    sw2 = 0.0
    swt = np.zeros(k)
    sw2t = np.zeros(k)
    sw2t2 = np.zeros(k)
    left = samples
    while left > 0:
        nb = min(_BATCH, left)
        theta = rng.dirichlet(al, size=nb)
        w = np.exp(beta * (theta @ f) - c)
        sw += float(w.sum())
        sw2 += float(np.dot(w, w))
        swt += w @ theta
        w2 = w * w
        sw2t += w2 @ theta
        sw2t2 += w2 @ (theta * theta)
        left -= nb
    w_mean = sw / samples
    if w_mean == 0.0:
        raise ToleranceNotMet(f"every importance weight underflows at beta={beta!r}")
    means = swt / sw
    # Delta-method standard errors of the self-normalized estimator.
    var_terms = np.maximum(sw2t2 - 2.0 * means * sw2t + means**2 * sw2, 0.0)
    mean_se = np.sqrt(var_terms) / sw
    w_var = max(sw2 / samples - w_mean**2, 0.0) * samples / max(samples - 1, 1)
    log_se = math.sqrt(w_var / samples) / w_mean
    ln_b = sum(math.lgamma(x) for x in al.tolist()) - math.lgamma(float(al.sum()))
    ess = sw * sw / sw2 if sw2 > 0.0 else 0.0
    estimate = OracleEstimate(
        log_value=ln_b + c + math.log(w_mean),
        std_error=log_se,
        method="montecarlo",
        samples_or_evals=samples,
        seed=seed,
    )
    return MonteCarloMoments(
        estimate=estimate,
        means=tuple(float(x) for x in means),
        mean_std_errors=tuple(float(x) for x in mean_se),
        ess=float(ess),
        low_ess=bool(ess < LOW_ESS),
    )


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


def series_levels(p: Problem, beta: float) -> list[SeriesParams]:
    """Per-level ``(a_j, b_j, t_j)`` of the nested series, outermost first.

    The eliminated coordinate ``piv`` minimizes ``beta * f``, so every
    ``t_j = beta * (f_j - f_piv) >= 0``; ``b_j - a_j`` accumulates ``a_piv``
    and the ``a`` of the inner levels.
    """
    f = p.labels_array()
    a = p.exponents() + 1.0
    piv = int(np.argmin(beta * f))
    d = float(a[piv])
    levels = []
    for j, i in enumerate(i for i in reversed(range(p.k)) if i != piv):
        ai = float(a[i])
        levels.append(SeriesParams(a=ai, b=ai + d, t=beta * float(f[i] - f[piv]), level=j + 1))
        d += ai
    return levels


def series_zeta(p: Problem, beta: float) -> tuple[float, float, float]:
    """``(ln Z, moment, slope)`` from the nested positive-term series.

    Eliminating ``piv`` and expanding each remaining exponential-weighted
    Beta integral gives nested Kummer-type sums of positive terms.  Level
    ``j`` sums ``q_j`` to a cap 14 standard deviations past its bulk, with
    the running prefix sum ``Q`` of the outer indices threaded into every
    inner level; everything is summed in log domain.  Term-wise
    differentiation in beta gives, with ``S`` the total summation index
    under the term measure, ``d ln Z / d beta = f_piv + E[S] / beta`` and
    ``d^2 ln Z / d beta^2 = (E[S(S-1)] - E[S]^2) / beta^2``.  Memory grows as
    the product of the level caps, so keep ``|beta|`` times the label span
    modest.  Raises :class:`ToleranceNotMet` when a level's last terms are
    not negligible.
    """
    if not math.isfinite(beta) or beta == 0.0:
        raise ValueError(f"beta must be finite and nonzero, got {beta!r}")
    gammaln = _scipy("special").gammaln
    f = p.labels_array()
    f_piv = float(f[int(np.argmin(beta * f))])
    levels = series_levels(p, beta)
    caps = [int(math.ceil(lv.t + 14.0 * math.sqrt(lv.t + 8.0) + 60.0)) if lv.t > 0.0 else 0
            for lv in levels]
    value = es = ess1 = None  # per prefix sum Q of the outer indices
    for j in range(len(levels) - 1, -1, -1):
        lv = levels[j]
        q = np.arange(caps[j] + 1)
        u = gammaln(lv.a + q) - gammaln(1.0 + q)
        if lv.t > 0.0:
            u = u + q * math.log(lv.t)
        rows = np.arange(sum(caps[:j]) + 1)
        idx = rows[:, None] + q[None, :]
        inner = -gammaln(lv.b + np.arange(idx[-1, -1] + 1))
        if value is not None:
            inner = inner + value
        terms = u[None, :] + gammaln(lv.b - lv.a + rows)[:, None] + inner[idx]
        top = terms.max(axis=1, keepdims=True)
        w = np.exp(terms - top)
        z = w.sum(axis=1)
        if caps[j] > 0 and (w[:, -3:] / z[:, None]).max() >= _SERIES_TAIL:
            raise ToleranceNotMet(f"series level {lv.level} not converged at {caps[j]} terms")
        inner_es = es[idx] if es is not None else 0.0
        inner_ess1 = ess1[idx] if ess1 is not None else 0.0
        value = np.log(z) + top[:, 0]
        es, ess1 = (
            (w * (q + inner_es)).sum(axis=1) / z,
            (w * (q * (q - 1.0) + 2.0 * q * inner_es + inner_ess1)).sum(axis=1) / z,
        )
    s1, s2 = float(es[0]), float(ess1[0])
    return beta * f_piv + float(value[0]), f_piv + s1 / beta, (s2 - s1 * s1) / (beta * beta)


def kummer_m_log(a: float, b: float, t: float) -> float:
    """``ln M(a; b; t)`` where ``M`` is the confluent hypergeometric series
    ``sum_q (a)_q / (b)_q * t^q / q!``.

    With ``k = 2`` it gives the normalization in closed form:
    ``Z = exp(beta f_2) B(a_1, a_2) M(a_1; a_1 + a_2; beta (f_1 - f_2))``
    with ``a_i = m_i + alpha_i``.

    Requires ``b > a > 0``.  For ``t < 0`` the transformation
    ``M(a; b; t) = exp(t) * M(b - a; b; -t)`` is applied so that all summed
    terms are positive.  Accurate to a relative error of about 1e-13 for
    ``|t| <= 200`` and ``a, b <= 1e4``.
    """
    if not (b > a > 0.0):
        raise ValueError(f"require b > a > 0, got a={a}, b={b}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if t == 0.0:
        return 0.0
    if t < 0.0:
        return t + kummer_m_log(b - a, b, -t)
    if t <= _LINEAR_SUM_MAX_T:
        # All terms positive and bounded by exp(t): safe in linear domain,
        # which keeps the Pochhammer ratios exact to a few ulp.
        term = 1.0
        total = 1.0
        run = 0
        for q in range(_KUMMER_MAX_TERMS):
            term *= (a + q) / (b + q) * t / (q + 1.0)
            total += term
            if term < _KUMMER_EPS * total:
                run += 1
                if run >= _KUMMER_RUN:
                    return math.log(total)
            else:
                run = 0
        raise NoConvergence(f"Kummer series not converged after {_KUMMER_MAX_TERMS} terms")
    # Large t: stream the same sum in log domain.
    log_t = math.log(t)
    log_term = 0.0
    log_total = 0.0
    run = 0
    for q in range(1, _KUMMER_MAX_TERMS):
        log_term += math.log(a + q - 1.0) - math.log(b + q - 1.0) + log_t - math.log(q)
        log_total = np.logaddexp(log_total, log_term)
        if log_term - log_total < math.log(_KUMMER_EPS):
            run += 1
            if run >= _KUMMER_RUN:
                return float(log_total)
        else:
            run = 0
    raise NoConvergence(f"Kummer series not converged after {_KUMMER_MAX_TERMS} terms")
