"""Independent verification paths for the normalization and its moments.

Four routes that share no code with the contour evaluator:

- the tanh-sinh rule (Takahasi & Mori 1974) over the simplex in
  stick-breaking coordinates, summed in log space (small dimension only);
- self-normalized importance sampling from the conjugate proposal with
  weights ``exp(beta * f . theta)``;
- the nested positive-term series for any ``k``: ``ln Z`` and, by term-wise
  differentiation, the moment of ``f . theta`` and its slope in beta;
- the confluent hypergeometric function ``kummer_m_log``, which gives ``Z``
  in closed form for ``k = 2``.

Each reads the problem's own fields, and all four need only numpy and the
standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooHigh, NoConvergence, ToleranceNotMet
from .model import Problem

QUADRATURE_MAX_K = 4
MIN_SAMPLES = 10**3
LOW_ESS = 100.0
_BATCH = 1 << 17
_QUADRATURE_EVALS = 4_000_000  # points summed over all levels
_QUADRATURE_BLOCK = 1 << 16  # points summed at once
_QUADRATURE_REL_TOL = 1e-10
_KUMMER_EPS = 1e-15
_KUMMER_RUN = 3
_KUMMER_MAX_TERMS = 10**6
_KUMMER_RESCALE = 1e280
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


def _labels_and_shapes(p: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Labels ``f`` and shapes ``a = m + alpha``, from the problem's own
    fields rather than the arrays the production path reads."""
    a = np.asarray(p.data.counts, dtype=float) + np.asarray(p.prior.pseudo_counts, dtype=float)
    return np.asarray(p.model.labels, dtype=float), a


def _lgamma(x: np.ndarray) -> np.ndarray:
    """``ln Gamma`` of each (positive) entry of ``x``, by :func:`math.lgamma`."""
    return np.frompyfunc(math.lgamma, 1, 1)(x).astype(float)


def quadrature_zeta(p: Problem, beta: float) -> OracleEstimate:
    """``ln Z`` by the tanh-sinh rule in stick-breaking coordinates.

    ``theta_j = u_j prod_{l<j} (1 - u_l)`` maps the cube onto the simplex,
    and each ``u = sigmoid(pi sinh t)`` on the grid ``t = h n``, ``|t| <=
    t_max``.  The product rule is summed in log space, so endpoint
    singularities and integrands that underflow are ordinary cases.  ``h``
    halves from 1/2 until ``d1^2 / d2``, from the last three levels, is at
    most 1e-11, a tenth of the 1e-10 relative tolerance.  Deterministic;
    raises :class:`ToleranceNotMet` when the point budget runs out or the
    value is not finite.
    """
    k = p.k
    if k > QUADRATURE_MAX_K:
        raise DimensionTooHigh(f"quadrature is limited to k <= {QUADRATURE_MAX_K}, got k={k}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    f, a = _labels_and_shapes(p)
    bf = beta * f
    shift = float(bf.max())
    # End weights below about e^-50 on the smallest exponent.
    t_max = max(3.5, math.asinh(50.0 / (math.pi * float(a.min()))))
    points, logs, h = 0, [], 0.5
    while True:
        t = h * np.arange(-math.floor(t_max / h), math.floor(t_max / h) + 1)
        points += t.size ** (k - 1)
        if points > _QUADRATURE_EVALS:
            raise ToleranceNotMet(f"no estimate within {_QUADRATURE_EVALS} points")
        logs.append(_tanh_sinh_log_sum(t, h, a, bf - shift))
        if not math.isfinite(logs[-1]):
            raise ToleranceNotMet(f"ln Z {logs[-1]!r} is not finite")
        if len(logs) >= 3:
            d1, d2 = abs(logs[-1] - logs[-2]), abs(logs[-2] - logs[-3])
            if (d1 * d1 / d2 if d2 > 0.0 else d1) <= 0.1 * _QUADRATURE_REL_TOL:
                break
        h *= 0.5
    return OracleEstimate(log_value=logs[-1] + shift, std_error=0.0, method="quadrature",
                          samples_or_evals=points)


def _tanh_sinh_log_sum(t, h, a, c) -> float:
    """Log of the product rule on the nodes ``t`` in every coordinate, for
    the integrand ``prod theta_i^(a_i - 1) exp(c . theta)``, summed one block
    of the outermost coordinate at a time."""
    s = np.pi * np.sinh(t)
    lu, l1u = -np.logaddexp(0.0, -s), -np.logaddexp(0.0, s)
    d = a.size - 1
    # Node weight, Jacobian and powers: u_j^a_j (1 - u_j)^(a_{j+1} + ... + a_k).
    rest = np.cumsum(a[::-1])[::-1]
    w = [np.log(h * np.pi * np.cosh(t)) + a[j] * lu + rest[j + 1] * l1u for j in range(d)]
    step = max(1, _QUADRATURE_BLOCK // t.size ** (d - 1))
    parts = []
    for lo in range(0, t.size, step):
        x = lr = 0.0  # log-integrand and log of the stick left, on the block
        for j in range(d):
            sl, shape = slice(lo, lo + step) if j == 0 else slice(None), (-1,) + (1,) * (d - 1 - j)
            x = x + w[j][sl].reshape(shape) + c[j] * np.exp(lu[sl].reshape(shape) + lr)
            lr = lr + l1u[sl].reshape(shape)
        x = x + c[d] * np.exp(lr)
        top = float(np.max(x))
        parts.append(top + math.log(float(np.exp(x - top).sum())))
    top = max(parts)
    return top + math.log(sum(math.exp(v - top) for v in parts))


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
    f, al = _labels_and_shapes(p)
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


def series_zeta(p: Problem, beta: float) -> tuple[float, float, float]:
    """``(ln Z, moment, slope)`` from the nested positive-term series.

    Eliminating the coordinate ``piv`` that minimizes ``beta * f`` and
    expanding each remaining exponential-weighted Beta integral gives nested
    Kummer-type sums of positive terms.  Level ``j``, outermost first, runs
    over the other coordinates in reverse order, with shape ``a_j``, tilt
    ``t_j = beta * (f_j - f_piv) >= 0`` and gap ``b_j - a_j``, which
    accumulates ``a_piv`` and the ``a`` of the inner levels.  Level ``j``
    sums ``q_j`` to a cap 14 standard deviations past its bulk, with the
    running prefix sum ``Q`` of the outer indices threaded into every inner
    level; everything is summed in log domain.  Term-wise differentiation in
    beta gives, with ``S`` the total summation index under the term measure,
    ``d ln Z / d beta = f_piv + E[S] / beta`` and ``d^2 ln Z / d beta^2 =
    (E[S(S-1)] - E[S]^2) / beta^2``.  Memory grows as the product of the
    level caps, so keep ``|beta|`` times the label span modest.  Raises
    ``ValueError`` for a level whose ``b`` rounds onto its ``a``, and
    :class:`ToleranceNotMet` when a level's last terms are not negligible.
    """
    if not math.isfinite(beta) or beta == 0.0:
        raise ValueError(f"beta must be finite and nonzero, got {beta!r}")
    f, a = _labels_and_shapes(p)
    piv = int(np.argmin(beta * f))
    f_piv = float(f[piv])
    outer = [i for i in reversed(range(p.k)) if i != piv]
    shapes, tilts = a[outer], beta * (f[outer] - f_piv)
    gaps = np.cumsum(np.concatenate(([a[piv]], shapes[:-1])))
    if np.any(shapes + gaps == shapes):  # b would lose the gap that Gamma(b - a) reads
        raise ValueError("a level's b = a + (b - a) rounds onto its a")
    caps = [int(math.ceil(t + 14.0 * math.sqrt(t + 8.0) + 60.0)) if t > 0.0 else 0
            for t in tilts.tolist()]
    value = es = ess1 = None  # per prefix sum Q of the outer indices
    for j in range(len(outer) - 1, -1, -1):
        aj, gj, tj = float(shapes[j]), float(gaps[j]), float(tilts[j])
        q = np.arange(caps[j] + 1)
        u = _lgamma(aj + q) - _lgamma(1.0 + q)
        if tj > 0.0:
            u = u + q * math.log(tj)
        rows = np.arange(sum(caps[:j]) + 1)
        idx = rows[:, None] + q[None, :]
        inner = -_lgamma(aj + gj + np.arange(idx[-1, -1] + 1))
        if value is not None:
            inner = inner + value
        terms = u[None, :] + _lgamma(gj + rows)[:, None] + inner[idx]
        top = terms.max(axis=1, keepdims=True)
        w = np.exp(terms - top)
        z = w.sum(axis=1)
        if caps[j] > 0 and (w[:, -3:] / z[:, None]).max() >= _SERIES_TAIL:
            raise ToleranceNotMet(f"series level {j + 1} not converged at {caps[j]} terms")
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
    terms are positive.  The terms after the leading 1 are summed in linear
    scale, divided by their running sum whenever it passes 1e280, whose log
    is carried; with no such rescale the result is ``log1p`` of the sum.
    Accurate to about 1e-15 relative for ``0 < t <= 1e4``; for ``t < 0`` the
    transformation adds an absolute error of about ``2e-16 |t|``.
    Raises :class:`NoConvergence` past a million terms.
    """
    if not (b > a > 0.0):
        raise ValueError(f"require b > a > 0, got a={a}, b={b}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if t < 0.0:
        return t + kummer_m_log(b - a, b, -t)
    term, total, log_scale, run = 1.0, 0.0, 0.0, 0
    for q in range(_KUMMER_MAX_TERMS):
        term *= (a + q) / (b + q) * t / (q + 1.0)
        total += term
        if total > _KUMMER_RESCALE:
            log_scale += math.log(total)
            term, total = term / total, 1.0
        if term <= _KUMMER_EPS * total:
            run += 1
            if run >= _KUMMER_RUN:
                return log_scale + math.log(total) if log_scale else math.log1p(total)
        else:
            run = 0
    raise NoConvergence(f"Kummer series not converged after {_KUMMER_MAX_TERMS} terms")
