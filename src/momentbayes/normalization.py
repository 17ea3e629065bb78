"""The posterior normalization and its moments from one contour integral.

With ``a_i = m_i + alpha_i``, ``f_top`` maximizing ``beta f`` and ``c_i =
beta (f_i - f_top) <= 0``, the normalization over the simplex is

    Z = exp(beta f_top) prod_i Gamma(a_i) (1/2 pi i) int e^s prod_i (s - c_i)^(-a_i) ds,

summed by the trapezoid rule on ``s(v) = mu + 2 mu (1 - cosh v) + 2 i mu sinh
v`` through the saddle ``mu``, the root of ``sum_i a_i / (mu - c_i) = 1``.
Near ``mu`` this is Weideman's parabola ``mu (1 + i u)^2``; further out it
opens into a wedge that passes each ``c_i`` at a distance in proportion to
``mu - c_i``, so its terms stay below the saddle's even when much weight sits
far below the top (the parabola's do not).  One node set gives ``E[theta_i] =
a_i <1/(s - c_i)>``, the moment ``f_top + <g>`` and its slope ``<(g - <g>)^2
+ g_2>``, with ``<.>`` the node-weighted average, ``f' = f - f_top``, ``g =
sum_i a_i f'_i / (s - c_i)`` and ``g_2 = sum_i a_i f'_i^2 / (s - c_i)^2``.
Weideman & Trefethen, Math. Comp. 76 (2007); SIAM Review 56 (2014).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .model import Problem

_TAIL = 40.0  # the nodes end where the terms fall below e^-40 of the saddle's
_V_MAX = 40.0
_SPACING = math.pi / 4.0 / 6.0 / 3.0  # strip half-width pi/4, sixth of it, 3 nodes
_EMBEDDED_TOL = 1e-13
_HALVINGS = 6


@dataclass(frozen=True)
class LogZeta:
    """``ln Z`` plus the number of contour nodes summed."""

    log_value: float
    terms_used: int


def _saddle(a: list, c: list, lo: float, hi: float) -> float:
    """Root of ``sum_j a_j / (mu - c_j) = 1`` in ``[lo, hi]``: Newton from ``lo``
    on the reciprocal sum, concave and increasing, so no step overshoots."""
    mu = lo
    for _ in range(100):
        r = [x / (mu - y) for x, y in zip(a, c)]
        g = sum(r)
        nxt = min(hi, mu + g * (g - 1.0) / sum(x * x / y for x, y in zip(r, a)))
        if abs(nxt - mu) <= 1e-12 * mu:
            break
        mu = nxt
    return nxt


def _terms(v, mu: float, d: np.ndarray, a: np.ndarray):
    """``z = (s - mu) / (mu - c)`` and each node's log term over the saddle's;
    ``ln(1 + z)`` is formed without rounding ``1 + z`` near the saddle."""
    ds = 2.0 * mu * (-2.0 * np.sinh(0.5 * v) ** 2 + 1j * np.sinh(v))
    z = ds[:, None] / d
    x, y = z.real, z.imag
    log1p_z = 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)
    return z, ds - log1p_z @ a + np.log(np.cosh(v) + 1j * np.sinh(v))


def _contour(a: np.ndarray, c: np.ndarray):
    """``(log_scale, h, w, r)``: ``ln(prod Gamma(a) integral) = log_scale + ln(h
    sum(w).real)`` on nodes ``v_j = h j >= 0``, ``w[j]`` doubled for ``j >= 1``
    to stand for ``-v_j`` too, and ``r[j, i] = 1 / (s_j - c_i)``."""
    mu = _saddle(a.tolist(), c.tolist(), float(a[c == 0.0].sum()), float(a.sum()))
    d = mu - c
    # The Gaussian that fits the terms at the saddle has this width in v.
    h = min(0.5 / (mu * math.sqrt(float((a / (d * d)).sum()))) / 3.0, _SPACING)
    scan = 3.0 * h * 1.25 ** np.arange(math.ceil(math.log(_V_MAX / (3.0 * h), 1.25)) + 1)
    last = np.flatnonzero(_terms(scan, mu, d, a)[1].real > -_TAIL).max(initial=-1)
    if last + 1 == len(scan):
        raise NoConvergence(f"contour terms do not decay (saddle at {mu:.3g})")
    v_max = scan[last + 1]
    for _ in range(_HALVINGS + 1):
        z, log_w = _terms(h * np.arange(int(v_max / h) + 1), mu, d, a)
        w = np.exp(log_w)
        w[1:] *= 2.0
        total = w.real.sum()
        if abs(total - 2.0 * (w[0].real + w[2::2].real.sum())) <= _EMBEDDED_TOL * total:
            log_scale = (sum(math.lgamma(x) for x in a.tolist()) + mu
                         - float(a @ np.log(d)) + math.log(mu / math.pi))
            return log_scale, h, w, 1.0 / (d * (1.0 + z))
        h *= 0.5
    raise NoConvergence(f"contour sum not converged at {2 * len(w) - 1} nodes")


def _evaluate(p: Problem, beta: float):
    """``(ln Z, means, moment, slope, nodes)`` at ``beta`` from one node set."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    f = p.labels_array()
    a = p.exponents() + 1.0
    top = int(np.argmax(beta * f))
    fs = f - f[top]
    log_scale, h, w, r = _contour(a, beta * fs)
    total = float(w.real.sum())
    means = a * (w @ r).real / total
    m = float(fs @ means)
    g = r @ (a * fs)
    slope = float((w @ ((g - m) ** 2 + (r * r) @ (a * fs * fs))).real) / total
    log_z = beta * float(f[top]) + log_scale + math.log(h * total)
    return log_z, means, float(f[top]) + m, slope, 2 * len(w) - 1


def log_zeta(p: Problem, beta: float) -> LogZeta:
    """``ln Z(beta)`` for a validated problem."""
    log_value, *_, nodes = _evaluate(p, beta)
    return LogZeta(log_value=log_value, terms_used=nodes)


def posterior_mean(p: Problem, beta: float) -> np.ndarray:
    """Posterior mean of ``theta``."""
    return _evaluate(p, beta)[1]


def moment_of_f(p: Problem, beta: float) -> float:
    """``E[sum_i f_i theta_i] = d ln Z / d beta``."""
    return _evaluate(p, beta)[2]


def variance_of_f(p: Problem, beta: float) -> float:
    """Variance of ``sum_i f_i theta_i``: the beta-slope of :func:`moment_of_f`."""
    return _evaluate(p, beta)[3]


def moment_and_slope(p: Problem, beta: float) -> tuple[float, float]:
    """Moment and slope; only the solver calls it (``perfbench`` counts it)."""
    _, _, moment, slope, _ = _evaluate(p, beta)
    return moment, slope
