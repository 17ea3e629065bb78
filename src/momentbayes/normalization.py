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

Everything is formed in real arithmetic from ``x + i y = (s - mu) / (mu -
c_i)`` and ``q = x (2 + x) + y^2 = |1 + x + i y|^2 - 1`` per node and label.
A term over the saddle's has log-modulus ``Re(s - mu) - sum_i a_i
log1p(q) / 2 + ln(cosh 2v) / 2`` and phase ``Im(s - mu) - sum_i a_i
atan2(y, 1 + x) + atan(tanh v)``, and ``1 / (s - c_i) = ((1 + x) - i y) /
((mu - c_i)(1 + q))``.  The scan that decides where the nodes end needs only
the log-modulus.
Weideman & Trefethen, Math. Comp. 76 (2007); SIAM Review 56 (2014).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence
from .model import Problem

_TAIL = 40.0  # the nodes end where the terms fall below e^-40 of the saddle's
_V_MAX = 40.0
_SPACING = math.pi / 4.0 / 6.0 / 3.0  # strip half-width pi/4, sixth of it, 3 nodes
_EMBEDDED_TOL = 1e-13
_HALVINGS = 6


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


def _nodes(v, mu: float, d: np.ndarray, a: np.ndarray):
    """``(log_modulus, im, x, y, q)`` at nodes ``v``: each term's log-modulus
    over the saddle's, ``im = Im(s - mu)``, ``x + i y = (s - mu) / (mu - c)``
    and ``q = |1 + x + i y|^2 - 1``, formed without rounding ``1 + x`` near
    the saddle."""
    sh = np.sinh(0.5 * v)
    re, im = -4.0 * mu * (sh * sh), 2.0 * mu * np.sinh(v)
    x, y = re[:, None] / d, im[:, None] / d
    q = x * (2.0 + x) + y * y
    return re - 0.5 * (np.log1p(q) @ a) + 0.5 * np.log(np.cosh(2.0 * v)), im, x, y, q


def _contour(a: np.ndarray, c: np.ndarray, log_gamma: float):
    """``(log_scale, h, w, wi, r, ri)``: ``ln(prod Gamma(a) integral) = log_scale
    + ln(h sum(w))`` on nodes ``v_j = h j >= 0``, with ``w + i wi`` the node
    weights, doubled for ``j >= 1`` to stand for ``-v_j`` too, and ``r + i ri
    = 1 / (s - c)``.  ``log_gamma`` is ``sum_i ln Gamma(a_i)``."""
    mu = _saddle(a.tolist(), c.tolist(), float(a[c == 0.0].sum()), float(a.sum()))
    d = mu - c
    # The Gaussian that fits the terms at the saddle has this width in v.
    h = min(0.5 / (mu * math.sqrt(float((a / (d * d)).sum()))) / 3.0, _SPACING)
    scan = 3.0 * h * 1.25 ** np.arange(math.ceil(math.log(_V_MAX / (3.0 * h), 1.25)) + 1)
    last = np.flatnonzero(_nodes(scan, mu, d, a)[0] > -_TAIL).max(initial=-1)
    if last + 1 == len(scan):
        raise NoConvergence(f"contour terms do not decay (saddle at {mu:.3g})")
    v_max = scan[last + 1]
    for _ in range(_HALVINGS + 1):
        v = h * np.arange(int(v_max / h) + 1)
        log_modulus, im, x, y, q = _nodes(v, mu, d, a)
        modulus = np.exp(log_modulus)
        modulus[1:] *= 2.0
        xp = 1.0 + x
        phase = im - np.arctan2(y, xp) @ a + np.arctan(np.tanh(v))
        w = modulus * np.cos(phase)
        total = w.sum()
        if abs(total - 2.0 * (w[0] + w[2::2].sum())) <= _EMBEDDED_TOL * total:
            log_scale = log_gamma + mu - float(a @ np.log(d)) + math.log(mu / math.pi)
            den = d * (1.0 + q)
            return log_scale, h, w, modulus * np.sin(phase), xp / den, -y / den
        h *= 0.5
    raise NoConvergence(f"contour sum not converged at {2 * len(w) - 1} nodes")


class Evaluation(NamedTuple):
    """One contour pass at ``beta``: ``ln Z``, the means, the moment, its
    slope and the number of nodes summed."""

    log_z: float
    means: np.ndarray
    moment: float
    slope: float
    nodes: int


def _evaluate(f: np.ndarray, a: np.ndarray, log_gamma: float, beta: float) -> Evaluation:
    """:class:`Evaluation` at ``beta`` from one node set, for labels ``f``,
    shapes ``a = m + alpha`` and ``log_gamma = sum_i ln Gamma(a_i)``."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    top = int(np.argmax(beta * f))
    fs = f - f[top]
    log_scale, h, w, wi, r, ri = _contour(a, beta * fs, log_gamma)
    total = float(w.sum())
    means = a * (w @ r - wi @ ri) / total
    m = float(fs @ means)
    af = a * fs
    af2 = af * fs
    g, gi = r @ af - m, ri @ af
    # The slope <(g - m)^2 + g_2>, with w, g - m and r split into Re and Im.
    s_re = g * g - gi * gi + (r * r - ri * ri) @ af2
    s_im = 2.0 * (g * gi + (r * ri) @ af2)
    slope = float(w @ s_re - wi @ s_im) / total
    log_z = beta * float(f[top]) + log_scale + math.log(h * total)
    return Evaluation(log_z, means, float(f[top]) + m, slope, 2 * len(w) - 1)


def evaluate(p: Problem, beta: float) -> Evaluation:
    """``ln Z``, the posterior means, the moment ``E[f . theta]``, its
    beta-slope (the variance of ``f . theta``) and the node count at ``beta``,
    all from one contour pass."""
    return _evaluate(*p.arrays, beta)


def moment_and_slope(d: np.ndarray, a: np.ndarray, log_gamma: float,
                     tau: float) -> Evaluation:
    """The :class:`Evaluation` on the solver's unit-span labels ``d`` at the
    tilt ``tau``, of which the solver steps on the moment and its slope and
    keeps the rest for its answer; only the solver calls it (``perfbench``
    counts it)."""
    return _evaluate(d, a, log_gamma, tau)
