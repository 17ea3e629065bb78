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

Each term is formed from ``x + i y = (s - mu) / (mu - c_i)`` and ``q = x (2 +
x) + y^2 = |1 + x + i y|^2 - 1`` per node and label.  Over the saddle's it has
the real log-modulus ``Re(s - mu) - sum_i a_i log1p(q) / 2 + ln(cosh 2v) / 2``
and phase ``Im(s - mu) - sum_i a_i atan2(y, 1 + x) + atan(tanh v)``; the node
weights and ``1 / (s - c_i) = ((1 + x) - i y) / ((mu - c_i)(1 + q))`` are
complex.  A closed-form bound on the log-modulus, concave in ``v``, gives the
``v`` past which every term is below e^-40 of the saddle's, and the sum ends
at the first node past it.
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
_MAX_CELLS = 1 << 22  # nodes x labels in one pass, about 300 MB of arrays


def _saddle(a: list, c: list) -> tuple[float, float]:
    """Root ``mu`` of ``sum_j a_j / (mu - c_j) = 1``, and ``sum_j a_j / (mu -
    c_j)^2`` at the last iterate, within ``1e-12 mu`` of it.  Newton on the
    reciprocal sum, concave and increasing, starts from Jensen's lower bound
    ``max(sum_{c_j = 0} a_j, A + a.c / A)``, so no step overshoots; ``A =
    sum_j a_j`` bounds the root above."""
    hi = sum(a)
    mu = max(sum(x for x, y in zip(a, c) if y == 0.0), hi + sum(x * y for x, y in zip(a, c)) / hi)
    for _ in range(100):
        r = [x / (mu - y) for x, y in zip(a, c)]
        g = sum(r)
        s2 = sum(x * x / y for x, y in zip(r, a))
        nxt = min(hi, mu + g * (g - 1.0) / s2)
        if abs(nxt - mu) <= 1e-12 * mu:
            break
        mu = nxt
    return nxt, s2


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


def _reach(mu: float, d: np.ndarray, a: np.ndarray, h: float) -> float:
    """A ``v`` past which no term's log-modulus reaches ``-_TAIL``: the bound
    below meets ``-_TAIL`` at most ``h`` before it.

    With ``u = mu / d <= 1``, ``t = sinh^2(v/2)`` and ``x = 4 u t``, ``1 + q =
    1 - 2 (1 - 2u) x + 2 x^2``.  So ``-ln(1 + q) / 2`` starts at 0 with slope
    ``1 - 2u``, is concave up to its maximum ``kappa = -ln(1 - (1 - 2u)^2 / 2)
    / 2`` and falls after it: it is at most ``min((1 - 2u) x, kappa)``, and at
    most 0 for ``u >= 1/2``.  With ``ln cosh 2v <= 2v``, no term's log-modulus
    exceeds ``-4 mu t + v + sum_{u_i < 1/2} a_i min(4 u_i (1 - 2u_i) t,
    kappa_i)``, which is concave in ``v`` and 0 at ``v = 0``, so it falls
    through ``-_TAIL`` once.  With the labels split at the current ``v`` into
    those whose ``min`` is the line and those at their ``kappa``, the bound is
    at most ``-rate t + v + K``, ``rate = 4 mu - sum_line 4 a_i u_i (1 -
    2u_i) > 0`` (``sum_i a_i u_i = mu`` at the saddle) and ``K = sum_kappa
    a_i kappa_i``, with equality there; the next ``v`` is ``2 asinh(sqrt((_TAIL
    + K + v) / rate))``.  From ``_V_MAX`` the iteration falls onto the
    crossing from above, contracting by more than 40; :class:`NoConvergence`
    when the crossing lies past ``_V_MAX``."""
    lines = []  # (4 a_i u_i (1 - 2u_i), a_i kappa_i) of the labels with u_i < 1/2
    for di, ai in zip(d.tolist(), a.tolist()):
        u = mu / di
        b = 1.0 - 2.0 * u
        if b > 0.0:
            lines.append((4.0 * ai * u * b, -0.5 * ai * math.log1p(-0.5 * b * b)))
    v_max, above = _V_MAX, math.inf
    while above - v_max > h:
        t = math.sinh(0.5 * v_max) ** 2
        rate, k_bound = 4.0 * mu, 0.0
        for slope, cap in lines:
            if slope * t < cap:
                rate -= slope
            else:
                k_bound += cap
        if not rate > 0.0:
            raise NoConvergence(f"contour tail bound does not fall (saddle at {mu:.3g})")
        above, v_max = v_max, 2.0 * math.asinh(math.sqrt((_TAIL + k_bound + v_max) / rate))
        if v_max > _V_MAX:
            raise NoConvergence(f"contour terms do not decay (saddle at {mu:.3g})")
    return v_max


def _contour(a: np.ndarray, c: np.ndarray, log_gamma: float):
    """``(log_scale, h, w, r, total)``: ``ln(prod Gamma(a) integral) =
    log_scale + ln(h total)`` on nodes ``v_j = h j`` from 0 to the first past
    :func:`_reach`'s bound, with ``w`` the complex node weights, doubled for
    ``j >= 1`` to stand for ``-v_j`` too, ``r = 1 / (s - c)`` and ``total =
    Re sum(w (r @ a))``, the integral by parts: unlike ``Re sum(w)``, it holds
    no O(1) terms that cancel when ``a`` is tiny.  ``log_gamma`` is ``sum_i ln
    Gamma(a_i)``."""
    mu, s2 = _saddle(a.tolist(), c.tolist())
    d = mu - c
    # The Gaussian that fits the terms at the saddle has this width in v.
    h = min(0.5 / (mu * math.sqrt(s2)) / 3.0, _SPACING)
    v_max = _reach(mu, d, a, h)
    for _ in range(_HALVINGS + 1):
        n = int(v_max / h) + 2
        if n * len(a) > _MAX_CELLS:
            raise NoConvergence(f"contour pass of {2 * n - 1} nodes exceeds the cap")
        v = h * np.arange(n)
        log_modulus, im, x, y, q = _nodes(v, mu, d, a)
        xp = 1.0 + x
        w = np.exp(log_modulus + 1j * (im - np.arctan2(y, xp) @ a + np.arctan(np.tanh(v))))
        w[1:] *= 2.0
        r = (xp - 1j * y) / (d * (1.0 + q))
        rho = (w * (r @ a)).real
        total = float(rho.sum())
        if abs(total - 2.0 * (rho[0] + rho[2::2].sum())) <= _EMBEDDED_TOL * total:
            log_scale = log_gamma + mu - float(a @ np.log(d)) + math.log(mu / math.pi)
            return log_scale, h, w, r, total
        h *= 0.5
    raise NoConvergence(f"contour sum not converged at {2 * n - 1} nodes")


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
    log_scale, h, w, r, total = _contour(a, beta * fs, log_gamma)
    means = a * (w @ r).real / total
    m = float(fs @ means)
    g = r @ (a * fs) - m
    slope = float((w @ (g * g + (r * r) @ (a * fs * fs))).real) / total
    log_z = beta * float(f[top]) + log_scale + math.log(h * total)
    return Evaluation(log_z, means, float(f[top]) + m, slope, 2 * len(w) - 1)


def unit_span(f: np.ndarray, F: float) -> tuple[np.ndarray, float]:
    """Labels ``(f - F) / span`` (``f - F`` is 0 where ``span = f_max - f_min``
    is) and ``span``: their multiplier is the tilt ``multiplier * span``, free
    of label shift and scale, and ``f_i - F`` is exact when an offset dominates."""
    span = float(f.max() - f.min())
    return (f - F) / (span or 1.0), span


def _in_problem_units(ev: Evaluation, F: float, span: float, beta: float) -> Evaluation:
    """``ev`` of the :func:`unit_span` labels at ``beta * span``, on ``f`` at ``beta``."""
    return ev._replace(log_z=ev.log_z + beta * F, moment=F + span * ev.moment,
                       slope=ev.slope * span * span)


def evaluate(p: Problem, beta: float) -> Evaluation:
    """``ln Z``, the posterior means, the moment ``E[f . theta]``, its
    beta-slope (the variance of ``f . theta``) and the node count at ``beta``,
    all from the solver's contour pass on the :func:`unit_span` labels."""
    f, a, log_gamma = p.arrays
    d, span = unit_span(f, p.moment_target)
    return _in_problem_units(_evaluate(d, a, log_gamma, beta * span), p.moment_target, span, beta)


def moment_and_slope(d: np.ndarray, a: np.ndarray, log_gamma: float,
                     tau: float) -> Evaluation:
    """The :class:`Evaluation` on the solver's unit-span labels ``d`` at the
    tilt ``tau``: the solver's call per step, which ``perfbench`` counts."""
    return _evaluate(d, a, log_gamma, tau)
