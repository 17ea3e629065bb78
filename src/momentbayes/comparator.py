"""Exponentially tilted empirical distribution, and its distance from the
constrained posterior means.

The large-deviation route estimates the outcome distribution by the sample
frequencies ``nu_i = m_i / n`` and tilts them onto the moment constraint:

    theta*_i = nu_i exp(eta f_i) / sum_j nu_j exp(eta f_j),

with the scalar ``eta`` chosen so that ``sum_i f_i theta*_i = F`` (solved as
the tilt ``eta (f_max - f_min)`` on the solver's unit-span labels, to its
tolerance).  This is the forward projection ``argmin KL(theta || nu)`` of the
frequencies onto the constraint.  It treats frequencies as probabilities and
admits no fluctuations.  The posterior means do not tend to it as the sample
grows: they tend to the constrained maximum-likelihood point, the reverse
projection ``argmin KL(nu || theta)``.  The comparison report quantifies the
difference, which at large ``n`` is the gap between the two projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import normalization, solver
from .errors import MomentOutOfRange, NoData, ZeroSupport
from .model import CountData, Problem

FINITE_SAMPLE_N = 100


@dataclass(frozen=True)
class TiltedEmpirical:
    """Tilted-frequency solution: ``theta*_i proportional to nu_i e^{eta f_i}``."""

    frequencies: tuple[float, ...]
    eta: float
    probabilities: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonReport:
    me: solver.MEPosterior
    tilted: TiltedEmpirical
    difference: tuple[float, ...]
    l1: float
    linf: float
    annotation: str | None

    @property
    def beta(self) -> float:
        return self.me.beta

    @property
    def eta(self) -> float:
        return self.tilted.eta


def empirical_frequencies(data: CountData) -> np.ndarray:
    """Sample frequencies ``nu_i = m_i / n``; undefined without data."""
    if data.n == 0:
        raise NoData("no observations: frequencies are undefined")
    return np.asarray(data.counts, dtype=float) / data.n


def solve_tilt(nu, f, F: float) -> TiltedEmpirical:
    """Solve the tilt ``eta`` so the tilted frequencies hit the moment target."""
    nu = np.asarray(nu, dtype=float)
    f = np.asarray(f, dtype=float)
    if nu.shape != f.shape or nu.ndim != 1:
        raise ValueError(f"frequency/label shapes differ: {nu.shape} vs {f.shape}")
    if not (np.all(nu >= 0.0) and abs(nu.sum() - 1.0) <= 1e-9):
        raise ValueError(f"frequencies must be a probability vector, got {nu}")
    if not np.isfinite(f).all():
        raise ValueError(f"labels must be finite, got {f}")
    F = float(F)
    on = nu > 0.0
    lo, hi = f[on].min(), f[on].max()
    freqs = tuple(float(x) for x in nu)
    if lo == hi == F:
        # All frequency sits on the target's label value: nothing to tilt.
        return TiltedEmpirical(freqs, 0.0, freqs)
    if not (f.min() < F < f.max()):
        raise MomentOutOfRange(f"target {F} must lie strictly inside ({f.min()}, {f.max()})")
    if not (lo < F < hi):
        raise ZeroSupport(f"target {F} is outside ({lo}, {hi}) spanned by outcomes with "
                          f"nonzero frequency: the tilt cannot move zero frequencies")

    d, span = normalization.unit_span(f, F)
    d, nu_on = d[on], nu[on]  # zero frequencies stay zero

    def newton(t, first):
        z = t * d
        w = nu_on * np.exp(z - z.max())
        p = w / w.sum()
        return p, (float(p @ (d - p @ d) ** 2),), p

    t, _, p = solver.solve_increasing(newton, d, guess=0.0)
    probs = np.zeros_like(nu)
    probs[on] = p
    return TiltedEmpirical(freqs, t / span, tuple(float(x) for x in probs))


def compare(p: Problem, beta_cap: float = math.inf) -> ComparisonReport:
    """Full posterior update next to the tilted-frequency solution."""
    nu = empirical_frequencies(p.data)
    me = solver.full_update(p, beta_cap)
    tilted = solve_tilt(nu, p.arrays[0], p.moment_target)
    diff = np.asarray(me.means) - np.asarray(tilted.probabilities)
    annotation = None
    if np.any(nu == 0.0) or p.data.n < FINITE_SAMPLE_N:
        annotation = (
            f"frequencies from n={p.data.n} draws are used as probabilities"
            + (", including exact zeros that stay zero under tilting"
               if np.any(nu == 0.0) else "")
            + f"; the tilted solution ignores sampling fluctuations at n < {FINITE_SAMPLE_N}"
        )
    return ComparisonReport(
        me=me,
        tilted=tilted,
        difference=tuple(float(d) for d in diff),
        l1=float(np.abs(diff).sum()),
        linf=float(np.abs(diff).max()),
        annotation=annotation,
    )
