"""Domain types and closed-form (no-constraint) posterior quantities.

The inference problem is a categorical model with ``k`` outcomes carrying
numeric labels ``f_i``, observed counts ``m_i`` (``n`` draws total), a
Dirichlet-style prior given by pseudo-counts ``alpha_i`` (all 1 for the
uniform prior), and a target value ``F`` for the posterior expectation of
``sum_i f_i * theta_i``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateLabels,
    LengthMismatch,
    MomentOutOfRange,
    NonPositivePseudoCount,
    OutOfSupport,
)

SIMPLEX_ATOL = 1e-12


def _floats(xs, what: str) -> tuple[float, ...]:
    """``xs`` as floats; an integer past the float range is a ``ValueError``."""
    try:
        return tuple(float(x) for x in xs)
    except OverflowError:
        raise ValueError(f"{what} must not exceed the largest float") from None


@dataclass(frozen=True)
class OutcomeModel:
    """The outcome labels ``f_1..f_k``."""

    labels: tuple[float, ...]

    def __init__(self, labels) -> None:
        labels = _floats(labels, "labels")
        if len(labels) < 2:
            raise ValueError(f"need at least 2 outcomes, got {len(labels)}")
        if not all(math.isfinite(x) for x in labels):
            raise ValueError("labels must be finite")
        if not math.isfinite(max(labels) - min(labels)):
            raise ValueError("the span of the labels must be finite")
        object.__setattr__(self, "labels", labels)

    @property
    def k(self) -> int:
        return len(self.labels)

    @property
    def degenerate(self) -> bool:
        """True when all labels are equal, so the moment carries no information."""
        return min(self.labels) == max(self.labels)


@dataclass(frozen=True)
class CountData:
    """Observed counts per outcome. ``n == 0`` (no data) is allowed."""

    counts: tuple[int, ...]

    def __init__(self, counts) -> None:
        out = []
        for c in counts:
            if c in (math.inf, -math.inf):
                raise ValueError(f"counts must be finite, got {c!r}")
            ci = int(c)
            if ci != c:
                raise ValueError(f"counts must be integers, got {c!r}")
            if ci < 0:
                raise ValueError(f"counts must be nonnegative, got {c!r}")
            if ci > sys.float_info.max:
                raise ValueError("counts must not exceed the largest float")
            out.append(ci)
        object.__setattr__(self, "counts", tuple(out))

    @property
    def n(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class PriorSpec:
    """Per-outcome pseudo-counts; all ones is the uniform prior on the simplex."""

    pseudo_counts: tuple[float, ...]

    def __init__(self, pseudo_counts) -> None:
        pcs = _floats(pseudo_counts, "pseudo-counts")
        for a in pcs:
            if not (a > 0.0) or not math.isfinite(a):
                raise NonPositivePseudoCount(f"pseudo-counts must be > 0, got {a!r}")
        object.__setattr__(self, "pseudo_counts", pcs)

    @classmethod
    def flat(cls, k: int) -> "PriorSpec":
        return cls((1.0,) * k)


@dataclass(frozen=True)
class Problem:
    """A fully validated inference problem."""

    model: OutcomeModel
    data: CountData
    prior: PriorSpec
    moment_target: float

    def __post_init__(self) -> None:
        k = self.model.k
        if len(self.data.counts) != k or len(self.prior.pseudo_counts) != k:
            raise LengthMismatch(
                f"labels/counts/pseudo-counts lengths differ: "
                f"{k}/{len(self.data.counts)}/{len(self.prior.pseudo_counts)}"
            )
        F = self.moment_target
        if not math.isfinite(F):
            raise MomentOutOfRange(f"moment target must be finite, got {F!r}")
        lo, hi = min(self.model.labels), max(self.model.labels)
        if self.model.degenerate:
            if F != lo:
                raise DegenerateLabels(
                    f"all labels equal {lo}; a moment target of {F} is unsatisfiable"
                )
        elif not (lo < F < hi):
            raise MomentOutOfRange(
                f"moment target {F} must lie strictly inside ({lo}, {hi})"
            )
        try:
            self.arrays
        except OverflowError:
            raise ValueError("ln Gamma of a shape m + alpha exceeds the largest float") from None

    @property
    def k(self) -> int:
        return self.model.k

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Labels ``f``, shapes ``a = m + alpha`` and ``sum_i ln Gamma(a_i)``,
        formed once per problem, when it is built; the arrays are read-only."""
        f = np.asarray(self.model.labels, dtype=float)
        a = np.asarray(self.data.counts, dtype=float) + np.asarray(self.prior.pseudo_counts)
        f.flags.writeable = a.flags.writeable = False
        return f, a, sum(math.lgamma(x) for x in a.tolist())


@dataclass(frozen=True)
class SimplexPoint:
    """A point ``theta`` on the probability simplex."""

    theta: tuple[float, ...]

    def __init__(self, theta) -> None:
        th = tuple(float(x) for x in theta)
        if any(x < 0.0 or not math.isfinite(x) for x in th):
            raise ValueError(f"coordinates must be finite and >= 0, got {th}")
        if abs(sum(th) - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"coordinates sum to {sum(th)!r}, not 1")
        object.__setattr__(self, "theta", th)


def make_problem(labels, counts, moment_target, pseudo_counts=None) -> Problem:
    """Convenience constructor; ``pseudo_counts`` defaults to the flat prior."""
    model = OutcomeModel(labels)
    prior = PriorSpec.flat(model.k) if pseudo_counts is None else PriorSpec(pseudo_counts)
    (target,) = _floats((moment_target,), "the moment target")
    return Problem(model, CountData(counts), prior, target)


def log_unnormalized_density(p: Problem, beta: float, theta: SimplexPoint) -> float:
    """Log of the unnormalized posterior density at ``theta``.

    Returns ``sum_i [(m_i + alpha_i - 1) ln theta_i + beta f_i theta_i]``.
    A zero coordinate contributes 0 when its exponent is exactly 0
    (continuous extension) and -inf when the exponent is positive; a
    negative exponent at a zero coordinate is outside the support.
    """
    if not isinstance(theta, SimplexPoint):
        theta = SimplexPoint(theta)
    e = (p.arrays[1] - 1.0).tolist()
    f = p.model.labels
    if len(theta.theta) != p.k:
        raise LengthMismatch(f"theta has length {len(theta.theta)}, expected {p.k}")
    total = 0.0
    for ei, fi, ti in zip(e, f, theta.theta):
        if ti == 0.0:
            if ei < 0.0:
                raise OutOfSupport(
                    f"theta coordinate 0 with exponent {ei} < 0 is outside the support"
                )
            if ei > 0.0:
                total = -math.inf
                continue
            # exponent exactly 0: 0 * ln 0 := 0
        else:
            total += ei * math.log(ti)
        total += beta * fi * ti
    return total


def bayes_posterior_mean(p: Problem) -> np.ndarray:
    """Posterior mean with no moment constraint: ``(m_i + alpha_i) / (n + sum alpha)``."""
    a = p.arrays[1]
    return a / a.sum()
