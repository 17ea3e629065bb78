"""Shared fixtures: the three-outcome demo problem and randomized instances."""

import math

import numpy as np
import pytest

from momentbayes import make_problem
from momentbayes.errors import MomentOutOfRange

# Demo problem: three outcome kinds labeled 1, 2, 3; a sample of 20 draws
# with counts (11, 2, 7); target mean 2.3; uniform prior.
DEMO_LABELS = (1.0, 2.0, 3.0)
DEMO_COUNTS = (11, 2, 7)
DEMO_TARGET = 2.3

# Independently verified reference solution of the demo problem (solved to
# high precision with an external root-finder over quadrature moments).
DEMO_BETA = 14.1166
DEMO_ZETA = 1874.1247
DEMO_MEANS = (0.2942, 0.1115, 0.5942)
DEMO_TILTED = (0.3015, 0.0971, 0.6015)
DEMO_FREQS = (0.55, 0.10, 0.35)
DEMO_BAYES = (12.0 / 23.0, 3.0 / 23.0, 8.0 / 23.0)
DEMO_BAYES_MOMENT = 42.0 / 23.0


@pytest.fixture
def demo():
    return make_problem(DEMO_LABELS, DEMO_COUNTS, DEMO_TARGET)


def random_problem(rng, k=None, max_count=7, label_span=1.5):
    """A random valid problem with integer counts and a flat prior."""
    if k is None:
        k = int(rng.integers(2, 5))
    labels = np.sort(rng.uniform(0.0, label_span, size=k))
    while labels[-1] - labels[0] < 1e-3:  # keep the moment identifiable
        labels = np.sort(rng.uniform(0.0, label_span, size=k))
    counts = rng.integers(0, max_count + 1, size=k)
    lo, hi = labels[0], labels[-1]
    target = lo + (hi - lo) * rng.uniform(0.15, 0.85)
    return make_problem(labels, counts, target)


def near_edge_problems(n, seed):
    """Problems with F within 1e-12 to 0.3 of the span from an edge; the few
    whose F rounds onto the edge label are invalid and left out."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(2, 8))
        scale = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        offset = scale * rng.uniform(-1e5, 1e5) if rng.uniform() < 0.5 else 0.0
        x = np.sort(rng.uniform(0.0, 1.0, k))
        x[0], x[-1] = 0.0, 1.0
        counts = [int(math.exp(rng.uniform(0.0, math.log(1e7)))) if rng.uniform() < 0.8 else 0
                  for _ in range(k)]
        pseudo = np.exp(rng.uniform(math.log(0.01), math.log(2.0), k))
        gap = math.exp(rng.uniform(math.log(1e-12), math.log(0.3)))
        u = 1.0 - gap if rng.uniform() < 0.5 else gap
        try:
            yield make_problem(offset + scale * x, counts, offset + scale * u, pseudo)
        except MomentOutOfRange:
            pass


def extreme_problems(n, seed):
    """Problems at the edges of the input range: k 2-4, sorted labels in (-1,
    1), each count log-uniform up to 1e250 with probability 0.3 (else 0-49),
    each pseudo-count log-uniform on 1e-40-3 with probability 0.4 (else 1),
    and F at a log-uniform gap of 1e-15 to 0.3 of the span from a random edge.
    The few whose F rounds onto the edge label are invalid and left out."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(2, 5))
        labels = np.sort(rng.uniform(-1.0, 1.0, k))
        counts = [int(10.0 ** rng.uniform(0.0, 250.0)) if rng.uniform() < 0.3
                  else int(rng.integers(0, 50)) for _ in range(k)]
        pseudo = [10.0 ** rng.uniform(-40.0, math.log10(3.0)) if rng.uniform() < 0.4 else 1.0
                  for _ in range(k)]
        gap = (labels[-1] - labels[0]) * 10.0 ** rng.uniform(-15.0, math.log10(0.3))
        target = labels[0] + gap if rng.uniform() < 0.5 else labels[-1] - gap
        try:
            yield make_problem(labels, counts, target, pseudo)
        except MomentOutOfRange:
            pass


def saddle_point_tilt(p):
    """The multiplier of the constrained maximum of ``sum_i a_i ln theta_i``:
    ``theta_i = a_i / (A - t d_i)`` meets ``F`` (and then sums to 1) on the
    labels ``d = (f - F) / span``; by bisection, in problem units."""
    f, a = np.asarray(p.model.labels), np.asarray(p.data.counts) + np.asarray(p.prior.pseudo_counts)
    span = float(f.max() - f.min())
    d = (f - p.moment_target) / span
    lo, hi = a.sum() / d.min(), a.sum() / d.max()
    for _ in range(200):
        t = 0.5 * (lo + hi)
        lo, hi = (t, hi) if float(d @ (a / (a.sum() - t * d))) < 0.0 else (lo, t)
    return t / span
