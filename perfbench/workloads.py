"""Seeded input generators for the four benchmark workloads.

Every workload is an endless stream of *cycles*. A cycle holds a fixed
number of operations per stratum of the workload's input properties, in a
seeded order, so that every cycle has the same mix of properties and two
seeds differ only inside each stratum. Runs stop at cycle boundaries, which
keeps the measured share of every property, and of every known failure, the
same from run to run.

The cost of a solve is set mostly by ``k`` and by the tilt ``tau = beta *
span`` that the target asks for, so the generators fix ``tau`` per stratum
(a property, like ``k``) and draw everything else from the seed: labels,
counts, pseudo-counts, the label offset and span, the sign of the tilt.
The mix of strata is chosen so that the reported percentiles fall inside a
cluster of operations of one design, not on the edge between two clusters,
where they would jump with the seed.

The package never sees the seed: it receives only the labels, counts,
pseudo-counts and moment targets generated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("update-mix", "sweep-curve", "cli-cold", "edge-mix")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a library call or one CLI command."""

    kind: str
    stratum: str
    labels: tuple[float, ...]
    counts: tuple[int, ...]
    pseudo_counts: tuple[float, ...]
    moment_target: float
    grid: tuple[float, float, int] | None = None
    samples: int = 0
    mc_seed: int = 0
    props: dict = field(default_factory=dict, compare=False)

    @property
    def k(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return sum(self.counts)

    def spec(self) -> dict:
        """The problem as a ``momentbayes`` spec file object."""
        return {
            "labels": list(self.labels),
            "counts": list(self.counts),
            "moment_target": self.moment_target,
            "pseudo_counts": list(self.pseudo_counts),
        }


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[tuple[str, int], ...]  # (stratum, operations per cycle)
    tail_percentile: float  # fixed, so that tail_ms always means the same rank
    deadline_s: float  # an operation still running at the deadline has failed
    trace_cycles: int  # cycles in one traced run (a fixed list: counts repeat)

    @property
    def cycle_len(self) -> int:
        return sum(n for _, n in self.cycle)

    @property
    def min_ops(self) -> int:
        """Whole cycles enough to leave >= 10 samples above the tail percentile."""
        need = math.ceil(10.0 / (1.0 - self.tail_percentile / 100.0) - 1e-9)
        return self.cycle_len * math.ceil(need / self.cycle_len)


# -- primitives -------------------------------------------------------------

def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _int_log_uniform(rng, lo: int, hi: int) -> int:
    return int(round(_log_uniform(rng, lo, hi)))


def _unit_labels(rng, k: int) -> np.ndarray:
    """Positions in [0, 1] with both ends present, so the span is exact.

    Inner labels sit on an even grid jittered by up to a third of a gap:
    random, but without the clustered layouts whose series cost differs
    most from the even one.
    """
    x = np.linspace(0.0, 1.0, k)
    x[1:-1] += rng.uniform(-1.0, 1.0, k - 2) / (3.0 * (k - 1))
    return x


def _tilted_probs(base: np.ndarray, x: np.ndarray, target: float) -> np.ndarray:
    """``base`` exponentially tilted so that its mean of ``x`` is ``target``;
    ``target`` must lie strictly inside (min x, max x)."""

    def tilt(eta):
        z = eta * x
        w = base * np.exp(z - z.max())
        return w / w.sum()

    lo, hi = -1.0, 1.0
    while float(tilt(lo) @ x) > target:
        lo *= 2.0
    while float(tilt(hi) @ x) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(tilt(mid) @ x) < target:
            lo = mid
        else:
            hi = mid
    return tilt(0.5 * (lo + hi))


def _sampled_counts(rng, x, n: int, mean: float, base=None) -> tuple[int, ...]:
    """Counts drawn from a distribution whose mean of ``x`` is ``mean``: a
    random Dirichlet(1) shape, or ``base``, tilted onto the mean."""
    if base is None:
        base = rng.dirichlet(np.ones(len(x)))
    return tuple(int(c) for c in rng.multinomial(n, _tilted_probs(base, x, mean)))


def _f_position(F: float, labels) -> str:
    lo, hi = min(labels), max(labels)
    d = min(F - lo, hi - F) / (hi - lo)
    if d < 0.01:
        return "edge<1%"
    if d < 0.1:
        return "near-edge<10%"
    return "interior"


def _n_bucket(n: int) -> str:
    for top in (12, 40, 120, 300, 1000):
        if n <= top:
            return f"n<={top}"
    return "n>1000"


def _frame(rng, span=None):
    """Random label offset, and a log-uniform span of 0.5-5 unless given."""
    offset = float(rng.uniform(-10.0, 10.0))
    return offset, _log_uniform(rng, 0.5, 5.0) if span is None else span


def _op(kind, stratum, x, counts, pcs, F_unit, frame, *, scale=1.0, grid=None,
        samples=0, mc_seed=0) -> Op:
    """An operation on labels ``(offset + span * x) * scale``; ``F_unit`` and
    the grid ends are positions in the unit label range."""
    offset, span = frame

    def place(u):
        return float((offset + span * u) * scale)

    labels = tuple(place(xi) for xi in x)
    F = place(F_unit)
    pcs = tuple(float(a) for a in pcs)
    props = {
        "k": len(labels),
        "n_bucket": _n_bucket(sum(counts)),
        "label_scale": f"{scale:g}",
        "non_integer_prior": any(not a.is_integer() for a in pcs),
        "F_position": "grid" if grid else _f_position(F, labels),
    }
    if grid is not None:
        grid = (place(grid[0]), place(grid[1]), grid[2])
    return Op(kind, stratum, labels, tuple(counts), pcs, F, grid, samples, mc_seed, props)


def _tilted_target(rng, k, n, pcs, tau, *, min_count=0):
    """Labels, counts and an F that asks for a tilt ``beta * span`` of about
    ``tau`` away from the unconstrained posterior mean.

    Counts come from a random distribution. F is placed by the slope of the
    moment at ``beta = 0``, the posterior variance ``var0`` of ``f . theta``
    in unit labels: ``F ~ mean0 +/- tau * var0``, kept within 15-85 % of the
    label range.
    """
    x = _unit_labels(rng, k)
    counts = _sampled_counts(rng, x, n, rng.uniform(0.3, 0.7))
    counts = tuple(max(c, min_count) for c in counts)
    a = np.asarray(counts, float) + np.asarray(pcs, float)
    w = a / a.sum()
    mean0 = float(w @ x)
    step = tau * float(w @ (x - mean0) ** 2) / (a.sum() + 1.0)
    F_unit = mean0 + step if rng.uniform() < 0.5 else mean0 - step
    if not 0.15 <= F_unit <= 0.85:
        F_unit = 2.0 * mean0 - F_unit
    return x, counts, min(max(F_unit, 0.15), 0.85)


def _update(rng, stratum, k, n, pcs, tau, *, scale=1.0, frame=None):
    x, counts, F_unit = _tilted_target(rng, k, n, pcs, tau)
    return _op("update", stratum, x, counts, pcs, F_unit, frame or _frame(rng), scale=scale)


def _int_pcs(rng, k):
    return rng.integers(1, 4, size=k)


def _frac_pcs(rng, k):
    """Non-integer pseudo-counts in (0.2, 3)."""
    return np.round(rng.uniform(0.2, 3.0, size=k), 3) + 0.0005


def _level(levels, u: float):
    return levels[int(u * len(levels))]


# -- workloads --------------------------------------------------------------

# Operations per k and the tilts they get, in a seeded order. p50 falls
# inside the k = 3, tau = 12 cluster and p90 inside the k = 5 cluster.
UPDATE_TAUS = {
    2: (4.0, 12.0, 12.0, 30.0),
    3: (4.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 30.0),
    4: (4.0, 12.0, 12.0, 12.0, 12.0),
    5: (4.0, 4.0),
    6: (4.0,),
}


def _update_mix(rng, stratum, u):
    # Unit span: the solver brackets in absolute beta = tau / span, so a
    # random span would make the number of evaluations jump from op to op
    # at a fixed tau. edge-mix varies the label scale instead.
    k = int(stratum[1])
    n = _int_log_uniform(rng, 5, 300)
    return _update(rng, stratum, k, n, _int_pcs(rng, k), _level(UPDATE_TAUS[k], u),
                   frame=_frame(rng, 1.0))


SWEEP_STEPS = 5
SWEEP_GRID = (0.2, 0.8)
SWEEP_N = (20, 40)


def _sweep_curve(rng, stratum, u):
    """A sweep of F over 20-80 % of the label range. Labels are evenly
    spaced and the counts are drawn from the maximum-entropy distribution
    with mean at 40 % or 60 % of the range, so that the tilt along the grid,
    and with it the cost of a sweep, is set by k and n. With n <= 40 the
    end points reach ``|beta * span|`` of about 150; larger n would give
    series arrays that outgrow the per-core cache, whose times swing most
    with other load on the machine."""
    k = int(stratum[1])
    n = int(round(SWEEP_N[0] + (SWEEP_N[1] - SWEEP_N[0]) * u))
    x = np.linspace(0.0, 1.0, k)
    mean = 0.4 if rng.uniform() < 0.5 else 0.6
    counts = _sampled_counts(rng, x, n, mean, base=np.ones(k))
    return _op("sweep", stratum, x, counts, np.ones(k), mean, _frame(rng),
               grid=(SWEEP_GRID[0], SWEEP_GRID[1], SWEEP_STEPS))


CLI_MC_SAMPLES = 20000


def _cli_cold(rng, stratum, u):
    # k <= 3 keeps the series arrays small, so peak memory is the import's.
    k = int(rng.integers(2, 4))
    n = _int_log_uniform(rng, 5, 40)
    tau = 2.0 + 18.0 * u
    kw, min_count = {}, 0
    if stratum == "sweep":
        kw["grid"] = (0.2, 0.8, 5)
    elif stratum == "oracle-mc":
        # Small n and tilt keep the importance weights even (high ESS).
        k, n, tau = 3, _int_log_uniform(rng, 5, 15), 2.0 + 6.0 * u
        kw.update(samples=CLI_MC_SAMPLES, mc_seed=int(rng.integers(0, 2**31)))
    elif stratum == "compare":
        min_count = 1  # tilting cannot move zero frequencies
    pcs = _int_pcs(rng, k)
    x, counts, F_unit = _tilted_target(rng, k, n, pcs, tau, min_count=min_count)
    return _op(f"cli-{stratum}", stratum, x, counts, pcs, F_unit, _frame(rng), **kw)


EDGE_TAU = 8.0  # tilt of the answers expected to come back quickly


def _edge_mix(rng, stratum, u):
    if stratum == "nonint-small":
        n = int(round(5.0 * 40.0 ** u))  # 5-200
        return _update(rng, stratum, 2, n, _frac_pcs(rng, 2), EDGE_TAU)
    if stratum == "nonint-underflow":
        # Balanced counts at n >= 1500: the quadrature integrand, about
        # exp(-n H) with entropy H >= 0.64, underflows everywhere.
        n = int(rng.integers(1500, 2001))
        m0 = int(round(n * rng.uniform(0.35, 0.65)))
        F_unit = (n - m0) / n + rng.uniform(-0.02, 0.02)
        return _op("update", stratum, np.array([0.0, 1.0]), (m0, n - m0), _frac_pcs(rng, 2),
                   F_unit, _frame(rng))
    if stratum == "nonint-k3k4":
        k = int(rng.integers(3, 5))
        return _update(rng, stratum, k, _int_log_uniform(rng, 5, 50), _frac_pcs(rng, k), EDGE_TAU)
    if stratum == "nonint-k5":
        return _update(rng, stratum, 5, _int_log_uniform(rng, 5, 200), _frac_pcs(rng, 5), EDGE_TAU)
    if stratum == "scale-1e-4":
        # beta * span = 30 with span <= 5e-4 needs beta >= 6e4, above the
        # absolute cap of 1e4, although the problem is well-posed.
        return _update(rng, stratum, 2, _int_log_uniform(rng, 10, 60), _int_pcs(rng, 2), 30.0,
                       scale=1e-4)
    if stratum in ("scale-1e-1", "scale-1e1"):
        # Unit span before scaling, so that the bracketing probes cost the
        # same from seed to seed. (At 1e2 the first probe's series already
        # faults in fresh pages, whose cost swings with load on the machine.)
        scale = 1e-1 if stratum == "scale-1e-1" else 1e1
        return _update(rng, stratum, 3, _int_log_uniform(rng, 5, 40), _int_pcs(rng, 3), EDGE_TAU,
                       scale=scale, frame=_frame(rng, 1.0))
    if stratum == "scale-1e4":
        # Span >= 2e4, so the first bracketing probe, at beta = 1, has a
        # series parameter t = beta * span >= 2e4.
        return _update(rng, stratum, 3, _int_log_uniform(rng, 5, 40), _int_pcs(rng, 3), EDGE_TAU,
                       scale=1e4, frame=_frame(rng, _log_uniform(rng, 2.0, 5.0)))
    if stratum in ("F-edge", "F-near-edge"):
        # Near the top label F ~ f_max - (A - a_max) / beta with a = m + alpha,
        # so F is placed for a chosen beta * span.
        tau = 2000.0 + 2000.0 * u if stratum == "F-edge" else 100.0
        x = _unit_labels(rng, 3)
        pcs = _int_pcs(rng, 3)
        counts = _sampled_counts(rng, x, _int_log_uniform(rng, 5, 20), 0.5)
        a = np.asarray(counts, float) + pcs
        return _op("update", stratum, x, counts, pcs, 1.0 - float(a[:-1].sum()) / tau, _frame(rng))
    if stratum == "large-n-far":
        # F 30-40 % of the span above the data mean at n >= 2000: a solve
        # takes over 10 s at the seed commit, far from the deadline.
        x = _unit_labels(rng, 3)
        mean = rng.uniform(0.3, 0.45)
        counts = _sampled_counts(rng, x, int(rng.integers(2000, 2501)), mean)
        return _op("update", stratum, x, counts, _int_pcs(rng, 3), mean + 0.3 + 0.1 * u,
                   _frame(rng))
    if stratum == "large-n-near":
        return _update(rng, stratum, 3, int(rng.integers(1000, 2501)), _int_pcs(rng, 3), EDGE_TAU,
                       frame=_frame(rng, 1.0))
    raise ValueError(f"unknown edge-mix stratum {stratum!r}")


SPECS = {
    "update-mix": Workload(
        "update-mix",
        tuple((f"k{k}", len(taus)) for k, taus in UPDATE_TAUS.items()),
        tail_percentile=90.0, deadline_s=10.0, trace_cycles=3),
    "sweep-curve": Workload(
        "sweep-curve",
        # p50 falls among the k = 3 sweeps and p75 among the k = 4 ones.
        (("k3", 4), ("k4", 2)),
        tail_percentile=75.0, deadline_s=20.0, trace_cycles=3),
    "cli-cold": Workload(
        "cli-cold",
        tuple((s, 1) for s in ("update", "compare", "sweep", "oracle-mc", "oracle-quad")),
        tail_percentile=70.0, deadline_s=30.0, trace_cycles=2),
    "edge-mix": Workload(
        "edge-mix",
        # 4 errors within milliseconds, 5 answers within 0.2 s and 11
        # operations cut at the deadline: at the seed commit p50 and p75 both
        # fall among the deadline cuts. The quick answers, about 10 ms each,
        # swing by a third between runs on a shared machine; a p50 there
        # would not repeat within its bound.
        (("nonint-underflow", 1), ("nonint-k5", 1), ("scale-1e-4", 2),
         ("scale-1e-1", 1), ("scale-1e1", 1), ("large-n-near", 1),
         ("nonint-small", 1), ("F-near-edge", 1),
         ("nonint-k3k4", 3), ("scale-1e4", 3), ("F-edge", 3), ("large-n-far", 2)),
        tail_percentile=75.0, deadline_s=0.5, trace_cycles=1),
}

_MAKERS = {"update-mix": _update_mix, "sweep-curve": _sweep_curve,
           "cli-cold": _cli_cold, "edge-mix": _edge_mix}


def cycles(workload: str, seed: int):
    """Endless stream of cycles (lists of :class:`Op`) for ``workload``.

    Strata that share the prefix before ``/`` (for example the same ``k``)
    form a group, and the ops of a group draw their parameter ``u`` by
    Latin hypercube sampling: one draw from each of ``len(group)`` equal
    slices of [0, 1), in a seeded order.
    """
    spec = SPECS[workload]
    make = _MAKERS[workload]
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    slots = [s for s, count in spec.cycle for _ in range(count)]
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(slots):
        groups.setdefault(s.split("/")[0], []).append(i)
    while True:
        u = np.empty(len(slots))
        for members in groups.values():
            u[members] = (rng.permutation(len(members)) + rng.uniform(size=len(members))) / len(members)
        ops = [make(rng, s, float(u[i])) for i, s in enumerate(slots)]
        yield [ops[i] for i in rng.permutation(len(ops))]
