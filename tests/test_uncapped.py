"""The multiplier solve has no cap unless the caller sets one: well-posed
problems arbitrarily close to the edge of the label range solve, and a cap the
caller sets is a check on the solved tilt."""

import math
import types

import mpmath as mp
import numpy as np
import pytest

from momentbayes import (compare, evaluate, full_update, make_problem, normalization,
                         solve_beta_detailed, sweep)
from momentbayes import solver
from momentbayes.errors import Diverged
from momentbayes.solver import TOL, solve_increasing

from conftest import DEMO_COUNTS, DEMO_LABELS, near_edge_problems, saddle_point_tilt

MAX_EVALS = 8


@pytest.fixture
def tilts(monkeypatch):
    """Records the tilt of each solver evaluation."""
    calls = []
    inner = normalization.moment_and_slope

    def recording(*args):
        calls.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(normalization, "moment_and_slope", recording)
    return calls


def assert_solved(res, tilts, max_evals=MAX_EVALS):
    f = np.asarray(res.problem.model.labels)
    span = float(f.max() - f.min())
    assert res.residual <= TOL * span
    assert res.diagnostics.evaluations == len(tilts) <= max_evals
    assert all(math.isfinite(t) for t in tilts)


class TestSolveIncreasing:
    @staticmethod
    def tanh_from_flat_tail(xs):
        # A two-label tilt, p = ((1 - t)/2, (1 + t)/2) on d = (-0.75, 0.25)
        # with t = tanh(x - 50): its moment (t - 0.5)/2 vanishes at t = 0.5.
        # At the guess 0, t is -1.0 in floating point, so A underflows to 0.
        def newton(x):
            xs.append(x)
            t = math.tanh(x - 50.0)
            return np.array([(1.0 - t) / 2.0, (1.0 + t) / 2.0]), (1.0 - t * t) / 2.0, None
        return newton

    def test_flat_tail_without_cap(self):
        xs = []
        x, diag, _ = solve_increasing(self.tanh_from_flat_tail(xs), np.array([-0.75, 0.25]),
                                      guess=0.0)
        assert x == pytest.approx(50.0 + math.atanh(0.5), abs=1e-12)
        assert all(math.isfinite(v) for v in xs)
        assert diag.evaluations == len(xs) <= 30

    @pytest.mark.parametrize("guess", [-800.0, 800.0])
    def test_all_weight_on_an_edge(self, guess):
        # Logistic weights on d = (-0.5, 0.5), for which psi = x.  At |x| =
        # 800 the weight off the near edge underflows to 0, and psi is -inf
        # below the root and inf above it.  The slope stays finite there, so
        # it is psi that makes the step infinite: the step goes to the
        # bracket's midpoint in asinh scale instead, which halves asinh |x|
        # per evaluation until Newton takes over.
        xs = []

        def newton(x):
            xs.append(x)
            e = math.exp(-abs(x))
            far, near = e / (1.0 + e), 1.0 / (1.0 + e)
            p = np.array([near, far] if x < 0.0 else [far, near])
            return p, far * near or 1.0, None

        x, diag, _ = solve_increasing(newton, np.array([-0.5, 0.5]), guess=guess)
        assert all(math.isfinite(v) for v in xs)
        assert diag.evaluations == len(xs) <= 8
        assert abs(x) <= 1e-15 and diag.residual <= TOL

    def test_flat_tail_under_a_cap(self, tilts):
        # The demo at F = 2.99999 lies on the moment's flat tail, at a tilt of
        # about 3.0e6: a cap just above it changes nothing, one just below
        # refuses the same solve.
        p = make_problem(DEMO_LABELS, DEMO_COUNTS, 2.99999)
        beta, diag, _ = solve_beta_detailed(p)
        tau = beta * 2.0
        assert tau == pytest.approx(3.0e6, rel=1e-2)
        assert solve_beta_detailed(p, beta_cap=tau * (1.0 + 1e-9))[:2] == (beta, diag)
        tilts.clear()
        with pytest.raises(Diverged):
            solve_beta_detailed(p, beta_cap=tau * (1.0 - 1e-9))
        assert len(tilts) == diag.evaluations

    def test_unevaluated_side_is_infinite(self, demo):
        # The demo's solve approaches its answer from below only, under a
        # cap or not.
        for cap in (math.inf, 1e6):
            beta, diag, _ = solve_beta_detailed(demo, beta_cap=cap)
            assert diag.bracket[0] <= beta and diag.bracket[1] == math.inf


def test_near_edge_problems_solve(tilts):
    problems = list(near_edge_problems(200, 14))
    assert len(problems) == 192
    for p in problems:
        tilts.clear()
        res = full_update(p)
        assert_solved(res, tilts, max_evals=7)
        # A cap is a check on the solved tilt: just above it the result is
        # the same to the bit, just below it the solve is refused.
        labels = p.model.labels
        tau = abs(res.beta) * (max(labels) - min(labels))
        capped = full_update(p, beta_cap=tau * (1.0 + 1e-9))
        assert (capped.beta, capped.log_zeta, capped.means, capped.diagnostics.evaluations,
                capped.diagnostics.seed) == (res.beta, res.log_zeta, res.means,
                                             res.diagnostics.evaluations, res.diagnostics.seed)
        with pytest.raises(Diverged):
            full_update(p, beta_cap=tau * (1.0 - 1e-9))


def test_newton_cycle_across_a_bend(tilts):
    # 126540 counts against none and a pseudo-count of 0.015: near tau =
    # 1.27e5 the moment switches between two modes, and Newton on the moment
    # itself jumped to and fro across the bend until its evaluations ran out.
    # The logit residual is straight enough there for Newton to converge.
    p = make_problem((0.2681653458130509, 0.26816919710002074), (126540, 0),
                     0.26816534773093276, (0.018218330743103826, 0.0146305365707073))
    res = full_update(p)
    assert_solved(res, tilts, max_evals=7)
    assert res.beta * (p.model.labels[1] - p.model.labels[0]) == pytest.approx(1.272e5, rel=1e-3)
    # The seed's next saddle-point term outgrows the means it corrects here,
    # so the seed stays at the saddle-point tilt; a seed with the term taken
    # in costs 8 evaluations.
    assert res.diagnostics.seed == pytest.approx(saddle_point_tilt(p), rel=1e-10)


def test_seed_newton_steps_near_an_edge(monkeypatch):
    # The seed steps Newton on the logit of its saddle equation, in the logit
    # of its unknown, where the residual is close to linear next to either
    # pole: no bracket and no bisection creeping toward the pole, which took
    # a median of 32 iterations and up to 99 here.  Each evaluation forms the
    # shares of the way to the two poles from two math.exp calls, so the
    # evaluations are counted through the solver's math.  The seeds also take
    # the solves below 1.3 evaluations on average (1.44 with the bracketed seed).
    problems = [p for seed in range(14, 24) for p in near_edge_problems(200, seed)]
    counts = []

    def counting(x):
        counts[-1] += 1
        return math.exp(x)

    monkeypatch.setattr(solver, "math", types.SimpleNamespace(**{**vars(math), "exp": counting}))
    for p in problems:
        f, a, _ = p.arrays
        counts.append(0)
        solver._seed(normalization.unit_span(f, p.moment_target)[0], a)
    monkeypatch.undo()
    assert len(problems) == 1954
    steps = [c // 2 - 1 for c in counts]  # the last evaluation takes no step
    assert min(steps) >= 0 and max(steps) <= 10
    solves = [full_update(p).diagnostics.evaluations for p in problems]
    assert sum(solves) / len(solves) <= 1.3


TOP = [3.0 - 1e-5, 3.0 - 1e-7, 3.0 - 1e-9, 3.0 - 1e-12, math.nextafter(3.0, 0.0)]
BOTTOM = [1.0 + 1e-5, 1.0 + 1e-7, 1.0 + 1e-9, 1.0 + 1e-12, math.nextafter(1.0, 2.0)]


class TestDemoAtTheEdge:
    @pytest.mark.parametrize("target", TOP + BOTTOM)
    def test_full_update(self, tilts, target):
        res = full_update(make_problem(DEMO_LABELS, DEMO_COUNTS, target))
        assert_solved(res, tilts)
        # Off the near label, E[theta_j] tends to a_j / (beta (f_near - f_j)).
        f, a = np.asarray(DEMO_LABELS), np.asarray(DEMO_COUNTS) + 1.0
        near = 2 if target > 2.0 else 0
        tau = res.beta * 2.0
        for j in range(3):
            if j != near:
                asymptote = a[j] / (res.beta * (f[near] - f[j]))
                assert abs(res.means[j] / asymptote - 1.0) <= 30.0 / abs(tau) + 1e-14

    @pytest.mark.parametrize("target", TOP + BOTTOM)
    def test_compare(self, target):
        report = compare(make_problem(DEMO_LABELS, DEMO_COUNTS, target))
        f = np.asarray(DEMO_LABELS)
        assert abs(float(f @ np.asarray(report.me.means)) - target) <= 2.0 * TOL
        assert abs(float(f @ np.asarray(report.tilted.probabilities)) - target) <= 2.0 * TOL

    @pytest.mark.parametrize("lo, hi", [(TOP[0], TOP[-1]), (BOTTOM[-1], BOTTOM[0])])
    def test_sweep(self, tilts, lo, hi):
        points = sweep(make_problem(DEMO_LABELS, DEMO_COUNTS, 2.3), lo, hi, 5)
        assert all(pt.converged for pt in points)
        betas = [pt.beta for pt in points]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        assert len(tilts) <= MAX_EVALS * len(points)
        assert all(math.isfinite(t) for t in tilts)


@pytest.mark.parametrize("mult, tilt", [(5e4, 1.2116e6), (5e8, 1.2116e10)])
def test_demo_with_many_counts(tilts, mult, tilt):
    res = full_update(make_problem(DEMO_LABELS, [int(c * mult) for c in DEMO_COUNTS], 2.3))
    assert_solved(res, tilts)
    assert res.beta * 2.0 == pytest.approx(tilt, rel=1e-4)


@pytest.mark.parametrize("count", [10**18, 10**100, 10**199, 10**250, 10**305],
                         ids=["1e18", "1e100", "1e199", "1e250", "1e305"])
def test_one_huge_count_ends_typed(count):
    # Next to a pole the seed's denominators 1 + x d_i cancelled, and a count
    # of 1e199 to 1e305 on the bottom label ended in a ZeroDivisionError.  As
    # sums of the distances to the two poles they do not.  On the middle and
    # top labels the contour's tail bound lost the huge label's line to
    # rounding, so the pass ended too early and failed its check.  Each
    # placement solves where the huge label and one end label alone meet F:
    # beta = c / 0.7 when the top label takes the rest, -c / 1.3 when the
    # bottom one does.
    for counts, beta in (([count, 2, 7], count / 0.7), ([11, count, 7], count / 0.7),
                         ([11, 2, count], -count / 1.3)):
        res = full_update(make_problem(DEMO_LABELS, counts, 2.3))
        assert res.residual <= 2.0 * TOL
        assert res.beta == pytest.approx(beta, rel=1e-9)


def two_outcome_reference(a1, a2, tau):
    """``ln Z``, ``E[theta_1]`` and the variance of ``theta_2`` for labels (0, 1)
    at the tilt ``tau`` in 50 digits: ``Z = e^tau B(a1, a2) M(a1; A; -tau)``
    and ``d/dtau M(a; b; -tau) = -(a / b) M(a + 1; b + 1; -tau)``."""
    with mp.workdps(50):
        A, t = mp.mpf(a1) + a2, mp.mpf(tau)
        m0, m1, m2 = (mp.hyp1f1(a1 + j, A + j, -t) for j in range(3))
        r1 = a1 / A * m1 / m0
        r2 = a1 * (a1 + 1) / (A * (A + 1)) * m2 / m0
        return float(t + mp.log(mp.beta(a1, a2)) + mp.log(m0)), float(r1), float(r2 - r1 * r1)


@pytest.mark.parametrize("tau", [1e6, 1e9, 1e12, 1e14])
@pytest.mark.parametrize("counts, pseudo", [((11, 7), (1.0, 1.0)), ((0, 3), (0.5, 2.0)),
                                            ((1000, 10), (0.01, 1.0))])
def test_two_outcome_against_kummer(tilts, tau, counts, pseudo):
    p = make_problem((0.0, 1.0), counts, 0.5, pseudo)
    log_z, bottom, var = two_outcome_reference(counts[0] + pseudo[0], counts[1] + pseudo[1], tau)
    ev = evaluate(p, tau)
    assert ev.log_z == pytest.approx(log_z, rel=1e-15)
    assert ev.means[0] == pytest.approx(bottom, rel=1e-14)
    assert ev.moment == pytest.approx(1.0 - bottom, abs=1e-15)
    assert ev.slope == pytest.approx(var, rel=1e-12)
    # Solving back from the moment: the target F = 1 - E[theta_1] holds
    # E[theta_1] to about 1e-16 / E[theta_1] relative, and so the tilt.
    target = 1.0 - bottom
    res = full_update(make_problem((0.0, 1.0), counts, target, pseudo))
    assert_solved(res, tilts)
    assert res.beta == pytest.approx(tau, rel=1e-10 + 4e-16 / (1.0 - target))
