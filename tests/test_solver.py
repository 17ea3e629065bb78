import math

import mpmath as mp
import numpy as np
import pytest

from momentbayes import (
    bayes_posterior_mean,
    compare,
    evaluate,
    full_update,
    make_problem,
    montecarlo_moments,
    normalization,
    solve_beta,
    solve_beta_detailed,
    sweep,
)
from momentbayes.errors import DegenerateLabels, Diverged, NoConvergence
from momentbayes.solver import MAX_EVALS, solve_increasing
from momentbayes.solver import TOL as UNIT_TOL

from conftest import (
    DEMO_BAYES,
    DEMO_BAYES_MOMENT,
    DEMO_BETA,
    DEMO_COUNTS,
    DEMO_LABELS,
    DEMO_MEANS,
    DEMO_TARGET,
    DEMO_ZETA,
    near_edge_problems,
    random_problem,
    saddle_point_tilt,
)

TOL = 1e-10


@pytest.fixture
def evaluations(monkeypatch):
    """Records each solver evaluation of the moment and its slope."""
    calls = []
    inner = normalization.moment_and_slope

    def counting(*args):
        calls.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(normalization, "moment_and_slope", counting)
    return calls


class TestSolveBeta:
    def test_demo_reference_multiplier(self, demo):
        assert solve_beta(demo) == pytest.approx(DEMO_BETA, abs=5e-4)

    def test_bayes_fixed_point(self):
        p = make_problem(DEMO_LABELS, DEMO_COUNTS, DEMO_BAYES_MOMENT)
        assert solve_beta(p) == 0.0

    def test_two_outcome_against_analytic_moment(self):
        # No data, f=(0,1): the posterior is the exponential tilt of the
        # uniform density on (0,1), whose mean e^b/(e^b-1) - 1/b is solved
        # independently at high precision.
        p = make_problem((0, 1), (0, 0), 0.75)
        with mp.workdps(40):
            ref = mp.findroot(
                lambda b: mp.e**b / (mp.e**b - 1) - 1 / b - mp.mpf("0.75"), mp.mpf(3)
            )
        assert solve_beta(p) == pytest.approx(float(ref), abs=1e-7)

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_problem(rng)
            beta = solve_beta(p)
            assert abs(evaluate(p, beta).moment - p.moment_target) <= TOL

    def test_antisymmetric_case_returns_zero(self):
        p = make_problem((-1, 1), (4, 4), 0.0)
        assert abs(solve_beta(p)) <= TOL

    def test_scale_equivariance(self):
        rng = np.random.default_rng(32)
        for lam in (0.5, 2.0, 7.5):
            p = random_problem(rng)
            q = make_problem(
                lam * np.asarray(p.model.labels),
                p.data.counts,
                lam * p.moment_target,
                p.prior.pseudo_counts,
            )
            b1 = solve_beta(p)
            b2 = solve_beta(q)
            assert abs(b2 - b1 / lam) <= 10 * TOL
            np.testing.assert_allclose(
                np.asarray(full_update(q).means),
                np.asarray(full_update(p).means),
                atol=1e-9,
            )

    def test_degenerate_labels_rejected(self):
        p = make_problem((2, 2, 2), (1, 1, 1), 2.0)
        with pytest.raises(DegenerateLabels):
            solve_beta(p)

    def test_diverged_at_cap_not_capped(self, demo):
        p = make_problem(DEMO_LABELS, DEMO_COUNTS, 2.9)
        with pytest.raises(Diverged):
            solve_beta(p, beta_cap=50.0)

    def test_deterministic(self, demo):
        assert solve_beta(demo) == solve_beta(demo)

    def test_diagnostics(self, demo):
        # Under a cap, the side the evaluations never reached stays infinite
        # and the evaluated side still bounds beta.
        beta, diag, _ = solve_beta_detailed(demo, beta_cap=1e6)
        assert diag.evaluations > 0
        assert diag.bracket[0] <= beta <= diag.bracket[1] == math.inf
        assert math.isfinite(diag.bracket[0])
        assert diag.residual <= TOL
        # The saddle-point tilt is within 1.5 of beta on the demo; the next
        # term of the saddle-point expansion brings the seed within 0.01.
        assert 0.01 < abs(saddle_point_tilt(demo) - beta) <= 1.5
        assert abs(diag.seed - beta) <= 0.01

    def test_seed_accuracy(self):
        # Everyday problems: k 2-6, n 5-300, integer pseudo-counts, F at 15-85 %
        # of the label range.  The seed's next saddle-point term takes its
        # median error from that of the saddle-point tilt, 6e-3 of the solved
        # multiplier, to 2e-5.
        rng = np.random.default_rng(21)
        seed_errors, saddle_errors = [], []
        for _ in range(100):
            k = int(rng.integers(2, 7))
            labels = np.sort(rng.uniform(0.0, 10.0, k))
            counts = rng.multinomial(int(rng.integers(5, 301)), rng.dirichlet(np.ones(k)))
            pseudo = rng.integers(1, 4, k).astype(float)
            target = labels[0] + rng.uniform(0.15, 0.85) * (labels[-1] - labels[0])
            p = make_problem(labels, counts, target, pseudo)
            beta, diag, _ = solve_beta_detailed(p)
            seed_errors.append(abs(diag.seed - beta) / abs(beta))
            saddle_errors.append(abs(saddle_point_tilt(p) - beta) / abs(beta))
        assert np.median(seed_errors) <= 1e-4
        assert np.median(saddle_errors) >= 1e-3

    @pytest.mark.parametrize("offset", [-2.5, 0.75, 1e6, -1e6, 1e7])
    def test_shift_invariance(self, offset):
        # Labels and target shifted together; the target is the one the
        # shifted float actually holds, so the two problems are the same.
        target = (2.3 + offset) - offset
        p = make_problem(DEMO_LABELS, DEMO_COUNTS, target)
        q = make_problem([x + offset for x in DEMO_LABELS], DEMO_COUNTS, target + offset)
        res_p, res_q = full_update(p), full_update(q)
        assert res_q.residual <= TOL
        assert res_q.beta == pytest.approx(res_p.beta, rel=1e-10)
        np.testing.assert_allclose(res_q.means, res_p.means, rtol=0, atol=1e-12)
        assert res_q.log_zeta - res_p.log_zeta == pytest.approx(
            res_p.beta * offset, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("lam", [1e-4, 1e-2, 1e2, 1e4])
    def test_scale_invariance_across_orders(self, demo, lam):
        p = make_problem([lam * x for x in DEMO_LABELS], DEMO_COUNTS, lam * 2.3)
        res_p, ref = full_update(p), full_update(demo)
        assert res_p.beta * lam == pytest.approx(ref.beta, rel=1e-10)
        np.testing.assert_allclose(res_p.means, ref.means, rtol=0, atol=1e-12)

    def test_far_target_at_large_tilt(self):
        # Large-sample targets far from the data mean, well-posed, at tilts
        # beta * span of about 6955, 10432 and 11340 (beta about 13,700 in
        # the first).
        cases = [
            ((0.0, 0.253, 0.506), (495, 1645, 246), (1.0, 1.0, 2.0), 0.7252 * 0.506, 6955),
            ((8.6686, 10.4872, 11.4562), (781, 1325, 50), (2.0, 3.0, 1.0), 10.9023, 10432),
            ((-9.6097, -9.3238, -9.0915), (774, 1611, 78), (3.0, 2.0, 3.0), -9.1985, 11340),
        ]
        for labels, counts, pseudo, target, tilt in cases:
            res = full_update(make_problem(labels, counts, target, pseudo_counts=pseudo))
            assert res.residual <= TOL
            assert res.diagnostics.evaluations <= 5
            assert res.beta * (max(labels) - min(labels)) == pytest.approx(tilt, rel=1e-4)

    @pytest.mark.parametrize("labels, counts, target", [
        (DEMO_LABELS, DEMO_COUNTS, 2.3),
        (DEMO_LABELS, tuple(5 * c for c in DEMO_COUNTS), 2.3),
        (DEMO_LABELS, tuple(125 * c for c in DEMO_COUNTS), 2.3),
        (DEMO_LABELS, DEMO_COUNTS, 2.99),
        ((0.0, 1.0, 2.0, 3.0), (5, 3, 8, 2), 2.6),
    ])
    def test_evaluation_budget(self, evaluations, labels, counts, target):
        p = make_problem(labels, counts, target)
        beta, diag, _ = solve_beta_detailed(p)
        assert diag.evaluations == len(evaluations) <= 5
        assert abs(evaluate(p, beta).moment - target) <= TOL

    def test_budget_runs_out(self):
        # Logistic weights on d = (-0.5, 0.5), for which psi = x - 1, with a
        # slope reported 1e6 times too steep: every Newton step creeps a
        # millionth of the way to the root, inside the bracket, until the
        # budget is spent.
        calls = []

        def newton(x):
            calls.append(x)
            e = math.exp(x - 1.0)
            p = np.array([1.0, e]) / (1.0 + e)
            return p, 1e6 * p[0] * p[1], None

        with pytest.raises(NoConvergence, match="within 200 evaluations"):
            solve_increasing(newton, np.array([-0.5, 0.5]), guess=0.0)
        assert len(calls) == MAX_EVALS
        assert calls == sorted(calls) and calls[-1] < 1e-3

    def test_bracket_closes_at_float_resolution(self):
        # The weights jump from one edge to the other at x = 0.3, so the
        # residual is infinite at every iterate: halving the bracket in asinh
        # scale, then plainly, closes it on two adjacent floats.
        calls = []

        def newton(x):
            calls.append(x)
            p = np.array([1.0, 0.0]) if x < 0.3 else np.array([0.0, 1.0])
            return p, 0.0, None

        with pytest.raises(NoConvergence, match="no float left"):
            solve_increasing(newton, np.array([-0.5, 0.5]), guess=0.0)
        below = max(x for x in calls if x < 0.3)
        assert math.nextafter(below, 1.0) == min(x for x in calls if x >= 0.3)
        assert len(calls) <= 70

    def test_bracket_closes_on_a_met_residual(self):
        # psi = -1e-13 below x = 0.3 and 1e-13 from it on, with a slope of
        # 1e-14: the residual meets TOL everywhere, but no Newton step is
        # negligible, so the solve ends where the bracket has no float left,
        # at its last iterate.
        calls = []

        def newton(x):
            calls.append(x)
            e = math.exp(-1e-13 if x < 0.3 else 1e-13)
            p = np.array([1.0, e]) / (1.0 + e)
            return p, 1e-14 * p[0] * p[1], None

        x, diag, _ = solve_increasing(newton, np.array([-0.5, 0.5]), guess=0.0)
        assert x == calls[-1] and diag.evaluations == len(calls) <= 70
        assert math.nextafter(diag.bracket[0], 1.0) == diag.bracket[1]
        assert diag.residual <= UNIT_TOL

    def test_divergence_decided_at_the_cap(self, evaluations):
        # The tilt here is about 3.0e6: past the cap the caller set.
        with pytest.raises(Diverged):
            solve_beta(make_problem(DEMO_LABELS, DEMO_COUNTS, 2.99999), beta_cap=1e6)
        assert 1 <= len(evaluations) <= 3


class TestFullUpdate:
    def test_demo_state(self, demo):
        res = full_update(demo)
        assert res.beta == pytest.approx(DEMO_BETA, abs=5e-4)
        assert math.exp(res.log_zeta) == pytest.approx(DEMO_ZETA, rel=2e-3)
        np.testing.assert_allclose(res.means, DEMO_MEANS, atol=5e-4)
        assert res.residual <= TOL
        assert abs(sum(res.means) - 1.0) <= 1e-10
        assert res.variance_of_f > 0.0
        assert all(type(x) is float for x in res.means)
        f = np.asarray(demo.model.labels)
        assert float(f @ np.asarray(res.means)) == pytest.approx(2.3, abs=10 * TOL)

    def test_degenerate_constraint_is_minimal_update(self):
        p = make_problem((2, 2, 2), (3, 1, 2), 2.0)
        res = full_update(p)
        assert res.beta == 0.0
        np.testing.assert_allclose(res.means, bayes_posterior_mean(p), rtol=1e-14)
        assert all(type(x) is float for x in res.means)
        assert res.variance_of_f == 0.0

    def test_equal_labels_with_tiny_shapes_are_conjugate(self):
        # The vacuous constraint needs no contour pass: the closed form is
        # exact where the contour sum would not converge.
        p = make_problem((2, 2, 2), (0, 0, 0), 2.0, pseudo_counts=(1e-5,) * 3)
        res = full_update(p)
        assert res.beta == 0.0
        assert res.residual == 0.0
        a = [1e-5] * 3
        log_z = sum(math.lgamma(x) for x in a) - math.lgamma(sum(a))
        assert res.log_zeta == pytest.approx(log_z, rel=1e-14)
        assert res.means == (1.0 / 3.0,) * 3

    def test_inconsistent_means_are_refused(self, monkeypatch):
        # Scaling the means leaves the logit residual as it was, so the
        # solve converges and the mean-sum gate is what refuses the answer.
        inner = normalization.moment_and_slope

        def scaled(*args):
            ev = inner(*args)
            return ev._replace(means=ev.means * (1.0 + 1e-9))

        monkeypatch.setattr(normalization, "moment_and_slope", scaled)
        with pytest.raises(NoConvergence, match="inconsistent solution"):
            full_update(make_problem(DEMO_LABELS, DEMO_COUNTS, DEMO_TARGET))

    @pytest.mark.parametrize("labels", [(2, 2, 2), DEMO_LABELS])
    @pytest.mark.parametrize("call", [full_update, compare])
    def test_nonpositive_cap_rejected(self, labels, call):
        # Equal labels need no solve, but the cap is checked all the same.
        with pytest.raises(ValueError, match="cap must be positive"):
            call(make_problem(labels, (3, 1, 2), 2.0), beta_cap=-1.0)

    def test_one_contour_pass_per_evaluation(self, demo, monkeypatch):
        # One contour pass per solver evaluation; the means, ln Z and the
        # variance come from the one at the answer.
        calls = []
        inner = normalization._evaluate

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(normalization, "_evaluate", counting)
        res = full_update(demo)
        assert len(calls) == res.diagnostics.evaluations

    def test_assembled_from_the_solvers_last_evaluation(self, demo, monkeypatch):
        # The solver keeps the evaluation at its answer: the posterior state
        # is that evaluation, on the unit-span labels, in the caller's units.
        seen = []
        inner = normalization.moment_and_slope

        def keeping(*args):
            seen.append(inner(*args))
            return seen[-1]

        monkeypatch.setattr(normalization, "moment_and_slope", keeping)
        res = full_update(demo)
        last, span = seen[-1], max(DEMO_LABELS) - min(DEMO_LABELS)
        assert res.means == tuple(float(x) for x in last.means)
        assert res.log_zeta == last.log_z + res.beta * DEMO_TARGET
        assert res.variance_of_f == last.slope * span * span

    def test_large_sample_far_target(self):
        # n = 2199 with the target far above the data mean: most of the
        # weight sits on outcomes far below the top label at the solution,
        # where the means must still sum to 1 within the residual check.
        labels = (-7.920514232900427, -6.925451278312845, -6.369948041237661)
        p = make_problem(labels, (941, 1256, 2), -6.867347571576896,
                         pseudo_counts=(2.0, 1.0, 3.0))
        res = full_update(p)
        assert res.residual <= TOL
        assert abs(sum(res.means) - 1.0) <= 1e-14

    def test_five_outcome_non_integer_prior(self):
        # Beyond the quadrature oracle's k <= 4: cross-checked by
        # importance sampling at the solved multiplier.
        p = make_problem((0.0, 0.3, 0.5, 0.8, 1.0), (3, 0, 2, 5, 1), 0.6,
                         pseudo_counts=(0.5, 0.3, 1.7, 0.9, 0.2))
        res = full_update(p)
        assert res.residual <= TOL
        assert abs(sum(res.means) - 1.0) <= 1e-10
        assert res.variance_of_f > 0.0
        mm = montecarlo_moments(p, res.beta, 10**6, seed=8)
        assert abs(res.log_zeta - mm.estimate.log_value) <= 4.0 * mm.estimate.std_error
        for i in range(p.k):
            assert abs(res.means[i] - mm.means[i]) <= 4.0 * mm.mean_std_errors[i]

    def test_no_data_pure_constraint_case(self):
        # Only the prior and the moment constraint; cross-checked by
        # importance sampling at the solved multiplier.
        p = make_problem((1, 2, 3), (0, 0, 0), 2.3)
        res = full_update(p)
        mm = montecarlo_moments(p, res.beta, 10**7, seed=7)
        for i in range(3):
            assert abs(res.means[i] - mm.means[i]) <= 3.0 * mm.mean_std_errors[i]


class TestSweep:
    def test_demo_grid_hits_reference(self, demo):
        points = sweep(demo, 1.9, 2.9, 11)
        assert len(points) == 11
        assert points[0].F == 1.9 and points[-1].F == 2.9
        at_target = points[4]  # grid value 2.3
        assert at_target.F == pytest.approx(2.3, abs=1e-12)
        assert at_target.beta == pytest.approx(DEMO_BETA, abs=5e-4)

    def test_strictly_increasing(self, demo):
        points = sweep(demo, 1.2, 2.9, 25)
        betas = [pt.beta for pt in points if pt.converged]
        assert len(betas) == 25
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))

    def test_each_point_equals_a_cold_solve(self, demo):
        # Every point starts from its own seed, so it is a cold solve.
        points = sweep(demo, 2.0, 2.8, 9)
        for pt in points:
            q = make_problem(DEMO_LABELS, DEMO_COUNTS, pt.F)
            cold = solve_beta(q)
            assert abs(evaluate(q, pt.beta).moment - pt.F) <= TOL
            assert pt.beta == cold

    def test_diverged_points_recorded_not_fatal(self, demo):
        points = sweep(demo, 1.5, 2.9, 8, beta_cap=50.0)
        assert any(not pt.converged for pt in points)
        assert any(pt.converged for pt in points)
        for pt in points:
            if not pt.converged:
                assert math.isnan(pt.beta)
            else:
                assert abs(pt.beta) < 50.0

    def test_order_matches_grid(self, demo):
        points = sweep(demo, 2.0, 2.5, 6)
        fs = [pt.F for pt in points]
        assert fs == sorted(fs)
        assert fs[0] == 2.0 and fs[-1] == 2.5

    def test_equal_labels_rejected(self):
        with pytest.raises(DegenerateLabels):
            sweep(make_problem((2, 2, 2), (1, 1, 1), 2.0), 1.5, 2.5, 3)

    def test_range_validation(self, demo):
        with pytest.raises(ValueError):
            sweep(demo, 0.5, 2.5, 5)
        with pytest.raises(ValueError):
            sweep(demo, 2.5, 2.0, 5)
        with pytest.raises(ValueError):
            sweep(demo, 2.0, 2.5, 1)


@pytest.mark.parametrize("lam", [1e6, 1e9])
@pytest.mark.parametrize("spans", [0.0, 1e5])
class TestUnitSpanTolerance:
    """The residual tolerance is stated on the unit-span moment, so label scale
    and offset change neither the answer nor whether there is one."""

    @staticmethod
    def scaled(lam, spans, target=DEMO_TARGET):
        offset = spans * lam * (max(DEMO_LABELS) - min(DEMO_LABELS))
        return make_problem([lam * x + offset for x in DEMO_LABELS], DEMO_COUNTS,
                            lam * target + offset), offset

    def test_full_update(self, demo, lam, spans):
        p, _ = self.scaled(lam, spans)
        res, ref = full_update(p), full_update(demo)
        span = 2.0 * lam
        assert res.beta * lam == pytest.approx(ref.beta, rel=1e-8)
        np.testing.assert_allclose(res.means, ref.means, rtol=0, atol=1e-9)
        assert res.residual <= UNIT_TOL * span
        assert res.variance_of_f / lam**2 == pytest.approx(ref.variance_of_f, rel=1e-7)
        assert res.diagnostics.evaluations <= 5

    def test_sweep(self, lam, spans):
        p, offset = self.scaled(lam, spans)
        demo_points = sweep(make_problem(DEMO_LABELS, DEMO_COUNTS, DEMO_TARGET), 1.5, 2.5, 3)
        points = sweep(p, lam * 1.5 + offset, lam * 2.5 + offset, 3)
        assert all(pt.converged for pt in points)
        for pt, ref in zip(points, demo_points):
            assert pt.beta * lam == pytest.approx(ref.beta, rel=1e-8, abs=1e-9)


def test_public_evaluator_describes_the_solved_posterior():
    # The solver evaluates on unit-span labels; the public evaluator on the
    # caller's labels at the returned beta must give the same posterior, for
    # label scales over 12 orders of magnitude and offsets up to 1e5 spans.
    rng = np.random.default_rng(61)
    for _ in range(300):
        k = int(rng.integers(2, 7))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        offset = scale * rng.choice([0.0, 1.0]) * rng.uniform(-1e5, 1e5)
        labels = offset + scale * np.sort(rng.uniform(0.0, 1.0, size=k))
        lo, hi = labels[0], labels[-1]
        p = make_problem(labels, rng.integers(0, 20, size=k),
                         lo + (hi - lo) * rng.uniform(0.15, 0.85), rng.uniform(0.2, 3.0, size=k))
        res = full_update(p)
        ev = evaluate(p, res.beta)
        assert abs(ev.log_z - res.log_zeta) <= 1e-13 * max(1.0, abs(res.log_zeta))
        np.testing.assert_allclose(ev.means, res.means, rtol=0, atol=1e-14)
        assert ev.slope == pytest.approx(res.variance_of_f, rel=1e-13)


def test_solver_evaluation_is_in_problem_units(demo):
    # The evaluation solve_beta_detailed returns at its answer means what
    # evaluate(p, beta) means there: ln Z, moment and slope in label units.
    rng = np.random.default_rng(83)
    for p in [demo] + [random_problem(rng) for _ in range(100)]:
        beta, _, ev = solve_beta_detailed(p)
        ref = evaluate(p, beta)
        assert ev.log_z == pytest.approx(ref.log_z, rel=1e-12)
        np.testing.assert_allclose(ev.means, ref.means, rtol=0, atol=1e-14)
        assert ev.slope == pytest.approx(ref.slope, rel=1e-12)
        span = max(p.model.labels) - min(p.model.labels)
        assert abs(ev.moment - p.moment_target) <= UNIT_TOL * span


def test_public_evaluator_is_the_solvers_pass(evaluations):
    # evaluate(p, beta) runs the solver's contour pass, on the unit-span
    # labels at the tilt beta * span: where that product rounds back to the
    # solved tilt, it is the solver's evaluation to the bit, and elsewhere
    # the two tilts differ in their last bits.
    rng = np.random.default_rng(29)
    problems = [*near_edge_problems(200, 14), *near_edge_problems(200, 15),
                *(random_problem(rng) for _ in range(100))]
    same_tilt = 0
    for p in problems:
        beta, _, ev = solve_beta_detailed(p)
        ref = evaluate(p, beta)
        if beta * (max(p.model.labels) - min(p.model.labels)) == evaluations[-1]:
            same_tilt += 1
            assert ref._replace(means=None) == ev._replace(means=None)
            np.testing.assert_array_equal(ref.means, ev.means)
        else:
            assert abs(ref.log_z - ev.log_z) <= 1e-11 * abs(ev.log_z)
            assert abs(ref.slope - ev.slope) <= 1e-13 * ev.slope
            np.testing.assert_allclose(ref.means, ev.means, rtol=0, atol=2e-15)
    assert same_tilt >= 0.8 * len(problems)
    # Equal labels: the conjugate answer times e^(beta F), with slope 0.
    ev = evaluate(make_problem((2, 2, 2), (3, 1, 2), 2.0), 5.0)
    log_z = math.lgamma(4) + math.lgamma(2) + math.lgamma(3) - math.lgamma(9) + 10.0
    assert ev.log_z == pytest.approx(log_z, rel=1e-13)
    assert (ev.moment, ev.slope) == (2.0, 0.0)
