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
from momentbayes.errors import DegenerateLabels, Diverged
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
    random_problem,
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
        # The seed is the constrained maximum of sum_i a_i ln theta_i:
        # theta_i = a_i / (A - seed (f_i - F)) sums to 1 and meets F.
        a = np.asarray(DEMO_COUNTS) + 1.0
        d = np.asarray(DEMO_LABELS) - 2.3
        theta = a / (a.sum() - diag.seed * d)
        assert abs(theta.sum() - 1.0) <= 1e-10
        assert abs(float(d @ theta)) <= 1e-10
        assert abs(diag.seed - beta) <= 1.5

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
        f = demo.labels_array()
        assert float(f @ np.asarray(res.means)) == pytest.approx(2.3, abs=10 * TOL)

    def test_degenerate_constraint_is_minimal_update(self):
        p = make_problem((2, 2, 2), (3, 1, 2), 2.0)
        res = full_update(p)
        assert res.beta == 0.0
        np.testing.assert_allclose(res.means, bayes_posterior_mean(p), rtol=1e-14)
        assert all(type(x) is float for x in res.means)
        assert res.variance_of_f == 0.0

    @pytest.mark.parametrize("labels", [(2, 2, 2), DEMO_LABELS])
    @pytest.mark.parametrize("call", [full_update, compare])
    def test_nonpositive_cap_rejected(self, labels, call):
        # Equal labels need no solve, but the cap is checked all the same.
        with pytest.raises(ValueError, match="cap must be positive"):
            call(make_problem(labels, (3, 1, 2), 2.0), beta_cap=-1.0)

    def test_series_pass_budget(self, demo, monkeypatch):
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

    def test_warm_start_agrees_with_cold_solves(self, demo):
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
