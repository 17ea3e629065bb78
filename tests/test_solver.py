import math

import mpmath as mp
import numpy as np
import pytest

from momentbayes import (
    bayes_posterior_mean,
    full_update,
    log_zeta,
    make_problem,
    moment_of_f,
    montecarlo_moments,
    normalization,
    solve_beta,
    solve_beta_detailed,
    sweep,
)
from momentbayes.errors import DegenerateLabels, Diverged

from conftest import (
    DEMO_BAYES,
    DEMO_BAYES_MOMENT,
    DEMO_BETA,
    DEMO_COUNTS,
    DEMO_LABELS,
    DEMO_MEANS,
    DEMO_ZETA,
    random_problem,
)

TOL = 1e-10


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

    def test_guess_invariance(self, demo):
        betas = [solve_beta(demo, guess=g) for g in (-10.0, 0.0, 10.0)]
        for b in betas:
            assert abs(moment_of_f(demo, b) - 2.3) <= TOL
        assert max(betas) - min(betas) <= 1e-6

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_problem(rng)
            beta = solve_beta(p)
            assert abs(moment_of_f(p, beta) - p.moment_target) <= TOL

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
        beta, diag = solve_beta_detailed(demo)
        assert diag.evaluations > 0
        assert diag.bracket[0] <= beta <= diag.bracket[1]
        assert diag.residual <= TOL


class TestFullUpdate:
    def test_demo_state(self, demo):
        res = full_update(demo)
        assert res.beta == pytest.approx(DEMO_BETA, abs=5e-4)
        assert math.exp(res.log_zeta) == pytest.approx(DEMO_ZETA, rel=2e-3)
        np.testing.assert_allclose(res.means, DEMO_MEANS, atol=5e-4)
        assert res.residual <= TOL
        assert abs(sum(res.means) - 1.0) <= 1e-10
        assert res.variance_of_f > 0.0
        f = demo.labels_array()
        assert float(f @ np.asarray(res.means)) == pytest.approx(2.3, abs=10 * TOL)

    def test_degenerate_constraint_is_minimal_update(self):
        p = make_problem((2, 2, 2), (3, 1, 2), 2.0)
        res = full_update(p)
        assert res.beta == 0.0
        np.testing.assert_allclose(res.means, bayes_posterior_mean(p), rtol=1e-14)
        assert res.variance_of_f == 0.0

    def test_tiny_guess(self, demo):
        res = full_update(demo, guess=1e-300)
        assert res.beta == pytest.approx(DEMO_BETA, abs=5e-4)
        assert res.residual <= TOL

    def test_series_pass_budget(self, demo, monkeypatch):
        # 10 passes solve the demo; the means take k + 1, ln Z one and the
        # variance one.  A change to this count is a deliberate decision.
        calls = []
        inner = normalization._series_pass

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(normalization, "_series_pass", counting)
        full_update(demo)
        assert len(calls) <= 16

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
        points = sweep(demo, 2.0, 2.8, 9)
        for pt in points:
            q = make_problem(DEMO_LABELS, DEMO_COUNTS, pt.F)
            cold = solve_beta(q)
            assert abs(moment_of_f(q, pt.beta) - pt.F) <= TOL
            assert abs(pt.beta - cold) <= 1e-6

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
