import numpy as np
import pytest

from momentbayes import (
    CountData,
    bayes_posterior_mean,
    compare,
    empirical_frequencies,
    make_problem,
    solve_tilt,
)
from momentbayes.errors import MomentOutOfRange, NoData, ZeroSupport

from conftest import (
    DEMO_COUNTS,
    DEMO_FREQS,
    DEMO_LABELS,
    DEMO_MEANS,
    DEMO_TILTED,
)

TILT_TOL = 1e-12


class TestEmpiricalFrequencies:
    def test_demo_counts(self):
        np.testing.assert_allclose(
            empirical_frequencies(CountData(DEMO_COUNTS)), DEMO_FREQS, rtol=1e-15
        )

    def test_symmetric(self):
        np.testing.assert_allclose(
            empirical_frequencies(CountData((5, 5))), (0.5, 0.5), rtol=1e-15
        )

    def test_no_data(self):
        with pytest.raises(NoData):
            empirical_frequencies(CountData((0, 0, 0)))


class TestSolveTilt:
    def test_demo_reference_probabilities(self):
        tilted = solve_tilt(DEMO_FREQS, DEMO_LABELS, 2.3)
        np.testing.assert_allclose(tilted.probabilities, DEMO_TILTED, atol=5e-4)
        assert abs(sum(tilted.probabilities) - 1.0) <= 1e-12
        assert float(np.dot(DEMO_LABELS, tilted.probabilities)) == pytest.approx(
            2.3, abs=TILT_TOL
        )

    def test_exponential_factor_solves_quadratic(self):
        # For labels (1,2,3) the moment equation is quadratic in x = e^eta:
        # (3-F)nu3 x^2 + (2-F)nu2 x + (1-F)nu1 = 0, here
        # 0.245 x^2 - 0.03 x - 0.715 = 0 (positive root).
        a, b, c = 0.245, -0.03, -0.715
        x = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
        tilted = solve_tilt(DEMO_FREQS, DEMO_LABELS, 2.3)
        assert np.exp(tilted.eta) == pytest.approx(x, abs=1e-10)

    def test_untilted_when_target_is_sample_mean(self):
        F = float(np.dot(DEMO_FREQS, DEMO_LABELS))  # 1.8
        tilted = solve_tilt(DEMO_FREQS, DEMO_LABELS, F)
        assert abs(tilted.eta) <= TILT_TOL
        np.testing.assert_allclose(tilted.probabilities, DEMO_FREQS, atol=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            k = int(rng.integers(2, 5))
            nu = rng.dirichlet(np.ones(k))
            f = np.sort(rng.uniform(0, 2, size=k))
            if f[-1] - f[0] < 1e-3:
                continue
            lo = float(np.dot(nu, f))
            F = lo + 0.5 * (min(f[-1], np.max(f[nu > 0])) - lo)
            if not (np.min(f[nu > 0]) < F < np.max(f[nu > 0])):
                continue
            c = float(rng.uniform(-4, 4))
            t1 = solve_tilt(nu, f, F)
            t2 = solve_tilt(nu, f + c, F + c)
            assert t2.eta == pytest.approx(t1.eta, abs=1e-9)
            np.testing.assert_allclose(t2.probabilities, t1.probabilities, atol=1e-10)

    @pytest.mark.parametrize("lam", [1e-7, 1e-4, 3e4, 3e5, 1e7])
    def test_scale_invariance_across_orders(self, lam):
        ref = solve_tilt(DEMO_FREQS, DEMO_LABELS, 2.3)
        tilted = solve_tilt(DEMO_FREQS, [lam * x for x in DEMO_LABELS], lam * 2.3)
        assert tilted.eta * lam == pytest.approx(ref.eta, rel=1e-10)
        np.testing.assert_allclose(tilted.probabilities, ref.probabilities, rtol=0, atol=1e-12)

    def test_zero_frequencies_stay_zero(self):
        tilted = solve_tilt((0.5, 0.5, 0.0), (1.0, 2.0, 3.0), 1.7)
        assert tilted.probabilities[2] == 0.0

    def test_target_outside_labels(self):
        with pytest.raises(MomentOutOfRange):
            solve_tilt(DEMO_FREQS, DEMO_LABELS, 3.2)
        with pytest.raises(MomentOutOfRange):
            solve_tilt(DEMO_FREQS, DEMO_LABELS, 1.0)

    def test_zero_support_blocks_target(self):
        # All frequency sits on labels 1 and 2; targets above 2 need mass
        # on label 3, which tilting cannot create.
        with pytest.raises(ZeroSupport):
            solve_tilt((0.5, 0.5, 0.0), (1.0, 2.0, 3.0), 2.5)

    def test_all_frequency_on_one_label(self):
        nu, f = (0.0, 1.0, 0.0), (1.0, 2.0, 3.0)
        tilted = solve_tilt(nu, f, 2.0)
        assert tilted.eta == 0.0 and tilted.probabilities == nu
        with pytest.raises(ZeroSupport):
            solve_tilt(nu, f, 2.5)
        with pytest.raises(MomentOutOfRange):
            solve_tilt(nu, f, 3.0)
        assert solve_tilt((1.0, 0.0), (1.0, 1.0), 1.0).eta == 0.0

    def test_invalid_frequency_vector(self):
        with pytest.raises(ValueError):
            solve_tilt((0.5, 0.4), (1.0, 2.0), 1.5)  # does not sum to 1
        with pytest.raises(ValueError):
            solve_tilt((0.5, 0.5, 0.0), (1.0, 2.0), 1.5)


class TestCompare:
    def test_demo_distances(self, demo):
        rep = compare(demo)
        np.testing.assert_allclose(rep.me.means, DEMO_MEANS, atol=5e-4)
        np.testing.assert_allclose(rep.tilted.probabilities, DEMO_TILTED, atol=5e-4)
        expected_linf = max(
            abs(DEMO_TILTED[i] - DEMO_MEANS[i]) for i in range(3)
        )
        assert rep.linf == pytest.approx(expected_linf, abs=1e-3)
        assert rep.l1 == pytest.approx(sum(
            abs(DEMO_TILTED[i] - DEMO_MEANS[i]) for i in range(3)
        ), abs=2e-3)
        assert rep.beta == pytest.approx(rep.me.beta)
        assert rep.eta == pytest.approx(rep.tilted.eta)

    def test_tiny_label_scale(self):
        # Labels x1e-7: eta is about 5.7e6, beyond an absolute cap of 1e6.
        lam = 1e-7
        rep = compare(make_problem([lam * x for x in DEMO_LABELS], DEMO_COUNTS, lam * 2.3))
        np.testing.assert_allclose(rep.me.means, DEMO_MEANS, atol=5e-4)
        np.testing.assert_allclose(rep.tilted.probabilities, DEMO_TILTED, atol=5e-4)

    def test_finite_sample_annotation(self, demo):
        assert compare(demo).annotation is not None

    def test_large_sample_without_zeros_has_no_annotation(self):
        p = make_problem((1, 2, 3), (55, 10, 35), 2.3)
        assert compare(p).annotation is None

    def test_both_tilts_vanish_at_fixed_point(self):
        # Uniform counts with a flat prior: the posterior mean equals the
        # frequencies, and targeting their common moment leaves both routes
        # untouched, so the distances reduce to |means - frequencies| = 0.
        p = make_problem((1, 2, 3), (2, 2, 2), 2.0)
        rep = compare(p)
        assert abs(rep.beta) <= 1e-10
        assert abs(rep.eta) <= TILT_TOL
        nu = empirical_frequencies(p.data)
        diffs = np.abs(np.asarray(rep.me.means) - nu)
        np.testing.assert_allclose(np.abs(rep.difference), diffs, atol=1e-12)
        assert rep.linf <= 1e-12

    def test_no_data_raises(self):
        p = make_problem((1, 2, 3), (0, 0, 0), 2.3)
        with pytest.raises(NoData):
            compare(p)

    def test_scaled_counts_reduce_distance_25x(self):
        # Same frequencies and target with 25x the data: the tilted
        # solution is unchanged while the posterior tightens toward its
        # large-sample limit, landing closer than at 1x.
        p1 = make_problem(DEMO_LABELS, DEMO_COUNTS, 2.3)
        p25 = make_problem(DEMO_LABELS, tuple(25 * c for c in DEMO_COUNTS), 2.3)
        assert compare(p25).linf < compare(p1).linf
