import math

import numpy as np
import pytest

from momentbayes import (
    CountData,
    OutcomeModel,
    PriorSpec,
    Problem,
    SimplexPoint,
    bayes_posterior_mean,
    log_unnormalized_density,
    make_problem,
)
from momentbayes.errors import (
    DegenerateLabels,
    LengthMismatch,
    MomentOutOfRange,
    NonPositivePseudoCount,
    OutOfSupport,
)

from conftest import DEMO_BAYES, DEMO_BAYES_MOMENT, DEMO_COUNTS, DEMO_LABELS, random_problem


class TestValidation:
    def test_demo_problem_is_valid(self):
        p = Problem(
            OutcomeModel(DEMO_LABELS), CountData(DEMO_COUNTS), PriorSpec((1, 1, 1)), 2.3
        )
        assert p.k == 3
        assert not p.model.degenerate
        assert p.data.n == 20

    def test_target_on_boundary_rejected(self):
        # The boundary is excluded: the multiplier diverges there.
        with pytest.raises(MomentOutOfRange):
            make_problem(DEMO_LABELS, DEMO_COUNTS, 3.0)
        with pytest.raises(MomentOutOfRange):
            make_problem(DEMO_LABELS, DEMO_COUNTS, 0.99)

    def test_degenerate_labels(self):
        p = make_problem((2, 2, 2), (1, 1, 1), 2.0)
        assert p.model.degenerate
        with pytest.raises(DegenerateLabels):
            make_problem((2, 2, 2), (1, 1, 1), 2.1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_problem((1, 2, 3), (11, 2), 2.3)
        with pytest.raises(LengthMismatch):
            make_problem((1, 2, 3), (11, 2, 7), 2.3, pseudo_counts=(1, 1))

    def test_nonpositive_pseudo_counts(self):
        with pytest.raises(NonPositivePseudoCount):
            make_problem((1, 2, 3), (11, 2, 7), 2.3, pseudo_counts=(1, 0, 1))
        with pytest.raises(NonPositivePseudoCount):
            PriorSpec((1.0, -0.5))

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            CountData((1, -2, 3))
        with pytest.raises(ValueError):
            CountData((1.5, 2, 3))
        with pytest.raises(ValueError, match="largest float"):
            make_problem((1, 2, 3), (10**400, 2, 7), 2.3)  # no float holds it
        with pytest.raises(ValueError, match="ln Gamma"):
            make_problem((1, 2, 3), (10**306, 2, 7), 2.3)  # its ln Gamma overflows

    def test_zero_data_allowed(self):
        p = make_problem((1, 2, 3), (0, 0, 0), 2.3)
        assert p.data.n == 0

    def test_too_few_outcomes(self):
        with pytest.raises(ValueError):
            OutcomeModel((1.0,))

    def test_nonfinite_labels(self):
        with pytest.raises(ValueError):
            OutcomeModel((1.0, math.inf))
        with pytest.raises(ValueError, match="span"):
            make_problem((1e308, -1e308, 3.0), (1, 2, 3), 2.3)  # the span overflows

    def test_nan_target_rejected(self):
        with pytest.raises(MomentOutOfRange):
            make_problem(DEMO_LABELS, DEMO_COUNTS, math.nan)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-8, 1e-5, 0.2005])
    def test_shapes_are_counts_plus_pseudo_counts(self, alpha):
        # Formed as m + alpha, not as (m + alpha - 1) + 1, which rounds a
        # tiny alpha with no count to a multiple of 2**-53.
        counts, pseudo = (0, 0, 0), (alpha, 1.0, alpha)
        p = make_problem((1, 2, 3), counts, 2.3, pseudo_counts=pseudo)
        assert p.arrays[1].tolist() == [m + a for m, a in zip(counts, pseudo)]


class TestSimplexPoint:
    def test_accepts_tolerant_sum(self):
        SimplexPoint((0.5, 0.5 + 5e-13))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint((0.5, 0.6))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint((1.2, -0.2))


class TestLogUnnormalizedDensity:
    def test_flat_prior_zero_multiplier(self, demo):
        theta = SimplexPoint((1 / 3, 1 / 3, 1 / 3))
        assert log_unnormalized_density(demo, 0.0, theta) == pytest.approx(
            20 * math.log(1 / 3), rel=1e-14
        )

    def test_multiplier_term_is_linear(self, demo):
        # At the simplex center the tilt adds beta * mean(f) = 2 beta.
        theta = SimplexPoint((1 / 3, 1 / 3, 1 / 3))
        expected = 20 * math.log(1 / 3) + 14.1166 * 2.0
        assert log_unnormalized_density(demo, 14.1166, theta) == pytest.approx(
            expected, rel=1e-14
        )

    def test_two_outcomes_no_data(self):
        p = make_problem((0, 1), (0, 0), 0.5)
        assert log_unnormalized_density(p, 5.0, SimplexPoint((0.5, 0.5))) == pytest.approx(2.5)

    def test_zero_coordinate_with_zero_exponent(self):
        # 0 * ln 0 := 0 (continuous extension), so the density stays finite.
        p = make_problem((0, 1), (0, 0), 0.5)
        assert log_unnormalized_density(p, 3.0, SimplexPoint((0.0, 1.0))) == pytest.approx(3.0)

    def test_zero_coordinate_with_positive_exponent(self, demo):
        val = log_unnormalized_density(demo, 1.0, SimplexPoint((0.0, 0.5, 0.5)))
        assert val == -math.inf

    def test_zero_coordinate_with_negative_exponent(self):
        p = make_problem((0, 1), (0, 0), 0.5, pseudo_counts=(0.5, 1.0))
        with pytest.raises(OutOfSupport):
            log_unnormalized_density(p, 0.0, SimplexPoint((0.0, 1.0)))

    def test_independent_of_labels_at_zero_multiplier(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p1 = random_problem(rng)
            theta = rng.dirichlet(np.ones(p1.k))
            sp = SimplexPoint(theta / theta.sum())
            # Same counts and prior under different labels: identical density.
            labels2 = np.sort(rng.uniform(0, 3, p1.k))
            while labels2[-1] - labels2[0] < 1e-3:
                labels2 = np.sort(rng.uniform(0, 3, p1.k))
            target2 = labels2[0] + 0.5 * (labels2[-1] - labels2[0])
            p2 = make_problem(labels2, p1.data.counts, target2)
            v1 = log_unnormalized_density(p1, 0.0, sp)
            v2 = log_unnormalized_density(p2, 0.0, sp)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_label_shift_changes_density_by_beta_c(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_problem(rng)
            c = float(rng.uniform(-3, 3))
            beta = float(rng.uniform(-5, 5))
            theta = rng.dirichlet(np.ones(p.k))
            sp = SimplexPoint(theta / theta.sum())
            shifted = make_problem(
                np.asarray(p.model.labels) + c, p.data.counts, p.moment_target + c,
                p.prior.pseudo_counts,
            )
            d = log_unnormalized_density(shifted, beta, sp) - log_unnormalized_density(
                p, beta, sp
            )
            assert d == pytest.approx(beta * c, abs=1e-10)


class TestBayesPosteriorMean:
    def test_demo_counts(self, demo):
        np.testing.assert_allclose(bayes_posterior_mean(demo), DEMO_BAYES, rtol=1e-15)

    def test_no_data_gives_uniform(self):
        p = make_problem((1, 2, 3), (0, 0, 0), 2.3)
        np.testing.assert_allclose(bayes_posterior_mean(p), [1 / 3] * 3, rtol=1e-15)

    def test_moment_of_bayes_mean(self, demo):
        f = np.asarray(demo.model.labels)
        assert float(f @ bayes_posterior_mean(demo)) == pytest.approx(
            DEMO_BAYES_MOMENT, rel=1e-14
        )

    def test_sums_to_one_and_interior(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_problem(rng)
            mean = bayes_posterior_mean(p)
            assert abs(mean.sum() - 1.0) <= 1e-14
            assert np.all(mean > 0) and np.all(mean < 1)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_problem(rng)
            perm = rng.permutation(p.k)
            q = make_problem(
                np.asarray(p.model.labels)[perm],
                np.asarray(p.data.counts)[perm],
                p.moment_target,
                np.asarray(p.prior.pseudo_counts)[perm],
            )
            np.testing.assert_allclose(
                bayes_posterior_mean(q), bayes_posterior_mean(p)[perm], rtol=1e-14
            )
