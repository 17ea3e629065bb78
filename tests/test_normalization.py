import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from momentbayes import (
    bayes_posterior_mean,
    evaluate,
    make_problem,
    montecarlo_moments,
    quadrature_zeta,
)
from momentbayes import normalization
from momentbayes.normalization import _contour, moment_and_slope
from momentbayes.oracle import SeriesParams, kummer_m_log, series_levels, series_zeta

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


def brute_force_log_m(a, b, t, dps=50):
    """Direct high-precision summation of the confluent series (oracle)."""
    extra = int(abs(t)) if t < 0 else 0  # alternating case loses ~|t| digits
    with mp.workdps(dps + extra):
        a, b, t = mp.mpf(a), mp.mpf(b), mp.mpf(t)
        term = mp.mpf(1)
        total = mp.mpf(1)
        q = 0
        while True:
            term = term * (a + q) / (b + q) * t / (q + 1)
            total += term
            q += 1
            if abs(term) < abs(total) * mp.mpf(10) ** (-dps - 10) and q > 4:
                return float(mp.log(total))


class TestKummer:
    def test_zero_argument(self):
        assert kummer_m_log(3.0, 7.0, 0.0) == 0.0

    @pytest.mark.parametrize("t", [0.3, 5.0, 50.0, -8.0, -1e-3])
    def test_classical_identity_a1_b2(self, t):
        # M(1; 2; t) = (e^t - 1) / t
        assert kummer_m_log(1.0, 2.0, t) == pytest.approx(
            math.log(math.expm1(t) / t), abs=1e-13
        )

    def test_against_brute_force(self):
        assert kummer_m_log(3.0, 7.0, 14.1166) == pytest.approx(
            brute_force_log_m(3, 7, mp.mpf("14.1166")), abs=1e-13
        )

    @pytest.mark.parametrize(
        "a,b,t",
        [
            (0.5, 1.7, -35.5),
            (9000.0, 10000.0, 200.0),
            (2.0, 11.0, 120.0),
            (40.0, 41.0, -60.0),
        ],
    )
    def test_accuracy_across_contract_domain(self, a, b, t):
        # Relative 1e-13 on M is absolute 1e-13 on ln M.
        assert kummer_m_log(a, b, t) == pytest.approx(
            brute_force_log_m(a, b, t), abs=1e-13
        )

    def test_large_argument_log_domain(self):
        # Beyond the linear-summation window; modest tolerance, log domain.
        assert kummer_m_log(3.0, 9.0, 800.0) == pytest.approx(
            brute_force_log_m(3, 9, 800), abs=1e-10
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kummer_m_log(3.0, 3.0, 1.0)
        with pytest.raises(ValueError):
            kummer_m_log(-1.0, 3.0, 1.0)
        with pytest.raises(ValueError):
            kummer_m_log(1.0, 2.0, math.inf)

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (3.0, 11.5), (20.0, 21.0)])
    @pytest.mark.parametrize("t", [1e-8, -1e-8, 3e-9])
    def test_small_argument_matches_limit(self, a, b, t):
        # Near t = 0 the series is 1 + (a/b) t + O(t^2).  Below |t| ~ 1e-9
        # the departure sinks under the double-precision quantization of
        # values near 1, so the bound is checked where it is resolvable.
        depart = abs(math.expm1(kummer_m_log(a, b, t)))
        assert depart <= abs(t) * (a / b) * (1.0 + 1e-6)


class TestSeriesLevels:
    def test_demo_structure_without_reordering(self, demo):
        # With beta < 0 the eliminated coordinate is the largest label, so
        # the level parameters can be written down by hand:
        # a = (m2+1, m1+1), b = (n+2-m1, n+3), t = -beta*(f2-f3, f1-f3).
        levels = series_levels(demo, -2.0)
        assert [lv.level for lv in levels] == [1, 2]
        assert [lv.a for lv in levels] == [3.0, 12.0]
        assert [lv.b for lv in levels] == [11.0, 23.0]
        assert [lv.t for lv in levels] == [2.0, 4.0]

    def test_tilts_nonnegative_and_b_above_a(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = random_problem(rng)
            beta = float(rng.uniform(-25, 25))
            for lv in series_levels(p, beta):
                assert lv.t >= 0.0
                assert lv.b > lv.a > 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SeriesParams(a=3.0, b=3.0, t=1.0, level=1)
        with pytest.raises(ValueError):
            SeriesParams(a=0.0, b=3.0, t=1.0, level=1)


class TestLogZeta:
    def test_zero_multiplier_closed_form(self, demo):
        # Plain conjugate integral: 11! 2! 7! / 22!
        expected = (
            gammaln(12) + gammaln(3) + gammaln(8) - gammaln(23)
        )
        lz = evaluate(demo, 0.0)
        assert lz.log_z == pytest.approx(float(expected), abs=1e-13)

    def test_demo_multiplier_reference_value(self, demo):
        lz = evaluate(demo, DEMO_BETA)
        assert lz.log_z == pytest.approx(math.log(DEMO_ZETA), abs=1e-3)

    def test_two_outcome_closed_form(self):
        # With f=(0,1), unit counts, beta=1 the integral is
        # int_0^1 x(1-x)e^x dx = 3 - e.
        p = make_problem((0, 1), (1, 1), 0.5)
        assert evaluate(p, 1.0).log_z == pytest.approx(
            math.log(3.0 - math.e), abs=1e-12
        )

    def test_two_outcome_non_integer_kummer_closed_form(self):
        # Z = e^{beta f_2} B(a_1, a_2) M(a_1; a_1 + a_2; beta (f_1 - f_2))
        # and E[theta_1] = a_1 / A * M(a_1 + 1; A + 1; t) / M(a_1; A; t)
        # with a_i = m_i + alpha_i; pseudo-counts below 1 with no counts
        # give exponents in (-1, 0).
        rng = np.random.default_rng(22)
        below_zero = 0
        for _ in range(60):
            labels = np.sort(rng.uniform(0.0, 1.5, size=2))
            counts = rng.integers(0, 4, size=2)
            pcs = rng.uniform(0.05, 3.0, size=2)
            p = make_problem(labels, counts, float(labels.mean()), pcs)
            beta = float(rng.uniform(-40.0, 40.0))
            a1, a2 = (float(x) for x in counts + pcs)
            t = beta * (labels[0] - labels[1])
            log_b = math.lgamma(a1) + math.lgamma(a2) - math.lgamma(a1 + a2)
            ref = beta * labels[1] + log_b + kummer_m_log(a1, a1 + a2, t)
            m1 = a1 / (a1 + a2) * math.exp(
                kummer_m_log(a1 + 1.0, a1 + a2 + 1.0, t) - kummer_m_log(a1, a1 + a2, t))
            log_z, means, moment, _, _ = evaluate(p, beta)
            assert abs(log_z - ref) <= 1e-12
            assert abs(means[0] - m1) <= 1e-12
            assert abs(moment - (labels[0] * m1 + labels[1] * (1.0 - m1))) <= 1e-12
            below_zero += int(min(p.exponents()) < 0.0)
        assert below_zero >= 10

    def test_finite_and_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            p = random_problem(rng)
            beta = float(rng.uniform(-25, 25))
            lz = evaluate(p, beta)
            assert math.isfinite(lz.log_z)
            assert lz.nodes >= 1

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_problem(rng)
            beta = float(rng.uniform(-10, 10))
            c = float(rng.uniform(-3, 3))
            q = make_problem(
                np.asarray(p.model.labels) + c,
                p.data.counts,
                p.moment_target + c,
                p.prior.pseudo_counts,
            )
            d = evaluate(q, beta).log_z - evaluate(p, beta).log_z
            assert d == pytest.approx(beta * c, abs=1e-10)
            np.testing.assert_allclose(
                evaluate(q, beta).means, evaluate(p, beta).means, atol=1e-10
            )

    def test_scale_covariance(self):
        rng = np.random.default_rng(14)
        for lam in (0.25, 3.7, -2.0):
            for _ in range(8):
                p = random_problem(rng)
                beta = float(rng.uniform(-6, 6))
                q = make_problem(
                    lam * np.asarray(p.model.labels),
                    p.data.counts,
                    lam * p.moment_target,
                    p.prior.pseudo_counts,
                )
                assert evaluate(q, beta).log_z == pytest.approx(
                    evaluate(p, lam * beta).log_z, abs=1e-10
                )

    def test_matches_quadrature(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            p = random_problem(rng)
            beta = float(rng.uniform(-20, 20))
            series = evaluate(p, beta).log_z
            quad = quadrature_zeta(p, beta).log_value
            assert abs(series - quad) <= 1e-8

    def test_non_integer_prior_matches_series_oracle(self):
        p = make_problem((0, 1), (0, 2), 0.6, pseudo_counts=(0.5, 1.0))
        lz = evaluate(p, 3.0)
        assert abs(lz.log_z - series_zeta(p, 3.0)[0]) <= 1e-12
        # Oracle: high-precision one-dimensional integral of
        # x^(-1/2) (1-x)^2 e^(3(1-x)) over (0,1), exponents (m + alpha - 1).
        with mp.workdps(40):
            ref = mp.log(
                mp.quad(lambda x: x ** mp.mpf("-0.5") * (1 - x) ** 2 * mp.e ** (3 * (1 - x)), [0, 1])
            )
        assert lz.log_z == pytest.approx(float(ref), abs=1e-8)

    def test_integer_nonflat_prior_stays_on_series(self, demo):
        p = make_problem(DEMO_LABELS, DEMO_COUNTS, 2.3, pseudo_counts=(2, 1, 3))
        lz = evaluate(p, 4.0)
        quad = quadrature_zeta(p, 4.0).log_value
        assert abs(lz.log_z - quad) <= 1e-8

    def test_huge_multiplier_matches_kummer(self, demo):
        # beta * span = 7e5: the saddle sits next to the top label's branch
        # point and the other one is far away, which the contour resolves
        # with its usual node count.
        p = make_problem((0.0, 1.0), (11, 7), 0.5, pseudo_counts=(1.0, 0.5))
        beta = 7e5
        with mp.workdps(40):
            ref = beta + mp.log(mp.beta(12, 7.5)) + mp.log(mp.hyp1f1(12, 19.5, -beta))
        assert evaluate(p, beta).log_z == pytest.approx(float(ref), rel=1e-12)
        assert math.isfinite(evaluate(demo, 7e5).log_z)


def contour_problems(n=48, seed=31):
    """``(problem, beta)`` with k = 2-6, flat or non-integer priors and
    ``|beta| * span <= 50``: the range the series oracle sums quickly."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        k = int(rng.integers(2, 7))
        labels = np.sort(rng.uniform(0.0, 1.5, size=k))
        counts = rng.integers(0, 8, size=k)
        pcs = rng.uniform(0.05, 3.0, size=k) if i % 2 else None
        p = make_problem(labels, counts, float(labels.mean()), pcs)
        out.append((p, float(rng.uniform(-50.0, 50.0)) / float(labels[-1] - labels[0])))
    return out


def shifted(p, *idx):
    """``p`` with the pseudo-count of each outcome in ``idx`` raised by 1."""
    pcs = np.array(p.prior.pseudo_counts, dtype=float)
    for i in idx:
        pcs[i] += 1.0
    return make_problem(p.model.labels, p.data.counts, p.moment_target, pcs)


def two_outcome_log_z(p, beta):
    """Closed form ``ln Z`` of a k = 2 problem at the working precision,
    summed on the side where the series terms are positive."""
    (f1, f2), (a1, a2) = p.model.labels, p.exponents() + 1.0
    beta = mp.mpf(beta)
    t = beta * (f1 - f2)
    if t < 0:  # M(a1; A; t) = e^t M(a2; A; -t)
        f2, a1, a2, t = f1, a2, a1, -t
    return (beta * f2 + mp.log(mp.beta(a1, a2))
            + mp.log(mp.hyp1f1(a1, a1 + a2, t, maxterms=10**6)))


class TestContour:
    def test_matches_series_oracle(self):
        for p, beta in contour_problems():
            log_z, means, moment, _, _ = evaluate(p, beta)
            ref_log_z, ref_moment, _ = series_zeta(p, beta)
            ref_means = [math.exp(series_zeta(shifted(p, i), beta)[0] - ref_log_z)
                         for i in range(p.k)]
            assert abs(log_z - ref_log_z) <= 1e-12
            assert np.max(np.abs(means - ref_means)) <= 1e-12
            assert abs(moment - ref_moment) <= 1e-12

    def test_embedded_error_estimate(self, monkeypatch):
        # Dropping the odd nodes doubles the spacing; the two sums agree to
        # far below the accuracy the moments need, at the first spacing
        # (with no halving allowed, a miss raises NoConvergence).
        monkeypatch.setattr(normalization, "_HALVINGS", 0)
        for p, beta in contour_problems():
            f, a, log_gamma = p.arrays
            c = beta * (f - f[int(np.argmax(beta * f))])
            _, h, w, *_ = _contour(a, c, log_gamma)
            i_h = h * w.real.sum()
            i_2h = 2.0 * h * (w[0].real + w[2::2].real.sum())
            assert abs(i_h - i_2h) / abs(i_h) <= 1e-13

    def test_means_and_moment_match_quadrature(self):
        rng = np.random.default_rng(24)
        for _ in range(6):
            p = random_problem(rng, k=int(rng.integers(2, 4)))
            beta = float(rng.uniform(-15.0, 15.0))
            base = quadrature_zeta(p, beta).log_value
            ref = np.array([math.exp(quadrature_zeta(shifted(p, i), beta).log_value - base)
                            for i in range(p.k)])
            log_z, means, moment, _, _ = evaluate(p, beta)
            assert abs(log_z - base) <= 1e-8
            assert np.max(np.abs(means - ref)) <= 1e-8
            assert abs(moment - float(p.labels_array() @ ref)) <= 1e-8

    def test_two_outcome_variance_matches_mpmath(self):
        # The second beta-derivative of the 40-digit closed form, for
        # |beta| * span from 1e-3 to 1e4 on both sides.
        rng = np.random.default_rng(25)
        for i in range(30):
            labels = np.sort(rng.uniform(0.0, 1.5, size=2))
            p = make_problem(labels, rng.integers(0, 8, size=2), float(labels.mean()),
                             rng.uniform(0.05, 3.0, size=2))
            tau = float(10.0 ** rng.uniform(-3.0, 4.0)) * (1 if i % 2 else -1)
            beta = tau / float(labels[1] - labels[0])
            with mp.workdps(40):
                ref = float(mp.diff(lambda b: two_outcome_log_z(p, b), beta, 2))
            assert evaluate(p, beta).slope == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("counts,pcs,beta", [
        ((49, 0), (1.0, 0.05), 60.0),
        ((8999, 0), (1.0, 0.05), 1e4),
        ((9899, 0), (1.0, 1.0), 1e4),
        ((499, 0), (1.0, 0.2), 600.0),
    ])
    def test_heavy_outcome_far_below_the_top(self, counts, pcs, beta):
        # Most of the weight on the bottom label while beta favours the top:
        # a parabola through the saddle passes the bottom branch point too
        # closely here (ln Z was off by 9 in the first case).
        p = make_problem((0.0, 1.0), counts, 0.5, pcs)
        with mp.workdps(40):
            ref = [float(mp.diff(lambda b: two_outcome_log_z(p, b), beta, n)) for n in range(3)]
        log_z, means, moment, slope, _ = evaluate(p, beta)
        # The terms that cancel to ln Z are of size n log n.
        assert abs(log_z - ref[0]) <= 1e-14 * sum(counts)
        assert moment == pytest.approx(ref[1], abs=1e-12)
        assert slope == pytest.approx(ref[2], rel=1e-12)
        assert abs(means.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("counts,beta", [((300000, 200000), 40.0),
                                             ((200000, 300000), -300.0)])
    def test_large_counts_keep_full_accuracy(self, counts, beta):
        # The log terms are of size n log n; forming ln(1 + z) without the
        # rounding of 1 + z keeps the moments exact to rounding.
        p = make_problem((0.0, 1.0), counts, 0.5)
        with mp.workdps(40):
            ref = [float(mp.diff(lambda b: two_outcome_log_z(p, b), beta, n)) for n in (1, 2)]
        _, _, moment, slope, nodes = evaluate(p, beta)
        assert moment == pytest.approx(ref[0], abs=1e-14)
        assert slope == pytest.approx(ref[1], rel=1e-13)
        assert nodes == 55

    def test_node_counts_pinned(self, demo):
        # The node count follows from the saddle alone; a change to it is a
        # deliberate decision.  Demo counts x125 at their solved beta.
        big = make_problem(DEMO_LABELS, [125 * c for c in DEMO_COUNTS], 2.3)
        assert evaluate(demo, DEMO_BETA).nodes == 69
        assert evaluate(big, 1516.46).nodes == 55


class TestPosteriorMean:
    def test_zero_multiplier_is_bayes(self, demo):
        np.testing.assert_allclose(evaluate(demo, 0.0).means, DEMO_BAYES, atol=1e-13)

    def test_demo_reference_means(self, demo):
        np.testing.assert_allclose(evaluate(demo, DEMO_BETA).means, DEMO_MEANS, atol=5e-4)

    def test_sums_to_one(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            p = random_problem(rng)
            mean = evaluate(p, float(rng.uniform(-15, 15))).means
            assert abs(mean.sum() - 1.0) <= 1e-10

    def test_against_importance_sampling(self):
        rng = np.random.default_rng(17)
        p = random_problem(rng, k=3)
        beta = 2.5
        mm = montecarlo_moments(p, beta, 10**7, seed=99)
        mean = evaluate(p, beta).means
        for i in range(p.k):
            assert abs(mean[i] - mm.means[i]) <= 3.0 * mm.mean_std_errors[i]


class TestMomentOfF:
    def test_zero_multiplier(self, demo):
        assert evaluate(demo, 0.0).moment == pytest.approx(DEMO_BAYES_MOMENT, abs=1e-13)

    def test_demo_solution_hits_target(self, demo):
        assert evaluate(demo, DEMO_BETA).moment == pytest.approx(2.3, abs=5e-4)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(18)
        h = 1e-5
        for _ in range(15):
            p = random_problem(rng)
            beta = float(rng.uniform(-10, 10))
            fd = (evaluate(p, beta + h).log_z - evaluate(p, beta - h).log_z) / (2 * h)
            assert evaluate(p, beta).moment == pytest.approx(fd, abs=1e-6)

    def test_strictly_increasing_in_beta(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            p = random_problem(rng)
            b1 = float(rng.uniform(-12, 10))
            b2 = b1 + float(rng.uniform(0.1, 5.0))
            assert evaluate(p, b1).moment < evaluate(p, b2).moment


class TestVarianceOfF:
    def test_degenerate_labels_zero(self):
        p = make_problem((2, 2, 2), (1, 1, 1), 2.0)
        assert evaluate(p, 0.0).slope == 0.0
        assert evaluate(p, 5.0).slope == 0.0

    def test_zero_multiplier_closed_form(self, demo):
        # Conjugate covariance: Cov_ij = (d_ij mean_i - mean_i mean_j) / (n + k + 1).
        mean = bayes_posterior_mean(demo)
        f = demo.labels_array()
        cov = (np.diag(mean) - np.outer(mean, mean)) / (20 + 3 + 1)
        assert evaluate(demo, 0.0).slope == pytest.approx(float(f @ cov @ f), rel=1e-12)

    def test_matches_second_central_difference(self, demo):
        # Step tuned for the second difference: truncation ~ h^2 while
        # roundoff ~ eps / h^2, balanced near h ~ 5e-4.
        h = 5e-4
        fd2 = (
            evaluate(demo, DEMO_BETA + h).log_z
            - 2 * evaluate(demo, DEMO_BETA).log_z
            + evaluate(demo, DEMO_BETA - h).log_z
        ) / (h * h)
        assert evaluate(demo, DEMO_BETA).slope == pytest.approx(fd2, rel=1e-5)

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            p = random_problem(rng)
            assert evaluate(p, float(rng.uniform(-12, 12))).slope >= 0.0


def quadrature_variance(p, beta):
    """``Var(f . theta)`` from quadrature ratios: ``E[theta_i] =
    Z(e + delta_i) / Z(e)`` and ``E[theta_i theta_j] = Z(e + delta_i +
    delta_j) / Z(e)``, with labels centred at the moment."""

    def log_z(*shift):
        return quadrature_zeta(shifted(p, *shift), beta).log_value

    base = log_z()
    means = np.array([math.exp(log_z(i) - base) for i in range(p.k)])
    second = np.empty((p.k, p.k))
    for i in range(p.k):
        for j in range(i, p.k):
            second[i, j] = second[j, i] = math.exp(log_z(i, j) - base)
    c = p.labels_array() - float(p.labels_array() @ means)
    return float(c @ second @ c) - float(c @ means) ** 2


class TestMomentAndSlopeConsistency:
    def test_matches_ratio_identities(self):
        # The slope is checked against quadrature, which shares no code
        # with the series; k <= 3 keeps the (k+1)(k+2)/2 integrals cheap.
        rng = np.random.default_rng(21)
        for _ in range(15):
            p = random_problem(rng, k=int(rng.integers(2, 4)))
            beta = float(rng.uniform(-12, 12))
            mom, slope = moment_and_slope(*p.arrays, beta)[2:4]
            assert mom == pytest.approx(evaluate(p, beta).moment, abs=1e-9)
            assert slope == pytest.approx(quadrature_variance(p, beta), abs=1e-9)
            assert evaluate(p, beta).slope == slope

    @pytest.mark.parametrize("beta", [1e-160, -1e-160, 1e-300, 5e-324])
    def test_tiny_multiplier_uses_closed_form(self, demo, beta):
        # Below double resolution in beta * (f_max - f_min) the beta = 0
        # conjugate values are exact to rounding; the contour sums, which
        # never divide by beta, must reproduce them.
        mean = np.asarray(DEMO_BAYES)
        f = demo.labels_array()
        cov = (np.diag(mean) - np.outer(mean, mean)) / (20 + 3 + 1)
        mom, slope = moment_and_slope(*demo.arrays, beta)[2:4]
        assert mom == pytest.approx(DEMO_BAYES_MOMENT, rel=1e-14)
        assert slope == pytest.approx(float(f @ cov @ f), rel=1e-12)
        assert evaluate(demo, beta).slope == slope
