import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from momentbayes import (
    bayes_posterior_mean,
    evaluate,
    full_update,
    make_problem,
    montecarlo_moments,
    quadrature_zeta,
    solve_beta_detailed,
)
from momentbayes import normalization
from momentbayes.errors import MomentBayesError, NoConvergence
from momentbayes.normalization import (_TAIL, _V_MAX, _contour, _nodes, _reach, _saddle,
                                        moment_and_slope, unit_span)
from momentbayes.oracle import kummer_m_log, series_zeta

from conftest import (
    DEMO_BAYES,
    DEMO_BAYES_MOMENT,
    DEMO_BETA,
    DEMO_COUNTS,
    DEMO_LABELS,
    DEMO_MEANS,
    DEMO_ZETA,
    near_edge_problems,
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

    def test_large_argument_rescaled_sum(self):
        # The terms pass 1e280 and are rescaled, with the log carried.
        assert kummer_m_log(3.0, 9.0, 800.0) == pytest.approx(
            brute_force_log_m(3, 9, 800), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("a,b,t", [(1e-8, 1.0, 1.0), (0.5, 1.0, 1e-9), (3.0, 7.0, -1e-6),
                                       (3.0, 9.0, 800.0), (2.5, 3.0, 1e4)])
    def test_matches_mpmath_hyp1f1(self, a, b, t):
        # A tiny a or t leaves ln M far below 1, which log(1 + sum) loses.
        with mp.workdps(40):
            ref = float(mp.log(mp.hyp1f1(mp.mpf(a), mp.mpf(b), mp.mpf(t))))
        assert kummer_m_log(a, b, t) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_refusal_past_the_term_budget_is_quick(self):
        start = time.perf_counter()
        with pytest.raises(NoConvergence):
            kummer_m_log(3.0, 9.0, 1e30)
        assert time.perf_counter() - start < 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kummer_m_log(3.0, 3.0, 1.0)
        with pytest.raises(ValueError):
            kummer_m_log(-1.0, 3.0, 1.0)
        with pytest.raises(ValueError):
            kummer_m_log(1.0, 2.0, math.inf)

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (3.0, 11.5), (20.0, 21.0)])
    @pytest.mark.parametrize("t", [1e-8, -1e-8, 3e-9, 1e-12, -1e-15])
    def test_small_argument_matches_limit(self, a, b, t):
        # Near t = 0 the series is 1 + (a/b) t (1 + (a+1)/(b+1) t/2) + O(t^3),
        # and the sum after the leading 1 keeps its relative accuracy.
        limit = a / b * t * (1.0 + (a + 1.0) / (b + 1.0) * t / 2.0)
        assert math.expm1(kummer_m_log(a, b, t)) == pytest.approx(limit, rel=1e-14, abs=0.0)


class TestSeriesZeta:
    def test_level_whose_b_rounds_onto_a_rejected(self):
        # At beta = -1 the pivot is label 1, so the one level has a = 1e20 + 1
        # and b - a = 1: b rounds onto a.
        with pytest.raises(ValueError, match="rounds onto"):
            series_zeta(make_problem((0, 1), (10**20, 0), 0.5), -1.0)


class TestLogZeta:
    """``evaluate(p, beta).log_z``, and its refusal of a non-finite ``beta``."""

    def test_zero_multiplier_closed_form(self, demo):
        # Plain conjugate integral: 11! 2! 7! / 22!
        expected = (
            gammaln(12) + gammaln(3) + gammaln(8) - gammaln(23)
        )
        lz = evaluate(demo, 0.0)
        assert lz.log_z == pytest.approx(float(expected), abs=1e-13)

    @pytest.mark.parametrize("alpha", [1e-5, 1e-6, 1e-8, 1e-12])
    def test_tiny_shapes_match_the_dirichlet_closed_form(self, alpha):
        # No data and pseudo-counts alpha: at beta = 0, Z is the Dirichlet
        # normalization.  Its contour integral, 1 / Gamma(3 alpha) or about
        # 3 alpha, summed as Re sum(w) is made of O(1) terms that cancel, and
        # it failed the embedded check below alpha = 1e-5; the sum by parts
        # does not cancel.
        p = make_problem(DEMO_LABELS, (0, 0, 0), 2.0, (alpha,) * 3)
        ref = 3.0 * math.lgamma(alpha) - math.lgamma(3.0 * alpha)
        assert evaluate(p, 0.0).log_z == pytest.approx(ref, rel=1e-15, abs=0.0)
        res = full_update(p)
        assert res.beta == 0.0 and res.log_zeta == pytest.approx(ref, rel=1e-15, abs=0.0)
        assert abs(sum(res.means) - 1.0) <= 1e-14

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
            below_zero += int(min(p.arrays[1]) < 1.0)
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

    def test_integer_nonflat_prior_matches_quadrature(self, demo):
        p = make_problem(DEMO_LABELS, DEMO_COUNTS, 2.3, pseudo_counts=(2, 1, 3))
        lz = evaluate(p, 4.0)
        quad = quadrature_zeta(p, 4.0).log_value
        assert abs(lz.log_z - quad) <= 1e-8

    def test_nonfinite_multiplier_rejected(self, demo):
        with pytest.raises(ValueError):
            evaluate(demo, math.nan)

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
    (f1, f2), (a1, a2) = p.model.labels, map(sum, zip(p.data.counts, p.prior.pseudo_counts))
    beta = mp.mpf(beta)
    t = beta * (f1 - f2)
    if t < 0:  # M(a1; A; t) = e^t M(a2; A; -t)
        f2, a1, a2, t = f1, a2, a1, -t
    return (beta * f2 + mp.log(mp.beta(a1, a2))
            + mp.log(mp.hyp1f1(a1, a1 + a2, t, maxterms=10**6)))


def tail_bound_cases():
    """Shapes ``a`` and tilts ``c = tau (d - d_top)`` on unit-span labels ``d``:
    k 2-8, shapes 0.01-1e4 and |tau| 1e-3-1e4, then near-edge problems at
    their seed and solved tilts."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        d = np.sort(rng.uniform(0.0, 1.0, k))
        d = (d - d[0]) / (d[-1] - d[0])
        a = np.exp(rng.uniform(math.log(0.01), math.log(1e4), k))
        tau = math.copysign(math.exp(rng.uniform(math.log(1e-3), math.log(1e4))),
                            rng.uniform(-1.0, 1.0))
        yield a, tau * (d - d[int(np.argmax(tau * d))])
    for p in near_edge_problems(100, 15):
        f, a, _ = p.arrays
        d, span = unit_span(f, p.moment_target)
        beta, diag, _ = solve_beta_detailed(p)
        for tau in (diag.seed * span, beta * span):
            yield a, tau * (d - d[int(np.argmax(tau * d))])


def tail_bound(v, mu, d, a):
    """``-4 mu t + v + sum_{u_i < 1/2} a_i min(4 u_i (1 - 2 u_i) t, kappa_i)``,
    ``t = sinh^2(v/2)``, over every term's log-modulus, and its rate of fall
    in ``t`` (the labels on their line count against ``4 mu``)."""
    u = mu / d
    low = u < 0.5
    a, u = a[low], u[low]
    line = 4.0 * a * u * (1.0 - 2.0 * u)
    kappa = -0.5 * a * np.log(1.0 - 0.5 * (1.0 - 2.0 * u) ** 2)
    t = np.sinh(0.5 * v)[:, None] ** 2
    on_line = line * t < kappa
    bound = -4.0 * mu * t[:, 0] + v + np.minimum(line * t, kappa).sum(axis=1)
    return bound, 4.0 * mu - (line * on_line).sum(axis=1)


class TestContour:
    def test_matches_series_oracle(self):
        for p, beta in contour_problems():
            log_z, means, moment, slope, _ = evaluate(p, beta)
            ref_log_z, ref_moment, ref_slope = series_zeta(p, beta)
            ref_means = [math.exp(series_zeta(shifted(p, i), beta)[0] - ref_log_z)
                         for i in range(p.k)]
            assert abs(log_z - ref_log_z) <= 1e-12
            assert np.max(np.abs(means - ref_means)) <= 1e-12
            assert abs(moment - ref_moment) <= 1e-12
            assert abs(slope - ref_slope) <= 1e-12 * ref_slope

    def test_tail_bound(self):
        # On a dense grid every term lies under the bound, the bound is below
        # -_TAIL from _reach's v on, and the terms stay below -_TAIL from the
        # last node on.
        for a, c in tail_bound_cases():
            mu, _ = _saddle(a.tolist(), c.tolist())
            d = mu - c
            _, h, w, *_ = _contour(a, c, 0.0)
            v_max, v_last = _reach(mu, d, a, h), h * (len(w) - 1)
            assert v_last <= v_max + h
            v = np.linspace(0.0, min(1.5 * v_max, _V_MAX), 4000)
            log_modulus, bound = _nodes(v, mu, d, a)[0], tail_bound(v, mu, d, a)[0]
            scale = 4.0 * mu * np.sinh(0.5 * v) ** 2 + float(a.sum())
            assert np.all(log_modulus <= bound + 1e-12 * scale)
            assert np.all(bound[v >= v_max] < -_TAIL)
            assert np.all(log_modulus[v >= v_last] < -_TAIL)

    @pytest.mark.parametrize("mu", [1e-15, 1e-9, 1e-4, 1.0 / 161.0, 1.0 / 160.0, 0.1, 10.0, 1e4])
    def test_tail_bound_falls_at_its_reach(self, mu):
        # The bound's slope in v, 1 - sinh(v) rate / 2, is negative where
        # _reach stops, small saddles included: the bound is concave and
        # starts above -_TAIL.  Labels far below the saddle (u < 1/2) raise
        # the bound.
        theta = np.array([0.2, 0.3, 0.5])
        d = mu * np.array([1.0, 3.0, 100.0])
        a = theta * d
        for h in (1e-3, 0.1):
            v_max = _reach(mu, d, a, h)
            bound, rate = tail_bound(np.array([v_max]), mu, d, a)
            assert 1.0 - 0.5 * math.sinh(v_max) * rate[0] < 0.0
            assert bound[0] <= -_TAIL

    def test_node_pass_does_not_grow_with_the_counts(self, monkeypatch):
        # Each label far below the saddle bounds the terms by its own line or
        # cap, so the node pass is at most twice as long as the nodes up to
        # the last term above e^-_TAIL however large the counts, and the demo
        # at counts x1e15 solves at once.
        passes = []

        def counting(v, mu, d, a):
            out = _nodes(v, mu, d, a)
            passes.append((len(v), int(np.flatnonzero(out[0] > -_TAIL).max()) + 2))
            return out

        monkeypatch.setattr(normalization, "_nodes", counting)
        multipliers = []
        for e in (3, 6, 9, 11, 12, 15, 18):
            scale = 10**e
            p = make_problem(DEMO_LABELS, [m * scale for m in DEMO_COUNTS], 2.3)
            start = time.perf_counter()
            if e < 12:
                evaluate(p, DEMO_BETA * scale)
            else:
                multipliers.append(full_update(p).beta / scale)
            assert e != 15 or time.perf_counter() - start < 0.1
            assert all(computed <= 2 * kept for computed, kept in passes)
            passes.clear()
        assert multipliers == pytest.approx([multipliers[-1]] * 3, rel=1e-12)

    def test_tail_past_reach_raises(self):
        # Below a saddle near 1e-16 the bound is still above -_TAIL at _V_MAX.
        mu = 1e-17
        with pytest.raises(NoConvergence):
            _reach(mu, np.array([mu, mu]), np.array([0.5 * mu, 0.5 * mu]), 0.1)

    def test_node_pass_past_its_cap_raises(self, demo, monkeypatch):
        # A huge count with a tiny pseudo-count next to the bottom label once
        # asked np.arange for 3e93 nodes and raised an untyped ValueError.
        p = make_problem((0.0, 1.0), (int(5.56e94), 0), 1.79e-84, (1.03e-27, 1.0))
        with pytest.raises(MomentBayesError):
            full_update(p)
        monkeypatch.setattr(normalization, "_MAX_CELLS", 30)
        with pytest.raises(NoConvergence, match="exceeds the cap"):
            full_update(demo)

    def test_embedded_error_estimate(self, monkeypatch):
        # Dropping the odd nodes doubles the spacing; the two sums agree to
        # far below the accuracy the moments need, at the first spacing
        # (with no halving allowed, a miss raises NoConvergence).
        monkeypatch.setattr(normalization, "_HALVINGS", 0)
        for p, beta in contour_problems():
            f, a, log_gamma = p.arrays
            c = beta * (f - f[int(np.argmax(beta * f))])
            _, h, w, r, total = _contour(a, c, log_gamma)
            rho = (w * (r @ a)).real
            i_h = h * total
            i_2h = 2.0 * h * (rho[0] + rho[2::2].sum())
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
            assert abs(moment - float(np.asarray(p.model.labels) @ ref)) <= 1e-8

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
        assert nodes == 77

    def test_node_counts_pinned(self, demo):
        # The node count follows from the saddle alone; a change to it is a
        # deliberate decision.  Demo counts x125 at their solved beta.
        big = make_problem(DEMO_LABELS, [125 * c for c in DEMO_COUNTS], 2.3)
        assert evaluate(demo, DEMO_BETA).nodes == 75
        assert evaluate(big, 1516.46).nodes == 71


class TestPosteriorMean:
    """``evaluate(p, beta).means``."""

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
    """``evaluate(p, beta).moment``."""

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
    """``evaluate(p, beta).slope``, the variance of ``f . theta``."""

    def test_degenerate_labels_zero(self):
        p = make_problem((2, 2, 2), (1, 1, 1), 2.0)
        assert evaluate(p, 0.0).slope == 0.0
        assert evaluate(p, 5.0).slope == 0.0

    def test_zero_multiplier_closed_form(self, demo):
        # Conjugate covariance: Cov_ij = (d_ij mean_i - mean_i mean_j) / (n + k + 1).
        mean = bayes_posterior_mean(demo)
        f = np.asarray(demo.model.labels)
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
    f = np.asarray(p.model.labels)
    c = f - float(f @ means)
    return float(c @ second @ c) - float(c @ means) ** 2


class TestMomentAndSlopeConsistency:
    def test_matches_ratio_identities(self):
        # The slope is checked against quadrature, which shares no code
        # with the contour; k <= 3 keeps the (k+1)(k+2)/2 integrals cheap.
        rng = np.random.default_rng(21)
        for _ in range(15):
            p = random_problem(rng, k=int(rng.integers(2, 4)))
            beta = float(rng.uniform(-12, 12))
            mom, slope = moment_and_slope(*p.arrays, beta)[2:4]
            assert mom == pytest.approx(evaluate(p, beta).moment, abs=1e-9)
            assert slope == pytest.approx(quadrature_variance(p, beta), abs=1e-9)
            # evaluate is the solver's pass: on the unit-span labels at beta *
            # span, in problem units.
            f, a, log_gamma = p.arrays
            d, span = unit_span(f, p.moment_target)
            ev = moment_and_slope(d, a, log_gamma, beta * span)
            assert evaluate(p, beta).slope == ev.slope * span * span

    @pytest.mark.parametrize("beta", [1e-160, -1e-160, 1e-300, 5e-324])
    def test_tiny_multiplier_uses_closed_form(self, demo, beta):
        # Below double resolution in beta * (f_max - f_min) the beta = 0
        # conjugate values are exact to rounding; the contour sums, which
        # never divide by beta, must reproduce them.
        mean = np.asarray(DEMO_BAYES)
        f = np.asarray(demo.model.labels)
        cov = (np.diag(mean) - np.outer(mean, mean)) / (20 + 3 + 1)
        mom, slope = moment_and_slope(*demo.arrays, beta)[2:4]
        assert mom == pytest.approx(DEMO_BAYES_MOMENT, rel=1e-14)
        assert slope == pytest.approx(float(f @ cov @ f), rel=1e-12)
        assert evaluate(demo, beta).slope == slope
