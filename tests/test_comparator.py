import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from momentbayes import (
    CountData,
    bayes_posterior_mean,
    compare,
    empirical_frequencies,
    make_problem,
    solve_tilt,
    solver,
)
from momentbayes.errors import MomentOutOfRange, NoData, ZeroSupport

from conftest import (
    DEMO_COUNTS,
    DEMO_FREQS,
    DEMO_LABELS,
    DEMO_MEANS,
    DEMO_TARGET,
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

    @pytest.mark.parametrize("f, counts, F", [
        ((-0.371604, -0.0804212, 0.0202733, 0.628396), (0, 59, 0, 1639228), 0.0),
        ((0.0, 1.4822055615189692e-06, 1.5395402868893563e-06), (0, 13, 4710448),
         1.5366974218921367e-06),
        ((0.0, 0.2054159946067725, 0.7325404147764981, 0.8499537836004529), (0, 1, 71115, 689),
         0.2385199845282295),
        ((-11.03772238007739, -11.037675843394151, -11.037626332292817, -11.037519221620546),
         (0, 1, 1, 6724849), -11.03753863315331),
    ])
    def test_largest_tilt_on_a_zero_frequency(self, f, counts, F):
        # A label with no frequency holds the largest tilt on the way to the
        # answer: shifted by it, every weight on the support underflowed, the
        # moment was 0/0, and the solve ran out of evaluations.
        nu = np.asarray(counts, dtype=float) / sum(counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tilted = solve_tilt(nu, f, F)
        d = (np.asarray(f) - F) / (max(f) - min(f))
        assert abs(float(d @ np.asarray(tilted.probabilities))) <= TILT_TOL
        assert all(p == 0.0 for p, c in zip(tilted.probabilities, counts) if c == 0)
        if F == 0.0:
            assert tilted.eta == pytest.approx(-17.3361, rel=1e-5)

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

    @pytest.mark.parametrize("nu, f", [
        ((0.5, math.nan, 0.5), DEMO_LABELS),
        (DEMO_FREQS, (1.0, math.nan, 3.0)),
        (DEMO_FREQS, (1.0, 2.0, math.inf)),
        (DEMO_FREQS, (-math.inf, 2.0, 3.0)),
    ])
    def test_non_finite_input_rejected_up_front(self, nu, f, monkeypatch):
        # Refused before any solver evaluation, with no numpy warning.
        monkeypatch.setattr(solver, "solve_increasing", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be"):
                solve_tilt(nu, f, 2.3)


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


@pytest.mark.parametrize("lam", [1e6, 1e9])
@pytest.mark.parametrize("spans", [0.0, 1e5])
def test_compare_across_label_scale_and_offset(demo, lam, spans):
    # Both multipliers are solved on the unit-span labels to one tolerance.
    offset = spans * lam * (max(DEMO_LABELS) - min(DEMO_LABELS))
    p = make_problem([lam * x + offset for x in DEMO_LABELS], DEMO_COUNTS,
                     lam * DEMO_TARGET + offset)
    rep, ref = compare(p), compare(demo)
    assert rep.beta * lam == pytest.approx(ref.beta, rel=1e-8)
    assert rep.eta * lam == pytest.approx(ref.eta, rel=1e-8)
    np.testing.assert_allclose(rep.me.means, ref.me.means, rtol=0, atol=1e-9)
    np.testing.assert_allclose(rep.tilted.probabilities, ref.tilted.probabilities,
                               rtol=0, atol=1e-9)


def tilt_reference(counts, f, F):
    """The tilt ``eta`` with ``sum_i m_i (f_i - F) e^{eta (f_i - F)} = 0`` in
    60 digits, by bisection on the float inputs as given."""
    with mp.workdps(60):
        terms = [(mp.mpf(int(m)), mp.mpf(x) - mp.mpf(F)) for m, x in zip(counts, f) if m > 0]

        def g(t):
            return mp.fsum(m * d * mp.exp(t * d) for m, d in terms)

        lo, hi = mp.mpf(-1), mp.mpf(1)
        while g(lo) > 0:
            lo *= 2
        while g(hi) < 0:
            hi *= 2
        for _ in range(260):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
        return float(lo)


def near_edge_tilts(n, seed):
    """Targets within 1e-14 to 0.4 of the span from an edge, labels over 12
    orders of scale with offsets; targets that round onto an edge are left out."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(2, 8))
        scale = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        offset = scale * rng.uniform(-1e5, 1e5) if rng.uniform() < 0.5 else 0.0
        x = np.sort(rng.uniform(0.0, 1.0, k))
        x[0], x[-1] = 0.0, 1.0
        counts = rng.integers(1, 1000, k)
        gap = math.exp(rng.uniform(math.log(1e-14), math.log(0.4)))
        u = 1.0 - gap if rng.uniform() < 0.5 else gap
        f, F = offset + scale * x, offset + scale * u
        if f[0] < F < f[-1]:
            yield counts, f, F


# Targets closer to an edge than the tolerance on the moment: any tilt past
# the root met it there, and a solve stepping on the moment returned 13.3x,
# 8.9x and 5.9x the tilt.
OVERSHOOT_CASES = [
    ((1, 474), (0.0, 0.002127284463514205), 3.5001029723358583e-16),
    ((3, 951), (0.0, 0.001102872669957164), 9.139647072642115e-17),
    ((4, 890, 635), (0.0, 230820.12194527345, 251686.76963137093), 5.375282988075364e-09),
]


def test_tilt_against_a_60_digit_root():
    cases = OVERSHOOT_CASES + list(near_edge_tilts(150, 3))
    assert len(cases) > 130
    for counts, f, F in cases:
        nu = np.asarray(counts, dtype=float) / sum(counts)
        eta = solve_tilt(nu, f, F).eta
        assert eta == pytest.approx(tilt_reference(counts, f, F), rel=1e-12, abs=0.0)
