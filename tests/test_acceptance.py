"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7 compares the ME posterior with the large-deviation (tilted
frequency) solution as the data are scaled up. The two have different
limits: the posterior means tend to the constrained maximum-likelihood
point, the reverse projection ``argmin KL(nu || theta)`` of the frequencies
``nu`` onto the moment constraint, while the tilted frequencies are the
forward projection ``argmin KL(theta || nu)``. The test asserts that the
means approach the former and prints their distance to the latter, which
tends to the gap between the two projections.
"""

import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from momentbayes import (
    evaluate,
    full_update,
    make_problem,
    montecarlo_moments,
    quadrature_zeta,
    solve_beta,
    solve_tilt,
    sweep,
)
from momentbayes.errors import Diverged

from conftest import (
    DEMO_BAYES,
    DEMO_BAYES_MOMENT,
    DEMO_BETA,
    DEMO_COUNTS,
    DEMO_FREQS,
    DEMO_LABELS,
    DEMO_MEANS,
    DEMO_TILTED,
    DEMO_ZETA,
)

SUITE_SEED = 20250810


def _report(criterion, ok, detail=""):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_worked_example_reproduced(demo):
    start = time.perf_counter()
    result = full_update(demo)
    elapsed = time.perf_counter() - start
    zeta = math.exp(result.log_zeta)
    # The reference normalization is the bare integral of the posterior
    # density (no multinomial coefficient); that convention matches.
    ok = (
        abs(result.beta - DEMO_BETA) <= 5e-4
        and all(abs(m - r) <= 5e-4 for m, r in zip(result.means, DEMO_MEANS))
        and abs(zeta - DEMO_ZETA) / DEMO_ZETA <= 2e-3
        and elapsed < 1.0
    )
    _report(
        1, ok,
        f"beta={result.beta:.6f} zeta={zeta:.4f} (bare-integral convention) "
        f"means={tuple(round(m, 6) for m in result.means)} dt={elapsed * 1e3:.0f}ms",
    )
    assert abs(result.beta - DEMO_BETA) <= 5e-4
    np.testing.assert_allclose(result.means, DEMO_MEANS, atol=5e-4)
    assert abs(zeta - DEMO_ZETA) / DEMO_ZETA <= 2e-3
    assert elapsed < 1.0


def test_criterion_2_tilted_frequencies_reproduced():
    start = time.perf_counter()
    tilted = solve_tilt(DEMO_FREQS, DEMO_LABELS, 2.3)
    elapsed = time.perf_counter() - start
    ok = (
        all(abs(t - r) <= 5e-4 for t, r in zip(tilted.probabilities, DEMO_TILTED))
        and elapsed < 0.1
    )
    _report(
        2, ok,
        f"tilted={tuple(round(t, 6) for t in tilted.probabilities)} "
        f"dt={elapsed * 1e3:.2f}ms",
    )
    np.testing.assert_allclose(tilted.probabilities, DEMO_TILTED, atol=5e-4)
    assert elapsed < 0.1


def test_criterion_3_no_constraint_recovers_plain_bayes():
    p = make_problem(DEMO_LABELS, DEMO_COUNTS, DEMO_BAYES_MOMENT)
    result = full_update(p)
    ok = abs(result.beta) <= 1e-8 and all(
        abs(m - r) <= 1e-10 for m, r in zip(result.means, DEMO_BAYES)
    )
    _report(3, ok, f"beta={result.beta!r} means={result.means}")
    assert abs(result.beta) <= 1e-8
    np.testing.assert_allclose(result.means, DEMO_BAYES, atol=1e-10)


def test_criterion_4_series_vs_oracles_on_random_suite():
    # The Monte Carlo check is one family of z-scores, one per instance and
    # component. A per-comparison 3-sigma gate fails a correct program on
    # about N * 0.0027 of them in every run, so the gate is family-wise:
    # Bonferroni at level alpha over the N comparisons actually made.
    alpha = 0.01
    start = time.perf_counter()
    rng = np.random.default_rng(SUITE_SEED)
    n_instances = 210
    worst_log_gap = 0.0
    z_scores = []
    where = []
    for idx in range(n_instances):
        k = 2 + idx % 3
        labels = np.sort(rng.uniform(0.0, 1.5, size=k))
        while labels[-1] - labels[0] < 1e-3:
            labels = np.sort(rng.uniform(0.0, 1.5, size=k))
        counts = rng.integers(0, 8, size=k)  # n <= 28
        lo, hi = labels[0], labels[-1]
        target = lo + (hi - lo) * rng.uniform(0.2, 0.8)
        p = make_problem(labels, counts, target)
        beta = float(rng.uniform(-20.0, 20.0))

        series = evaluate(p, beta).log_z
        quad = quadrature_zeta(p, beta).log_value
        worst_log_gap = max(worst_log_gap, abs(series - quad))
        assert abs(series - quad) <= 1e-8, (
            f"instance {idx}: series {series} vs quadrature {quad}"
        )

        mm = montecarlo_moments(p, beta, 10**6, seed=SUITE_SEED + idx)
        mean = evaluate(p, beta).means
        for i in range(k):
            se = max(mm.mean_std_errors[i], 1e-12)
            z_scores.append(float((mean[i] - mm.means[i]) / se))
            where.append((idx, i, mm.ess))
    elapsed = time.perf_counter() - start
    n_tests = len(z_scores)
    bound = NormalDist().inv_cdf(1.0 - alpha / (2 * n_tests))
    abs_z = np.abs(z_scores)
    worst = int(np.argmax(abs_z))
    worst_z = float(abs_z[worst])
    within = worst_z <= bound
    ok = within and elapsed < 300.0
    _report(
        4, ok,
        f"{n_instances} instances, worst |dlogZ|={worst_log_gap:.2e}; "
        f"N={n_tests} mean z-scores, alpha={alpha}, Bonferroni bound={bound:.3f}, "
        f"worst |z|={worst_z:.2f}, {int(np.sum(abs_z > 3.0))} with |z|>3, "
        f"mean z^2={float(np.mean(np.square(z_scores))):.2f}, dt={elapsed:.0f}s",
    )
    idx, i, ess = where[worst]
    assert within, (
        f"instance {idx} component {i}: |z|={worst_z:.2f} exceeds the "
        f"family-wise bound {bound:.3f} (alpha={alpha}, N={n_tests}, ess={ess:.0f})"
    )
    assert elapsed < 300.0


def test_criterion_5_multiplier_curve_properties(demo):
    points = sweep(demo, 1.05, 2.95, 101)
    betas = [pt.beta for pt in points]
    all_converged = all(pt.converged for pt in points)
    increasing = all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    beta_23 = solve_beta(make_problem(DEMO_LABELS, DEMO_COUNTS, 2.3))
    beta_29 = solve_beta(make_problem(DEMO_LABELS, DEMO_COUNTS, 2.90))
    # Beyond the cap the solver must refuse rather than return the cap.
    try:
        solve_beta(make_problem(DEMO_LABELS, DEMO_COUNTS, 2.9), beta_cap=50.0)
        diverged_refused = False
    except Diverged:
        diverged_refused = True
    capped = sweep(demo, 2.5, 2.9, 5, beta_cap=50.0)
    flagged = [pt for pt in capped if not pt.converged]
    flags_ok = bool(flagged) and all(math.isnan(pt.beta) for pt in flagged)
    ok = all_converged and increasing and beta_29 > beta_23 and diverged_refused and flags_ok
    _report(
        5, ok,
        f"range ({betas[0]:.2f}, {betas[-1]:.2f}), beta(2.9)={beta_29:.2f} "
        f"> beta(2.3)={beta_23:.2f}, {len(flagged)} points past cap flagged",
    )
    assert all_converged and increasing
    assert beta_29 > beta_23
    assert diverged_refused
    assert flags_ok


def test_criterion_6_invariances_on_random_inputs():
    rng = np.random.default_rng(SUITE_SEED + 1)
    h = 1e-5
    for _ in range(25):
        k = int(rng.integers(2, 5))
        labels = np.sort(rng.uniform(0.0, 1.5, size=k))
        while labels[-1] - labels[0] < 1e-3:
            labels = np.sort(rng.uniform(0.0, 1.5, size=k))
        counts = rng.integers(0, 8, size=k)
        lo, hi = labels[0], labels[-1]
        target = lo + (hi - lo) * rng.uniform(0.2, 0.8)
        p = make_problem(labels, counts, target)
        beta = float(rng.uniform(-12.0, 12.0))

        # Shift: labels + c with target + c.
        c = float(rng.uniform(-3.0, 3.0))
        shifted = make_problem(labels + c, counts, target + c)
        assert evaluate(shifted, beta).log_z - evaluate(p, beta).log_z == (
            pytest.approx(beta * c, abs=1e-10)
        )
        np.testing.assert_allclose(
            evaluate(shifted, beta).means, evaluate(p, beta).means, atol=1e-10
        )
        assert abs(solve_beta(shifted) - solve_beta(p)) <= 1e-6

        # Scale: labels * lam with target * lam solves to beta / lam.
        lam = float(rng.choice([0.5, 2.0, -1.5]))
        scaled = make_problem(labels * lam, counts, target * lam)
        assert evaluate(scaled, beta).log_z == pytest.approx(
            evaluate(p, lam * beta).log_z, abs=1e-10
        )
        assert abs(solve_beta(scaled) - solve_beta(p) / lam) <= 1e-9

        # Permutation equivariance.
        perm = rng.permutation(k)
        permuted = make_problem(labels[perm], counts[perm], target)
        assert evaluate(permuted, beta).log_z == pytest.approx(
            evaluate(p, beta).log_z, abs=1e-10
        )
        np.testing.assert_allclose(
            evaluate(permuted, beta).means, evaluate(p, beta).means[perm], atol=1e-10
        )

        # Analytic moment equals the central difference of ln Z.
        fd = (evaluate(p, beta + h).log_z - evaluate(p, beta - h).log_z) / (2 * h)
        assert evaluate(p, beta).moment == pytest.approx(fd, abs=1e-6)
    _report(6, True, "shift/scale/permutation and derivative checks on 25 instances")


def _constrained_ml_point(nu, f, F):
    """The constrained maximum-likelihood point: the maximizer of
    ``sum_i nu_i ln theta_i`` on the simplex subject to ``f . theta = F``,
    i.e. the reverse projection ``argmin KL(nu || theta)``.

    Stationarity gives ``theta_i = nu_i / (1 + mu (f_i - F))``; the
    multiplier ``mu`` is the root of ``g(mu) = sum_i nu_i d_i / (1 + mu d_i)``
    with ``d = f - F``, which decreases strictly between its poles and is
    found here by plain bisection.
    """
    nu = np.asarray(nu, dtype=float)
    d = np.asarray(f, dtype=float) - F
    lo, hi = -1.0 / d.max(), -1.0 / d.min()
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.dot(nu, d / (1.0 + mid * d)) > 0.0:
            lo = mid
        else:
            hi = mid
    return nu / (1.0 + mid * d)


def test_criterion_7_distance_to_tilted_under_data_scaling():
    # As the counts scale by s, beta/n tends to a constant and the posterior
    # concentrates on the constrained maximum-likelihood point; the means'
    # distance to it falls like 1/n.
    tilted = np.asarray(solve_tilt(DEMO_FREQS, DEMO_LABELS, 2.3).probabilities)
    ml = _constrained_ml_point(DEMO_FREQS, DEMO_LABELS, 2.3)
    assert abs(ml.sum() - 1.0) <= 1e-12
    assert abs(float(np.dot(DEMO_LABELS, ml)) - 2.3) <= 1e-12
    gap = float(np.max(np.abs(ml - tilted)))
    scales = (1, 5, 25, 125)
    to_ml = []
    to_tilted = []
    for s in scales:
        p = make_problem(DEMO_LABELS, tuple(s * c for c in DEMO_COUNTS), 2.3)
        state = full_update(p)
        means = np.asarray(state.means)
        to_ml.append(float(np.max(np.abs(means - ml))))
        to_tilted.append(float(np.max(np.abs(means - tilted))))
    decreasing = all(d2 < d1 for d1, d2 in zip(to_ml, to_ml[1:]))
    # At n = 2500 the means must sit far closer to the maximum-likelihood
    # point than the two limits are to each other; were they tending to the
    # tilted frequencies, this distance would tend to the gap instead.
    near_ml = to_ml[-1] <= gap / 10.0
    ok = decreasing and near_ml
    _report(
        7, ok,
        f"L_inf to the ML point at s={scales}: {[f'{d:.3g}' for d in to_ml]}; "
        f"to the tilted frequencies: {[f'{d:.3g}' for d in to_tilted]}; "
        f"gap between the two limits={gap:.5f}",
    )
    assert decreasing, (
        "L_inf distance between the posterior means and the constrained "
        f"maximum-likelihood point is not strictly decreasing: {to_ml}"
    )
    assert near_ml, (
        f"posterior means at s={scales[-1]} are {to_ml[-1]:.3g} from the "
        f"maximum-likelihood point, not far below the gap {gap:.5f} to the "
        f"tilted frequencies ({to_tilted[-1]:.3g} from those)"
    )
