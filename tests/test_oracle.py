import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

import momentbayes
from momentbayes import (
    Problem,
    bayes_posterior_mean,
    evaluate,
    make_problem,
    montecarlo_moments,
    quadrature_zeta,
)
from momentbayes.errors import DimensionTooHigh, ToleranceNotMet
from momentbayes.oracle import series_zeta

from conftest import DEMO_BETA, DEMO_COUNTS, DEMO_LABELS, DEMO_MEANS, random_problem


class TestQuadrature:
    def test_zero_multiplier_closed_form(self, demo):
        expected = float(gammaln(12) + gammaln(3) + gammaln(8) - gammaln(23))
        est = quadrature_zeta(demo, 0.0)
        assert est.log_value == pytest.approx(expected, abs=1e-10)
        assert est.std_error == 0.0
        assert est.method == "quadrature"

    def test_two_outcome_closed_form(self):
        p = make_problem((0, 1), (1, 1), 0.5)
        assert quadrature_zeta(p, 1.0).log_value == pytest.approx(
            math.log(3.0 - math.e), abs=1e-10
        )

    def test_agrees_with_series_at_demo_multiplier(self, demo):
        series = evaluate(demo, DEMO_BETA).log_z
        assert abs(quadrature_zeta(demo, DEMO_BETA).log_value - series) <= 1e-8

    def test_deterministic(self, demo):
        a = quadrature_zeta(demo, 3.3)
        b = quadrature_zeta(demo, 3.3)
        assert a.log_value == b.log_value
        assert a.samples_or_evals == b.samples_or_evals

    def test_dimension_limit(self):
        p = make_problem((1, 2, 3, 4, 5), (1, 1, 1, 1, 1), 3.0)
        with pytest.raises(DimensionTooHigh):
            quadrature_zeta(p, 1.0)

    def test_underflowing_integrand(self):
        # x^800 (1-x)^800 peaks at 4^-800, below the smallest double; summed
        # in log space it is an ordinary integrand.
        p = make_problem((0, 1), (800, 800), 0.5)
        expected = 2.0 * math.lgamma(801) - math.lgamma(1602)
        assert quadrature_zeta(p, 0.0).log_value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("beta", [-5.0, 1.0, 3.3])
    def test_matches_quadpack(self, demo, beta):
        # An external integrator: QUADPACK through scipy.  On k = 2 with
        # pseudo-counts (0.5, 1) and counts (0, 3), its algebraic weight takes
        # the endpoint singularity x^-0.5 exactly.
        p = make_problem((0.3, 1.7), (0, 3), 1.0, (0.5, 1.0))
        val, _ = integrate.quad(lambda x: math.exp(beta * (0.3 * x + 1.7 * (1 - x))),
                                0.0, 1.0, weight="alg", wvar=(-0.5, 3.0),
                                epsabs=0.0, epsrel=1e-13)
        assert quadrature_zeta(p, beta).log_value == pytest.approx(math.log(val), abs=1e-9)

        def density(y, x):
            z = 1.0 - x - y
            return x**11 * y**2 * z**7 * math.exp(beta * (x + 2 * y + 3 * z))

        val, _ = integrate.dblquad(density, 0.0, 1.0, 0.0, lambda x: 1.0 - x,
                                   epsabs=0.0, epsrel=1e-13)
        assert quadrature_zeta(demo, beta).log_value == pytest.approx(math.log(val), abs=1e-9)

    @pytest.mark.parametrize("alpha", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_tiny_shapes_at_zero_multiplier(self, alpha):
        # No data: the Dirichlet normalization in closed form.
        p = make_problem(DEMO_LABELS, (0, 0, 0), 2.3, (alpha,) * 3)
        expected = 3.0 * math.lgamma(alpha) - math.lgamma(3.0 * alpha)
        assert quadrature_zeta(p, 0.0).log_value == pytest.approx(expected, rel=1e-10)

    def test_tiny_shape_two_outcomes(self):
        # Z = B(a1, a2) M(a1; a1 + a2; beta (f1 - f2)) e^(beta f2), by mpmath.
        p = make_problem((0, 1), (5, 0), 0.5, (1.0, 1e-6))
        with mp.workdps(40):
            a1, a2, beta = mp.mpf(6), mp.mpf(1e-6), mp.mpf(2)
            expected = float(beta + mp.log(mp.beta(a1, a2)) + mp.log(mp.hyp1f1(a1, a1 + a2, -beta)))
        assert quadrature_zeta(p, 2.0).log_value == pytest.approx(expected, rel=1e-10)

    def test_refusal_is_quick(self):
        # Four outcomes with no data at pseudo-counts 1e-8: the spacing that
        # would meet the tolerance needs more points than the budget.
        p = make_problem((1, 2, 3, 4), (0, 0, 0, 0), 2.5, (1e-8,) * 4)
        start = time.perf_counter()
        with pytest.raises(ToleranceNotMet):
            quadrature_zeta(p, 0.0)
        assert time.perf_counter() - start < 1.0


class TestMonteCarlo:
    def test_every_weight_underflows(self):
        # Labels x1e6 at beta = 14: every exp(beta (f . theta - f_max)) is 0,
        # which must be a typed error before any division, not a warning.
        p = make_problem((1e6, 2e6, 3e6), DEMO_COUNTS, 2.3e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceNotMet):
                montecarlo_moments(p, 14.0, 10**4, seed=0)

    def test_zero_multiplier_recovers_conjugate(self, demo):
        mm = montecarlo_moments(demo, 0.0, 10**5, seed=3)
        expected = float(gammaln(12) + gammaln(3) + gammaln(8) - gammaln(23))
        # Weights are identically 1: the normalizer is exact.
        assert mm.estimate.log_value == pytest.approx(expected, abs=1e-12)
        assert mm.estimate.std_error == pytest.approx(0.0, abs=1e-12)
        mean = bayes_posterior_mean(demo)
        for i in range(3):
            se = max(mm.mean_std_errors[i], 1e-12)
            assert abs(mm.means[i] - mean[i]) <= 3.0 * se

    def test_reproducible_per_seed(self, demo):
        a = montecarlo_moments(demo, DEMO_BETA, 10**5, seed=1)
        b = montecarlo_moments(demo, DEMO_BETA, 10**5, seed=1)
        assert a.estimate.log_value == b.estimate.log_value
        assert a.means == b.means
        assert a.ess == b.ess

    def test_seeds_agree_within_errors(self, demo):
        a = montecarlo_moments(demo, DEMO_BETA, 10**6, seed=1)
        b = montecarlo_moments(demo, DEMO_BETA, 10**6, seed=2)
        combined = math.hypot(a.estimate.std_error, b.estimate.std_error)
        assert abs(a.estimate.log_value - b.estimate.log_value) <= 3.0 * combined
        for i in range(3):
            se = math.hypot(a.mean_std_errors[i], b.mean_std_errors[i])
            assert abs(a.means[i] - b.means[i]) <= 3.0 * se

    def test_matches_series_and_reference_means(self, demo):
        mm = montecarlo_moments(demo, DEMO_BETA, 10**6, seed=5)
        series = evaluate(demo, DEMO_BETA).log_z
        assert abs(mm.estimate.log_value - series) <= 3.0 * mm.estimate.std_error
        for i in range(3):
            assert abs(mm.means[i] - DEMO_MEANS[i]) <= 3.0 * mm.mean_std_errors[i] + 5e-4

    def test_low_ess_flagged_but_estimates_returned(self, demo):
        # A strong tilt with few samples: the effective sample size
        # collapses, the flag goes up, and the estimate stays usable
        # within its (inflated) error bars.
        mm = montecarlo_moments(demo, DEMO_BETA, 10**3, seed=11)
        assert mm.low_ess
        assert mm.ess < 100
        assert math.isfinite(mm.estimate.log_value)
        series = evaluate(demo, DEMO_BETA).log_z
        assert abs(mm.estimate.log_value - series) <= 4.0 * mm.estimate.std_error

    def test_ess_healthy_at_large_samples(self, demo):
        mm = montecarlo_moments(demo, DEMO_BETA, 10**5, seed=11)
        assert not mm.low_ess

    def test_sample_floor(self, demo):
        with pytest.raises(ValueError):
            montecarlo_moments(demo, 0.0, 999, seed=0)


class TestCrossAgreement:
    def test_quadrature_vs_montecarlo(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            p = random_problem(rng)
            beta = float(rng.uniform(-8, 8))
            q = quadrature_zeta(p, beta)
            mm = montecarlo_moments(p, beta, 10**5, seed=int(rng.integers(1 << 30)))
            se = max(mm.estimate.std_error, 1e-12)
            assert abs(q.log_value - mm.estimate.log_value) <= 3.5 * se

    def test_oracles_read_no_engine_arrays(self, demo, monkeypatch):
        # The oracles form labels and shapes from the problem's own fields,
        # so they share no derived numbers with the production path.
        def run():
            return (quadrature_zeta(demo, 1.0), montecarlo_moments(demo, 1.0, 10**4, seed=3),
                    series_zeta(demo, 1.0))

        expected = run()

        def refuse(self):
            raise AssertionError("Problem.arrays was read")

        monkeypatch.setattr(Problem, "arrays", property(refuse))
        with pytest.raises(AssertionError, match="Problem.arrays"):
            evaluate(demo, 1.0)
        assert run() == expected


def fresh_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this very copy of
    the package."""
    src = str(Path(momentbayes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True, env=env)


class TestImport:
    def test_package_import_leaves_quadrature_unloaded(self):
        code = ("import sys, momentbayes; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert fresh_python(code).stdout.strip() == "[]"

    def test_cli_without_scipy(self, tmp_path):
        # ``sys.modules['scipy'] = None`` makes every scipy import fail.  No
        # oracle needs scipy: the CLI's oracles and update answer, and so do
        # the series and the k = 2 closed form.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"labels": list(DEMO_LABELS), "counts": list(DEMO_COUNTS), "moment_target": 2.3}))
        report = tmp_path / "report.json"
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from momentbayes import evaluate, make_problem\n"
            "from momentbayes.cli import main\n"
            "from momentbayes.oracle import kummer_m_log, series_zeta\n"
            "spec, out = sys.argv[1:]\n"
            "print(main(['oracle', '--spec', spec, '--method', 'quadrature', '--beta', '1',\n"
            "            '--out', out + '.quad']),\n"
            "      main(['oracle', '--spec', spec, '--method', 'montecarlo', '--beta', '1',\n"
            "            '--samples', '1000', '--out', out + '.mc']),\n"
            "      main(['update', '--spec', spec, '--out', out]))\n"
            "p = make_problem((1, 2, 3), (11, 2, 7), 2.3)\n"
            "print(series_zeta(p, 1.0)[0] - evaluate(p, 1.0).log_z)\n"
            "print(kummer_m_log(2.0, 5.0, 3.0))\n"
        )
        out = fresh_python(code, str(spec), str(report))
        lines = out.stdout.splitlines()
        assert lines[0].split() == ["0", "0", "0"]
        assert abs(float(lines[1])) <= 1e-12
        assert math.isfinite(float(lines[2]))
        assert out.stderr == ""
        assert abs(json.loads(Path(f"{report}.quad").read_text())["discrepancy"]) <= 1e-8
        assert json.loads(report.read_text())["beta"] == pytest.approx(DEMO_BETA, abs=5e-4)

    def test_cli_quadrature_warnings_stay_off_stderr(self, tmp_path):
        # A hard four-outcome integral (a zero count, pseudo-counts 0.3 and
        # 0.5) answers within the default budget, with nothing on stderr.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"labels": [0.1, 0.7, 0.9, 2.5], "counts": [0, 4, 9, 1],
                                    "pseudo_counts": [0.5, 1, 2, 0.3], "moment_target": 1.9}))
        code = (
            "import sys\n"
            "from momentbayes.cli import main\n"
            "print(main(['oracle', '--spec', sys.argv[1], '--method', 'quadrature',\n"
            "            '--beta', '3', '--out', sys.argv[2]]))\n"
        )
        report = tmp_path / "report.json"
        out = fresh_python(code, str(spec), str(report))
        assert out.stdout.split() == ["0"]
        assert out.stderr == ""
        assert abs(json.loads(report.read_text())["discrepancy"]) <= 1e-8
