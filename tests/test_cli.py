import json
import math
import warnings

import numpy as np
import pytest

from momentbayes import oracle
from momentbayes.cli import main

from conftest import (
    DEMO_BAYES,
    DEMO_BETA,
    DEMO_COUNTS,
    DEMO_LABELS,
    DEMO_MEANS,
    DEMO_TILTED,
    DEMO_ZETA,
)


def write_spec(path, labels=DEMO_LABELS, counts=DEMO_COUNTS, target=2.3, pseudo=None):
    obj = {"labels": list(labels), "counts": list(counts), "moment_target": target}
    if pseudo is not None:
        obj["pseudo_counts"] = list(pseudo)
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    return write_spec(tmp_path / "spec.json")


def run(args):
    return main(args)


class TestUpdate:
    def test_demo_report(self, spec_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["update", "--spec", spec_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["beta"] == pytest.approx(DEMO_BETA, abs=5e-4)
        assert report["zeta"] == pytest.approx(DEMO_ZETA, rel=2e-3)
        np.testing.assert_allclose(report["means"], DEMO_MEANS, atol=5e-4)
        np.testing.assert_allclose(report["bayes_means"], DEMO_BAYES, rtol=1e-12)
        assert report["residual"] <= 1e-10
        assert report["solver"]["iterations"] > 0
        assert abs(report["solver"]["seed"] - report["beta"]) <= 1.5
        # The evaluated side bounds beta; the other, never evaluated, is null,
        # and so is the cap, which is absent by default.
        lo, hi = report["solver"]["bracket"]
        assert lo <= report["beta"] and hi is None
        assert report["solver"]["beta_cap"] is None
        assert report["spec"]["pseudo_counts"] == [1.0, 1.0, 1.0]
        assert set(report["solver"]) == {"iterations", "seed", "bracket", "beta_cap"}

    def test_writes_to_stdout_by_default(self, spec_file, capsys):
        assert run(["update", "--spec", spec_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["beta"] == pytest.approx(DEMO_BETA, abs=5e-4)

    def test_bayes_fixed_point(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", target=42.0 / 23.0)
        out = tmp_path / "r.json"
        assert run(["update", "--spec", spec, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["beta"] == 0.0
        np.testing.assert_allclose(report["means"], report["bayes_means"], atol=1e-12)

    def test_byte_identical_reruns(self, spec_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["update", "--spec", spec_file, "--out", str(out1)])
        run(["update", "--spec", spec_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_through_spec_echo(self, spec_file, tmp_path):
        out1 = tmp_path / "r1.json"
        run(["update", "--spec", spec_file, "--out", str(out1)])
        echoed = json.loads(out1.read_text())["spec"]
        spec2 = tmp_path / "spec2.json"
        spec2.write_text(json.dumps(echoed))
        out2 = tmp_path / "r2.json"
        run(["update", "--spec", str(spec2), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_moment_out_of_range_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", target=3.0)
        assert run(["update", "--spec", spec]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MomentOutOfRange"

    def test_diverged_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", target=2.9)
        assert run(["update", "--spec", spec, "--beta-cap", "50"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Diverged"

    def test_missing_file(self, tmp_path, capsys):
        assert run(["update", "--spec", str(tmp_path / "nope.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "BadSpec"

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["update", "--spec", str(bad)]) == 2
        msg = json.loads(capsys.readouterr().err)
        assert msg["error"] == "BadSpec"
        assert "line" in msg["message"]

    def test_missing_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": [1, 2, 3], "counts": [1, 1, 1]}))
        assert run(["update", "--spec", str(bad)]) == 2
        assert "moment_target" in json.loads(capsys.readouterr().err)["message"]

    def test_unknown_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"labels": [1, 2], "counts": [1, 1], "moment_target": 1.5,
                        "weights": [1, 1]})
        )
        assert run(["update", "--spec", str(bad)]) == 2
        assert "weights" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("field, value", [
        ("counts", [math.inf, 2, 7]),
        ("labels", [1, 2, 10**400]),
        ("pseudo_counts", [1, 1, 10**400]),
        ("moment_target", 10**400),
        ("labels", [-10**400, 2, 3]),
    ])
    def test_overflowing_number_is_bad_spec(self, tmp_path, capsys, field, value):
        obj = {"labels": list(DEMO_LABELS), "counts": list(DEMO_COUNTS), "moment_target": 2.3,
               field: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))  # Infinity, or an integer past the float range
        assert run(["update", "--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "BadSpec"
        # make_problem's own ValueError, which names the field.
        assert field.split("_")[0] in json.loads(err)["message"]

    @pytest.mark.parametrize("command", [["update"], ["compare"],
                                         ["oracle", "--method", "quadrature"]],
                             ids=["update", "compare", "oracle"])
    @pytest.mark.parametrize("labels, counts", [
        (DEMO_LABELS, [10**400, 2, 7]),  # a count no float holds
        (DEMO_LABELS, [10**306, 2, 7]),  # a count whose ln Gamma overflows
        ([1e308, -1e308, 3], DEMO_COUNTS),  # labels whose span overflows
    ], ids=["count", "lgamma", "span"])
    def test_unrepresentable_problem_is_bad_spec(self, tmp_path, capsys, command, labels,
                                                 counts):
        bad = write_spec(tmp_path / "bad.json", labels, counts)
        assert run(command[:1] + ["--spec", bad] + command[1:]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "BadSpec"


class TestSweep:
    def test_csv_format_and_monotonicity(self, spec_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", spec_file, "--min", "1.9", "--max", "2.9",
                    "--steps", "101", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "F,beta,converged"
        assert len(lines) == 102
        betas = []
        for line in lines[1:]:
            f_txt, b_txt, conv = line.split(",")
            assert conv in ("true", "false")
            # Plain decimal text: parseable with no grouping separators.
            assert float(f_txt) and " " not in line and "'" not in line
            if conv == "true":
                betas.append(float(b_txt))
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        nearest = min(
            (abs(float(line.split(",")[0]) - 2.3), float(line.split(",")[1]))
            for line in lines[1:]
        )
        assert nearest[1] == pytest.approx(DEMO_BETA, abs=5e-3)

    def test_seventeen_digit_round_trip(self, spec_file, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--spec", spec_file, "--min", "2.0", "--max", "2.5",
             "--steps", "3", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            f_txt, b_txt, _ = line.split(",")
            # 17 significant digits reproduce the binary doubles exactly.
            assert float(f_txt) == float(f"{float(f_txt):.17g}")
            assert float(b_txt) == float(f"{float(b_txt):.17g}")

    def test_diverged_rows_flagged(self, spec_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", spec_file, "--min", "1.5", "--max", "2.9",
                    "--steps", "8", "--beta-cap", "50", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        flagged = [row for row in rows if row[2] == "false"]
        assert flagged
        for row in flagged:
            assert row[1] == "nan"

    def test_bad_range_rejected(self, spec_file, capsys):
        assert run(["sweep", "--spec", spec_file, "--min", "0.5", "--max", "2.9",
                    "--steps", "5"]) == 2


class TestCompare:
    def test_demo_report(self, spec_file, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["compare", "--spec", spec_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(report["tilted"], DEMO_TILTED, atol=5e-4)
        np.testing.assert_allclose(report["me_means"], DEMO_MEANS, atol=5e-4)
        assert report["eta"] == pytest.approx(0.5713, abs=1e-3)
        assert report["annotation"]

    def test_untilted_case_reports_zero_eta(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", target=1.8)
        out = tmp_path / "cmp.json"
        assert run(["compare", "--spec", spec, "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["eta"]) <= 1e-12

    def test_scaled_counts_shrink_distance(self, tmp_path):
        out1, out25 = tmp_path / "c1.json", tmp_path / "c25.json"
        spec1 = write_spec(tmp_path / "s1.json")
        spec25 = write_spec(
            tmp_path / "s25.json", counts=tuple(25 * c for c in DEMO_COUNTS)
        )
        run(["compare", "--spec", spec1, "--out", str(out1)])
        run(["compare", "--spec", spec25, "--out", str(out25)])
        l1 = json.loads(out1.read_text())["linf"]
        l25 = json.loads(out25.read_text())["linf"]
        assert l25 < l1

    def test_no_data_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", counts=(0, 0, 0))
        assert run(["compare", "--spec", spec]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NoData"


class TestOracleCommand:
    def test_quadrature_discrepancy_small(self, spec_file, tmp_path):
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--spec", spec_file, "--method", "quadrature",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["discrepancy"]) <= 1e-8
        assert report["discrepancy"] == report["log_value"] - report["log_zeta"]
        assert "series_log_zeta" not in report

    def test_montecarlo_reproducible(self, spec_file, tmp_path):
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        args = ["oracle", "--spec", spec_file, "--method", "montecarlo",
                "--samples", "200000", "--seed", "1"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_montecarlo_seeds_consistent(self, spec_file, tmp_path):
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"o{seed}.json"
            assert run(["oracle", "--spec", spec_file, "--method", "montecarlo",
                        "--samples", "400000", "--seed", seed,
                        "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        combined = math.hypot(reports[0]["std_error"], reports[1]["std_error"])
        assert abs(reports[0]["log_value"] - reports[1]["log_value"]) <= 3 * combined

    def test_explicit_beta(self, spec_file, tmp_path):
        out = tmp_path / "o.json"
        assert run(["oracle", "--spec", spec_file, "--method", "quadrature",
                    "--beta", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["beta"] == 0.0
        assert abs(report["discrepancy"]) <= 1e-10

    def test_dimension_limit_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", labels=(1, 2, 3, 4, 5),
                          counts=(1, 1, 1, 1, 1), target=3.0)
        assert run(["oracle", "--spec", spec, "--method", "quadrature",
                    "--beta", "1.0"]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "DimensionTooHigh"

    def test_evaluation_budget_exit_code(self, spec_file, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_QUADRATURE_EVALS", 1000)
        assert run(["oracle", "--spec", spec_file, "--method", "quadrature",
                    "--beta", "1.0"]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "ToleranceNotMet"

    def test_underflowing_integrand_exit_code(self, tmp_path, capsys):
        # The integrand peaks at 4^-800, below the smallest double.
        spec = write_spec(tmp_path / "s.json", labels=(0, 1), counts=(800, 800),
                          target=0.5)
        assert run(["oracle", "--spec", spec, "--method", "quadrature",
                    "--beta", "0"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["discrepancy"]) <= 1e-8


def strict_json(text):
    """Parse JSON proper: Infinity and NaN are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestStrictReports:
    COMMANDS = [["update"], ["compare"],
                ["oracle", "--method", "montecarlo", "--beta", "14", "--samples", "10000"]]

    @pytest.mark.parametrize("target", [2.3, 2.99999])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_reports_parse_as_strict_json(self, tmp_path, capsys, command, target):
        spec = write_spec(tmp_path / "s.json", target=target)
        assert run(command + ["--spec", spec]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["spec"]["moment_target"] == target

    @pytest.mark.parametrize("target", [2.3, 2.99999])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_infinite_cap_is_no_cap(self, tmp_path, capsys, command, target):
        spec = write_spec(tmp_path / "s.json", target=target)
        assert run(command + ["--spec", spec]) == 0
        default = capsys.readouterr().out
        assert run(command + ["--spec", spec, "--beta-cap", "inf"]) == 0
        assert capsys.readouterr().out == default

    def test_cap_is_reported(self, spec_file, capsys):
        assert run(["update", "--spec", spec_file, "--beta-cap", "1e6"]) == 0
        report = strict_json(capsys.readouterr().out)
        solver_report = report["solver"]
        assert solver_report["beta_cap"] == 1e6
        # The side never evaluated is null under a cap too.
        assert solver_report["bracket"][0] <= report["beta"]
        assert solver_report["bracket"][1] is None

    @pytest.mark.parametrize("labels", [(2, 2, 2), DEMO_LABELS])
    @pytest.mark.parametrize("command", ["update", "compare"])
    def test_nonpositive_cap_rejected(self, tmp_path, capsys, command, labels):
        # Equal labels need no solve, but the cap is checked all the same.
        spec = write_spec(tmp_path / "s.json", labels=labels, target=2.0)
        assert run([command, "--spec", spec, "--beta-cap", "-1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "InvalidArgument"

    def test_near_edge_diverges_only_under_a_cap(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", target=2.99999)
        assert run(["update", "--spec", spec, "--beta-cap", "1e6"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "Diverged"

    def test_montecarlo_weights_underflow(self, tmp_path, capsys):
        # Labels x1e6 at beta = 14: every exp(beta (f . theta - f_max)) is 0.
        spec = write_spec(tmp_path / "s.json", labels=(1e6, 2e6, 3e6), target=2.3e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["oracle", "--spec", spec, "--method", "montecarlo", "--beta", "14",
                        "--samples", "10000"]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ToleranceNotMet"


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert run(["update"]) == 2

    def test_no_tolerance_flag(self, spec_file, capsys):
        # The tolerance is fixed on the unit-span moment.
        assert run(["update", "--spec", spec_file, "--tol", "1e-8"]) == 2
