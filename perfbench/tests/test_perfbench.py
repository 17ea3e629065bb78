"""Fast tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q        (from the repository root)
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def first_ops(workload, seed, n_cycles=2):
    stream = workloads.cycles(workload, seed)
    return [op for _, cycle in zip(range(n_cycles), stream) for op in cycle]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_has_the_same_strata(workload):
    spec = workloads.SPECS[workload]
    want = sorted(s for s, count in spec.cycle for _ in range(count))
    stream = workloads.cycles(workload, 3)
    for _ in range(3):
        assert sorted(op.stratum for op in next(stream)) == want
    assert spec.min_ops % spec.cycle_len == 0
    assert spec.min_ops * (100.0 - spec.tail_percentile) >= 1000.0


def test_generated_targets_lie_inside_the_label_range():
    for workload in workloads.WORKLOADS:
        for op in first_ops(workload, 11):
            assert min(op.labels) < op.moment_target < max(op.labels)
            if op.grid:
                assert min(op.labels) < op.grid[0] < op.grid[1] < max(op.labels)


def span(sid, parent, name, start, end, value=None):
    return [sid, parent, 0, name, start, end, None, value]


def test_self_time_subtracts_direct_children_on_a_span_tree():
    tree = [
        span(0, None, "solver.full_update", 0, 100),
        span(1, 0, "solver.solve_beta_detailed", 0, 60, value=2),
        span(2, 1, "normalization.moment_and_slope", 10, 20),
        span(3, 1, "normalization.moment_and_slope", 30, 50),
        span(4, 3, "oracle.quadrature_zeta", 35, 45),
        span(5, 0, "normalization.posterior_mean", 70, 90),
    ]
    assert spans.self_times(tree) == {0: 20, 1: 30, 2: 10, 3: 10, 4: 10, 5: 20}
    fig = spans.layer_figures(tree)
    assert fig["normalization.moment_and_slope.calls"] == 2
    assert fig["normalization.moment_and_slope.self_ns"] == 20
    assert fig["solver.solve_ns"] == 30  # 60 minus the two normalization children
    assert fig["solver.assembly_ns"] == 40  # 100 minus the solve
    assert fig["solver.solve_beta_detailed.value"] == 2


def test_install_catches_cross_module_calls_and_uninstall_restores():
    import momentbayes
    from momentbayes import normalization, solver

    original = normalization.moment_and_slope
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        momentbayes.full_update(momentbayes.make_problem([1, 2, 3], [11, 2, 7], 2.3))
    finally:
        uninstall()
    assert normalization.moment_and_slope is original
    assert solver.normalization.moment_and_slope is original
    by_id = {s[spans.SID]: s for s in tracer.spans}
    calls = [s for s in tracer.spans if s[spans.NAME] == "normalization.moment_and_slope"]
    assert calls and all(
        by_id[s[spans.PARENT]][spans.NAME] == "solver.solve_increasing" for s in calls)
    assert len(calls) == spans.layer_figures(tracer.spans)["solver.solve_beta_detailed.value"]


def demo_answer():
    import momentbayes

    state = momentbayes.full_update(momentbayes.make_problem([1, 3], [11, 7], 2.3, [1, 2]))
    return state.beta, state.log_zeta, list(state.means)


def test_checks_accept_the_answer_and_reject_a_perturbed_one():
    beta, log_z, means = demo_answer()
    labels, counts, pcs, F = [1.0, 3.0], [11, 7], [1.0, 2.0], 2.3
    ref = checks.kummer_reference(labels, counts, pcs, beta)
    assert checks.answer_error(labels, F, means) is None
    assert checks.reference_error(ref, labels, F, log_z, means) is None
    moved = [means[0] + 1e-6, means[1] - 1e-6]  # still on the simplex
    assert checks.answer_error(labels, F, moved) is not None
    assert checks.reference_error(ref, labels, F, log_z, moved) is not None
    assert checks.reference_error(ref, labels, F, log_z + 1e-5, means) is not None
    wrong_beta = checks.kummer_reference(labels, counts, pcs, beta * (1 + 1e-5))
    assert checks.reference_error(wrong_beta, labels, F, None, wrong_beta[1]) is not None


def test_sweep_check_rejects_a_non_increasing_curve():
    grid = (1.5, 2.5, 3)
    good = [(1.5, -1.0, True), (2.0, 0.5, True), (2.5, 2.0, True)]
    assert checks.sweep_error(grid, good) is None
    assert checks.sweep_error(grid, [good[0], (2.0, -2.0, True), good[2]]) is not None
    assert checks.sweep_error(grid, [good[0], (2.0, 0.5, False), good[2]]) is not None


def test_deadline_marks_an_over_long_operation_as_failed():
    op = first_ops("update-mix", 1, 1)[0]

    def spin(_op):
        while True:
            pass

    start = time.perf_counter()
    record = run.timed(spin, op, 0.05)
    assert record.error == "DeadlineExceeded"
    assert 0.05 <= record.latency < 1.0 and time.perf_counter() - start < 1.0
    assert run.timed(lambda _op: "done", op, 0.05).output == "done"
    time.sleep(0.1)  # the alarm is off once the operation ends


def test_parse_importtime_counts_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.core",
        "import time:        20 |         30 |     numpy",
        "import time:         5 |          5 |         scipy._lib",
        "import time:        40 |         45 |       scipy.special",
        "import time:         7 |         52 |     momentbayes.normalization",
        "import time:        50 |         50 |     scipy.integrate",
        "import time:         3 |        135 |   momentbayes",
    ])
    assert run.parse_importtime(text) == (135, 95)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # sweep-curve is runnable by hand but left out of BENCHMARK.json (see the README).
    assert [w["name"] for w in bench["workloads"]] == [
        w for w in workloads.WORKLOADS if w != "sweep-curve"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "update-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
