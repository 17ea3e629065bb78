"""Every input gets an answer or a typed error, quickly: a seeded draw of
problems at the edges of the input range (huge counts, tiny pseudo-counts,
targets next to an edge label)."""

import time

import numpy as np

from momentbayes import compare, full_update
from momentbayes.errors import MomentBayesError
from momentbayes.solver import TOL

from conftest import extreme_problems

# Problems of extreme_problems(1500, 0) that full_update solves.  A change may
# raise this floor, never lower it.
SOLVED_FLOOR = 1154


def test_extreme_inputs_solve_or_raise_typed():
    start = time.perf_counter()
    solved = 0
    for p in extreme_problems(1500, 0):
        try:
            res = full_update(p)
        except MomentBayesError:
            continue
        f, means = p.arrays[0], np.array(res.means)
        assert abs(float((f - p.moment_target) @ means)) <= TOL * float(f.max() - f.min())
        assert abs(float(means.sum()) - 1.0) <= 1e-10
        solved += 1
        if p.data.n:
            try:
                compare(p)
            except MomentBayesError:
                pass
    assert time.perf_counter() - start <= 10.0
    assert solved >= SOLVED_FLOOR
