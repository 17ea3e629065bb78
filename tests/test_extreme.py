"""Every input gets an answer or a typed error, quickly: a seeded draw of
problems at the edges of the input range (huge counts, tiny pseudo-counts,
targets next to an edge label)."""

import time

import numpy as np

from momentbayes import compare, full_update
from momentbayes.errors import MomentBayesError, ZeroSupport
from momentbayes.solver import TOL

from conftest import extreme_problems

# Problems of extreme_problems(1500, 0) that full_update solves, and those of
# them with data that compare answers (the rest raise ZeroSupport: the target
# lies outside the labels that have frequency).  A change may raise these
# floors, never lower them.
SOLVED_FLOOR = 1155
COMPARED_FLOOR = 1134


def test_extreme_inputs_solve_or_raise_typed():
    start = time.perf_counter()
    solved = compared = 0
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
            except ZeroSupport:
                continue
            compared += 1
    assert time.perf_counter() - start <= 10.0
    assert solved >= SOLVED_FLOOR and compared >= COMPARED_FLOOR
