"""Correctness checks, run after the timed window, and the per-operation
deadline.

Every answer must lie on the simplex and meet its moment target. A seeded,
deterministic subsample is also compared with references that share no code
with the series path: the mpmath closed form ``1F1`` at ``k = 2`` and the
quadrature oracle at ``k = 3``. The tolerances sit about five orders of
magnitude above the errors observed on these workloads (1e-12 and below), so
a check never flips from run to run; a per-component Monte Carlo gate
would.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager

import numpy as np

SIMPLEX_TOL = 1e-9
# The package stops at |f . means - F| <= 1e-10 in absolute terms.
RESIDUAL_ABS = 1e-9
RESIDUAL_REL = 1e-9  # times the label span
REFERENCE_TOL = 1e-7  # ln Z (relative to max(1, |ln Z|)), means, and moment / span
MC_SIGMAS = 10.0  # one gate on ln Z per Monte Carlo report, not one per component


class DeadlineExceeded(Exception):
    """The operation was still running at its deadline."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    """Raise :class:`DeadlineExceeded` in this thread after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def answer_error(labels, F: float, means) -> str | None:
    """Why ``means`` is not a valid answer for target ``F``, or ``None``."""
    f = np.asarray(labels, float)
    m = np.asarray(means, float)
    if m.shape != f.shape or not np.all(np.isfinite(m)):
        return f"means {m.tolist()} are not {len(f)} finite numbers"
    if np.any(m < -SIMPLEX_TOL) or abs(float(m.sum()) - 1.0) > SIMPLEX_TOL:
        return f"means {m.tolist()} are off the simplex"
    span = float(f.max() - f.min())
    resid = abs(float(f @ m) - F)
    if resid > RESIDUAL_ABS + RESIDUAL_REL * span:
        return f"|f . means - F| = {resid:.3g} misses the target"
    return None


def sweep_error(grid, points) -> str | None:
    """Checks a sweep: the requested grid, every point solved, and ``beta``
    strictly increasing in F (the moment is strictly increasing in beta)."""
    lo, hi, steps = grid
    want = np.linspace(lo, hi, steps)
    Fs = np.array([p[0] for p in points], float)
    betas = np.array([p[1] for p in points], float)
    if len(points) != steps or np.max(np.abs(Fs - want)) > 1e-12 * max(1.0, np.max(np.abs(want))):
        return f"sweep grid {Fs.tolist()} is not the requested {want.tolist()}"
    if not all(p[2] for p in points) or not np.all(np.isfinite(betas)):
        return "a sweep point on a well-posed problem did not converge"
    if np.any(np.diff(betas) <= 0.0):
        return f"beta {betas.tolist()} is not increasing in F"
    return None


def kummer_reference(labels, counts, pseudo_counts, beta: float):
    """``(ln Z, means)`` at ``k = 2`` from the confluent hypergeometric closed
    form, in mpmath at 30 digits.

    ``Z = e^{beta f_2} B(a_1, a_2) M(a_1; A; t)`` with ``a = m + alpha``,
    ``A = a_1 + a_2`` and ``t = beta (f_1 - f_2)``; Kummer's transformation
    keeps every series term positive, and ``E[theta_1]`` is the ratio
    ``a_1 M(a_1 + 1; A + 1; t) / (A M(a_1; A; t))``.
    """
    import mpmath as mp

    with mp.workdps(30):
        f1, f2 = (mp.mpf(x) for x in labels)
        a1, a2 = (mp.mpf(int(m)) + mp.mpf(a) for m, a in zip(counts, pseudo_counts))
        A = a1 + a2
        b = mp.mpf(beta)
        t = b * (f1 - f2)
        if t >= 0:
            log_m = mp.log(mp.hyp1f1(a1, A, t))
            ratio = mp.hyp1f1(a1 + 1, A + 1, t) / mp.hyp1f1(a1, A, t)
        else:
            log_m = t + mp.log(mp.hyp1f1(a2, A, -t))
            ratio = mp.hyp1f1(a2, A + 1, -t) / mp.hyp1f1(a2, A, -t)
        log_z = b * f2 + mp.log(mp.beta(a1, a2)) + log_m
        theta1 = a1 / A * ratio
        return float(log_z), np.array([float(theta1), float(1 - theta1)])


def quadrature_reference(oracle, problem, beta: float):
    """``(ln Z, means)`` from the quadrature oracle: ``ln Z`` and the ratio
    identity ``E[theta_i] = Z(alpha + e_i) / Z(alpha)``, k + 1 integrals."""
    log_z = oracle.quadrature_zeta(problem, beta).log_value
    means = []
    for i in range(problem.k):
        pcs = list(problem.prior.pseudo_counts)
        pcs[i] += 1.0
        shifted = type(problem)(problem.model, problem.data, type(problem.prior)(pcs),
                                problem.moment_target)
        means.append(math.exp(oracle.quadrature_zeta(shifted, beta).log_value - log_z))
    return log_z, np.array(means)


def reference_error(ref, labels, F: float, log_z: float | None, means) -> str | None:
    """Compares an answer with a reference ``(ln Z, means)`` at the same beta;
    the reference means must also meet the target, which checks beta itself."""
    ref_log_z, ref_means = ref
    f = np.asarray(labels, float)
    span = float(f.max() - f.min())
    if log_z is not None and abs(log_z - ref_log_z) > REFERENCE_TOL * max(1.0, abs(ref_log_z)):
        return f"ln Z {log_z!r} differs from the reference {ref_log_z!r}"
    if np.max(np.abs(np.asarray(means, float) - ref_means)) > REFERENCE_TOL:
        return f"means {list(means)} differ from the reference {ref_means.tolist()}"
    if abs(float(f @ ref_means) - F) > REFERENCE_TOL * span:
        return f"the reference moment at this beta is {float(f @ ref_means)!r}, not {F!r}"
    return None


def montecarlo_error(report: dict) -> str | None:
    """One gate per Monte Carlo report: the means sum to one and ``ln Z``
    lies within ``MC_SIGMAS`` standard errors of the series value."""
    if abs(sum(report["means"]) - 1.0) > SIMPLEX_TOL:
        return "Monte Carlo means are off the simplex"
    sigma = report["std_error"]
    if not (sigma > 0.0) or abs(report["discrepancy"]) > MC_SIGMAS * sigma:
        return f"Monte Carlo ln Z is {report['discrepancy']!r} from the series, sigma {sigma!r}"
    return None


def quadrature_report_error(report: dict) -> str | None:
    if abs(report["discrepancy"]) > REFERENCE_TOL * max(1.0, abs(report["log_value"])):
        return f"quadrature ln Z is {report['discrepancy']!r} from the series"
    return None
