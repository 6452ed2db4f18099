"""LP verification of the closed-form step-value bound on the worst-case FDR.

For small J the maximal FDR over all joint distributions of rejection
events is a finite linear program: variables are probabilities of the
elementary outcomes "k rejections total, the false ones are the null
streams i_vec rejected at levels j_vec", the objective is the expected
false discovery proportion, and the step-value contracts give the
constraints.  scipy's HiGHS solver solves it, and a self-check confirms
that the returned point is feasible and attains the reported optimum.
Comparing the optimum with d_bound_at certifies that the bound is valid
(LP optimum <= D) and reports whether it is attained.  On the cells the
tests sweep (J <= 4) it is attained for BH steps and at m0 in {1, J},
but not in general: for late-heavy steps at middle null counts the
optimum is strictly smaller.

At J=3, m0=2 the dual weights 1/3 and 2/3 on each null stream's "rejected
at level <= 1" and "<= 2" rows give FDR <= (2/3) alpha_1 + (4/3) alpha_2
under any joint law.  With Delta_k = alpha_k - alpha_{k-1}, that is below
D(alpha, 2) by (Delta_3 - Delta_2) / 3 whenever Delta_3 > Delta_2.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .core import StepVector, d_bound_at
from .errors import ConfigError, SolverError

__all__ = [
    "VariableIndex",
    "LpProblem",
    "VerifyReport",
    "enumerate_variables",
    "build_problem",
    "solve_max",
    "verify_bound",
]

SIZE_GUARD = 5
_FEAS_TOL = 1e-9
# a gap |LP optimum - D| at most this counts as the bound attained
_ATTAINED_TOL = 1e-7


class VariableIndex(NamedTuple):
    """One elementary outcome: k rejections, false ones listed explicitly.

    ``i_vec`` holds the 1-based null-stream indices falsely rejected,
    strictly increasing; ``j_vec[d]`` is the step-down level at which
    ``i_vec[d]`` was rejected, each in [1, k].
    """

    ell: int
    k: int
    i_vec: tuple[int, ...]
    j_vec: tuple[int, ...]


class LpProblem(NamedTuple):
    """max objective . x  subject to  rows . x <= rhs,  x >= 0."""

    variables: tuple[VariableIndex, ...]
    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray


class VerifyReport(NamedTuple):
    """Comparison of the LP optimum against the closed-form bound.

    ``lp_optimum <= d_value`` certifies the bound on this cell; ``passed``
    reports attainment, ``gap = |lp_optimum - d_value| <= 1e-7``.
    """

    lp_optimum: float
    d_value: float
    gap: float
    passed: bool


def enumerate_variables(j: int, m0: int) -> tuple[VariableIndex, ...]:
    """All elementary outcomes not forced to zero probability.

    An outcome needs k - ell true rejections, impossible when
    k - ell > j - m0.  And a step-down run of k rejections must fill the
    levels 1..k, so the sorted false-rejection levels satisfy
    j_(d) <= k - ell + d; otherwise some level below j_(d) has no
    hypothesis left to occupy it.
    """
    if not 2 <= j <= SIZE_GUARD:
        raise ConfigError(f"j={j} outside the supported range [2, {SIZE_GUARD}]")
    if not 1 <= m0 <= j:
        raise ConfigError(f"m0={m0} outside [1, j]")
    out = []
    for k in range(1, j + 1):
        for ell in range(1, min(k, m0) + 1):
            if k - ell > j - m0:
                continue
            for i_vec in combinations(range(1, m0 + 1), ell):
                for j_vec in product(range(1, k + 1), repeat=ell):
                    ranked = sorted(j_vec)
                    if all(ranked[d] <= k - ell + d + 1 for d in range(ell)):
                        out.append(VariableIndex(ell, k, i_vec, j_vec))
    return tuple(out)


def build_problem(alpha: StepVector, m0: int) -> LpProblem:
    """Assemble the worst-case-FDR program for the given step values.

    Objective: E[V/R] = sum over outcomes of (ell/k) p.  ``level[i - 1, n]``
    is the level at which outcome n rejects null stream i, J + 1 if it does
    not.  Row (i - 1) J + s - 1 bounds the probability that i is rejected at
    a level <= s by alpha_s, the step-down contract; one extra row per i
    keeps its total rejection probability, level <= J, at most 1.
    """
    j = alpha.j
    variables = enumerate_variables(j, m0)
    objective = np.array([v.ell / v.k for v in variables])
    level = np.full((m0, len(variables)), j + 1)
    for n, v in enumerate(variables):
        level[np.subtract(v.i_vec, 1), n] = v.j_vec
    contracts = level[:, None, :] <= np.arange(1, j + 1)[:, None]
    rows = np.concatenate([contracts.reshape(m0 * j, -1), level <= j]).astype(float)
    rhs = np.concatenate([np.tile(alpha.values, m0), np.ones(m0)])
    return LpProblem(variables, objective, rows, rhs)


def solve_max(problem: LpProblem) -> tuple[float, np.ndarray]:
    """Maximise the program with scipy's HiGHS solver, then check its answer.

    Any outcome other than an optimum (infeasible, for instance from a
    negative right-hand side; unbounded; iteration limit) raises
    ``SolverError`` with the solver's message.  The returned point must
    satisfy every row and reproduce the reported optimum.
    """
    from scipy.optimize import linprog  # here: its import costs every start-up ~0.3 s

    c = problem.objective
    a = problem.rows
    b = problem.rhs
    res = linprog(-c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise SolverError(f"LP solver failed (status {res.status}): {res.message}")
    x = res.x
    value = -float(res.fun)
    # self-check: returned point must satisfy every row
    if np.any(x < -_FEAS_TOL) or np.any(a @ x > b + _FEAS_TOL):
        raise SolverError("solution fails feasibility self-check")
    if abs(float(c @ x) - value) > 1e-8 * max(1.0, abs(value)):
        raise SolverError("objective value inconsistent with solution vector")
    return value, x


def verify_bound(alpha: StepVector, m0: int) -> VerifyReport:
    """Solve the worst-case LP and set its optimum beside d_bound_at(alpha, m0).

    The optimum certifies the bound's validity on this cell (it must not
    exceed D); ``passed`` reports whether the bound is attained, within
    ``_ATTAINED_TOL`` (1e-7).  Attainment is not guaranteed: see the module
    docstring.
    """
    if m0 == 0:
        return VerifyReport(lp_optimum=0.0, d_value=d_bound_at(alpha, 0), gap=0.0, passed=True)
    value, _ = solve_max(build_problem(alpha, m0))
    d_val = d_bound_at(alpha, m0)
    gap = abs(value - d_val)
    return VerifyReport(lp_optimum=value, d_value=d_val, gap=gap,
                        passed=bool(gap <= _ATTAINED_TOL))
