"""Tests for the worst-case-FDR linear program and its closed-form comparison."""

import numpy as np
import pytest
from scipy.optimize import linprog

from seqfdr.core import StepVector, bh_steps, bl_steps
from seqfdr.errors import ConfigError, SolverError
from seqfdr.worstcase import (
    LpProblem,
    VariableIndex,
    build_problem,
    enumerate_variables,
    solve_max,
    verify_bound,
)


class TestEnumeration:
    def test_small_counts(self):
        assert len(enumerate_variables(2, 1)) == 3
        assert len(enumerate_variables(2, 2)) == 5
        assert len(enumerate_variables(4, 4)) == 211
        assert len(enumerate_variables(5, 5)) == 2116

    def test_exact_small_set(self):
        got = {
            (v.ell, v.k, v.i_vec, v.j_vec) for v in enumerate_variables(2, 1)
        }
        assert got == {
            (1, 1, (1,), (1,)),
            (1, 2, (1,), (1,)),
            (1, 2, (1,), (2,)),
        }

    def test_counting_exclusion(self):
        # k rejections with ell false need k - ell true signals
        vars_22 = enumerate_variables(2, 2)
        assert not any(v.k == 2 and v.ell == 1 for v in vars_22)
        # boundary case k - ell == j - m0 is retained
        assert any(v.k == 3 and v.ell == 1 for v in enumerate_variables(3, 1))

    def test_rank_feasibility_exclusion(self):
        # both nulls stuck at the second level cannot fill rank 1
        vars_22 = enumerate_variables(2, 2)
        pairs = {v.j_vec for v in vars_22 if v.ell == 2}
        assert pairs == {(1, 1), (1, 2), (2, 1)}

    def test_all_pass_their_own_invariants(self):
        for v in enumerate_variables(4, 3):
            assert 1 <= v.ell <= v.k <= 4
            assert v.k - v.ell <= 1
            ranked = sorted(v.j_vec)
            assert all(ranked[d] <= v.k - v.ell + d + 1 for d in range(v.ell))

    def test_size_guard(self):
        with pytest.raises(ConfigError):
            enumerate_variables(6, 1)
        with pytest.raises(ConfigError):
            enumerate_variables(1, 1)
        with pytest.raises(ConfigError):
            enumerate_variables(3, 0)
        with pytest.raises(ConfigError):
            enumerate_variables(3, 4)


class TestBuildProblem:
    def test_row_structure(self):
        alpha = bh_steps(0.2, 3)
        m0 = 2
        prob = build_problem(alpha, m0)
        assert prob.rows.shape[0] == m0 * 3 + m0
        assert np.all((prob.rows == 0.0) | (prob.rows == 1.0))
        assert np.all(prob.objective > 0.0) and np.all(prob.objective <= 1.0)

    @pytest.mark.parametrize("scheme, j, m0", [
        (scheme, j, m0) for scheme in ("bh", "bl") for j in range(2, 6) for m0 in range(1, j + 1)
    ])
    def test_membership_rows(self, scheme, j, m0):
        # the program outcome by outcome: row (i - 1) j + s - 1 holds the
        # outcomes that reject null stream i at a level <= s, row m0 j + i - 1
        # those that reject it at all
        alpha = bh_steps(0.2, j) if scheme == "bh" else bl_steps(0.05, j)
        prob = build_problem(alpha, m0)
        for col, var in enumerate(prob.variables):
            want = []
            for i in range(1, m0 + 1):
                for s in range(1, j + 1):
                    want.append(any(iv == i and jv <= s for iv, jv in zip(var.i_vec, var.j_vec)))
            want += [i in var.i_vec for i in range(1, m0 + 1)]
            np.testing.assert_array_equal(prob.rows[:, col], np.array(want, dtype=float))
            assert prob.objective[col] == var.ell / var.k
        np.testing.assert_array_equal(prob.rhs, [*alpha.values] * m0 + [1.0] * m0)

    def test_rhs_values(self):
        alpha = bh_steps(0.2, 3)
        prob = build_problem(alpha, 1)
        assert np.allclose(prob.rhs[:3], alpha.values)
        assert prob.rhs[3] == 1.0


class TestSolveMax:
    def test_zero_rhs_forces_zero(self):
        prob = build_problem(bh_steps(0.2, 3), 2)
        zeroed = LpProblem(prob.variables, prob.objective, prob.rows, np.zeros_like(prob.rhs))
        value, x = solve_max(zeroed)
        assert value == 0.0
        assert np.all(x == 0.0)

    def test_frozen_two_stream_examples(self):
        alpha = StepVector([0.125, 0.25])
        v1, _ = solve_max(build_problem(alpha, 1))
        v2, _ = solve_max(build_problem(alpha, 2))
        assert v1 == pytest.approx(0.1875, abs=1e-12)
        assert v2 == pytest.approx(0.25, abs=1e-12)

    def test_against_reference_solver(self):
        # strong duality: the primal optimum equals that of the dual
        # min rhs . y  subject to  rows^T y >= objective,  y >= 0,
        # which is a different program solved on its own
        rng = np.random.default_rng(0)
        for _ in range(25):
            j = int(rng.integers(2, 5))
            m0 = int(rng.integers(1, j + 1))
            alpha = StepVector(np.sort(rng.uniform(0.01, 0.7, j)))
            prob = build_problem(alpha, m0)
            value, x = solve_max(prob)
            dual = linprog(
                prob.rhs, A_ub=-prob.rows.T, b_ub=-prob.objective,
                bounds=(0, None), method="highs",
            )
            assert dual.status == 0
            assert value == pytest.approx(dual.fun, abs=1e-9)
            assert np.all(prob.rows @ x <= prob.rhs + 1e-9)
            assert np.all(x >= -1e-12)

    def test_unbounded_detected(self):
        free = LpProblem(
            variables=(VariableIndex(1, 1, (1,), (1,)),),
            objective=np.array([1.0]),
            rows=np.zeros((1, 1)),
            rhs=np.array([1.0]),
        )
        with pytest.raises(SolverError):
            solve_max(free)

    def test_negative_rhs_rejected(self):
        prob = build_problem(bh_steps(0.2, 2), 1)
        bad = LpProblem(prob.variables, prob.objective, prob.rows, -prob.rhs)
        with pytest.raises(SolverError):
            solve_max(bad)


class TestVerifyBound:
    def test_bh_sweep_is_sharp(self):
        for j in (2, 3, 4):
            alpha = bh_steps(0.2, j)
            for m0 in range(0, j + 1):
                rep = verify_bound(alpha, m0)
                assert rep.passed, (j, m0, rep.gap)

    def test_m0_zero_trivial(self):
        rep = verify_bound(bh_steps(0.2, 3), 0)
        assert rep.passed and rep.lp_optimum == 0.0 and rep.d_value == 0.0

    def test_bl_extreme_m0_sharp(self):
        for j in (2, 3, 4):
            alpha = bl_steps(0.05, j)
            assert verify_bound(alpha, 1).passed
            assert verify_bound(alpha, j).passed

    def test_bl_middle_m0_gap_is_real(self):
        # the closed-form bound is valid but not attained for these step
        # values: the heavy last increment would need the false rejections
        # parked at top levels with too few true signals to fill the low
        # ranks; the program caps the attainable FDR strictly below the
        # formula.  Pin the gap so changes in either direction surface.
        for j, m0 in ((3, 2), (4, 2), (4, 3)):
            rep = verify_bound(bl_steps(0.05, j), m0)
            assert not rep.passed
            assert rep.lp_optimum <= rep.d_value + 1e-7  # validity
            assert rep.gap > 1e-3

    def test_validity_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            j = int(rng.integers(2, 5))
            m0 = int(rng.integers(1, j + 1))
            alpha = StepVector(np.sort(rng.uniform(0.01, 0.9, j)))
            rep = verify_bound(alpha, m0)
            assert rep.lp_optimum <= rep.d_value + 1e-7

    def test_every_level_family_can_bind(self):
        # dropping the alpha_s rows (all i) at any single s strictly
        # raises the optimum somewhere: here already at bh(0.2, 3), m0=1
        alpha = bh_steps(0.2, 3)
        prob = build_problem(alpha, 1)
        base, _ = solve_max(prob)
        for s in (1, 2, 3):
            keep = [r for r in range(prob.rhs.size) if r != s - 1]
            sub = LpProblem(prob.variables, prob.objective, prob.rows[keep], prob.rhs[keep])
            dropped, _ = solve_max(sub)
            assert dropped > base + 1e-6
