"""Tests for Wald boundaries, surrogate levels, and the lattice LLR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from seqfdr.core import StepVector, bh_steps, scale_for_fdr
from seqfdr.datagen import Bernoulli, CopulaConfig, CountBlocks, Poisson, Toeplitz
from seqfdr.errors import BoundaryCollapseError
from seqfdr.sprt import (
    CriticalMatrix,
    SimpleModel,
    check_ladders,
    cumulative_llr,
    lattice_terms,
    stepdown_critical_values,
    surrogate_errors,
    wald_bounds,
)

from oracles import conservative_critical_values, llr_increments, wald_bounds_conservative


class TestWaldBounds:
    def test_example(self):
        a, b = wald_bounds(0.05, 0.2)
        assert a == pytest.approx(math.log(0.2 / 0.95) + 0.583, abs=1e-12)
        assert b == pytest.approx(math.log(0.8 / 0.05) - 0.583, abs=1e-12)

    def test_rho_zero(self):
        a, b = wald_bounds(0.05, 0.2, rho=0.0)
        assert a == pytest.approx(math.log(0.2 / 0.95), abs=1e-12)
        assert b == pytest.approx(math.log(16.0), abs=1e-12)

    def test_conservative_is_wider(self):
        a, b = wald_bounds(0.05, 0.2, rho=0.0)
        ac, bc = wald_bounds_conservative(0.05, 0.2)
        assert ac == pytest.approx(math.log(0.2))
        assert bc == pytest.approx(-math.log(0.05))
        assert ac < a and bc > b

    @pytest.mark.parametrize(
        "alpha,beta,rho",
        [(0.0, 0.2, 0.583), (0.05, 1.0, 0.583), (0.6, 0.5, 0.583), (0.05, 0.2, -0.1)],
    )
    def test_domain_errors(self, alpha, beta, rho):
        with pytest.raises(ValueError):
            wald_bounds(alpha, beta, rho)


class TestSurrogates:
    def test_example(self):
        alpha = StepVector(np.array([0.05, 0.1]))
        beta = StepVector(np.array([0.1, 0.2]))
        at, bt = surrogate_errors(alpha, beta)
        assert at[0] == pytest.approx(0.05)
        assert bt[0] == pytest.approx(0.1)
        assert at[1] == pytest.approx(0.05 * 0.8 / 0.9, abs=1e-15)
        assert bt[1] == pytest.approx(0.1 * 0.9 / 0.95, abs=1e-15)

    def test_precondition(self):
        alpha = StepVector(np.array([0.6, 0.7]))
        beta = StepVector(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            surrogate_errors(alpha, beta)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            surrogate_errors(bh_steps(0.2, 3), bh_steps(0.2, 4))

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=0.45),
        st.floats(min_value=0.01, max_value=0.45),
        st.integers(min_value=1, max_value=12),
    )
    def test_error_sums_stay_valid(self, a1, b1, j):
        # extend level-1 values into nondecreasing vectors capped below 1
        ks = np.arange(j)
        alpha = StepVector(np.minimum(a1 * (1 + ks / j), 0.99))
        beta = StepVector(np.minimum(b1 * (1 + ks / j), 0.99))
        at, bt = surrogate_errors(alpha, beta)
        assert np.all(at + beta.values <= 1.0 + 1e-12)
        assert np.all(alpha.values + bt <= 1.0 + 1e-12)
        # surrogates shrink as the partner level grows
        assert np.all(np.diff(at) <= 1e-15)
        assert np.all(np.diff(bt) <= 1e-15)


class TestLlrIncrements:
    def test_bernoulli_values(self):
        m = SimpleModel("bernoulli", 0.05, 0.15)
        assert llr_increments(m, np.array([1]))[0] == pytest.approx(math.log(3.0), abs=1e-12)
        assert llr_increments(m, np.array([0]))[0] == pytest.approx(
            math.log(0.85 / 0.95), abs=1e-12
        )

    def test_poisson_values(self):
        m = SimpleModel("poisson", 1.5, 2.0)
        assert llr_increments(m, np.array([0]))[0] == pytest.approx(-0.5, abs=1e-12)
        assert llr_increments(m, np.array([3]))[0] == pytest.approx(
            3 * math.log(4.0 / 3.0) - 0.5, abs=1e-12
        )

    def test_conditional_binomial_values(self):
        # 5 successes given 100 trials: the Bernoulli model on the totals
        m = SimpleModel("bernoulli", 0.05, 0.15)
        got = llr_increments(m, np.array([5]), trials=np.array([100]))[0]
        want = 5 * math.log(3.0) + 95 * math.log(0.85 / 0.95)
        assert got == pytest.approx(want, abs=1e-12)

    def test_observation_validation(self):
        b = SimpleModel("bernoulli", 0.05, 0.15)
        with pytest.raises(ValueError):
            llr_increments(b, np.array([2]))
        with pytest.raises(ValueError):
            llr_increments(b, np.array([True]))
        p = SimpleModel("poisson", 1.5, 2.0)
        with pytest.raises(ValueError):
            llr_increments(p, np.array([-1]))
        with pytest.raises(ValueError):
            llr_increments(p, np.array([0.5]))
        # successes beyond their trials, given or one each
        with pytest.raises(ValueError):
            llr_increments(b, np.array([5]), trials=np.array([3]))
        with pytest.raises(ValueError):
            llr_increments(b, np.array([5]))

    def test_model_validation(self):
        for family, null, alt, match in (
            ("bernoulli", 0.0, 0.5, "outside"),
            ("gamma", 1.0, 2.0, "unknown family"),
            # a report pair's statistic is the Bernoulli one on its totals
            ("conditional_binomial", 0.05, 0.15, "unknown family"),
            # the alternative must lie above the null, in every family
            ("bernoulli", 0.15, 0.05, "must exceed"),
            ("bernoulli", 0.1, 0.1, "must exceed"),
            ("poisson", 2.0, 1.5, "must exceed"),
            ("poisson", 1.0, 1.0, "must exceed"),
        ):
            with pytest.raises(ValueError, match=match):
                SimpleModel(family, null, alt)


class TestCriticalValues:
    def test_ordering_invariants(self):
        alpha = scale_for_fdr(bh_steps(0.25, 10), 0.25)
        beta = scale_for_fdr(bh_steps(0.15, 10), 0.15)
        crit = stepdown_critical_values(alpha, beta)
        assert np.all(np.diff(crit.a) > 0)
        assert np.all(np.diff(crit.b) < 0)
        assert crit.a[-1] <= crit.b[-1]
        assert crit.a.size == 10

    def test_level_one_matches_plain_wald(self):
        alpha = StepVector(np.array([0.05, 0.1]))
        beta = StepVector(np.array([0.1, 0.2]))
        crit = stepdown_critical_values(alpha, beta)
        a1, b1 = wald_bounds(0.05, 0.1)
        assert crit.a[0] == pytest.approx(a1, abs=1e-15)
        assert crit.b[0] == pytest.approx(b1, abs=1e-15)

    def test_ties_iff_tied_steps(self):
        alpha = StepVector(np.array([0.02, 0.05, 0.05, 0.08]))
        beta = StepVector(np.array([0.05, 0.1, 0.15, 0.15]))
        crit = stepdown_critical_values(alpha, beta)
        # B_k depends only on alpha_k, A_k only on beta_k
        assert crit.b[1] == crit.b[2]
        assert crit.b[0] > crit.b[1] > crit.b[3] or crit.b[1] > crit.b[3]
        assert crit.a[2] == crit.a[3]
        assert crit.a[0] < crit.a[1] < crit.a[2]

    def test_boundary_collapse_names_level(self):
        alpha = StepVector(np.array([0.4, 0.45]))
        beta = StepVector(np.array([0.55, 0.6]))
        with pytest.raises(BoundaryCollapseError, match="k=1"):
            stepdown_critical_values(alpha, beta)

    def test_conservative_variant_is_monotone(self):
        alpha = scale_for_fdr(bh_steps(0.25, 6), 0.25)
        beta = scale_for_fdr(bh_steps(0.15, 6), 0.15)
        crit = conservative_critical_values(alpha, beta)
        assert np.all(np.diff(crit.a) > 0)
        assert np.all(np.diff(crit.b) < 0)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            CriticalMatrix(a=np.array([0.0, -1.0]), b=np.array([5.0, 4.0]))
        with pytest.raises(BoundaryCollapseError):
            CriticalMatrix(a=np.array([-1.0, 2.0]), b=np.array([3.0, 1.0]))

    def test_matrix_rejects_nan(self):
        for a, b in (([np.nan], [1.0]), ([-1.0], [np.nan]), ([-1.0, np.nan], [2.0, 1.0])):
            with pytest.raises(ValueError, match="NaN"):
                CriticalMatrix(a=np.array(a), b=np.array(b))

    def test_matrix_order_tolerance(self):
        # no slip in order passes, however small, since run_batch's ladder
        # check would refuse the matrix; infinite entries pass
        crit = CriticalMatrix(a=np.array([-np.inf, -np.inf]), b=np.array([np.inf, np.inf]))
        assert crit.a.size == 2
        for a, b in (([-1.0, -1.0 - 1e-13], [2.0, 2.0]), ([-1.0, -1.0], [2.0, 2.0 + 1e-13]),
                     ([-1.0, -1.0 - 1e-13], [2.0, 2.0 + 1e-13])):
            with pytest.raises(ValueError, match="nondecreasing"):
                CriticalMatrix(a=np.array(a), b=np.array(b))
            with pytest.raises(ValueError, match="nondecreasing"):
                check_ladders(a, b)


class TestCheckLadders:
    def test_floats_and_the_truncated_ladder(self):
        a, b = check_ladders([-2, -1], [2, 1])
        assert a.dtype == b.dtype == float
        assert a.tolist() == [-2.0, -1.0] and b.tolist() == [2.0, 1.0]
        a, b = check_ladders(None, [np.inf, 1.0])
        assert a.tolist() == [-np.inf, -np.inf] and b.tolist() == [np.inf, 1.0]

    @pytest.mark.parametrize("a, b, match", [
        ([np.nan], [1.0], "NaN"),
        ([-1.0], [np.nan], "NaN"),
        (None, [2.0, np.nan], "NaN"),
        ([-1.0, 0.0], [1.0], "one entry per stream"),
        (None, [[1.0]], "one entry per stream"),
        (None, [], "one entry per stream"),
        ([-1.0, -2.0], [2.0, 1.0], "nondecreasing"),
        (None, [1.0, 2.0], "nonincreasing"),
        ([-1.0, 2.0], [2.0, 1.0], "cross"),
    ])
    def test_rejects(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            check_ladders(a, b)


class TestCountLaw:
    """SimpleModel's count law is scipy.stats' binom and poisson, bit for bit,
    but for the one-observation Bernoulli pmf, which is exactly [1 - p, p]."""

    SIZES = np.r_[np.arange(1, 401), 1000, 4096]
    MODELS = [SimpleModel("bernoulli", 0.05, 0.15), SimpleModel("poisson", 1.5, 2.0),
              SimpleModel("poisson", 0.6, 9.6)]

    @staticmethod
    def law(model, param):
        if model.family == "bernoulli":
            return stats.binom, lambda n: (n, param)
        return stats.poisson, lambda n: (n * param,)

    @pytest.mark.parametrize("model", MODELS)
    def test_one_observation_pmf(self, model):
        for param in (model.null_param, model.alt_param):
            dist, args = self.law(model, param)
            x = np.arange(model.isf(param, 1e-16) + 1)
            got = model.pmf(param, x)
            if model.family == "poisson":
                np.testing.assert_array_equal(got, dist.pmf(x, *args(1)))
            else:
                # boost's binom.pmf(0; 1, p) is 1 ulp off for most p
                assert got.tolist() == [1.0 - param, param]
                np.testing.assert_array_max_ulp(got, dist.pmf(x, *args(1)), maxulp=1)

    @pytest.mark.parametrize("model", MODELS)
    def test_upper_tail_is_sf_below(self, model):
        # every total from -1 to past the support, at every size
        for param in (model.null_param, model.alt_param):
            dist, args = self.law(model, param)
            for n in self.SIZES.tolist():
                top = n if model.family == "bernoulli" else model.isf(param, 1e-16, n) + 2
                x = np.arange(top + 1)
                np.testing.assert_array_equal(model.upper_tail(param, n, x),
                                              dist.sf(x - 1, *args(n)))
                for outside in ([-1], [n + 1]) if model.family == "bernoulli" else ([-1],):
                    with pytest.raises(ValueError, match="support"):
                        model.upper_tail(param, n, outside)

    @pytest.mark.parametrize("model", MODELS)
    def test_isf(self, model):
        for param in (model.null_param, model.alt_param):
            dist, args = self.law(model, param)
            for q in (1e-16, 1e-6, 0.05, 0.5):
                got = model.isf(param, q, self.SIZES[:, None])
                assert got.shape == (self.SIZES.size, 1) and got.dtype == np.int64
                np.testing.assert_array_equal(got[:, 0], dist.isf(q, *args(self.SIZES)))
            n = np.arange(1, 1001)
            np.testing.assert_array_equal(model.isf(param, 1e-16, n),
                                          dist.isf(1e-16, *args(n)))


class TestLatticeLlr:
    def test_matches_direct_cumsum(self):
        m = SimpleModel("bernoulli", 0.05, 0.15)
        obs = np.array([1, 0, 0, 1, 0, 0, 0, 1])
        got = cumulative_llr(m, np.cumsum(obs), np.arange(1, 9))
        want = np.cumsum(llr_increments(m, obs))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("family,params,specs", [
        ("bernoulli", (0.05, 0.15), [[Bernoulli(0.05), Bernoulli(0.15)] * 2]),
        ("poisson", (1.5, 2.0), [[Poisson(1.5), Poisson(2.0)] * 2]),
        # (target, other) report pairs: x from latent row 0, w = x + row 1
        ("bernoulli", (0.05, 0.15),
         [[Poisson(0.6), Poisson(2.0)] * 2, [Poisson(9.6), Poisson(5.0)] * 2]),
    ])
    def test_statistic_is_affine_in_integer_totals(self, family, params, specs):
        model = SimpleModel(family, *params)
        slope, step = lattice_terms(model)
        blocks = CountBlocks(CopulaConfig(4, Toeplitz(-0.6)), specs, horizon=300,
                             rngs=[np.random.default_rng(5)])
        points = []
        for _ in range(4):  # 64, 64, 128 and 44 steps
            n, (totals,) = blocks.take([0])
            x = totals[:, 0]
            points.append((x, x + totals[:, 1]) if len(specs) == 2
                          else (x, np.broadcast_to(n[:, None], x.shape)))
        stat = np.concatenate([cumulative_llr(model, x, w) for x, w in points])
        x, w = (np.concatenate(v) for v in zip(*points))
        for (n, j), value in np.ndenumerate(stat):
            assert value == float(x[n, j]) * slope + float(w[n, j]) * step
        # equal lattice points give equal floats, across steps and streams
        values = {}
        for point, value in zip(zip(x.ravel(), w.ravel()), stat.ravel()):
            assert values.setdefault(point, value) == value
        assert len(values) < x.size


def _first_passage_probs(model, crit, theta, reps, seed, horizon=600, chunk=150):
    """Chunked Monte Carlo of one-stream first passage through each boundary.

    Returns (P[reach >= B_k before <= A_1], P[reach <= A_k before >= B_1]).
    """
    j = crit.a.size
    rng = np.random.default_rng(seed)
    p0, p1 = model.null_param, model.alt_param
    c1, c0 = math.log(p1 / p0), math.log((1.0 - p1) / (1.0 - p0))
    t_up = np.full((j, reps), np.inf)
    t_dn = np.full((j, reps), np.inf)
    cur = np.zeros(reps)
    for offset in range(0, horizon, chunk):
        draws = rng.random((reps, chunk)) < theta
        path = cur[:, None] + np.cumsum(np.where(draws, c1, c0), axis=1)
        for k in range(j):
            for t_arr, hit in ((t_up, path >= crit.b[k]), (t_dn, path <= crit.a[k])):
                rows = np.isinf(t_arr[k]) & hit.any(axis=1)
                t_arr[k, rows] = offset + 1 + hit[rows].argmax(axis=1)
        cur = path[:, -1]
        if not np.isinf(np.minimum(t_up[0], t_dn[0])).any():
            break
    assert not np.isinf(np.minimum(t_up[0], t_dn[0])).any(), "horizon too short"
    p_reject = (t_up < t_dn[0]).mean(axis=1)
    p_accept = (t_dn < t_up[0]).mean(axis=1)
    return p_reject, p_accept


class TestErrorContracts:
    """Monte Carlo checks that boundary crossings honor the per-level levels.

    With rho = 0 the martingale bound is exact up to overshoot (which only
    helps) and a 1/(1 - surrogate) factor, so every level holds within 20%
    for any model.  The mean-overshoot correction assumes unit-normal-like
    increments; for the skewed count models here it stays within tolerance
    on the rejection side (large upward jumps) but inflates the acceptance
    side, where the conservative boundaries are the remedy.
    """

    def test_plain_wald_honors_levels_both_sides(self):
        model = SimpleModel("bernoulli", 0.05, 0.15)
        alpha = scale_for_fdr(bh_steps(0.25, 5), 0.25)
        beta = scale_for_fdr(bh_steps(0.15, 5), 0.15)
        crit = stepdown_critical_values(alpha, beta, rho=0.0)
        reps = 20000
        p_rej, _ = _first_passage_probs(model, crit, 0.05, reps, seed=101)
        for k in range(5):
            se = math.sqrt(p_rej[k] * (1 - p_rej[k]) / reps)
            assert p_rej[k] <= alpha.values[k] * 1.2 + 3 * se, (k, p_rej[k])
        _, p_acc = _first_passage_probs(model, crit, 0.15, reps, seed=102)
        for k in range(5):
            se = math.sqrt(p_acc[k] * (1 - p_acc[k]) / reps)
            assert p_acc[k] <= beta.values[k] * 1.2 + 3 * se, (k, p_acc[k])

    def test_default_rho_rejection_side(self):
        model = SimpleModel("bernoulli", 0.05, 0.15)
        alpha = scale_for_fdr(bh_steps(0.25, 5), 0.25)
        beta = scale_for_fdr(bh_steps(0.15, 5), 0.15)
        crit = stepdown_critical_values(alpha, beta)
        reps = 20000
        p_rej, _ = _first_passage_probs(model, crit, 0.05, reps, seed=103)
        for k in range(5):
            se = math.sqrt(p_rej[k] * (1 - p_rej[k]) / reps)
            assert p_rej[k] <= alpha.values[k] * 1.2 + 3 * se, (k, p_rej[k])

    def test_conservative_boundaries_control_skewed_acceptance(self):
        model = SimpleModel("bernoulli", 0.05, 0.15)
        alpha = scale_for_fdr(bh_steps(0.25, 5), 0.25)
        beta = scale_for_fdr(bh_steps(0.15, 5), 0.15)
        crit = conservative_critical_values(alpha, beta)
        reps = 20000
        _, p_acc = _first_passage_probs(model, crit, 0.15, reps, seed=104)
        for k in range(5):
            se = math.sqrt(p_acc[k] * (1 - p_acc[k]) / reps)
            assert p_acc[k] <= beta.values[k] + 3 * se, (k, p_acc[k])
