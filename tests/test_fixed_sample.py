"""Tests for the fixed-sample BH comparator and matching-N search."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqfdr import datagen
from seqfdr.core import StepVector, bh_steps, scale_for_fdr
from seqfdr.datagen import CopulaConfig, Toeplitz
from seqfdr.errors import ConfigError
from seqfdr.fixed_sample import (
    FssSearchResult,
    _bh_rates,
    bh_stepup,
    exact_pvalue,
    find_matching_fss,
)
from seqfdr.sprt import SimpleModel

from oracles import bh_rates

BERN = SimpleModel("bernoulli", 0.05, 0.15)
POIS = SimpleModel("poisson", 1.5, 2.0)


def _binom_tail(n, p, total):
    return math.fsum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(total, n + 1)
    )


def _poisson_tail(mu, total):
    # complement of the lower CDF, summed with fsum for accuracy
    return 1.0 - math.fsum(
        math.exp(-mu) * mu**k / math.factorial(k) for k in range(total)
    )


class TestExactPvalue:
    def test_whole_support(self):
        assert exact_pvalue(BERN, 7, np.array([0]))[0] == 1.0
        assert exact_pvalue(POIS, 3, np.array([0]))[0] == 1.0

    def test_extreme_binomial(self):
        assert exact_pvalue(BERN, 10, np.array([10]))[0] == pytest.approx(0.05**10, rel=1e-12)

    def test_binomial_against_direct_sum(self):
        for total in (0, 1, 3, 7, 12):
            got = exact_pvalue(BERN, 12, np.array([total]))[0]
            assert got == pytest.approx(_binom_tail(12, 0.05, total), rel=1e-10)

    def test_poisson_against_direct_sum(self):
        for total in (0, 1, 4, 9):
            got = exact_pvalue(POIS, 4, np.array([total]))[0]
            assert got == pytest.approx(_poisson_tail(6.0, total), rel=1e-9, abs=1e-15)

    def test_monotone_in_total(self):
        ps = exact_pvalue(POIS, 5, np.arange(30))
        assert np.all(np.diff(ps) <= 0.0)

    @pytest.mark.parametrize("model", [BERN, POIS], ids=["bernoulli", "poisson"])
    def test_size_grid_equals_each_size_alone(self, model):
        # one call over an (n, total) grid gives each n's own call bit for bit
        n = np.arange(1, 41)
        grid = np.minimum(np.arange(45), n[:, None])
        want = np.stack([exact_pvalue(model, k, row) for k, row in zip(n.tolist(), grid)])
        np.testing.assert_array_equal(exact_pvalue(model, n[:, None], grid), want)

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 0, np.array([0]))
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 5, np.array([-1]))
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 5, np.array([6]))
        # an array of sizes is checked as a whole: a size below 1 anywhere,
        # or a total outside its own row's support
        with pytest.raises(ValueError, match="sample size"):
            exact_pvalue(BERN, np.array([[3], [0]]), np.array([0, 1]))
        with pytest.raises(ValueError, match="support"):
            exact_pvalue(BERN, np.array([[5], [3]]), np.array([0, 4]))
        with pytest.raises(ConfigError):
            exact_pvalue(SimpleModel("conditional_binomial", 0.1, 0.2), 5, np.array([1]))


def _bh_reference(p, alpha):
    """Literal step-up scan used as an oracle."""
    j = len(p)
    order = sorted(range(j), key=lambda i: (p[i], i))
    kstar = 0
    for k in range(1, j + 1):
        if p[order[k - 1]] <= alpha[k - 1]:
            kstar = k
    return frozenset(order[:kstar])


def _rejected(mask_row):
    return frozenset(int(i) for i in np.flatnonzero(mask_row))


class TestBhStepup:
    def test_worked_example(self):
        out = bh_stepup([[0.01, 0.04, 0.5]], StepVector([0.05, 0.10, 0.15]))
        assert _rejected(out[0]) == frozenset({0, 1})

    def test_degenerate_vectors(self):
        alpha = bh_steps(0.2, 4)
        assert _rejected(bh_stepup([[1.0] * 4], alpha)[0]) == frozenset()
        assert _rejected(bh_stepup([[0.0] * 4], alpha)[0]) == frozenset(range(4))

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(7)
        alpha = bh_steps(0.3, 6)
        p = np.round(rng.random((300, 6)), 2)  # rounding forces ties
        mask = bh_stepup(p, alpha)
        for row, mask_row in zip(p, mask):
            assert _rejected(mask_row) == _bh_reference(row, alpha.values)

    def test_set_invariant_under_permutation(self):
        rng = np.random.default_rng(8)
        alpha = bh_steps(0.25, 5)
        p = np.array([0.01, 0.03, 0.03, 0.2, 0.9])
        base = set(p[bh_stepup(p[None, :], alpha)[0]])
        for _ in range(10):
            perm = rng.permutation(5)
            assert set(p[perm][bh_stepup(p[perm][None, :], alpha)[0]]) == base

    def test_classical_fdr_control_under_independence(self):
        rng = np.random.default_rng(10)
        q, j, reps = 0.2, 8, 10_000
        p = rng.random((reps, j))
        rejected = bh_stepup(p, bh_steps(q, j))
        # every hypothesis is null, so every rejection is false
        r = rejected.sum(axis=1)
        fdr = np.mean(r / np.maximum(r, 1))
        assert fdr <= q + 3.0 * math.sqrt(q * (1 - q) / reps)

    def test_validation(self):
        with pytest.raises(ValueError):
            bh_stepup([[0.5]], bh_steps(0.1, 2))
        with pytest.raises(ValueError):
            bh_stepup([[0.5, 1.5]], bh_steps(0.1, 2))
        with pytest.raises(ValueError):
            bh_stepup([[0.5, np.nan]], bh_steps(0.1, 2))
        with pytest.raises(ValueError):
            bh_stepup([0.5, 0.5], bh_steps(0.1, 2))


class TestBhRates:
    """A block of sample sizes at once against one size at a time (the oracle)."""

    @settings(max_examples=80, deadline=None)
    @given(model=st.sampled_from([BERN, POIS]), j=st.sampled_from([1, 3, 10, 60]),
           steps=st.integers(1, 5), reps=st.integers(1, 300),
           truth=st.sampled_from(["null", "alt", "mixed"]), spread=st.integers(0, 6),
           n0=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(model=BERN, j=10, steps=1, reps=200, truth="mixed", spread=0, n0=7, seed=0)
    def test_block_equals_each_size_alone(self, model, j, steps, reps, truth, spread, n0, seed):
        rng = np.random.default_rng(seed)
        n = np.arange(n0, n0 + steps)
        # totals from a few values (spread 0: all tied), in each size's support
        totals = rng.integers(0, n0 + 1) + rng.integers(0, spread + 1, (steps, reps, j))
        if model is BERN:
            totals = np.minimum(totals, n[:, None, None])
        flags = {"null": np.ones(j, bool), "alt": np.zeros(j, bool),
                 "mixed": rng.random(j) < 0.5}[truth]
        alpha = scale_for_fdr(bh_steps(0.25, j), 0.25)
        block = _bh_rates(model, n, totals, flags, alpha)
        for k in range(steps):
            alone = bh_rates(model, int(n[k]), totals[k], flags, alpha)
            assert tuple(float(rate[k]) for rate in block) == alone


class TestFindMatchingFss:
    def _config(self, j, seed=1234):
        return CopulaConfig(j=j, structure=Toeplitz(rho=0.0), seed=seed)

    def test_trivial_target(self):
        out = find_matching_fss(
            BERN, self._config(3), [True, False, False], 0.25, 1.0, reps=200
        )
        assert out.n_fss == 1 and out.found

    def test_all_null_needs_one_sample(self):
        out = find_matching_fss(
            BERN, self._config(4), [True] * 4, 0.25, 0.05, reps=200
        )
        assert out.n_fss == 1 and out.found
        assert out.achieved_fnr == 0.0

    def test_moderate_target_converges(self):
        out = find_matching_fss(
            POIS, self._config(4, seed=5), [True, True, False, False],
            0.25, 0.10, reps=400, n_max=512,
        )
        assert out.found
        assert 1 < out.n_fss < 512
        assert out.achieved_fnr <= 0.10 + 1.5 * out.fnr_se
        # one step smaller misses the target beyond noise at these reps
        smaller = find_matching_fss(
            POIS, self._config(4, seed=5), [True, True, False, False],
            0.25, 0.10, reps=400, n_max=out.n_fss - 1,
        )
        assert not smaller.found or smaller.n_fss == out.n_fss - 1

    def test_unreachable_target_reports_boundary(self):
        out = find_matching_fss(
            BERN, self._config(3, seed=2), [True, False, False],
            0.25, 0.001, reps=200, n_max=8,
        )
        assert not out.found
        assert out.n_fss == 8
        assert out.achieved_fnr > 0.001

    def test_unconfirmed_below_ceiling(self):
        # the 50-rep nested curve first reaches the target at 39; the 4x-reps
        # confirmation misses it by more than 1.5 se, so found is False there
        out = find_matching_fss(
            BERN, self._config(3, seed=1), [True, False, False],
            0.25, 0.10, reps=50, n_max=64,
        )
        assert not out.found
        assert out.n_fss == 39
        assert out.curve.fnr[-1] <= 0.10
        assert out.achieved_fnr > 0.10 + 1.5 * out.fnr_se

    def test_curve_stops_at_first_crossing(self):
        target = 0.10
        out = find_matching_fss(
            POIS, self._config(4, seed=5), [True, True, False, False],
            0.25, target, reps=400, n_max=512,
        )
        curve = out.curve
        assert curve.n == tuple(range(1, out.n_fss + 1))
        assert len(curve.fnr) == len(curve.fdr) == len(curve.se) == out.n_fss
        assert curve.fnr[-1] <= target
        assert all(f > target for f in curve.fnr[:-1])
        # a curve that never reaches the target runs to the ceiling
        capped = find_matching_fss(
            POIS, self._config(4, seed=5), [True, True, False, False],
            0.25, target, reps=400, n_max=out.n_fss - 1,
        )
        assert capped.curve.n == curve.n[:-1] and capped.curve.fnr == curve.fnr[:-1]
        assert all(f > target for f in capped.curve.fnr)

    def test_same_result_for_any_ceiling_from_n_fss(self):
        # the nested curve's prefix does not depend on how far it may run
        args = (BERN, self._config(3, seed=4), [True, False, False], 0.25, 0.12)
        out = find_matching_fss(*args, reps=100, n_max=4096)
        assert out.n_fss < 4096
        for n_max in (out.n_fss, out.n_fss + 1, 3 * out.n_fss):
            assert find_matching_fss(*args, reps=100, n_max=n_max) == out

    def test_block_cap_does_not_change_result(self, monkeypatch):
        args = (POIS, self._config(3, seed=6), [True, False, False], 0.25, 0.2)
        out = find_matching_fss(*args, reps=300, n_max=256)
        # 1000 cells hold one step of 300 replicates: every block is one step
        monkeypatch.setattr(datagen, "_BLOCK_CELLS", 1000)
        assert find_matching_fss(*args, reps=300, n_max=256) == out

    # the two benchmark rows (J = 10, rho = -0.6, q1 = 0.25, n_max = 400) at
    # 200 reps and seed 20261019, as the search gave them one N at a time:
    # (target, n_fss, found, achieved FNR, achieved FDR, FNR se, curve digest)
    PINNED = {
        ("bernoulli", 5): (0.035, 101, True, 0.022558035714285714, 0.05250595238095238,
                           0.0022989086728318823, "91761f79801f872a"),
        ("poisson", 0): (0.103, 79, True, 0.1125, 0.0, 0.011171601832324672,
                         "86af9243bf7c6e23"),
    }

    @pytest.mark.parametrize("family, m0", sorted(PINNED))
    def test_benchmark_rows_are_pinned(self, family, m0):
        target, *want, digest = self.PINNED[family, m0]
        model = BERN if family == "bernoulli" else POIS
        out = find_matching_fss(model, CopulaConfig(10, Toeplitz(-0.6), seed=20261019),
                                [True] * m0 + [False] * (10 - m0), 0.25, target, 200, n_max=400)
        assert [out.n_fss, out.found, out.achieved_fnr, out.achieved_fdr, out.fnr_se] == want
        # the whole curve, every N's (FNR, FDR, se), bit for bit
        assert hashlib.sha256(repr(out.curve).encode()).hexdigest()[:16] == digest

    def test_deterministic(self):
        kw = dict(q1=0.25, target_fnr=0.2, reps=300, n_max=256)
        a = find_matching_fss(POIS, self._config(3, seed=9), [True, False, False], **kw)
        b = find_matching_fss(POIS, self._config(3, seed=9), [True, False, False], **kw)
        assert a == b

    def test_validation(self):
        cfg = self._config(2)
        with pytest.raises(ConfigError):
            find_matching_fss(BERN, cfg, [True, False], 0.25, 0.0, reps=100)
        with pytest.raises(ValueError):
            find_matching_fss(BERN, cfg, [True], 0.25, 0.5, reps=100)
        # an unseeded search has no reproducible draw
        with pytest.raises(ValueError, match="seed"):
            find_matching_fss(BERN, self._config(2, seed=None), [True, False], 0.25, 0.5,
                              reps=100)
        for n_max in (0, -5):
            with pytest.raises(ConfigError, match="n_max"):
                find_matching_fss(BERN, cfg, [True, False], 0.25, 0.5, reps=100, n_max=n_max)
        with pytest.raises(ConfigError):
            find_matching_fss(
                SimpleModel("conditional_binomial", 0.1, 0.2),
                cfg, [True, False], 0.25, 0.5, reps=100,
            )
        # an alternative below the null, which upper-tail p-values cannot
        # test, is refused before any draw
        with pytest.raises(ValueError, match="must exceed"):
            find_matching_fss(
                SimpleModel("bernoulli", 0.15, 0.05),
                cfg, [True, False], 0.25, 0.5, reps=100,
            )
        # rates from 700 up underflow the Poisson table: refused before any draw
        with pytest.raises(ValueError, match="700"):
            find_matching_fss(
                SimpleModel("poisson", 800.0, 900.0), self._config(3),
                [True, False, False], 0.25, 0.5, reps=50, n_max=8,
            )
