"""Tests for the fixed-sample BH comparator and matching-N search."""

import math

import numpy as np
import pytest

from seqfdr import datagen
from seqfdr.core import StepVector, bh_steps
from seqfdr.datagen import CopulaConfig, Toeplitz
from seqfdr.errors import ConfigError
from seqfdr.fixed_sample import (
    FssSearchResult,
    bh_stepup,
    exact_pvalue,
    find_matching_fss,
)
from seqfdr.sprt import SimpleModel

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

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 0, np.array([0]))
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 5, np.array([-1]))
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 5, np.array([6]))
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
        # rates from 700 up underflow the Poisson table: refused before any draw
        with pytest.raises(ValueError, match="700"):
            find_matching_fss(
                SimpleModel("poisson", 800.0, 900.0), self._config(3),
                [True, False, False], 0.25, 0.5, reps=50, n_max=8,
            )
