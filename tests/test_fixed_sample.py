"""Tests for the fixed-sample BH comparator and matching-N search."""

import math

import numpy as np
import pytest

from seqfdr.core import StepVector, bh_steps
from seqfdr.datagen import CopulaConfig, Toeplitz
from seqfdr.errors import ConfigError
from seqfdr.fixed_sample import (
    FssSearchResult,
    _bh_counts,
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
        assert exact_pvalue(BERN, 7, 0) == 1.0
        assert exact_pvalue(POIS, 3, 0) == 1.0

    def test_extreme_binomial(self):
        assert exact_pvalue(BERN, 10, 10) == pytest.approx(0.05**10, rel=1e-12)

    def test_binomial_against_direct_sum(self):
        for total in (0, 1, 3, 7, 12):
            got = exact_pvalue(BERN, 12, total)
            assert got == pytest.approx(_binom_tail(12, 0.05, total), rel=1e-10)

    def test_poisson_against_direct_sum(self):
        for total in (0, 1, 4, 9):
            got = exact_pvalue(POIS, 4, total)
            assert got == pytest.approx(_poisson_tail(6.0, total), rel=1e-9, abs=1e-15)

    def test_monotone_in_total(self):
        ps = [exact_pvalue(POIS, 5, t) for t in range(30)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 0, 0)
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 5, -1)
        with pytest.raises(ValueError):
            exact_pvalue(BERN, 5, 6)
        with pytest.raises(ConfigError):
            exact_pvalue(SimpleModel("conditional_binomial", 0.1, 0.2), 5, 1)


def _bh_reference(p, alpha):
    """Literal step-up scan used as an oracle."""
    j = len(p)
    order = sorted(range(j), key=lambda i: (p[i], i))
    kstar = 0
    for k in range(1, j + 1):
        if p[order[k - 1]] <= alpha[k - 1]:
            kstar = k
    return frozenset(order[:kstar])


class TestBhStepup:
    def test_worked_example(self):
        out = bh_stepup([0.01, 0.04, 0.5], StepVector([0.05, 0.10, 0.15]))
        assert out == frozenset({0, 1})

    def test_degenerate_vectors(self):
        alpha = bh_steps(0.2, 4)
        assert bh_stepup([1.0] * 4, alpha) == frozenset()
        assert bh_stepup([0.0] * 4, alpha) == frozenset(range(4))

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(7)
        alpha = bh_steps(0.3, 6)
        for _ in range(300):
            p = np.round(rng.random(6), 2)  # rounding forces ties
            assert bh_stepup(p, alpha) == _bh_reference(p, alpha.values)

    def test_set_invariant_under_permutation(self):
        rng = np.random.default_rng(8)
        alpha = bh_steps(0.25, 5)
        p = np.array([0.01, 0.03, 0.03, 0.2, 0.9])
        base = {p[i] for i in bh_stepup(p, alpha)}
        for _ in range(10):
            perm = rng.permutation(5)
            assert {p[perm][i] for i in bh_stepup(p[perm], alpha)} == base

    def test_vectorized_counts_agree(self):
        rng = np.random.default_rng(9)
        alpha = bh_steps(0.2, 7)
        null_mask = np.array([True, True, True, False, False, False, True])
        p = rng.random((200, 7))
        v, r, w = _bh_counts(p, alpha.values, null_mask)
        for t in range(200):
            rej = bh_stepup(p[t], alpha)
            assert r[t] == len(rej)
            assert v[t] == sum(null_mask[i] for i in rej)
            assert w[t] == sum(
                not null_mask[i] for i in range(7) if i not in rej
            )

    def test_classical_fdr_control_under_independence(self):
        rng = np.random.default_rng(10)
        q, j, reps = 0.2, 8, 10_000
        p = rng.random((reps, j))
        v, r, _ = _bh_counts(p, bh_steps(q, j).values, np.ones(j, dtype=bool))
        fdr = np.mean(v / np.maximum(r, 1))
        assert fdr <= q + 3.0 * math.sqrt(q * (1 - q) / reps)

    def test_validation(self):
        with pytest.raises(ValueError):
            bh_stepup([0.5], bh_steps(0.1, 2))
        with pytest.raises(ValueError):
            bh_stepup([0.5, 1.5], bh_steps(0.1, 2))


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
        # bisection on 50-rep estimates stops at 47; the 4x-reps confirmation
        # misses the target by more than 1.5 se, so found is False there too
        out = find_matching_fss(
            BERN, self._config(3, seed=0), [True, False, False],
            0.25, 0.10, reps=50, n_max=64,
        )
        assert not out.found
        assert out.n_fss == 47
        assert out.achieved_fnr > 0.10 + 1.5 * out.fnr_se

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
        with pytest.raises(ConfigError):
            find_matching_fss(
                SimpleModel("conditional_binomial", 0.1, 0.2),
                cfg, [True, False], 0.25, 0.5, reps=100,
            )
