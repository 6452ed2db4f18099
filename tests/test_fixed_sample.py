"""Tests for the fixed-sample BH comparator and matching-N search."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqfdr import datagen, fixed_sample
from seqfdr.core import StepVector, bh_steps, scale_for_fdr
from seqfdr.datagen import CopulaConfig, CountBlocks, Toeplitz
from seqfdr.errors import ConfigError
from seqfdr.fixed_sample import (
    _RUN,
    FnrCurve,
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
        assert out.achieved_fnr <= 0.10
        # the N before n_fss is above the target (else it would start the
        # run), so a ceiling one step smaller is reached without a run
        smaller = find_matching_fss(
            POIS, self._config(4, seed=5), [True, True, False, False],
            0.25, 0.10, reps=400, n_max=out.n_fss - 1,
        )
        assert not smaller.found and smaller.n_fss == out.n_fss - 1
        assert smaller.achieved_fnr > 0.10

    def test_unreachable_target_reports_boundary(self):
        out = find_matching_fss(
            BERN, self._config(3, seed=2), [True, False, False],
            0.25, 0.001, reps=200, n_max=8,
        )
        assert not out.found
        assert out.n_fss == 8
        assert out.achieved_fnr > 0.001

    def test_dip_that_rises_again_is_not_taken(self):
        # the 50-rep nested curve dips to 0.083, 0.073 and 0.063 at N = 39-41
        # and rises to 0.153 at 42: a run of three, so the search goes on
        out = find_matching_fss(
            BERN, self._config(3, seed=1), [True, False, False],
            0.25, 0.10, reps=50, n_max=64,
        )
        assert all(f <= 0.10 for f in out.curve.fnr[38:41]) and out.curve.fnr[41] > 0.10
        assert out.found
        assert out.n_fss == 53
        assert out.achieved_fnr == out.curve.fnr[52] <= 0.10
        assert out.fnr_se == out.curve.se[52]

    def test_curve_ends_a_run_past_n_fss(self):
        target = 0.10
        out = find_matching_fss(
            POIS, self._config(4, seed=5), [True, True, False, False],
            0.25, target, reps=400, n_max=512,
        )
        curve = out.curve
        last = out.n_fss + _RUN - 1
        assert curve.n == tuple(range(1, last + 1))
        assert len(curve.fnr) == len(curve.fdr) == len(curve.se) == last
        # the run from n_fss is at or below the target; every earlier N has
        # a value above it in its window
        assert all(f <= target for f in curve.fnr[out.n_fss - 1:])
        assert all(max(curve.fnr[k:k + _RUN]) > target for k in range(out.n_fss - 1))
        assert (out.achieved_fnr, out.achieved_fdr, out.fnr_se) == (
            curve.fnr[out.n_fss - 1], curve.fdr[out.n_fss - 1], curve.se[out.n_fss - 1])
        # a ceiling below n_fss is reached without a run, and the curve runs to it
        capped = find_matching_fss(
            POIS, self._config(4, seed=5), [True, True, False, False],
            0.25, target, reps=400, n_max=out.n_fss - 1,
        )
        assert not capped.found and capped.n_fss == out.n_fss - 1
        assert capped.curve == FnrCurve(*(col[:out.n_fss - 1] for col in curve))

    def test_same_result_for_any_ceiling_from_n_fss(self):
        # the nested curve's prefix does not depend on how far it may run
        args = (BERN, self._config(3, seed=4), [True, False, False], 0.25, 0.12)
        out = find_matching_fss(*args, reps=100, n_max=4096)
        assert out.n_fss + _RUN - 1 < 4096
        for n_max in (out.n_fss + _RUN - 1, out.n_fss + _RUN, 3 * out.n_fss):
            assert find_matching_fss(*args, reps=100, n_max=n_max) == out
        # a ceiling inside the run cuts its window: the same size and rates,
        # on a curve that ends at the ceiling
        for n_max in range(out.n_fss, out.n_fss + _RUN - 1):
            cut = find_matching_fss(*args, reps=100, n_max=n_max)
            assert cut.found and cut.n_fss == out.n_fss
            assert cut.achieved_fnr == out.achieved_fnr and cut.fnr_se == out.fnr_se
            assert cut.curve == FnrCurve(*(col[:n_max] for col in out.curve))

    def test_curve_is_the_oracle_on_the_same_draw(self):
        # every N of the curve, past the first crossing too, is BH one size
        # at a time (the oracle) on the search's stream
        config, truth = self._config(4, seed=5), np.array([True, True, False, False])
        out = find_matching_fss(POIS, config, truth, 0.25, 0.10, reps=400, n_max=512)
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(0, 1))
        blocks = CountBlocks(config, [POIS.marginals(truth)], horizon=len(out.curve.n),
                             rngs=[np.random.default_rng(seq)], replicates=400)
        n, (totals,) = blocks.take([0])
        alpha = scale_for_fdr(bh_steps(0.25, 4), 0.25)
        want = [bh_rates(POIS, k, step, truth, alpha) for k, step in zip(n.tolist(), totals)]
        assert min(k for k, (fnr, _, _) in enumerate(want, 1) if fnr <= 0.10) < out.n_fss
        assert list(zip(*out.curve[1:])) == want

    def test_one_count_draw_per_search(self, monkeypatch):
        built = []

        class Counted(CountBlocks):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["replicates"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fixed_sample, "CountBlocks", Counted)
        # a search that reaches its ceiling and one that meets the rule
        for target, n_max in ((0.001, 40), (0.10, 512)):
            built.clear()
            find_matching_fss(POIS, self._config(4, seed=5), [True, True, False, False],
                              0.25, target, reps=400, n_max=n_max)
            assert built == [400]

    def test_block_cap_does_not_change_result(self, monkeypatch):
        args = (POIS, self._config(3, seed=6), [True, False, False], 0.25, 0.2)
        out = find_matching_fss(*args, reps=300, n_max=256)
        # 1000 cells hold one step of 300 replicates: every block is one step
        monkeypatch.setattr(datagen, "_BLOCK_CELLS", 1000)
        assert find_matching_fss(*args, reps=300, n_max=256) == out

    # the two benchmark rows (J = 10, rho = -0.6, q1 = 0.25, n_max = 400) at
    # 200 reps and seed 20261019: (target, n_fss, found, achieved FNR,
    # achieved FDR, FNR se, curve digest), then the curve's first crossing
    # and the digest of the curve up to it, as the search gave them when it
    # stopped there and evaluated one N at a time
    PINNED = {
        ("bernoulli", 5): (0.035, 105, True, 0.034880952380952374, 0.06008928571428571,
                           0.0054323490928572206, "a7a3966cb7a4b87f", 101, "91761f79801f872a"),
        ("poisson", 0): (0.103, 81, True, 0.095, 0.0, 0.02073342711661533,
                         "94ecd1712f8058e7", 79, "86af9243bf7c6e23"),
    }

    @staticmethod
    def _digest(curve):
        return hashlib.sha256(repr(curve).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("family, m0", sorted(PINNED))
    def test_benchmark_rows_are_pinned(self, family, m0):
        target, *want, digest, crossing, prefix = self.PINNED[family, m0]
        model = BERN if family == "bernoulli" else POIS
        out = find_matching_fss(model, CopulaConfig(10, Toeplitz(-0.6), seed=20261019),
                                [True] * m0 + [False] * (10 - m0), 0.25, target, 200, n_max=400)
        assert [out.n_fss, out.found, out.achieved_fnr, out.achieved_fdr, out.fnr_se] == want
        # the whole curve, every N's (FNR, FDR, se), bit for bit, and its part
        # up to the first crossing
        assert self._digest(out.curve) == digest
        assert min(k for k, f in enumerate(out.curve.fnr, 1) if f <= target) == crossing
        assert self._digest(FnrCurve(*(col[:crossing] for col in out.curve))) == prefix

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
