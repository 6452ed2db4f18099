"""Tests for copula-driven correlated count streams."""

import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr, ndtri

from seqfdr import datagen
from seqfdr.datagen import (
    Bernoulli,
    BlockClusters,
    CopulaConfig,
    CountBlocks,
    Poisson,
    Toeplitz,
    _PoissonCdfTable,
    _bernoulli_cut,
    _latent_counts,
    cholesky,
    correlation_matrix,
)
from seqfdr.errors import FactorizationError

from oracles import copula_uniforms, invert_marginal


class TestCorrelationMatrix:
    def test_toeplitz_values(self):
        mat = correlation_matrix(CopulaConfig(3, Toeplitz(-0.6)))
        np.testing.assert_allclose(
            mat,
            [[1.0, -0.6, 0.36], [-0.6, 1.0, -0.6], [0.36, -0.6, 1.0]],
            atol=1e-15,
        )

    def test_toeplitz_zero_is_identity(self):
        mat = correlation_matrix(CopulaConfig(4, Toeplitz(0.0)))
        np.testing.assert_array_equal(mat, np.eye(4))

    def test_block_clusters(self):
        structure = BlockClusters(cluster_of=(0, 0, 1), rho_of_cluster=(0.5, -0.2))
        mat = correlation_matrix(CopulaConfig(3, structure))
        np.testing.assert_allclose(
            mat, [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15
        )

    def test_scattered_cluster_is_positive_definite(self):
        structure = BlockClusters(cluster_of=(0, 1, 0, 1, 0), rho_of_cluster=(-0.7, 0.9))
        mat = correlation_matrix(CopulaConfig(5, structure))
        np.testing.assert_allclose(mat, mat.T)
        fac = cholesky(mat)
        np.testing.assert_allclose(fac @ fac.T, mat, atol=1e-10)

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            Toeplitz(1.0)
        with pytest.raises(ValueError):
            BlockClusters(cluster_of=(0, 2), rho_of_cluster=(0.5, 0.5))
        with pytest.raises(ValueError):
            BlockClusters(cluster_of=(0,), rho_of_cluster=(1.5,))
        with pytest.raises(ValueError):
            CopulaConfig(3, BlockClusters(cluster_of=(0, 0), rho_of_cluster=(0.5,)))


class TestCholesky:
    def test_factorization_property(self):
        for rho in (-0.9, -0.6, 0.0, 0.6):
            mat = correlation_matrix(CopulaConfig(10, Toeplitz(rho)))
            fac = cholesky(mat)
            np.testing.assert_allclose(fac @ fac.T, mat, atol=1e-10)
            assert np.allclose(fac, np.tril(fac))

    def test_failure_names_minor(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(FactorizationError, match="order 2"):
            cholesky(bad)
        with pytest.raises(FactorizationError, match="order 1"):
            cholesky(np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cholesky(np.ones((2, 3)))
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestInvertMarginal:
    def test_bernoulli_threshold(self):
        np.testing.assert_array_equal(
            invert_marginal(Bernoulli(0.05), np.array([0.05, 0.050001, 0.0])), [1, 0, 1]
        )

    def test_poisson_first_steps(self):
        # F(0) = exp(-1.5) ~ 0.22313
        assert invert_marginal(Poisson(1.5), np.array([0.22]))[0] == 0
        assert invert_marginal(Poisson(1.5), np.array([0.23]))[0] == 1

    def test_report_pair(self):
        # a (target, other) report pair inverts as two Poisson marginals
        u = np.array([0.5])
        assert invert_marginal(Poisson(0.6), u)[0] == scipy.stats.poisson.ppf(0.5, 0.6) == 0
        assert invert_marginal(Poisson(9.6), u)[0] == scipy.stats.poisson.ppf(0.5, 9.6)

    def test_domain_errors(self):
        # the normal CDF can round up to exactly 1.0: the top of the range
        assert invert_marginal(Bernoulli(0.5), np.array([1.0]))[0] == 0
        top = _PoissonCdfTable(1.5).cdf.size - 1
        assert invert_marginal(Poisson(1.5), np.array([1.0]))[0] == top
        for bad in (1.0 + 1e-12, -0.1, np.nan):
            for spec in (Bernoulli(0.5), Poisson(1.5)):
                with pytest.raises(ValueError):
                    invert_marginal(spec, np.array([0.5, bad]))

    @pytest.mark.parametrize("lam", [0.3, 1.5, 2.0, 37.5, 250.0])
    def test_matches_scipy_quantiles(self, lam):
        rng = np.random.default_rng(11)
        us = rng.random(400)
        mine = invert_marginal(Poisson(lam), us)
        oracle = scipy.stats.poisson.ppf(us, lam).astype(int)
        np.testing.assert_array_equal(mine, oracle)

    def test_cdf_table_matches_scipy(self):
        table = _PoissonCdfTable(2.0)
        ks = np.arange(table.cdf.size)
        np.testing.assert_allclose(table.cdf, scipy.stats.poisson.cdf(ks, 2.0), atol=1e-12)

    @pytest.mark.parametrize("lam", [0.6, 1.5, 12.0, 68.0])
    def test_cdf_is_strictly_increasing(self, lam):
        assert np.all(np.diff(_PoissonCdfTable(lam).cdf) > 0.0)

    @pytest.mark.parametrize("lam", [0.6, 1.5, 12.0, 68.0])
    def test_counts_match_the_table_kept_to_its_cap(self, lam):
        # the table kept until it reaches 1 - 1e-16 or its cap, a plateau's
        # repeated levels included (0.6, 12 and 68 never reach 1 - 1e-16)
        cap = int(lam + 60.0 * math.sqrt(lam + 1.0) + 120.0)
        pmf = [math.exp(-lam)]
        for k in range(1, cap):
            pmf.append(pmf[-1] * lam / k)
        cdf = np.cumsum(pmf)
        full = np.flatnonzero(cdf >= 1.0 - 1e-16)
        stop = full[0] + 1 if full.size else cap
        old_cuts = datagen._latent_cuts(cdf[:stop - 1])
        table = _PoissonCdfTable(lam)
        plateau = old_cuts.size > table.cuts.size
        assert plateau == (lam != 1.5)
        # counts agree up to the plateau's cut; past it they stop at the
        # plateau's index, where the old table counted to its end
        edge = old_cuts[table.cuts.size] if plateau else np.inf
        y = np.concatenate([3.0 * np.random.default_rng(3).standard_normal(20_000),
                            old_cuts, np.nextafter(old_cuts, np.inf), [-np.inf, np.inf]])
        for y in (y, y[-200:]):  # comparisons and binary search, where lam allows
            got = _latent_counts(Poisson(lam), y, np.empty(y.shape, np.int64))
            want = np.searchsorted(old_cuts, y, side="left")
            below = y <= edge
            np.testing.assert_array_equal(got[below], want[below])
            np.testing.assert_array_equal(got[~below], table.cuts.size)

    def test_mean_of_inversions(self):
        rng = np.random.default_rng(5)
        us = rng.random(100_000)
        vals = invert_marginal(Poisson(2.0), us)
        assert vals.mean() == pytest.approx(2.0, abs=0.02)


def _uniform_rule(spec, y):
    """The uniform-scale inversion: ndtr, then the marginal's inverse CDF."""
    u = ndtr(y)
    if isinstance(spec, Bernoulli):
        return (u <= spec.p).astype(np.int64)
    return np.searchsorted(_PoissonCdfTable(spec.lam).cdf[:-1], u, side="left")


class TestLatentCounts:
    SPECS = [Bernoulli(0.05), Bernoulli(0.15), Bernoulli(0.5),
             Poisson(0.3), Poisson(1.5), Poisson(2.0), Poisson(12.0)]

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_equals_ndtr_then_inversion(self, spec, monkeypatch):
        # more bulk cuts than the guard allows, so that Poisson(12) is
        # counted by comparisons too (the guard is for speed only)
        monkeypatch.setattr(datagen, "_COMPARE_CUTS", 64)
        if isinstance(spec, Bernoulli):
            levels = np.array([spec.p])
            cuts = np.array([_bernoulli_cut(spec.p)])
        else:
            levels = _PoissonCdfTable(spec.lam).cdf[:-1]
            cuts = _PoissonCdfTable(spec.lam).cuts
        # the cuts, ndtri's estimates and their neighbouring doubles
        edges = np.concatenate([cuts, ndtri(levels)])
        y = np.concatenate([
            np.random.default_rng(17).standard_normal(1_000_000),
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            [-np.inf, np.inf],
        ])
        # a large input and a small one: a Poisson group is counted by
        # comparisons from _COMPARE_CELLS cells, by binary search below
        small = np.concatenate([y[:100], y[1_000_000:]])
        assert small.size < datagen._COMPARE_CELLS <= y.size
        for y in (y, small):
            out = np.full(y.shape, -1, np.int64)
            assert _latent_counts(spec, y, out) is out
            np.testing.assert_array_equal(out, _uniform_rule(spec, y))


class TestCopulaUniforms:
    def test_shapes(self):
        cfg = CopulaConfig(4, Toeplitz(-0.6))
        rng = np.random.default_rng(0)
        assert copula_uniforms(cfg, rng, size=7).shape == (7, 4)

    def test_deterministic_under_seed(self):
        cfg = CopulaConfig(4, Toeplitz(0.6))
        a = copula_uniforms(cfg, np.random.default_rng(42), size=5)
        b = copula_uniforms(cfg, np.random.default_rng(42), size=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.6])
    def test_marginal_uniformity(self, rho):
        cfg = CopulaConfig(3, Toeplitz(rho))
        u = copula_uniforms(cfg, np.random.default_rng(9), size=40_000)
        for j in range(3):
            stat = scipy.stats.kstest(u[:, j], "uniform")
            assert stat.pvalue > 0.01, (rho, j, stat.pvalue)

    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.6])
    def test_adjacent_latent_correlation(self, rho):
        cfg = CopulaConfig(3, Toeplitz(rho))
        u = copula_uniforms(cfg, np.random.default_rng(13), size=60_000)
        y = ndtri(u)
        for j in range(2):
            got = np.corrcoef(y[:, j], y[:, j + 1])[0, 1]
            assert got == pytest.approx(rho, abs=0.02)


def _alone(cfg, rows, horizon, seed):
    """One trial's (n, totals) blocks: ``CountBlocks`` over one generator, read to the horizon."""
    blocks = CountBlocks(cfg, rows, horizon=horizon, rngs=[np.random.default_rng(seed)])
    drawn = []
    while len((block := blocks.take([0]))[0]):
        n, (totals,) = block
        drawn.append((n, totals))
    return drawn


def _observations(cfg, rows, horizon, seed):
    """Per-step (steps, rows, J) counts: diffs of the drawn totals."""
    totals = np.concatenate([t for _, t in _alone(cfg, rows, horizon, seed)])
    return np.diff(totals, axis=0, prepend=0)


# a (target, other) report pair per stream: its two Poisson rates on two latent rows
PAIR_ROWS = [[Poisson(0.6), Poisson(2.0)], [Poisson(9.6), Poisson(5.0)]]


class TestStreamSources:
    """One trial's count streams, drawn by ``CountBlocks`` from one generator."""

    def _obs(self, seed=3, horizon=500, rho=-0.6, specs=None):
        cfg = CopulaConfig(3, Toeplitz(rho))
        if specs is None:
            specs = [Bernoulli(0.05), Bernoulli(0.15), Bernoulli(0.05)]
        return _observations(cfg, [specs], horizon, seed)[:, 0]

    def test_block_size_independence(self):
        # horizons 200 and 500 block the steps differently (64+64+72 vs
        # 64+64+128+244); both match one draw of every step at once
        cfg = CopulaConfig(3, Toeplitz(-0.6))
        z = np.random.default_rng(3).standard_normal((500, 1, 3))
        u = ndtr(z.reshape(500, 3) @ cholesky(correlation_matrix(cfg)).T)
        want = (u <= np.array([0.05, 0.15, 0.05])).astype(np.int64)
        np.testing.assert_array_equal(self._obs(horizon=500), want)
        np.testing.assert_array_equal(self._obs(horizon=200), want[:200])

    def test_report_pair_rows_match_uniform_inversion(self):
        # amnesia counts from each step's first latent row, other reports
        # from its second
        cfg = CopulaConfig(2, Toeplitz(0.3))
        z = np.random.default_rng(8).standard_normal((300, 2, 2))
        y = (z.reshape(600, 2) @ cholesky(correlation_matrix(cfg)).T).reshape(300, 2, 2)
        want = np.stack([np.stack([_uniform_rule(spec, y[:, r, k]) for k, spec in enumerate(row)],
                                  axis=1) for r, row in enumerate(PAIR_ROWS)], axis=1)
        np.testing.assert_array_equal(_observations(cfg, PAIR_ROWS, 300, 8), want)

    def test_replicate_rows_follow_the_draw_order(self):
        # row i * len(rows) + r of a step is replicate i's latent row r,
        # in the order the generator draws them
        cfg = CopulaConfig(2, Toeplitz(0.3))
        z = np.random.default_rng(8).standard_normal((160 * 3 * 2, 2))
        y = (z @ cholesky(correlation_matrix(cfg)).T).reshape(160, 3, 2, 2)
        want = np.stack([np.stack([_uniform_rule(spec, y[:, :, r, k]) for k, spec in enumerate(row)],
                                  axis=-1) for r, row in enumerate(PAIR_ROWS)], axis=2)
        blocks = CountBlocks(cfg, PAIR_ROWS, horizon=160, rngs=[np.random.default_rng(8)],
                             replicates=3)
        drawn = [blocks.take([0]) for _ in range(3)]  # 64, 64 and 32 steps
        assert [len(n) for n, _ in drawn] == [64, 64, 32]
        np.testing.assert_array_equal(np.concatenate([n for n, _ in drawn]), np.arange(1, 161))
        totals = np.concatenate([t[0] for _, t in drawn])
        assert totals.shape == (160, 6, 2)
        np.testing.assert_array_equal(np.diff(totals, axis=0, prepend=0),
                                      want.reshape(160, 6, 2))

    def test_rows_must_carry_one_marginal_per_stream(self):
        cfg = CopulaConfig(2, Toeplitz(0.0))
        for rows in ([], [[Bernoulli(0.1)]], [[Bernoulli(0.1)] * 2, [Poisson(1.0)]]):
            with pytest.raises(ValueError):
                CountBlocks(cfg, rows, horizon=10, rngs=[np.random.default_rng(1)])
        with pytest.raises(ValueError):
            CountBlocks(cfg, [[Bernoulli(0.1)] * 2], horizon=0, rngs=[np.random.default_rng(1)])

    def test_deterministic_under_seed(self):
        np.testing.assert_array_equal(self._obs(seed=77, horizon=50),
                                      self._obs(seed=77, horizon=50))

    def test_horizon_exhaustion(self):
        cfg = CopulaConfig(3, Toeplitz(-0.6))
        specs = [Bernoulli(0.05)] * 3
        for horizon, sizes in ((20, [20]), (200, [64, 64, 72]), (256, [64, 64, 128])):
            blocks = _alone(cfg, [specs], horizon, 3)
            assert [len(t) for _, t in blocks] == sizes

    def test_totals_are_cumulative(self):
        cfg = CopulaConfig(3, Toeplitz(-0.6))
        specs = [Poisson(1.5)] * 3
        n, totals = map(np.concatenate, zip(*_alone(cfg, [specs], 300, 3)))
        assert np.all(np.diff(totals, axis=0) >= 0)
        np.testing.assert_array_equal(n, np.arange(1, 301))

    def test_report_pair_rows(self):
        cfg = CopulaConfig(2, Toeplitz(0.3))
        counts = _observations(cfg, PAIR_ROWS, 3000, 8)
        obs = np.stack([counts[:, 0, 0], counts[:, 0, 0] + counts[:, 1, 0]], axis=1)
        assert obs.shape == (3000, 2)
        assert np.all(obs[:, 0] <= obs[:, 1])
        assert obs[:, 0].mean() == pytest.approx(0.6, abs=0.06)
        assert obs[:, 1].mean() == pytest.approx(10.2, abs=0.25)

    def test_negative_dependence_in_counts(self):
        obs = self._obs(seed=19, horizon=60_000, rho=-0.6).astype(float)
        x0 = obs[:, 0]
        x1 = obs[:, 1]
        r = np.corrcoef(x0, x1)[0, 1]
        se = np.sqrt((1 - r * r) / len(x0))
        assert r < -3 * se

    def test_poisson_marginal_gof(self):
        cfg = CopulaConfig(2, Toeplitz(-0.6))
        counts = _observations(cfg, [[Poisson(1.5), Poisson(2.0)]], 40_000, 4)[:, 0]
        for x, lam in zip(counts.T, (1.5, 2.0)):
            kmax = 9
            obs = np.bincount(np.minimum(x, kmax), minlength=kmax + 1)
            probs = scipy.stats.poisson.pmf(np.arange(kmax), lam)
            probs = np.append(probs, 1.0 - probs.sum())
            res = scipy.stats.chisquare(obs, probs * len(x))
            assert res.pvalue > 0.01, (lam, res.pvalue)


class TestCountBatch:
    """``CountBlocks``: each trial's blocks are those it draws in a batch of one."""

    # ``specs`` holds the marginals of each latent row of a step
    CASES = [
        (10, [[Bernoulli(0.05)] * 5 + [Bernoulli(0.15)] * 5], 300),
        (10, [[Poisson(1.5)] * 5 + [Poisson(2.0)] * 5], 300),
        # single-step blocks and J >= 32: sizes where BLAS picks other kernels
        (40, [[Poisson(1.5)] * 40], 1),
        (40, [[Bernoulli(0.1)] * 40], 150),
        (3, [[Poisson(0.6), Poisson(2.0), Poisson(1.0)],
             [Poisson(9.6), Poisson(5.0), Poisson(1.0)]], 200),
        # scattered columns of one marginal: one group per run of columns
        (4, [[Bernoulli(0.05), Bernoulli(0.15)] * 2], 100),
    ]

    @staticmethod
    def _check(j, specs, horizon):
        cfg = CopulaConfig(j, Toeplitz(-0.3))
        seeds = range(9)
        blocks = CountBlocks(cfg, specs, horizon=horizon,
                             rngs=[np.random.default_rng(s) for s in seeds])
        got = [[] for _ in seeds]
        # the batch reads in lockstep while trials leave it, listed in any order
        for ids in (list(seeds), [8, 0, 3, 1, 2, 4, 5, 6, 7], [1, 2, 4, 0, 8, 3], [0, 8, 3],
                    [3, 0, 8], [8, 0], [0, 8]):
            n, totals = blocks.take(np.array(ids))
            assert totals.shape[:2] == (len(ids), len(n))
            for i, t in zip(ids, totals):
                if len(n):
                    got[i].append((n, t))
        for i in seeds:
            alone = _alone(cfg, specs, horizon, i)
            assert 0 < len(got[i]) <= len(alone)
            assert sum(len(t) for _, t in alone) == horizon
            for (n, t), (n1, t1) in zip(got[i], alone):
                np.testing.assert_array_equal(t, t1)
                np.testing.assert_array_equal(n, n1)
                assert t.dtype == t1.dtype == np.int64 and t.shape == t1.shape
        # the trials listed throughout read to the horizon, the others stop
        # where they left
        assert all(len(got[i]) == len(_alone(cfg, specs, horizon, 0)) for i in (0, 8))
        assert len(got[3]) == min(5, len(got[0])) and len(got[5]) == min(2, len(got[0]))

    @pytest.mark.parametrize("j, specs, horizon", CASES)
    def test_totals_match_each_trial_alone(self, j, specs, horizon):
        self._check(j, specs, horizon)

    @pytest.mark.parametrize("j, specs, horizon", CASES)
    def test_latent_values_match_each_trial_alone(self, j, specs, horizon, monkeypatch):
        # counts that read the last bit of each latent value: equal totals
        # mean the batch's copula products equal each trial's to the last bit
        monkeypatch.setattr(datagen, "_latent_counts",
                            lambda spec, y, out: np.bitwise_and(
                                np.ascontiguousarray(y).view(np.int64), 1, out=out))
        self._check(j, specs, horizon)

    def test_block_cap_crosses_the_inversion_choice(self, monkeypatch):
        # 200 replicates of 5 streams per marginal: one-step blocks hold
        # 1000 cells of a group, under _COMPARE_CELLS (binary search), and
        # the default blocks of 64, 64 and 32 steps hold 32000 and more
        # (comparisons)
        cfg = CopulaConfig(10, Toeplitz(-0.6))
        rows = [[Poisson(1.5)] * 5 + [Poisson(2.0)] * 5]

        def totals():
            blocks = CountBlocks(cfg, rows, horizon=160, rngs=[np.random.default_rng(5)],
                                 replicates=200)
            drawn = []
            while len((block := blocks.take([0]))[0]):
                drawn.append(block[1][0])
            return len(drawn), np.concatenate(drawn)

        blocks, default = totals()
        assert blocks == 3 and 32 * 1000 >= datagen._COMPARE_CELLS
        monkeypatch.setattr(datagen, "_BLOCK_CELLS", 2000)
        blocks, small = totals()
        assert blocks == 160 and 1000 < datagen._COMPARE_CELLS
        np.testing.assert_array_equal(small, default)

    def test_exhausted_trial_reads_zero_steps(self):
        # past the horizon, every listed trial gets zero steps
        blocks = CountBlocks(CopulaConfig(2, Toeplitz(0.0)), [[Bernoulli(0.5)] * 2], horizon=5,
                             rngs=[np.random.default_rng(1), np.random.default_rng(2)])
        n, totals = blocks.take(np.array([0, 1]))
        assert n.tolist() == [1, 2, 3, 4, 5] and totals.shape == (2, 5, 1, 2)
        n, totals = blocks.take(np.array([1, 0]))
        assert n.shape == (0,) and totals.shape == (2, 0, 1, 2) and totals.dtype == np.int64

    def test_a_trial_left_out_reads_no_further(self):
        blocks = CountBlocks(CopulaConfig(2, Toeplitz(0.0)), [[Bernoulli(0.5)] * 2], horizon=500,
                             rngs=[np.random.default_rng(s) for s in range(3)])
        blocks.take(np.array([0, 1, 2]))
        blocks.take(np.array([2, 0]))
        with pytest.raises(ValueError, match="trial 1 was left out"):
            blocks.take(np.array([0, 1, 2]))
