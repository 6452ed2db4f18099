"""Tests for copula-driven correlated count streams."""

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr, ndtri

from seqfdr import datagen
from seqfdr.datagen import (
    Bernoulli,
    BlockClusters,
    CopulaConfig,
    Poisson,
    ReportPair,
    Toeplitz,
    _PoissonCdfTable,
    _bernoulli_cut,
    _latent_counts,
    cholesky,
    correlation_matrix,
    count_batch,
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
        amn, oth = invert_marginal(ReportPair(0.6, 9.6), (np.array([0.5]), np.array([0.5])))
        assert amn[0] >= 0 and oth[0] >= 0

    def test_domain_errors(self):
        # the normal CDF can round up to exactly 1.0: the top of the range
        assert invert_marginal(Bernoulli(0.5), np.array([1.0]))[0] == 0
        top = _PoissonCdfTable(1.5).cdf.size - 1
        assert invert_marginal(Poisson(1.5), np.array([1.0]))[0] == top
        for bad in (1.0 + 1e-12, -0.1, np.nan):
            for spec in (Bernoulli(0.5), Poisson(1.5)):
                with pytest.raises(ValueError):
                    invert_marginal(spec, np.array([0.5, bad]))
        with pytest.raises(ValueError):
            invert_marginal(ReportPair(1.0, 2.0), 0.5)

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
    def test_equals_ndtr_then_inversion(self, spec):
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
        np.testing.assert_array_equal(_latent_counts(spec, y), _uniform_rule(spec, y))


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


def _alone(cfg, specs, horizon, seed):
    """One trial's (x, w) blocks: ``count_batch`` over one generator, read to the horizon."""
    take = count_batch(cfg, specs, horizon=horizon, rngs=[np.random.default_rng(seed)])
    blocks = []
    while True:
        x, w, steps = take([0])
        if not steps[0]:
            return blocks
        blocks.append((x, w))


def _observations(cfg, specs, horizon, seed):
    """Per-step (x, w) observations of every stream: diffs of the drawn totals."""
    blocks = _alone(cfg, specs, horizon, seed)
    x = np.concatenate([bx for bx, _ in blocks])
    w = np.concatenate([np.broadcast_to(bw, bx.shape) for bx, bw in blocks])
    return np.diff(x, axis=0, prepend=0), np.diff(w, axis=0, prepend=0)


class TestStreamSources:
    """One trial's count streams, drawn by ``count_batch`` from one generator."""

    def _obs(self, seed=3, horizon=500, rho=-0.6, specs=None):
        cfg = CopulaConfig(3, Toeplitz(rho))
        if specs is None:
            specs = [Bernoulli(0.05), Bernoulli(0.15), Bernoulli(0.05)]
        return _observations(cfg, specs, horizon, seed)[0]

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
        specs = [ReportPair(0.6, 9.6), ReportPair(2.0, 5.0)]
        z = np.random.default_rng(8).standard_normal((300, 2, 2))
        y = (z.reshape(600, 2) @ cholesky(correlation_matrix(cfg)).T).reshape(300, 2, 2)
        amn = np.stack([_uniform_rule(Poisson(s.lam_amnesia), y[:, 0, k])
                        for k, s in enumerate(specs)], axis=1)
        oth = np.stack([_uniform_rule(Poisson(s.lam_other), y[:, 1, k])
                        for k, s in enumerate(specs)], axis=1)
        got_amn, got_total = _observations(cfg, specs, 300, 8)
        np.testing.assert_array_equal(got_amn, amn)
        np.testing.assert_array_equal(got_total, amn + oth)

    def test_deterministic_under_seed(self):
        np.testing.assert_array_equal(self._obs(seed=77, horizon=50),
                                      self._obs(seed=77, horizon=50))

    def test_horizon_exhaustion(self):
        cfg = CopulaConfig(3, Toeplitz(-0.6))
        specs = [Bernoulli(0.05)] * 3
        for horizon, sizes in ((20, [20]), (200, [64, 64, 72]), (256, [64, 64, 128])):
            blocks = _alone(cfg, specs, horizon, 3)
            assert [len(x) for x, _ in blocks] == sizes

    def test_totals_are_cumulative(self):
        cfg = CopulaConfig(3, Toeplitz(-0.6))
        specs = [Poisson(1.5)] * 3
        x, w = map(np.concatenate, zip(*_alone(cfg, specs, 300, 3)))
        assert np.all(np.diff(x, axis=0) >= 0)
        np.testing.assert_array_equal(w[:, 0], np.arange(1, 301))

    def test_report_pair_rows(self):
        cfg = CopulaConfig(2, Toeplitz(0.3))
        specs = [ReportPair(0.6, 9.6), ReportPair(2.0, 5.0)]
        amn, total = _observations(cfg, specs, 3000, 8)
        obs = np.stack([amn[:, 0], total[:, 0]], axis=1)
        assert obs.shape == (3000, 2)
        assert np.all(obs[:, 0] <= obs[:, 1])
        assert obs[:, 0].mean() == pytest.approx(0.6, abs=0.06)
        assert obs[:, 1].mean() == pytest.approx(10.2, abs=0.25)

    def test_mixing_kinds_rejected(self):
        cfg = CopulaConfig(2, Toeplitz(0.0))
        with pytest.raises(ValueError):
            count_batch(cfg, [Bernoulli(0.1), ReportPair(1.0, 2.0)], horizon=10,
                        rngs=[np.random.default_rng(1)])

    def test_negative_dependence_in_counts(self):
        obs = self._obs(seed=19, horizon=60_000, rho=-0.6).astype(float)
        x0 = obs[:, 0]
        x1 = obs[:, 1]
        r = np.corrcoef(x0, x1)[0, 1]
        se = np.sqrt((1 - r * r) / len(x0))
        assert r < -3 * se

    def test_poisson_marginal_gof(self):
        cfg = CopulaConfig(2, Toeplitz(-0.6))
        counts = _observations(cfg, [Poisson(1.5), Poisson(2.0)], 40_000, 4)[0]
        for x, lam in zip(counts.T, (1.5, 2.0)):
            kmax = 9
            obs = np.bincount(np.minimum(x, kmax), minlength=kmax + 1)
            probs = scipy.stats.poisson.pmf(np.arange(kmax), lam)
            probs = np.append(probs, 1.0 - probs.sum())
            res = scipy.stats.chisquare(obs, probs * len(x))
            assert res.pvalue > 0.01, (lam, res.pvalue)


class TestCountBatch:
    """``count_batch``: each trial's blocks are those it draws in a batch of one."""

    CASES = [
        (10, [Bernoulli(0.05)] * 5 + [Bernoulli(0.15)] * 5, 300),
        (10, [Poisson(1.5)] * 5 + [Poisson(2.0)] * 5, 300),
        # single-step blocks and J >= 32: sizes where BLAS picks other kernels
        (40, [Poisson(1.5)] * 40, 1),
        (40, [Bernoulli(0.1)] * 40, 150),
        (3, [ReportPair(0.6, 9.6), ReportPair(2.0, 5.0), ReportPair(1.0, 1.0)], 200),
    ]

    @staticmethod
    def _check(j, specs, horizon):
        cfg = CopulaConfig(j, Toeplitz(-0.3))
        seeds = range(9)
        take = count_batch(cfg, specs, horizon=horizon,
                           rngs=[np.random.default_rng(s) for s in seeds])
        got = [[] for _ in seeds]
        # trials read at different paces, so one call mixes block sizes
        for ids in ([0, 1, 2, 3, 4, 5, 6, 7, 8], [8, 0, 3], [1, 2, 4, 5, 6, 7], [0, 8],
                    list(seeds), [3, 0], list(seeds), list(seeds)):
            x, w, steps = take(np.array(ids))
            assert len(x) == len(w) == steps.sum()
            for i, lo, n in zip(ids, np.cumsum(steps) - steps, steps):
                if n:
                    got[i].append((x[lo:lo + n], w[lo:lo + n]))
        for i in seeds:
            alone = _alone(cfg, specs, horizon, i)
            assert 0 < len(got[i]) <= len(alone)
            assert sum(len(x) for x, _ in alone) == horizon
            for (x, w), (x1, w1) in zip(got[i], alone):
                np.testing.assert_array_equal(x, x1)
                np.testing.assert_array_equal(w, w1)
                assert x.dtype == x1.dtype == np.int64 and w.shape == w1.shape
        # every trial reads past its first 64-step block where the horizon allows
        assert all(sum(len(x) for x, _ in got[i]) == min(horizon, 448) for i in (0, 3, 8))

    @pytest.mark.parametrize("j, specs, horizon", CASES)
    def test_totals_match_each_trial_alone(self, j, specs, horizon):
        self._check(j, specs, horizon)

    @pytest.mark.parametrize("j, specs, horizon", CASES)
    def test_latent_values_match_each_trial_alone(self, j, specs, horizon, monkeypatch):
        # counts that read the last bit of each latent value: equal totals
        # mean the batch's copula products equal each trial's to the last bit
        monkeypatch.setattr(datagen, "_latent_counts",
                            lambda spec, y: np.ascontiguousarray(y).view(np.int64) & 1)
        self._check(j, specs, horizon)

    def test_exhausted_trial_reads_zero_steps(self):
        take = count_batch(CopulaConfig(2, Toeplitz(0.0)), [Bernoulli(0.5)] * 2, horizon=5,
                           rngs=[np.random.default_rng(1), np.random.default_rng(2)])
        assert take(np.array([0, 1]))[2].tolist() == [5, 5]
        x, w, steps = take(np.array([1, 0]))
        assert steps.tolist() == [0, 0] and x.shape == (0, 2)
