"""Tests for copula-driven correlated count streams."""

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr, ndtri

from seqfdr.datagen import (
    Bernoulli,
    BlockClusters,
    CopulaConfig,
    Poisson,
    ReportPair,
    Toeplitz,
    _PoissonCdfTable,
    cholesky,
    copula_uniforms,
    correlation_matrix,
    invert_marginal,
    cumulative_counts,
)
from seqfdr.errors import FactorizationError


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
        table = _PoissonCdfTable(lam)
        mine = table.invert(us)
        oracle = scipy.stats.poisson.ppf(us, lam).astype(int)
        np.testing.assert_array_equal(mine, oracle)

    def test_cdf_table_matches_scipy(self):
        table = _PoissonCdfTable(2.0)
        ks = np.arange(table.cdf.size)
        np.testing.assert_allclose(table.cdf, scipy.stats.poisson.cdf(ks, 2.0), atol=1e-12)

    def test_mean_of_inversions(self):
        rng = np.random.default_rng(5)
        us = rng.random(100_000)
        vals = _PoissonCdfTable(2.0).invert(us)
        assert vals.mean() == pytest.approx(2.0, abs=0.02)


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


def _observations(cfg, specs, horizon, truth=None, rng=None):
    """Per-step (x, w) observations of every stream: diffs of the drawn totals."""
    blocks = list(cumulative_counts(cfg, specs, truth, horizon=horizon, rng=rng))
    x = np.concatenate([bx for bx, _ in blocks])
    w = np.concatenate([np.broadcast_to(bw, bx.shape) for bx, bw in blocks])
    return np.diff(x, axis=0, prepend=0), np.diff(w, axis=0, prepend=0)


class TestStreamSources:
    """The per-trial count streams drawn by ``cumulative_counts``."""

    def _obs(self, seed=3, horizon=500, rho=-0.6, specs=None):
        cfg = CopulaConfig(3, Toeplitz(rho), seed=seed)
        if specs is None:
            specs = [Bernoulli(0.05), Bernoulli(0.15), Bernoulli(0.05)]
        return _observations(cfg, specs, horizon)[0]

    def test_block_size_independence(self):
        # horizons 200 and 500 block the steps differently (64+64+72 vs
        # 64+64+128+244); both match one draw of every step at once
        cfg = CopulaConfig(3, Toeplitz(-0.6))
        z = np.random.default_rng(3).standard_normal((500, 1, 3))
        u = ndtr(z.reshape(500, 3) @ cholesky(correlation_matrix(cfg)).T)
        want = (u <= np.array([0.05, 0.15, 0.05])).astype(np.int64)
        np.testing.assert_array_equal(self._obs(horizon=500), want)
        np.testing.assert_array_equal(self._obs(horizon=200), want[:200])

    def test_deterministic_under_seed(self):
        np.testing.assert_array_equal(self._obs(seed=77, horizon=50),
                                      self._obs(seed=77, horizon=50))

    def test_horizon_exhaustion(self):
        cfg = CopulaConfig(3, Toeplitz(-0.6), seed=3)
        specs = [Bernoulli(0.05)] * 3
        for horizon, sizes in ((20, [20]), (200, [64, 64, 72]), (256, [64, 64, 128])):
            blocks = cumulative_counts(cfg, specs, horizon=horizon)
            assert [len(x) for x, _ in blocks] == sizes

    def test_totals_are_cumulative(self):
        cfg = CopulaConfig(3, Toeplitz(-0.6), seed=3)
        specs = [Poisson(1.5)] * 3
        x, w = map(np.concatenate, zip(*cumulative_counts(cfg, specs, horizon=300)))
        assert np.all(np.diff(x, axis=0) >= 0)
        np.testing.assert_array_equal(w[:, 0], np.arange(1, 301))

    def test_truth_selects_marginal(self):
        cfg = CopulaConfig(2, Toeplitz(0.0), seed=21)
        pairs = [(Bernoulli(0.05), Bernoulli(0.6))] * 2
        obs = _observations(cfg, pairs, 4000, truth=[True, False])[0]
        null_mean = obs[:, 0].mean()
        alt_mean = obs[:, 1].mean()
        assert null_mean == pytest.approx(0.05, abs=0.02)
        assert alt_mean == pytest.approx(0.6, abs=0.03)

    def test_report_pair_rows(self):
        cfg = CopulaConfig(2, Toeplitz(0.3), seed=8)
        specs = [ReportPair(0.6, 9.6), ReportPair(2.0, 5.0)]
        amn, total = _observations(cfg, specs, 3000)
        obs = np.stack([amn[:, 0], total[:, 0]], axis=1)
        assert obs.shape == (3000, 2)
        assert np.all(obs[:, 0] <= obs[:, 1])
        assert obs[:, 0].mean() == pytest.approx(0.6, abs=0.06)
        assert obs[:, 1].mean() == pytest.approx(10.2, abs=0.25)

    def test_mixing_kinds_rejected(self):
        cfg = CopulaConfig(2, Toeplitz(0.0), seed=1)
        with pytest.raises(ValueError):
            cumulative_counts(cfg, [Bernoulli(0.1), ReportPair(1.0, 2.0)], horizon=10)

    def test_negative_dependence_in_counts(self):
        obs = self._obs(seed=19, horizon=60_000, rho=-0.6).astype(float)
        x0 = obs[:, 0]
        x1 = obs[:, 1]
        r = np.corrcoef(x0, x1)[0, 1]
        se = np.sqrt((1 - r * r) / len(x0))
        assert r < -3 * se

    def test_poisson_marginal_gof(self):
        cfg = CopulaConfig(2, Toeplitz(-0.6), seed=4)
        counts = _observations(cfg, [Poisson(1.5), Poisson(2.0)], 40_000)[0]
        for x, lam in zip(counts.T, (1.5, 2.0)):
            kmax = 9
            obs = np.bincount(np.minimum(x, kmax), minlength=kmax + 1)
            probs = scipy.stats.poisson.pmf(np.arange(kmax), lam)
            probs = np.append(probs, 1.0 - probs.sum())
            res = scipy.stats.chisquare(obs, probs * len(x))
            assert res.pvalue > 0.01, (lam, res.pvalue)
