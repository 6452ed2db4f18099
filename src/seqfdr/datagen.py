"""Correlated count-stream generation through a Gaussian copula.

Each time step draws one latent normal vector per uniform row, correlates
it with the Cholesky factor of the target correlation matrix, maps it to
uniforms with the normal CDF, and inverts each coordinate through its
stream's marginal distribution, a whole array per call
(``invert_marginal``; the fixed-sample comparator inverts its bulk draws
the same way).  Marginals are exact; only the dependence is shaped by the
latent correlation.  A trial's streams come out as cumulative integer
count totals, one row per step, generated in blocks on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import FactorizationError

__all__ = [
    "Toeplitz",
    "BlockClusters",
    "CopulaConfig",
    "Bernoulli",
    "Poisson",
    "ReportPair",
    "correlation_matrix",
    "cholesky",
    "copula_uniforms",
    "invert_marginal",
    "cumulative_counts",
]


@dataclass(frozen=True)
class Toeplitz:
    """First-order autoregressive structure: corr(j, j') = rho**|j - j'|."""

    rho: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")


@dataclass(frozen=True)
class BlockClusters:
    """Toeplitz dependence within labeled clusters, independence across.

    ``cluster_of[j]`` is the 0-based cluster label of stream j;
    ``rho_of_cluster[c]`` the within-cluster decay parameter.
    """

    cluster_of: tuple[int, ...]
    rho_of_cluster: tuple[float, ...]

    def __post_init__(self):
        labels = tuple(int(c) for c in self.cluster_of)
        rhos = tuple(float(r) for r in self.rho_of_cluster)
        if not labels:
            raise ValueError("cluster_of must be nonempty")
        if min(labels) < 0 or max(labels) >= len(rhos):
            raise ValueError("cluster labels must index rho_of_cluster")
        for r in rhos:
            if not -1.0 < r < 1.0:
                raise ValueError(f"cluster rho must lie in (-1, 1), got {r}")
        object.__setattr__(self, "cluster_of", labels)
        object.__setattr__(self, "rho_of_cluster", rhos)


@dataclass(frozen=True)
class CopulaConfig:
    """Stream count, latent correlation structure, and generation seed."""

    j: int
    structure: Toeplitz | BlockClusters
    seed: int | None = None

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("j must be at least 1")
        if isinstance(self.structure, BlockClusters) and len(self.structure.cluster_of) != self.j:
            raise ValueError("cluster_of length must equal j")


@dataclass(frozen=True)
class Bernoulli:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")


@dataclass(frozen=True)
class Poisson:
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 700.0:
            raise ValueError(f"rate must lie in (0, 700) for table inversion, got {self.lam}")


@dataclass(frozen=True)
class ReportPair:
    """Two independent-rate Poisson coordinates consumed as one stream.

    Models per-period (target, other) report counts; inverted from two
    uniforms per time step.
    """

    lam_amnesia: float
    lam_other: float

    def __post_init__(self):
        for name, lam in (("lam_amnesia", self.lam_amnesia), ("lam_other", self.lam_other)):
            if not 0.0 < lam < 700.0:
                raise ValueError(f"{name} must lie in (0, 700), got {lam}")


MarginalSpec = Bernoulli | Poisson | ReportPair


def correlation_matrix(config: CopulaConfig) -> np.ndarray:
    """Dense latent correlation matrix for the configured structure."""
    j = config.j
    s = config.structure
    if isinstance(s, Toeplitz):
        powers = s.rho ** np.arange(j, dtype=float)
        idx = np.abs(np.subtract.outer(np.arange(j), np.arange(j)))
        return powers[idx]
    mat = np.eye(j)
    labels = np.asarray(s.cluster_of)
    for c, rho in enumerate(s.rho_of_cluster):
        members = np.nonzero(labels == c)[0]
        if members.size < 2:
            continue
        # original stream indices set the decay distance, so this is a
        # principal submatrix of a full Toeplitz matrix (hence PD)
        dist = np.abs(np.subtract.outer(members, members))
        mat[np.ix_(members, members)] = rho ** dist.astype(float)
    np.fill_diagonal(mat, 1.0)
    return mat


def cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T equal to ``mat``.

    Raises FactorizationError naming the first failing leading minor when
    the matrix is not positive definite.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise FactorizationError(
            f"matrix is not positive definite; leading minor of order "
            f"{_failing_minor(mat)} fails"
        ) from None


def _failing_minor(mat: np.ndarray) -> int:
    lo, hi = 1, mat.shape[0]  # smallest failing order; failures are monotone
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(mat[:mid, :mid])
            lo = mid + 1
        except np.linalg.LinAlgError:
            hi = mid
    return lo


def copula_uniforms(
    config: CopulaConfig,
    rng: np.random.Generator,
    size: int,
    factor: np.ndarray | None = None,
) -> np.ndarray:
    """Draw ``size`` correlated uniform vectors: U = Phi(L Z), Z standard normal.

    Returns shape (size, j).  ``factor`` may carry a precomputed Cholesky
    factor.
    """
    if factor is None:
        factor = cholesky(correlation_matrix(config))
    z = rng.standard_normal((int(size), config.j))
    return ndtr(z @ factor.T)


def invert_marginal(spec: MarginalSpec, u):
    """Right-continuous inverse of the marginal CDF, elementwise over ``u``.

    Bernoulli: 1 where u <= p, else 0.  Poisson: the smallest n with
    F(n) >= u.  ReportPair: ``u`` is a pair of uniform arrays and the
    result the (amnesia, other) pair of count arrays.  Uniforms must lie
    in [0, 1]; the normal CDF can round a large latent value to exactly 1.
    """
    if isinstance(spec, ReportPair):
        try:
            u1, u2 = u
        except (TypeError, ValueError):
            raise ValueError("ReportPair inversion needs a pair of uniform arrays")
        u = parts = (np.asarray(u1, dtype=float), np.asarray(u2, dtype=float))
    else:
        u = np.asarray(u, dtype=float)
        parts = (u,)
    for part in parts:
        # NaN fails both comparisons
        if part.size and not (part.min() >= 0.0 and part.max() <= 1.0):
            raise ValueError("uniforms must lie in [0, 1]")
    return _invert_marginal(spec, u)


def _invert_marginal(spec: MarginalSpec, u):
    """``invert_marginal`` without the range check, for uniforms from ``ndtr``.

    The engines call it once per group of streams and block of draws, where
    the check would cost about as much as the inversion itself.
    """
    if isinstance(spec, Bernoulli):
        return (u <= spec.p).astype(np.int64)
    if isinstance(spec, Poisson):
        return _poisson_table(spec.lam).invert(u)
    if isinstance(spec, ReportPair):
        return (_poisson_table(spec.lam_amnesia).invert(u[0]),
                _poisson_table(spec.lam_other).invert(u[1]))
    raise ValueError(f"unknown marginal spec {spec!r}")


class _PoissonCdfTable:
    """Forward-recursion Poisson CDF with searchsorted inversion."""

    def __init__(self, lam: float):
        cap = int(lam + 60.0 * math.sqrt(lam + 1.0) + 120.0)
        pmf = np.empty(cap)
        pmf[0] = math.exp(-lam)
        for k in range(1, cap):
            pmf[k] = pmf[k - 1] * lam / k
        cdf = np.cumsum(pmf)
        # keep entries until the tail is below float resolution
        stop = int(np.argmax(cdf >= 1.0 - 1e-16)) + 1 if cdf[-1] >= 1.0 - 1e-16 else cap
        self.cdf = cdf[:stop]

    def invert(self, u: np.ndarray) -> np.ndarray:
        # smallest n with cdf[n] >= u, capped at the table's last index
        return np.searchsorted(self.cdf[:-1], u, side="left")


_TABLE_CACHE: dict[float, _PoissonCdfTable] = {}


def _poisson_table(lam: float) -> _PoissonCdfTable:
    table = _TABLE_CACHE.get(lam)
    if table is None:
        table = _TABLE_CACHE[lam] = _PoissonCdfTable(lam)
    return table


# steps in a trial's first block of counts; each later block doubles the total
FIRST_ROWS = 64


def cumulative_counts(
    config: CopulaConfig,
    marginals: Sequence,
    truth: Sequence[bool] | None = None,
    *,
    horizon: int,
    rng: np.random.Generator | None = None,
    factor: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One trial's J streams as cumulative count totals, drawn on demand.

    ``marginals`` holds one MarginalSpec per stream, or (null, alt) pairs
    with ``truth[j]`` True selecting the null member.  The iterator yields
    ``(x, w)`` int64 blocks of consecutive steps: ``x[i, j]`` is stream j's
    success or event total through that step and ``w`` the matching trial
    total, the step index itself (one column for all streams) for scalar
    marginals and the cumulative report total for ReportPair streams.  The
    first block has ``FIRST_ROWS`` steps, each later one as many as all
    before it, and the blocks stop at ``horizon`` steps.  Every step draws
    its latent normals in the same order whatever the block, so the counts
    do not depend on how the steps are blocked.  ``factor`` may carry a
    precomputed Cholesky factor.
    """
    if truth is not None:
        if len(truth) != len(marginals):
            raise ValueError("truth must have one entry per stream")
        marginals = [pair[0] if is_null else pair[1] for pair, is_null in zip(marginals, truth)]
    marginals = list(marginals)
    if len(marginals) != config.j:
        raise ValueError(f"expected {config.j} marginals, got {len(marginals)}")
    pair_flags = {isinstance(m, ReportPair) for m in marginals}
    if len(pair_flags) > 1:
        raise ValueError("cannot mix ReportPair and scalar marginals in one trial")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if rng is None:
        if config.seed is None:
            raise ValueError("either rng or config.seed must be provided")
        rng = np.random.default_rng(config.seed)
    if factor is None:
        factor = cholesky(correlation_matrix(config))
    groups: dict = {}
    for jj, spec in enumerate(marginals):
        groups.setdefault(spec, []).append(jj)
    return _count_blocks(factor, [(spec, np.array(cols)) for spec, cols in groups.items()],
                         pair_flags == {True}, horizon, rng)


def _count_blocks(factor, groups, pair, horizon, rng):
    j = factor.shape[0]
    rows = 2 if pair else 1
    x_total = np.zeros(j, np.int64)
    w_total = np.zeros(j, np.int64)
    done = 0
    while done < horizon:
        count = min(max(done, FIRST_ROWS), horizon - done)
        z = rng.standard_normal((count, rows, j))
        u = ndtr(z.reshape(count * rows, j) @ factor.T).reshape(count, rows, j)
        x = np.empty((count, j), np.int64)
        w = np.empty((count, j), np.int64) if pair else None
        for spec, cols in groups:
            if pair:
                amnesia, other = _invert_marginal(spec, (u[:, 0, cols], u[:, 1, cols]))
                x[:, cols] = amnesia
                w[:, cols] = amnesia + other
            else:
                x[:, cols] = _invert_marginal(spec, u[:, 0, cols])
        np.cumsum(x, axis=0, out=x)
        x += x_total
        x_total = x[-1].copy()
        if pair:
            np.cumsum(w, axis=0, out=w)
            w += w_total
            w_total = w[-1].copy()
        else:
            w = np.arange(done + 1, done + count + 1, dtype=np.int64)[:, None]
        done += count
        yield x, w
