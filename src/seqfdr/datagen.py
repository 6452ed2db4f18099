"""Correlated count-stream generation through a Gaussian copula.

Each time step draws one latent normal vector per uniform row, correlates
it with the Cholesky factor of the target correlation matrix, maps it to
uniforms with the normal CDF, and inverts each coordinate through its
stream's marginal distribution.  Marginals are exact; only the dependence
is shaped by the latent correlation.  A trial's streams come out as
cumulative integer count totals, one row per step, generated in blocks
on demand.
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
    "dump_fixture",
    "load_fixture",
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
    size: int | None = None,
    factor: np.ndarray | None = None,
) -> np.ndarray:
    """Draw correlated uniform vectors: U = Phi(L Z) with Z standard normal.

    Returns shape (j,) when ``size`` is None, else (size, j).  ``factor``
    may carry a precomputed Cholesky factor.
    """
    if factor is None:
        factor = cholesky(correlation_matrix(config))
    n = 1 if size is None else int(size)
    z = rng.standard_normal((n, config.j))
    u = ndtr(z @ factor.T)
    return u[0] if size is None else u


def invert_marginal(spec: MarginalSpec, u):
    """Right-continuous inverse of the marginal CDF at ``u``.

    Bernoulli: 1 if u <= p else 0.  Poisson: smallest n with F(n) >= u.
    ReportPair: ``u`` must be a pair of uniforms; returns the
    (amnesia, other) count pair.
    """
    if isinstance(spec, ReportPair):
        try:
            u1, u2 = u
        except (TypeError, ValueError):
            raise ValueError("ReportPair inversion needs a pair of uniforms")
        amn = invert_marginal(Poisson(spec.lam_amnesia), u1)
        oth = invert_marginal(Poisson(spec.lam_other), u2)
        return amn, oth
    uf = float(u)
    if not 0.0 <= uf < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    if isinstance(spec, Bernoulli):
        return int(uf <= spec.p)
    if isinstance(spec, Poisson):
        return int(_poisson_table(spec.lam).invert(np.array([uf]))[0])
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
        idx = np.searchsorted(self.cdf, u, side="left")
        return np.minimum(idx, self.cdf.size - 1)


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
            if isinstance(spec, Bernoulli):
                x[:, cols] = u[:, 0, cols] <= spec.p
            elif isinstance(spec, Poisson):
                x[:, cols] = _poisson_table(spec.lam).invert(u[:, 0, cols])
            else:
                x[:, cols] = _poisson_table(spec.lam_amnesia).invert(u[:, 0, cols])
                w[:, cols] = x[:, cols] + _poisson_table(spec.lam_other).invert(u[:, 1, cols])
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


def dump_fixture(path, paths_by_trial: Sequence[Sequence[np.ndarray]]) -> None:
    """Write statistic paths as 'trial stream step value' lines.

    Trials and streams are 0-based, steps 1-based; values round-trip
    through float repr.
    """
    with open(path, "w") as fh:
        fh.write("# trial stream step value\n")
        for t, streams in enumerate(paths_by_trial):
            for j, path_j in enumerate(streams):
                for n, value in enumerate(path_j, start=1):
                    fh.write(f"{t} {j} {n} {float(value)!r}\n")


def load_fixture(path) -> list[list[np.ndarray]]:
    """Inverse of dump_fixture."""
    table: dict[tuple[int, int], list[tuple[int, float]]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            t_s, j_s, n_s, v_s = line.split()
            table.setdefault((int(t_s), int(j_s)), []).append((int(n_s), float(v_s)))
    if not table:
        return []
    trials = []
    for t in range(max(t for t, _ in table) + 1):
        streams = []
        for j in range(max(j for tt, j in table if tt == t) + 1):
            entries = sorted(table.get((t, j), []))
            streams.append(np.array([v for _, v in entries]))
        trials.append(streams)
    return trials
