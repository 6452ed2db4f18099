"""Correlated count-stream generation through a Gaussian copula.

Each time step draws one latent normal vector per row, correlates it with
the Cholesky factor of the target correlation matrix, and turns each
coordinate into a count of its stream's marginal by comparing it with the
latent cuts of the marginal's CDF (``_latent_counts``): the counts of
inverting the uniform Phi(y), without evaluating Phi.  Marginals are exact;
only the dependence is shaped by the latent correlation.  ``CountBlocks``
is the one way counts are drawn, for the trial engine, the monitoring demo
and the fixed-sample search alike: its ``take(ids)`` hands out the next
block of cumulative integer totals, one row per step, of each listed
trial, every trial drawing from its own generator.  A lone trial is a batch
of one; each caller maps the raw totals to its own statistic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .errors import FactorizationError

__all__ = [
    "Toeplitz",
    "BlockClusters",
    "CopulaConfig",
    "Bernoulli",
    "Poisson",
    "correlation_matrix",
    "cholesky",
    "CountBlocks",
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


def correlation_matrix(config: CopulaConfig) -> np.ndarray:
    """Dense latent correlation matrix for the configured structure."""
    j = config.j
    s = config.structure
    # a Toeplitz structure is one cluster of every stream
    labels = np.zeros(j, np.intp) if isinstance(s, Toeplitz) else np.asarray(s.cluster_of)
    rhos = [s.rho] if isinstance(s, Toeplitz) else s.rho_of_cluster
    rho = np.asarray(rhos, dtype=float)[labels]
    idx = np.arange(j)
    # original stream indices set the decay distance, so each cluster's
    # block is a principal submatrix of a full Toeplitz matrix (hence PD)
    dist = np.abs(np.subtract.outer(idx, idx)).astype(float)
    same = labels[:, None] == labels[None, :]
    return np.power(rho[:, None], dist, out=np.zeros((j, j)), where=same)


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


def _latent_counts(spec: Bernoulli | Poisson, y):
    """Counts of ``spec`` at latent normal values ``y``: its inverse CDF at Phi(y).

    Each value is compared with the latent cuts of the marginal's CDF
    levels (``_latent_cuts``), which gives the counts of inverting Phi(y),
    up to ndtr's rounding, without evaluating ndtr.
    """
    if isinstance(spec, Bernoulli):
        return (y <= _bernoulli_cut(spec.p)).astype(np.int64)
    if isinstance(spec, Poisson):
        return np.searchsorted(_poisson_table(spec.lam).cuts, y, side="left")
    raise ValueError(f"unknown marginal spec {spec!r}")


def _latent_cuts(levels: np.ndarray) -> np.ndarray:
    """Latent cut of each level in [0, 1): ndtr(cut) <= level < ndtr(next double).

    ``y <= cut`` then agrees with ``ndtr(y) <= level`` except where ndtr(y)
    is within rounding of the level (ndtr wiggles by an ulp); ``ndtri``
    alone can land several doubles below that edge.  Float bisection on
    [-40, 40], where ndtr is 0 and 1, down to adjacent doubles.
    """
    lo = np.full(levels.shape, -40.0)
    hi = np.full(levels.shape, 40.0)
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not np.any((lo < mid) & (mid < hi)):
            return lo
        below = ndtr(mid) <= levels
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)


@functools.lru_cache(maxsize=None)
def _bernoulli_cut(p: float) -> float:
    return float(_latent_cuts(np.array([p]))[0])


class _PoissonCdfTable:
    """Forward-recursion Poisson CDF and the latent cuts of its levels."""

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
        # a count exceeds n when its latent value exceeds cuts[n]
        self.cuts = _latent_cuts(self.cdf[:-1])


# one table per rate, built on first use
_poisson_table = functools.lru_cache(maxsize=None)(_PoissonCdfTable)


# steps in a trial's first block of counts; each later block doubles the total
FIRST_ROWS = 64

# latent cells (steps x rows x streams) in one block of draws, at most
_BLOCK_CELLS = 4_000_000


class CountBlocks:
    """Cumulative counts of several trials, each drawn from its own generator.

    ``rows`` holds one list of J marginals (``Bernoulli``/``Poisson``) per
    latent row of a step, and every step of a trial draws ``replicates``
    times that many rows of J latent normals, right after the trial's
    previous step in its generator (one position of ``rngs`` per trial).
    A trial's first block has ``first`` steps, each later one as many as
    all before it, within _BLOCK_CELLS cells, until ``horizon``; its counts
    depend neither on that blocking nor on the other trials.
    """

    def __init__(self, config: CopulaConfig, rows: Sequence[Sequence], *, horizon: int,
                 rngs: Sequence[np.random.Generator], first: int = FIRST_ROWS,
                 replicates: int = 1):
        j = config.j
        if not rows or any(len(row) != j for row in rows):
            raise ValueError(f"expected rows of {j} marginals")
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.factor = cholesky(correlation_matrix(config))
        cells: dict = {}
        for r, row in enumerate(rows):
            for jj, spec in enumerate(row):
                cells.setdefault((spec, r), []).append(jj)
        # adjacent columns as a slice, which indexes a view instead of a copy
        self.groups = [(spec, r, slice(cols[0], cols[-1] + 1)
                        if cols[-1] - cols[0] == len(cols) - 1 else np.array(cols))
                       for (spec, r), cols in cells.items()]
        self.step_shape = (replicates, len(rows), j)
        self.horizon, self.rngs, self.first = horizon, list(rngs), first
        self.cap = max(1, _BLOCK_CELLS // math.prod(self.step_shape))
        self.done = np.zeros(len(self.rngs), np.int64)
        self.running = np.zeros((len(self.rngs), replicates * len(rows), j), np.int64)

    def take(self, ids):
        """Next block of each listed trial: ``(n, steps, totals)``.

        ``totals`` (steps summed, replicates x rows, J) stacks the blocks
        in the order of ``ids``, ``steps[k]`` of them for the k-th listed
        trial (0 once it has reached the horizon); row ``i * len(rows) + r``
        of a step holds replicate i's totals of latent row r.  ``n`` is each
        block row's step number, counted from 1 in its trial.
        """
        ids = np.asarray(ids, dtype=np.intp)
        done = self.done[ids]
        steps = np.minimum(np.minimum(np.maximum(done, self.first), self.cap),
                           self.horizon - done)
        ends = np.cumsum(steps)
        rows, j = self.running.shape[1:]
        z = np.empty((int(ends[-1]) * rows if ids.size else 0, j))
        y = np.empty_like(z)
        lo = 0
        for i, hi in zip(ids.tolist(), (ends * rows).tolist()):
            if hi > lo:
                self.rngs[i].standard_normal(out=z[lo:hi])
                # one product per trial: a stacked product of several trials
                # may round differently (BLAS picks its kernel by size)
                np.matmul(z[lo:hi], self.factor.T, out=y[lo:hi])
            lo = hi
        totals = np.empty((len(y) // rows, rows, j), np.int64)
        y_cells = y.reshape(-1, *self.step_shape)
        t_cells = totals.reshape(y_cells.shape)
        for spec, r, cols in self.groups:
            t_cells[:, :, r, cols] = _latent_counts(spec, y_cells[:, :, r, cols])
        np.cumsum(totals, axis=0, out=totals)
        # restart each trial's block from its own running totals
        drawn = steps > 0
        starts = (ends - steps)[drawn]
        shift = self.running[ids[drawn]]
        shift[starts > 0] -= totals[starts[starts > 0] - 1]
        for lo, hi, add in zip(starts.tolist(), ends[drawn].tolist(), shift):
            totals[lo:hi] += add
        self.running[ids[drawn]] = totals[ends[drawn] - 1]
        self.done[ids] += steps
        n = np.repeat(done - (ends - steps), steps) + np.arange(1, len(totals) + 1)
        return n, steps, totals
