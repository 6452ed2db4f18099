"""Correlated count-stream generation through a Gaussian copula.

Each time step draws one latent normal vector per row, correlates it with
the Cholesky factor of the target correlation matrix, and turns each
coordinate into a count of its stream's marginal by comparing it with the
latent cuts of the marginal's CDF (``_latent_counts``): the counts of
inverting the uniform Phi(y), without evaluating Phi.  Marginals are exact;
only the dependence is shaped by the latent correlation.  ``CountBlocks``
is the one way counts are drawn, for the trial engine, the monitoring demo
and the fixed-sample search alike.  Its trials, each drawing from its own
generator, read in lockstep: ``take(ids)`` hands out the listed trials'
next block of steps as cumulative integer totals, one row per step.  A
lone trial is a batch of one, and the replicates of one draw are repeated
latent rows of a step; each caller maps the raw totals to its own
statistic.  A block holds at most ``_BLOCK_CELLS`` (2^18) latent cells of
a trial, 2 MB per float array, so the draw, the counts and the caller's
pass over a block work on arrays of cache size rather than tens of MB.
"""

from __future__ import annotations

import functools
import itertools
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


# Poisson mass past the bulk cuts that comparisons count (the rest is searched)
_TAIL_MASS = 1e-3
# a Poisson group is counted by comparisons from this many cells, with at
# most this many bulk cuts: below, the calls cost more than a binary search
# (about 20 ns a cell from 4096 cells up, against 5-10 ns a cell comparing
# 5-20 cuts, on a 2-vCPU Xeon)
_COMPARE_CELLS = 4096
_COMPARE_CUTS = 16


def _latent_counts(spec: Bernoulli | Poisson, y, out):
    """Counts of ``spec`` at latent normal values ``y``, written into ``out`` and returned.

    Each value is compared with the latent cuts of the marginal's CDF
    levels (``_latent_cuts``), which gives its inverse CDF at Phi(y), up
    to ndtr's rounding, without evaluating ndtr.  A Poisson count is the
    number of cuts below y.  Over a large block with few bulk cuts it is
    counted by comparing the block with each bulk cut, and only the rare
    values past them are searched (inversion by sequential search,
    Devroye 1986, III.2); elsewhere one binary search does it, since a
    comparison pass costs a call per cut.
    """
    if isinstance(spec, Bernoulli):
        return np.less_equal(y, _bernoulli_cut(spec.p), out=out)
    if not isinstance(spec, Poisson):
        raise ValueError(f"unknown marginal spec {spec!r}")
    table = _poisson_table(spec.lam)
    if y.size < _COMPARE_CELLS or table.bulk > _COMPARE_CUTS:
        out[...] = np.searchsorted(table.cuts, y, side="left")
        return out
    bulk = table.cuts[:table.bulk]
    y = np.ascontiguousarray(y)
    # counts up to bulk.size fit in int8; past[i] marks y beyond the last bulk cut
    past = np.greater(y, bulk[0])
    below = past.astype(np.int8)
    for cut in bulk[1:]:
        np.greater(y, cut, out=past)
        below += past.view(np.int8)
    out[...] = below
    tail = np.flatnonzero(past)  # an n-d nonzero takes 20 times as long
    out.flat[tail] = np.searchsorted(table.cuts, y.flat[tail], side="left")
    return out


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
    """Forward-recursion Poisson CDF and the latent cuts of its levels.

    The CDF is strictly increasing.  A latent value past its last cut
    counts to the table's last index, where the CDF reaches 1 - 1e-16 or,
    for a rate whose float sum stops short of that, where the sum stops
    growing (its plateau); about 1e-16 of the mass lies past either.
    """

    def __init__(self, lam: float):
        cap = int(lam + 60.0 * math.sqrt(lam + 1.0) + 120.0)
        pmf = np.empty(cap)
        pmf[0] = math.exp(-lam)
        for k in range(1, cap):
            pmf[k] = pmf[k - 1] * lam / k
        cdf = np.cumsum(pmf)
        # keep entries until the tail is below float resolution, or until the
        # sum stops growing short of that: drop from the first entry that
        # follows such a level or repeats the one before it (past a repeat
        # the pmf is too small to move the sum again)
        done = (cdf[:-1] >= 1.0 - 1e-16) | (cdf[1:] == cdf[:-1])
        stop = int(np.argmax(done)) + 1 if done.any() else cap
        self.cdf = cdf[:stop]
        # a count exceeds n when its latent value exceeds cuts[n]
        self.cuts = _latent_cuts(self.cdf[:-1])
        # the bulk: cuts below which all but _TAIL_MASS of the law lies
        self.bulk = int(np.argmax(self.cdf >= 1.0 - _TAIL_MASS)) + 1


# one table per rate, built on first use
_poisson_table = functools.lru_cache(maxsize=None)(_PoissonCdfTable)


# steps in a trial's first block of counts; each later block doubles the total
FIRST_ROWS = 64

# latent cells (steps x rows x streams) in one block of draws, at most
_BLOCK_CELLS = 2**18


class CountBlocks:
    """Cumulative counts of trials read in lockstep, each from its own generator.

    ``rows`` holds one list of J marginals (``Bernoulli``/``Poisson``) per
    latent row of a step, and every step of a trial draws that many rows
    of J latent normals, right after the trial's previous step in its
    generator (one position of ``rngs`` per trial); replicates of a row
    are repeated rows.  Every take is one block of steps for the whole
    batch: FIRST_ROWS steps first, each later block as many as all before
    it, within _BLOCK_CELLS cells of a trial (at least one step), until
    ``horizon``.  A trial's counts depend neither on that blocking nor on
    the other trials.  A block keeps its normals, latent values and totals
    live, three arrays of 8 bytes a cell: 6 MB a trial at the bound.
    Counts are written into the totals one group at a time, a group being
    a run of adjacent columns with one marginal in a run of adjacent equal
    latent rows, so replicate rows cost no more calls than one row.  A
    Poisson group is counted by comparisons with its bulk cuts when the
    group's block is large and that bulk short, by binary search otherwise
    (``_latent_counts``).
    """

    def __init__(self, config: CopulaConfig, rows: Sequence[Sequence], *, horizon: int,
                 rngs: Sequence[np.random.Generator]):
        j = config.j
        if not rows or any(len(row) != j for row in rows):
            raise ValueError(f"expected rows of {j} marginals")
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.factor = cholesky(correlation_matrix(config))
        # one group per run of adjacent columns with one marginal in a run of
        # adjacent equal rows: two slices, which index a view that the
        # counts are written into
        self.groups, top = [], 0
        for row, same in itertools.groupby(rows):
            lines = slice(top, top := top + len(list(same)))
            lo = 0
            for spec, run in itertools.groupby(row):
                self.groups.append((spec, lines, slice(lo, lo := lo + len(list(run)))))
        self.horizon, self.rngs = horizon, list(rngs)
        self.cap = max(1, _BLOCK_CELLS // (len(rows) * j))
        self.done = 0
        self.listed = np.ones(len(self.rngs), bool)
        self.running = np.zeros((len(self.rngs), len(rows), j), np.int64)

    def take(self, ids):
        """Next block of the listed trials: ``(n, totals)``.

        ``n`` holds the block's step numbers, counted from 1, and ``totals``
        (len(ids), steps, rows, J) each listed trial's totals in the order
        of ``ids``, one row per latent row.  Past the horizon the block
        has no steps.  A trial left out of a take reads no further: listing
        it again raises ValueError.
        """
        ids = np.asarray(ids, dtype=np.intp)
        back = ids[~self.listed[ids]]
        if back.size:
            raise ValueError(f"trial {back[0]} was left out of an earlier take")
        self.listed[:] = False
        self.listed[ids] = True
        steps = min(max(self.done, FIRST_ROWS), self.cap, self.horizon - self.done)
        n = np.arange(self.done + 1, self.done + steps + 1)
        rows, j = self.running.shape[1:]
        if not steps:
            return n, np.empty((ids.size, 0, rows, j), np.int64)
        z = np.empty((ids.size, steps * rows, j))
        y = np.empty_like(z)
        totals = np.empty((ids.size, steps, rows, j), np.int64)
        for k, i in enumerate(ids.tolist()):
            self.rngs[i].standard_normal(out=z[k])
            # one product per trial: a stacked product of several trials
            # may round differently (BLAS picks its kernel by size)
            np.matmul(z[k], self.factor.T, out=y[k])
        y_cells = y.reshape(-1, rows, j)
        t_cells = totals.reshape(y_cells.shape)
        for spec, r, cols in self.groups:
            _latent_counts(spec, y_cells[:, r, cols], t_cells[:, r, cols])
        np.cumsum(totals, axis=1, out=totals)
        totals += self.running[ids, None]
        self.running[ids] = totals[:, -1]
        self.done += steps
        return n, totals
