"""Fixed-sample BH comparator and the sample-size search behind the N_FSS column.

The sequential procedures are benchmarked against the fixed-sample
Benjamini-Hochberg step-up rule: draw N observations per stream, form exact
one-sided p-values, reject with the BH step values rescaled for worst-case
FDR control (the same constants the sequential boundaries are built from).
``find_matching_fss`` binary-searches the smallest N whose estimated FNR
matches the sequential procedure's achieved FNR, which is how the
expected-sample-size savings are measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .core import StepVector, bh_steps, scale_for_fdr
from .datagen import CopulaConfig, cholesky, copula_uniforms, correlation_matrix, _poisson_table
from .errors import ConfigError
from .sprt import SimpleModel

__all__ = [
    "FssSearchResult",
    "exact_pvalue",
    "bh_stepup",
    "find_matching_fss",
]


@dataclass(frozen=True)
class FssSearchResult:
    """Outcome of the matching fixed-sample size search.

    ``found`` is False in two cases.  When no N up to the search ceiling
    pushed the estimated FNR down to the target, ``n_fss`` holds the
    ceiling and the achieved rates describe that boundary candidate.  Below
    the ceiling, ``n_fss`` is the size the bisection chose, and ``found``
    is False when the confirmation run's FNR exceeds the target by more
    than 1.5 of its standard errors (``fnr_se``).  ``reps`` is the
    per-candidate replicate count; the reported rates come from a
    confirmation run at four times that.
    """

    n_fss: int
    achieved_fnr: float
    achieved_fdr: float
    target_fnr: float
    reps: int
    found: bool
    fnr_se: float


def exact_pvalue(model: SimpleModel, n: int, total: int) -> float:
    """One-sided upper-tail p-value for an aggregated count of n draws.

    Bernoulli streams aggregate to Binomial(n, p), Poisson streams to
    Poisson(n * lambda); in both cases the p-value is the null probability
    of a total at least as large as observed.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if total < 0:
        raise ValueError(f"total count must be >= 0, got {total}")
    if model.family == "bernoulli":
        if total > n:
            raise ValueError(f"total {total} exceeds sample size {n}")
        return float(stats.binom.sf(total - 1, n, model.null_param))
    if model.family == "poisson":
        return float(stats.poisson.sf(total - 1, n * model.null_param))
    raise ConfigError("fixed-sample comparator supports bernoulli and poisson families")


def bh_stepup(pvalues, alpha: StepVector):
    """BH step-up rule: indices of the k* smallest p-values.

    k* = max{k : p_(k) <= alpha_k}, zero when no level is met.  The
    rejection set depends only on the values; a straddling tie at the
    cutoff is impossible because a tied p-value at position k*+1 would
    satisfy the larger alpha_{k*+1} and contradict maximality.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size != alpha.j:
        raise ValueError("pvalues must be a vector matching alpha in length")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    order = np.lexsort((np.arange(p.size), p))
    ok = p[order] <= alpha.values
    if not ok.any():
        return frozenset()
    kstar = p.size - int(np.argmax(ok[::-1]))
    return frozenset(int(i) for i in order[:kstar])


def _bh_counts(p: np.ndarray, alpha: np.ndarray, null_mask: np.ndarray):
    """Vectorized BH over rows of p: per-trial (V, R, W)."""
    j = p.shape[1]
    order = np.argsort(p, axis=1, kind="stable")
    sorted_p = np.take_along_axis(p, order, axis=1)
    ok = sorted_p <= alpha[None, :]
    rev = ok[:, ::-1]
    has = rev.any(axis=1)
    kstar = np.where(has, j - rev.argmax(axis=1), 0)
    ranks = np.argsort(order, axis=1, kind="stable")
    rejected = ranks < kstar[:, None]
    v = (rejected & null_mask[None, :]).sum(axis=1)
    w = (~rejected & ~null_mask[None, :]).sum(axis=1)
    return v, kstar, w


def _candidate_rates(
    model: SimpleModel,
    config: CopulaConfig,
    truth: np.ndarray,
    alpha: np.ndarray,
    n: int,
    reps: int,
    seed_seq: np.random.SeedSequence,
    factor: np.ndarray,
    chunk_cells: int = 4_000_000,
):
    """Simulate reps fixed-sample BH analyses at sample size n.

    Returns (mean FDP, mean FNP, per-trial FNP standard error).
    """
    j = config.j
    params = np.where(truth, model.null_param, model.alt_param)
    rng = np.random.default_rng(seed_seq)
    fdp_sum = 0.0
    fnp_sum = 0.0
    fnp_sq = 0.0
    done = 0
    trial_chunk = max(1, chunk_cells // (n * j))
    while done < reps:
        m = min(trial_chunk, reps - done)
        u = copula_uniforms(config, rng, size=m * n, factor=factor)
        if model.family == "bernoulli":
            counts = (u <= params[None, :]).astype(np.int64)
        else:
            counts = np.empty((m * n, j), dtype=np.int64)
            for stream in range(j):
                counts[:, stream] = _poisson_table(float(params[stream])).invert(u[:, stream])
        totals = counts.reshape(m, n, j).sum(axis=1)
        if model.family == "bernoulli":
            p = stats.binom.sf(totals - 1, n, model.null_param)
        else:
            p = stats.poisson.sf(totals - 1, n * model.null_param)
        v, r, w = _bh_counts(p, alpha, truth)
        fdp = v / np.maximum(r, 1)
        fnp = w / np.maximum(j - r, 1)
        fdp_sum += fdp.sum()
        fnp_sum += fnp.sum()
        fnp_sq += (fnp * fnp).sum()
        done += m
    fdr = fdp_sum / reps
    fnr = fnp_sum / reps
    var = max(fnp_sq / reps - fnr * fnr, 0.0)
    se = math.sqrt(var / reps)
    return fdr, fnr, se


def find_matching_fss(
    model: SimpleModel,
    config: CopulaConfig,
    truth,
    q1: float,
    target_fnr: float,
    reps: int,
    *,
    n_max: int = 4096,
) -> FssSearchResult:
    """Smallest fixed-sample size whose BH FNR matches a sequential target.

    The comparator runs BH at the dependence-robust step values, i.e. the
    q1-level BH shape rescaled so its worst-case FDR bound equals q1.
    These are the same constants the sequential procedure uses, so the
    two designs are matched at equal guaranteed error control rather than
    equal nominal level.

    Binary search over N with ``reps`` replicates per candidate, then a
    confirmation run at 4x reps at the chosen N.  Estimated FNR is
    nonincreasing in N up to Monte Carlo noise, which is what makes the
    bisection valid; the confirmation tolerance is 1.5 Monte Carlo
    standard errors.  The candidate replicate seeds derive from the copula
    config seed, so results are reproducible.
    """
    if not 0.0 < target_fnr <= 1.0:
        raise ConfigError(f"target_fnr must be in (0, 1], got {target_fnr}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    truth = np.asarray(truth, dtype=bool)
    if truth.shape != (config.j,):
        raise ValueError("truth must assign one flag per stream")
    if model.family not in ("bernoulli", "poisson"):
        raise ConfigError("fixed-sample comparator supports bernoulli and poisson families")
    # Equal-guarantee comparison: the scaled values control FDR at q1
    # under arbitrary dependence, like the sequential constants do.
    alpha = scale_for_fdr(bh_steps(q1, config.j), q1).values
    factor = cholesky(correlation_matrix(config))

    def estimate(n: int, scale: int):
        seq = np.random.SeedSequence(entropy=config.seed or 0, spawn_key=(n, scale))
        return _candidate_rates(
            model, config, truth, alpha, n, reps * scale, seq, factor
        )

    cache: dict[int, float] = {}

    def fnr_at(n: int) -> float:
        if n not in cache:
            cache[n] = estimate(n, 1)[1]
        return cache[n]

    if fnr_at(n_max) > target_fnr:
        fdr, fnr, se = estimate(n_max, 4)
        return FssSearchResult(
            n_fss=n_max, achieved_fnr=float(fnr), achieved_fdr=float(fdr),
            target_fnr=target_fnr, reps=reps, found=False, fnr_se=float(se),
        )
    lo, hi = 1, n_max
    while lo < hi:
        mid = (lo + hi) // 2
        if fnr_at(mid) <= target_fnr:
            hi = mid
        else:
            lo = mid + 1
    fdr, fnr, se = estimate(lo, 4)
    found = bool(fnr <= target_fnr + 1.5 * se)
    return FssSearchResult(
        n_fss=lo, achieved_fnr=float(fnr), achieved_fdr=float(fdr),
        target_fnr=target_fnr, reps=reps, found=found, fnr_se=float(se),
    )
