"""Fixed-sample BH comparator and the sample-size search behind the N_FSS column.

The sequential procedures are benchmarked against the fixed-sample
Benjamini-Hochberg step-up rule: draw N observations per stream, form exact
one-sided p-values, reject with the BH step values rescaled for worst-case
FDR control (the same constants the sequential boundaries are built from).
``exact_pvalue`` and ``bh_stepup`` work on whole (trials, streams) arrays.
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
from .datagen import (
    Bernoulli,
    CopulaConfig,
    Poisson,
    cholesky,
    copula_uniforms,
    correlation_matrix,
    _invert_marginal,
)
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


def exact_pvalue(model: SimpleModel, n: int, totals) -> np.ndarray:
    """One-sided upper-tail p-values of count totals, each over n draws.

    Bernoulli streams aggregate to Binomial(n, p), Poisson streams to
    Poisson(n * lambda); in both cases the p-value is the null probability
    of a total at least as large as observed.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    totals = np.asarray(totals)
    if totals.size and totals.min() < 0:
        raise ValueError("count totals must be >= 0")
    if model.family == "bernoulli":
        if totals.size and totals.max() > n:
            raise ValueError(f"count totals exceed the sample size {n}")
        return stats.binom.sf(totals - 1, n, model.null_param)
    if model.family == "poisson":
        return stats.poisson.sf(totals - 1, n * model.null_param)
    raise ConfigError("fixed-sample comparator supports bernoulli and poisson families")


def bh_stepup(pvalues, alpha: StepVector) -> np.ndarray:
    """BH step-up rule on each row of a (T, J) p-value array: the rejection mask.

    A row rejects its k* smallest p-values, k* = max{k : p_(k) <= alpha_k},
    none when no level is met.  A tie straddling the cutoff is impossible,
    because a tied p-value at position k*+1 would satisfy the larger
    alpha_{k*+1} and contradict maximality; so a row rejects exactly its
    p-values at or below p_(k*), and the set depends only on the values.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 2 or p.shape[1] != alpha.j:
        raise ValueError("pvalues must be a (T, J) array with J matching alpha")
    # NaN fails both comparisons
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    sorted_p = np.sort(p, axis=1)
    cutoff = np.where(sorted_p <= alpha.values, sorted_p, -1.0).max(axis=1)
    return p <= cutoff[:, None]


def _candidate_rates(
    model: SimpleModel,
    config: CopulaConfig,
    truth: np.ndarray,
    runs: list,
    alpha: StepVector,
    n: int,
    reps: int,
    seed_seq: np.random.SeedSequence,
    factor: np.ndarray,
    chunk_cells: int = 4_000_000,
):
    """Simulate reps fixed-sample BH analyses at sample size n.

    ``runs`` holds (first, stop, marginal) for each range of adjacent
    streams sharing a marginal.  Returns (mean FDP, mean FNP, per-trial
    FNP standard error).
    """
    j = config.j
    rng = np.random.default_rng(seed_seq)
    fdp_sum = 0.0
    fnp_sum = 0.0
    fnp_sq = 0.0
    done = 0
    trial_chunk = max(1, chunk_cells // (n * j))
    while done < reps:
        m = min(trial_chunk, reps - done)
        u = copula_uniforms(config, rng, size=m * n, factor=factor)
        totals = np.empty((m, j), dtype=np.int64)
        for lo, hi, spec in runs:
            counts = _invert_marginal(spec, u[:, lo:hi])
            totals[:, lo:hi] = counts.reshape(m, n, hi - lo).sum(axis=1)
        rejected = bh_stepup(exact_pvalue(model, n, totals), alpha)
        r = rejected.sum(axis=1)
        v = (rejected & truth).sum(axis=1)
        w = (~rejected & ~truth).sum(axis=1)
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
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    truth = np.asarray(truth, dtype=bool)
    if truth.shape != (config.j,):
        raise ValueError("truth must assign one flag per stream")
    if model.family not in ("bernoulli", "poisson"):
        raise ConfigError("fixed-sample comparator supports bernoulli and poisson families")
    marginal = Bernoulli if model.family == "bernoulli" else Poisson
    edges = [0, *(np.flatnonzero(np.diff(truth)) + 1), config.j]
    runs = [(lo, hi, marginal(model.null_param if truth[lo] else model.alt_param))
            for lo, hi in zip(edges[:-1], edges[1:])]
    # Equal-guarantee comparison: the scaled values control FDR at q1
    # under arbitrary dependence, like the sequential constants do.
    alpha = scale_for_fdr(bh_steps(q1, config.j), q1)
    factor = cholesky(correlation_matrix(config))

    def estimate(n: int, scale: int):
        seq = np.random.SeedSequence(entropy=config.seed or 0, spawn_key=(n, scale))
        return _candidate_rates(
            model, config, truth, runs, alpha, n, reps * scale, seq, factor
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
