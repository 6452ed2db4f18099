"""Fixed-sample BH comparator and the sample-size search behind the N_FSS column.

The sequential procedures are benchmarked against the fixed-sample
Benjamini-Hochberg step-up rule: draw N observations per stream, form exact
one-sided p-values, reject with the BH step values rescaled for worst-case
FDR control (the same constants the sequential boundaries are built from).
``exact_pvalue`` and ``bh_stepup`` work on whole (trials, streams) arrays.
``find_matching_fss`` finds the smallest N whose estimated FNR matches the
sequential procedure's achieved FNR, which is how the expected-sample-size
savings are measured.  It estimates the whole FNR(N) curve from one nested
draw: every replicate's count totals grow one step at a time, so all N share
their random numbers (common random numbers, Glasserman & Yao 1992).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import stats

from .core import StepVector, bh_steps, scale_for_fdr
from .datagen import (
    Bernoulli,
    CopulaConfig,
    Poisson,
    cholesky,
    correlation_matrix,
    _CountBlocks,
)
from .errors import ConfigError
from .sprt import SimpleModel

__all__ = [
    "FnrCurve",
    "FssSearchResult",
    "exact_pvalue",
    "bh_stepup",
    "find_matching_fss",
]


class FnrCurve(NamedTuple):
    """BH rates of the search's nested draw at N = 1, 2, ...: one tuple each."""

    n: tuple[int, ...]
    fnr: tuple[float, ...]
    fdr: tuple[float, ...]
    se: tuple[float, ...]


@dataclass(frozen=True)
class FssSearchResult:
    """Outcome of the matching fixed-sample size search.

    ``found`` is False in two cases.  When no N up to the search ceiling
    pushed the estimated FNR down to the target, ``n_fss`` holds the
    ceiling and the achieved rates describe that boundary candidate.  Below
    the ceiling, ``n_fss`` is the first N at which the nested curve's FNR
    reached the target, and ``found`` is False when the confirmation run's
    FNR exceeds the target by more than 1.5 of its standard errors
    (``fnr_se``).  ``reps`` is the curve's replicate count; the reported
    rates come from a confirmation run at four times that.  ``curve``
    holds the curve from N = 1 to ``n_fss``, with the FNR's standard error.
    """

    n_fss: int
    achieved_fnr: float
    achieved_fdr: float
    target_fnr: float
    reps: int
    found: bool
    fnr_se: float
    curve: FnrCurve


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


# steps in the first block of a nested draw; each later block doubles the total
_FIRST_STEPS = 16


def _bh_rates(model, n, totals, truth, alpha):
    """(FNR, FDR, FNR standard error) of BH over the replicates' totals at size n."""
    # a p-value depends only on (n, total): one table per n
    rejected = bh_stepup(exact_pvalue(model, n, np.arange(totals.max() + 1))[totals], alpha)
    j = truth.size
    r = rejected.sum(axis=1)
    fdp = (rejected & truth).sum(axis=1) / np.maximum(r, 1)
    fnp = (~rejected & ~truth).sum(axis=1) / np.maximum(j - r, 1)
    se = math.sqrt(float(np.var(fnp)) / fnp.size)
    return float(fnp.mean()), float(fdp.mean()), se


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

    One nested draw of ``reps`` replicates gives the FNR at N = 1, 2, ...
    on common random numbers, and ``n_fss`` is the first N where it is at
    or below the target.  A confirmation run at 4x reps, a fresh draw
    stopped at ``n_fss``, gives the reported rates; the confirmation
    tolerance is 1.5 Monte Carlo standard errors.  Both draws derive from
    ``config.seed`` (required), so results are reproducible, and they do
    not depend on ``n_max`` once it reaches ``n_fss``.
    """
    if not 0.0 < target_fnr <= 1.0:
        raise ConfigError(f"target_fnr must be in (0, 1], got {target_fnr}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    if config.seed is None:
        raise ValueError("config.seed must be provided")
    truth = np.asarray(truth, dtype=bool)
    if truth.shape != (config.j,):
        raise ValueError("truth must assign one flag per stream")
    if model.family not in ("bernoulli", "poisson"):
        raise ConfigError("fixed-sample comparator supports bernoulli and poisson families")
    marginal = Bernoulli if model.family == "bernoulli" else Poisson
    edges = [0, *(np.flatnonzero(np.diff(truth)) + 1), config.j]
    groups = [(marginal(model.null_param if truth[lo] else model.alt_param),
               (slice(None), slice(lo, hi))) for lo, hi in zip(edges[:-1], edges[1:])]
    # Equal-guarantee comparison: the scaled values control FDR at q1
    # under arbitrary dependence, like the sequential constants do.
    alpha = scale_for_fdr(bh_steps(q1, config.j), q1)
    factor = cholesky(correlation_matrix(config))

    def draw(scale: int, n_stop: int):
        """(n, totals) for n = 1..n_stop: each replicate's (reps, J) count totals."""
        # 2-tuple spawn keys: apart from each other and from trial t's (t,)
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(0, scale))
        blocks = _CountBlocks(factor, groups, reps * scale, n_stop,
                              [np.random.default_rng(seq)], _FIRST_STEPS)
        while True:
            done, steps, totals = blocks.take([0])
            if not steps[0]:
                return
            yield from enumerate(totals, int(done[0]) + 1)

    curve = []
    for n, totals in draw(1, n_max):
        curve.append((n, *_bh_rates(model, n, totals, truth, alpha)))
        if curve[-1][1] <= target_fnr:
            break
    n_fss = curve[-1][0]
    reached = curve[-1][1] <= target_fnr
    for _, totals in draw(4, n_fss):
        pass
    fnr, fdr, se = _bh_rates(model, n_fss, totals, truth, alpha)
    return FssSearchResult(
        n_fss=n_fss, achieved_fnr=fnr, achieved_fdr=fdr, target_fnr=target_fnr, reps=reps,
        found=reached and fnr <= target_fnr + 1.5 * se, fnr_se=se,
        curve=FnrCurve(*(tuple(col) for col in zip(*curve))),
    )
