"""Fixed-sample BH comparator and the sample-size search behind the N_FSS column.

The sequential procedures are benchmarked against the fixed-sample
Benjamini-Hochberg step-up rule: draw N observations per stream, form exact
upper-tail p-values under the null's count law (``SimpleModel.law``; the
alternative lies above the null), reject with the BH step values rescaled
for worst-case FDR control (the same constants the sequential boundaries
are built from).
``exact_pvalue`` and ``bh_stepup`` work on whole (trials, streams) arrays.
``find_matching_fss`` finds the smallest N whose estimated FNR matches the
sequential procedure's achieved FNR, which is how the expected-sample-size
savings are measured.  It estimates the whole FNR(N) curve from one nested
draw: every replicate's count totals grow one step at a time, so all N share
their random numbers (common random numbers, Glasserman & Yao 1992).  The
draw is one ``datagen.CountBlocks`` trial whose steps carry all replicates,
the copula path the sequential trials run on, with the model's marginals.
The curve is evaluated one drawn block of N at a time: one p-value table
over the block's (N, total) pairs, one BH pass over all its rows, and a
stop at the block's first N at or below the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import StepVector, bh_steps, scale_for_fdr
from .datagen import CopulaConfig, CountBlocks
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


def exact_pvalue(model: SimpleModel, n, totals) -> np.ndarray:
    """One-sided upper-tail p-values of count totals, each over n draws.

    The p-value is the null probability (``model.law``) of a total at least
    as large as observed: the alternative lies above the null.  ``n`` is one
    sample size or an array of them that broadcasts against ``totals``, so
    a table over (n, total) is one call.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError(f"sample size must be >= 1, got {n.min()}")
    totals = np.asarray(totals)
    dist, args = model.law(model.null_param, n)
    lo, hi = dist.support(*args)
    if not np.all((lo <= totals) & (totals <= hi)):
        raise ValueError("count totals must lie in the null law's support over their n draws")
    return dist.sf(totals - 1, *args)


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


# steps in the first block of a nested draw; each later block doubles the
# total, within CountBlocks' cell bound
_FIRST_STEPS = 16


def _bh_rates(model, n, totals, truth, alpha):
    """(FNR, FDR, FNR standard error) of BH at each step of a block: arrays over ``n``.

    ``totals`` holds the replicates' (reps, J) count totals of each step,
    step k over ``n[k]`` draws.
    """
    steps, reps, j = totals.shape
    totals = totals.reshape(steps, -1)
    # a p-value depends only on (n, total): one table over the block, each
    # row's totals capped at its largest, which lies in the law's support
    top = totals.max(axis=1)
    table = exact_pvalue(model, n[:, None], np.minimum(np.arange(top.max() + 1), top[:, None]))
    p = np.take_along_axis(table, totals, axis=1)
    rejected = bh_stepup(p.reshape(-1, j), alpha).reshape(steps, reps, j)
    r = rejected.sum(axis=2)
    fdp = (rejected & truth).sum(axis=2) / np.maximum(r, 1)
    fnp = (~rejected & ~truth).sum(axis=2) / np.maximum(j - r, 1)
    return fnp.mean(axis=1), fdp.mean(axis=1), np.sqrt(np.var(fnp, axis=1) / reps)


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
    marginals = model.marginals(truth)
    # Equal-guarantee comparison: the scaled values control FDR at q1
    # under arbitrary dependence, like the sequential constants do.
    alpha = scale_for_fdr(bh_steps(q1, config.j), q1)

    def draw(scale: int, n_stop: int):
        """Blocks of (n, totals) up to n_stop: each step's (reps, J) count totals."""
        # 2-tuple spawn keys: apart from each other and from trial t's (t,)
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(0, scale))
        blocks = CountBlocks(config, [marginals], horizon=n_stop,
                             rngs=[np.random.default_rng(seq)], first=_FIRST_STEPS,
                             replicates=reps * scale)
        while True:
            n, steps, totals = blocks.take([0])
            if not steps[0]:
                return
            yield n, totals

    curve = []
    for n, totals in draw(1, n_max):
        rates = _bh_rates(model, n, totals, truth, alpha)
        met = np.flatnonzero(rates[0] <= target_fnr)
        stop = met[0] + 1 if met.size else n.size
        curve += zip(n[:stop].tolist(), *(rate[:stop].tolist() for rate in rates))
        if met.size:
            break
    n_fss = curve[-1][0]
    reached = curve[-1][1] <= target_fnr
    for n, totals in draw(4, n_fss):
        pass
    last = _bh_rates(model, n[-1:], totals[-1:], truth, alpha)
    fnr, fdr, se = (float(rate[0]) for rate in last)
    return FssSearchResult(
        n_fss=n_fss, achieved_fnr=fnr, achieved_fdr=fdr, target_fnr=target_fnr, reps=reps,
        found=reached and fnr <= target_fnr + 1.5 * se, fnr_se=se,
        curve=FnrCurve(*(tuple(col) for col in zip(*curve))),
    )
