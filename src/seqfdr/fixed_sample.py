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
over the block's (N, total) pairs and one BH pass over all its rows.  A
noisy curve can touch the target early and rise again, so the search takes
the first N that starts a run of ``_RUN`` consecutive N at or below it, and
the draw stops at the end of that run.
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

    ``n_fss`` is the first N at which the nested curve's FNR is at or below
    the target at every N of ``[N, N + _RUN - 1]``, a window cut at the
    search ceiling, and ``found`` is True.  When no such N lies within the
    ceiling, ``n_fss`` holds the ceiling and ``found`` is False.  The
    achieved rates and ``fnr_se``, the FNR's Monte Carlo standard error,
    are the curve's values at ``n_fss``, over ``reps`` replicates.
    ``curve`` holds the curve from N = 1 to the last N the rule read,
    ``n_fss + _RUN - 1`` cut at the ceiling.
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


# consecutive N whose FNR must be at or below the target: n_fss is the first
# of such a run
_RUN = 4


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
    rejected = bh_stepup(p.reshape(-1, j), alpha)
    # each row's rejections among the nulls and among the signals: counts
    # of at most J, exact in floats, so one product gives both
    counts = (rejected @ np.stack([truth, ~truth], axis=1).astype(float)).reshape(steps, reps, 2)
    v, s = counts[..., 0], counts[..., 1]
    fdp = v / np.maximum(v + s, 1)
    fnp = (np.count_nonzero(~truth) - s) / np.maximum(j - v - s, 1)
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
    on common random numbers, and ``n_fss`` is the first N that starts a
    run of ``_RUN`` consecutive N at or below the target, so a dip of the
    noisy curve that rises again is not taken.  The draw runs block by
    block until that run ends or ``n_max`` is reached, and the reported
    rates are the curve's at ``n_fss``.  The draw derives from
    ``config.seed`` (required), so results are reproducible, and they do
    not depend on ``n_max`` once it reaches ``n_fss + _RUN - 1``.
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

    # 2-tuple spawn key: apart from trial t's (t,)
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(0, 1))
    blocks = CountBlocks(config, [marginals], horizon=n_max, rngs=[np.random.default_rng(seq)],
                         replicates=reps)
    # (n, FNR, FDR, se) of each N read, and how many of the last are at or
    # below the target
    curve, run = [], 0
    while run < _RUN and len(curve) < n_max:
        n, (totals,) = blocks.take([0])
        rates = _bh_rates(model, n, totals, truth, alpha)
        for point in zip(n.tolist(), *(rate.tolist() for rate in rates)):
            curve.append(point)
            run = run + 1 if point[1] <= target_fnr else 0
            if run == _RUN:
                break
    # a run cut short by the ceiling meets the rule on what is left of its window
    n_fss = len(curve) - run + 1 if run else len(curve)
    _, fnr, fdr, se = curve[n_fss - 1]
    return FssSearchResult(
        n_fss=n_fss, achieved_fnr=fnr, achieved_fdr=fdr, target_fnr=target_fnr, reps=reps,
        found=run > 0, fnr_se=se,
        curve=FnrCurve(*(tuple(col) for col in zip(*curve))),
    )
