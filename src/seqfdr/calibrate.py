"""Exact calibration of truncated critical values and first-crossing rates.

Both quantities the procedures need from calibration are probabilities of
a single i.i.d. stream of the battery's one model on the integer count
lattice, and one forward recursion (``_race``) gives them exactly: it
carries the live probability mass over count totals step by step, under
the model's count law (``SimpleModel.pmf``), and absorbs it where
``cumulative_llr`` itself crosses, so a path crosses at exactly the floats
the procedures compare.  It runs a block of steps per Python pass: each
step only convolves the live mass with the step pmf and masks off what
crosses, and once per block come the statistic's masks, the absorbed
mass, the stop test and the trim of the count window.  The race stops at
the first step at which every race's live mass is below ``_LIVE_TOL``.

* ``truncated_critical_values`` finds the upper boundaries ``B_k``: the
  smallest atom of the null path maximum, truncated at ``n_bar``, whose
  exact tail is at most ``alpha_k``, in one search of probe atoms that all
  levels share, capped by Ville's inequality.  ``mc_truncated_critical_values``
  validates them on a ``SimpleModel.sample`` draw made in cache-sized chunks.
* ``estimate_gamma`` gives, per stream, the chance that the stream's
  statistic produces at least one rejection (resp. acceptance) on its own.
  The maxima over streams are the lower bounds used to tighten step values
  for positive error rates.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .core import StepVector
from .errors import ConfigError
from .sprt import SimpleModel, check_ladders, crossing_counts, cumulative_llr

__all__ = [
    "CalibrationReport",
    "GammaEstimate",
    "truncated_critical_values",
    "mc_truncated_critical_values",
    "estimate_gamma",
]

logger = logging.getLogger(__name__)

ThetaChoice = Literal["null", "alt"]

# the recursion stops once every race's live mass is below _LIVE_TOL; a
# Poisson step drops the count tail beyond its 1 - _PMF_TAIL quantile
_LIVE_TOL = 1e-14
_PMF_TAIL = 1e-16
# observations _path_maxima draws at once, at most: the samplers fill C order
# from one generator, so cache-sized chunks draw the paths one array would
_CHUNK_ELEMS = 2**15
# _race advances up to _BLOCK steps per pass, over at most _BLOCK_CELLS
# (step, row, count) cells when a window is wide
_BLOCK = 64
_BLOCK_CELLS = 2**20
# atoms the boundary search races per pass, shared by every level
_ROWS = 30


class CalibrationReport(NamedTuple):
    """Calibrated truncated boundaries plus a fresh-sample validation."""

    b: np.ndarray  # nonincreasing upper critical values, LLR units
    reps: int
    achieved: np.ndarray  # fresh-sample estimate of P(max_{n<=n_bar} LLR >= b_k)


@dataclass(frozen=True)
class GammaEstimate:
    """Per-stream first-crossing probabilities and their maxima.

    gamma1 bounds P(R > 0) from below: a lone stream crossing the top
    rejection boundary forces at least one rejection.  gamma2 plays the
    same role for P(R < J) and exists only in the open-ended mode; the
    truncated procedure has no acceptance boundaries to cross.  The rates
    are exact, in [0, 1], with standard errors 0.  ``live_mass_per_stream``
    (open-ended only) is the larger of each stream's two races' probability
    of being still unsettled at the horizon, which the rates leave out.
    """

    gamma1: float
    gamma1_per_stream: np.ndarray
    gamma1_se: float
    gamma2: float | None = None
    gamma2_per_stream: np.ndarray | None = None
    gamma2_se: float | None = None
    live_mass_per_stream: np.ndarray | None = None


@functools.lru_cache(maxsize=None)
def _step_pmf(model: SimpleModel, param: float) -> np.ndarray:
    """P(count = x) of one observation at ``param``, cut at a ``_PMF_TAIL`` tail."""
    pmf = model.pmf(param, np.arange(model.isf(param, _PMF_TAIL) + 1))
    pmf.setflags(write=False)
    return pmf


def _race(model: SimpleModel, rows, horizon: int):
    """Exact first-passage probabilities of i.i.d. paths of one model, one race per row.

    Row ``(param, up, down)`` races the statistic
    ``cumulative_llr(model, x_n, n)`` of a path of observations at
    ``param``: up (``>= up``) against down (``<= down``).  A step that
    crosses both counts as up, as the procedures reject before they
    accept.  The rows carry their live mass over a window of count totals
    shared by all rows, and absorb it where the statistic, evaluated once
    per block on the window, makes those comparisons.  Adjacent rows of
    one param convolve together, so callers list them next to each other.

    The recursion runs a block of up to ``_BLOCK`` steps per pass over a
    (steps, rows, counts) array, with fewer steps where that array would
    pass ``_BLOCK_CELLS`` cells.  Its counts are those a path can reach in
    the block, below the highest ``up``'s ``crossing_counts`` before the
    block's last step, the one table the race builds.  Each step only
    convolves each param's live mass with the step pmf and multiplies it
    by that step's live mask.  Once per block come the statistic's masks,
    the mass absorbed on each side, the stop test and the trim of the
    window, by the last step's masks, to the counts some row leaves live.
    The race stops at ``horizon``, or at the first step at which every
    row's live mass is below ``_LIVE_TOL``, and takes its rates and live
    mass at that step.  Returns P(up first), P(down first) and the live
    mass left, per row.
    """
    # a run of adjacent rows of one param convolves as one flat array
    groups, at = [], 0
    for param, run in itertools.groupby(row[0] for row in rows):
        groups.append((_step_pmf(model, param), slice(at, at := at + len(list(run)))))
    # thresholds (1, rows, 1), against the statistic's (steps, 1, counts)
    up, down = np.array([row[1:] for row in rows], dtype=float).T[:, None, :, None]
    spill = max(f.size for f, _ in groups) - 1
    built = 0  # steps in the crossing table, grown by doubling as blocks need it
    won = np.zeros((2, len(rows)))  # absorbed up, down
    mass = np.ones((len(rows), 1))  # live mass at counts x0, x0 + 1, ...
    x0 = n = 0
    while n < horizon:
        width = mass.shape[1]
        block = min(_BLOCK, horizon - n, _BLOCK_CELLS // (len(rows) * (width + _BLOCK * spill)))
        block = max(block, 1)
        if n + block > built:
            built = min(horizon, max(2 * built, n + block))
            # every row absorbs the counts from ceil[n - 1] up
            ceil = crossing_counts(model, up.max(), True, built)
        # the mass entering a step of the block lies below x0 + entering, and
        # a step moves it up by at most spill counts, so no row spills into
        # the next
        entering = max(width, ceil[n + block - 2] - x0) if block > 1 else width
        cols = min(width + block * spill, entering + spill)
        steps = np.arange(n + 1, n + block + 1)[:, None, None]
        stat = cumulative_llr(model, np.arange(x0, x0 + cols), steps)
        above = stat >= up
        below = (stat <= down) & ~above
        keep = ~(above | below)
        grown = np.empty((block, len(rows), cols))  # each step's mass before absorbing
        padded = np.zeros((len(rows), cols))
        padded[:, :width] = mass
        mass = padded
        # flat views of each group's rows, in the live mass and in every step
        convs = [(mass[sl].ravel(), grown[:, sl].reshape(block, -1), f) for f, sl in groups]
        for i in range(block):
            for now, into, f in convs:
                into[i] = np.convolve(now, f)[: now.size]
            np.multiply(grown[i], keep[i], out=mass)
        left = grown.sum(axis=2, where=keep)
        settled = np.flatnonzero(left.max(axis=1, initial=0.0) < _LIVE_TOL)
        if settled.size:
            block = int(settled[0]) + 1
        gained = np.stack([grown[:block].sum(axis=2, where=above[:block]),
                           grown[:block].sum(axis=2, where=below[:block])])
        # add the block's gains one step at a time, in order
        won = np.cumsum(np.concatenate([won[:, None], gained], axis=1), axis=1)[:, -1]
        left = left[block - 1]
        n += block
        if settled.size:
            break
        # every row absorbs the window's counts below lo and from hi up
        lo = np.count_nonzero(below[-1].all(axis=0))
        hi = cols - np.count_nonzero(above[-1].all(axis=0))
        mass = mass[:, lo : max(hi, lo)]
        x0 += lo
    # a sum of probabilities can round a few ulps above 1
    up, down = np.minimum(won, 1.0)
    return up, down, np.minimum(left, 1.0)


def _path_maxima(
    model: SimpleModel,
    param: float,
    n_bar: int,
    reps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Running-maximum of ``reps`` i.i.d. LLR paths of length ``n_bar``.

    Each maximum is computed exactly from its lattice point with
    ``cumulative_llr``, the statistic the procedures run on, so the atoms
    of the maximum are the values a path can reach.
    """
    trials = np.arange(1, n_bar + 1)
    out = np.empty(reps, dtype=float)
    path_chunk = max(1, _CHUNK_ELEMS // n_bar)
    for done in range(0, reps, path_chunk):
        m = min(path_chunk, reps - done)
        cum = model.sample(param, rng, (m, n_bar)).astype(float)
        np.cumsum(cum, axis=1, out=cum)
        cumulative_llr(model, cum, trials, out=cum)
        out[done : done + m] = cum.max(axis=1)
    return out


def truncated_critical_values(model: SimpleModel, alpha: StepVector, n_bar: int) -> np.ndarray:
    """Truncated upper boundaries ``B``, calibrated on the exact null path maximum.

    ``B_k`` is the smallest atom ``v`` of ``max_{n <= n_bar}`` of the null
    statistic whose exact tail P0(max >= v), a race with no lower boundary
    and horizon ``n_bar`` (``_race``), is at most ``alpha_k``.  The atoms
    are the values ``cumulative_llr`` takes at the lattice points (x, n)
    with x within the ``1 - _PMF_TAIL`` quantile of the count total after n
    steps.  exp of the statistic is a mean-one null martingale, so by Ville's
    inequality P0(max >= v) <= exp(-v): every atom from ``-log(alpha_k)`` up
    meets ``alpha_k``.  Each pass races up to ``_ROWS`` distinct atoms spread
    evenly over the union of the levels' open brackets.  The tail falls as
    the atom rises, so the number of probes failing ``alpha_k`` places
    ``B_k`` between two adjacent probes; ``B`` is nonincreasing and equal
    levels share a boundary.  A level no atom meets raises ConfigError naming k.
    """
    if n_bar < 1:
        raise ConfigError(f"n_bar must be >= 1, got {n_bar}")
    n = np.arange(1, n_bar + 1)[:, None]
    top = model.isf(model.null_param, _PMF_TAIL, n)
    x = np.arange(top.max() + 1)
    atoms = np.unique(cumulative_llr(model, x, n)[x <= top])
    # B_k is atoms[i] for the smallest i in [lo[k], hi[k]] that meets alpha_k
    # (i = atoms.size: no atom); by Ville's inequality atoms[hi[k]] meets it
    lo = np.zeros(alpha.j, dtype=np.int64)
    hi = np.searchsorted(atoms, -np.log(alpha.values))
    while np.any(lo < hi):
        # the atoms some level has yet to test, and _ROWS of them spread evenly
        starts = np.bincount(lo, minlength=atoms.size + 1)
        todo = np.flatnonzero(np.cumsum(starts - np.bincount(hi, minlength=atoms.size + 1)))
        if todo.size > _ROWS:
            todo = todo[todo.size * np.arange(1, _ROWS + 1) // (_ROWS + 1)]
        tails = _race(model, [(model.null_param, atoms[i], -np.inf) for i in todo], n_bar)[0]
        # the tail falls as the atom rises, so level k fails the first fails[k] probes
        fails = np.count_nonzero(tails > alpha.values[:, None], axis=1)
        lo = np.maximum(lo, np.append(0, todo + 1)[fails])
        hi = np.minimum(hi, np.append(todo, atoms.size)[fails])
    if (short := np.flatnonzero(lo == atoms.size)).size:
        k = int(short[0])
        raise ConfigError(
            f"level k={k + 1} (alpha={alpha.values[k]:.3g}) is below the exact "
            f"tail of every atom of the null path maximum over n_bar={n_bar} steps"
        )
    return atoms[lo]


def mc_truncated_critical_values(
    model: SimpleModel,
    alpha: StepVector,
    n_bar: int,
    reps: int,
    seed: int,
) -> CalibrationReport:
    """``truncated_critical_values`` plus a fresh-sample validation.

    ``achieved`` holds the crossing frequencies of ``reps`` fresh null
    paths drawn from ``seed``; ``B`` does not depend on either.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    b = truncated_critical_values(model, alpha, n_bar)
    fresh = _path_maxima(model, model.null_param, n_bar, reps, np.random.default_rng(seed))
    achieved = np.array([np.mean(fresh >= bk) for bk in b])
    return CalibrationReport(b, reps, achieved)


def estimate_gamma(
    models: Sequence[SimpleModel],
    theta_choice: Sequence[ThetaChoice],
    *,
    b: np.ndarray,
    a: np.ndarray | None = None,
    n_bar: int | None = None,
    reps: int | None = None,
    seed: int | None = None,
    horizon: int = 10_000,
) -> GammaEstimate:
    """Exact per-stream chances of forcing a rejection or acceptance.

    Boundaries are in LLR units, the scale of the statistic the
    procedures run.  Open-ended mode needs ``a``; truncated mode needs
    ``n_bar`` and gives only the rejection-side rate.

    Open-ended mode races each stream's ``cumulative_llr`` up to
    ``horizon`` steps: up ``>= b[0]`` before down ``<= a[-1]`` for gamma1,
    down ``<= a[0]`` before up ``>= b[-1]`` for gamma2.  Truncated mode
    takes gamma1 as the tail P(max_{n <= n_bar} >= b[0]).  The streams
    share one model, as in a battery, and ``models`` holding different
    ones raises ValueError.  One pass of ``_race`` covers the races of
    every distinct parameter, so the rates are exact and their standard
    errors 0; a race to an infinite threshold is not run and gives 0.  A
    race whose live mass is still above ``_LIVE_TOL`` at ``horizon``
    understates its rate by that mass, which ``live_mass_per_stream``
    reports and a warning logs.  ``reps`` and ``seed`` do nothing.

    The targeted probabilities are marginal, so cross-stream dependence is
    irrelevant here.
    """
    if (a is None) == (n_bar is None):
        raise ConfigError("pass exactly one of a (open-ended) or n_bar (truncated)")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if n_bar is not None and n_bar < 1:
        raise ConfigError(f"n_bar must be >= 1, got {n_bar}")
    models = list(models)
    if len(set(models)) != 1:
        raise ValueError("models must repeat the battery's one model, once per stream")
    model = models[0]
    choices = tuple(theta_choice)
    if len(choices) != len(models):
        raise ValueError("theta_choice must match models in length")
    for c in choices:
        if c not in ("null", "alt"):
            raise ValueError(f"theta_choice entries must be 'null' or 'alt', got {c!r}")
    a, b = check_ladders(a, b)
    # each stream reads the races of its parameter, raced once:
    # gamma1's race is up to b[0] against a[-1], gamma2's down to a[0]
    # against b[-1]; truncated, the ladder a is all -inf.  A race to an
    # infinite threshold cannot be won, so it gets no row: rate 0 and live
    # mass 0.
    keys = [model.null_param if c == "null" else model.alt_param for c in choices]
    params = list(dict.fromkeys(keys))
    at = np.array([params.index(key) for key in keys])
    races = [(b[0], a[-1]), (b[-1], a[0])]
    run = [0] if b[0] < np.inf else []
    if a[0] > -np.inf:
        run.append(1)
    rate, left = np.zeros((2, len(params))), np.zeros((2, len(params)))
    if run:
        rows = [(param, *races[q]) for param in params for q in run]
        up, down, live = (x.reshape(len(params), len(run)).T
                          for x in _race(model, rows, horizon if n_bar is None else n_bar))
        for row, q in enumerate(run):
            rate[q], left[q] = (up, down)[q][row], live[row]
    g1 = rate[0, at]
    result = dict(gamma1=float(g1.max()), gamma1_per_stream=g1, gamma1_se=0.0)
    if n_bar is None:
        g2 = rate[1, at]
        stuck = np.maximum(left[0, at], left[1, at])
        result.update(gamma2=float(g2.max()), gamma2_per_stream=g2, gamma2_se=0.0,
                      live_mass_per_stream=stuck)
        if np.any(stuck > _LIVE_TOL):
            logger.warning(
                "estimate_gamma: up to %.3g of the probability of streams %s was still "
                "racing at horizon %d and is left out of the rates",
                float(stuck.max()), np.flatnonzero(stuck > _LIVE_TOL).tolist(), horizon,
            )
    return GammaEstimate(**result)
