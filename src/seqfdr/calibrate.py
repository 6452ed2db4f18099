"""Monte Carlo calibration of truncated critical values and first-crossing rates.

Two pieces of simulation support feed the procedures:

* ``mc_truncated_critical_values`` calibrates upper boundaries ``B_k`` so
  that a null LLR path truncated at ``n_bar`` crosses ``B_k`` with
  probability at most ``alpha_k``.  A single shared sample of path maxima
  yields all J values, which makes the boundary vector nonincreasing by
  construction.
* ``estimate_gamma`` estimates, per stream, the chance that the stream's
  statistic produces at least one rejection (resp. acceptance) on its own.
  The maxima over streams are the lower bounds used to tighten step values
  for positive error rates.  The open-ended races run on the exact lattice
  statistic: each path is drawn as the steps at which its count total
  jumps (geometric gaps between Bernoulli successes, binned arrivals of a
  Poisson process) and compared with per-step count tables, so a path
  crosses at exactly the values the procedures compute, in O(reps) memory
  and with no tuning knobs.  Paths still racing at ``horizon`` are
  non-events and are counted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import StepVector
from .errors import ConfigError, InsufficientRepsError
from .sprt import SimpleModel, crossing_counts, cumulative_llr

__all__ = [
    "CalibrationReport",
    "GammaEstimate",
    "mc_truncated_critical_values",
    "estimate_gamma",
]

logger = logging.getLogger(__name__)

ThetaChoice = Literal["null", "alt"]


@dataclass(frozen=True)
class CalibrationReport:
    """Calibrated truncated boundaries plus a fresh-sample validation."""

    b: np.ndarray  # nonincreasing upper critical values, LLR units
    reps: int
    achieved: np.ndarray  # fresh-sample estimate of P(max_{n<=n_bar} LLR >= b_k)
    seed: int
    n_bar: int

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        achieved = np.asarray(self.achieved, dtype=float)
        if b.shape != achieved.shape:
            raise ValueError("b and achieved must have matching shapes")
        if np.any(np.diff(b) > 0.0):
            raise ValueError("calibrated boundaries must be nonincreasing")
        b.setflags(write=False)
        achieved.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "achieved", achieved)


@dataclass(frozen=True)
class GammaEstimate:
    """Per-stream first-crossing probabilities and their maxima.

    gamma1 bounds P(R > 0) from below: a lone stream crossing the top
    rejection boundary forces at least one rejection.  gamma2 plays the
    same role for P(R < J) and exists only in the open-ended mode; the
    truncated procedure has no acceptance boundaries to cross.
    ``undecided_per_stream`` (open-ended only) counts each stream's paths
    with a race still unsettled at the horizon, which the rates count as
    non-events.
    """

    gamma1: float
    gamma1_per_stream: np.ndarray
    gamma1_se: float
    reps: int
    theta_choice: tuple[ThetaChoice, ...]
    gamma2: float | None = None
    gamma2_per_stream: np.ndarray | None = None
    gamma2_se: float | None = None
    undecided_per_stream: np.ndarray | None = None

    def __post_init__(self):
        for name in ("gamma1_per_stream", "gamma2_per_stream"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if np.any((arr < 0.0) | (arr > 1.0)):
                raise ValueError(f"{name} entries must lie in [0, 1]")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.undecided_per_stream is not None:
            arr = np.asarray(self.undecided_per_stream, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, "undecided_per_stream", arr)


_NO_SAMPLER = (
    "conditional_binomial streams have no standalone sampling distribution; "
    "simulate the trial-count process explicitly instead"
)


def _sample_obs(model: SimpleModel, param: float, rng: np.random.Generator, shape):
    """Draw observations from the stated family at sampling parameter ``param``."""
    if model.family == "bernoulli":
        return (rng.random(shape) < param).astype(np.int8)
    if model.family == "poisson":
        return rng.poisson(param, shape)
    raise ConfigError(_NO_SAMPLER)


def _path_maxima(
    model: SimpleModel,
    param: float,
    n_bar: int,
    reps: int,
    rng: np.random.Generator,
    chunk_elems: int = 10_000_000,
) -> np.ndarray:
    """Running-maximum of ``reps`` i.i.d. LLR paths of length ``n_bar``.

    Each maximum is computed exactly from its lattice point with
    ``cumulative_llr``, the statistic the procedures run on, so the atoms
    of the maximum are the values a path can reach.
    """
    trials = np.arange(1, n_bar + 1)
    out = np.empty(reps, dtype=float)
    path_chunk = max(1, chunk_elems // max(n_bar, 1))
    done = 0
    while done < reps:
        m = min(path_chunk, reps - done)
        obs = _sample_obs(model, param, rng, (m, n_bar))
        cum = obs.astype(float)
        np.cumsum(cum, axis=1, out=cum)
        cumulative_llr(model, cum, trials, out=cum)
        out[done : done + m] = cum.max(axis=1)
        done += m
    return out


def mc_truncated_critical_values(
    model: SimpleModel,
    alpha: StepVector,
    n_bar: int,
    reps: int,
    seed: int,
) -> CalibrationReport:
    """Calibrate truncated upper boundaries by simulating null path maxima.

    ``B_k`` is the smallest simulated maximum ``v`` whose sample tail count
    ``#{maxima >= v}`` is at most ``floor((reps+1) * alpha_k)``, so the
    calibration sample itself never crosses ``B_k`` more often than the
    level allows and the crossing contract holds with slack of order
    1/reps.  Where the cut does not fall inside an atom of the (lattice
    valued) maximum this is the ``ceil((reps+1) * (1 - alpha_k))``-th
    smallest maximum; where it does, ``B_k`` is the next sampled value
    above the atom.  All levels share one sample, hence ``B`` is monotone
    for free.  A second, independently seeded sample reports the achieved
    crossing frequencies.

    ``reps`` should be at least ~1000 for the tail counts to mean
    anything; a level whose allowed tail count is reached by no sampled
    value (it is below one replicate, or the largest atom alone exceeds
    it) raises ``InsufficientRepsError``.
    """
    if n_bar < 1:
        raise ConfigError(f"n_bar must be >= 1, got {n_bar}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    tails = np.array([math.floor((reps + 1) * a_k) for a_k in alpha.values])
    cal_seed, val_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(cal_seed)
    maxima = np.sort(_path_maxima(model, model.null_param, n_bar, reps, rng))
    # first index of each distinct value: reps - first[i] maxima are >= maxima[first[i]]
    first = np.flatnonzero(np.diff(maxima, prepend=-np.inf))
    pos = np.searchsorted(first, reps - tails)
    short = np.flatnonzero(pos == first.size)
    if short.size:
        k = int(short[0])
        raise InsufficientRepsError(
            f"level k={k + 1} (alpha={alpha.values[k]:.3g}) allows {tails[k]} of "
            f"{reps} replicates at or above its boundary, but the largest "
            f"sampled maximum alone has {reps - first[-1]}; increase reps"
        )
    b = maxima[first[pos]]
    fresh = _path_maxima(model, model.null_param, n_bar, reps, np.random.default_rng(val_seed))
    achieved = np.array([np.mean(fresh >= bk) for bk in b])
    return CalibrationReport(b=b, reps=reps, achieved=achieved, seed=seed, n_bar=n_bar)


# first-crossing step of a threshold a path never crosses
_NEVER = np.iinfo(np.int64).max


def _race_tables(model: SimpleModel, a1, a_last, b_last, b1, horizon: int) -> list:
    """Count tables of the race thresholds: up b1, down a_last, down a1, up b_last."""
    return [
        crossing_counts(model, thr, upward, horizon)
        for thr, upward in ((b1, True), (a_last, False), (a1, False), (b_last, True))
    ]


def _segment_crossings(tables: list, x: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """First crossing step of each table within each path's segment [s, e].

    Over the segment the path's count total stays ``x``; an empty segment
    (``e < s``) crosses nothing.  Returns a (len(tables), paths) int64
    array holding ``_NEVER`` where the segment does not cross.  The tables
    are nondecreasing in the step, so an ``at_least`` table is crossed on
    a prefix of the segment (test its first step) and any other on a
    suffix (one ``searchsorted``).
    """
    out = np.empty((len(tables), x.size), dtype=np.int64)
    for k, (t, at_least) in enumerate(tables):
        if at_least:
            first = s
            hit = (e >= s) & (x >= t[s - 1])
        else:
            first = np.maximum(np.searchsorted(t, x) + 1, s)
            hit = first <= e
        out[k] = np.where(hit, first, _NEVER)
    return out


def _passage_times(tables: list, horizon: int, next_jump, reps: int) -> np.ndarray:
    """First-crossing steps of the four race thresholds for ``reps`` count paths.

    A count path is determined by the steps at which its total jumps:
    ``next_jump(idx)`` returns the step of the next unit increment of each
    path in ``idx`` (nondecreasing per path, several may share a step).
    Each round evaluates every racing path's finished segment of constant
    count and retires the paths whose two races (rows 0/1 and 2/3) are
    both settled or whose next jump lies beyond ``horizon``.  Returns a
    (4, reps) int64 array, ``_NEVER`` where no step up to ``horizon``
    crosses.
    """
    times = np.full((len(tables), reps), _NEVER, dtype=np.int64)
    idx = np.arange(reps)
    x = np.zeros(reps, dtype=np.int64)
    s = np.ones(reps, dtype=np.int64)
    tm = times.copy()
    while idx.size:
        jump = next_jump(idx)
        # segments arrive in step order, so the minimum keeps each first crossing
        np.minimum(tm, _segment_crossings(tables, x, s, np.minimum(jump - 1, horizon)), out=tm)
        x += 1
        s = jump
        crossed = tm != _NEVER
        keep = ~((crossed[0] | crossed[1]) & (crossed[2] | crossed[3])) & (s <= horizon)
        times[:, idx[~keep]] = tm[:, ~keep]
        idx, x, s, tm = idx[keep], x[keep], s[keep], tm[:, keep]
    return times


def _jump_sampler(model: SimpleModel, param: float, reps: int, rng: np.random.Generator):
    """``next_jump`` for ``_passage_times``: i.i.d. count paths at ``param``.

    Bernoulli gaps between successes are geometric; Poisson counts are the
    arrivals of a rate-``param`` process, an arrival at time ``tau``
    landing in step ``ceil(tau)``.
    """
    if model.family == "bernoulli":
        last = np.zeros(reps, dtype=np.int64)

        def next_jump(idx):
            last[idx] += rng.geometric(param, idx.size)
            return last[idx]

    elif model.family == "poisson":
        tau = np.zeros(reps)

        def next_jump(idx):
            tau[idx] += rng.exponential(1.0 / param, idx.size)
            return np.maximum(np.ceil(tau[idx]), 1.0).astype(np.int64)

    else:
        raise ConfigError(_NO_SAMPLER)
    return next_jump


def estimate_gamma(
    models: Sequence[SimpleModel],
    theta_choice: Sequence[ThetaChoice],
    *,
    b: np.ndarray,
    a: np.ndarray | None = None,
    n_bar: int | None = None,
    reps: int,
    seed: int,
    horizon: int = 10_000,
) -> GammaEstimate:
    """Estimate per-stream chances of forcing a rejection or acceptance.

    Boundaries are in LLR units, the scale of the statistic the
    procedures run.  Open-ended mode needs ``a``; truncated mode needs
    ``n_bar`` and estimates only the rejection-side rate.

    Open-ended mode races each path of ``cumulative_llr`` (up ``>= b[0]``
    before down ``<= a[-1]`` for gamma1, down ``<= a[0]`` before up
    ``>= b[-1]`` for gamma2) on the exact lattice: a path is drawn as the
    steps at which its count total jumps and compared with per-step count
    tables (``sprt.crossing_counts``), so it crosses at exactly the floats
    the procedures compute.  A path with a race still unsettled after
    ``horizon`` steps is a non-event, which understates the rate; such
    paths are counted in ``undecided_per_stream`` and logged as a warning.
    The result depends only on the inputs, ``seed``, ``reps`` and
    ``horizon``.

    Streams are simulated independently: the targeted probabilities are
    marginal, so cross-stream dependence is irrelevant here.
    """
    if (a is None) == (n_bar is None):
        raise ConfigError("pass exactly one of a (open-ended) or n_bar (truncated)")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if n_bar is not None and n_bar < 1:
        raise ConfigError(f"n_bar must be >= 1, got {n_bar}")
    models = list(models)
    choices = tuple(theta_choice)
    if len(choices) != len(models):
        raise ValueError("theta_choice must match models in length")
    for c in choices:
        if c not in ("null", "alt"):
            raise ValueError(f"theta_choice entries must be 'null' or 'alt', got {c!r}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0 or np.any(np.isnan(b)) or np.any(np.diff(b) > 0.0):
        raise ValueError("b must be a nonempty nonincreasing vector without NaN")
    if a is not None:
        a = np.asarray(a, dtype=float)
        if a.shape != b.shape or np.any(np.isnan(a)) or np.any(np.diff(a) < 0.0):
            raise ValueError("a must be nondecreasing, without NaN, and match b in shape")
        if a[-1] > b[-1]:
            raise ValueError("boundaries overlap: a[-1] > b[-1]")
    children = np.random.SeedSequence(seed).spawn(len(models))
    g1 = np.empty(len(models))
    g2 = np.empty(len(models)) if a is not None else None
    undecided = np.zeros(len(models), dtype=np.int64) if a is not None else None
    tables = {}
    for j, (model, choice, child) in enumerate(zip(models, choices, children)):
        param = model.null_param if choice == "null" else model.alt_param
        rng = np.random.default_rng(child)
        if n_bar is not None:
            maxima = _path_maxima(model, param, n_bar, reps, rng)
            g1[j] = np.mean(maxima >= b[0])
            continue
        if model not in tables:
            tables[model] = _race_tables(model, a[0], a[-1], b[-1], b[0], horizon)
        t = _passage_times(tables[model], horizon, _jump_sampler(model, param, reps, rng), reps)
        g1[j] = np.mean(t[0] < t[1])
        g2[j] = np.mean(t[2] < t[3])
        open_race = t == _NEVER
        undecided[j] = np.count_nonzero((open_race[0] & open_race[1]) | (open_race[2] & open_race[3]))
    gamma1 = float(g1.max())
    result = dict(
        gamma1=gamma1,
        gamma1_per_stream=g1,
        gamma1_se=math.sqrt(gamma1 * (1.0 - gamma1) / reps),
        reps=reps,
        theta_choice=choices,
    )
    if g2 is not None:
        gamma2 = float(g2.max())
        result.update(
            gamma2=gamma2,
            gamma2_per_stream=g2,
            gamma2_se=math.sqrt(gamma2 * (1.0 - gamma2) / reps),
            undecided_per_stream=undecided,
        )
        if undecided.any():
            logger.warning(
                "estimate_gamma: up to %d of %d paths of streams %s were still racing at "
                "horizon %d and count as non-events, which understates the rates",
                int(undecided.max()), reps, np.flatnonzero(undecided).tolist(), horizon,
            )
    return GammaEstimate(**result)
