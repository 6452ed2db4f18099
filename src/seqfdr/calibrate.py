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
  for positive error rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import StepVector
from .errors import ConfigError, InsufficientRepsError
from .sprt import SimpleModel, cumulative_llr, llr_increments

__all__ = [
    "CalibrationReport",
    "GammaEstimate",
    "mc_truncated_critical_values",
    "estimate_gamma",
]

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

    def as_dict(self) -> dict:
        return {
            "b": [float(v) for v in self.b],
            "reps": self.reps,
            "achieved": [float(v) for v in self.achieved],
            "seed": self.seed,
            "n_bar": self.n_bar,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationReport":
        return cls(
            b=np.asarray(data["b"], dtype=float),
            reps=int(data["reps"]),
            achieved=np.asarray(data["achieved"], dtype=float),
            seed=int(data["seed"]),
            n_bar=int(data["n_bar"]),
        )


@dataclass(frozen=True)
class GammaEstimate:
    """Per-stream first-crossing probabilities and their maxima.

    gamma1 bounds P(R > 0) from below: a lone stream crossing the top
    rejection boundary forces at least one rejection.  gamma2 plays the
    same role for P(R < J) and exists only in the open-ended mode; the
    truncated procedure has no acceptance boundaries to cross.
    """

    gamma1: float
    gamma1_per_stream: np.ndarray
    gamma1_se: float
    reps: int
    theta_choice: tuple[ThetaChoice, ...]
    gamma2: float | None = None
    gamma2_per_stream: np.ndarray | None = None
    gamma2_se: float | None = None

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


def _as_rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _sample_obs(model: SimpleModel, param: float, rng: np.random.Generator, shape):
    """Draw observations from the stated family at sampling parameter ``param``."""
    if model.family == "bernoulli":
        return (rng.random(shape) < param).astype(np.int8)
    if model.family == "poisson":
        return rng.poisson(param, shape)
    raise ConfigError(
        "conditional_binomial streams have no standalone sampling distribution; "
        "simulate the trial-count process explicitly instead"
    )


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
    maxima = np.sort(_path_maxima(model, model.null_param, n_bar, reps, _as_rng(cal_seed)))
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
    fresh = _path_maxima(model, model.null_param, n_bar, reps, _as_rng(val_seed))
    achieved = np.array([np.mean(fresh >= bk) for bk in b])
    return CalibrationReport(b=b, reps=reps, achieved=achieved, seed=seed, n_bar=n_bar)


def _four_threshold_passage(
    model: SimpleModel,
    param: float,
    a1: float,
    a_last: float,
    b_last: float,
    b1: float,
    reps: int,
    rng: np.random.Generator,
    horizon: int,
    path_chunk: int,
    step_block: int,
) -> tuple[np.ndarray, np.ndarray]:
    """First-crossing races for one stream's open-ended LLR path.

    Returns boolean event arrays (up b1 strictly before down a_last,
    down a1 strictly before up b_last).  Paths still undecided at
    ``horizon`` count as non-events, which only understates the rates.
    """
    ev1 = np.zeros(reps, dtype=bool)
    ev2 = np.zeros(reps, dtype=bool)
    done = 0
    while done < reps:
        m = min(path_chunk, reps - done)
        t_up_b1 = np.full(m, np.inf)
        t_dn_alast = np.full(m, np.inf)
        t_dn_a1 = np.full(m, np.inf)
        t_up_blast = np.full(m, np.inf)
        carry = np.zeros(m)
        alive = np.arange(m)
        base = 0
        while alive.size and base < horizon:
            nsteps = min(step_block, horizon - base)
            obs = _sample_obs(model, param, rng, (alive.size, nsteps))
            cum = carry[alive, None] + np.cumsum(llr_increments(model, obs), axis=1)
            for times, thr, upward in (
                (t_up_b1, b1, True),
                (t_dn_alast, a_last, False),
                (t_dn_a1, a1, False),
                (t_up_blast, b_last, True),
            ):
                if not np.isfinite(thr) and (upward == (thr > 0)):
                    continue  # +inf upper or -inf lower: never crossed
                hit = cum >= thr if upward else cum <= thr
                has = hit.any(axis=1)
                fresh = has & np.isinf(times[alive])
                if np.any(fresh):
                    rows = alive[fresh]
                    times[rows] = base + hit[fresh].argmax(axis=1) + 1
            carry[alive] = cum[:, -1]
            base += nsteps
            race1 = np.isfinite(t_up_b1[alive]) | np.isfinite(t_dn_alast[alive])
            race2 = np.isfinite(t_dn_a1[alive]) | np.isfinite(t_up_blast[alive])
            alive = alive[~(race1 & race2)]
        ev1[done : done + m] = t_up_b1 < t_dn_alast
        ev2[done : done + m] = t_dn_a1 < t_up_blast
        done += m
    return ev1, ev2


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
    path_chunk: int = 4096,
    step_block: int = 256,
) -> GammaEstimate:
    """Estimate per-stream chances of forcing a rejection or acceptance.

    Boundaries are in the same (raw or standardized) units as the
    statistic the caller will run; first-crossing events are invariant
    under the strictly increasing standardization, so raw Wald boundaries
    are the usual input.  Open-ended mode needs ``a``; truncated mode
    needs ``n_bar`` and estimates only the rejection-side rate.

    Streams are simulated independently: the targeted probabilities are
    marginal, so cross-stream dependence is irrelevant here.
    """
    if (a is None) == (n_bar is None):
        raise ConfigError("pass exactly one of a (open-ended) or n_bar (truncated)")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    models = list(models)
    choices = tuple(theta_choice)
    if len(choices) != len(models):
        raise ValueError("theta_choice must match models in length")
    for c in choices:
        if c not in ("null", "alt"):
            raise ValueError(f"theta_choice entries must be 'null' or 'alt', got {c!r}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0 or np.any(np.diff(b) > 0.0):
        raise ValueError("b must be a nonempty nonincreasing vector")
    if a is not None:
        a = np.asarray(a, dtype=float)
        if a.shape != b.shape or np.any(np.diff(a) < 0.0):
            raise ValueError("a must be nondecreasing and match b in shape")
        if a[-1] > b[-1]:
            raise ValueError("boundaries overlap: a[-1] > b[-1]")
    children = np.random.SeedSequence(seed).spawn(len(models))
    g1 = np.empty(len(models))
    g2 = np.empty(len(models)) if a is not None else None
    for j, (model, choice, child) in enumerate(zip(models, choices, children)):
        param = model.null_param if choice == "null" else model.alt_param
        rng = _as_rng(child)
        if n_bar is not None:
            maxima = _path_maxima(model, param, n_bar, reps, rng)
            g1[j] = np.mean(maxima >= b[0])
        else:
            ev1, ev2 = _four_threshold_passage(
                model, param, a[0], a[-1], b[-1], b[0], reps, rng,
                horizon, path_chunk, step_block,
            )
            g1[j] = ev1.mean()
            g2[j] = ev2.mean()
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
        )
    return GammaEstimate(**result)
