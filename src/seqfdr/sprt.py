"""Wald-style sequential test boundaries and log-likelihood-ratio machinery.

One-parameter simple-vs-simple models, Bernoulli or Poisson, supply i.i.d.
log-likelihood-ratio increments, with the alternative above the null, and
each owns what its family means: the count law, the sampler and the copula
marginals.  A Bernoulli total may count the successes among trials that
arrive in batches of any size, such as a year's reports.  A step-down
battery of J tests needs J acceptance boundaries ``A_1 <= ... <= A_J`` and
J rejection boundaries ``B_J <= ... <= B_1``; surrogate error levels keep
the per-level error contracts intact while making the boundary matrix
monotone.  The cumulative LLR of a whole path, the form every engine
uses, is an affine map of integer count totals that rises with the count,
so equal lattice points give equal floats, and per-step tables of count
totals say exactly where it crosses a threshold.  Every stream of one
battery shares one model, so the procedures compare raw statistics with
one boundary ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy import stats

from .core import StepVector
from .datagen import Bernoulli, Poisson
from .errors import BoundaryCollapseError

__all__ = [
    "SIEGMUND_RHO",
    "SimpleModel",
    "CriticalMatrix",
    "check_ladders",
    "wald_bounds",
    "surrogate_errors",
    "stepdown_critical_values",
    "lattice_terms",
    "cumulative_llr",
    "crossing_counts",
]

# mean overshoot correction for Brownian-scale random walks
SIEGMUND_RHO = 0.583

Family = Literal["bernoulli", "poisson"]


@dataclass(frozen=True)
class SimpleModel:
    """Simple null vs simple alternative (``null_param < alt_param``) for one stream.

    family:
        "bernoulli": success probabilities, observation in {0, 1}.
        "poisson": rates, observation a count.
    """

    family: Family
    null_param: float
    alt_param: float

    def __post_init__(self):
        if self.family not in ("bernoulli", "poisson"):
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = (0.0, 1.0) if self.family == "bernoulli" else (0.0, math.inf)
        for name, value in (("null_param", self.null_param), ("alt_param", self.alt_param)):
            if not lo < value < hi:
                raise ValueError(f"{name}={value} outside ({lo}, {hi}) for {self.family}")
        if not self.null_param < self.alt_param:
            raise ValueError(f"alt_param={self.alt_param} must exceed null_param={self.null_param}")

    def law(self, param: float, n=1):
        """Law of the count total of ``n`` (may be an array) observations at
        ``param``: Binomial(n, p) or Poisson(n lambda), as the unfrozen scipy
        distribution and its shape arguments, used as ``dist.pmf(x, *args)``."""
        if self.family == "bernoulli":
            return stats.binom, (n, param)
        return stats.poisson, (n * param,)

    def sample(self, param: float, rng: np.random.Generator, shape) -> np.ndarray:
        """Observations of ``shape`` drawn i.i.d. at ``param``."""
        if self.family == "bernoulli":
            return (rng.random(shape) < param).astype(np.int8)
        return rng.poisson(param, shape)

    def marginals(self, truth) -> list[Bernoulli | Poisson]:
        """Copula marginal of each stream: the null's where ``truth`` is True,
        the alternative's elsewhere."""
        spec = Bernoulli if self.family == "bernoulli" else Poisson
        return [spec(self.null_param if t else self.alt_param) for t in truth]


def lattice_terms(model: SimpleModel) -> tuple[float, float]:
    """(per-count, per-trial) terms of the cumulative LLR.

    After ``w`` trials (observations) with count total ``x`` (successes or
    events) the LLR is ``x * slope + w * step``: Bernoulli
    ``x (c1 - c0) + w c0`` with c1 = log(p1 / p0) and
    c0 = log((1 - p1) / (1 - p0)), Poisson ``x log(p1 / p0) - w (p1 - p0)``.
    """
    p0, p1 = model.null_param, model.alt_param
    if model.family == "poisson":
        return math.log(p1 / p0), -(p1 - p0)
    c0 = math.log((1.0 - p1) / (1.0 - p0))
    return math.log(p1 / p0) - c0, c0


def cumulative_llr(model: SimpleModel, x, w, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative LLR ``x * slope + w * step`` at integer count totals.

    ``x`` and ``w`` broadcast against each other, and the result has the
    broadcast shape; ``out`` may be a float array of that shape holding
    ``x`` itself, updated in place.  Integer totals are exact
    in float64, so the value depends only on the lattice point: a float
    ``cumsum`` of increments would split equal points into nearby values
    that depend on summation order.
    """
    slope, step = lattice_terms(model)
    return np.add(np.multiply(x, slope, out=out), np.multiply(w, step), out=out)


# a count total no path reaches; exact in float64
_COUNT_CAP = 2**52


def crossing_counts(model: SimpleModel, threshold, upward: bool, horizon: int) -> np.ndarray:
    """Count totals at which the cumulative LLR crosses ``threshold``, per step.

    Returns an int64 table with ``t[n - 1]`` for steps ``n = 1..horizon``
    such that ``cumulative_llr(model, x, n)`` crosses exactly when
    ``x >= t[n - 1]`` if ``upward`` (the statistic ``>= threshold``), or
    ``x <= t[n - 1]`` otherwise (``<= threshold``): the statistic rises with
    the count.  An array of thresholds gives one table per entry, stacked
    along its shape.  A closed-form guess is corrected against
    ``cumulative_llr`` itself, so the table agrees with the statistic the
    procedures compute to the last bit.  The per-trial term is negative for
    every model, so the table is nondecreasing in n.  An infinite threshold
    gives a constant table that no count, or every count, satisfies.
    """
    slope, step = lattice_terms(model)
    never, always = (_COUNT_CAP, 0) if upward else (-1, _COUNT_CAP)
    threshold = np.asarray(threshold, dtype=float)[..., None]
    n = np.arange(1, horizon + 1)
    guess = (threshold - n * step) / slope
    guess = np.ceil(guess) if upward else np.floor(guess)
    # an infinite threshold's guess is clipped onto never or always
    t = np.clip(guess, min(never, always), max(never, always)).astype(np.int64)

    def crossed(x):
        stat = cumulative_llr(model, x, n)
        return stat >= threshold if upward else stat <= threshold

    # the crossing set is {x >= t} or {x <= t}: move t onto its edge
    inward = -1 if upward else 1
    while np.any(fix := (t != always) & crossed(t + inward)):
        t[fix] += inward
    while np.any(fix := (t != never) & ~crossed(t)):
        t[fix] -= inward
    return t


def wald_bounds(alpha: float, beta: float, rho: float = SIEGMUND_RHO) -> tuple[float, float]:
    """Overshoot-corrected acceptance/rejection boundaries for one SPRT.

    A = log(beta / (1 - alpha)) + rho, B = log((1 - beta) / alpha) - rho.
    ``rho = 0`` gives the plain Wald approximation.
    """
    _check_error_pair(alpha, beta)
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    a = math.log(beta / (1.0 - alpha)) + rho
    b = math.log((1.0 - beta) / alpha) - rho
    return a, b


def surrogate_errors(alpha: StepVector, beta: StepVector) -> tuple[np.ndarray, np.ndarray]:
    """Surrogate per-level error targets that make the boundary matrix monotone.

    alpha~_k = alpha_1 (1 - beta_k) / (1 - beta_1) and
    beta~_k  = beta_1 (1 - alpha_k) / (1 - alpha_1); level 1 is unchanged and
    alpha~_k + beta_k <= 1 whenever alpha_1 + beta_1 <= 1.
    """
    if alpha.j != beta.j:
        raise ValueError("alpha and beta must have the same length")
    a1 = float(alpha.values[0])
    b1 = float(beta.values[0])
    if a1 + b1 > 1.0:
        raise ValueError(f"alpha_1 + beta_1 = {a1 + b1} exceeds 1")
    alpha_t = a1 * (1.0 - beta.values) / (1.0 - b1)
    beta_t = b1 * (1.0 - alpha.values) / (1.0 - a1)
    return alpha_t, beta_t


@dataclass(frozen=True)
class CriticalMatrix:
    """Monotone acceptance (a) and rejection (b) boundaries indexed by level.

    a is nondecreasing, b nonincreasing, and a[k] <= b[k] throughout, so the
    level-k continuation region nests as k grows.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).copy()
        b = np.asarray(self.b, dtype=float).copy()
        if a.shape != b.shape or a.ndim != 1 or a.size < 1:
            raise ValueError("a and b must be 1-D arrays of equal positive length")
        collapsed = np.nonzero(a > b)[0]
        if collapsed.size:
            k = int(collapsed[0]) + 1
            raise BoundaryCollapseError(
                f"acceptance boundary exceeds rejection boundary at level k={k}: "
                f"A_{k}={a[k - 1]:.6g} > B_{k}={b[k - 1]:.6g}"
            )
        check_ladders(a, b)
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def check_ladders(a, b) -> tuple[np.ndarray, np.ndarray]:
    """A step-down battery's acceptance and rejection ladders, checked, as floats.

    ``b`` is nonincreasing and ``a`` nondecreasing in level, with one entry
    per stream and ``a[-1] <= b[-1]``; NaN, another shape or order raises
    ValueError.  ``a`` None gives the truncated procedure's ladder, all
    -inf, which no finite statistic reaches.  Neighbours are compared
    directly, since the difference of two infinite entries is NaN.
    """
    b = np.asarray(b, dtype=float)
    a = np.full(b.shape, -np.inf) if a is None else np.asarray(a, dtype=float)
    if b.ndim != 1 or b.size < 1 or a.shape != b.shape:
        raise ValueError("boundary ladders must have one entry per stream")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("boundary ladders must not hold NaN")
    if np.any(a[1:] < a[:-1]) or np.any(b[1:] > b[:-1]):
        raise ValueError("a must be nondecreasing and b nonincreasing")
    if a[-1] > b[-1]:
        raise ValueError("boundaries cross: a[-1] > b[-1]")
    return a, b


def stepdown_critical_values(
    alpha: StepVector,
    beta: StepVector,
    rho: float = SIEGMUND_RHO,
) -> CriticalMatrix:
    """Boundary matrix for a J-level step-down battery of SPRTs.

    Level k uses the surrogate pair so that A_k depends only on beta_k and
    B_k only on alpha_k; ties in the step values therefore produce exactly
    tied boundaries.
    """
    alpha_t, beta_t = surrogate_errors(alpha, beta)
    j = alpha.j
    a = np.empty(j)
    b = np.empty(j)
    for k in range(j):
        a[k], _ = wald_bounds(alpha_t[k], beta.values[k], rho)
        _, b[k] = wald_bounds(alpha.values[k], beta_t[k], rho)
    return CriticalMatrix(a=a, b=b)


def _check_error_pair(alpha: float, beta: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if alpha + beta > 1.0:
        raise ValueError(f"alpha + beta = {alpha + beta} exceeds 1")
