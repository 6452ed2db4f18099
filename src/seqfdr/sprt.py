"""Wald-style sequential test boundaries and log-likelihood-ratio machinery.

One-parameter simple-vs-simple models supply i.i.d. log-likelihood-ratio
increments.  A step-down battery of J tests needs J acceptance boundaries
``A_1 <= ... <= A_J`` and J rejection boundaries ``B_J <= ... <= B_1``;
surrogate error levels keep the per-level error contracts intact while
making the boundary matrix monotone.  The cumulative LLR of a whole path is
an affine map of integer count totals, so equal lattice points give equal
floats, and per-step tables of count totals say exactly where it crosses
a threshold.  A piecewise-linear standardizer maps every stream's raw
boundaries onto one shared grid so streams with different models can be
compared on equal footing; streams that share one model compare raw
statistics directly, since a common strictly increasing map changes no
ordering and no crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import StepVector
from .errors import BoundaryCollapseError

__all__ = [
    "SIEGMUND_RHO",
    "SimpleModel",
    "CriticalMatrix",
    "Standardizer",
    "wald_bounds",
    "wald_bounds_conservative",
    "surrogate_errors",
    "stepdown_critical_values",
    "llr_increment",
    "llr_increments",
    "lattice_terms",
    "cumulative_llr",
    "crossing_counts",
    "make_standardizer",
    "make_upper_standardizer",
]

# mean overshoot correction for Brownian-scale random walks
SIEGMUND_RHO = 0.583

Family = Literal["bernoulli", "poisson", "conditional_binomial"]


@dataclass(frozen=True)
class SimpleModel:
    """Simple null vs simple alternative for one data stream.

    family:
        "bernoulli": success probabilities, observation in {0, 1}.
        "poisson": rates, observation a count.
        "conditional_binomial": success probabilities applied to a
            (successes, trials) pair; the trial count carries no evidence.
    """

    family: Family
    null_param: float
    alt_param: float

    def __post_init__(self):
        if self.family not in ("bernoulli", "poisson", "conditional_binomial"):
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = (0.0, 1.0) if self.family != "poisson" else (0.0, math.inf)
        for name, value in (("null_param", self.null_param), ("alt_param", self.alt_param)):
            if not lo < value < hi:
                raise ValueError(f"{name}={value} outside ({lo}, {hi}) for {self.family}")
        if self.null_param == self.alt_param:
            raise ValueError("null and alternative parameters must differ")

    @property
    def log_ratios(self) -> tuple[float, float]:
        """(per-success, per-failure) log ratio terms for the Bernoulli-like families."""
        if self.family == "poisson":
            raise ValueError("log_ratios undefined for the poisson family")
        p0, p1 = self.null_param, self.alt_param
        return math.log(p1 / p0), math.log((1.0 - p1) / (1.0 - p0))


def llr_increment(model: SimpleModel, obs) -> float:
    """Log-likelihood-ratio contribution of a single observation."""
    if model.family == "bernoulli":
        x = _check_count(obs, "bernoulli observation")
        if x not in (0, 1):
            raise ValueError(f"bernoulli observation must be 0 or 1, got {obs}")
        c1, c0 = model.log_ratios
        return c1 if x == 1 else c0
    if model.family == "poisson":
        x = _check_count(obs, "poisson observation")
        lam0, lam1 = model.null_param, model.alt_param
        return x * math.log(lam1 / lam0) - (lam1 - lam0)
    # conditional binomial on a (successes, trials) pair
    try:
        k, n = obs
    except (TypeError, ValueError):
        raise ValueError("conditional_binomial observation must be a (successes, trials) pair")
    k = _check_count(k, "success count")
    n = _check_count(n, "trial count")
    if k > n:
        raise ValueError(f"success count {k} exceeds trial count {n}")
    c1, c0 = model.log_ratios
    return k * c1 + (n - k) * c0


def llr_increments(model: SimpleModel, obs: np.ndarray) -> np.ndarray:
    """Vectorized ``llr_increment`` over a block of observations.

    Bernoulli/Poisson expect a 1-D count array; conditional binomial an
    (n, 2) array of (successes, trials) rows.  Inputs are trusted.
    """
    obs = np.asarray(obs)
    if model.family == "bernoulli":
        c1, c0 = model.log_ratios
        return np.where(obs == 1, c1, c0)
    if model.family == "poisson":
        lam0, lam1 = model.null_param, model.alt_param
        return obs * math.log(lam1 / lam0) - (lam1 - lam0)
    c1, c0 = model.log_ratios
    k = obs[:, 0]
    return k * c1 + (obs[:, 1] - k) * c0


def lattice_terms(model: SimpleModel) -> tuple[float, float]:
    """(per-count, per-trial) terms of the cumulative LLR.

    After ``w`` trials (Bernoulli and Poisson: observations) with count
    total ``x`` (successes or events) the LLR is ``x * slope + w * step``:
    Bernoulli and conditional binomial ``x (c1 - c0) + w c0``, Poisson
    ``x log(l1 / l0) - w (l1 - l0)``.
    """
    if model.family == "poisson":
        lam0, lam1 = model.null_param, model.alt_param
        return math.log(lam1 / lam0), -(lam1 - lam0)
    c1, c0 = model.log_ratios
    return c1 - c0, c0


def cumulative_llr(model: SimpleModel, x, w, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative LLR ``x * slope + w * step`` at integer count totals.

    ``x`` and ``w`` broadcast against each other; ``out`` may be a float
    array holding ``x`` itself, updated in place.  Integer totals are exact
    in float64, so the value depends only on the lattice point: a float
    ``cumsum`` of increments would split equal points into nearby values
    that depend on summation order.
    """
    slope, step = lattice_terms(model)
    out = np.multiply(x, slope, out=out)
    out += np.multiply(w, step)
    return out


# a count total no path reaches; exact in float64
_COUNT_CAP = 2**52


def crossing_counts(
    model: SimpleModel, threshold: float, upward: bool, horizon: int
) -> tuple[np.ndarray, bool]:
    """Count totals at which the cumulative LLR crosses ``threshold``, per step.

    Returns ``(t, at_least)``: an int64 table with ``t[n - 1]`` for steps
    ``n = 1..horizon`` such that ``cumulative_llr(model, x, n)`` crosses
    (``>= threshold`` if ``upward``, ``<= threshold`` otherwise) exactly
    when ``x >= t[n - 1]`` (``at_least``) or ``x <= t[n - 1]`` (not
    ``at_least``).  A closed-form guess is corrected against
    ``cumulative_llr`` itself, so the table agrees with the statistic the
    procedures compute to the last bit.  ``slope`` and ``step`` have
    opposite signs for every model, so the table is nondecreasing in n.
    An infinite threshold gives a constant table that no count, or every
    count, satisfies.
    """
    slope, step = lattice_terms(model)
    at_least = upward == (slope > 0.0)
    never, always = (_COUNT_CAP, 0) if at_least else (-1, _COUNT_CAP)
    if math.isinf(threshold):
        crossed = upward == (threshold < 0.0)
        return np.full(horizon, always if crossed else never, dtype=np.int64), at_least
    n = np.arange(1, horizon + 1)
    guess = (threshold - n * step) / slope
    guess = np.ceil(guess) if at_least else np.floor(guess)
    t = np.clip(guess, min(never, always), max(never, always)).astype(np.int64)

    def crossed(x):
        stat = cumulative_llr(model, x, n)
        return stat >= threshold if upward else stat <= threshold

    # the crossing set is {x >= t} or {x <= t}: move t onto its edge
    inward = -1 if at_least else 1
    while np.any(fix := (t != always) & crossed(t + inward)):
        t[fix] += inward
    while np.any(fix := (t != never) & ~crossed(t)):
        t[fix] -= inward
    return t, at_least


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


def wald_bounds_conservative(alpha: float, beta: float) -> tuple[float, float]:
    """Boundaries log(beta), -log(alpha): guaranteed error control, wider."""
    _check_error_pair(alpha, beta)
    return math.log(beta), -math.log(alpha)


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
        tol = 1e-12
        if np.any(np.diff(a) < -tol):
            raise ValueError("acceptance boundaries must be nondecreasing in level")
        if np.any(np.diff(b) > tol):
            raise ValueError("rejection boundaries must be nonincreasing in level")
        collapsed = np.nonzero(a > b)[0]
        if collapsed.size:
            k = int(collapsed[0]) + 1
            raise BoundaryCollapseError(
                f"acceptance boundary exceeds rejection boundary at level k={k}: "
                f"A_{k}={a[k - 1]:.6g} > B_{k}={b[k - 1]:.6g}"
            )
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def j(self) -> int:
        return int(self.a.size)


def stepdown_critical_values(
    alpha: StepVector,
    beta: StepVector,
    rho: float = SIEGMUND_RHO,
    conservative: bool = False,
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
        if conservative:
            a[k] = math.log(beta.values[k])
            b[k] = -math.log(alpha.values[k])
        else:
            a[k], _ = wald_bounds(alpha_t[k], beta.values[k], rho)
            _, b[k] = wald_bounds(alpha.values[k], beta_t[k], rho)
    return CriticalMatrix(a=a, b=b)


@dataclass(frozen=True)
class Standardizer:
    """Piecewise-linear strictly increasing map onto a standard boundary grid.

    ``raw_knots``/``std_knots`` pin the map; between knots it interpolates,
    beyond the extreme knots it continues with slope 1.  ``a``/``b`` hold the
    standardized per-level boundaries (``a`` is None for upper-only maps).
    """

    raw_knots: np.ndarray
    std_knots: np.ndarray
    a: np.ndarray | None
    b: np.ndarray

    def apply(self, x):
        arr = np.asarray(x, dtype=float)
        raw, std = self.raw_knots, self.std_knots
        out = np.interp(arr, raw, std)
        below = arr < raw[0]
        above = arr > raw[-1]
        if np.any(below):
            out = np.where(below, std[0] - (raw[0] - arr), out)
        if np.any(above):
            out = np.where(above, std[-1] + (arr - raw[-1]), out)
        if np.ndim(x) == 0:
            return float(out)
        return out


def make_standardizer(
    crit: CriticalMatrix,
    lower_targets: Sequence[float] | None = None,
    upper_targets: Sequence[float] | None = None,
) -> Standardizer:
    """Standardizer pinning phi(A_k) = a_k and phi(B_k) = b_k.

    Default grid: a_k = -(J - k + 1) (so levels 1..J sit at -J..-1) and
    b_k = J - k + 1 (levels 1..J at J..1).  Tied raw boundaries collapse to
    the earliest level's grid value, keeping the map strictly increasing.
    """
    j = crit.j
    if lower_targets is None:
        lower_targets = np.arange(-j, 0, dtype=float)
    if upper_targets is None:
        upper_targets = np.arange(j, 0, -1, dtype=float)
    lower_targets = np.asarray(lower_targets, dtype=float)
    upper_targets = np.asarray(upper_targets, dtype=float)
    if lower_targets.shape != (j,) or upper_targets.shape != (j,):
        raise ValueError("targets must have one value per level")

    a_std = _collapse_targets(crit.a, lower_targets)
    b_std = _collapse_targets(crit.b, upper_targets)
    # knots in ascending raw order: A_1..A_J then B_J..B_1
    raw = np.concatenate([crit.a, crit.b[::-1]])
    std = np.concatenate([a_std, b_std[::-1]])
    raw_knots, std_knots = _dedupe_knots(raw, std)
    return Standardizer(raw_knots=raw_knots, std_knots=std_knots, a=a_std, b=b_std)


def make_upper_standardizer(
    b: np.ndarray, targets: Sequence[float] | None = None
) -> Standardizer:
    """Standardizer for rejection-only boundary vectors (truncated designs)."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("b must be a nonempty 1-D array")
    if np.any(np.diff(b) > 1e-12):
        raise ValueError("rejection boundaries must be nonincreasing in level")
    j = b.size
    if targets is None:
        targets = np.arange(j, 0, -1, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (j,):
        raise ValueError("targets must have one value per level")
    b_std = _collapse_targets(b, targets)
    raw_knots, std_knots = _dedupe_knots(b[::-1], b_std[::-1])
    return Standardizer(raw_knots=raw_knots, std_knots=std_knots, a=None, b=b_std)


def _collapse_targets(raw: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Give tied raw boundaries the target of the earliest tied level."""
    out = targets.astype(float).copy()
    start = 0
    for k in range(1, raw.size + 1):
        if k == raw.size or raw[k] != raw[start]:
            out[start:k] = out[start]
            start = k
    return out


def _dedupe_knots(raw: np.ndarray, std: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = np.ones(raw.size, dtype=bool)
    for i in range(1, raw.size):
        if raw[i] == raw[i - 1]:
            if std[i] != std[i - 1]:
                raise ValueError(
                    "duplicate raw boundary with conflicting grid targets "
                    f"at value {raw[i]:.6g}"
                )
            keep[i] = False
    raw_k = raw[keep]
    std_k = std[keep]
    if np.any(np.diff(raw_k) <= 0.0):
        raise ValueError("raw boundary knots must be strictly increasing after collapse")
    if np.any(np.diff(std_k) <= 0.0):
        raise ValueError("grid targets must be strictly increasing after collapse")
    raw_k.setflags(write=False)
    std_k.setflags(write=False)
    return raw_k, std_k


def _check_count(value, label: str) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{label} must be an integer count")
    if not isinstance(value, (int, np.integer)):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise ValueError(f"{label} must be an integer count, got {value!r}")
    if value < 0:
        raise ValueError(f"{label} must be nonnegative, got {value}")
    return int(value)


def _check_error_pair(alpha: float, beta: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if alpha + beta > 1.0:
        raise ValueError(f"alpha + beta = {alpha + beta} exceeds 1")
