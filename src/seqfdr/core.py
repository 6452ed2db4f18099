"""Step-value vectors and the arbitrary-dependence FDR bound.

A step-down multiple testing procedure is parameterized by a nondecreasing
vector of error levels, one per rejection rank.  For any such vector the
worst-case false discovery rate over all joint dependence structures admits
a closed-form bound; rescaling the vector by that bound yields exact FDR
control at a target level without any independence assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StepVector",
    "BoundResult",
    "d_bound_at",
    "d_bound",
    "bh_steps",
    "bl_steps",
    "scale_for_fdr",
    "scale_for_pfdr",
]


@dataclass(frozen=True)
class StepVector:
    """Nondecreasing vector of per-rank error levels in (0, 1].

    ``values[k - 1]`` is the level spent on the k-th decision (1-based rank).
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("step values must form a nonempty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("step values must be finite")
        if arr[0] <= 0.0 or arr[-1] > 1.0:
            raise ValueError("step values must lie in (0, 1]")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("step values must be nondecreasing")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def j(self) -> int:
        """Number of hypotheses / ranks."""
        return int(self.values.size)

    def scaled(self, factor: float) -> "StepVector":
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return StepVector(self.values * factor)


@dataclass(frozen=True)
class BoundResult:
    """Worst-case FDR bound together with the maximizing null count."""

    value: float
    argmax_m: int
    per_m: np.ndarray = field(repr=False)


def d_bound_at(alpha: StepVector, m: int) -> float:
    """Worst-case FDR of the step-down procedure when exactly ``m`` nulls are true.

    The bound holds under arbitrary joint dependence of the test statistics.
    ``m = 0`` gives 0 (no null can be falsely rejected).
    """
    if not isinstance(m, (int, np.integer)):
        raise ValueError("m must be an integer")
    if m < 0 or m > alpha.j:
        raise ValueError(f"m must lie in [0, {alpha.j}], got {m}")
    return float(d_bound(alpha).per_m[m])


def d_bound(alpha: StepVector) -> BoundResult:
    """Maximize the per-null-count bound over all possible null counts.

    Returns the overall worst-case FDR bound, the first maximizing null
    count, and the full profile for m = 0 .. J.  With Delta_k the step
    increments, D(alpha, m) = m (sum_{k <= h} Delta_k / k + (J - m)
    sum_{k > h} Delta_k / (k (k - 1))) for h = J - m + 1: a prefix sum and
    a suffix sum, both taken once for every m.
    """
    j = alpha.j
    diffs = np.diff(alpha.values, prepend=0.0)
    ranks = np.arange(1, j + 1, dtype=float)
    prefix = np.cumsum(diffs / ranks)
    # suffix[h] = sum over 0-based ranks >= h, so suffix[j] = 0
    late = np.zeros(j + 1)
    late[1:j] = diffs[1:] / (ranks[1:] * (ranks[1:] - 1.0))
    suffix = np.cumsum(late[::-1])[::-1]
    m = np.arange(1, j + 1)
    head = j - m + 1
    per_m = np.concatenate(([0.0], m * (prefix[head - 1] + (j - m) * suffix[head])))
    argmax = int(np.argmax(per_m))
    per_m.setflags(write=False)
    return BoundResult(value=float(per_m[argmax]), argmax_m=argmax, per_m=per_m)


def bh_steps(q: float, j: int) -> StepVector:
    """Linear step values ``q * k / J`` for ranks k = 1 .. J."""
    _check_q_j(q, j)
    return StepVector(q * np.arange(1, j + 1) / j)


def bl_steps(q: float, j: int) -> StepVector:
    """Steeper step values that spend more level on early rejections.

    alpha_k = 1 - (1 - min(1, qJ / (J - k + 1)))**(1 / (J - k + 1)).
    """
    _check_q_j(q, j)
    k = np.arange(1, j + 1)
    remaining = j - k + 1
    inner = np.minimum(1.0, q * j / remaining)
    return StepVector(1.0 - (1.0 - inner) ** (1.0 / remaining))


def scale_for_fdr(alpha: StepVector, q: float) -> StepVector:
    """Rescale step values so the worst-case FDR bound equals ``q``.

    The bound is positively homogeneous, so dividing by its value at
    ``alpha`` and multiplying by ``q`` achieves FDR <= q under arbitrary
    dependence.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    d = d_bound(alpha).value
    return alpha.scaled(q / d)


def scale_for_pfdr(alpha: StepVector, q: float, gamma: float) -> StepVector:
    """Rescale step values for positive FDR control at level ``q``.

    ``gamma`` is a lower bound on the probability that at least one
    rejection is ever made; the positive FDR (conditional on rejecting at
    all) is then bounded by the plain bound divided by ``gamma``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    d = d_bound(alpha).value
    return alpha.scaled(q * gamma / d)


def _check_q_j(q: float, j) -> None:
    if not isinstance(j, (int, np.integer)):
        raise ValueError("J must be an integer")
    if j < 1:
        raise ValueError("J must be at least 1")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
