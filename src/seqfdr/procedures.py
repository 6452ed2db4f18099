"""Sequential step-down procedures over a matrix of stream statistics.

All streams are sampled in lockstep, so a trial is one (n, J) statistic
matrix whose row n - 1 holds every stream's statistic after step n.  A
stage ends at the first row where some active stream's statistic leaves
the current continuation interval; the stage then rejects a maximal top
block and/or accepts a maximal bottom block of the ordered active
statistics against boundary levels offset by the decisions already made.
The open-ended variant runs until every stream is decided; the rejective
variant only rejects, accepting whatever remains at a fixed truncation
horizon.  The matrix may arrive whole or as an iterator of row blocks
that is read only as far as the stages need.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataUnderrunError, StageGuardError

__all__ = [
    "Decision",
    "TrialResult",
    "MetricsSummary",
    "run_open_ended",
    "run_rejective",
    "summarize",
]


@dataclass(frozen=True)
class Decision:
    """Terminal decision for one stream.

    ``level`` is the cumulative boundary rank the statistic crossed (for
    truncation acceptances, the ascending rank among the streams accepted
    together at the horizon).
    """

    stream: int
    action: str  # "reject" | "accept"
    step: int
    level: int
    truncated: bool = False


@dataclass(frozen=True)
class TrialResult:
    """Decisions for all streams of one trial."""

    decisions: tuple[Decision, ...]

    def __post_init__(self):
        by_stream = sorted(self.decisions, key=lambda d: d.stream)
        if [d.stream for d in by_stream] != list(range(len(by_stream))):
            raise ValueError("decisions must cover streams 0..J-1 exactly once")
        object.__setattr__(self, "decisions", tuple(by_stream))

    @property
    def j(self) -> int:
        return len(self.decisions)

    @property
    def n_rejected(self) -> int:
        return sum(d.action == "reject" for d in self.decisions)

    @property
    def max_n(self) -> int:
        return max(d.step for d in self.decisions)

    @property
    def total_samples(self) -> int:
        # lockstep sampling: each stream is observed up to its decision step
        return sum(d.step for d in self.decisions)

    def error_counts(self, truth: Sequence[bool | None]) -> tuple[int, int, int]:
        """(false rejections, false acceptances, total rejections).

        ``truth[j]`` True marks a true null, False a true signal, None a
        stream excluded from the error counts (but not from R).
        """
        if len(truth) != self.j:
            raise ValueError("truth must have one entry per stream")
        v = w = r = 0
        for d, t in zip(self.decisions, truth):
            if d.action == "reject":
                r += 1
                if t is True:
                    v += 1
            else:
                if t is False:
                    w += 1
        return v, w, r


@dataclass(frozen=True)
class MetricsSummary:
    """Error-rate and sample-size estimates over a batch of trials.

    ``pfdr``/``pfnr`` condition on trials with at least one rejection /
    acceptance-capacity respectively and are None when no trial qualifies.
    Standard errors are sample SDs over trials divided by sqrt(count); 0.0
    when fewer than two trials enter a mean.
    """

    n_trials: int
    fdr: float
    fdr_se: float
    fnr: float
    fnr_se: float
    pfdr: float | None
    pfdr_se: float | None
    pfnr: float | None
    pfnr_se: float | None
    mean_max_n: float
    mean_max_n_se: float
    mean_stream_n: float
    mean_stream_n_se: float
    n_trials_with_rejection: int
    n_trials_with_acceptance: int

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        raise ValueError("cannot summarize zero trials")
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def summarize(trials: Sequence[TrialResult], truth: Sequence[bool | None]) -> MetricsSummary:
    """Trial-averaged FDR/FNR (and their positive variants) plus sample sizes."""
    if not trials:
        raise ValueError("cannot summarize zero trials")
    j = trials[0].j
    counts = np.array([t.error_counts(truth) for t in trials], dtype=float)
    v, w, r = counts[:, 0], counts[:, 1], counts[:, 2]
    fdp = v / np.maximum(r, 1.0)
    fnp = w / np.maximum(j - r, 1.0)
    fdr, fdr_se = _mean_se(fdp)
    fnr, fnr_se = _mean_se(fnp)
    with_rej = r >= 1.0
    not_all_rej = r < j
    pfdr = pfdr_se = pfnr = pfnr_se = None
    if with_rej.any():
        pfdr, pfdr_se = _mean_se(fdp[with_rej])
    if not_all_rej.any():
        pfnr, pfnr_se = _mean_se(fnp[not_all_rej])
    max_n, max_n_se = _mean_se(np.array([t.max_n for t in trials], dtype=float))
    stream_n, stream_n_se = _mean_se(
        np.array([t.total_samples / t.j for t in trials], dtype=float)
    )
    return MetricsSummary(
        n_trials=len(trials),
        fdr=fdr,
        fdr_se=fdr_se,
        fnr=fnr,
        fnr_se=fnr_se,
        pfdr=pfdr,
        pfdr_se=pfdr_se,
        pfnr=pfnr,
        pfnr_se=pfnr_se,
        mean_max_n=max_n,
        mean_max_n_se=max_n_se,
        mean_stream_n=stream_n,
        mean_stream_n_se=stream_n_se,
        n_trials_with_rejection=int(with_rej.sum()),
        n_trials_with_acceptance=int(not_all_rej.sum()),
    )


def _max_top_block(sorted_vals, b, r):
    """Largest t such that the top-t ordered statistics clear their offset levels."""
    sz = len(sorted_vals)
    t = 0
    for pos in range(sz, 0, -1):  # 1-based position from the bottom
        if sorted_vals[pos - 1] >= b[r + sz - pos]:
            t += 1
        else:
            break
    return t


def _max_bottom_block(sorted_vals, a, c):
    sz = len(sorted_vals)
    t = 0
    for pos in range(1, sz + 1):
        if sorted_vals[pos - 1] <= a[c + pos - 1]:
            t += 1
        else:
            break
    return t


def _step_down(paths, a, b, n_bar, guard) -> TrialResult:
    """Stage loop shared by both variants.

    ``a`` None means rejections only; ``n_bar`` None means no horizon, so
    the run ends only when every stream is decided or the paths run out.
    """
    j = len(b)
    if isinstance(paths, Iterator):
        blocks, mat = paths, np.empty((0, j))
    else:
        blocks, mat = iter(()), np.asarray(paths, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != j:
            raise ValueError("paths must be an (n, J) matrix with one column per boundary level")
    a = None if a is None else a.tolist()
    b = b.tolist()
    decisions: list[Decision | None] = [None] * j
    active = np.arange(j)
    r = c = n = stage = 0

    def state():
        return {
            "stage": stage,
            "step": n,
            "r": r,
            "c": c,
            "active": active.tolist(),
            "decisions": [d for d in decisions if d is not None],
        }

    while active.size:
        stage += 1
        if stage > guard:
            raise StageGuardError(f"stage count exceeded guard ({guard})", state=state())
        lo, hi = (None if a is None else a[c]), b[r]
        scan, hit = n, None
        while hit is None and scan != n_bar:
            stop = mat.shape[0] if n_bar is None else min(mat.shape[0], n_bar)
            if stop > scan:
                seg = mat[scan:stop, active]
                out = seg >= hi if lo is None else (seg <= lo) | (seg >= hi)
                rows = out.any(axis=1)
                if rows.any():
                    hit = scan + int(rows.argmax()) + 1
                scan = stop
            elif (block := next(blocks, None)) is not None:
                mat = np.concatenate([mat, block])
            else:
                raise DataUnderrunError(
                    f"streams {active.tolist()} exhausted at step {scan} before any "
                    "decision boundary was crossed",
                    state=state(),
                )
        n = n_bar if hit is None else hit
        vals = mat[n - 1, active]
        order = np.lexsort((active, vals))
        ranked = active[order]
        sorted_vals, ids = vals[order].tolist(), ranked.tolist()
        if hit is None:
            # horizon reached: accept the rest, ranked by final statistic
            for pos, jj in enumerate(ids, start=1):
                decisions[jj] = Decision(stream=jj, action="accept", step=n, level=pos,
                                         truncated=True)
            break
        sz = len(ids)
        t_rej = _max_top_block(sorted_vals, b, r) if sorted_vals[-1] >= hi else 0
        t_acc = 0 if lo is None or sorted_vals[0] > lo else _max_bottom_block(sorted_vals, a, c)
        # only reachable when a[-1] == b[-1] and a statistic sits exactly there
        t_acc = min(t_acc, sz - t_rej)
        for pos in range(sz - t_rej + 1, sz + 1):
            decisions[ids[pos - 1]] = Decision(
                stream=ids[pos - 1], action="reject", step=n, level=r + sz - pos + 1
            )
        for pos in range(1, t_acc + 1):
            decisions[ids[pos - 1]] = Decision(
                stream=ids[pos - 1], action="accept", step=n, level=c + pos
            )
        r += t_rej
        c += t_acc
        active = np.sort(ranked[t_acc : sz - t_rej])
    return TrialResult(decisions=tuple(decisions))


def run_open_ended(
    paths,
    a: np.ndarray,
    b: np.ndarray,
    max_stages_guard: int | None = None,
) -> TrialResult:
    """Run the open-ended step-down procedure until every stream is decided.

    ``paths`` is the (n, J) statistic matrix, row n - 1 holding step n, or
    an iterator of its consecutive row blocks; running out of rows before
    every stream is decided raises DataUnderrunError.  ``a``/``b`` are the
    acceptance/rejection boundary vectors indexed by cumulative level (a
    nondecreasing, b nonincreasing, a[-1] <= b[-1]), in the statistic's
    units.  A stream rejected as the position-``pos`` ordered statistic of
    a stage with ``size`` active streams and ``r`` prior rejections gets
    cumulative level ``r + size - pos + 1``; an accepted one at bottom
    position ``pos`` with ``c`` prior acceptances gets ``c + pos``.  Ties
    order by stream index.  Errors carry the procedure state (stage, step,
    r, c, active streams and decisions so far) in ``state``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("boundary vectors must have one entry per stream")
    if np.any(np.diff(a) < 0.0) or np.any(np.diff(b) > 0.0):
        raise ValueError("a must be nondecreasing and b nonincreasing")
    if a[-1] > b[-1]:
        raise ValueError("boundaries cross: a[-1] > b[-1]")
    guard = a.size if max_stages_guard is None else int(max_stages_guard)
    return _step_down(paths, a, b, None, guard)


def run_rejective(paths, b: np.ndarray, n_bar: int) -> TrialResult:
    """Run the rejective (truncated) step-down procedure up to ``n_bar`` steps.

    ``paths`` is as for ``run_open_ended`` and is read no further than
    ``n_bar`` rows.  Stages only reject; if the horizon arrives, every
    still-active stream is accepted there with ``truncated=True`` and
    levels by ascending order of the final statistics.  ``n_bar = 1``
    reduces to a one-shot step-down test.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("boundary vector must have one entry per stream")
    if np.any(np.diff(b) > 0.0):
        raise ValueError("b must be nonincreasing")
    if n_bar < 1:
        raise ValueError("n_bar must be at least 1")
    return _step_down(paths, None, b, n_bar, b.size)
