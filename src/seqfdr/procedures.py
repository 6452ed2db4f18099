"""Sequential step-down procedures over batches of stream-statistic paths.

All streams are sampled in lockstep, so a trial's statistics form an
(n, J) path matrix whose row n - 1 holds every stream's statistic after
step n.  A stage ends at the first row where some active stream's
statistic leaves the current continuation interval; the stage then
rejects a maximal top block and/or accepts a maximal bottom block of the
ordered active statistics against boundary levels offset by the decisions
already made.  The open-ended variant runs until every stream is decided;
the rejective variant only rejects, accepting whatever remains at a fixed
truncation horizon.  Both run one stage loop, the rejective one with an
acceptance ladder of -inf, over a whole batch of trials at once
(``run_batch``): each round runs a stage of every undecided trial, and a
source hands out the next row block of just the trials that scanned all
their rows.  That source, ``take(ids)``, is the one way rows reach the
loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataUnderrunError
from .sprt import check_ladders

__all__ = [
    "Decisions",
    "MetricsSummary",
    "run_batch",
    "summarize",
    "work_counts",
]


class Decisions(NamedTuple):
    """Terminal decisions of a batch of trials: one (trials, J) array each.

    Row i, column s is stream s of trial i: whether it was rejected (else
    accepted), its decision step, the cumulative boundary rank its
    statistic crossed (for truncation acceptances, the ascending rank among
    the streams accepted together at the horizon) and whether it was
    accepted at the truncation horizon.
    """

    rejected: np.ndarray  # bool
    step: np.ndarray  # int64
    level: np.ndarray  # int64
    truncated: np.ndarray  # bool


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
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def summarize(decisions: Decisions, truth: Sequence[bool | None]) -> MetricsSummary:
    """Trial-averaged FDR/FNR (and their positive variants) plus sample sizes.

    ``truth[s]`` True marks stream s a true null, False a true signal, None
    a stream excluded from the error counts V and W (but not from R).
    Python and NumPy booleans are accepted; any other entry raises
    ValueError.  Streams are sampled in lockstep, so a trial's sample size
    is its last decision step and a stream's is its own decision step.
    """
    rejected, step = decisions.rejected, decisions.step
    trials, j = rejected.shape
    if not trials:
        raise ValueError("cannot summarize zero trials")
    if len(truth) != j:
        raise ValueError("truth must have one entry per stream")
    if not all(t is None or isinstance(t, (bool, np.bool_)) for t in truth):
        raise ValueError("truth entries must be True, False or None")
    null = np.array([t is not None and bool(t) for t in truth], bool)
    signal = np.array([t is not None and not t for t in truth], bool)
    v = np.count_nonzero(rejected & null, axis=1)
    w = np.count_nonzero(~rejected & signal, axis=1)
    r = np.count_nonzero(rejected, axis=1)
    fdp = v / np.maximum(r, 1.0)
    fnp = w / np.maximum(j - r, 1.0)
    fdr, fdr_se = _mean_se(fdp)
    fnr, fnr_se = _mean_se(fnp)
    with_rej = r >= 1
    not_all_rej = r < j
    pfdr = pfdr_se = pfnr = pfnr_se = None
    if with_rej.any():
        pfdr, pfdr_se = _mean_se(fdp[with_rej])
    if not_all_rej.any():
        pfnr, pfnr_se = _mean_se(fnp[not_all_rej])
    max_n, max_n_se = _mean_se(step.max(axis=1).astype(float))
    stream_n, stream_n_se = _mean_se(step.sum(axis=1) / j)
    return MetricsSummary(
        n_trials=trials,
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


def _step_down(take, trials: int, a, b, n_bar, tally) -> Decisions:
    """Stage loop shared by both variants, over a batch of trials at once.

    ``take(ids)`` returns the next row block of every listed trial, stacked
    in the order of ``ids``, and each block's row count (0: no rows left).
    ``n_bar`` None means no horizon, so a trial ends only when every stream
    is decided or its rows run out.  Every trial's first block is read
    before the first round.  Each round runs one stage of every undecided
    trial, or reads the next block of those that scanned all their rows
    without a crossing.  Only the undecided trials' current
    blocks are held, in one (trials, rows, J) array, with their active
    streams and continuation intervals; scans never return to earlier
    blocks.  The array work of a round, the scan for first exits and the
    ranking of the exit rows, covers every trial at once.  The top and
    bottom blocks are then read off each ranked row from its ends, one
    comparison per decided stream and one to stop.
    """
    j = b.size
    b_of = b.tolist() + [np.inf]  # b[r]; r == j once every stream is rejected
    a_of = a.tolist() + [-np.inf]  # a[c]; c == j once every stream is accepted
    # per trial: its streams' decisions (step 0: undecided), r, c, active
    # count, last stage's step, stages done, rows scanned, first row and
    # length of the held block
    rejected, truncated = ([[False] * j for _ in range(trials)] for _ in range(2))
    step, level = ([[0] * j for _ in range(trials)] for _ in range(2))
    r, c, size = [0] * trials, [0] * trials, [j] * trials
    n, stages, scan, base, held = ([0] * trials for _ in range(5))
    failed = {}  # trial -> its error; the first trial's is raised once all have run
    decision_steps = 0
    # the undecided trials; row k of the arrays below is live[k]'s
    live = list(range(trials))
    block = np.empty((trials, 0, j))
    act = np.ones((trials, j), bool)
    hi = np.full(trials, b_of[0])
    lo = np.full(trials, a_of[0])

    def state(i, k):
        return {
            "stage": stages[i] + 1,
            "step": n[i],
            "r": r[i],
            "c": c[i],
            "active": np.flatnonzero(act[k]).tolist(),
            "decisions": [
                {"stream": s, "action": "reject" if rejected[i][s] else "accept",
                 "step": step[i][s], "level": level[i][s], "truncated": truncated[i][s]}
                for s in range(j) if step[i][s]
            ],
        }

    def ranked_rows(ks, offs):
        """Each trial's row and its streams ranked: active ones first by
        statistic, ties by stream index, then the inactive ones."""
        vals = block[ks, offs]
        return vals.tolist(), np.lexsort((vals, ~act[ks]), axis=1).tolist()

    # rows of live whose trials read their next block: at first every trial
    missed = list(range(trials))
    while True:
        if missed:
            vals, counts = take(np.array([live[k] for k in missed]))
            if tally is not None:
                tally["matrix_rows"] += int(counts.sum())
                tally["path_blocks"] += len(missed)
            width = int(counts.max())
            if width > block.shape[1]:
                grown = np.empty((len(live), width, j))
                grown[:, : block.shape[1]] = block
                block = grown
            offsets = np.arange(len(vals)) - np.repeat(np.cumsum(counts) - counts, counts)
            block[np.repeat(missed, counts), offsets] = vals
            for k, count in zip(missed, counts.tolist()):
                i = live[k]
                if not count:
                    failed[i] = DataUnderrunError(
                        f"streams {np.flatnonzero(act[k]).tolist()} exhausted at step "
                        f"{scan[i]} before any decision boundary was crossed",
                        state=state(i, k),
                    )
                    size[i] = 0
                base[i], held[i] = scan[i], count
        keep = [k for k, i in enumerate(live) if size[i]]
        if len(keep) < len(live):
            live = [live[k] for k in keep]
            block, act, hi, lo = block[keep], act[keep], hi[keep], lo[keep]
        if not live:
            break
        # first row at or after each trial's scan where an active stream
        # leaves the continuation interval
        starts = [scan[i] - base[i] for i in live]
        stops = [held[i] if n_bar is None else min(held[i], n_bar - base[i]) for i in live]
        first, last = min(starts), max(stops)
        seg = block[:, first:last]
        out = (seg >= hi[:, None, None]) | (seg <= lo[:, None, None])
        out &= act[:, None, :]
        rows = out.any(axis=2)
        if len(live) > 1:
            at = np.arange(first, last)
            rows &= (at >= np.array(starts)[:, None]) & (at < np.array(stops)[:, None])
        hit = rows.any(axis=1).tolist()
        hits = [k for k, x in enumerate(hit) if x]
        if hits:
            exits = rows.argmax(axis=1).tolist()
            offs = [first + exits[k] for k in hits]
            for k, vals, ranks, off in zip(hits, *ranked_rows(hits, offs), offs):
                i = live[k]
                sz, at_step = size[i], base[i] + off + 1
                # the top block: the statistic t places from the top clears b[r + t]
                t_rej = 0
                while t_rej < sz and vals[ranks[sz - 1 - t_rej]] >= b_of[r[i] + t_rej]:
                    t_rej += 1
                # the bottom block: the statistic p places from the bottom
                # stays at or below a[c + p], short of the rejected ones
                t_acc = 0
                while t_acc < sz - t_rej and vals[ranks[t_acc]] <= a_of[c[i] + t_acc]:
                    t_acc += 1
                rej, stp, lvl = rejected[i], step[i], level[i]
                for p, s in enumerate(ranks[sz - t_rej : sz], sz - t_rej):
                    rej[s], stp[s], lvl[s] = True, at_step, r[i] + sz - p
                    act[k, s] = False
                for p, s in enumerate(ranks[:t_acc]):
                    stp[s], lvl[s] = at_step, c[i] + p + 1
                    act[k, s] = False
                decision_steps += at_step * (t_rej + t_acc)
                r[i] += t_rej
                c[i] += t_acc
                size[i] = sz - t_rej - t_acc
                n[i] = scan[i] = at_step
                stages[i] += 1
                hi[k], lo[k] = b_of[r[i]], a_of[c[i]]
        missed = [k for k, x in enumerate(hit) if not x]
        for k in missed:
            scan[live[k]] = base[live[k]] + stops[k]
        ends = [k for k in missed if scan[live[k]] == n_bar]
        if ends:
            # horizon reached: accept the rest, ranked by final statistic
            _, order = ranked_rows(ends, [n_bar - 1 - base[live[k]] for k in ends])
            for k, ranks in zip(ends, order):
                i = live[k]
                for p, s in enumerate(ranks[: size[i]]):
                    step[i][s], level[i][s], truncated[i][s] = n_bar, p + 1, True
                    act[k, s] = False
                decision_steps += n_bar * size[i]
                size[i] = 0
                n[i] = n_bar
                stages[i] += 1
            missed = [k for k in missed if scan[live[k]] != n_bar]
    if failed:
        raise failed[min(failed)]
    if tally is not None:
        tally["trials"] += trials
        tally["stages"] += sum(stages)
        tally["decision_steps"] += decision_steps
    return Decisions(np.array(rejected, bool), np.array(step, np.int64),
                     np.array(level, np.int64), np.array(truncated, bool))


def run_batch(take, trials: int, a, b, n_bar: int | None = None, *,
              tally: Counter | None = None) -> Decisions:
    """Run ``trials`` trials of one procedure at once, through one stage loop.

    ``take(ids)`` reads the trials' statistics: given an array of trial
    indices in [0, trials), it returns ``(rows, counts)``, the next row
    block of each listed trial stacked in the order of ``ids`` and the
    blocks' row counts, 0 for a trial with no rows left.  Row n - 1 of a
    trial holds every stream's statistic after step n.  ``a``/``b`` are the
    acceptance/rejection ladders indexed by cumulative level, in the
    statistic's units (``sprt.check_ladders``).  Exactly one of ``a`` and
    ``n_bar`` is given: ``a`` runs the open-ended procedure until every
    stream is decided; ``n_bar`` runs the rejective one, whose stages only
    reject and which reads no further than ``n_bar`` rows.  If the horizon
    arrives, every still-active stream is accepted there with
    ``truncated`` set and levels by ascending order of the final
    statistics, in one last stage; ``n_bar = 1`` is a one-shot step-down
    test.

    A stream rejected as the position-``pos`` ordered statistic of a stage
    with ``size`` active streams and ``r`` prior rejections gets cumulative
    level ``r + size - pos + 1``; an accepted one at bottom position
    ``pos`` with ``c`` prior acceptances gets ``c + pos``.  Ties order by
    stream index.  Returns one ``Decisions`` row per trial, in index order;
    each trial decides as it would alone.  A trial whose rows run out
    before every stream is decided fails with DataUnderrunError, whose
    ``state`` holds the procedure state (stage, step, r, c, active streams
    and decisions so far).  The other trials still run, and the error of
    the first failing trial in index order is raised, as a loop over the
    trials one at a time would raise it.  ``tally`` (a Counter), when
    given, gains the work counts: trials, stages, statistic rows and
    blocks read, and decision steps (summed over streams).
    """
    if (a is None) == (n_bar is None):
        raise ValueError("give exactly one of a (open-ended) and n_bar (rejective)")
    if n_bar is not None and n_bar < 1:
        raise ValueError("n_bar must be at least 1")
    a, b = check_ladders(a, b)
    return _step_down(take, trials, a, b, n_bar, tally)


def work_counts(tally: Counter) -> dict:
    """A run's engine counters as reported: per-trial stages and the totals.

    ``path_extensions`` counts the blocks read after each trial's first.
    """
    return {
        "trials": tally["trials"],
        "stages_per_trial": tally["stages"] / tally["trials"],
        "matrix_rows": tally["matrix_rows"],
        "decision_steps": tally["decision_steps"],
        "path_extensions": tally["path_blocks"] - tally["trials"],
    }
