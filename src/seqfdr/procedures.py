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
(``run_batch``).  The batch reads its rows in lockstep: a source,
``take(ids)``, the one way rows reach the loop, hands out one block for
every undecided trial, and each round runs a stage of every trial with a
crossing left in that block.
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


def summarize(decisions: Decisions, truth: Sequence[bool]) -> MetricsSummary:
    """Trial-averaged FDR/FNR (and their positive variants) plus sample sizes.

    ``truth[s]`` True marks stream s a true null, False a true signal.
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
    if not all(isinstance(t, (bool, np.bool_)) for t in truth):
        raise ValueError("truth entries must be True or False")
    null = np.array(truth, bool)
    v = np.count_nonzero(rejected & null, axis=1)
    w = np.count_nonzero(~rejected & ~null, axis=1)
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


def run_batch(take, trials: int, a, b, n_bar: int | None = None, *,
              tally: Counter | None = None) -> Decisions:
    """Run ``trials`` trials of one procedure at once, through one stage loop.

    ``take(ids)`` reads the trials' statistics: given an array of trial
    indices in [0, trials), it returns the next row block of every listed
    trial, one (len(ids), rows, J) array in the order of ``ids`` (no rows:
    none left); the batch reads in lockstep, so every take is the block
    after the last one, and a trial once left out is never listed again.
    Row n - 1 of a trial holds every stream's statistic after step n.
    ``a``/``b`` are the acceptance/rejection ladders indexed by cumulative
    level, in the statistic's units (``sprt.check_ladders``).  Exactly one
    of ``a`` and ``n_bar`` is given: ``a`` runs the open-ended procedure
    until every stream is decided; ``n_bar`` runs the rejective one, whose
    stages only reject and which reads no further than ``n_bar`` rows.  If
    the horizon arrives, every still-active stream is accepted there with
    ``truncated`` set and levels by ascending order of the final
    statistics, in one last stage; ``n_bar = 1`` is a one-shot step-down
    test.

    Each block is read once, for every undecided trial, and only that
    block is held, with the trials' active streams and continuation
    intervals; scans never return to earlier blocks.  Within a block, each
    round runs one stage of every trial with a crossing left in it.  The
    array work of a round, the scan for first exits from each trial's scan
    position and the ranking of the exit rows, covers those trials at
    once.  The top and bottom blocks are then read off each ranked row
    from its ends, one comparison per decided stream and one to stop.

    A stream rejected as the position-``pos`` ordered statistic of a stage
    with ``size`` active streams and ``r`` prior rejections gets cumulative
    level ``r + size - pos + 1``; an accepted one at bottom position
    ``pos`` with ``c`` prior acceptances gets ``c + pos``.  Ties order by
    stream index.  Returns one ``Decisions`` row per trial, in index order;
    each trial decides as it would alone.  A block with no rows fails
    every undecided trial at once with DataUnderrunError, and the first
    of them in index order is raised, as a loop over the trials one at a
    time would raise it; its ``state`` holds the procedure state (stage,
    step of the last stage, r, c, active streams and decisions so far).
    ``tally`` (a Counter), when given, gains the work counts: trials,
    stages, statistic rows and blocks read, and decision steps (summed
    over streams).
    """
    if (a is None) == (n_bar is None):
        raise ValueError("give exactly one of a (open-ended) and n_bar (rejective)")
    if n_bar is not None and n_bar < 1:
        raise ValueError("n_bar must be at least 1")
    a, b = check_ladders(a, b)
    j = b.size
    b_of = b.tolist() + [np.inf]  # b[r]; r == j once every stream is rejected
    a_of = a.tolist() + [-np.inf]  # a[c]; c == j once every stream is accepted
    # per trial: its streams' decisions (step 0: undecided), r, c and stages
    # done; j - r - c streams are active
    rejected, truncated = ([[False] * j for _ in range(trials)] for _ in range(2))
    step, level = ([[0] * j for _ in range(trials)] for _ in range(2))
    r, c, stages = [0] * trials, [0] * trials, [0] * trials
    done = 0  # rows read before the current block
    # the undecided trials; row k of the arrays below is live[k]'s
    live = list(range(trials))
    act = np.ones((trials, j), bool)
    hi = np.full(trials, b_of[0])
    lo = np.full(trials, a_of[0])

    def ranked_rows(ks, offs):
        """Each trial's row and its streams ranked: active ones first by
        statistic, ties by stream index, then the inactive ones."""
        vals = block[ks, offs]
        return vals.tolist(), np.lexsort((vals, ~act[ks]), axis=1).tolist()

    while live:
        block = take(np.array(live))
        width = block.shape[1]
        if tally is not None:
            tally["matrix_rows"] += width * len(live)
            tally["path_blocks"] += len(live)
        if not width:
            # the rows run out for every undecided trial at once: the first
            # in index order fails with its state
            i, active = live[0], np.flatnonzero(act[0]).tolist()
            raise DataUnderrunError(
                f"streams {active} exhausted at step {done} before any decision "
                f"boundary was crossed",
                state={"stage": stages[i] + 1, "step": max(step[i]), "r": r[i], "c": c[i],
                       "active": active, "decisions": [
                           {"stream": s, "action": "reject" if rejected[i][s] else "accept",
                            "step": step[i][s], "level": level[i][s],
                            "truncated": truncated[i][s]}
                           for s in range(j) if step[i][s]]},
            )
        stop = width if n_bar is None else min(width, n_bar - done)
        # rows of the block each trial has scanned, and the trials that may
        # still cross in it
        scan = [0] * len(live)
        ks = list(range(len(live)))
        while ks:
            # first row at or after each trial's scan where an active stream
            # leaves the continuation interval
            sel = slice(None) if len(ks) == len(live) else ks  # every trial: views, no copies
            first = min(scan[k] for k in ks)
            seg = block[sel, first:stop]
            out = (seg >= hi[sel, None, None]) | (seg <= lo[sel, None, None])
            out &= act[sel, None, :]
            rows = out.any(axis=2)
            rows &= np.arange(first, stop) >= np.array([scan[k] for k in ks])[:, None]
            hit = rows.any(axis=1).tolist()
            exits = rows.argmax(axis=1).tolist()
            hits = [k for k, x in zip(ks, hit) if x]
            offs = [first + e for e, x in zip(exits, hit) if x]
            for k, vals, ranks, off in zip(hits, *ranked_rows(hits, offs), offs):
                i = live[k]
                sz, at_step = j - r[i] - c[i], done + off + 1
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
                r[i] += t_rej
                c[i] += t_acc
                stages[i] += 1
                hi[k], lo[k] = b_of[r[i]], a_of[c[i]]
                scan[k] = off + 1
            ks = [k for k in hits if r[live[k]] + c[live[k]] < j and scan[k] < stop]
        keep = [k for k, i in enumerate(live) if r[i] + c[i] < j]
        if keep and done + stop == n_bar:
            # horizon reached: accept the rest, ranked by final statistic
            _, order = ranked_rows(keep, [stop - 1] * len(keep))
            for k, ranks in zip(keep, order):
                i = live[k]
                for p, s in enumerate(ranks[: j - r[i] - c[i]]):
                    step[i][s], level[i][s], truncated[i][s] = n_bar, p + 1, True
                stages[i] += 1
            keep = []
        if len(keep) < len(live):
            live = [live[k] for k in keep]
            act, hi, lo = act[keep], hi[keep], lo[keep]
        done += width
    decisions = Decisions(*(np.array(field, dtype).reshape(trials, j) for field, dtype in
                            ((rejected, bool), (step, np.int64), (level, np.int64),
                             (truncated, bool))))
    if tally is not None:
        tally["trials"] += trials
        tally["stages"] += sum(stages)
        tally["decision_steps"] += int(decisions.step.sum())
    return decisions


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
