"""Reference implementations that the tests compare the package against.

None of these runs in the package: each is the plain, direct form of
something the package computes another way (per-observation increments
against the lattice statistic, uniforms against latent cuts, the
conservative Wald boundaries against the corrected ones, per-trial error
counts against array reductions, one stage at a time on a whole matrix
against the batched stage loop, one lattice step at a time against a
block of steps per pass, BH rates from sorted p-values one sample size at
a time against first met levels over a block of sizes).  ``MatrixSource``
hands given statistic matrices to ``procedures.run_batch``.
"""

import math

import numpy as np
from scipy.special import ndtr, ndtri

from seqfdr.calibrate import _LIVE_TOL, _step_pmf
from seqfdr.datagen import _latent_counts, cholesky, correlation_matrix
from seqfdr.errors import DataUnderrunError
from seqfdr.fixed_sample import exact_pvalue
from seqfdr.procedures import MetricsSummary
from seqfdr.sprt import CriticalMatrix, _check_error_pair, cumulative_llr


def llr_increments(model, obs, trials=None) -> np.ndarray:
    """Log-likelihood-ratio increment of each observation.

    Bernoulli observations are 0/1 values, or with ``trials`` success
    counts among that many trials each (the binomial LLR given the number
    of trials), and Poisson observations counts, in an array of any shape.
    Observations must be nonnegative integers (integer-valued floats
    pass), and successes may not exceed trials.
    """
    obs = np.asarray(obs)
    if obs.dtype.kind not in "iuf" or not np.all((obs >= 0) & (np.mod(obs, 1) == 0)):
        raise ValueError("observations must be nonnegative integer counts")
    if model.family == "bernoulli":
        n = np.ones(obs.shape, np.int64) if trials is None else np.asarray(trials)
        if np.any(obs > n):
            raise ValueError("success count exceeds trial count")
        p0, p1 = model.null_param, model.alt_param
        return obs * math.log(p1 / p0) + (n - obs) * math.log((1.0 - p1) / (1.0 - p0))
    lam0, lam1 = model.null_param, model.alt_param
    return obs * math.log(lam1 / lam0) - (lam1 - lam0)


def wald_bounds_conservative(alpha: float, beta: float) -> tuple[float, float]:
    """Boundaries log(beta), -log(alpha): guaranteed error control, wider."""
    _check_error_pair(alpha, beta)
    return math.log(beta), -math.log(alpha)


def conservative_critical_values(alpha, beta) -> CriticalMatrix:
    """Boundary matrix with A_k = log(beta_k) and B_k = -log(alpha_k)."""
    return CriticalMatrix(a=np.log(beta.values), b=-np.log(alpha.values))


def copula_uniforms(config, rng, size) -> np.ndarray:
    """Draw ``size`` correlated uniform vectors: U = Phi(L Z), Z standard normal.

    Returns shape (size, j).
    """
    z = rng.standard_normal((int(size), config.j))
    return ndtr(z @ cholesky(correlation_matrix(config)).T)


def invert_marginal(spec, u):
    """Right-continuous inverse of the marginal CDF, elementwise over ``u``.

    Bernoulli: 1 where u <= p, else 0.  Poisson: the smallest n with
    F(n) >= u.  Uniforms must lie in [0, 1]; u = 0 and u = 1 map to the
    latent values -inf and +inf of ``_latent_counts``, the inversion the
    engines run on latent normals.
    """
    u = np.asarray(u, dtype=float)
    # NaN fails both comparisons
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("uniforms must lie in [0, 1]")
    y = ndtri(u)
    return _latent_counts(spec, y, np.empty(y.shape, np.int64))


def bh_sorted(p, alpha) -> np.ndarray:
    """BH's rejection mask of each row of a (T, J) p-value array, from its sorted row.

    The cutoff is p_(k*), k* = max{k : p_(k) <= alpha_k}, and a row rejects
    its p-values at or below it; none when no level is met.
    """
    cutoff = np.full(p.shape[0], -1.0)
    for col, level in zip(np.sort(p, axis=1).T, alpha.values.tolist()):
        np.maximum(cutoff, col, out=cutoff, where=col <= level)
    return p <= cutoff[:, None]


def bh_rates(model, n, totals, truth, alpha):
    """(FNR, FDR, FNR standard error) of BH over the replicates' (reps, J) totals at size n.

    One sample size per call, BH from sorted p-values (``bh_sorted``);
    ``fixed_sample._bh_rates`` runs a block of sizes at once on levels.
    """
    # a p-value depends only on (n, total): one table per n
    rejected = bh_sorted(exact_pvalue(model, n, np.arange(totals.max() + 1))[totals], alpha)
    j = truth.size
    r = rejected.sum(axis=1)
    fdp = (rejected & truth).sum(axis=1) / np.maximum(r, 1)
    fnp = (~rejected & ~truth).sum(axis=1) / np.maximum(j - r, 1)
    se = math.sqrt(float(np.var(fnp)) / fnp.size)
    return float(fnp.mean()), float(fdp.mean()), se


def error_counts(rejected, truth) -> tuple[int, int, int]:
    """(false rejections, false acceptances, total rejections) of one trial.

    ``rejected`` is the trial's row of ``Decisions.rejected``.  ``truth[j]``
    True marks a true null, False a true signal.
    """
    if len(truth) != len(rejected):
        raise ValueError("truth must have one entry per stream")
    v = w = r = 0
    for rej, t in zip(rejected, truth):
        if rej:
            r += 1
            if t:
                v += 1
        elif not t:
            w += 1
    return v, w, r


def _mean_se(values):
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def summarize(decisions, truth) -> MetricsSummary:
    """``procedures.summarize`` one trial at a time, in Python integers.

    Per trial: the error counts, the largest decision step (the trial's
    sample size under lockstep sampling) and the total of the steps over
    the J streams.
    """
    trials = [[row.tolist() for row in field] for field in decisions]
    rejected, step = trials[0], trials[1]
    j = len(truth)
    counts = np.array([error_counts(row, truth) for row in rejected], dtype=float)
    v, w, r = counts[:, 0], counts[:, 1], counts[:, 2]
    fdp = v / np.maximum(r, 1.0)
    fnp = w / np.maximum(j - r, 1.0)
    with_rej, not_all_rej = r >= 1.0, r < j
    pfdr = pfdr_se = pfnr = pfnr_se = None
    if with_rej.any():
        pfdr, pfdr_se = _mean_se(fdp[with_rej])
    if not_all_rej.any():
        pfnr, pfnr_se = _mean_se(fnp[not_all_rej])
    fdr, fdr_se = _mean_se(fdp)
    fnr, fnr_se = _mean_se(fnp)
    max_n, max_n_se = _mean_se(np.array([max(row) for row in step], dtype=float))
    stream_n, stream_n_se = _mean_se(np.array([sum(row) / len(row) for row in step]))
    return MetricsSummary(
        n_trials=len(rejected), fdr=fdr, fdr_se=fdr_se, fnr=fnr, fnr_se=fnr_se,
        pfdr=pfdr, pfdr_se=pfdr_se, pfnr=pfnr, pfnr_se=pfnr_se,
        mean_max_n=max_n, mean_max_n_se=max_n_se,
        mean_stream_n=stream_n, mean_stream_n_se=stream_n_se,
        n_trials_with_rejection=int(with_rej.sum()),
        n_trials_with_acceptance=int(not_all_rej.sum()),
    )


class MatrixSource:
    """``take(ids)`` for ``run_batch`` over trials whose whole (n, J)
    statistic matrices are given, all of one length.

    The rows come in blocks of ``sizes`` in turn, the last block taking
    what is left, or all at once when ``sizes`` is None; then blocks of no
    rows.  Each take hands out the next block of every listed trial, one
    (len(ids), rows, J) array, as ``datagen.CountBlocks`` does.  ``read[i]``
    counts the blocks trial i was handed, the empty ones included.
    """

    def __init__(self, mats, sizes=None):
        self.mats = np.asarray(mats, dtype=float)
        length = self.mats.shape[1]
        cuts = np.cumsum([length] if sizes is None else sizes)
        edges = [0, *cuts[cuts < length].tolist(), length]
        self.blocks = list(zip(edges[:-1], edges[1:])) + [(length, length)]
        self.taken = 0
        self.read = [0] * len(self.mats)

    def __call__(self, ids):
        lo, hi = self.blocks[min(self.taken, len(self.blocks) - 1)]
        self.taken += 1
        for i in ids:
            self.read[i] += 1
        return self.mats[ids, lo:hi]


def step_down(mat, a, b, n_bar=None):
    """One trial of ``procedures.run_batch``, one row and one stage at a time.

    ``mat`` is the trial's whole (n, J) statistic matrix; ``a`` None runs
    the rejective procedure to ``n_bar``.  At each row the active streams
    are ordered by statistic, ties by stream index; the top block takes
    the statistic t places from the top while it clears ``b[r + t]``, and
    the bottom block the one p places from the bottom while it stays at
    or below ``a[c + p]``, short of the top block.  The rejective
    procedure has no bottom block before row ``n_bar`` and there takes
    every stream the top block leaves.  A row where both blocks are empty
    is no stage.  Returns the trial's ``(rejected, step, level)`` lists;
    rows that run out first raise DataUnderrunError with the state the
    package reports.
    """
    mat = np.asarray(mat, dtype=float)
    j = mat.shape[1]
    rejected, step, level = [False] * j, [0] * j, [0] * j
    active = list(range(j))
    r = c = stages = last = t = 0
    while active:
        if t == len(mat):
            raise DataUnderrunError("rows ran out", state={
                "stage": stages + 1, "step": last, "r": r, "c": c, "active": active,
                "decisions": [{"stream": s, "action": "reject" if rejected[s] else "accept",
                               "step": step[s], "level": level[s]}
                              for s in range(j) if step[s]],
            })
        row = mat[t].tolist()
        t += 1
        order = sorted(active, key=lambda s: (row[s], s))
        top = 0
        while top < len(order) and row[order[-1 - top]] >= b[r + top]:
            top += 1
        bottom = len(order) - top if t == n_bar else 0
        while a is not None and bottom < len(order) - top and row[order[bottom]] <= a[c + bottom]:
            bottom += 1
        if not top + bottom:
            continue
        for k in range(top):
            s = order[-1 - k]
            rejected[s], step[s], level[s] = True, t, r + k + 1
        for k in range(bottom):
            step[order[k]], level[order[k]] = t, c + k + 1
        r, c, stages, last = r + top, c + bottom, stages + 1, t
        active = [s for s in active if not step[s]]
    return rejected, step, level


def race_by_step(model, rows, horizon):
    """``calibrate._race`` one lattice step per pass.

    Each step convolves every param group's live mass with its step pmf,
    absorbs the mass where ``cumulative_llr`` reaches each row's up, else
    its down, trims the window of count totals shared by all rows to the
    counts some row leaves live, and stops once every row's live mass is
    below ``_LIVE_TOL``.  Returns P(up first), P(down first) and the live
    mass left, per row.
    """
    groups = {}
    for r, (param, _, _) in enumerate(rows):
        groups.setdefault(param, []).append(r)
    steps = [(idx, _step_pmf(model, param)) for param, idx in groups.items()]
    up, down = np.array([row[1:] for row in rows], dtype=float).T[:, :, None]
    # a group's rows convolve as one flat array, each row followed by
    # enough zeros to take its spill
    spill = max(f.size for _, f in steps) - 1
    won = np.zeros((2, len(rows)))  # absorbed up, down
    mass = np.ones((len(rows), 1))  # live mass at counts x0, x0 + 1, ...
    x0 = 0
    for n in range(1, horizon + 1):
        grown = np.zeros((len(rows), mass.shape[1] + spill))
        grown[:, : mass.shape[1]] = mass
        for idx, f in steps:
            flat = grown[idx].ravel()
            grown[idx] = np.convolve(flat, f)[: flat.size].reshape(len(idx), -1)
        stat = cumulative_llr(model, np.arange(x0, x0 + grown.shape[1]), n)
        above = stat >= up
        below = (stat <= down) & ~above
        won[0] += grown.sum(axis=1, where=above)
        won[1] += grown.sum(axis=1, where=below)
        grown[above | below] = 0.0
        # every row absorbs the counts below lo and from hi up
        lo = np.count_nonzero(below.all(axis=0))
        hi = grown.shape[1] - np.count_nonzero(above.all(axis=0))
        mass = grown[:, lo : max(hi, lo)]
        x0 += lo
        if mass.sum(axis=1).max(initial=0.0) < _LIVE_TOL:
            break
    up, down = np.minimum(won, 1.0)
    return up, down, np.minimum(mass.sum(axis=1), 1.0)
