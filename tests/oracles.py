"""Reference implementations that the tests compare the package against.

None of these runs in the package: each is the plain, direct form of
something the package computes another way (per-observation increments
against the lattice statistic, uniforms against latent cuts, the
conservative Wald boundaries against the corrected ones, per-trial error
counts against array reductions).
"""

import math

import numpy as np
from scipy.special import ndtr, ndtri

from seqfdr.datagen import Poisson, ReportPair, _latent_counts, cholesky, correlation_matrix
from seqfdr.procedures import MetricsSummary
from seqfdr.sprt import CriticalMatrix, _check_error_pair


def llr_increments(model, obs) -> np.ndarray:
    """Log-likelihood-ratio increment of each observation.

    Bernoulli observations are 0/1 values and Poisson observations counts,
    in an array of any shape; conditional binomial observations are an
    (n, 2) array of (successes, trials) rows.  Observations must be
    nonnegative integers (integer-valued floats pass), and successes may
    not exceed trials.
    """
    obs = np.asarray(obs)
    if obs.dtype.kind not in "iuf" or not np.all((obs >= 0) & (np.mod(obs, 1) == 0)):
        raise ValueError("observations must be nonnegative integer counts")
    if model.family == "bernoulli":
        if np.any(obs > 1):
            raise ValueError("bernoulli observations must be 0 or 1")
        c1, c0 = model.log_ratios
        return np.where(obs == 1, c1, c0)
    if model.family == "poisson":
        lam0, lam1 = model.null_param, model.alt_param
        return obs * math.log(lam1 / lam0) - (lam1 - lam0)
    if obs.ndim != 2 or obs.shape[1] != 2:
        raise ValueError("conditional_binomial observations must be (successes, trials) rows")
    k, n = obs[:, 0], obs[:, 1]
    if np.any(k > n):
        raise ValueError("success count exceeds trial count")
    c1, c0 = model.log_ratios
    return k * c1 + (n - k) * c0


def wald_bounds_conservative(alpha: float, beta: float) -> tuple[float, float]:
    """Boundaries log(beta), -log(alpha): guaranteed error control, wider."""
    _check_error_pair(alpha, beta)
    return math.log(beta), -math.log(alpha)


def conservative_critical_values(alpha, beta) -> CriticalMatrix:
    """Boundary matrix with A_k = log(beta_k) and B_k = -log(alpha_k)."""
    return CriticalMatrix(a=np.log(beta.values), b=-np.log(alpha.values))


def copula_uniforms(config, rng, size, factor=None) -> np.ndarray:
    """Draw ``size`` correlated uniform vectors: U = Phi(L Z), Z standard normal.

    Returns shape (size, j).  ``factor`` may carry a precomputed Cholesky
    factor.
    """
    if factor is None:
        factor = cholesky(correlation_matrix(config))
    z = rng.standard_normal((int(size), config.j))
    return ndtr(z @ factor.T)


def invert_marginal(spec, u):
    """Right-continuous inverse of the marginal CDF, elementwise over ``u``.

    Bernoulli: 1 where u <= p, else 0.  Poisson: the smallest n with
    F(n) >= u.  ReportPair: ``u`` is a pair of uniform arrays and the
    result the (amnesia, other) pair of count arrays.  Uniforms must lie
    in [0, 1]; u = 0 and u = 1 map to the latent values -inf and +inf of
    ``_latent_counts``, the inversion the engines run on latent normals.
    """
    if isinstance(spec, ReportPair):
        try:
            u1, u2 = u
        except (TypeError, ValueError):
            raise ValueError("ReportPair inversion needs a pair of uniform arrays")
        return (invert_marginal(Poisson(spec.lam_amnesia), u1),
                invert_marginal(Poisson(spec.lam_other), u2))
    u = np.asarray(u, dtype=float)
    # NaN fails both comparisons
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("uniforms must lie in [0, 1]")
    return _latent_counts(spec, ndtri(u))


def error_counts(rejected, truth) -> tuple[int, int, int]:
    """(false rejections, false acceptances, total rejections) of one trial.

    ``rejected`` is the trial's row of ``Decisions.rejected``.  ``truth[j]``
    True marks a true null, False a true signal, None a stream excluded
    from the error counts (but not from R).
    """
    if len(truth) != len(rejected):
        raise ValueError("truth must have one entry per stream")
    v = w = r = 0
    for rej, t in zip(rejected, truth):
        if rej:
            r += 1
            if t is True:
                v += 1
        elif t is False:
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
