"""Reference implementations that the tests compare the package against.

None of these runs in the package: each is the plain, direct form of
something the package computes another way (per-observation increments
against the lattice statistic, uniforms against latent cuts, the
conservative Wald boundaries against the corrected ones).
"""

import math

import numpy as np
from scipy.special import ndtr, ndtri

from seqfdr.datagen import Poisson, ReportPair, _latent_counts, cholesky, correlation_matrix
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
