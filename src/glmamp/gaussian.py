"""Scalar Gaussian algebra: the library's one Gaussian product, one EP division,
one truncated-Gaussian recursion, one cut-off-Gaussian closed form (tilted by
Phi; at scale 0, cut off at 0) and one two-component mixture.

``scalar_module`` is the one entry to GAMP's scalar modules at both ends of
the GLM, a channel's on the z side and a prior's on the x side: it
broadcasts the fields, calls the module once on 1-d float arrays, holds the
variance at POSTERIOR_VARIANCE_FLOOR and restores the broadcast shape.

This module owns the message format: a message's two moment fields are
float64 arrays, converted once when it is built (a scalar becomes a 0-d
array), and ``ExtrinsicMessage.floored`` is a bool array.  Only
``GaussianBelief``, the type data enters a computation as, checks its fields
(``valid_moments``); the solver loop tests library results at hand-over.
All operations are elementwise, in precision / precision-mean form to avoid
cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr

# The floor for extrinsic precisions and for the variances the loop and
# module A carry (tau_p, tau_x, pseudo-variances, the SLM posterior).  An
# extrinsic precision below it is floored and the message flagged, which caps
# the pseudo-variance at 1/DEFAULT_VARIANCE_FLOOR.
DEFAULT_VARIANCE_FLOOR = 1e-11

# Every scalar module's posterior variance, a channel's or a prior's, is held
# here by ``scalar_module``, far below the floor above, only so that one
# which underflows to 0 still passes valid_moments (variance > 0).
POSTERIOR_VARIANCE_FLOOR = 1e-300

# log sqrt(2 pi), the Gaussian density's normalizer, for every log-density
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Below this t the log_ndtr ratio loses digits, and the hazard's excess
# t + phi(t)/Phi(t) is taken from the backward recursion (trunc_gauss_ratios).
HAZARD_TAIL_T = -8.0
_LOG_CDF_AT_TAIL = float(log_ndtr(HAZARD_TAIL_T))

# ``trunc_gauss_ratios`` runs its forward recursion where t sqrt(count + 1)
# is at least this, and Miller's backward recursion below it.
RATIO_FORWARD_MIN_T = -3.0


def valid_moments(mean, variance) -> bool:
    """Every mean finite, every variance finite and > 0 (moment arrays in)."""
    # ndarray .all() rather than np.all: the loop runs this every iteration
    return bool(np.isfinite(mean).all() and ((variance > 0) & (variance < np.inf)).all())


def _store_moments(message, mean_field, variance_field):
    """Store two moment fields as float64 arrays (a float64 one as is); checks nothing."""
    for name in (mean_field, variance_field):
        object.__setattr__(message, name, np.asarray(getattr(message, name), dtype=float))


@dataclass(frozen=True)
class GaussianBelief:
    """A Gaussian message N(mean, variance); ``valid_moments`` or ValueError."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        _store_moments(self, "mean", "variance")
        if not valid_moments(self.mean, self.variance):
            raise ValueError("GaussianBelief: mean must be finite, variance finite and > 0")


@dataclass(frozen=True)
class PosteriorStats:
    """Point estimate and variance of a scalar posterior, as computed (unchecked)."""

    point: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        _store_moments(self, "point", "variance")


@dataclass(frozen=True)
class ExtrinsicMessage:
    """Pseudo-observation produced by EP division of posterior by cavity.

    ``floored`` marks components whose extrinsic precision was non-positive
    (or below the floor) and had to be clamped; such messages are nearly
    uninformative and downstream consumers may skip or damp them.
    """

    pseudo_mean: np.ndarray
    pseudo_variance: np.ndarray
    floored: np.ndarray = False

    def __post_init__(self):
        _store_moments(self, "pseudo_mean", "pseudo_variance")
        object.__setattr__(self, "floored", np.asarray(self.floored, dtype=bool))


def scalar_module(moments, *fields) -> PosteriorStats:
    """One call of a scalar module, MMSE or MAP, at either end of the GLM.

    Broadcasts ``fields`` and hands them to ``moments`` as 1-d float arrays
    of one length; ``moments`` returns (point, variance) arrays of that
    length.  Holds the variance at POSTERIOR_VARIANCE_FLOOR and gives point
    and variance the broadcast shape.
    """
    fields = np.broadcast_arrays(*fields)
    point, var = moments(*(np.ravel(a).astype(float) for a in fields))
    var = np.maximum(var, POSTERIOR_VARIANCE_FLOOR)
    shape = fields[0].shape
    return PosteriorStats(point=point.reshape(shape), variance=var.reshape(shape))


def combine(mean_a, var_a, mean_b, var_b):
    """(mean, variance) of the product N(mean_a, var_a) N(mean_b, var_b).

    Moment arrays in and out, not messages: the conjugate updates in the hot
    path build and validate nothing.  Where the precision-weighted mean is
    not finite, because a mean over its variance overflows (1e160 / 1e-160),
    it is taken as mean_a + (mean_b - mean_a) var_a / (var_a + var_b).
    """
    lam = 1.0 / var_a + 1.0 / var_b
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (mean_a / var_a + mean_b / var_b) / lam
    lost = ~np.isfinite(mean)
    if lost.any():
        a, va, b, vb = (np.broadcast_to(x, lost.shape)[lost]
                        for x in (mean_a, var_a, mean_b, var_b))
        mean = np.array(mean)
        mean[lost] = a + (b - a) * va / (va + vb)
    return mean, 1.0 / lam


def ep_extrinsic(posterior: PosteriorStats, cavity: GaussianBelief) -> ExtrinsicMessage:
    """EP division: the Gaussian factor that maps the cavity onto the posterior.

    Solves, elementwise,

        1/pseudo_variance = 1/posterior.variance - 1/cavity.variance
        pseudo_mean/pseudo_variance = point/posterior.variance - mean/cavity.variance

    Where the extrinsic precision is below ``DEFAULT_VARIANCE_FLOOR`` (posterior
    at least as wide as the cavity, or nearly so) it is floored at that
    constant and the component flagged; the precision-mean is kept exact so
    the degenerate message still carries the correct linear information in
    the flat-message limit.
    """
    lam_raw = 1.0 / posterior.variance - 1.0 / cavity.variance
    eta = posterior.point / posterior.variance - cavity.mean / cavity.variance
    flagged = lam_raw < DEFAULT_VARIANCE_FLOOR
    lam = np.maximum(lam_raw, DEFAULT_VARIANCE_FLOOR)
    # a precision-mean too large for the floored precision gives an infinite
    # pseudo-mean, which the caller's hand-over test rejects
    with np.errstate(over="ignore"):
        pseudo_mean = eta / lam
    return ExtrinsicMessage(pseudo_mean=pseudo_mean, pseudo_variance=1.0 / lam,
                            floored=flagged)


def mixture_moments(log_odds, mean1, var1, mean0, var0):
    """(mean, variance) of w1 N(mean1, var1) + w0 N(mean0, var0), log(w1/w0) = log_odds.

    The variance is w1 var1 + w0 var0 + w1 w0 (mean1 - mean0)^2, nonnegative
    terms; E[x^2] - E[x]^2 cancels when the mean dwarfs the spread.  Where
    one weight is 0 and the means lie too far apart to square, the last term
    is 0 * inf; the mixture is then the other component, and the term 0.
    """
    w1, w0 = expit(log_odds), expit(-log_odds)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = w1 * w0 * (mean1 - mean0) ** 2
    lost = np.isnan(gap)
    if lost.any():
        gap = np.where(lost, 0.0, gap)
    return w1 * mean1 + w0 * mean0, w1 * var1 + w0 * var0 + gap


def _norm_hazard(t, log_cdf=None):
    """The hazard r = phi(t) / Phi(t) and its excess e = t + r over -t.

    Both come from log_ndtr down to HAZARD_TAIL_T.  Below it the log_ndtr
    ratio loses digits and t + r cancels, so there e is the mean of N(t, 1)
    cut off at 0, ``trunc_gauss_ratios`` at count 0 (its backward branch;
    the forward one calls this only at t >= -3, so neither recurses deeper),
    and r = e - t.  ``log_cdf``, if given, is log_ndtr(t), which is then not
    evaluated again.
    """
    t = np.asarray(t, dtype=float)
    head = np.maximum(t, HAZARD_TAIL_T)  # the tail's values are replaced below
    with np.errstate(over="ignore"):  # where head * head overflows, r is 0
        log_phi = -0.5 * head * head - _LOG_SQRT_2PI
    if log_cdf is None:
        log_cdf = log_ndtr(head)
    else:  # log_ndtr(head), as log_ndtr increases
        log_cdf = np.maximum(log_cdf, _LOG_CDF_AT_TAIL)
    r = np.exp(log_phi - log_cdf)
    excess = t + r
    tail = t < HAZARD_TAIL_T
    if np.any(tail):
        r, excess = np.array(r), np.array(excess)
        excess[tail] = trunc_gauss_ratios(np.zeros(np.count_nonzero(tail)), t[tail])[0]
        r[tail] = excess[tail] - t[tail]
    return r, excess


def _probit_tilted(y, p_hat, tau_p, scale):
    """log Z, mean and variance of N(z; p_hat, tau_p) Phi(y z / scale) in z.

    With S^2 = scale^2 + tau_p and t = y p_hat / S, Z = Phi(t), the mean is
    y (scale^2 t + tau_p e) / S and the variance tau_p (scale^2 + tau_p v) / S^2,
    e = t + phi(t)/Phi(t) the hazard's excess and v = 1 - (e - t) e the
    variance of N(t, 1) cut off at 0; at scale 0 the density is the belief
    cut off at y z > 0.  Neither form subtracts from the belief's moments,
    which cancels when Phi(t) is small.  One log_ndtr per value gives log Z
    and the hazard (``_norm_hazard``), which is handed t clamped at
    RATIO_FORWARD_MIN_T, so it computes no tail value.  Below that, where e
    and 1 - (e - t) e cancel, both come from ``trunc_gauss_ratios`` at count
    0 (its backward branch).  All four arguments broadcast, ``scale`` too:
    one call serves a vector of scales.
    """
    s2 = np.square(scale)
    big_s2 = s2 + tau_p
    big_s = np.sqrt(big_s2)
    t = y * p_hat / big_s
    log_z = log_ndtr(t)
    r, excess = _norm_hazard(np.maximum(t, RATIO_FORWARD_MIN_T), log_z)
    spread = 1.0 - r * excess
    tail = t < RATIO_FORWARD_MIN_T
    if np.any(tail):
        ratio, gap = trunc_gauss_ratios(np.zeros(np.count_nonzero(tail)), t[tail])
        excess[tail], spread[tail] = ratio, ratio * gap
    mean = y * (s2 * t + tau_p * excess) / big_s
    var = tau_p * (s2 + tau_p * spread) / big_s2
    return log_z, mean, var


def trunc_gauss_ratios(count, t):
    """Moment ratios of w^count N(w; t, 1) cut off at w > 0, by a recursion.

    With J_k = int_0^inf w^k exp(-(w - t)^2/2) dw, the ratios R_k = J_k/J_{k-1}
    obey R_1 = t + phi(t)/Phi(t) and R_{k+1} = t + k/R_k.  Returns R_{count+1}
    and R_{count+2} - R_{count+1}: the density's mean is R_{count+1} and its
    variance R_{count+1} (R_{count+2} - R_{count+1}).  ``count`` and ``t`` are
    1-d float arrays of one length, ``count`` integer-valued and >= 0.

    Where t sqrt(count + 1) >= -3 the recursion runs forward on the excess
    d_k = R_k - t, which never forms t + k/R_k and amplifies rounding by at
    most about e^6.  Elsewhere Miller's backward recursion R_k = k/(R_{k+1} - t)
    runs down from the saddle-point value R_K ~ 2K/(s - t) (1 - 1/s^2),
    s = sqrt(t^2 + 4K), whose relative error is O(1/s^4), at a depth
    K = count + 16 + ceil((sqrt(count + 2) + 7/|t|)^2) that damps it below
    rounding.  Components run their own number of steps: sorting them makes
    the ones still running a contiguous slice, and each one's bits do not
    depend on the others.
    """
    ratio, gap = np.empty_like(t), np.empty_like(t)  # R_{count+1}, R_{count+2} - R_{count+1}
    fwd = t * np.sqrt(count + 1.0) >= RATIO_FORWARD_MIN_T
    if np.any(fwd):
        i = np.flatnonzero(fwd)
        i = i[np.argsort(count[i], kind="stable")]
        ci, ti = count[i], t[i]
        d = _norm_hazard(ti)[0]  # d_1
        # step k takes d_k to d_{k+1} for the components with count >= k
        for k, lo in enumerate(np.searchsorted(ci, np.arange(1.0, ci[-1] + 1.0)), 1):
            d[lo:] = k / (ti[lo:] + d[lo:])
        ratio[i], gap[i] = ti + d, (ci + 1.0) / (ti + d) - d
    if not np.all(fwd):
        i = np.flatnonzero(~fwd)
        depth = count[i] + 16.0 + np.ceil((np.sqrt(count[i] + 2.0) - 7.0 / t[i]) ** 2)
        steps = depth - count[i] - 2.0  # R_{K-1} down to R_{count+2}
        order = np.argsort(-steps, kind="stable")
        i, depth, steps = i[order], depth[order], steps[order]
        ti = t[i]
        with np.errstate(over="ignore"):  # where ti * ti overflows, R_K is 0
            s2 = ti * ti + 4.0 * depth
        r = 2.0 * depth / (np.sqrt(s2) - ti) * (1.0 - 1.0 / s2)  # R_K
        k = depth - 1.0
        gap_k = np.empty_like(r)
        # step j runs the first n components, those with more than j steps
        # in place on views, ends as Python ints: no temporary in the loop
        for n in np.searchsorted(-steps, -np.arange(steps[0])).tolist():
            r_n, k_n, gap_n = r[:n], k[:n], gap_k[:n]
            np.subtract(r_n, ti[:n], gap_n)
            np.divide(k_n, gap_n, r_n)
            k_n -= 1.0
        r_lo = (count[i] + 1.0) / (r - ti)
        ratio[i], gap[i] = r_lo, r - r_lo
    return ratio, gap
