"""Scalar output likelihood channels, each with its two module-B scalar modules.

Each channel gives the log-likelihood f(z, y) = log p(y|z), the pair
``d12`` = (f', f'') from one evaluation (probit shares one hazard phi/Phi,
logistic one tanh), ``in_support`` and ``sample``; probit and logistic share
``BinaryChannel``.  As each prior owns ``denoise``, each channel owns the
scalar modules that close GAMP at the output end, both on the density
N(z; p_hat, tau_p) p(y|z) tilted by the likelihood:

* ``map_moments`` -- the max-sum module: the mode with its Laplace variance.
  The default is a safeguarded Newton ascent (``_newton_map``); AWGN and
  Poisson override it with closed forms; and
* ``mmse_moments`` -- the sum-product module: the tilted mean and variance.
  The default is adaptive Gauss-Hermite quadrature centred on the Laplace
  fit; AWGN, Poisson and logistic override it with exact or fixed-rule forms.

A channel that gives only f, ``d12`` and ``in_support`` runs on both
defaults.  ``posterior_map`` and ``posterior_mmse`` are module B's entry
points: they check y's support, broadcast y and the belief to 1-d float
arrays, call the channel's module once, hold its variance at
``POSTERIOR_VARIANCE_FLOOR`` and restore the broadcast shape.

``g_out_with_stats``, the one output score, packages either summary as
(point - mean)/var and the curvature correction (var - post_var)/var**2,
taken from the posterior variance in both modes, and returns it too; that
the MAP form equals f''/(var f'' - 1) is certified by
``verify.check_laplace_identity`` only.  ``awgn_g_out`` is the closed-form
AWGN special case driven by a pseudo-observation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr

from .gaussian import (_LOG_SQRT_2PI, POSTERIOR_VARIANCE_FLOOR, GaussianBelief,
                       PosteriorStats, _norm_hazard, _probit_tilted, combine,
                       trunc_gauss_ratios)
from .slm import _pair

# Lower clamp for the Poisson latent when the unconstrained mode would sit on
# or below the z = 0 boundary (only possible for y = 0).
POISSON_Z_FLOOR = 1e-12
# The largest Poisson count in support.  ``PoissonChannel.mmse_moments`` runs
# one numpy step per count up to a batch's largest: 0.3-0.7 s per call at this
# bound (2-CPU shared host, one BLAS thread), where a count of 1e9 would ask
# for 8 GB.
POISSON_MAX_COUNT = 1e5

MAP_MAX_ITER = 100
MAP_TOL = 1e-12

QUAD_START_ORDER = 11
QUAD_MAX_ORDER = 1025
QUAD_RTOL = 1e-9

# The fewest components of z at which the default ``mmse_moments`` splits its
# probit quadrature between the calling thread and the solve's worker.  Each
# thread then runs small numpy operations, and each hands the interpreter lock
# over; at small m that costs more than the second CPU gains.  Swept with
# the worker on, A at 8 MiB (n m = 2**20), bg(0.1) prior, 2-CPU host, one
# BLAS thread, median ms/iter serial -> split over 8-10 alternating GAMP
# solves: probit(0.3) lost at m = 256 (5.14 -> 5.72), tied at 512 and 1024
# (5.46 -> 5.65) and won from 1200 (6.35 -> 5.45; 1448: 7.33 -> 5.96; 2048:
# 9.67 -> 7.89).  The split serves probit only: the logistic MMSE is a fixed
# mixture of probit closed forms with no quadrature to split.
QUAD_SPLIT_MIN_COMPONENTS = 1200
GH_BLOCK_NODES = 2 ** 16  # abscissas per quadrature block: 512 KiB of float64

# The logistic MMSE mixture over the Kolmogorov variable K: Gauss-Legendre in
# log K on this range, whose Kolmogorov mass outside is below 1e-55.  52
# nodes keep the mean within 2e-14 posterior sds and the variance within
# 2e-13 relative of 128 nodes over the verify ranges at scales 0.1 to 3 (48
# nodes: 6.5e-13).  A block holds half of GH_BLOCK_NODES node values: the
# probit closed form keeps about twice the quadrature's temporaries alive.
LOGISTIC_MIXTURE_NODES = 52
LOGISTIC_MIXTURE_RANGE = (0.08, 8.0)
LOGISTIC_BLOCK_COMPONENTS = GH_BLOCK_NODES // (2 * LOGISTIC_MIXTURE_NODES)

# The AWGN noise variance's range: squares, reciprocals, products and
# quotients of values in it are finite normal doubles.  Below about 5e-309,
# 1 / noise_variance overflows.
NOISE_VARIANCE_RANGE = (1e-150, 1e150)

# The probit and logistic scale's range: scale**2 and 1 / scale**2, the
# likelihood's curvature bound, are then finite normal doubles.  Below about
# 1e-154, 1 / scale**2 overflows; above about 1e154, scale**2 does.
SCALE_RANGE = (1e-150, 1e150)


class Mode(enum.Enum):
    """Which scalar estimate a solver targets: posterior mean or mode."""

    SUM_PRODUCT = "mmse"
    MAX_SUM = "map"


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the achieved residual."""

    def __init__(self, residual: float, order: int):
        super().__init__(
            f"quadrature residual {residual:.3e} at max order {order}")
        self.residual = residual
        self.order = order


class OutputChannel:
    """Interface: log p(y|z), its z-derivative pair, support checks, sampling,
    and the two scalar modules on N(z; p_hat, tau_p) p(y|z).

    ``map_moments`` and ``mmse_moments`` take y, p_hat and tau_p as 1-d float
    arrays of one length and return (point, variance) arrays of that length.
    Their defaults read only ``log_likelihood``, ``d12`` and ``in_support``.
    """

    #: "real" or "positive" -- valid z domain
    domain = "real"
    name = "channel"

    def log_likelihood(self, z, y):
        raise NotImplementedError

    def d12(self, z, y):
        """(f', f'') at (z, y), each of the shape z and y broadcast to."""
        raise NotImplementedError

    def in_support(self, y):
        raise NotImplementedError

    def sample(self, z, rng: np.random.Generator):
        raise NotImplementedError

    def map_moments(self, y, p_hat, tau_p):
        """Mode of f(z, y) - (z - p_hat)^2 / (2 tau_p) and its Laplace variance.

        The mode is ``_newton_map``'s.  The variance solves 1/var =
        -f''(mode, y) + 1/tau_p, with the f'' that the ascent evaluated at
        the mode together with f', not a second evaluation; for a
        log-concave f it is positive and at most tau_p.
        """
        point, f2 = _newton_map(self, y, p_hat, tau_p)
        return point, 1.0 / (-f2 + 1.0 / tau_p)

    def mmse_moments(self, y, p_hat, tau_p, worker=None):
        """Tilted mean and variance by Gauss-Hermite centred on the Laplace fit.

        The fit is ``posterior_map``'s, one call on the whole batch, as its
        Newton steps, and so its bits, depend on the batch.  Each component
        then refines its own order (``_adaptive_gh``), so one hard belief
        does not raise the order of the others; a component unresolved at
        order QUAD_MAX_ORDER beyond 1e-7 raises QuadratureError.  The rule
        holds nodes on axis 0 and components on the contiguous axis 1 and
        adds each component's nodes in node order, so its bits do not depend
        on the batch.  Given ``worker`` (an executor) and a batch of
        ``QUAD_SPLIT_MIN_COMPONENTS`` or more components, the quadrature
        integrates half of them there and half on the calling thread.
        """
        lap = posterior_map(self, y, GaussianBelief(p_hat, tau_p))

        def log_target(z, idx):
            quad = z - p_hat[idx]
            np.square(quad, out=quad)
            quad /= 2.0 * tau_p[idx]
            out = self.log_likelihood(z, y[idx])
            out -= quad
            return out

        scale = np.sqrt(tau_p) + np.abs(p_hat)
        split = p_hat.shape[0] >= QUAD_SPLIT_MIN_COMPONENTS
        return _adaptive_gh(log_target, lap.point, np.sqrt(lap.variance), scale,
                            worker if split else None)


def check_range(value, bounds, what):
    """Raise ``ValueError`` unless ``value`` lies in the closed interval ``bounds``."""
    lo, hi = bounds
    if not lo <= value <= hi:
        raise ValueError(f"{what} must be in [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class AwgnChannel(OutputChannel):
    """y = z + N(0, noise_variance)."""

    noise_variance: float = 1.0
    name = "awgn"

    def __post_init__(self):
        check_range(self.noise_variance, NOISE_VARIANCE_RANGE, "awgn noise_variance")

    def log_likelihood(self, z, y):
        return -0.5 * (y - z) ** 2 / self.noise_variance \
            - 0.5 * np.log(self.noise_variance) - _LOG_SQRT_2PI

    def d12(self, z, y):
        return ((y - z) / self.noise_variance,
                np.broadcast_arrays(-1.0 / self.noise_variance + 0.0 * z, y)[0])

    def in_support(self, y):
        return np.isfinite(y)

    def sample(self, z, rng):
        return z + rng.normal(scale=np.sqrt(self.noise_variance), size=np.shape(z))

    def map_moments(self, y, p_hat, tau_p):
        """The conjugate product of the belief and N(y, noise_variance)."""
        return combine(p_hat, tau_p, y, self.noise_variance)

    def mmse_moments(self, y, p_hat, tau_p, worker=None):
        """The conjugate posterior, whose mean is its mode."""
        return self.map_moments(y, p_hat, tau_p)


@dataclass(frozen=True)
class BinaryChannel(OutputChannel):
    """P(y = +1 | z) = cdf(z / scale), y in {-1, +1}; subclasses give the cdf."""

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"{self.name} scale must be > 0")
        check_range(self.scale, SCALE_RANGE, f"{self.name} scale")

    def _t(self, z, y):
        return np.asarray(y) * np.asarray(z) / self.scale

    def in_support(self, y):
        y = np.asarray(y)
        return (y == 1) | (y == -1)

    def sample(self, z, rng):
        p = self._cdf(np.asarray(z) / self.scale)
        return np.where(rng.uniform(size=np.shape(z)) < p, 1.0, -1.0)


@dataclass(frozen=True)
class ProbitChannel(BinaryChannel):
    """P(y = +1 | z) = Phi(z / scale), y in {-1, +1}."""

    name = "probit"

    @staticmethod
    def _cdf(t):
        return np.exp(log_ndtr(t))

    def log_likelihood(self, z, y):
        return log_ndtr(self._t(z, y))

    def d12(self, z, y):
        r, excess = _norm_hazard(self._t(z, y))
        return np.asarray(y) * r / self.scale, -r * excess / self.scale ** 2


@dataclass(frozen=True)
class LogisticChannel(BinaryChannel):
    """P(y = +1 | z) = sigmoid(z / scale), y in {-1, +1}."""

    name = "logistic"

    @staticmethod
    def _cdf(t):
        return 0.5 * (1.0 + np.tanh(0.5 * t))

    def log_likelihood(self, z, y):
        t = self._t(z, y)
        # -softplus(-t), stable on both tails
        return np.minimum(t, 0.0) - np.log1p(np.exp(-np.abs(t)))

    def d12(self, z, y):
        y = np.asarray(y)
        th = np.tanh(0.5 * (np.asarray(z) / self.scale))
        s = 0.5 * (1.0 + th)
        # sigmoid(-y z / scale) = (1 - y th) / 2 for y = +-1, as tanh is odd
        d1 = y * (0.5 * (1.0 - y * th)) / self.scale
        return d1, np.broadcast_arrays(-s * (1.0 - s) / self.scale ** 2, y)[0]

    def mmse_moments(self, y, p_hat, tau_p, worker=None):
        """A fixed 52-node mixture of probit closed forms (``_logistic_mixture``).

        No Laplace fit, no quadrature and no worker; each component's bits
        do not depend on its batch.
        """
        return _logistic_mixture(y, p_hat, tau_p, self.scale)


@dataclass(frozen=True)
class PoissonChannel(OutputChannel):
    """y ~ Poisson(z) on the domain z > 0; y a nonnegative integer."""

    domain = "positive"
    name = "poisson"
    SAMPLE_Z_MIN = 0.05  # smallest rate a count is drawn at, by gen and by verify

    def log_likelihood(self, z, y):
        from scipy.special import gammaln
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = y * np.log(z) - z - gammaln(y + 1.0)
        return np.where(z > 0, out, -np.inf)

    def d12(self, z, y):
        y, z = np.asarray(y), np.asarray(z, dtype=float)
        return y / z - 1.0, -y / z ** 2

    def in_support(self, y):
        y = np.asarray(y)
        return (y >= 0) & (y <= POISSON_MAX_COUNT) & (np.asarray(y, dtype=float) == np.floor(y))

    def sample(self, z, rng):
        if np.any(np.asarray(z) <= 0):
            raise ValueError("poisson channel requires z > 0 to sample")
        return rng.poisson(z).astype(float)

    def map_moments(self, y, p_hat, tau_p):
        """The positive root of z^2 + z(tau_p - p_hat) - y tau_p = 0, held at
        POISSON_Z_FLOOR, with the default's Laplace variance."""
        b = p_hat - tau_p
        point = np.maximum(0.5 * (b + np.sqrt(b * b + 4.0 * y * tau_p)), POISSON_Z_FLOOR)
        return point, 1.0 / (-self.d12(point, y)[1] + 1.0 / tau_p)

    def mmse_moments(self, y, p_hat, tau_p, worker=None):
        """Exact moments: z^y e^-z N(z; p_hat, tau_p) on z > 0 is z^y times
        N(p_hat - tau_p, tau_p) cut off at 0, or, in units of sigma =
        sqrt(tau_p), w^y N(w; t, 1) on w > 0, whose moment ratios follow a
        three-term recursion (``gaussian.trunc_gauss_ratios``)."""
        sigma = np.sqrt(tau_p)
        ratio, gap = trunc_gauss_ratios(y, (p_hat - tau_p) / sigma)
        return sigma * ratio, tau_p * ratio * gap


# ---------------------------------------------------------------------------
# The default MAP module: mode of f(z, y) - (z - mean)^2 / (2 var).
# ---------------------------------------------------------------------------

def _newton_map(channel, y, p_hat, tau_p):
    """Safeguarded vectorized Newton ascent of F(z) = f(z,y) - (z-p)^2/(2 tau).

    Returns the mode and f''(mode, y).  ``channel.d12`` runs once at the
    start and once per trial point, and the f'' of the accepted point feeds
    the next step.  Real-domain channels only: Poisson overrides
    ``map_moments``.
    """
    z = np.array(np.broadcast_arrays(p_hat + 0.0 * tau_p, y)[0], dtype=float)
    d1, d2 = channel.d12(z, y)
    scale = 1.0 + np.abs(d1)
    # rounding of (z - p_hat)/tau_p bounds the achievable residual
    fp_floor = 32.0 * np.finfo(float).eps * (1.0 + np.abs(p_hat)) / tau_p
    g = d1 - (z - p_hat) / tau_p
    for _ in range(MAP_MAX_ITER):
        if np.all(np.abs(g) <= MAP_TOL * scale + fp_floor):
            break
        step = -g / (d2 - 1.0 / tau_p)  # F'' < 0 for concave f
        # backtrack where the gradient norm does not decrease
        for _ in range(40):
            z_try = z + step
            d1_try, d2_try = channel.d12(z_try, y)
            g_try = d1_try - (z_try - p_hat) / tau_p
            bad = np.abs(g_try) > np.abs(g)
            if not np.any(bad):
                break
            step = np.where(bad, 0.5 * step, step)
        z, g, d2 = z_try, g_try, d2_try
    if not np.all(np.abs(g) <= 1e-9 * scale + fp_floor):
        raise RuntimeError("MAP Newton failed to reach stationarity")
    return z, d2


# ---------------------------------------------------------------------------
# The default MMSE module: adaptive Gauss-Hermite centred on the Laplace fit;
# and the logistic one, a mixture of probit closed forms.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _gh_nodes(order: int):
    from scipy.special import roots_hermite
    t, w = roots_hermite(order)
    keep = np.isfinite(w) & (w > 0)  # extreme-node weights underflow; mass is nil
    return t[keep], np.log(w[keep])


def _column_sums(a):
    """Sums down axis 0, each column added in row order.

    numpy adds the column of an (order, k >= 2) array in row order, but
    sums an (order, 1) array pairwise; accumulating the single column keeps
    its bits those of any wider batch.
    """
    if a.shape[1] == 1:
        return np.add.accumulate(a, axis=0)[-1]
    return np.sum(a, axis=0)


def _gh_moments(log_target, idx, center, sigma, order):
    """Normalized mean and variance of exp(log_target) via GH at a proposal.

    Only the components ``idx`` are integrated.  ``center``/``sigma`` locate
    each component's Gaussian proposal; ``log_target(x, idx)`` maps an
    (order, k) array of abscissas, node j of component idx[i] at x[j, i], to
    log unnormalized density values of the same shape.  Nodes run down axis
    0 and components along the contiguous axis 1, so every reduction over
    nodes is a vector operation across components.  Each column is summed
    in node order (``_column_sums``), so each component's moments are the
    same bits whichever other components share the call.  ``idx`` is walked
    in blocks of at most GH_BLOCK_NODES // order components, which caps each
    float64 temporary at 512 KiB however large the batch, and the result is
    bit-identical to one unblocked pass.  Abscissas, log-target, weights and
    the variance terms are built in place.
    """
    t, log_w = _gh_nodes(order)
    shift = (t * t + log_w)[:, None]
    mean, var = np.empty(idx.shape[0]), np.empty(idx.shape[0])
    cols = GH_BLOCK_NODES // order
    for lo in range(0, idx.shape[0], cols):
        sub = idx[lo:lo + cols]
        x = t[:, None] * (np.sqrt(2.0) * sigma[sub])
        x += center[sub]
        pi = log_target(x, sub)
        pi += shift
        pi -= np.max(pi, axis=0)
        np.exp(pi, out=pi)
        pi /= _column_sums(pi)
        m = _column_sums(pi * x)
        x -= m
        np.square(x, out=x)
        x *= pi
        mean[lo:lo + cols] = m
        var[lo:lo + cols] = _column_sums(x)
    return mean, var


def _refine(log_target, comps, center, sigma, scale, mean, var):
    """Per-component order doubling until mean and variance reach QUAD_RTOL.

    Integrates the components ``comps`` only and writes their moments into
    ``mean`` and ``var`` in place; ``log_target`` follows the ``_gh_moments``
    contract.  Every component starts at QUAD_START_ORDER; the order then
    doubles (2k + 1, capped at QUAD_MAX_ORDER) for the components still open
    only.  A component closes once its own change in mean over ``scale`` and
    in variance over ``scale**2`` is at most QUAD_RTOL, and keeps the moments
    of its last order.  Returns the residuals of the components still open
    at QUAD_MAX_ORDER; a residual never measured is infinite.  Builds no
    value object and calls no module-level function but ``_gh_moments``, so
    it may run on a worker thread.
    """
    open_ = comps
    resid = np.full(open_.shape, np.inf)
    order = QUAD_START_ORDER
    mean[open_], var[open_] = _gh_moments(log_target, open_, center, sigma, order)
    while open_.size and order < QUAD_MAX_ORDER:
        order = min(2 * order + 1, QUAD_MAX_ORDER)
        mean2, var2 = _gh_moments(log_target, open_, center, sigma, order)
        resid = np.maximum(np.abs(mean2 - mean[open_]) / scale[open_],
                           np.abs(var2 - var[open_]) / scale[open_] ** 2)
        mean[open_], var[open_] = mean2, var2
        still = ~(resid <= QUAD_RTOL)  # a NaN residual never converges
        open_, resid = open_[still], resid[still]
    return resid


def _adaptive_gh(log_target, center, sigma, scale, worker=None):
    """Each component's moments by ``_refine``; returns (mean, var).

    With a ``worker`` (an executor), it refines the second half of the
    components while the calling thread refines the first.  Each component
    takes its own orders and its moments are the same bits in any batch, so
    the result is the serial one.  Components still open at QUAD_MAX_ORDER
    are returned if their largest residual, over both halves, is at most
    1e-7, and raise QuadratureError otherwise, once both halves are done.
    """
    mean, var = np.empty(center.shape[0]), np.empty(center.shape[0])
    comps = np.arange(center.shape[0])
    if worker is None:
        resid = _refine(log_target, comps, center, sigma, scale, mean, var)
    else:
        half = comps.shape[0] // 2
        resid = np.concatenate(_pair(
            worker, lambda: _refine(log_target, comps[:half], center, sigma, scale, mean, var),
            lambda: _refine(log_target, comps[half:], center, sigma, scale, mean, var)))
    if resid.size and np.max(resid) > 1e-7:
        raise QuadratureError(float(np.max(resid)), QUAD_MAX_ORDER)
    return mean, var


def _kolmogorov_log_pdf(k):
    """log density of the Kolmogorov distribution at the points ``k`` > 0.

    Below k = 1 its theta-function form sqrt(2 pi)/k^2 sum_j (2 a_j/k^2 - 1)
    exp(-a_j/k^2), a_j = (2j - 1)^2 pi^2 / 8, where the alternating series
    8k sum_j (-1)^(j-1) j^2 exp(-2 j^2 k^2) cancels; that series above it.
    Seven terms of either are exact to rounding.
    """
    j = np.arange(1.0, 8.0)[:, None]
    small = k < 1.0
    a = (2.0 * j - 1.0) ** 2 * np.pi ** 2 / 8.0
    ks = k[small]
    theta = np.sum((2.0 * a / ks ** 2 - 1.0) * np.exp(-(a - a[0]) / ks ** 2), axis=0)
    kl = k[~small]
    series = np.sum((-1.0) ** (j - 1.0) * j ** 2 * np.exp(-2.0 * (j ** 2 - 1.0) * kl ** 2),
                    axis=0)
    out = np.empty_like(k)
    out[small] = 0.5 * np.log(2.0 * np.pi) - 2.0 * np.log(ks) - a[0] / ks ** 2 \
        + np.log(theta)
    out[~small] = np.log(8.0 * kl) - 2.0 * kl ** 2 + np.log(series)
    return out


def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1].

    Newton's method on the three-term recurrence of P_n, from the usual
    cosine guesses, which converge in a few steps; the weights are
    2 / ((1 - x^2) P_n'(x)^2).  At n = 52 they are within 2.4e-14 of 40-digit
    mpmath, where numpy's ``leggauss`` is within 1.1e-13 and scipy's
    ``roots_legendre`` 1.5e-12, and no eigensolver runs at import.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _logistic_mixture_rule():
    """(2K, log weight) of each node of the logistic MMSE mixture, as columns.

    Gauss-Legendre in u = log K on LOGISTIC_MIXTURE_RANGE; a node's log
    weight is that of its rule plus u (dK = K du) plus log f_K(K).
    """
    x, w = _gauss_legendre(LOGISTIC_MIXTURE_NODES)
    lo, hi = np.log(LOGISTIC_MIXTURE_RANGE)
    u = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    k = np.exp(u)
    log_w = np.log(0.5 * (hi - lo) * w) + u + _kolmogorov_log_pdf(k)
    return 2.0 * k[:, None], log_w[:, None]


_MIX_TWO_K, _MIX_LOG_WEIGHT = _logistic_mixture_rule()


def _logistic_mixture(y, p_hat, tau_p, scale):
    """Logistic tilted moments as a fixed-node mixture of probit ones.

    The logistic cdf is a Gaussian scale mixture, sigmoid(x) = E_K[Phi(x/2K)]
    with K Kolmogorov-distributed (Andrews & Mallows, JRSS-B 1974), so the
    density N(z; p_hat, tau_p) sigmoid(y z / scale) is a mixture over K of
    the probit ones at scale 2 K scale (``_probit_tilted``), weighted by
    f_K(K) Phi(y p_hat / sqrt(4 K^2 scale^2 + tau_p)).  Where y p_hat <
    -tau_p / (2 scale), sigmoid(x) = e^x sigmoid(-x) makes the same density
    that of the belief N(p_hat + y tau_p / scale, tau_p) with -y; after it
    the weights fall with K at least as fast as e^(-1.5 K^2), so the fixed
    rule holds their mass.  The variance is sum w (v_K + (m_K - mean)^2),
    nonnegative terms.  Nodes run down axis 0 and components along axis 1,
    each column summed in node order (``_column_sums``), in blocks of
    LOGISTIC_BLOCK_COMPONENTS components: each component's bits do not
    depend on its batch, and the temporaries stay at 256 KiB each.
    """
    mean, var = np.empty(p_hat.shape[0]), np.empty(p_hat.shape[0])
    cols = LOGISTIC_BLOCK_COMPONENTS
    for lo in range(0, p_hat.shape[0], cols):
        blk = slice(lo, lo + cols)
        yb, pb, tb = y[blk], p_hat[blk], tau_p[blk]
        flip = yb * pb < -tb / (2.0 * scale)
        pb = np.where(flip, pb + yb * tb / scale, pb)
        yb = np.where(flip, -yb, yb)
        log_w, m, v = _probit_tilted(yb, pb, tb, _MIX_TWO_K * scale)
        log_w += _MIX_LOG_WEIGHT
        log_w -= np.max(log_w, axis=0)
        w = np.exp(log_w, out=log_w)
        w /= _column_sums(w)
        mean[blk] = mb = _column_sums(w * m)
        m -= mb
        np.square(m, out=m)
        m += v
        m *= w
        var[blk] = _column_sums(m)
    return mean, var


# ---------------------------------------------------------------------------
# Module B's entry points: one call of the channel's scalar module each.
# ---------------------------------------------------------------------------

def posterior_map(channel: OutputChannel, y, belief: GaussianBelief) -> PosteriorStats:
    """Mode of the tilted density and its Laplace variance (``channel.map_moments``)."""
    return _tilted(channel.map_moments, channel, y, belief)


def posterior_mmse(channel: OutputChannel, y, belief: GaussianBelief,
                   worker=None) -> PosteriorStats:
    """Posterior mean and variance of the tilted density (``channel.mmse_moments``).

    ``worker``, the solve's executor if any, is handed to the module.
    """
    return _tilted(channel.mmse_moments, channel, y, belief, worker)


def _tilted(moments, channel, y, belief, *args):
    """Module B's entry work around one call of a channel's scalar module.

    Checks y's support, broadcasts y and the belief's two fields and hands
    them to ``moments`` as 1-d float arrays, holds the variance at
    POSTERIOR_VARIANCE_FLOOR and gives point and variance the broadcast
    shape.
    """
    if not np.all(channel.in_support(y)):
        raise ValueError(f"observation outside {channel.name} support")
    p_hat, tau_p, y = np.broadcast_arrays(belief.mean, belief.variance, y)
    point, var = moments(*(np.atleast_1d(a).astype(float) for a in (y, p_hat, tau_p)), *args)
    var = np.maximum(var, POSTERIOR_VARIANCE_FLOOR)
    return PosteriorStats(point=point.reshape(p_hat.shape), variance=var.reshape(p_hat.shape))


# ---------------------------------------------------------------------------
# Output scores.
# ---------------------------------------------------------------------------

def g_out_with_stats(channel: OutputChannel, mode: Mode, y, belief: GaussianBelief,
                     worker=None):
    """Output score (point - mean)/var, curvature correction and the posterior.

    In both modes the curvature correction is (var - post_var)/var**2 from
    the posterior variance; in MAX_SUM mode that is the Laplace variance, so
    this is the same arithmetic as ``posterior_map`` followed by the EP
    division.  That it equals f''/(var f'' - 1) is certified by
    ``verify.check_laplace_identity``, not re-checked here.  ``worker`` is
    handed to ``posterior_mmse``.
    """
    tau_p = belief.variance
    if mode is Mode.SUM_PRODUCT:
        stats = posterior_mmse(channel, y, belief, worker)
    else:
        stats = posterior_map(channel, y, belief)
    neg_deriv = (tau_p - stats.variance) / tau_p ** 2
    value = (stats.point - belief.mean) / tau_p
    return value, neg_deriv, stats


def awgn_g_out(pseudo, belief: GaussianBelief):
    """Closed-form AWGN output score driven by a pseudo-observation."""
    denom = pseudo.pseudo_variance + belief.variance
    value = (pseudo.pseudo_mean - belief.mean) / denom
    return value, 1.0 / denom
