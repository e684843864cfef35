"""Scalar output likelihood channels and their estimation functions.

Each channel gives what module B reads: the log-likelihood f(z, y) =
log p(y|z), the pair ``d12`` = (f', f'') from one evaluation (probit shares
one hazard phi/Phi, logistic one tanh), ``in_support`` and ``sample``;
probit and logistic share ``BinaryChannel``.  On top of that sit the two
scalar posterior summaries used by the solvers:

* ``posterior_mmse`` -- mean/variance of z ~ N(mean, var) tilted by p(y|z)
  (closed form for AWGN; exact for Poisson, from a truncated-Gaussian ratio
  recursion; otherwise Gauss-Hermite centred on the Laplace fit, whose order
  doubles from 11 up to 1025 for each component separately until that
  component's moments settle).  The quadrature holds nodes on axis 0 and
  components on the contiguous axis 1, and adds each component's nodes in
  node order, so its bits do not depend on the batch; and
* ``posterior_map``  -- mode of the tilted density with Laplace variance
  1/var = -f''(mode, y) + 1/belief_variance.  The Newton ascent takes f'
  and f'' from one ``d12`` call per trial point and keeps the f'' of the
  mode for the variance.

``g_out_with_stats``, the one output score, packages either summary as
(point - mean)/var and the curvature correction (var - post_var)/var**2,
taken from the posterior variance in both modes, and returns it too; that
the MAP form equals f''/(var f'' - 1) is certified by
``verify.check_laplace_identity`` only.  ``awgn_g_out`` is the closed-form
AWGN special case driven by a pseudo-observation.

All operations are vectorized: scalars or same-shape arrays throughout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr

from .gaussian import (_LOG_SQRT_2PI, POSTERIOR_VARIANCE_FLOOR, GaussianBelief,
                       PosteriorStats, _norm_hazard, combine, trunc_gauss_ratios)

# Lower clamp for the Poisson latent when the unconstrained mode would sit on
# or below the z = 0 boundary (only possible for y = 0).
POISSON_Z_FLOOR = 1e-12
# The largest Poisson count in support.  ``_poisson_recursion`` runs one numpy
# step per count up to a batch's largest: 0.3-0.7 s per call at this bound
# (2-CPU shared host, one BLAS thread), where a count of 1e9 would ask for 8 GB.
POISSON_MAX_COUNT = 1e5

MAP_MAX_ITER = 100
MAP_TOL = 1e-12

QUAD_START_ORDER = 11
QUAD_MAX_ORDER = 1025
QUAD_RTOL = 1e-9
GH_BLOCK_NODES = 2 ** 16  # abscissas per quadrature block: 512 KiB of float64

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
    """Interface: log p(y|z), its z-derivative pair, support checks, sampling."""

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


# ---------------------------------------------------------------------------
# MAP path: mode of f(z, y) - (z - mean)^2 / (2 var), Laplace variance.
# ---------------------------------------------------------------------------

def _poisson_map_point(y, p_hat, tau_p):
    """Positive root of z^2 + z(tau - p) - y tau = 0."""
    b = p_hat - tau_p
    z = 0.5 * (b + np.sqrt(b * b + 4.0 * np.asarray(y, dtype=float) * tau_p))
    return np.maximum(z, POISSON_Z_FLOOR)


def _newton_map(channel, y, p_hat, tau_p):
    """Safeguarded vectorized Newton ascent of F(z) = f(z,y) - (z-p)^2/(2 tau).

    Returns the mode and f''(mode, y).  ``channel.d12`` runs once at the
    start and once per trial point, and the f'' of the accepted point feeds
    the next step.  Real-domain channels only: Poisson's mode is
    ``_poisson_map_point``.
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


def posterior_map(channel: OutputChannel, y, belief: GaussianBelief) -> PosteriorStats:
    """Mode of the tilted density and its Laplace variance.

    The variance solves 1/var = -f''(mode, y) + 1/belief.variance; for the
    log-concave shipped channels this is always positive and at most the
    belief variance.  The f'' is the one ``_newton_map`` evaluated at the
    mode together with f', not a second evaluation.
    """
    p_hat, tau_p = belief.mean, belief.variance
    if not np.all(channel.in_support(y)):
        raise ValueError(f"observation outside {channel.name} support")
    if isinstance(channel, AwgnChannel):
        point, var = combine(p_hat, tau_p, np.asarray(y), channel.noise_variance)
        return PosteriorStats(point=point, variance=var)
    if isinstance(channel, PoissonChannel):
        point = _poisson_map_point(y, p_hat, tau_p)
        f2 = channel.d12(point, y)[1]
    else:
        point, f2 = _newton_map(channel, y, p_hat, tau_p)
    prec = -f2 + 1.0 / tau_p
    return PosteriorStats(point=point, variance=1.0 / prec)


# ---------------------------------------------------------------------------
# MMSE path: the Poisson recursion, else adaptive Gauss-Hermite centered on
# the Laplace fit.
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


def _adaptive_gh(log_target, center, sigma, scale):
    """Per-component order doubling until mean and variance reach QUAD_RTOL.

    ``log_target`` follows the ``_gh_moments`` contract: it takes an
    (order, k) array of abscissas and the k component indices.
    Every component starts at QUAD_START_ORDER; the order then doubles
    (2k + 1, capped at QUAD_MAX_ORDER) for the components still open only.
    A component closes once its own change in mean over ``scale`` and in
    variance over ``scale**2`` is at most QUAD_RTOL, and keeps the moments of
    its last order.  Components still open at QUAD_MAX_ORDER are returned if
    their residual is at most 1e-7 and raise QuadratureError otherwise; a
    residual never measured counts as infinite.
    """
    open_ = np.arange(center.shape[0])
    resid = np.full(open_.shape, np.inf)
    order = QUAD_START_ORDER
    mean, var = _gh_moments(log_target, open_, center, sigma, order)
    while open_.size and order < QUAD_MAX_ORDER:
        order = min(2 * order + 1, QUAD_MAX_ORDER)
        mean2, var2 = _gh_moments(log_target, open_, center, sigma, order)
        resid = np.maximum(np.abs(mean2 - mean[open_]) / scale[open_],
                           np.abs(var2 - var[open_]) / scale[open_] ** 2)
        mean[open_], var[open_] = mean2, var2
        still = ~(resid <= QUAD_RTOL)  # a NaN residual never converges
        open_, resid = open_[still], resid[still]
    if open_.size and np.max(resid) > 1e-7:
        raise QuadratureError(float(np.max(resid)), order)
    return mean, var


def _poisson_recursion(y, p_hat, tau_p):
    """Exact Poisson moments: z^y e^-z N(z; p_hat, tau_p) on z > 0 is z^y times
    N(p_hat - tau_p, tau_p) cut off at 0, or, in units of sigma = sqrt(tau_p),
    w^y N(w; t, 1) on w > 0 (``gaussian.trunc_gauss_ratios``)."""
    sigma = np.sqrt(tau_p)
    ratio, gap = trunc_gauss_ratios(y, (p_hat - tau_p) / sigma)
    return sigma * ratio, tau_p * ratio * gap


def posterior_mmse(channel: OutputChannel, y, belief: GaussianBelief) -> PosteriorStats:
    """Exact posterior mean and variance of the tilted scalar model.

    AWGN is conjugate.  Poisson is exact too: the tilted density is z^y
    times a Gaussian cut off at 0, whose moment ratios follow a three-term
    recursion (``_poisson_recursion``).  The other channels are integrated
    by adaptive Gauss-Hermite quadrature centered on the Laplace fit of the
    posterior.  Each component refines its own order (see ``_adaptive_gh``),
    so one hard belief does not raise the order of the others; a component
    unresolved at order QUAD_MAX_ORDER beyond 1e-7 raises QuadratureError.
    """
    if not np.all(channel.in_support(y)):
        raise ValueError(f"observation outside {channel.name} support")
    if isinstance(channel, AwgnChannel):
        return posterior_map(channel, y, belief)

    p_hat, tau_p, y = np.broadcast_arrays(belief.mean, belief.variance, y)
    shape = p_hat.shape
    p_hat = np.atleast_1d(p_hat).astype(float)
    tau_p = np.atleast_1d(tau_p).astype(float)
    y = np.atleast_1d(y).astype(float)

    if isinstance(channel, PoissonChannel):
        mean, var = _poisson_recursion(y, p_hat, tau_p)
    else:
        lap = posterior_map(channel, y, GaussianBelief(p_hat, tau_p))
        sigma = np.sqrt(lap.variance)
        center = lap.point

        def log_target(z, idx):
            quad = z - p_hat[idx]
            np.square(quad, out=quad)
            quad /= 2.0 * tau_p[idx]
            out = channel.log_likelihood(z, y[idx])
            out -= quad
            return out

        scale = np.sqrt(tau_p) + np.abs(p_hat)
        mean, var = _adaptive_gh(log_target, center, sigma, scale)

    var = np.maximum(var, POSTERIOR_VARIANCE_FLOOR)
    return PosteriorStats(point=mean.reshape(shape), variance=var.reshape(shape))


# ---------------------------------------------------------------------------
# Output scores.
# ---------------------------------------------------------------------------

def g_out_with_stats(channel: OutputChannel, mode: Mode, y, belief: GaussianBelief):
    """Output score (point - mean)/var, curvature correction and the posterior.

    In both modes the curvature correction is (var - post_var)/var**2 from
    the posterior variance; in MAX_SUM mode that is the Laplace variance, so
    this is the same arithmetic as ``posterior_map`` followed by the EP
    division.  That it equals f''/(var f'' - 1) is certified by
    ``verify.check_laplace_identity``, not re-checked here.
    """
    tau_p = belief.variance
    posterior = posterior_mmse if mode is Mode.SUM_PRODUCT else posterior_map
    stats = posterior(channel, y, belief)
    neg_deriv = (tau_p - stats.variance) / tau_p ** 2
    value = (stats.point - belief.mean) / tau_p
    return value, neg_deriv, stats


def awgn_g_out(pseudo, belief: GaussianBelief):
    """Closed-form AWGN output score driven by a pseudo-observation."""
    denom = pseudo.pseudo_variance + belief.variance
    value = (pseudo.pseudo_mean - belief.mean) / denom
    return value, 1.0 / denom
