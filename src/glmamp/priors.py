"""Scalar input priors, each with its two scalar modules at GAMP's input end.

Each prior answers the scalar model r = x + N(0, tau) with two modules, as
each output channel does at the other end (``channels``):

* ``mmse_moments`` -- the sum-product module: the exact posterior mean and
  variance of x, for bg and laplace a two-component mixture
  (``gaussian.mixture_moments``; laplace's components are Gaussians cut off
  at 0, the probit closed form at scale 0, ``gaussian._probit_tilted``); and
* ``map_moments`` -- the max-sum module: the posterior mode with its
  Laplace variance.

The gaussian prior's two modules are one.  ``InputPrior.denoise`` is the
one denoiser: it picks the mode's module and runs it through
``gaussian.scalar_module``, which broadcasts (r, tau), floors the variance
and restores the shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Mode, check_range
from .gaussian import (_LOG_SQRT_2PI, DEFAULT_VARIANCE_FLOOR, RATIO_FORWARD_MIN_T,
                       PosteriorStats, _probit_tilted, combine, mixture_moments,
                       scalar_module)

# The Laplace rate's range: the prior variance 2 / rate**2 then lies in
# [2e-150, 2e150], where its square and reciprocal are finite normal doubles.
# Below about 1e-154, 2 / rate**2 overflows; above about 1e154, rate**2 does.
RATE_RANGE = (1e-75, 1e75)

# The gaussian and bg prior variance's range, as for the AWGN noise variance:
# squares, reciprocals, products and quotients of values in it are finite
# normal doubles.  Below about 5e-309, 1 / var overflows.
PRIOR_VARIANCE_RANGE = (1e-150, 1e150)

# The gaussian and bg prior mean's range: mean**2 and mean / var, for var in
# PRIOR_VARIANCE_RANGE, are then finite.  Above about 1e154, the bg marginal
# variance's mean**2 overflows.
PRIOR_MEAN_RANGE = (-1e150, 1e150)


class InputPrior:
    """Interface: the two scalar modules on N(x; r, tau) p(x), marginal
    moments, sampling.

    ``map_moments`` and ``mmse_moments`` take r and tau as 1-d float arrays
    of one length and return (point, variance) arrays of that length.
    """

    name = "prior"

    def map_moments(self, r, tau):
        raise NotImplementedError

    def mmse_moments(self, r, tau):
        raise NotImplementedError

    def denoise(self, mode: Mode, r, tau) -> PosteriorStats:
        """The mode's module on (r, tau), any two broadcastable shapes."""
        moments = self.mmse_moments if mode is Mode.SUM_PRODUCT else self.map_moments
        return scalar_module(moments, r, tau)

    def marginal_mean(self) -> float:
        raise NotImplementedError

    def marginal_variance(self) -> float:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianPrior(InputPrior):
    """x ~ N(mean, var); both modes coincide (conjugate)."""

    mean: float = 0.0
    var: float = 1.0
    name = "gaussian"

    def __post_init__(self):
        check_range(self.mean, PRIOR_MEAN_RANGE, "gaussian prior mean")
        check_range(self.var, PRIOR_VARIANCE_RANGE, "gaussian prior var")

    def mmse_moments(self, r, tau):
        """The conjugate posterior, whose mean is its mode."""
        return combine(self.mean, self.var, r, tau)

    map_moments = mmse_moments

    def marginal_mean(self):
        return self.mean

    def marginal_variance(self):
        return self.var

    def sample(self, n, rng):
        return rng.normal(self.mean, np.sqrt(self.var), size=n)


@dataclass(frozen=True)
class BernoulliGaussianPrior(InputPrior):
    """Spike-and-slab: x = 0 w.p. 1 - rho, else N(mean, var)."""

    rho: float = 0.1
    mean: float = 0.0
    var: float = 1.0
    name = "bg"

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("bg rho must be in (0, 1]")
        check_range(self.mean, PRIOR_MEAN_RANGE, "bg mean")
        check_range(self.var, PRIOR_VARIANCE_RANGE, "bg var")

    def mmse_moments(self, r, tau):
        """The mixture of the slab's posterior and the spike, by their evidences."""
        m1, v1 = combine(self.mean, self.var, r, tau)  # the slab's posterior
        # log evidence of slab and spike, less their shared log sqrt(2 pi); a
        # square too large for a double makes one -inf
        with np.errstate(over="ignore", invalid="ignore"):
            log_z1 = np.log(self.rho) - 0.5 * (r - self.mean) ** 2 / (self.var + tau) \
                - 0.5 * np.log(self.var + tau)
            log_z0 = np.log1p(-self.rho) - 0.5 * r ** 2 / tau \
                - 0.5 * np.log(tau) if self.rho < 1.0 else np.full_like(r, -np.inf)
            log_odds = self._settle(log_z1 - log_z0, r, tau)
        return mixture_moments(log_odds, m1, v1, 0.0, 0.0)

    def map_moments(self, r, tau):
        """The slab's mode with its variance, or x = 0 with DEFAULT_VARIANCE_FLOOR.

        Whichever scores the higher penalized objective; the spike is scored
        with its mixture weight as a point mass.
        """
        m1, v1 = combine(self.mean, self.var, r, tau)
        # a square too large for a double makes an objective -inf
        with np.errstate(over="ignore", invalid="ignore"):
            j1 = np.log(self.rho) - 0.5 * (m1 - self.mean) ** 2 / self.var \
                - 0.5 * np.log(2.0 * np.pi * self.var) - 0.5 * (m1 - r) ** 2 / tau
            j0 = (np.log1p(-self.rho) if self.rho < 1.0 else -np.inf) - 0.5 * r ** 2 / tau
            take_slab = self._settle(j1 - j0, r, tau) >= 0.0
        return np.where(take_slab, m1, 0.0), np.where(take_slab, v1, DEFAULT_VARIANCE_FLOOR)

    def _settle(self, slab_odds, r, tau):
        """``slab_odds``, the slab's score less the spike's, with each NaN decided.

        Both scores are -inf where r lies too many spreads from slab and
        spike.  Up to constants, either module's scores are then
        -(r - mean)^2 / (var + tau) and -r^2 / tau, so the branch nearer to r
        in units of its own spread wins by more than any double: +inf for the
        slab, -inf for the spike.  Call under ``np.errstate(over="ignore")``.
        """
        lost = np.isnan(slab_odds)
        if lost.any():
            slab = (np.abs(r - self.mean) * np.sqrt(tau)
                    <= np.abs(r) * np.sqrt(self.var + tau)) | (self.rho == 1.0)
            slab_odds[lost] = np.where(slab, np.inf, -np.inf)[lost]
        return slab_odds

    def marginal_mean(self):
        return self.rho * self.mean

    def marginal_variance(self):
        return self.rho * (self.mean ** 2 + self.var) - (self.rho * self.mean) ** 2

    def sample(self, n, rng):
        active = rng.uniform(size=n) < self.rho
        return np.where(active, rng.normal(self.mean, np.sqrt(self.var), size=n), 0.0)


@dataclass(frozen=True)
class LaplacePrior(InputPrior):
    """x ~ Laplace(rate); density (rate/2) exp(-rate |x|)."""

    rate: float = 1.0
    name = "laplace"

    def __post_init__(self):
        check_range(self.rate, RATE_RANGE, "laplace rate")

    def map_moments(self, r, tau):
        """Soft thresholding at rate tau, with variance tau.

        The prior is piecewise linear: its Laplace curvature is zero away
        from the kink, and by convention also at the kink.
        """
        return np.sign(r) * np.maximum(np.abs(r) - self.rate * tau, 0.0), tau

    def mmse_moments(self, r, tau):
        """The mixture of the two cut-off Gaussians x > 0 and x < 0."""
        # N(r -+ rate tau, tau) cut off at +-x > 0, with weights exp(-+rate r +
        # rate^2 tau / 2) Phi(t): in units of s = sqrt(tau), where no tau^2
        # underflows, the probit tilted density at y = +-1 and scale 0
        s = np.sqrt(tau)
        y = np.array([[1.0], [-1.0]])
        p = (r - y * self.rate * tau) / s
        log_z, mean, v = _probit_tilted(y, p, 1.0, 0.0)
        # the weights' log-odds log Phi(t+) - log Phi(t-) - 2 rate r (t = y p)
        # is log h(t-) - log h(t+), h = phi / Phi the hazard: the t^2 / 2 terms
        # of log phi cancel 2 rate r exactly, where the first form subtracts
        # terms of size t^2 / 2.  Below RATIO_FORWARD_MIN_T, h is y mean - t,
        # the recursion's excess less t; elsewhere phi(t) / Z.
        t = y * p
        with np.errstate(over="ignore", invalid="ignore"):  # -inf, or NaN in the tail
            log_h = -0.5 * t * t - _LOG_SQRT_2PI - log_z
        tail = t < RATIO_FORWARD_MIN_T
        log_h[tail] = np.log((y * mean - t)[tail])
        return mixture_moments(log_h[1] - log_h[0],
                               s * mean[0], tau * v[0], s * mean[1], tau * v[1])

    def marginal_mean(self):
        return 0.0

    def marginal_variance(self):
        return 2.0 / self.rate ** 2

    def sample(self, n, rng):
        return rng.laplace(scale=1.0 / self.rate, size=n)
