"""Scalar input priors and their MMSE / MAP denoisers.

Each prior answers the scalar model r = x + N(0, tau): SUM_PRODUCT mode
returns the exact posterior mean and variance of x, for bg and laplace a
two-component mixture (``gaussian.mixture_moments``; laplace's components
are Gaussians cut off at 0, ``gaussian.trunc_gauss_ratios``), MAX_SUM mode
the posterior mode with its Laplace variance.  All vectorized over (r, tau).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .channels import Mode, check_range
from .gaussian import (DEFAULT_VARIANCE_FLOOR, POSTERIOR_VARIANCE_FLOOR, PosteriorStats,
                       combine, mixture_moments, trunc_gauss_ratios)

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
    """Interface: denoise(mode, r, tau), marginal moments, sampling."""

    name = "prior"

    def denoise(self, mode: Mode, r, tau) -> PosteriorStats:
        raise NotImplementedError

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

    def denoise(self, mode, r, tau):
        point, var = combine(self.mean, self.var, np.asarray(r), np.asarray(tau, dtype=float))
        return PosteriorStats(point=point, variance=var + 0.0 * point)

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

    def denoise(self, mode, r, tau):
        r = np.asarray(r, dtype=float)
        tau = np.asarray(tau, dtype=float) + 0.0 * r
        m1, v1 = combine(self.mean, self.var, r, tau)  # the slab's posterior
        # log evidence of slab and spike, less their shared log sqrt(2 pi)
        log_z1 = np.log(self.rho) - 0.5 * (r - self.mean) ** 2 / (self.var + tau) \
            - 0.5 * np.log(self.var + tau)
        log_z0 = np.log1p(-self.rho) - 0.5 * r ** 2 / tau \
            - 0.5 * np.log(tau) if self.rho < 1.0 else np.full_like(r, -np.inf)
        if mode is Mode.SUM_PRODUCT:
            point, var = mixture_moments(log_z1 - log_z0, m1, v1, 0.0, 0.0)
            return PosteriorStats(point=point, variance=np.maximum(var, POSTERIOR_VARIANCE_FLOOR))
        # MAX_SUM: compare the penalized objective of the slab mode vs x = 0.
        # The spike is scored with its mixture weight as a point mass.
        j1 = np.log(self.rho) - 0.5 * (m1 - self.mean) ** 2 / self.var \
            - 0.5 * np.log(2.0 * np.pi * self.var) - 0.5 * (m1 - r) ** 2 / tau
        j0 = (np.log1p(-self.rho) if self.rho < 1.0 else -np.inf) - 0.5 * r ** 2 / tau
        take_slab = j1 >= j0
        point = np.where(take_slab, m1, 0.0)
        var = np.where(take_slab, v1, DEFAULT_VARIANCE_FLOOR)
        return PosteriorStats(point=point, variance=var)

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

    def denoise(self, mode, r, tau):
        r = np.asarray(r, dtype=float)
        tau = np.asarray(tau, dtype=float) + 0.0 * r
        if mode is Mode.MAX_SUM:
            thresh = self.rate * tau
            point = np.sign(r) * np.maximum(np.abs(r) - thresh, 0.0)
            # the prior is piecewise linear: Laplace curvature is zero away
            # from the kink, and by convention also at the kink
            return PosteriorStats(point=point, variance=tau)
        # exact posterior: N(r -+ rate tau, tau) cut off at x > 0 (x < 0), or in
        # units of s = sqrt(tau), the second mirrored, N(w; t, 1) on w > 0
        lam, s = self.rate, np.sqrt(tau)
        t = np.stack([(r - lam * tau) / s, -(r + lam * tau) / s])
        ratio, gap = (a.reshape(t.shape) for a in trunc_gauss_ratios(np.zeros(t.size), t.ravel()))
        # the branch weights are exp(-+rate r + rate^2 tau / 2) Phi(t)
        log_cdf = log_ndtr(t)
        point, var = mixture_moments(log_cdf[0] - log_cdf[1] - 2.0 * lam * r,
                                     s * ratio[0], tau * ratio[0] * gap[0],
                                     -s * ratio[1], tau * ratio[1] * gap[1])
        return PosteriorStats(point=point, variance=np.maximum(var, POSTERIOR_VARIANCE_FLOOR))

    def marginal_mean(self):
        return 0.0

    def marginal_variance(self):
        return 2.0 / self.rate ** 2

    def sample(self, n, rng):
        return rng.laplace(scale=1.0 / self.rate, size=n)
