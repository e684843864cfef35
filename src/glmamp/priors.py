"""Scalar input priors and their MMSE / MAP denoisers.

Each prior answers the scalar model r = x + N(0, tau): SUM_PRODUCT mode
returns the exact posterior mean and variance of x, MAX_SUM mode the
posterior mode with its Laplace variance.  Everything is vectorized over
(r, tau).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .channels import Mode, check_range
from .gaussian import PosteriorStats, DEFAULT_VARIANCE_FLOOR

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# The Laplace rate's range: the prior variance 2 / rate**2 then lies in
# [2e-150, 2e150], where its square and reciprocal are finite normal doubles.
# Below about 1e-154, 2 / rate**2 overflows; above about 1e154, rate**2 does.
RATE_RANGE = (1e-75, 1e75)


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
        if not self.var > 0:
            raise ValueError("gaussian prior var must be > 0")

    def denoise(self, mode, r, tau):
        tau = np.asarray(tau, dtype=float)
        lam = 1.0 / self.var + 1.0 / tau
        point = (self.mean / self.var + np.asarray(r) / tau) / lam
        return PosteriorStats(point=point, variance=1.0 / lam + 0.0 * point)

    def marginal_mean(self):
        return self.mean

    def marginal_variance(self):
        return self.var

    def sample(self, n, rng):
        return rng.normal(self.mean, np.sqrt(self.var), size=n)


def _logsumexp2(a, b):
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m))


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
        if not self.var > 0:
            raise ValueError("bg var must be > 0")

    def _slab(self, r, tau):
        v1 = 1.0 / (1.0 / self.var + 1.0 / tau)
        m1 = v1 * (self.mean / self.var + r / tau)
        return m1, v1

    def denoise(self, mode, r, tau):
        r = np.asarray(r, dtype=float)
        tau = np.asarray(tau, dtype=float) + 0.0 * r
        m1, v1 = self._slab(r, tau)
        # log evidence of slab vs spike under the pseudo-measurement
        log_z1 = np.log(self.rho) - 0.5 * (r - self.mean) ** 2 / (self.var + tau) \
            - 0.5 * np.log(self.var + tau) - _LOG_SQRT_2PI
        log_z0 = np.log1p(-self.rho) - 0.5 * r ** 2 / tau \
            - 0.5 * np.log(tau) - _LOG_SQRT_2PI if self.rho < 1.0 else np.full_like(r, -np.inf)
        if mode is Mode.SUM_PRODUCT:
            pi = np.exp(log_z1 - _logsumexp2(log_z1, log_z0))
            point = pi * m1
            second = pi * (m1 ** 2 + v1)
            var = second - point ** 2
            return PosteriorStats(point=point, variance=np.maximum(var, 1e-300))
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


def _trunc_gauss_moments(alpha, log_sf):
    """Mean/variance of a standard Gaussian truncated to (alpha, inf).

    ``log_sf`` is log P(X > alpha) = log_ndtr(-alpha), which the caller has.
    """
    h = np.exp(-0.5 * alpha ** 2 - _LOG_SQRT_2PI - log_sf)
    mean = h
    var = 1.0 + alpha * h - h ** 2
    return mean, var


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
        # exact posterior: mixture of two one-sided truncated Gaussians
        lam = self.rate
        s = np.sqrt(tau)
        mu_p = r - lam * tau  # x > 0 branch center
        mu_n = r + lam * tau  # x < 0 branch center
        log_cdf_p = log_ndtr(mu_p / s)
        log_cdf_n = log_ndtr(-mu_n / s)
        log_w_p = -lam * r + 0.5 * lam ** 2 * tau + log_cdf_p
        log_w_n = lam * r + 0.5 * lam ** 2 * tau + log_cdf_n
        wp = np.exp(log_w_p - _logsumexp2(log_w_p, log_w_n))
        wn = 1.0 - wp
        # branch moments: N(mu, tau) truncated to x > 0 (resp. x < 0)
        mp, vp = _trunc_gauss_moments(-mu_p / s, log_cdf_p)
        mean_p = mu_p + s * mp
        var_p = tau * vp
        mn, vn = _trunc_gauss_moments(mu_n / s, log_cdf_n)
        mean_n = mu_n - s * mn
        var_n = tau * vn
        point = wp * mean_p + wn * mean_n
        second = wp * (var_p + mean_p ** 2) + wn * (var_n + mean_n ** 2)
        var = second - point ** 2
        return PosteriorStats(point=point, variance=np.maximum(var, 1e-300))

    def marginal_mean(self):
        return 0.0

    def marginal_variance(self):
        return 2.0 / self.rate ** 2

    def sample(self, n, rng):
        return rng.laplace(scale=1.0 / self.rate, size=n)
