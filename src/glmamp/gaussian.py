"""Scalar Gaussian message algebra and the EP extrinsic (cavity-division) step.

This module owns the message format: a message's two moment fields are
float64 arrays, converted once when it is built (a scalar becomes a 0-d
array), and ``ExtrinsicMessage.floored`` is a bool array.  All operations are
elementwise, in precision / precision-mean form to avoid cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The one floor for variances and for extrinsic precisions, used as is by
# every module that floors.  An extrinsic precision below it is treated as
# degenerate: it is floored and the message flagged, which caps the
# pseudo-variance at 1/DEFAULT_VARIANCE_FLOOR.
DEFAULT_VARIANCE_FLOOR = 1e-11


def _store_moments(message, mean_field, variance_field):
    """Validate two moment fields and store them as float64 arrays (a float64 one as is)."""
    what = type(message).__name__
    mean = np.asarray(getattr(message, mean_field), dtype=float)
    variance = np.asarray(getattr(message, variance_field), dtype=float)
    # ndarray .all() rather than np.all: the checks run on every message built
    if not np.isfinite(mean).all():
        raise ValueError(f"{what}: mean must be finite")
    if not ((variance > 0) & (variance < np.inf)).all():
        raise ValueError(f"{what}: variance must be finite and > 0")
    object.__setattr__(message, mean_field, mean)
    object.__setattr__(message, variance_field, variance)


@dataclass(frozen=True)
class GaussianBelief:
    """A Gaussian message N(mean, variance); variance strictly positive."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        _store_moments(self, "mean", "variance")


@dataclass(frozen=True)
class PosteriorStats:
    """Point estimate and positive variance of a scalar posterior."""

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

    def as_belief(self) -> GaussianBelief:
        return GaussianBelief(self.pseudo_mean, self.pseudo_variance)


def combine(a: GaussianBelief, b: GaussianBelief) -> GaussianBelief:
    """Product of two Gaussian messages (precision sum, precision-weighted mean)."""
    la = 1.0 / a.variance
    lb = 1.0 / b.variance
    lam = la + lb
    eta = a.mean * la + b.mean * lb
    return GaussianBelief(mean=eta / lam, variance=1.0 / lam)


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
    return ExtrinsicMessage(pseudo_mean=eta / lam, pseudo_variance=1.0 / lam,
                            floored=flagged)
