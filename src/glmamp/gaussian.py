"""Scalar Gaussian message algebra and the EP extrinsic (cavity-division) step.

All operations are elementwise and accept floats or numpy arrays; internal
arithmetic is done in precision / precision-mean form to avoid cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The one floor for variances and for extrinsic precisions, used as is by
# every module that floors.  An extrinsic precision below it is treated as
# degenerate: it is floored and the message flagged, which caps the
# pseudo-variance at 1/DEFAULT_VARIANCE_FLOOR.
DEFAULT_VARIANCE_FLOOR = 1e-11


def _validate_gaussian(mean, variance, what):
    # ndarray .all() rather than np.all: the checks run on every message built
    if not np.isfinite(mean).all():
        raise ValueError(f"{what}: mean must be finite")
    variance = np.asarray(variance)
    if not ((variance > 0) & (variance < np.inf)).all():
        raise ValueError(f"{what}: variance must be finite and > 0")


@dataclass(frozen=True)
class GaussianBelief:
    """A Gaussian message N(mean, variance); variance strictly positive."""

    mean: np.ndarray | float
    variance: np.ndarray | float

    def __post_init__(self):
        _validate_gaussian(self.mean, self.variance, "GaussianBelief")


@dataclass(frozen=True)
class PosteriorStats:
    """Point estimate and positive variance of a scalar posterior."""

    point: np.ndarray | float
    variance: np.ndarray | float

    def __post_init__(self):
        _validate_gaussian(self.point, self.variance, "PosteriorStats")


@dataclass(frozen=True)
class ExtrinsicMessage:
    """Pseudo-observation produced by EP division of posterior by cavity.

    ``floored`` marks components whose extrinsic precision was non-positive
    (or below the floor) and had to be clamped; such messages are nearly
    uninformative and downstream consumers may skip or damp them.
    """

    pseudo_mean: np.ndarray | float
    pseudo_variance: np.ndarray | float
    floored: np.ndarray | bool = False

    def __post_init__(self):
        _validate_gaussian(self.pseudo_mean, self.pseudo_variance, "ExtrinsicMessage")

    def as_belief(self) -> GaussianBelief:
        return GaussianBelief(self.pseudo_mean, self.pseudo_variance)


def combine(a: GaussianBelief, b: GaussianBelief) -> GaussianBelief:
    """Product of two Gaussian messages (precision sum, precision-weighted mean)."""
    la = 1.0 / np.asarray(a.variance, dtype=float)
    lb = 1.0 / np.asarray(b.variance, dtype=float)
    lam = la + lb
    eta = np.asarray(a.mean) * la + np.asarray(b.mean) * lb
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
    v_post = np.asarray(posterior.variance, dtype=float)
    v_cav = np.asarray(cavity.variance, dtype=float)
    lam_raw = 1.0 / v_post - 1.0 / v_cav
    eta = np.asarray(posterior.point) / v_post - np.asarray(cavity.mean) / v_cav
    flagged = lam_raw < DEFAULT_VARIANCE_FLOOR
    lam = np.maximum(lam_raw, DEFAULT_VARIANCE_FLOOR)
    out_flag = bool(np.any(flagged)) if np.ndim(flagged) == 0 else flagged
    return ExtrinsicMessage(pseudo_mean=eta / lam, pseudo_variance=1.0 / lam,
                            floored=out_flag)
