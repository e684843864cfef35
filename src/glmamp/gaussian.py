"""Scalar Gaussian algebra: the library's one Gaussian product and one EP division.

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

# The one floor for variances and for extrinsic precisions, used as is by
# every module that floors.  An extrinsic precision below it is treated as
# degenerate: it is floored and the message flagged, which caps the
# pseudo-variance at 1/DEFAULT_VARIANCE_FLOOR.
DEFAULT_VARIANCE_FLOOR = 1e-11

# log sqrt(2 pi), the Gaussian density's normalizer, for every log-density
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


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


def combine(mean_a, var_a, mean_b, var_b):
    """(mean, variance) of the product N(mean_a, var_a) N(mean_b, var_b).

    Moment arrays in and out, not messages: the conjugate updates in the hot
    path build and validate nothing.
    """
    lam = 1.0 / var_a + 1.0 / var_b
    return (mean_a / var_a + mean_b / var_b) / lam, 1.0 / lam


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
