"""Exact Gaussian inference for the standard linear model.

Given per-component Gaussian priors on x and independent Gaussian
pseudo-observations on z = A x, ``slm_solve`` computes the exact joint
Gaussian posterior, the marginal stats of each z_i, and the extrinsic
message on each z_i with its own pseudo-observation factor divided out.

The posterior covariance P^-1 of the n x n precision P = L L^T is never
formed.  Only its diagonal and the m quadratic forms a_i^T P^-1 a_i are
needed, and both are squared column norms: of L^-1 for x, and of
W = L^-1 A^T for z.  So each call is one Cholesky factorization, one
triangular inverse and one n x m matrix product, all LAPACK/BLAS-3, for
O(m n^2 + n^3) flops and O(m n) extra memory.

Also defines the on-disk matrix formats: CSV (one row per line) and a
binary format with magic ``GLMA``, uint64 dims, little-endian float64 data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dtrtri

from .gaussian import (DEFAULT_VARIANCE_FLOOR, ExtrinsicMessage, GaussianBelief,
                       PosteriorStats, ep_extrinsic)

MATRIX_MAGIC = b"GLMA"


@dataclass(frozen=True)
class LinearModel:
    """Dense m x n measurement matrix."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("A must be a 2-D matrix with positive dims")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must be finite")
        object.__setattr__(self, "A", A)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class SlmResult:
    x_stats: PosteriorStats        # n-vector posterior on x
    z_stats: PosteriorStats        # m-vector marginals of (A x)_i
    z_extrinsic: ExtrinsicMessage  # m-vector, pseudo-observation factor removed


def slm_solve(model: LinearModel, pseudo: ExtrinsicMessage,
              prior_x: GaussianBelief,
              eps: float = DEFAULT_VARIANCE_FLOOR) -> SlmResult:
    """Exact posterior of x ~ prod N(prior) given y_i = (Ax)_i + N(0, sv_i).

    ``pseudo`` holds the m pseudo-observations (means, variances); ``prior_x``
    the n per-component Gaussian priors.  Returns componentwise posterior
    stats on x, marginal stats on z = A x, and the EP extrinsic on z.

    The precision P = A^T diag(1/sv) A + diag(1/prior var) is factored once,
    P = L L^T.  The mean is two triangular solves with L.  The variances
    come from L^-1 without forming P^-1: var(x_j) is the squared norm of
    column j of L^-1, and var(z_i) that of column i of W = L^-1 A^T.
    Raises ``numpy.linalg.LinAlgError`` when P is not positive definite.
    """
    A = model.A
    py = np.broadcast_to(np.asarray(pseudo.pseudo_mean, dtype=float), (model.m,))
    pv = np.broadcast_to(np.asarray(pseudo.pseudo_variance, dtype=float), (model.m,))
    pm = np.broadcast_to(np.asarray(prior_x.mean, dtype=float), (model.n,))
    pvar = np.broadcast_to(np.asarray(prior_x.variance, dtype=float), (model.n,))

    prec = (A.T * (1.0 / pv)) @ A
    prec[np.diag_indices_from(prec)] += 1.0 / pvar
    rhs = pm / pvar + A.T @ (py / pv)
    # cholesky zeroes the strict upper triangle, which dtrtri leaves untouched
    chol = cholesky(prec, lower=True)
    mu = cho_solve((chol, True), rhs)
    chol_inv, info = dtrtri(chol, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtri: singular Cholesky factor (info={info})")
    w = chol_inv @ A.T

    x_var = np.maximum(np.einsum("ij,ij->j", chol_inv, chol_inv), eps)
    z_mean = A @ mu
    z_var = np.maximum(np.einsum("ij,ij->j", w, w), eps)

    x_stats = PosteriorStats(point=mu, variance=x_var)
    z_stats = PosteriorStats(point=z_mean, variance=z_var)
    z_ext = ep_extrinsic(z_stats, GaussianBelief(py, pv), eps=eps)
    return SlmResult(x_stats=x_stats, z_stats=z_stats, z_extrinsic=z_ext)


# ---------------------------------------------------------------------------
# Matrix file formats.
# ---------------------------------------------------------------------------

def save_matrix_csv(path, A: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(A), delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))


def save_matrix_binary(path, A: np.ndarray) -> None:
    A = np.ascontiguousarray(np.atleast_2d(A), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", A.shape[0], A.shape[1]))
        fh.write(A.tobytes())


def load_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MATRIX_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MATRIX_MAGIC!r}")
        m, n = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(8 * m * n), dtype="<f8")
        if data.size != m * n:
            raise ValueError(f"{path}: truncated matrix payload")
    return data.reshape(m, n).astype(float)


def load_matrix(path) -> np.ndarray:
    """Dispatch on the binary magic; fall back to CSV."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MATRIX_MAGIC:
        return load_matrix_binary(path)
    return load_matrix_csv(path)
