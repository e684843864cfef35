"""Exact Gaussian inference for the standard linear model.

Given per-component Gaussian priors on x and independent Gaussian
pseudo-observations on z = A x, ``slm_solve`` computes the exact joint
Gaussian posterior, the marginal stats of each z_i, and the extrinsic
message on each z_i with its own pseudo-observation factor divided out.

The posterior covariance P^-1 of the n x n precision P = L L^T is never
formed.  Only its diagonal and the m quadratic forms a_i^T P^-1 a_i are
needed, and both come from squared column norms: of L^-1 for x, and of
W_s = L^-1 B^T for z, where B = A diag(sv)^-1/2 is A with row i scaled by
the pseudo-observation's 1/sqrt(sv_i), so var(z_i) = ||w_s,i||^2 sv_i.  Each
call is four LAPACK/BLAS-3 steps, each using the structure of its operands:
a symmetric rank-m update (SYRK, m n^2 flops) for the lower triangle of
P = B^T B + diag(1/prior var), a Cholesky factorization and a triangular
inverse (n^3/3 flops each), and a triangular-times-dense product (TRMM,
m n^2) for W_s.  That is 2 m n^2 + 2 n^3/3 flops per call, where two general
matrix products made it 4 m n^2 + 2 n^3/3.

Each step is one LAPACK or BLAS routine called directly: DSYRK, DPOTRF
(the Cholesky factor), DPOTRS (the mean's two triangular solves), DTRTRI
and DTRMM.  SciPy's ``cholesky`` and ``cho_solve`` call the same DPOTRF and
DPOTRS, so the bits are theirs, but each also scans its operands for
non-finite values: n^2 reads per call that validated inputs make redundant.
One O(n) test of P's diagonal takes their place.  A is finite, so P can
hold a non-finite value only through a NaN, zero (or subnormal) or
negative variance.  Each such pseudo-variance sv_i spoils column i of B^T
and with it every diagonal entry of P; each such prior variance spoils its
own entry, except a negative one, which leaves P finite but indefinite.  A
non-finite prior or pseudo-observation mean reaches the posterior mean,
which ``PosteriorStats`` rejects.

A is read three times, in this order: once into B^T, at once again for
A^T (py / sv) while it is still in cache, and last for z's mean A mu.

Memory is one n x m buffer and one n x n buffer per call.  B^T is built
once, Fortran-ordered, and read by SYRK; TRMM then overwrites it with W_s.
P is factored in place, and L^-1 is written over L once the mean is solved.

The triangular inverse is recursive (Elmroth, Gustavson, Jonsson & Kagstrom,
SIAM Review 2004): L is split into 2 x 2 blocks, both diagonal blocks are
inverted recursively, and the off-diagonal block is two TRMMs.  LAPACK's
TRTRI inverts blocks of order at most ``TRI_INV_LEAF`` = 64, so every
inverse of that order or less is exactly the TRTRI result.  Above it most
flops run at TRMM speed: on one OpenBLAS thread TRTRI reaches about a fifth
of the GFlop/s of the SYRK and TRMM around it at n = 384, and the recursion
takes 1.3-1.4 ms where TRTRI takes 2.9-3.7 ms (17 against 27 ms at n = 1024).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk, dtrmm
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from .gaussian import (DEFAULT_VARIANCE_FLOOR, ExtrinsicMessage, GaussianBelief,
                       PosteriorStats, ep_extrinsic)

# Diagonal blocks of this order or less are inverted by TRTRI itself.  At
# n = 384 and 1024 a leaf of 64 ran within 4% of the fastest (48); 32 was as
# fast, 96 and 128 were 3-11% slower.
TRI_INV_LEAF = 64


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
              prior_x: GaussianBelief) -> SlmResult:
    """Exact posterior of x ~ prod N(prior) given y_i = (Ax)_i + N(0, sv_i).

    ``pseudo`` holds the m pseudo-observations (means, variances); ``prior_x``
    the n per-component Gaussian priors.  Returns componentwise posterior
    stats on x, marginal stats on z = A x, and the EP extrinsic on z.

    One Fortran-ordered n x m buffer holds B^T = (A diag(sv)^-1/2)^T.  The
    lower triangle of the precision P = B^T B + diag(1/prior var) comes from
    one SYRK on it, and P is factored once in place, P = L L^T.  The mean is
    two triangular solves with L.  The variances come from L^-1 without
    forming P^-1: var(x_j) is the squared norm of column j of L^-1, and
    var(z_i) = ||w_s,i||^2 sv_i, where w_s,i is column i of W_s = L^-1 B^T,
    which one TRMM writes over B^T.  L^-1 is written over L; it is TRTRI for
    n <= 64 and a recursive 2 x 2-block inverse above, whose off-diagonal
    blocks are TRMMs (see the module docstring for why).  The inputs are
    never written to, and full-length input vectors are used as they are;
    only a scalar is repeated to full length.

    P is factored by DPOTRF and the mean solved by DPOTRS, called directly,
    and the only finiteness test is O(n), on P's diagonal (see the module
    docstring for why that suffices).  Raises ``ValueError`` when it fails
    and ``numpy.linalg.LinAlgError`` when P is not positive definite.
    """
    A = model.A
    m, n = A.shape
    py, pv = _vector(pseudo.pseudo_mean, m), _vector(pseudo.pseudo_variance, m)
    pm, pvar = _vector(prior_x.mean, n), _vector(prior_x.variance, n)

    # The one n x m buffer: B^T = (A diag(pv)^-1/2)^T, Fortran-ordered whatever
    # A's layout, so neither SYRK (trans=0) nor TRMM makes f2py copy it.  A's
    # second read follows at once, before SYRK's passes over B^T evict it.
    bt = np.multiply(A.T, np.sqrt(1.0 / pv), order="F")
    rhs = pm / pvar + A.T @ (py / pv)
    prec = dsyrk(1.0, bt, lower=1)
    # P is Fortran-ordered, so its diagonal is every (n + 1)-th entry of a view
    diag = prec.ravel(order="F")[::n + 1]
    diag += 1.0 / pvar
    # A is finite, so only a variance can make an entry of P non-finite, and
    # any variance that does makes a diagonal entry non-finite
    if not np.isfinite(diag).all():
        raise ValueError("slm_solve: the precision is not finite "
                         "(a variance is NaN, zero or negative)")
    # clean=1 zeroes the strict upper triangle, which dtrtri leaves untouched.
    # A negative info (of either routine) would flag an illegal argument,
    # which these square Fortran-ordered float arrays cannot be.
    chol, info = dpotrf(prec, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"dpotrf: the {info}-th leading minor of "
                                    "the precision is not positive definite")
    mu, _ = dpotrs(chol, rhs, lower=1, overwrite_b=1)
    # L is not needed past dpotrs: L^-1 overwrites it, and W_s = L^-1 B^T
    # overwrites B^T (bt is never a view of A)
    chol_inv = _tri_inv(chol, out=chol)
    w_s = dtrmm(1.0, chol_inv, bt, lower=1, overwrite_b=1)

    x_var = np.maximum(np.einsum("ij,ij->j", chol_inv, chol_inv),
                       DEFAULT_VARIANCE_FLOOR)
    z_mean = A @ mu
    z_var = np.maximum(np.einsum("ij,ij->j", w_s, w_s) * pv, DEFAULT_VARIANCE_FLOOR)

    x_stats = PosteriorStats(point=mu, variance=x_var)
    z_stats = PosteriorStats(point=z_mean, variance=z_var)
    z_ext = ep_extrinsic(z_stats, GaussianBelief(py, pv))
    return SlmResult(x_stats=x_stats, z_stats=z_stats, z_extrinsic=z_ext)


def _vector(values: np.ndarray, size: int) -> np.ndarray:
    """A message field as a vector: a full-length one as it is, 0-d repeated ``size`` times."""
    return values if values.ndim else np.full(size, values)


def _tri_inv(L: np.ndarray, out: np.ndarray, offset: int = 0) -> np.ndarray:
    """Inverse of a lower-triangular L whose strict upper triangle is zero.

    With L = [[L11, 0], [L21, L22]], L^-1 = [[X11, 0], [X21, X22]] where
    X11 = L11^-1 and X22 = L22^-1 recurse and X21 = -X22 L21 X11 is two TRMMs.
    Every block is written into ``out`` (a Fortran-ordered n x n array),
    which is returned; ``out`` may be L itself, since each block of L is
    read before its block of ``out`` is written.
    ``offset`` is L's first row in the whole factor.  Raises
    ``numpy.linalg.LinAlgError`` when a diagonal entry of L is zero.
    """
    n = L.shape[0]
    if n <= TRI_INV_LEAF:
        inv, info = dtrtri(L, lower=1)
        if info != 0:
            # info > 0 is the 1-based index of a zero diagonal entry in this block
            raise np.linalg.LinAlgError("dtrtri: singular Cholesky factor "
                                        f"(info={info + offset if info > 0 else info})")
        out[...] = inv
        return out
    k = n // 2
    _tri_inv(L[:k, :k], out[:k, :k], offset)
    _tri_inv(L[k:, k:], out[k:, k:], offset + k)
    x22_l21 = dtrmm(1.0, out[k:, k:], L[k:, :k], lower=1)
    out[k:, :k] = dtrmm(-1.0, out[:k, :k], x22_l21, side=1, lower=1, overwrite_b=1)
    return out

