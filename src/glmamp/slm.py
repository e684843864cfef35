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

Each step is one LAPACK or BLAS routine called directly: DSYRK, DGEMM,
DPOTRF (the Cholesky factor), DPOTRS (the mean's two triangular solves),
DTRTRI and DTRMM.  :mod:`glmamp.blas` calls them through the C pointers
SciPy exports, without the interpreter lock, so a second thread can run one
beside another.  SciPy's ``cholesky`` and ``cho_solve`` call the same DPOTRF
and DPOTRS, so the bits are theirs, but each also scans its operands for
non-finite values: n^2 reads per call.  One O(n) test of P's diagonal and
of the right-hand side P mu takes their place.  A is finite, so P can hold
a non-finite value only through a NaN, zero (or subnormal) or negative
variance.  Each such pseudo-variance sv_i spoils column i of B^T and with it
every diagonal entry of P; each such prior variance spoils its own entry,
except a negative one, which leaves P finite but indefinite.  A non-finite
prior or pseudo-observation mean spoils the right-hand side.

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

Above ``TRI_INV_LEAF`` every BLAS-3 step is cut into two independent halves
(``_cut``), and with a ``worker`` thread the second half of each runs on
it while the calling thread runs the first:

* P's lower triangle is two diagonal-block SYRKs and one GEMM: rows split
  at k, the multiple of ``CUT_ALIGN`` = 32 nearest n / sqrt(2), so that
  P11's SYRK (about k^2 m / 2 multiply-adds) weighs as much as P21's GEMM
  and P22's SYRK;
* the inverse's two top-level diagonal blocks are inverted one on each
  thread, and its off-diagonal block X21 = -X22 L21 X11 is two TRMMs each
  cut in two (L21's columns, then the product's rows);
* W_s is two TRMMs on column blocks of B^T, cut at the multiple of 32
  nearest m / 2.

The mean's DPOTRS (0.05 ms at n = 384) runs first, alone: beside the
inverse it would need a copy of L, which the inverse overwrites, and the
copy costs about what the overlap saves.  The worker runs BLAS calls only.

Bit policy: the cuts depend on (m, n) alone, so a call returns the same bits
with and without the worker.  At and below ``TRI_INV_LEAF`` there is no cut:
one SYRK, one TRTRI and one TRMM, the chain of earlier releases bit for bit.
Above it, a BLAS call cut into blocks may round differently from one call
over the whole (by about 1e-16 relative), so exact-backend results at
n > 64 may differ in the last bits from releases without the cut; at
n = 256 and 1024 with m = 2n none did.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .gaussian import (DEFAULT_VARIANCE_FLOOR, ExtrinsicMessage, GaussianBelief,
                       PosteriorStats, ep_extrinsic)

# Diagonal blocks of this order or less are inverted by TRTRI itself.  At
# n = 384 and 1024 a leaf of 64 ran within 4% of the fastest (48); 32 was as
# fast, 96 and 128 were 3-11% slower.
TRI_INV_LEAF = 64

# Every cut of a BLAS call into two blocks falls on a multiple of this.  Cuts
# there kept one call's bits in most probes (SYRK at n = 256-1024, m = 2n;
# TRMM at m = 2n), where cuts off the multiples of 8 mostly did not.
CUT_ALIGN = 32


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
              prior_x: GaussianBelief, worker=None) -> SlmResult:
    """Exact posterior of x ~ prod N(prior) given y_i = (Ax)_i + N(0, sv_i).

    ``pseudo`` holds the m pseudo-observations (means, variances); ``prior_x``
    the n per-component Gaussian priors.  Returns componentwise posterior
    stats on x, marginal stats on z = A x, and the EP extrinsic on z.
    ``worker``, an executor with one thread, runs the second half of each
    cut BLAS step; the result is the same bits without it.

    The steps, and why one O(n) finiteness test on P's diagonal and the
    right-hand side suffices, are in the module docstring.  The inputs are
    never written to, and full-length input vectors are used as they are;
    only a scalar is repeated to full length.  Raises ``ValueError`` when
    that test fails and ``numpy.linalg.LinAlgError`` when P is not positive
    definite.
    """
    A = model.A
    m, n = A.shape
    py, pv = _vector(pseudo.pseudo_mean, m), _vector(pseudo.pseudo_variance, m)
    pm, pvar = _vector(prior_x.mean, n), _vector(prior_x.variance, n)
    cut = n > TRI_INV_LEAF
    if cut:
        k, c = _cut(n / math.sqrt(2.0), n), _cut(m / 2, m)
        pair = functools.partial(_pair, worker)

    # The one n x m buffer: B^T = (A diag(pv)^-1/2)^T, Fortran-ordered whatever
    # A's layout.  A's second read follows at once, before SYRK's passes over
    # B^T evict it.
    bt = np.multiply(A.T, np.sqrt(1.0 / pv), order="F")
    rhs = pm / pvar + A.T @ (py / pv)
    # only P's lower triangle is written; its zero upper triangle stays zero
    # through the factor and the inverse
    prec = np.zeros((n, n), order="F")
    if cut:
        def lower_rows():
            blas.dgemm(bt[k:], bt[:k], prec[k:, :k])
            blas.dsyrk(bt[k:], prec[k:, k:])
        pair(lambda: blas.dsyrk(bt[:k], prec[:k, :k]), lower_rows)
    else:
        blas.dsyrk(bt, prec)
    # P is Fortran-ordered, so its diagonal is every (n + 1)-th entry of a view
    diag = prec.ravel(order="F")[::n + 1]
    diag += 1.0 / pvar
    # A is finite, so any variance that spoils P spoils a diagonal entry, and
    # only such a variance or a non-finite mean spoils the right-hand side
    if not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
        raise ValueError("slm_solve: the precision or the right-hand side is not finite "
                         "(a variance is NaN, zero or negative, or a mean is not finite)")
    # A negative info (of any routine) would flag an illegal argument, which
    # these square Fortran-ordered float arrays cannot be.
    info = blas.dpotrf(prec)
    if info > 0:
        raise np.linalg.LinAlgError(f"dpotrf: the {info}-th leading minor of "
                                    "the precision is not positive definite")
    chol, mu = prec, rhs
    blas.dpotrs(chol, mu)
    # L is not needed past dpotrs: L^-1 overwrites it, and W_s = L^-1 B^T
    # overwrites B^T (bt is never a view of A)
    w_s = bt
    if cut:
        chol_inv = _tri_inv(chol, out=chol, pair=pair)
        pair(lambda: blas.dtrmm(chol_inv, w_s[:, :c]), lambda: blas.dtrmm(chol_inv, w_s[:, c:]))
    else:
        chol_inv = _tri_inv(chol, out=chol)
        blas.dtrmm(chol_inv, w_s)

    x_var = np.maximum(np.einsum("ij,ij->j", chol_inv, chol_inv),
                       DEFAULT_VARIANCE_FLOOR)
    z_mean = A @ mu
    z_var = np.maximum(np.einsum("ij,ij->j", w_s, w_s) * pv, DEFAULT_VARIANCE_FLOOR)

    x_stats = PosteriorStats(point=mu, variance=x_var)
    z_stats = PosteriorStats(point=z_mean, variance=z_var)
    z_ext = ep_extrinsic(z_stats, GaussianBelief(py, pv))
    return SlmResult(x_stats=x_stats, z_stats=z_stats, z_extrinsic=z_ext)


def _cut(at: float, size: int) -> int:
    """The multiple of ``CUT_ALIGN`` nearest ``at``, at most ``size``."""
    return min(CUT_ALIGN * round(at / CUT_ALIGN), size)


def _pair(worker, first, second) -> tuple:
    """``(first(), second())``; with a ``worker``, ``second`` runs on it.

    This is the one place any work of a solve is handed to its worker.
    Either way an exception of ``first`` wins over one of ``second``, as it
    does when they run in turn, and both have finished when this returns or
    raises.
    """
    if worker is None:
        return first(), second()
    done = worker.submit(second)
    try:
        result = first()
    finally:
        done.exception()  # waits for ``second`` whether or not ``first`` raised
    return result, done.result()


def _vector(values: np.ndarray, size: int) -> np.ndarray:
    """A message field as a vector: a full-length one as it is, 0-d repeated ``size`` times."""
    return values if values.ndim else np.full(size, values)


def _tri_inv(L: np.ndarray, out: np.ndarray, offset: int = 0, pair=None) -> np.ndarray:
    """Inverse of a lower-triangular L whose strict upper triangle is zero.

    With L = [[L11, 0], [L21, L22]], L^-1 = [[X11, 0], [X21, X22]] where
    X11 = L11^-1 and X22 = L22^-1 recurse and X21 = -X22 L21 X11 is two TRMMs.
    Every block is written into ``out`` (a Fortran-ordered n x n array or
    block of one), which is returned; ``out`` may be L itself, since each
    block of L is read before its block of ``out`` is written.
    ``offset`` is L's first row in the whole factor.  With ``pair`` (a
    ``_pair`` bound to a worker or to None), the top level runs X11 and X22
    as a pair, and each TRMM of X21 as a pair of halves; the recursion below
    runs whole calls in turn.  Raises ``numpy.linalg.LinAlgError`` when a
    diagonal entry of L is zero.
    """
    n = L.shape[0]
    if out is not L:
        out[...] = L
    if n <= TRI_INV_LEAF:
        info = blas.dtrtri(out)
        if info != 0:
            # info > 0 is the 1-based index of a zero diagonal entry in this block
            raise np.linalg.LinAlgError("dtrtri: singular Cholesky factor "
                                        f"(info={info + offset if info > 0 else info})")
        return out
    k = n // 2
    x11, x22, x21 = out[:k, :k], out[k:, k:], out[k:, :k]
    if pair is None:
        _tri_inv(x11, x11, offset)
        _tri_inv(x22, x22, offset + k)
        blas.dtrmm(x22, x21)
        blas.dtrmm(x11, x21, alpha=-1.0, right=True)
        return out
    pair(lambda: _tri_inv(x11, x11, offset), lambda: _tri_inv(x22, x22, offset + k))
    j, i = _cut(k / 2, k), _cut((n - k) / 2, n - k)
    pair(lambda: blas.dtrmm(x22, x21[:, :j]), lambda: blas.dtrmm(x22, x21[:, j:]))
    pair(lambda: blas.dtrmm(x11, x21[:i], alpha=-1.0, right=True),
         lambda: blas.dtrmm(x11, x21[i:], alpha=-1.0, right=True))
    return out
