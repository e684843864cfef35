"""Independent numerical oracles used by the test suite.

Deliberately dumb and slow: dense grids, plain fixed-order quadrature,
explicit matrix assembly, proximal gradient.  None of them share code with
the library paths they check, except ``wrapper_slm_solve``: a bit-for-bit
reference for ``slm_solve`` that makes the same LAPACK/BLAS calls on the
same blocks, through SciPy's f2py wrappers.
"""

import json

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.blas import dgemm, dsyrk, dtrmm
from scipy.linalg.lapack import dtrtri
from scipy.stats import norm

from glmamp.gaussian import (DEFAULT_VARIANCE_FLOOR, GaussianBelief, PosteriorStats,
                             ep_extrinsic)
from glmamp.slm import SlmResult


def strict_json(text):
    """``json.loads`` as a strict JSON parser reads: NaN and the infinities,
    which Python writes but JSON has no token for, raise ValueError."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def grid_moments(log_unnorm, center, sd, n_points=4096, width=12.0, lower=None):
    """Mean/variance of exp(log_unnorm) on a dense grid of +-width sd."""
    lo = center - width * sd
    hi = center + width * sd
    if lower is not None:
        lo = max(lo, lower)
    z = np.linspace(lo, hi, n_points)
    lw = log_unnorm(z)
    lw = lw - np.max(lw)
    w = np.exp(lw)
    w[0] *= 0.5  # trapezoid end weights: matters when the domain boundary
    w[-1] *= 0.5  # carries non-negligible density (truncated posteriors)
    w /= np.sum(w)
    mean = float(np.sum(w * z))
    var = float(np.sum(w * (z - mean) ** 2))
    return mean, var


def gauss_hermite_moments(log_lik, mean, var, order=201):
    """Plain fixed-order Gauss-Hermite at the belief (no recentering)."""
    t, w = np.polynomial.hermite.hermgauss(order)
    z = mean + np.sqrt(2.0 * var) * t
    lw = np.log(w) + log_lik(z)
    lw -= np.max(lw)
    p = np.exp(lw)
    p /= p.sum()
    m = float(np.sum(p * z))
    v = float(np.sum(p * (z - m) ** 2))
    return m, v


def golden_section_max(f, lo, hi, tol=1e-10):
    """Golden-section maximizer of a unimodal scalar function."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def dense_gaussian_posterior(A, prior_mean, prior_var, pseudo_mean, pseudo_var):
    """Explicit precision-matrix Gaussian posterior for the SLM."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    prec = np.diag(1.0 / np.asarray(prior_var, dtype=float))
    prec = prec + A.T @ np.diag(1.0 / np.asarray(pseudo_var, dtype=float)) @ A
    rhs = np.asarray(prior_mean) / np.asarray(prior_var) \
        + A.T @ (np.asarray(pseudo_mean) / np.asarray(pseudo_var))
    cov = np.linalg.inv(prec)
    mu = cov @ rhs
    z_mean = A @ mu
    z_var = np.diag(A @ cov @ A.T).copy()
    return mu, np.diag(cov).copy(), z_mean, z_var


# slm_solve's block structure: triangular blocks of this order or less are
# inverted whole, and every cut of a larger call falls on a multiple of
# CUT_ALIGN (the nearest to its target, at most the size)
LEAF, CUT_ALIGN = 64, 32


def _cut(at, size):
    return min(CUT_ALIGN * round(at / CUT_ALIGN), size)


def _column_blocks(b, j):
    return [blk for blk in (b[:, :j], b[:, j:]) if blk.size]


def _wrapper_tri_inv(L):
    """L^-1 by recursive 2 x 2 blocks of order LEAF or less, through f2py.

    X11 and X22 recurse (``dtrtri`` at the leaves) and X21 = -(X22 L21) X11
    is two ``dtrmm`` calls, each on a whole block.
    """
    n = L.shape[0]
    if n <= LEAF:
        return dtrtri(L, lower=1)[0]
    k = n // 2
    x11 = _wrapper_tri_inv(L[:k, :k])
    x22 = _wrapper_tri_inv(L[k:, k:])
    x21 = dtrmm(-1.0, x11, dtrmm(1.0, x22, L[k:, :k], lower=1), side=1, lower=1)
    out = np.zeros((n, n), order="F")
    out[:k, :k], out[k:, k:], out[k:, :k] = x11, x22, x21
    return out


def wrapper_slm_solve(model, pseudo, prior_x):
    """``slm_solve``'s LAPACK/BLAS chain through SciPy's checking wrappers.

    The same SYRK, GEMM, Cholesky, triangular solves, triangular inverse and
    TRMM calls on the same blocks as ``slm_solve`` (each block copied by
    f2py), with ``cholesky`` and ``cho_solve`` (each scans its operands with
    ``asarray_chkfinite``), the diagonal updated by fancy indexing and every
    input broadcast to full length, so its results are the bits
    ``slm_solve`` must return.  Up to n = LEAF each step is one call.  Above
    it, P's rows are cut at k near 3n / 4 (two SYRKs and a GEMM) and W_s's
    columns at c near m / 2; the inverse is never cut (``_wrapper_tri_inv``).
    """
    A = model.A
    m, n = A.shape
    py = np.broadcast_to(np.asarray(pseudo.pseudo_mean, dtype=float), (m,))
    pv = np.broadcast_to(np.asarray(pseudo.pseudo_variance, dtype=float), (m,))
    pm = np.broadcast_to(np.asarray(prior_x.mean, dtype=float), (n,))
    pvar = np.broadcast_to(np.asarray(prior_x.variance, dtype=float), (n,))
    k, c = (n, m) if n <= LEAF else (_cut(0.75 * n, n), _cut(m / 2, m))
    bt = np.multiply(A.T, np.sqrt(1.0 / pv), order="F")
    prec = np.zeros((n, n), order="F")
    prec[:k, :k] = dsyrk(1.0, bt[:k], lower=1)
    if k < n:
        prec[k:, :k] = dgemm(1.0, bt[k:], bt[:k], trans_b=1)
        prec[k:, k:] = dsyrk(1.0, bt[k:], lower=1)
    prec[np.diag_indices_from(prec)] += 1.0 / pvar
    rhs = pm / pvar + A.T @ (py / pv)
    chol = cholesky(prec, lower=True, overwrite_a=True)
    mu = cho_solve((chol, True), rhs)
    chol_inv = _wrapper_tri_inv(chol)
    w_s = np.asfortranarray(np.hstack([dtrmm(1.0, chol_inv, b, lower=1)
                                       for b in _column_blocks(bt, c)]))
    x_var = np.maximum(np.einsum("ij,ij->j", chol_inv, chol_inv),
                       DEFAULT_VARIANCE_FLOOR)
    z_stats = PosteriorStats(point=A @ mu, variance=np.maximum(
        np.einsum("ij,ij->j", w_s, w_s) * pv, DEFAULT_VARIANCE_FLOOR))
    return SlmResult(PosteriorStats(point=mu, variance=x_var), z_stats,
                     ep_extrinsic(z_stats, GaussianBelief(py, pv)))


def lmmse_solution(A, y, noise_var, prior_mean, prior_var):
    """Closed-form linear-Gaussian posterior mean."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    prec = np.diag(np.full(n, 1.0 / prior_var)) + A.T @ A / noise_var
    rhs = np.full(n, prior_mean / prior_var) + A.T @ np.asarray(y) / noise_var
    return np.linalg.solve(prec, rhs)


def lasso_prox_grad(A, y, noise_var, rate, max_iter=200_000, tol=1e-13):
    """Proximal gradient (ISTA) for min ||y-Ax||^2/(2 nv) + rate * |x|_1."""
    A = np.asarray(A, dtype=float)
    L = np.linalg.norm(A, 2) ** 2 / noise_var
    x = np.zeros(A.shape[1])
    for _ in range(max_iter):
        g = A.T @ (A @ x - y) / noise_var
        xn = x - g / L
        xn = np.sign(xn) * np.maximum(np.abs(xn) - rate / L, 0.0)
        if np.linalg.norm(xn - x) <= tol * max(np.linalg.norm(xn), 1e-30):
            return xn
        x = xn
    return x


def probit_posterior_closed_form(y, mean, var, scale=1.0):
    """Textbook Gaussian-CDF conjugacy for the probit posterior moments."""
    s = np.sqrt(scale ** 2 + var)
    t = y * mean / s
    r = norm.pdf(t) / norm.cdf(t)
    post_mean = mean + y * var / s * r
    post_var = var - var ** 2 / s ** 2 * r * (r + t)
    return post_mean, post_var


def poisson_tilted_moments_mp(y, mean, var, dps=30):
    """Mean and variance of z ~ z^y e^-z N(z; mean, var) on z > 0, via mpmath.

    The density is z^y times N(z; mean - var, var) cut off at 0, whose
    moments J_k = int_0^inf w^k exp(-(w - t)^2 / 2) dw (z = sigma w,
    t = (mean - var) / sigma) are J_k = k! exp(-t^2 / 4) D_{-k-1}(-t) with
    D the parabolic cylinder function, evaluated at ``dps`` digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        sigma = mpmath.sqrt(mpmath.mpf(var))
        t = (mpmath.mpf(mean) - mpmath.mpf(var)) / sigma
        d = [mpmath.pcfd(-(y + 1 + j), -t) for j in range(3)]
        r1 = (y + 1) * d[1] / d[0]  # J_{y+1} / J_y
        r2 = (y + 2) * d[2] / d[1]  # J_{y+2} / J_{y+1}
        return float(sigma * r1), float(var * r1 * (r2 - r1))


def _trunc_normal_mp(mu, var):
    """(log Z, mean, second moment) of N(mu, var) cut off at x > 0, in mpmath."""
    import mpmath

    s = mpmath.sqrt(var)
    t = mu / s
    z = mpmath.ncdf(t)
    h = mpmath.npdf(t) / z  # the hazard phi(t)/Phi(t)
    mean = mu + s * h
    return mpmath.log(z), mean, mean * mean + var * (1 - h * (t + h))


def laplace_mmse_mp(rate, r, tau, dps=40):
    """Posterior mean and variance of x ~ Laplace(rate) under r = x + N(0, tau).

    The posterior is a mixture of N(r - rate tau, tau) cut off at x > 0 and
    N(r + rate tau, tau) cut off at x < 0, weighted by
    exp(-+rate r + rate^2 tau / 2) times each one's mass, all at ``dps`` digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        lam, r, tau = mpmath.mpf(rate), mpmath.mpf(r), mpmath.mpf(tau)
        lz_p, m_p, s_p = _trunc_normal_mp(r - lam * tau, tau)
        lz_n, m_n, s_n = _trunc_normal_mp(-r - lam * tau, tau)  # of -x
        w_p = 1 / (1 + mpmath.exp(lz_n - lz_p + 2 * lam * r))
        mean = w_p * m_p - (1 - w_p) * m_n
        return float(mean), float(w_p * s_p + (1 - w_p) * s_n - mean * mean)


def bg_mmse_mp(rho, mean, var, r, tau, dps=40):
    """Posterior mean and variance of x ~ bg(rho, mean, var) under r = x + N(0, tau)."""
    import mpmath

    with mpmath.workdps(dps):
        rho, mean, var, r, tau = (mpmath.mpf(v) for v in (rho, mean, var, r, tau))
        z1 = rho * mpmath.npdf(r, mean, mpmath.sqrt(var + tau))
        z0 = (1 - rho) * mpmath.npdf(r, 0, mpmath.sqrt(tau))
        pi = z1 / (z1 + z0)
        v1 = 1 / (1 / var + 1 / tau)
        m1 = v1 * (mean / var + r / tau)
        point = pi * m1
        return float(point), float(pi * (m1 * m1 + v1) - point * point)


def logistic_tilted_moments_mp(y, mean, var, scale, dps=25):
    """Mean and variance of z ~ N(z; mean, var) sigmoid(y z / scale), via mpmath.

    The tilted density is log-concave.  Bisection finds its mode, and then
    on each side the points where it has fallen by 3 and by 60 nats (the
    mass beyond is below e^-60); a tanh-sinh quadrature breaks at these
    points and at z = 0, where the sigmoid turns.  So the integral is
    centred on the tilted mode, wherever the mass has gone: one centred on
    ``mean`` misses it when y mean / scale is far below 0.  The quadrature
    runs at ``dps`` digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        y, mu, var, c = (mpmath.mpf(float(v)) for v in (y, mean, var, scale))
        big = 10_000  # beyond |x| = big, e^-|x| is nil however small the scale

        def log_density(z):
            x = y * z / c
            tail = 0 if abs(x) > big else mpmath.log1p(mpmath.exp(-abs(x)))
            return min(x, 0) - tail - (z - mu) ** 2 / (2 * var)

        def slope(z):  # of log_density, decreasing in z
            x = y * z / c
            if x > big:
                return -(z - mu) / var
            if x < -big:
                return y / c - (z - mu) / var
            return y / c / (1 + mpmath.exp(x)) - (z - mu) / var

        def bisect(f, lo, hi, tol):  # f(lo) > 0 >= f(hi); stops at tol or rounding
            mid = (lo + hi) / 2
            while abs(hi - lo) > tol and lo != mid != hi:
                lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
                mid = (lo + hi) / 2
            return mid

        def outward(f, start, step):  # f(start) > 0; returns (a, b), f(a) > 0 >= f(b)
            while f(start + step) > 0:
                start, step = start + step, 2 * step
            return start, start + step

        tiny = min(c, mpmath.sqrt(var)) * mpmath.mpf(10) ** (-dps // 2)
        if slope(mu) > 0:
            mode = bisect(slope, *outward(slope, mu, mpmath.sqrt(var)), tiny)
        else:
            hi, lo = outward(lambda z: -slope(z), mu, -mpmath.sqrt(var))
            mode = bisect(slope, lo, hi, tiny)
        top = log_density(mode)
        points = {mode}
        for step in (-tiny, tiny):
            for drop in (3, 60):
                def above(z):
                    return log_density(z) - top + drop
                a, b = outward(above, mode, step)
                points.add(bisect(above, a, b, abs(b - a) / 2 ** 40))
        points = sorted(points)
        if points[0] < 0 < points[-1]:
            points = sorted(points + [mpmath.mpf(0)])
        seen = {}

        def density(z):
            if z not in seen:
                seen[z] = mpmath.exp(log_density(z) - top)
            return seen[z]

        mass = mpmath.quad(density, points)
        m1 = mpmath.quad(lambda z: (z - mode) * density(z), points) / mass
        m2 = mpmath.quad(lambda z: (z - mode) ** 2 * density(z), points) / mass
        return float(mode + m1), float(m2 - m1 * m1)


def probit_tilted_moments_mp(y, mean, var, scale, dps=50):
    """log Z, mean and variance of N(z; mean, var) Phi(y z / scale) in z, via mpmath.

    Gaussian-CDF conjugacy at ``dps`` digits: with S^2 = scale^2 + var,
    t = y mean / S and h = phi(t) / Phi(t), Z = Phi(t), the mean is
    mean + y var h / S and the variance var - var^2 h (h + t) / S^2.  These
    forms cancel by about 1 + t^2 where t << 0, which 50 digits absorb for
    |t| up to 1e10; log Z takes log1p(-Phi(-t)) where t > 0, as Phi(t)
    rounds to 1.  At scale 0 the tilt is the step y z > 0.
    """
    import mpmath

    with mpmath.workdps(dps):
        y, mu, var, c = (mpmath.mpf(float(v)) for v in (y, mean, var, scale))
        s = mpmath.sqrt(c * c + var)
        t = y * mu / s
        z = mpmath.ncdf(t)
        h = mpmath.npdf(t) / z
        log_z = mpmath.log1p(-mpmath.ncdf(-t)) if t > 0 else mpmath.log(z)
        return (float(log_z), float(mu + y * var * h / s),
                float(var - var * var * h * (h + t) / (s * s)))
