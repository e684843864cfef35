"""Independent numerical oracles used by the test suite.

Deliberately dumb and slow: dense grids, plain fixed-order quadrature,
explicit matrix assembly, proximal gradient.  None of them share code with
the library paths they check, except ``wrapper_slm_solve``: a bit-for-bit
reference for ``slm_solve`` that shares its triangular inverse.
"""

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.blas import dsyrk, dtrmm
from scipy.stats import norm

from glmamp.gaussian import (DEFAULT_VARIANCE_FLOOR, GaussianBelief, PosteriorStats,
                             ep_extrinsic)
from glmamp.slm import SlmResult, _tri_inv


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


def wrapper_slm_solve(model, pseudo, prior_x):
    """``slm_solve``'s LAPACK/BLAS chain through SciPy's checking wrappers.

    The same SYRK, Cholesky, triangular solves, triangular inverse and TRMM
    as ``slm_solve``, with ``cholesky`` and ``cho_solve`` (each scans its
    operands with ``asarray_chkfinite``), the diagonal updated by fancy
    indexing and every input broadcast to full length, so its results are
    the bits ``slm_solve`` must return.
    """
    A = model.A
    py = np.broadcast_to(np.asarray(pseudo.pseudo_mean, dtype=float), (model.m,))
    pv = np.broadcast_to(np.asarray(pseudo.pseudo_variance, dtype=float), (model.m,))
    pm = np.broadcast_to(np.asarray(prior_x.mean, dtype=float), (model.n,))
    pvar = np.broadcast_to(np.asarray(prior_x.variance, dtype=float), (model.n,))
    bt = np.multiply(A.T, np.sqrt(1.0 / pv), order="F")
    prec = dsyrk(1.0, bt, lower=1)
    prec[np.diag_indices_from(prec)] += 1.0 / pvar
    rhs = pm / pvar + A.T @ (py / pv)
    chol = cholesky(prec, lower=True, overwrite_a=True)
    mu = cho_solve((chol, True), rhs)
    chol_inv = _tri_inv(chol, out=chol)
    w_s = dtrmm(1.0, chol_inv, bt, lower=1, overwrite_b=1)
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
