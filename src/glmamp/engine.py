"""GLM solvers: one iteration loop with a swappable module A.

Every engine runs the same loop, ``_iterate``.  Each iteration, module A
turns the current estimate of x into Gaussian beliefs N(p_hat, tau_p) on
z = A x; module B refines those beliefs through the likelihood and divides
the belief back out (EP), which leaves Gaussian pseudo-observations on z;
module A turns these into a Gaussian cavity N(r, tau_r) on x, and the
prior's denoiser refines the cavity into the next estimate.  The loop owns
the estimate, the trace, the convergence test and the divergence test: each
hand-over (beliefs on z, module B's posterior and its EP message, the cavity
on x, the denoised x) passes ``gaussian.valid_moments`` before its reader
runs, or the solve ends ``diverged`` with the last estimate that passed; so
does a denoised x whose norm overflows, which the convergence test divides
by, and an x moved while module B floored every message on z.

Module B is one chain for every engine: ``g_out_with_stats`` (the MMSE
posterior, or the MAP point with its Laplace variance, and the channel's
output score) then ``ep_extrinsic``.  The loop hands module A all of it,
the EP message, the belief on z and the channel's score, and module A
reads what its step needs.  The engines differ only in the score the amp
step reads, which ``verify.check_equivalence`` compares: GAMP's step
(``run_gamp``) the channel's score, the modular amp step the closed-form
AWGN score of the EP pseudo-observations (``awgn_g_out``), so it sees only
those.  The exact step reads the EP message and takes its cavity on x from
its own solve, so no score is computed for it.

Module A is one step class per backend, listed by name in ``SLM_BACKENDS``
(``run_modular`` takes ``SolverConfig.slm_backend``; ``run_gamp`` runs
``_GampStep``, the ``"amp"`` step on the channel's score):

* ``"amp"``   -- the AWGN-GAMP linear step (Onsager-corrected matvecs),
  which makes the modular loop reproduce the monolithic GAMP trajectory
  exactly.  Its terms assume a zero-mean A; when A's mean is a rank-one
  spike outside the bulk of A - mean (``_spike``, which reads only A), the
  step runs mean-removed, on A - mean with one extra input and one extra
  output kept in closed form.  Otherwise it runs the plain arithmetic, so
  solves on zero-mean matrices keep their bits;
* ``"exact"`` -- the dense exact Gaussian solve of :mod:`glmamp.slm`, with
  damped EP messages carrying non-Gaussian priors on the x side.

A backend is its step class plus its ``SLM_BACKENDS`` entry.  ``ENGINES``
names the three solvers the front ends offer, each by its runner and
backend: ``gamp``, ``modular-amp`` (which reproduces GAMP step for step)
and ``modular-exact``; ``glmamp solve --engine``, ``glmamp sweep`` and
``scripts/trace_digest.py`` read it.

A step class is a module-A protocol of four methods: ``__init__(problem,
config, worker)``, ``z_belief``, ``x_cavity`` and ``absorb_x``.  ``_solve``
runs every solve with numpy's and SciPy's OpenBLAS on one thread per call
(``blas.one_thread``), so neither a solve's bits nor its worker depend on
the caller's BLAS thread count, and sets both counts back when the solve
returns or raises.  When both libraries were pinned it makes the solve's
one worker, an executor whose thread starts only when some layer first
hands it work, and joins it before the counts are restored; another BLAS
is not measured, so it gets none.  Every consumer applies its own size
test: the amp step keeps the worker from ``OVERLAP_MIN_BYTES`` of A up
and runs half of each matvec pair on it; the exact step keeps it from
``EXACT_OVERLAP_MIN_N`` unknowns up and hands it to ``slm_solve``, which
runs one piece of each of four cut steps on it: B^T's second column block
with A^T (py / pv), P's lower rows, z's mean A mu beside the triangular
inverse, and W_s's second column block with its squared norms.
``_iterate`` hands the worker to module B, whose probit quadrature
integrates half of the components on it from
``channels.QUAD_SPLIT_MIN_COMPONENTS`` components up.  Every split runs
through ``slm._pair``, and each result is the serial path's, bit for bit.
The worker runs numpy and BLAS work only: it calls no function the
benchmark's tracer wraps and builds no message, since the tracer's span
stack and object counter are not thread-safe.  The exact step's share
enters no function of ``gaussian``, ``channels``, ``priors`` or this
module; a test records every function its thread enters.

Both return the solution and a full per-iteration trace exportable as
JSON lines.
"""

from __future__ import annotations

import json
import operator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .channels import Mode, OutputChannel, awgn_g_out, g_out_with_stats
from .gaussian import (DEFAULT_VARIANCE_FLOOR, ExtrinsicMessage, GaussianBelief,
                       PosteriorStats, ep_extrinsic, valid_moments)
from .priors import InputPrior
from .slm import LinearModel, _pair, slm_solve

# A in bytes at and above which the "amp" step keeps the solve's worker
# thread (see ``_solve``).  It runs the second of each pair of independent
# matvecs on it while the calling thread runs the first.  The matvecs are
# memory-bound, so a second CPU hides one of them; below this size handing
# work to the thread costs more than it hides.  Swept on a 2-CPU host, one
# BLAS thread, m = 2n, bg(0.1) prior: overlap lost 0.2-0.6 ms/iter up to
# A = 3.5 MiB (n = 480), broke even at 4-5 MiB and won from 6.25 MiB
# (n = 640: probit(0.3) 7.6 -> 7.1, awgn(0.01) 2.1 -> 1.6 ms).  8 MiB leaves
# a margin above the break-even band for noisier hosts.
OVERLAP_MIN_BYTES = 8 * 2**20

# The fewest unknowns (n) at which the "exact" step keeps the worker,
# whatever A's size: ``slm_solve`` then runs one piece of each of its four
# cut steps on it.  Swept on a 2-CPU host, one BLAS thread, m = 2n,
# awgn(0.01) + bg(0.1) MMSE, median ms/iter without -> with the worker over
# 3 instances x 7 alternating repetitions, two sweeps: it lost up to n = 224
# (96: 0.79 -> 1.42; 224: 3.00 -> 3.55), tied at 256 (4.86 -> 4.13, then
# 3.98 -> 4.13) and won from 320 (7.84 -> 6.80; 384: 9.96 -> 8.99).  An
# earlier sweep on a faster host, when the worker took half of the
# triangular inverse instead of A mu and B^T's second block, won from 224
# (256: 1.46 -> 1.28; 384: 3.58 -> 2.60).
EXACT_OVERLAP_MIN_N = 256

# A's spread about its mean counts as 0 (``_spike`` never fires) at or below
# this fraction of A's mean square.  ``_spike`` takes the spread's square as
# mean(A^2) - mean(A)^2, which on a constant matrix rounds to up to about
# 1e-15 of the mean square instead of 0 (a 128 x 64 matrix of 0.1: 1.7e-16).
SPREAD_ROUNDING = 1e-12

TRACE_FIELDS = ("iter", "x_hat", "tau_x", "p_hat", "tau_p", "z0", "z_var",
                "y_tilde", "sigma2_tilde", "nmse", "floor_events")


@dataclass(frozen=True)
class ProblemInstance:
    """One GLM inference problem: y ~ channel(z), z = A x, x ~ prior."""

    model: LinearModel
    y: np.ndarray
    channel: OutputChannel
    prior: InputPrior
    x_true: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.model.m,):
            raise ValueError(f"y has shape {y.shape}, expected ({self.model.m},)")
        if not np.all(self.channel.in_support(y)):
            raise ValueError(f"y outside {self.channel.name} support")
        object.__setattr__(self, "y", y)
        if self.x_true is not None:
            xt = np.asarray(self.x_true, dtype=float)
            if xt.shape != (self.model.n,) or not np.all(np.isfinite(xt)):
                raise ValueError(f"x_true must be {self.model.n} finite values")
            object.__setattr__(self, "x_true", xt)


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 100
    tol: float = 1e-8
    damping: float | None = None  # None: module A's own, "amp" 1.0, "exact" 0.7
    slm_backend: str = "exact"  # run_modular module A, one of SLM_BACKENDS

    def __post_init__(self):
        try:
            valid_max_iter = operator.index(self.max_iter) >= 1
        except TypeError:
            valid_max_iter = False
        if not valid_max_iter:
            raise ValueError("max_iter must be an integer >= 1")
        if self.damping is not None and not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if not 0.0 <= self.tol < np.inf:  # NaN fails too
            raise ValueError("tol must be finite and >= 0")
        if self.slm_backend not in SLM_BACKENDS:
            raise ValueError("slm_backend must be one of "
                             + ", ".join(map(repr, SLM_BACKENDS)))


@dataclass
class IterationTrace:
    """Per-iteration record of every solver quantity, JSONL-exportable.

    Each record keeps its vectors as the float64 ndarrays the loop handed to
    ``append`` (8 bytes a value); the loop builds them fresh every iteration
    and never writes to them afterwards, so they are stored without a copy.
    JSON lists exist only inside ``to_jsonl``, one line at a time; it writes
    a NaN nmse (no x_true, or an all-zero one) as null.
    """

    records: list = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    floor_events: int = 0

    def append(self, **kw):
        self.records.append(kw)

    def __len__(self):
        return len(self.records)

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                line = {k: (rec[k].tolist() if isinstance(rec[k], np.ndarray)
                            else json_number(rec[k])) for k in TRACE_FIELDS}
                fh.write(json.dumps(line, sort_keys=True) + "\n")


def nmse(x_hat, x_true) -> float:
    """Normalized mean squared error ||x_hat - x_true||^2 / ||x_true||^2; NaN
    where x_true is None or all zero."""
    denom = 0.0 if x_true is None else float(np.sum(np.asarray(x_true) ** 2))
    if denom == 0.0:
        return float("nan")
    return float(np.sum((np.asarray(x_hat) - np.asarray(x_true)) ** 2) / denom)


def json_number(value):
    """A number as JSON holds it: a NaN, which JSON has no token for, as None (null)."""
    return None if np.isnan(value) else value


class _AmpStep:
    """Module A as the AWGN-GAMP linear step: Onsager-corrected matvecs.

    The matvecs come in independent pairs, A x_hat with A^2 tau_x and A^T s
    with (A^2)^T tau_s.  With the solve's ``worker``, kept from
    ``OVERLAP_MIN_BYTES`` of A up, the second of each pair runs on it while
    the calling thread runs the first.  Each product is still one whole
    BLAS call on the same operands, so the bits are the serial path's.

    When A's mean is a spike outside its bulk (``_spike``), the step runs on
    the mean-removed A~ = A - mu, augmented in closed form (Vila, Schniter,
    Rangan, Krzakala & Zdeborova, ICASSP 2015): one extra input
    v = 1^T x / kappa with a flat prior, whose column is c = sign(mu) sigma,
    so that A x = A~ x + c v 1; and one extra noiseless output
    beta (1^T x - kappa v) = 0.  kappa = sigma / |mu| and
    beta = sigma sqrt(n / (n + kappa^2)) give the extra column and row the
    squared norms m sigma^2 and n sigma^2 of A~'s.  Module B and the
    denoiser still see only the m outputs and n inputs.
    """

    monolithic = False  # reads the AWGN score of module B's EP message, not the channel's

    def __init__(self, problem, config, worker):
        A = problem.model.A
        self.worker = worker if A.nbytes >= OVERLAP_MIN_BYTES else None
        self.A2 = A * A
        self.damp = 1.0 if config.damping is None else config.damping
        self.s = np.zeros(problem.model.m)
        self.tau_s = np.zeros(problem.model.m)
        spike = _spike(A, self.A2)
        self.mean_removed = spike is not None
        if not self.mean_removed:
            self.A = A
            return
        mu, sigma = spike
        self.A = A - mu
        np.multiply(self.A, self.A, out=self.A2)
        n = problem.model.n
        self.kappa = sigma / abs(mu)
        self.col = np.copysign(sigma, mu)
        self.beta = sigma * np.sqrt(n / (n + self.kappa ** 2))
        # v starts at 0, 1e6 times wider than the prior makes it, as the exact
        # step's z messages start: a start matched to the prior sent bg MAP
        # Poisson solves to ``diverged``
        self.v_hat = 0.0
        self.tau_v = 1e6 * max(1.0, n * problem.prior.marginal_variance() / self.kappa ** 2)
        self.s_e = self.tau_se = 0.0
        self.p_e = self.tau_pe = None

    def z_belief(self, x_hat, tau_x):
        Ax, A2tau = _pair(self.worker, lambda: self.A @ x_hat, lambda: self.A2 @ tau_x)
        if self.mean_removed:
            Ax += self.col * self.v_hat
            A2tau += self.col ** 2 * self.tau_v
            # the constraint's belief
            self.tau_pe = max(self.beta ** 2 * (tau_x.sum() + self.kappa ** 2 * self.tau_v),
                              DEFAULT_VARIANCE_FLOOR)
            self.p_e = (self.beta * (x_hat.sum() - self.kappa * self.v_hat)
                        - self.tau_pe * self.s_e)
        tau_p = np.maximum(A2tau, DEFAULT_VARIANCE_FLOOR)
        return Ax - tau_p * self.s, tau_p, 0

    def x_cavity(self, x_hat, ext, belief, score):
        val, nd = score if self.monolithic else awgn_g_out(ext, belief)
        damp = self.damp
        self.s = damp * val + (1.0 - damp) * self.s
        self.tau_s = damp * np.maximum(nd, 0.0) + (1.0 - damp) * self.tau_s
        ATs, A2Ttau = _pair(self.worker, lambda: self.A.T @ self.s,
                            lambda: self.A2.T @ self.tau_s)
        if self.mean_removed:
            # the constraint's score and curvature, then the flat-prior input v
            self.s_e = damp * (-self.p_e / self.tau_pe) + (1.0 - damp) * self.s_e
            self.tau_se = damp / self.tau_pe + (1.0 - damp) * self.tau_se
            ATs += self.beta * self.s_e
            A2Ttau += self.beta ** 2 * self.tau_se
            bk = self.beta * self.kappa
            self.tau_v = 1.0 / max(self.col ** 2 * self.tau_s.sum() + bk ** 2 * self.tau_se,
                                   DEFAULT_VARIANCE_FLOOR)
            self.v_hat += self.tau_v * (self.col * self.s.sum() - bk * self.s_e)
        tau_r = 1.0 / np.maximum(A2Ttau, DEFAULT_VARIANCE_FLOOR)
        r = x_hat + tau_r * ATs
        return r, tau_r, ext.pseudo_mean, ext.pseudo_variance

    def absorb_x(self, xstats, r, tau_r):
        return 0


class _GampStep(_AmpStep):
    """GAMP's module A: the amp step on the channel's own output score."""

    monolithic = True


def _spike(A, A2):
    """(mu, sigma) when A's mean mu 1 1^T lies outside the bulk of A - mu, else None.

    sigma is the spread of A's entries about mu, from ``A.sum()`` and the A^2
    the amp step builds anyway.  The spike's singular value |mu| sqrt(mn) lies
    outside the bulk's edge sigma (sqrt(m) + sqrt(n)) when it is the larger;
    with sigma = 0 (``SPREAD_ROUNDING``) there is no bulk to remove it from.
    """
    m, n = A.shape
    mu = A.sum() / A.size
    mean_sq = A2.sum() / A.size
    var = mean_sq - mu * mu
    if not var > SPREAD_ROUNDING * mean_sq:
        return None
    sigma = np.sqrt(var)
    if abs(mu) * np.sqrt(m * n) > sigma * (np.sqrt(m) + np.sqrt(n)):
        return mu, sigma
    return None


def _absorb(lam, eta, ext, damp):
    """Damped EP update in natural parameters; floored components keep the old message."""
    v = ext.pseudo_variance
    lam_new = (1.0 - damp) * lam + damp * (1.0 / v)
    eta_new = (1.0 - damp) * eta + damp * (ext.pseudo_mean / v)
    return np.where(ext.floored, lam, lam_new), np.where(ext.floored, eta, eta_new)


class _ExactStep:
    """Module A as the exact dense SLM solve; EP messages carry the prior on x."""

    def __init__(self, problem, config, worker):
        model, prior = problem.model, problem.prior
        self.model = model
        self.worker = worker if model.n >= EXACT_OVERLAP_MIN_N else None
        self.damp = 0.7 if config.damping is None else config.damping
        # pseudo-observations on z, natural parameters (precision, precision*mean)
        v0 = 1e6 * max(1.0, prior.marginal_variance())
        self.lam_z = np.full(model.m, 1.0 / v0)
        self.eta_z = np.zeros(model.m)
        # x-side prior approximation messages
        self.lam_x = np.full(model.n,
                             1.0 / max(prior.marginal_variance(), DEFAULT_VARIANCE_FLOOR))
        self.eta_x = np.full(model.n, prior.marginal_mean()) * self.lam_x
        self.res = self.cavity = None

    def _pseudo_z(self):
        """The z pseudo-observations, variances held at the floor or above.

        A pseudo-precision above 1/floor (a noise variance below the floor,
        or a Poisson zero count against a belief far below 0) would round
        A^T diag(1/pv) A to indefinite.  Also returns how many were held.
        """
        v = 1.0 / self.lam_z
        return (self.eta_z / self.lam_z, np.maximum(v, DEFAULT_VARIANCE_FLOOR),
                int(np.count_nonzero(v < DEFAULT_VARIANCE_FLOOR)))

    def z_belief(self, x_hat, tau_x):
        mean, var, held = self._pseudo_z()
        pseudo = ExtrinsicMessage(pseudo_mean=mean, pseudo_variance=var)
        prior_x = GaussianBelief(self.eta_x / self.lam_x, 1.0 / self.lam_x)
        self.res = slm_solve(self.model, pseudo, prior_x, worker=self.worker)
        # the cavity on x, the SLM posterior with the x-side message divided
        # out; its floored components are counted with the z side's
        self.cavity = ep_extrinsic(self.res.x_stats, prior_x)
        ext = self.res.z_extrinsic
        floored = np.count_nonzero(ext.floored) + np.count_nonzero(self.cavity.floored)
        return ext.pseudo_mean, ext.pseudo_variance, held + int(floored)

    def x_cavity(self, x_hat, ext, belief, score):
        # reads the EP message only: the cavity on x comes from the SLM solve
        self.lam_z, self.eta_z = _absorb(self.lam_z, self.eta_z, ext, self.damp)
        y_tilde, sigma2_tilde, _ = self._pseudo_z()
        return (self.cavity.pseudo_mean, self.cavity.pseudo_variance,
                y_tilde, sigma2_tilde)

    def absorb_x(self, xstats, r, tau_r):
        ext = ep_extrinsic(xstats, GaussianBelief(r, tau_r))
        self.lam_x, self.eta_x = _absorb(self.lam_x, self.eta_x, ext, self.damp)
        return int(np.count_nonzero(ext.floored))


# module A by backend name (see the module docstring)
SLM_BACKENDS = {"exact": _ExactStep, "amp": _AmpStep}


def _iterate(problem, mode, config, step, worker):
    """The GLM loop: module A ``step``, module B, the prior's denoiser.

    ``step`` supplies the beliefs on z, the cavity on x and the absorption
    of the denoised x.  It gets module B's whole result, the EP message,
    the belief on z and the channel's (score, curvature), and picks what it
    reads (see the module docstring).  ``worker``, if any, is handed to
    module B, which decides what it splits onto it.  Returns (solution
    PosteriorStats, IterationTrace).  Besides a failed hand-over, the solve
    ends ``diverged`` when module B floors every EP message on z and x
    still moves by more than ``tol``: module B told module A nothing, so
    the floors alone moved x.
    """
    channel, y, prior = problem.channel, problem.y, problem.prior
    x_hat = np.full(problem.model.n, prior.marginal_mean(), dtype=float)
    tau_x = np.full(problem.model.n, prior.marginal_variance(), dtype=float)

    trace = IterationTrace()
    for it in range(config.max_iter):
        p_hat, tau_p, floors = step.z_belief(x_hat, tau_x)
        if not valid_moments(p_hat, tau_p):
            break

        # module B: scalar refinement through the likelihood, then EP division
        belief = GaussianBelief(p_hat, tau_p)
        val, nd, stats = g_out_with_stats(channel, mode, y, belief, worker)
        ext = ep_extrinsic(stats, belief)
        if not (valid_moments(stats.point, stats.variance)
                and valid_moments(ext.pseudo_mean, ext.pseudo_variance)):
            break
        floors += int(np.count_nonzero(ext.floored))

        r, tau_r, y_tilde, sigma2_tilde = step.x_cavity(x_hat, ext, belief, (val, nd))
        if not valid_moments(r, tau_r):
            break
        xstats = prior.denoise(mode, r, tau_r)
        # the step test divides by the new x's norm, whose square can overflow
        with np.errstate(over="ignore"):
            x_norm = np.linalg.norm(xstats.point)
        if not (valid_moments(xstats.point, xstats.variance) and x_norm < np.inf):
            break
        delta = np.linalg.norm(xstats.point - x_hat) / max(x_norm, 1e-300)
        if ext.floored.all() and delta > config.tol:
            break
        floors += step.absorb_x(xstats, r, tau_r)
        x_hat = xstats.point
        tau_x = np.maximum(xstats.variance, DEFAULT_VARIANCE_FLOOR)

        trace.floor_events += floors
        trace.append(iter=it, x_hat=x_hat, tau_x=tau_x, p_hat=p_hat, tau_p=tau_p,
                     z0=stats.point, z_var=stats.variance, y_tilde=y_tilde,
                     sigma2_tilde=sigma2_tilde, floor_events=floors,
                     nmse=nmse(x_hat, problem.x_true))
        if it >= 2 and delta < config.tol:
            trace.converged = True
            break
    # a loop that stopped short of max_iter without converging failed a test
    trace.diverged = not trace.converged and len(trace) < config.max_iter
    return PosteriorStats(point=x_hat, variance=tau_x), trace


def _solve(problem, mode, config, cls):
    """``_iterate`` with module A ``cls`` and the solve's worker, if any.

    The solve runs inside ``blas.one_thread``.  The worker exists when both
    OpenBLAS copies were pinned; its thread starts only when some layer
    first hands it work.  The thread count is the process's: solves running
    at once in one process share it.
    """
    with blas.one_thread() as pinned:
        with ThreadPoolExecutor(1) if pinned else nullcontext() as worker:
            return _iterate(problem, mode, config, cls(problem, config, worker), worker)


def run_gamp(problem: ProblemInstance, mode: Mode,
             config: SolverConfig = SolverConfig()):
    """Monolithic GAMP; returns (solution PosteriorStats, IterationTrace)."""
    return _solve(problem, mode, config, _GampStep)


def run_modular(problem: ProblemInstance, mode: Mode,
                config: SolverConfig = SolverConfig()):
    """Modular SLM + module-B solver; see module docstring for backends."""
    return _solve(problem, mode, config, SLM_BACKENDS[config.slm_backend])


# engine name -> (runner, module-A backend) (see the module docstring)
ENGINES = {"gamp": (run_gamp, "amp"), "modular-amp": (run_modular, "amp"),
           "modular-exact": (run_modular, "exact")}
