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
does an x moved while module B floored every message on z.

Module B is one chain for every engine: ``g_out_with_stats`` (the MMSE
posterior, or the MAP point with its Laplace variance, and the channel's
output score) then ``ep_extrinsic``.  The engines differ only in the score
module A gets, which ``verify.check_equivalence`` compares: ``run_gamp``
passes the channel's score, ``run_modular`` the closed-form AWGN score of
the EP pseudo-observations (``awgn_g_out``), so module A sees only those.

Module A is one step class per backend, listed by name in ``SLM_BACKENDS``
(``run_modular`` takes ``SolverConfig.slm_backend``, ``run_gamp`` ``"amp"``):

* ``"amp"``   -- the AWGN-GAMP linear step (Onsager-corrected matvecs),
  which makes the modular loop reproduce the monolithic GAMP trajectory
  exactly;
* ``"exact"`` -- the dense exact Gaussian solve of :mod:`glmamp.slm`, with
  damped EP messages carrying non-Gaussian priors on the x side.

A backend is its step class plus its ``SLM_BACKENDS`` entry.  ``_solve``
calls ``cls(problem, config, worker)`` as a solve starts.  It owns the
solve's one worker thread: from ``OVERLAP_MIN_BYTES`` of A up it creates the
worker, and joins it when the solve returns or raises.  The amp step runs
half of each matvec pair on it; the exact step ignores it.  From
``QUAD_SPLIT_MIN_COMPONENTS`` components on z up, ``_iterate`` also hands
it to module B, whose probit quadrature integrates half of the components
on it.  Each result is the serial path's, bit for bit.  The worker runs
numpy work only: it calls no function the benchmark's tracer wraps and
builds no message, since the tracer's span stack and object counter are
not thread-safe.

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

from .channels import Mode, OutputChannel, awgn_g_out, g_out_with_stats
from .gaussian import (DEFAULT_VARIANCE_FLOOR, ExtrinsicMessage, GaussianBelief,
                       PosteriorStats, ep_extrinsic, valid_moments)
from .priors import InputPrior
from .slm import LinearModel, slm_solve

# A in bytes at and above which a solve has a worker thread, which lives for
# the solve.  The "amp" step runs the second of each pair of independent
# matvecs on it while the calling thread runs the first.  The matvecs are
# memory-bound, so a second CPU hides one of them; below this size handing
# work to the thread costs more than it hides.  Swept on a 2-CPU host, one
# BLAS thread, m = 2n, bg(0.1) prior: overlap lost 0.2-0.6 ms/iter up to
# A = 3.5 MiB (n = 480), broke even at 4-5 MiB and won from 6.25 MiB
# (n = 640: probit(0.3) 7.6 -> 7.1, awgn(0.01) 2.1 -> 1.6 ms).  8 MiB leaves
# a margin above the break-even band for noisier hosts.  So it gates module
# B's use of the worker too, which also needs QUAD_SPLIT_MIN_COMPONENTS.
OVERLAP_MIN_BYTES = 8 * 2**20

# The fewest components of z (m) at which module B's quadrature is split
# between the calling thread and the worker.  Each thread then runs small
# numpy operations, and each hands the interpreter lock over; at small m
# that costs more than the second CPU gains.  Swept with the worker on, A at
# 8 MiB (n m = 2**20), bg(0.1) prior, 2-CPU host, one BLAS thread, median
# ms/iter serial -> split over 8-10 alternating GAMP solves: probit(0.3)
# lost at m = 256 (5.14 -> 5.72), tied at 512 and 1024 (5.46 -> 5.65) and
# won from 1200 (6.35 -> 5.45; 1448: 7.33 -> 5.96; 2048: 9.67 -> 7.89).
# With two BLAS threads the split lost at m = 1448 (7.72 -> 8.27) and tied
# at n = 1024, m = 2048 (11.07 -> 10.70): the BLAS threads already use both
# CPUs.  The split serves probit only: the logistic MMSE is a fixed mixture
# of probit closed forms with no quadrature to split.
QUAD_SPLIT_MIN_COMPONENTS = 1200

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
    JSON lists exist only inside ``to_jsonl``, one line at a time.
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
                            else rec[k]) for k in TRACE_FIELDS}
                fh.write(json.dumps(line, sort_keys=True) + "\n")


def nmse(x_hat, x_true) -> float:
    """Normalized mean squared error ||x_hat - x_true||^2 / ||x_true||^2."""
    denom = float(np.sum(np.asarray(x_true) ** 2))
    if denom == 0.0:
        return float("nan")
    return float(np.sum((np.asarray(x_hat) - np.asarray(x_true)) ** 2) / denom)


class _AmpStep:
    """Module A as the AWGN-GAMP linear step: Onsager-corrected matvecs.

    The matvecs come in independent pairs, A x_hat with A^2 tau_x and A^T s
    with (A^2)^T tau_s.  With the solve's ``worker`` (``_solve`` creates it
    when A has ``OVERLAP_MIN_BYTES`` or more, and joins it), the second of
    each pair runs on it while the calling thread runs the first.  Each
    product is still one whole BLAS call on the same operands, so the bits
    are the serial path's.
    """

    def __init__(self, problem, config, worker):
        self.A = problem.model.A
        self.worker = worker
        self.A2 = self.A * self.A
        self.damp = 1.0 if config.damping is None else config.damping
        self.s = np.zeros(problem.model.m)
        self.tau_s = np.zeros(problem.model.m)

    def _pair(self, M1, v1, M2, v2):
        """(M1 @ v1, M2 @ v2); with a worker the second runs on its thread,
        which runs nothing but the ndarray product."""
        if self.worker is None:
            return M1 @ v1, M2 @ v2
        second = self.worker.submit(M2.__matmul__, v2)
        return M1 @ v1, second.result()

    def z_belief(self, x_hat, tau_x):
        Ax, A2tau = self._pair(self.A, x_hat, self.A2, tau_x)
        tau_p = np.maximum(A2tau, DEFAULT_VARIANCE_FLOOR)
        return Ax - tau_p * self.s, tau_p, 0

    def x_cavity(self, x_hat, ext, score):
        val, nd = score
        damp = self.damp
        self.s = damp * val + (1.0 - damp) * self.s
        self.tau_s = damp * np.maximum(nd, 0.0) + (1.0 - damp) * self.tau_s
        ATs, A2Ttau = self._pair(self.A.T, self.s, self.A2.T, self.tau_s)
        tau_r = 1.0 / np.maximum(A2Ttau, DEFAULT_VARIANCE_FLOOR)
        r = x_hat + tau_r * ATs
        return r, tau_r, ext.pseudo_mean, ext.pseudo_variance

    def absorb_x(self, xstats, r, tau_r):
        return 0


def _absorb(lam, eta, ext, damp):
    """Damped EP update in natural parameters; floored components keep the old message."""
    v = ext.pseudo_variance
    lam_new = (1.0 - damp) * lam + damp * (1.0 / v)
    eta_new = (1.0 - damp) * eta + damp * (ext.pseudo_mean / v)
    return np.where(ext.floored, lam, lam_new), np.where(ext.floored, eta, eta_new)


class _ExactStep:
    """Module A as the exact dense SLM solve; EP messages carry the prior on x."""

    def __init__(self, problem, config, worker=None):
        model, prior = problem.model, problem.prior
        self.model = model
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
        self.res = slm_solve(self.model, pseudo, prior_x)
        # the cavity on x, the SLM posterior with the x-side message divided
        # out; its floored components are counted with the z side's
        self.cavity = ep_extrinsic(self.res.x_stats, prior_x)
        ext = self.res.z_extrinsic
        floored = np.count_nonzero(ext.floored) + np.count_nonzero(self.cavity.floored)
        return ext.pseudo_mean, ext.pseudo_variance, held + int(floored)

    def x_cavity(self, x_hat, ext, score):
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


def _iterate(problem, mode, config, step, monolithic, worker):
    """The GLM loop: module A ``step``, module B, the prior's denoiser.

    ``step`` supplies the beliefs on z, the cavity on x and the absorption
    of the denoised x; ``monolithic`` picks the score it gets (see the module
    docstring); ``worker``, if any, integrates half of module B's probit
    quadrature components.  Returns (solution PosteriorStats,
    IterationTrace).  Besides a failed hand-over, the solve ends
    ``diverged`` when module B floors every EP message on z and x still
    moves by more than ``tol``: module B told module A nothing, so the
    floors alone moved x.
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

        score = (val, nd) if monolithic else awgn_g_out(ext, belief)
        r, tau_r, y_tilde, sigma2_tilde = step.x_cavity(x_hat, ext, score)
        if not valid_moments(r, tau_r):
            break
        xstats = prior.denoise(mode, r, tau_r)
        if not valid_moments(xstats.point, xstats.variance):
            break
        delta = np.linalg.norm(xstats.point - x_hat) / max(np.linalg.norm(xstats.point), 1e-300)
        if ext.floored.all() and delta > config.tol:
            break
        floors += step.absorb_x(xstats, r, tau_r)
        x_hat = xstats.point
        tau_x = np.maximum(xstats.variance, DEFAULT_VARIANCE_FLOOR)

        trace.floor_events += floors
        trace.append(iter=it, x_hat=x_hat, tau_x=tau_x, p_hat=p_hat, tau_p=tau_p,
                     z0=stats.point, z_var=stats.variance, y_tilde=y_tilde,
                     sigma2_tilde=sigma2_tilde, floor_events=floors,
                     nmse=float("nan") if problem.x_true is None else nmse(x_hat, problem.x_true))
        if it >= 2 and delta < config.tol:
            trace.converged = True
            break
    # a loop that stopped short of max_iter without converging failed a test
    trace.diverged = not trace.converged and len(trace) < config.max_iter
    return PosteriorStats(point=x_hat, variance=tau_x), trace


def _solve(problem, mode, config, backend, monolithic):
    """``_iterate`` with module A ``SLM_BACKENDS[backend]`` and the solve's worker, if any."""
    overlap = problem.model.A.nbytes >= OVERLAP_MIN_BYTES
    with ThreadPoolExecutor(1) if overlap else nullcontext() as worker:
        step = SLM_BACKENDS[backend](problem, config, worker)
        split = problem.model.m >= QUAD_SPLIT_MIN_COMPONENTS
        return _iterate(problem, mode, config, step, monolithic, worker if split else None)


def run_gamp(problem: ProblemInstance, mode: Mode,
             config: SolverConfig = SolverConfig()):
    """Monolithic GAMP; returns (solution PosteriorStats, IterationTrace)."""
    return _solve(problem, mode, config, "amp", monolithic=True)


def run_modular(problem: ProblemInstance, mode: Mode,
                config: SolverConfig = SolverConfig()):
    """Modular SLM + module-B solver; see module docstring for backends."""
    return _solve(problem, mode, config, config.slm_backend, monolithic=False)
