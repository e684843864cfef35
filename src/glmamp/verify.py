"""Numerical certificates for the identities the toolkit is built on.

Four check families, each reproducible from (name, seed, samples):

* ``check_laplace_identity`` -- the max-sum curvature correction computed
  directly from f''(mode, y) equals the one computed through the Laplace
  variance, sample by sample.
* ``check_ep_bridge``       -- refining a belief through the likelihood,
  dividing out the cavity, and feeding the resulting pseudo-observation to
  the closed-form AWGN score reproduces the direct output score in the same
  mode.
* ``check_derivatives``     -- the channel's derivative pair ``d12``
  matches finite differences of f and of f'.
* ``check_equivalence``     -- the monolithic GAMP solver and the modular
  SLM + module-B solver reach the same fixed point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channels import (AwgnChannel, Mode, OutputChannel, PoissonChannel,
                       awgn_g_out, g_out_with_stats, posterior_map)
from .engine import ProblemInstance, SolverConfig, run_gamp, run_modular
from .gaussian import GaussianBelief, ep_extrinsic
from .problems import clamp_z, generate_problem
from .specs import parse_channel, parse_prior

P_HAT_RANGE = (-3.0, 3.0)
TAU_P_RANGE = (0.1, 10.0)
# The largest residual each check passes at; no argument sets them.  Sum-product
# MMSE moments of a non-AWGN channel are numeric (quadrature, Poisson's recursion).
GATES = {"laplace": 1e-10, "bridge": 1e-10, "bridge_numeric_mmse": 1e-9,
         "derivatives": 1e-6, "equivalence": 1e-6}
FD_STEP = 1e-5  # centred finite-difference step of check_derivatives

CHECKS = ("all", "laplace", "bridge", "derivatives", "equivalence")
CHECK_CHANNELS = ("awgn(var=1.0)", "probit(scale=1.0)", "poisson()", "logistic(scale=1.0)")
# (channel, prior, mode) of the instances whose GAMP / modular equivalence
# `verify` certifies; each is generated at n=64, m=128 from the verify seed.
EQUIVALENCE_CASES = (("probit(scale=1.0)", "bg(rho=0.1,mean=0,var=1)", "mmse"),
                     ("probit(scale=1.0)", "laplace(lambda=1)", "map"),
                     ("poisson()", "gaussian(mean=2,var=0.25)", "mmse"),
                     ("poisson()", "gaussian(mean=2,var=0.25)", "map"))
EQUIVALENCE_CONFIG = SolverConfig(max_iter=300, tol=1e-10, damping=0.8, slm_backend="amp")


@dataclass
class CheckReport:
    """Outcome of one verification check."""

    check: str
    samples: int
    seed: int
    max_rel_residual: float
    threshold: float
    passed: bool
    skipped_floored: int = 0
    worst_sample: dict | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        out = {"check": self.check, "samples": self.samples, "seed": self.seed,
               "max_rel_residual": self.max_rel_residual,
               "threshold": self.threshold, "pass": self.passed,
               "skipped_floored": self.skipped_floored}
        if self.worst_sample is not None:
            out["worst_sample"] = self.worst_sample
        if self.extras:
            out.update(self.extras)
        return json.dumps(out, sort_keys=True)


def _rel_residual(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    resid = np.abs(a - b) / denom
    return np.where(a == b, 0.0, resid)


def sample_operating_points(channel: OutputChannel, samples: int, seed: int):
    """Random beliefs and channel-consistent observations.

    Belief means uniform on [-3, 3], variances log-uniform on [0.1, 10],
    y drawn from the channel at a z drawn from the belief (clamped into the
    channel domain).  Poisson counts are lifted to y >= 1: a zero count has
    (at most) zero log-likelihood curvature, so its extrinsic message is
    degenerate by construction in MAX_SUM mode and numerically degenerate
    in SUM_PRODUCT mode.
    """
    rng = np.random.default_rng(seed)
    p_hat = rng.uniform(*P_HAT_RANGE, size=samples)
    tau_p = np.exp(rng.uniform(np.log(TAU_P_RANGE[0]), np.log(TAU_P_RANGE[1]),
                               size=samples))
    z = p_hat + np.sqrt(tau_p) * rng.standard_normal(samples)
    y = channel.sample(clamp_z(channel, z), rng)
    if isinstance(channel, PoissonChannel):
        y = np.maximum(y, 1.0)
    return p_hat, tau_p, y


def _sampled_report(check, seed, resid, gate, skipped=0, **named) -> CheckReport:
    """Gate ``resid``; a failed report names its worst sample by ``named``'s arrays."""
    i = int(np.argmax(resid))
    passed = bool(resid[i] <= gate)
    worst = None if passed else {k: float(v[i]) for k, v in
                                 dict(named, residual=resid).items()}
    return CheckReport(check=check, samples=len(resid), seed=seed,
                       max_rel_residual=float(resid[i]), threshold=gate,
                       passed=passed, skipped_floored=skipped, worst_sample=worst)


def check_laplace_identity(channel: OutputChannel, samples: int = 10_000,
                           seed: int = 0) -> CheckReport:
    """Direct curvature form vs. Laplace-variance form of the max-sum score."""
    p_hat, tau_p, y = sample_operating_points(channel, samples, seed)
    stats = posterior_map(channel, y, GaussianBelief(p_hat, tau_p))
    f2 = channel.d12(stats.point, y)[1]
    direct = f2 / (tau_p * f2 - 1.0)
    via_laplace = (tau_p - stats.variance) / tau_p ** 2
    return _sampled_report(f"laplace_identity[{channel.name}]", seed,
                           _rel_residual(direct, via_laplace), GATES["laplace"],
                           p_hat=p_hat, tau_p=tau_p, y=y)


def check_ep_bridge(channel: OutputChannel, mode: Mode, samples: int = 10_000,
                    seed: int = 0) -> CheckReport:
    """Pseudo-observation route vs. direct output score, both modes."""
    numeric_mmse = mode is Mode.SUM_PRODUCT and not isinstance(channel, AwgnChannel)
    p_hat, tau_p, y = sample_operating_points(channel, samples, seed)
    belief = GaussianBelief(p_hat, tau_p)
    val_direct, nd_direct, stats = g_out_with_stats(channel, mode, y, belief)
    ext = ep_extrinsic(stats, belief)
    val_bridge, nd_bridge = awgn_g_out(ext, belief)
    flagged = np.broadcast_to(ext.floored, (samples,))
    resid = np.maximum(_rel_residual(val_direct, val_bridge),
                       _rel_residual(nd_direct, nd_bridge))
    return _sampled_report(f"ep_bridge[{channel.name},{mode.value}]", seed,
                           np.where(flagged, 0.0, resid),
                           GATES["bridge_numeric_mmse" if numeric_mmse else "bridge"],
                           skipped=int(np.count_nonzero(flagged)),
                           p_hat=p_hat, tau_p=tau_p, y=y)


def check_derivatives(channel: OutputChannel, samples: int = 10_000,
                      seed: int = 0) -> CheckReport:
    """Centered finite differences of f against f', and of f' against f''."""
    p_hat, tau_p, y = sample_operating_points(channel, samples, seed)
    rng = np.random.default_rng(seed + 1)
    z = clamp_z(channel, p_hat + np.sqrt(tau_p) * rng.standard_normal(samples))
    fd1 = (channel.log_likelihood(z + FD_STEP, y)
           - channel.log_likelihood(z - FD_STEP, y)) / (2.0 * FD_STEP)
    fd2 = (channel.d12(z + FD_STEP, y)[0]
           - channel.d12(z - FD_STEP, y)[0]) / (2.0 * FD_STEP)
    d1, d2 = channel.d12(z, y)
    resid = np.maximum(np.abs(d1 - fd1) / np.maximum(np.abs(d1), 1.0),
                       np.abs(d2 - fd2) / np.maximum(np.abs(d2), 1.0))
    return _sampled_report(f"derivatives[{channel.name}]", seed, resid,
                           GATES["derivatives"], z=z, y=y)


def check_equivalence(problem: ProblemInstance, mode: Mode,
                      config: SolverConfig = SolverConfig(),
                      seed: int = 0) -> CheckReport:
    """Fixed-point distance between the monolithic and modular solvers.

    ``seed`` only labels the report: it names the seed the problem was
    generated from, which the solvers themselves never read.
    """
    sol_g, trace_g = run_gamp(problem, mode, config)
    sol_m, trace_m = run_modular(problem, mode, config)
    xg, xm = sol_g.point, sol_m.point
    dist = float(np.linalg.norm(xg - xm) / max(np.linalg.norm(xg), 1e-300))
    # per-iteration diagnostic distance on the belief means, first 20 only
    diag = []
    for rg, rm in zip(trace_g.records[:20], trace_m.records[:20]):
        pg, pm = rg["p_hat"], rm["p_hat"]
        diag.append(float(np.linalg.norm(pg - pm) / max(np.linalg.norm(pg), 1e-300)))
    passed = bool(dist <= GATES["equivalence"]
                  and not trace_g.diverged and not trace_m.diverged)
    return CheckReport(
        check=f"equivalence[{problem.channel.name},{mode.value},{config.slm_backend}]",
        samples=len(trace_g), seed=seed, max_rel_residual=dist,
        threshold=GATES["equivalence"], passed=passed,
        skipped_floored=trace_g.floor_events + trace_m.floor_events,
        extras={"iters_gamp": len(trace_g), "iters_modular": len(trace_m),
                "diverged": bool(trace_g.diverged or trace_m.diverged),
                "per_iter_belief_distance": diag})


def run_checks(check, channel, samples, seed) -> list:
    """The reports of ``glmamp verify --check check``, in order.  ``channel``
    (None: each of ``CHECK_CHANNELS``) restricts every check to that spec."""
    reports = []
    for ch in [channel] if channel is not None else map(parse_channel, CHECK_CHANNELS):
        if check in ("all", "laplace"):
            reports.append(check_laplace_identity(ch, samples, seed))
        if check in ("all", "derivatives"):
            reports.append(check_derivatives(ch, samples, seed))
        if check in ("all", "bridge"):
            for mode in (Mode.SUM_PRODUCT, Mode.MAX_SUM):
                reports.append(check_ep_bridge(ch, mode, samples, seed))
    if check in ("all", "equivalence"):
        for spec, prior_spec, mode_name in EQUIVALENCE_CASES:
            eq_channel = parse_channel(spec)
            if channel is not None and eq_channel != channel:
                continue
            prob = generate_problem(64, 128, parse_prior(prior_spec), eq_channel, seed)
            reports.append(check_equivalence(prob, Mode(mode_name), EQUIVALENCE_CONFIG,
                                             seed=seed))
    return reports
