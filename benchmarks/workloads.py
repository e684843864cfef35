"""The three benchmark workloads: instances, one pass, and output checks.

Every call into glmamp goes through a module attribute (``engine.run_gamp``,
``verify.check_*``, ``cli.generate_problem``) looked up at call time, so the
wrappers ``tracing.Tracer`` installs see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from glmamp import cli, engine, slm, verify
from glmamp.channels import Mode
from glmamp.engine import SolverConfig, nmse
from glmamp.gaussian import DEFAULT_VARIANCE_FLOOR, ExtrinsicMessage, GaussianBelief
from glmamp.specs import parse_channel, parse_prior

MODES = {"mmse": Mode.SUM_PRODUCT, "map": Mode.MAX_SUM}
SLM_BACKEND = {"gamp": "exact", "modular-amp": "amp", "modular-exact": "exact"}
WARMUP_ITERS = 3
WARMUP_SAMPLES = 100


def sub_seed(seed: int, index: int) -> int:
    """Seed of instance ``index``; instance 0 uses the workload seed itself."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def solver_config(engine_name: str, params: dict) -> SolverConfig:
    return SolverConfig(**{"slm_backend": SLM_BACKEND[engine_name], **params})


@dataclass
class Solve:
    """Outcome of one benchmark-level solve."""

    label: str
    seconds: float
    outcome: str  # converged | max_iter | diverged | exception type name
    iterations: int | None = None
    nmse: float | None = None
    x: np.ndarray | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.outcome not in ("converged", "max_iter")


@dataclass
class Check:
    """One check; ``gates`` marks the benchmark's own output checks, which decide
    ``correct``.  Every failed check also counts as a failed operation."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    gates: bool = False


@dataclass
class PassResult:
    index: int
    key: int  # which instance (or instance set) the pass ran on
    seconds: float = 0.0
    solves: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def ops(self):
        return len(self.solves) + len(self.checks)

    @property
    def failures(self):
        return sum(s.failed for s in self.solves) + sum(not c.passed for c in self.checks)


def timed_solve(label, engine_name, problem, mode, config) -> Solve:
    run = engine.run_gamp if engine_name == "gamp" else engine.run_modular
    start = perf_counter()
    try:
        solution, trace = run(problem, mode, config)
    except Exception as exc:  # a raising solve is an outcome the benchmark counts
        return Solve(label, perf_counter() - start, type(exc).__name__, error=str(exc)[:200])
    seconds = perf_counter() - start
    outcome = "diverged" if trace.diverged else "converged" if trace.converged else "max_iter"
    x = np.asarray(solution.point, dtype=float)
    return Solve(label, seconds, outcome, len(trace), nmse(x, problem.x_true), x)


def _problem(n, m, prior, channel, seed):
    return cli.generate_problem(n, m, parse_prior(prior), parse_channel(channel), seed)


class SingleInstanceWorkload:
    """Passes that solve one instance with each engine in turn."""

    def __init__(self, params):
        self.p = params
        self.mode = MODES[params["mode"]]
        self.configs = {e: solver_config(e, params["solver"]) for e in params["engines"]}
        self.cycle = params["instances"]

    def setup(self, seed):
        p = self.p
        problems = [_problem(p["n"], p["m"], p["prior"], p["channel"], sub_seed(seed, i))
                    for i in range(self.cycle)]
        for e, cfg in self.configs.items():
            timed_solve("warmup", e, problems[0], self.mode, replace(cfg, max_iter=WARMUP_ITERS))
        return problems

    def run_pass(self, problems, j, i) -> PassResult:
        result = PassResult(j, i)
        start = perf_counter()
        for e, cfg in self.configs.items():
            result.solves.append(timed_solve(f"{i}/{e}", e, problems[i], self.mode, cfg))
        result.checks.extend(self.pass_checks(result.solves))
        result.seconds = perf_counter() - start
        return result

    def pass_checks(self, solves):
        return []

    def final_checks(self, problems):
        return []


class LargeMmse(SingleInstanceWorkload):
    def pass_checks(self, solves):
        """gamp and modular-amp must reach the same fixed point."""
        a, b = solves
        ok = a.outcome == b.outcome == "converged"
        dist = (float(np.linalg.norm(a.x - b.x) / max(np.linalg.norm(a.x), 1e-300))
                if ok else None)
        threshold = self.p["equivalence_threshold"]
        return [Check("fixed_point_agreement", ok and dist <= threshold,
                      {"distance": dist, "threshold": threshold}, gates=True)]


class ExactSlm(SingleInstanceWorkload):
    def final_checks(self, problems):
        """One slm_solve call against a dense-inverse reference."""
        problem = problems[0]
        prior, channel = problem.prior, problem.channel
        pseudo = ExtrinsicMessage(problem.y, np.full(problem.model.m, channel.noise_variance))
        prior_x = GaussianBelief(np.full(problem.model.n, prior.marginal_mean()),
                                 np.full(problem.model.n, prior.marginal_variance()))
        got = slm.slm_solve(problem.model, pseudo, prior_x)
        want = dense_slm_reference(problem.model.A, pseudo, prior_x)
        rtol = self.p["slm_reference_rtol"]
        errs = {}
        for key, value in (("x_mean", got.x_stats.point), ("x_var", got.x_stats.variance),
                           ("z_mean", got.z_stats.point), ("z_var", got.z_stats.variance),
                           ("z_ext_mean", got.z_extrinsic.pseudo_mean),
                           ("z_ext_var", got.z_extrinsic.pseudo_variance)):
            ref = want[key]
            errs[key] = float(np.max(np.abs(np.asarray(value) - ref)
                                     / np.maximum(np.abs(ref), 1e-300)))
        return [Check("slm_dense_reference", max(errs.values()) <= rtol,
                      {"max_rel_error": errs, "rtol": rtol}, gates=True)]


def dense_slm_reference(A, pseudo, prior_x, eps=DEFAULT_VARIANCE_FLOOR):
    """Exact SLM posterior through an explicit inverse of the precision."""
    pv = np.asarray(pseudo.pseudo_variance, dtype=float)
    py = np.asarray(pseudo.pseudo_mean, dtype=float)
    pvar = np.asarray(prior_x.variance, dtype=float)
    pm = np.asarray(prior_x.mean, dtype=float)
    cov = np.linalg.inv(A.T @ (A / pv[:, None]) + np.diag(1.0 / pvar))
    mu = cov @ (pm / pvar + A.T @ (py / pv))
    z_var = np.maximum(np.sum((A @ cov) * A, axis=1), eps)
    lam = np.maximum(1.0 / z_var - 1.0 / pv, eps)
    z_mean = A @ mu
    return {"x_mean": mu, "x_var": np.maximum(np.diag(cov), eps), "z_mean": z_mean,
            "z_var": z_var, "z_ext_mean": (z_mean / z_var - py / pv) / lam,
            "z_ext_var": 1.0 / lam}


class CertifyGrid:
    """The glmamp verify check set, then every (prior, channel, mode, engine) cell."""

    def __init__(self, params):
        self.p = params
        self.cycle = params["instance_sets"]
        self.configs = {e: solver_config(e, params["solver"]) for e in params["engines"]}
        self.eq_config = SolverConfig(**params["equivalence_solver"])
        self.check_channels = [parse_channel(c) for c in params["check_channels"]]

    def setup(self, seed):
        p = self.p
        sets = []
        for j in range(self.cycle):
            s = sub_seed(seed, j)
            cells = {(pr, ch): _problem(p["n"], p["m"], pr, ch, s)
                     for pr in p["priors"] for ch in p["channels"]}
            # the verify command always builds its equivalence instances at 64 x 128
            equivalence = [(f"{ch}|{pr}|{mode}", _problem(64, 128, pr, ch, s), MODES[mode])
                           for ch, pr, mode in p["equivalence"]]
            sets.append((s, cells, equivalence))
        for ch in self.check_channels:
            for check in (verify.check_laplace_identity, verify.check_derivatives):
                _report(check, ch, WARMUP_SAMPLES, seed)
        for (pr, ch), problem in sets[0][1].items():
            for mode in p["modes"]:
                for e, cfg in self.configs.items():
                    timed_solve("warmup", e, problem, MODES[mode],
                                replace(cfg, max_iter=WARMUP_ITERS))
        return sets

    def run_pass(self, sets, j, k) -> PassResult:
        seed, cells, equivalence = sets[k]
        samples = self.p["samples"]
        result = PassResult(j, k)
        start = perf_counter()
        for ch in self.check_channels:
            result.checks.append(_report(verify.check_laplace_identity, ch, samples, seed))
            result.checks.append(_report(verify.check_derivatives, ch, samples, seed))
            for mode in (Mode.SUM_PRODUCT, Mode.MAX_SUM):
                result.checks.append(_report(verify.check_ep_bridge, ch, mode, samples, seed))
        for label, problem, mode in equivalence:
            result.checks.append(_report(verify.check_equivalence, problem, mode,
                                         self.eq_config, label=label))
        for (pr, ch), problem in cells.items():
            for mode in self.p["modes"]:
                for e, cfg in self.configs.items():
                    result.solves.append(timed_solve(f"{pr}|{ch}|{mode}|{e}", e, problem,
                                                     MODES[mode], cfg))
        result.seconds = perf_counter() - start
        return result

    def final_checks(self, sets):
        return []


def _report(check, *args, label=None):
    try:
        r = check(*args)
    except Exception as exc:  # a raising check is a failed check, not a benchmark error
        return Check(label or check.__name__, False, {"error": f"{type(exc).__name__}: {exc}"[:200]})
    return Check(r.check, r.passed, {"residual": r.max_rel_residual, "threshold": r.threshold})


WORKLOADS = {"large-mmse": LargeMmse, "exact-slm": ExactSlm, "certify-grid": CertifyGrid}
