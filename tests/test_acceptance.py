"""Acceptance gate: one test per shipping criterion, one printed verdict each.

Every test prints ``ACCEPT <name>: PASS/FAIL`` so the gate can be read off a
plain ``pytest -s`` run.  Thresholds and sample counts here are frozen; do
not loosen them to make a failure go away.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from glmamp.channels import (AwgnChannel, LogisticChannel, Mode, PoissonChannel,
                             ProbitChannel, awgn_g_out, g_out_with_stats,
                             posterior_map, posterior_mmse)
from glmamp.cli import main
from glmamp.engine import ProblemInstance, SolverConfig, run_gamp, run_modular
from glmamp.gaussian import ExtrinsicMessage, GaussianBelief, ep_extrinsic
from glmamp.priors import BernoulliGaussianPrior, GaussianPrior, LaplacePrior
from glmamp.problems import generate_problem
from glmamp.slm import LinearModel, slm_solve
from glmamp.specs import parse_channel, parse_prior
from glmamp.verify import (check_derivatives, check_ep_bridge,
                           check_equivalence, check_laplace_identity)

from oracles import (dense_gaussian_posterior, grid_moments, lasso_prox_grad,
                     lmmse_solution)

CHANNELS = [AwgnChannel(1.0), ProbitChannel(1.0), PoissonChannel(), LogisticChannel(1.0)]
SQRT3 = np.sqrt(3.0)


def _verdict(name, ok, detail=""):
    print(f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_laplace_identity():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for ch in CHANNELS:
        rep = check_laplace_identity(ch, samples=10_000, seed=0)
        assert rep.threshold == 1e-10
        worst = max(worst, rep.max_rel_residual)
        ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict("laplace-identity", ok,
             f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_ep_bridge():
    t0 = time.perf_counter()
    worst = 0.0
    max_floor_frac = 0.0
    ok = True
    for ch in CHANNELS:
        for mode in (Mode.SUM_PRODUCT, Mode.MAX_SUM):
            rep = check_ep_bridge(ch, mode, samples=10_000, seed=0)
            worst = max(worst, rep.max_rel_residual)
            max_floor_frac = max(max_floor_frac, rep.skipped_floored / rep.samples)
            ok = ok and rep.passed and rep.skipped_floored < 0.01 * rep.samples
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict("ep-bridge", ok,
             f"max residual {worst:.2e}, floored {max_floor_frac:.2%}, {elapsed:.2f}s")


def test_criterion_3_worked_example_chain():
    ch = PoissonChannel()
    belief = GaussianBelief(1.0, 1.0)
    stats = posterior_map(ch, 3.0, belief)
    val, nd, _ = g_out_with_stats(ch, Mode.MAX_SUM, 3.0, belief)
    ext = ep_extrinsic(stats, belief)
    val_b, nd_b = awgn_g_out(ext, belief)
    checks = [
        abs(float(stats.point) - SQRT3),
        abs(float(stats.variance) - 0.5),
        abs(float(val) - (SQRT3 - 1.0)),
        abs(float(nd) - 0.5),
        abs(float(ext.pseudo_mean) - (2.0 * SQRT3 - 1.0)),
        abs(float(ext.pseudo_variance) - 1.0),
        abs(float(val_b) - (SQRT3 - 1.0)),
        abs(float(nd_b) - 0.5),
    ]
    ok = max(checks) <= 1e-12
    _verdict("worked-example-chain", ok, f"max abs error {max(checks):.2e}")


def test_criterion_4_oracle_equivalences():
    t0 = time.perf_counter()
    fails = []

    # (a) Gaussian/AWGN fixed point vs closed-form LMMSE, n = m = 64
    rng = np.random.default_rng(0)
    n = m = 64
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    x = rng.standard_normal(n)
    y = A @ x + 0.3 * rng.standard_normal(m)
    prob = ProblemInstance(LinearModel(A), y, AwgnChannel(0.09),
                           GaussianPrior(0.0, 1.0), x_true=x)
    oracle = lmmse_solution(A, y, 0.09, 0.0, 1.0)
    for engine, runner in (("gamp", run_gamp), ("modular", run_modular)):
        sol, _ = runner(prob, Mode.SUM_PRODUCT,
                        SolverConfig(max_iter=500, tol=1e-12, damping=0.8))
        rel = np.max(np.abs(sol.point - oracle)) / np.max(np.abs(oracle))
        if rel > 1e-6:
            fails.append(f"lmmse[{engine}] {rel:.2e}")

    # (b) max-sum Laplace/AWGN vs proximal-gradient LASSO
    rng = np.random.default_rng(1)
    n, m = 48, 96
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    prior = LaplacePrior(1.0)
    x = prior.sample(n, rng)
    nv = 0.04
    y = A @ x + np.sqrt(nv) * rng.standard_normal(m)
    prob = ProblemInstance(LinearModel(A), y, AwgnChannel(nv), prior, x_true=x)
    sol, _ = run_gamp(prob, Mode.MAX_SUM,
                      SolverConfig(max_iter=2000, tol=1e-13, damping=0.8))
    lasso = lasso_prox_grad(A, y, nv, 1.0)
    rel = np.max(np.abs(sol.point - lasso)) / max(np.max(np.abs(lasso)), 1e-12)
    if rel > 1e-5:
        fails.append(f"lasso {rel:.2e}")

    # (c) posterior_mmse vs dense-grid integration
    for ch, yv in ((ProbitChannel(1.0), 1.0), (LogisticChannel(1.0), -1.0),
                   (PoissonChannel(), 2.0)):
        lower = 1e-12 if ch.domain == "positive" else None
        for mean, var in ((0.0, 1.0), (1.0, 4.0)):
            st_ = posterior_mmse(ch, yv, GaussianBelief(mean, var))
            m_o, v_o = grid_moments(
                lambda z: ch.log_likelihood(z, yv) - (z - mean) ** 2 / (2 * var),
                float(st_.point), float(np.sqrt(st_.variance)), lower=lower)
            scale = np.sqrt(var) + abs(mean)
            if abs(float(st_.point) - m_o) > 1e-6 * scale:
                fails.append(f"grid[{ch.name}] mean")
            if abs(float(st_.variance) - v_o) > 1e-6 * scale ** 2:
                fails.append(f"grid[{ch.name}] var")

    # (d) slm_solve vs brute-force dense Gaussian oracle, n, m <= 8
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        A = rng.standard_normal((m, n))
        pm, pv = rng.standard_normal(n), rng.uniform(0.2, 3.0, n)
        py, pvv = rng.standard_normal(m), rng.uniform(0.2, 3.0, m)
        res = slm_solve(LinearModel(A), ExtrinsicMessage(py, pvv),
                        GaussianBelief(pm, pv))
        mu_o, xv_o, _, _ = dense_gaussian_posterior(A, pm, pv, py, pvv)
        if np.max(np.abs(res.x_stats.point - mu_o)) > 1e-10 * max(np.max(np.abs(mu_o)), 1):
            fails.append(f"slm[{seed}] mean")
        if np.max(np.abs(res.x_stats.variance - xv_o) / xv_o) > 1e-10:
            fails.append(f"slm[{seed}] var")

    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 60.0
    _verdict("oracle-equivalences", ok,
             f"{'; '.join(fails) or 'all match'}, {elapsed:.2f}s")


def test_criterion_5_modular_monolithic_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    fails = []
    cfg = SolverConfig(max_iter=300, tol=1e-10, damping=0.8, slm_backend="amp")
    # priors chosen so each mode has a well-posed denoiser: the spike of the
    # hard-threshold Bernoulli-Gaussian rule has floor variance, which is
    # degenerate in max-sum mode, so that cell uses a Laplace prior instead
    cells = [("probit(scale=1.0)", "bg(rho=0.1,mean=0,var=1)", Mode.SUM_PRODUCT),
             ("probit(scale=1.0)", "laplace(lambda=1)", Mode.MAX_SUM),
             ("poisson()", "gaussian(mean=2,var=0.25)", Mode.SUM_PRODUCT),
             ("poisson()", "gaussian(mean=2,var=0.25)", Mode.MAX_SUM)]
    for seed in range(5):
        for ch_spec, prior_spec, mode in cells:
            prob = generate_problem(64, 128, parse_prior(prior_spec),
                                    parse_channel(ch_spec), seed)
            rep = check_equivalence(prob, mode, cfg)
            assert rep.threshold == 1e-6
            worst = max(worst, rep.max_rel_residual)
            if not rep.passed:
                fails.append(f"{rep.check} seed {seed}: {rep.max_rel_residual:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 120.0
    _verdict("modular-monolithic-equivalence", ok,
             f"max distance {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_derivative_checks():
    worst = 0.0
    ok = True
    for ch in CHANNELS:
        rep = check_derivatives(ch, samples=10_000, seed=0)
        assert rep.threshold == 1e-6
        worst = max(worst, rep.max_rel_residual)
        ok = ok and rep.passed
    _verdict("derivative-checks", ok, f"max residual {worst:.2e}")


def test_criterion_7_determinism(tmp_path, capsys):
    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    hashes = {"trace": set(), "report": set()}
    for tag in ("a", "b"):
        trace = tmp_path / f"trace_{tag}.jsonl"
        report = tmp_path / f"report_{tag}.jsonl"
        assert main(["solve", "--n", "32", "--m", "64",
                     "--prior", "bg(rho=0.2,mean=0,var=1)",
                     "--channel", "probit(scale=1.0)", "--seed", "11",
                     "--trace", str(trace)]) == 0
        assert main(["verify", "--samples", "500", "--seed", "11",
                     "--report", str(report)]) == 0
        hashes["trace"].add(sha(trace))
        hashes["report"].add(sha(report))
    capsys.readouterr()  # swallow CLI output; verdict line below is the record
    ok = len(hashes["trace"]) == 1 and len(hashes["report"]) == 1
    with capsys.disabled():
        print()
        _verdict("determinism", ok, "byte-identical trace and report files")
