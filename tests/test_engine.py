import json
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from glmamp import blas, channels, engine, slm
from glmamp.channels import (AwgnChannel, LogisticChannel, Mode, PoissonChannel,
                             ProbitChannel, QuadratureError, awgn_g_out)
from glmamp.engine import (TRACE_FIELDS, ProblemInstance, SolverConfig,
                           nmse, run_gamp, run_modular)
from glmamp.gaussian import (DEFAULT_VARIANCE_FLOOR, ExtrinsicMessage, GaussianBelief,
                             PosteriorStats, ep_extrinsic, valid_moments)
from glmamp.priors import BernoulliGaussianPrior, GaussianPrior, LaplacePrior
from glmamp.problems import generate_problem, observe
from glmamp.slm import LinearModel, SlmResult
from glmamp.specs import parse_channel, parse_prior

from oracles import dense_gaussian_posterior, lmmse_solution, strict_json

SQRT3 = np.sqrt(3.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def _column(trace, name):
    return [rec[name] for rec in trace.records]


def _make_problem(seed, n=64, m=128, prior=None, channel=None):
    rng = np.random.default_rng(seed)
    prior = prior or BernoulliGaussianPrior(0.1, 0.0, 1.0)
    channel = channel or ProbitChannel(1.0)
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    x = prior.sample(n, rng)
    y = channel.sample(A @ x, rng)
    return ProblemInstance(LinearModel(A), y, channel, prior, x_true=x)


def _assert_same_run(run1, run2):
    """Two (solution, trace) pairs agree bit for bit."""
    (s1, t1), (s2, t2) = run1, run2
    assert np.array_equal(s1.point, s2.point)
    assert np.array_equal(s1.variance, s2.variance)
    assert (t1.converged, t1.diverged, t1.floor_events) == \
        (t2.converged, t2.diverged, t2.floor_events)
    assert len(t1) == len(t2)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.keys() == r2.keys()
        for k in r1:
            if isinstance(r1[k], np.ndarray):
                assert np.array_equal(r1[k], r2[k]), k
            else:
                assert r1[k] == r2[k], k


SOLVERS = {
    "gamp": run_gamp,
    "modular-exact": lambda p, m, c: run_modular(p, m, c),
    "modular-amp": lambda p, m, c: run_modular(
        p, m, SolverConfig(max_iter=c.max_iter, tol=c.tol, damping=c.damping,
                           slm_backend="amp")),
}


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVERS)
class TestLinearGaussian:
    def test_identity_awgn_trivial(self, solver):
        # A = I, noiseless-ish: posterior mean is the conjugate blend
        n = 8
        y = np.ones(n)
        prob = ProblemInstance(LinearModel(np.eye(n)), y, AwgnChannel(1.0),
                               GaussianPrior(0.0, 1.0))
        sol, trace = SOLVERS[solver](prob, Mode.SUM_PRODUCT,
                                     SolverConfig(max_iter=100, tol=1e-12))
        np.testing.assert_allclose(sol.point, 0.5 * np.ones(n), atol=1e-8)
        assert trace.converged

    def test_matches_lmmse_oracle(self, solver):
        rng = np.random.default_rng(11)
        n, m = 24, 48
        A = rng.standard_normal((m, n)) / np.sqrt(n)
        x = rng.standard_normal(n)
        y = A @ x + 0.3 * rng.standard_normal(m)
        prob = ProblemInstance(LinearModel(A), y, AwgnChannel(0.09),
                               GaussianPrior(0.0, 1.0), x_true=x)
        sol, trace = SOLVERS[solver](prob, Mode.SUM_PRODUCT,
                                     SolverConfig(max_iter=300, tol=1e-12))
        oracle = lmmse_solution(A, y, 0.09, 0.0, 1.0)
        assert trace.converged
        np.testing.assert_allclose(sol.point, oracle, rtol=0, atol=1e-6)


class TestRunGamp:
    def test_frozen_regression(self):
        # frozen pipeline output; any numerical change shows up here first
        prob = _make_problem(7)
        sol, trace = run_gamp(prob, Mode.SUM_PRODUCT,
                              SolverConfig(max_iter=300, tol=1e-12))
        assert trace.converged
        assert len(trace) == 14
        assert nmse(sol.point, prob.x_true) == pytest.approx(
            0.7916856172023535, rel=1e-9)

    def test_bitwise_determinism(self):
        prob = _make_problem(3)
        cfg = SolverConfig(max_iter=50, tol=1e-10)
        _assert_same_run(run_gamp(prob, Mode.SUM_PRODUCT, cfg),
                         run_gamp(prob, Mode.SUM_PRODUCT, cfg))

    def test_maxsum_laplace_runs(self):
        prob = _make_problem(0, prior=LaplacePrior(1.0))
        sol, trace = run_gamp(prob, Mode.MAX_SUM,
                              SolverConfig(max_iter=300, tol=1e-10, damping=0.8))
        assert trace.converged
        assert nmse(sol.point, prob.x_true) < 1.0


class TestModular:
    def test_first_iteration_worked_example(self):
        # m = n = 1, A = [1], Gaussian(1,1) prior, Poisson y = 3, max-sum:
        # the first module-B belief is (1, 1), whose refined point is sqrt(3)
        prob = ProblemInstance(LinearModel(np.array([[1.0]])), np.array([3.0]),
                               PoissonChannel(), GaussianPrior(1.0, 1.0))
        for backend in engine.SLM_BACKENDS:
            _, trace = run_modular(prob, Mode.MAX_SUM,
                                   SolverConfig(max_iter=5, tol=0.0,
                                                slm_backend=backend))
            rec = trace.records[0]
            assert rec["z0"][0] == pytest.approx(SQRT3, abs=1e-5)
            assert rec["z_var"][0] == pytest.approx(0.5, abs=1e-5)

    # the Poisson case's A is abs_gaussian, so both run the mean-removed step
    @pytest.mark.parametrize("mode, problem, damping", [
        (Mode.SUM_PRODUCT, lambda: _make_problem(2), None),
        (Mode.MAX_SUM, lambda: _make_problem(2, prior=LaplacePrior(1.0)), 0.8),
        (Mode.SUM_PRODUCT, lambda: generate_problem(
            64, 128, GaussianPrior(0.0, 1.0), PoissonChannel(), 2), None),
    ], ids=["mmse", "map", "poisson-mmse"])
    def test_amp_backend_matches_monolithic_trajectory(self, mode, problem, damping):
        prob = problem()
        cfg = SolverConfig(max_iter=40, tol=1e-12, damping=damping)
        _, tg = run_gamp(prob, mode, cfg)
        _, tm = run_modular(prob, mode, replace(cfg, slm_backend="amp"))
        assert len(tg) == len(tm)
        assert tg.floor_events == tm.floor_events
        for name in TRACE_FIELDS:
            np.testing.assert_allclose(_column(tg, name), _column(tm, name),
                                       rtol=1e-12, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("seed, channel", [
        (3, LogisticChannel(0.3)), (6, LogisticChannel(0.3)), (8, ProbitChannel(0.3)),
    ], ids=["logistic-3", "logistic-6", "probit-8"])
    def test_amp_backend_matches_monolithic_map_fixed_point(self, seed, channel):
        # BG-prior max-sum, where (tau_p - v)/tau_p**2 cancels: both output
        # steps take the curvature from the Laplace variance, so they agree
        prob = _make_problem(seed, prior=BernoulliGaussianPrior(0.1, 0.0, 1.0),
                             channel=channel)
        cfg = SolverConfig(max_iter=300, tol=1e-10)
        sg, tg = run_gamp(prob, Mode.MAX_SUM, cfg)
        sm, tm = run_modular(prob, Mode.MAX_SUM, replace(cfg, slm_backend="amp"))
        assert tg.converged and tm.converged
        assert len(tg) == len(tm)
        for a, b in ((sg.point, sm.point), (sg.variance, sm.variance)):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_exact_backend_floors_pseudo_variance(self):
        # pseudo-precisions of 1e28 (Poisson zero counts against beliefs far
        # below 0) made the precision matrix round to indefinite
        rng = np.random.default_rng(0)
        A = np.abs(rng.standard_normal((128, 64))) / 8.0
        prob = ProblemInstance(LinearModel(A), np.zeros(128), PoissonChannel(),
                               GaussianPrior(0.0, 1.0))
        step = engine._ExactStep(prob, SolverConfig(), None)
        step.lam_z[:8] = 1e28
        _, _, floors = step.z_belief(np.zeros(64), np.ones(64))
        assert np.all(np.isfinite(step.res.x_stats.point))
        # the 8 held pseudo-variances count as floor events
        assert floors == 8 + np.count_nonzero(step.res.z_extrinsic.floored)
        # and the cavity reports the pseudo-variances module A used
        sigma2_tilde = step.x_cavity(None, step.res.z_extrinsic, None, None)[3]
        assert np.all(sigma2_tilde >= DEFAULT_VARIANCE_FLOOR)

    def test_exact_backend_counts_floored_x_cavity(self):
        # x-side messages of precision 1e12 > 1/floor: slm_solve holds those
        # posterior variances at the floor, so 1/x_var - lam_x < 0 there
        prob = _make_problem(0, prior=GaussianPrior(0.0, 1.0), channel=AwgnChannel(0.1))
        step = engine._ExactStep(prob, SolverConfig(), None)
        raised = [3, 17, 40]
        step.lam_x[raised], step.eta_x[raised] = 1e12, 0.0
        _, _, floors = step.z_belief(np.zeros(64), np.ones(64))
        assert not np.any(step.res.z_extrinsic.floored)
        assert floors == len(raised)
        r, tau_r, _, _ = step.x_cavity(None, step.res.z_extrinsic, None, None)
        assert np.flatnonzero(tau_r == 1.0 / DEFAULT_VARIANCE_FLOOR).tolist() == raised
        assert np.all(np.isfinite(r))

    def test_awgn_noise_below_floor_solves_at_floor(self):
        # noise variance 1e-12 < floor 1e-11: module A solves with the floor,
        # and the trace shows the pseudo-variances it used
        prob = _make_problem(0, channel=AwgnChannel(1e-12))
        sol, trace = run_modular(prob, Mode.SUM_PRODUCT, SolverConfig(max_iter=5))
        assert np.all(np.isfinite(sol.point)) and trace.floor_events > 0
        for rec in trace.records:
            assert min(rec["sigma2_tilde"]) >= DEFAULT_VARIANCE_FLOOR

    def test_exact_backend_converges_probit_bg(self):
        prob = _make_problem(5)
        sol, trace = run_modular(prob, Mode.SUM_PRODUCT,
                                 SolverConfig(max_iter=300, tol=1e-9))
        assert trace.converged
        assert nmse(sol.point, prob.x_true) < 1.0

    # the exact step takes its cavity on x from its own solve, so the loop
    # computes no AWGN score for it; the amp step reads one per iteration
    def test_only_the_amp_step_gets_a_score(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(None)
            return awgn_g_out(*args)
        monkeypatch.setattr(engine, "awgn_g_out", counting)
        prob = _make_problem(0)
        _, trace = run_modular(prob, Mode.SUM_PRODUCT, SolverConfig(slm_backend="exact"))
        assert calls == [] and len(trace) > 1
        _, trace = run_modular(prob, Mode.SUM_PRODUCT, SolverConfig(slm_backend="amp"))
        assert len(calls) == len(trace) > 1

    def test_exact_backend_fixed_point_matches_dense_reference(self, monkeypatch):
        # module A rebuilt from the explicit-inverse oracle, same floors; the
        # oracle has no blocks to hand to a worker
        def reference_slm_solve(model, pseudo, prior_x, worker=None):
            eps = DEFAULT_VARIANCE_FLOOR
            py, pv = pseudo.pseudo_mean, pseudo.pseudo_variance
            mu, xv, zm, zv = dense_gaussian_posterior(model.A, prior_x.mean,
                                                      prior_x.variance, py, pv)
            z_stats = PosteriorStats(point=zm, variance=np.maximum(zv, eps))
            return SlmResult(PosteriorStats(point=mu, variance=np.maximum(xv, eps)),
                             z_stats, ep_extrinsic(z_stats, GaussianBelief(py, pv)))

        prob = _make_problem(5)
        cfg = SolverConfig(max_iter=300, tol=1e-9)
        sol, trace = run_modular(prob, Mode.SUM_PRODUCT, cfg)
        monkeypatch.setattr(engine, "slm_solve", reference_slm_solve)
        ref, ref_trace = run_modular(prob, Mode.SUM_PRODUCT, cfg)
        assert trace.converged and ref_trace.converged
        assert len(trace) == len(ref_trace)
        dist = np.linalg.norm(sol.point - ref.point) / np.linalg.norm(ref.point)
        assert dist <= 1e-12


# A = |N(0, 1/n)| has mean sqrt(2/pi/n), a rank-one spike outside the bulk:
# plain GAMP ends ``diverged`` on these, the mean-removed step converges to the
# LMMSE estimate
@pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
@pytest.mark.parametrize("solver", ["gamp", "modular-amp"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [32, 64, 128])
def test_mean_removed_fixed_point_matches_lmmse_oracle(n, seed, solver, mode):
    prob = generate_problem(n, 2 * n, GaussianPrior(0.0, 1.0), AwgnChannel(0.01), seed,
                            matrix_dist="abs_gaussian")
    solution, trace = SOLVERS[solver](prob, mode, SolverConfig(max_iter=300, tol=1e-12))
    assert trace.converged
    oracle = lmmse_solution(prob.model.A, prob.y, 0.01, 0.0, 1.0)
    np.testing.assert_allclose(solution.point, oracle, rtol=0, atol=1e-10)


class TestSpikeRule:
    """``_spike`` reads only A: the amp step runs mean-removed exactly when A's
    mean lies outside the bulk of A - mean, and the spread is not 0."""

    # the sizes tests and ``trace_digest.py`` build abs_gaussian matrices at
    @pytest.mark.parametrize("n, m", [(8, 4), (16, 32), (32, 64), (64, 128), (256, 512)])
    def test_fires_on_abs_gaussian(self, n, m):
        A = np.abs(np.random.default_rng(0).standard_normal((m, n))) / np.sqrt(n)
        mu, sigma = engine._spike(A, A * A)
        assert mu == pytest.approx(np.mean(A), rel=1e-12)
        assert sigma == pytest.approx(np.std(A), rel=1e-9)

    # the benchmark's sizes (its smoke sizes too); its matrices are gaussian
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, m", [(1024, 2048), (384, 768), (64, 128), (48, 96),
                                      (16, 32)])
    def test_never_fires_on_gaussian(self, n, m, seed):
        A = np.random.default_rng(seed).standard_normal((m, n)) / np.sqrt(n)
        assert engine._spike(A, A * A) is None

    # 0.1 on 128 x 64: the one-pass spread rounds to 1.7e-16 of the mean square
    @pytest.mark.parametrize("A", [np.array([[1.0]]), np.full((128, 64), 0.1),
                                   np.full((4, 8), -2.0), np.zeros((3, 2))],
                             ids=["one", "tenth", "negative", "zero"])
    def test_never_fires_at_zero_spread(self, A):
        assert engine._spike(A, A * A) is None


# damping=None takes module A's default: 1.0 for "amp", 0.7 for "exact"
@pytest.mark.parametrize("runner, backend, default", [
    (run_gamp, "amp", 1.0), (run_modular, "amp", 1.0), (run_modular, "exact", 0.7),
], ids=["gamp", "modular-amp", "modular-exact"])
def test_damping_none_is_module_a_default(runner, backend, default):
    prob = _make_problem(2)
    cfg = SolverConfig(max_iter=30, tol=1e-10, slm_backend=backend)
    _assert_same_run(runner(prob, Mode.SUM_PRODUCT, cfg),
                     runner(prob, Mode.SUM_PRODUCT, replace(cfg, damping=default)))


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVERS)
def test_trace_bookkeeping(solver):
    # the loop's totals agree with its per-iteration records
    prob = _make_problem(0, prior=LaplacePrior(1.0))
    _, trace = SOLVERS[solver](prob, Mode.MAX_SUM,
                               SolverConfig(max_iter=300, tol=1e-10, damping=0.8))
    assert trace.floor_events == sum(_column(trace, "floor_events"))
    assert not (trace.converged and trace.diverged)


class TestTrace:
    def test_jsonl_schema(self, tmp_path):
        prob = _make_problem(1, n=8, m=16)
        _, trace = run_gamp(prob, Mode.SUM_PRODUCT, SolverConfig(max_iter=10))
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(trace)
        for i, line in enumerate(lines):
            rec = strict_json(line)
            assert set(rec) == set(TRACE_FIELDS)
            assert rec["iter"] == i
            assert len(rec["x_hat"]) == 8
            assert len(rec["p_hat"]) == 16
            assert isinstance(rec["floor_events"], int)
            # this x_true is all zero: the record's NaN nmse is written as null
            assert rec["nmse"] is None and np.isnan(trace.records[i]["nmse"])

    def test_jsonl_writes_a_nan_nmse_as_null(self, tmp_path):
        # without x_true each record's nmse is NaN, which JSON has no token for
        prob = replace(_make_problem(1, n=8, m=16), x_true=None)
        _, trace = run_gamp(prob, Mode.SUM_PRODUCT, SolverConfig(max_iter=10))
        assert len(trace) > 0 and all(np.isnan(_column(trace, "nmse")))
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        for line in path.read_text().splitlines():
            assert strict_json(line)["nmse"] is None


VECTOR_FIELDS = ("x_hat", "tau_x", "p_hat", "tau_p", "z0", "z_var",
                 "y_tilde", "sigma2_tilde")


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVERS)
class TestTraceStorage:
    def test_vectors_stored_as_float64_arrays(self, solver):
        prob = _make_problem(1, n=8, m=16)
        _, trace = SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig(max_iter=10))
        assert len(trace) > 0
        for rec in trace.records:
            assert not any(isinstance(v, list) for v in rec.values())
            for name in VECTOR_FIELDS:
                assert isinstance(rec[name], np.ndarray), name
                assert rec[name].dtype == np.float64, name

    def test_jsonl_writes_the_values_seen_at_append(self, solver, monkeypatch, tmp_path):
        # a stored array that the loop wrote to later would change these bytes
        seen = []
        append = engine.IterationTrace.append

        def spy(self, **kw):
            line = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in kw.items()}
            seen.append(json.dumps(line, sort_keys=True) + "\n")
            append(self, **kw)

        monkeypatch.setattr(engine.IterationTrace, "append", spy)
        prob = _make_problem(0, prior=LaplacePrior(1.0))
        _, trace = SOLVERS[solver](prob, Mode.MAX_SUM,
                                   SolverConfig(max_iter=30, damping=0.8))
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        lines = path.read_text().splitlines(keepends=True)
        assert len(seen) == len(lines) == len(trace) > 1
        changed = [i for i, (line, want) in enumerate(zip(lines, seen)) if line != want]
        assert changed == []


@pytest.fixture
def workers(monkeypatch):
    """Every worker the engine creates, each counting the work handed to it:
    all of it, and the module-B quadrature halves (the ``channels._refine``
    calls that run off the main thread, on the one live worker)."""
    made = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            self.submitted = self.quadrature = 0
            made.append(self)

        def submit(self, fn, *args, **kw):
            self.submitted += 1
            return super().submit(fn, *args, **kw)

    def refine(*args):
        if threading.current_thread() is not threading.main_thread():
            made[-1].quadrature += 1
        return real_refine(*args)

    real_refine = channels._refine
    monkeypatch.setattr(channels, "_refine", refine)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", Recording)
    return made


AMP_SOLVERS = ("gamp", "modular-amp")


def _generated(prior, channel, n=64, m=None):
    return generate_problem(n, 2 * n if m is None else m, parse_prior(prior),
                            parse_channel(channel), 0)


def _assert_same_bits(serial, overlapped, tmp_path):
    """Two (solution, trace) pairs agree bit for bit, down to the trace's bytes."""
    _assert_same_run(serial, overlapped)
    for name, (_, trace) in (("serial", serial), ("overlapped", overlapped)):
        trace.to_jsonl(tmp_path / name)
    assert (tmp_path / "serial").read_bytes() == (tmp_path / "overlapped").read_bytes()


def _assert_same_bits_with_the_worker(solver, prob, mode, workers, monkeypatch, tmp_path):
    """Solve ``prob`` serially, then with the worker; returns the worker's run,
    whose executor is left as ``workers[0]``."""
    monkeypatch.setattr(engine, "EXACT_OVERLAP_MIN_N", prob.model.n + 1)
    serial = SOLVERS[solver](prob, mode, SolverConfig())
    assert [w.submitted for w in workers] == [0]
    workers.clear()
    monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", 0)
    monkeypatch.setattr(engine, "EXACT_OVERLAP_MIN_N", 0)
    monkeypatch.setattr(channels, "QUAD_SPLIT_MIN_COMPONENTS", 0)
    overlapped = SOLVERS[solver](prob, mode, SolverConfig())
    assert len(workers) == 1
    _assert_same_bits(serial, overlapped, tmp_path)
    return overlapped


# module B hands half of its components to the worker on these only; the
# logistic MMSE is a fixed mixture of probit closed forms and never does
QUADRATURE_CHANNELS = ("probit(scale=0.3)",)


class TestOverlappedMatvecs:
    @pytest.mark.parametrize("solver", AMP_SOLVERS)
    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    @pytest.mark.parametrize("channel", [*QUADRATURE_CHANNELS, "logistic(scale=0.3)",
                                         "awgn(var=0.1)"])
    def test_same_bits_as_the_serial_path(self, channel, mode, solver, workers,
                                          monkeypatch, tmp_path):
        prob = _generated("bg(rho=0.1,mean=0,var=1)", channel)
        _, trace = _assert_same_bits_with_the_worker(solver, prob, mode, workers,
                                                     monkeypatch, tmp_path)
        quadrature = mode is Mode.SUM_PRODUCT and channel in QUADRATURE_CHANNELS
        # one quadrature half per module-B call, two matvecs per iteration
        assert workers[0].quadrature == (len(trace) if quadrature else 0)
        assert workers[0].submitted - workers[0].quadrature >= 2 * len(trace) > 0

    # abs_gaussian A: the mean-removed step's matvecs on A - mean
    @pytest.mark.parametrize("solver", AMP_SOLVERS)
    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    def test_mean_removed_same_bits_as_the_serial_path(self, mode, solver, workers,
                                                       monkeypatch, tmp_path):
        prob = _generated("laplace(lambda=1)", "poisson()")
        _, trace = _assert_same_bits_with_the_worker(solver, prob, mode, workers,
                                                     monkeypatch, tmp_path)
        assert trace.converged
        assert workers[0].submitted >= 2 * len(trace) > 0

    @pytest.mark.parametrize("channel", QUADRATURE_CHANNELS)
    @pytest.mark.parametrize("n, m", [(16, 33), (2, 3)])
    def test_same_bits_with_unequal_quadrature_halves(self, channel, n, m, workers,
                                                      monkeypatch, tmp_path):
        # m = 3 leaves the calling thread one component, a single GH column
        prob = _generated("gaussian(mean=0,var=1)", channel, n=n, m=m)
        _, trace = _assert_same_bits_with_the_worker("gamp", prob, Mode.SUM_PRODUCT,
                                                     workers, monkeypatch, tmp_path)
        assert workers[0].quadrature == len(trace) > 0

    def test_threshold_is_inclusive(self, workers, monkeypatch):
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "probit(scale=0.3)", n=8)
        config = SolverConfig(max_iter=3)
        monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", prob.model.A.nbytes + 1)
        run_gamp(prob, Mode.SUM_PRODUCT, config)
        assert [w.submitted for w in workers] == [0]
        monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", prob.model.A.nbytes)
        _, trace = run_gamp(prob, Mode.SUM_PRODUCT, config)
        assert [w.submitted for w in workers] == [0, 2 * len(trace)]

    def test_quadrature_split_threshold_is_inclusive(self, workers, monkeypatch):
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "probit(scale=0.3)", n=8)
        config = SolverConfig(max_iter=3)
        monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", 0)
        monkeypatch.setattr(channels, "QUAD_SPLIT_MIN_COMPONENTS", prob.model.m + 1)
        run_gamp(prob, Mode.SUM_PRODUCT, config)
        monkeypatch.setattr(channels, "QUAD_SPLIT_MIN_COMPONENTS", prob.model.m)
        run_gamp(prob, Mode.SUM_PRODUCT, config)
        assert [w.quadrature for w in workers] == [0, 3]

    # every layer applies its own threshold to the one worker: below module
    # A's, module B still splits its quadrature from its own up
    @pytest.mark.parametrize("solver", ["gamp", "modular-exact"])
    def test_module_b_splits_below_module_a_threshold(self, solver, workers, monkeypatch,
                                                       tmp_path):
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "probit(scale=0.3)",
                          m=channels.QUAD_SPLIT_MIN_COMPONENTS)
        assert prob.model.A.nbytes < engine.OVERLAP_MIN_BYTES
        assert prob.model.n < engine.EXACT_OVERLAP_MIN_N
        handed = []  # the worker each slm_solve call gets

        def slm_solve(*args, worker):
            handed.append(worker)
            return slm.slm_solve(*args, worker=worker)
        monkeypatch.setattr(engine, "slm_solve", slm_solve)
        monkeypatch.setattr(channels, "QUAD_SPLIT_MIN_COMPONENTS", prob.model.m + 1)
        serial = SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
        monkeypatch.setattr(channels, "QUAD_SPLIT_MIN_COMPONENTS", prob.model.m)
        split = SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
        _assert_same_bits(serial, split, tmp_path)
        # one quadrature half per iteration, and no matvec or slm_solve piece
        iters = len(split[1])
        assert [(w.submitted, w.quadrature) for w in workers] == [(0, 0), (iters, iters)]
        assert iters > 0 and set(handed) == ({None} if solver == "modular-exact" else set())

    @pytest.mark.parametrize("channel", ["probit(scale=0.3)", "awgn(var=0.1)"])
    def test_exact_backend_same_bits_with_the_worker(self, channel, workers,
                                                     monkeypatch, tmp_path):
        # up to TRI_INV_LEAF unknowns nothing is cut and the exact step hands
        # the worker nothing; module B does, on a quadrature channel
        prob = _generated("gaussian(mean=0,var=1)", channel, n=16)
        _, trace = _assert_same_bits_with_the_worker("modular-exact", prob, Mode.SUM_PRODUCT,
                                                     workers, monkeypatch, tmp_path)
        quadrature = len(trace) if channel in QUADRATURE_CHANNELS else 0
        assert workers[0].submitted == workers[0].quadrature == quadrature

    # Above TRI_INV_LEAF unknowns each slm_solve call hands the worker four
    # pieces: B^T's second column block with A^T (py / pv), P's lower rows,
    # z's mean A mu and W_s's second column block with its norms.  At these
    # shapes some cut of a BLAS call rounded differently from one whole call
    # in probes.
    @pytest.mark.parametrize("channel, n, m", [
        ("awgn(var=0.01)", 257, 300), ("probit(scale=0.3)", 500, 1000),
        ("awgn(var=0.01)", 199, 997)])
    def test_exact_backend_cut_same_bits_with_the_worker(self, channel, n, m, workers,
                                                         monkeypatch, tmp_path):
        prob = _generated("gaussian(mean=0,var=1)", channel, n=n, m=m)
        _, trace = _assert_same_bits_with_the_worker("modular-exact", prob, Mode.SUM_PRODUCT,
                                                     workers, monkeypatch, tmp_path)
        quadrature = len(trace) if channel in QUADRATURE_CHANNELS else 0
        assert workers[0].quadrature == quadrature
        assert workers[0].submitted - quadrature == 4 * len(trace) > 0

    def test_exact_threshold_is_inclusive(self, workers, monkeypatch):
        prob = _generated("gaussian(mean=0,var=1)", "awgn(var=0.1)", n=80)
        config = SolverConfig(max_iter=3)
        monkeypatch.setattr(engine, "EXACT_OVERLAP_MIN_N", prob.model.n + 1)
        run_modular(prob, Mode.SUM_PRODUCT, config)
        assert [w.submitted for w in workers] == [0]
        monkeypatch.setattr(engine, "EXACT_OVERLAP_MIN_N", prob.model.n)
        run_modular(prob, Mode.SUM_PRODUCT, config)
        assert [w.submitted for w in workers] == [0, 12]
        # the unknowns gate the exact backend only
        run_gamp(prob, Mode.SUM_PRODUCT, config)
        run_modular(prob, Mode.SUM_PRODUCT, replace(config, slm_backend="amp"))
        assert [w.submitted for w in workers] == [0, 12, 0, 0]

    # a BLAS copy without a thread-count setter cannot be pinned, and then no
    # step gets a worker, however low the amp, exact and module-B thresholds are
    @pytest.mark.parametrize("solver", [*AMP_SOLVERS, "modular-exact"])
    @pytest.mark.parametrize("unpinned", [0, 1], ids=["numpy", "scipy"])
    def test_worker_needs_the_blas_pin(self, unpinned, solver, workers, monkeypatch):
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "probit(scale=0.3)", n=80)
        monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", 0)
        monkeypatch.setattr(engine, "EXACT_OVERLAP_MIN_N", 0)
        monkeypatch.setattr(channels, "QUAD_SPLIT_MIN_COMPONENTS", 0)
        config = SolverConfig(max_iter=3)
        counts = blas._COUNTS
        monkeypatch.setattr(blas, "_COUNTS", tuple(None if i == unpinned else count
                                                   for i, count in enumerate(counts)))
        SOLVERS[solver](prob, Mode.SUM_PRODUCT, config)
        assert workers == []
        # pinned, the same solve has the worker, and every consumer uses it
        monkeypatch.setattr(blas, "_COUNTS", counts)
        _, trace = SOLVERS[solver](prob, Mode.SUM_PRODUCT, config)
        assert [w.quadrature for w in workers] == [len(trace)]
        assert workers[0].submitted - workers[0].quadrature >= 2 * len(trace) > 0


# OpenBLAS reads OPENBLAS_NUM_THREADS as it loads, so each run is a child.  It
# prints the digest of an exact solve at n = 384 (10 iterations, tol 0), the
# workers a GAMP solve at A = 8.4 MiB made, and both libraries' thread counts
# before the solves, after them and after an exact solve whose dpotrf fails.
PIN_CHILD = """
import hashlib
from glmamp import blas, engine, slm
from glmamp.channels import Mode
from glmamp.problems import generate_problem
from glmamp.specs import parse_channel, parse_prior
made = []
class Recording(engine.ThreadPoolExecutor):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        made.append(self)
engine.ThreadPoolExecutor = Recording
def counts():
    return ",".join(str(get()) for get, _ in blas._COUNTS)
prior = parse_prior("bg(rho=0.1,mean=0,var=1)")
start = counts()
prob = generate_problem(384, 768, prior, parse_channel("awgn(var=0.01)"), 0)
sol, _ = engine.run_modular(prob, Mode.SUM_PRODUCT, engine.SolverConfig(max_iter=10, tol=0))
digest = hashlib.sha256(sol.point.tobytes() + sol.variance.tobytes()).hexdigest()
prob = generate_problem(725, 1450, prior, parse_channel("probit(scale=0.3)"), 0)
assert prob.model.A.nbytes >= engine.OVERLAP_MIN_BYTES
engine.run_gamp(prob, Mode.SUM_PRODUCT, engine.SolverConfig(max_iter=2))
solved, workers = counts(), len(made)
slm.blas.dpotrf = lambda a: 1
try:
    engine.run_modular(prob, Mode.SUM_PRODUCT, engine.SolverConfig(max_iter=2))
except slm.np.linalg.LinAlgError:
    raised = counts()
print(digest, workers, start, solved, raised)
"""


def _pin_child(threads):
    env = {"PYTHONPATH": str(SRC)}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run([sys.executable, "-c", PIN_CHILD], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.fixture(scope="module")
def pinned_digest():
    return _pin_child("1")[0]


@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
def test_a_solve_runs_on_one_blas_thread_whatever_the_variable(threads, pinned_digest):
    digest, workers, start, solved, raised = _pin_child(threads)
    assert digest == pinned_digest
    # the exact solve at n >= EXACT_OVERLAP_MIN_N and the GAMP solve
    assert workers == "2"
    assert start == solved == raised


class TestWorkerLifetime:
    def test_no_thread_outlives_an_exact_solve(self, workers):
        # n = 256 is at the exact backend's default gate
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "awgn(var=0.01)", n=256)
        before = threading.active_count()
        _, trace = run_modular(prob, Mode.SUM_PRODUCT, SolverConfig())
        assert threading.active_count() == before
        assert [w.submitted for w in workers] == [4 * len(trace)]

    # the second slm_solve call raises on the calling thread, after the first
    # handed the worker its four pieces: in its dpotrf, after it has handed
    # the worker B^T's second block and P's lower rows, or in a dtrtri of the
    # inverse's X22 block (the first of them, rows 129-192 of the factor),
    # while the worker forms z's mean
    @pytest.mark.parametrize("routine, message, submitted", [
        ("dpotrf", r"dpotrf: the 1-th leading minor", 4 + 2),
        ("dtrtri", r"dtrtri: singular Cholesky factor \(info=129\)", 4 + 3)])
    def test_no_thread_outlives_an_exact_solve_that_raises(self, routine, message, submitted,
                                                           workers, monkeypatch):
        real, seen = getattr(slm.blas, routine), []

        def failing(a):
            info = real(a)
            seen.append(None)
            # each call makes one dpotrf call and four dtrtri calls, one per
            # diagonal block of order 64, X22's first the third
            return 1 if len(seen) > (1 if routine == "dpotrf" else 6) else info
        monkeypatch.setattr(slm.blas, routine, failing)
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "awgn(var=0.01)", n=256)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match=message):
            run_modular(prob, Mode.SUM_PRODUCT, SolverConfig())
        assert threading.active_count() == before
        assert [w.submitted for w in workers] == [submitted]

    def test_no_thread_outlives_a_solve(self, workers, monkeypatch):
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "probit(scale=0.3)")
        before = threading.active_count()
        for solver in AMP_SOLVERS:
            SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
        # below the threshold: serial, the executors handed no work
        assert [w.submitted for w in workers] == [0, 0]
        monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", 0)
        for solver in AMP_SOLVERS:
            SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
            assert threading.active_count() == before, solver
        assert [w.submitted > 0 for w in workers] == [False, False, True, True]

    def test_no_thread_outlives_a_solve_that_diverges(self, workers, monkeypatch):
        # Gaussian-prior Poisson MAP at seed 2 diverges on both amp engines:
        # module B floors every message on z while x still moves
        prob = generate_problem(64, 128, parse_prior("gaussian(mean=0,var=1)"),
                                parse_channel("poisson()"), 2)
        monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", 0)
        before = threading.active_count()
        for solver in AMP_SOLVERS:
            _, trace = SOLVERS[solver](prob, Mode.MAX_SUM, SolverConfig())
            assert trace.diverged, solver
            assert threading.active_count() == before, solver
        assert [w.submitted > 0 for w in workers] == [True, True]

    def test_no_thread_outlives_a_module_b_that_raises(self, workers, monkeypatch):
        # module B raises in the second iteration, after the worker has run
        def raising_after_first_call(fn):
            calls = []

            def module_b(*args):
                calls.append(None)
                if len(calls) > 1:
                    raise RuntimeError("module B failed")
                return fn(*args)
            return module_b

        monkeypatch.setattr(engine, "g_out_with_stats",
                            raising_after_first_call(engine.g_out_with_stats))
        monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", 0)
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "probit(scale=0.3)")
        before = threading.active_count()
        for solver in AMP_SOLVERS:
            with pytest.raises(RuntimeError, match="module B failed"):
                SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
            assert threading.active_count() == before, solver
        assert [w.submitted > 0 for w in workers] == [True, True]

    def test_no_thread_outlives_a_quadrature_that_raises(self, workers, monkeypatch):
        # a likelihood step far narrower than any GH node gap
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "probit(scale=1e-100)", n=16)
        serial = {}
        for solver in AMP_SOLVERS:
            with pytest.raises(QuadratureError) as err:
                SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
            serial[solver] = str(err.value)
        assert [w.submitted for w in workers] == [0, 0]
        monkeypatch.setattr(engine, "OVERLAP_MIN_BYTES", 0)
        monkeypatch.setattr(channels, "QUAD_SPLIT_MIN_COMPONENTS", 0)
        before = threading.active_count()
        for solver in AMP_SOLVERS:
            with pytest.raises(QuadratureError) as err:
                SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
            assert str(err.value) == serial[solver]
            assert threading.active_count() == before, solver
        assert [w.quadrature > 0 for w in workers] == [False, False, True, True]


# The modules whose functions build messages or are wrapped by the benchmark's
# tracer, whose span stack and object counter are not thread-safe
MESSAGE_MODULES = ("glmamp.gaussian", "glmamp.channels", "glmamp.priors", "glmamp.engine")


class Profiled(ThreadPoolExecutor):
    """A one-thread executor whose thread records every Python function it
    enters, as (module, function) pairs in ``entered``."""

    def __init__(self, *args, **kw):
        self.entered = set()

        def record(frame, event, arg):
            if event == "call":
                self.entered.add((frame.f_globals.get("__name__"), frame.f_code.co_name))
        super().__init__(*args, initializer=sys.setprofile, initargs=(record,), **kw)


class TestWorkerContract:
    """The exact step's worker runs slm's BLAS and numpy halves, nothing else."""

    @staticmethod
    def _assert_only_slm_halves(entered):
        assert not [f for f in entered if f[0] in MESSAGE_MODULES]
        assert ("glmamp.slm", "slm_solve") not in entered
        # the worker did run slm_solve's pieces
        assert ("glmamp.slm", "lower_rows") in entered

    def test_slm_solve_at_the_exact_slm_size(self):
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "awgn(var=0.01)", n=384)
        rng = np.random.default_rng(0)
        pseudo = ExtrinsicMessage(rng.standard_normal(768), rng.uniform(0.2, 3.0, 768))
        with blas.one_thread(), Profiled(1) as worker:
            slm.slm_solve(prob.model, pseudo, GaussianBelief(np.zeros(384), np.ones(384)),
                          worker=worker)
        self._assert_only_slm_halves(worker.entered)

    def test_exact_solve_at_the_overlap_threshold(self, monkeypatch):
        made = []

        class Made(Profiled):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                made.append(self)
        monkeypatch.setattr(engine, "ThreadPoolExecutor", Made)
        prob = _generated("bg(rho=0.1,mean=0,var=1)", "awgn(var=0.01)",
                          n=engine.EXACT_OVERLAP_MIN_N)
        run_modular(prob, Mode.SUM_PRODUCT, SolverConfig(max_iter=3))
        assert len(made) == 1
        self._assert_only_slm_halves(made[0].entered)


BAD_MEANS = [np.nan, np.inf, -np.inf]
BAD_VARIANCES = [0.0, -1.0, np.nan, np.inf]
INJECT_AT = 2  # the iteration whose hand-over is corrupted


def _corrupt(mean, variance, field, value):
    """Copies of a hand-over's two moment arrays, one entry of ``field`` set to ``value``."""
    mean, variance = np.array(mean, dtype=float), np.array(variance, dtype=float)
    (mean if field == "mean" else variance)[0] = value
    return mean, variance


def _injecting(fn, corrupt):
    """``fn`` with its result passed through ``corrupt`` on call INJECT_AT only."""
    calls = []

    def wrapper(*args):
        calls.append(None)
        out = fn(*args)
        return corrupt(out) if len(calls) == INJECT_AT + 1 else out
    return wrapper


def _inject(monkeypatch, boundary, prior, field, value):
    """Corrupt, in iteration INJECT_AT, what ``boundary`` hands to the loop."""
    def moments(out):
        return PosteriorStats(*_corrupt(out.point, out.variance, field, value))

    if boundary in ("z_belief", "x_cavity"):
        def step_out(out):  # (mean, variance, ...) tuples
            return (*_corrupt(out[0], out[1], field, value), *out[2:])
        for cls in engine.SLM_BACKENDS.values():
            monkeypatch.setattr(cls, boundary, _injecting(getattr(cls, boundary), step_out))
    elif boundary == "module_b":
        monkeypatch.setattr(engine, "g_out_with_stats", _injecting(
            engine.g_out_with_stats, lambda out: (*out[:2], moments(out[2]))))
    else:
        monkeypatch.setattr(type(prior), "denoise",
                            _injecting(type(prior).denoise, moments))


class TestHandOverTests:
    """Whatever a module hands over, the loop ends the solve ``diverged``
    instead of raising, with the last estimate that passed."""

    # with a gaussian prior an infinite cavity variance denoises to the prior's
    # own valid moments, so the loop must test the cavity itself
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("prior", ["bg(rho=0.1,mean=0,var=1)", "gaussian(mean=0,var=1)"])
    @pytest.mark.parametrize("boundary", ["z_belief", "module_b", "x_cavity", "denoise"])
    @pytest.mark.parametrize("field, value", [("mean", v) for v in BAD_MEANS]
                             + [("variance", v) for v in BAD_VARIANCES])
    def test_bad_hand_over_ends_diverged(self, monkeypatch, solver, prior, boundary,
                                         field, value):
        prob = _generated(prior, "probit(scale=0.3)", n=32)
        _inject(monkeypatch, boundary, prob.prior, field, value)
        with np.errstate(all="ignore"):
            solution, trace = SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
        assert trace.diverged and not trace.converged
        assert len(trace) == INJECT_AT
        np.testing.assert_array_equal(solution.point, trace.records[-1]["x_hat"])
        np.testing.assert_array_equal(solution.variance, trace.records[-1]["tau_x"])

    # each hand-over is tested before the module that reads it, so the reader
    # runs only in the iterations before the corrupted one, on valid moments
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("field, value", [("mean", v) for v in BAD_MEANS]
                             + [("variance", v) for v in BAD_VARIANCES])
    def test_denoiser_never_reads_a_bad_cavity(self, monkeypatch, solver, field, value):
        prob = _generated("gaussian(mean=0,var=1)", "probit(scale=0.3)", n=32)
        _inject(monkeypatch, "x_cavity", prob.prior, field, value)
        seen = _reading(monkeypatch, [type(prob.prior)], "denoise",
                        lambda mode, r, tau: (r, tau))
        with np.errstate(all="ignore"):
            SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
        assert seen == [True] * INJECT_AT

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("field, value", [("mean", v) for v in BAD_MEANS]
                             + [("variance", v) for v in BAD_VARIANCES])
    def test_module_a_never_reads_a_bad_ep_message(self, monkeypatch, solver, field, value):
        prob = _generated("gaussian(mean=0,var=1)", "probit(scale=0.3)", n=32)
        _inject(monkeypatch, "module_b", prob.prior, field, value)
        seen = _reading(monkeypatch, engine.SLM_BACKENDS.values(), "x_cavity",
                        lambda x_hat, ext, *_: (ext.pseudo_mean, ext.pseudo_variance))
        with np.errstate(all="ignore"):
            SOLVERS[solver](prob, Mode.SUM_PRODUCT, SolverConfig())
        assert seen == [True] * INJECT_AT


def _reading(monkeypatch, classes, name, moments):
    """Spy on method ``name`` of ``classes``: one entry per call, whether the
    hand-over ``moments(*args)`` picks from its arguments is valid."""
    seen = []

    def spying(fn):
        def spy(self, *args):
            seen.append(valid_moments(*moments(*args)))
            return fn(self, *args)
        return spy

    for cls in classes:
        monkeypatch.setattr(cls, name, spying(getattr(cls, name)))
    return seen


# The laplace+poisson cells of the 72-cell grid (``scripts/trace_digest.py``)
# on the amp engines, which raised or ran away, then ended ``diverged``.  Their
# A is ``abs_gaussian``, whose mean is a spike outside the bulk: on the
# mean-removed step they converge (the MAP cells at x_hat = 0, ROADMAP 3(a)).
LAPLACE_POISSON = [("poisson()", "mmse", "gamp"), ("poisson()", "mmse", "modular-amp"),
                   ("poisson()", "map", "modular-amp"), ("poisson()", "map", "gamp")]


def _laplace_cell(channel, seed):
    return generate_problem(64, 128, parse_prior("laplace(lambda=1)"),
                            parse_channel(channel), seed)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("channel, mode, solver", LAPLACE_POISSON,
                         ids=["|".join(cell) for cell in LAPLACE_POISSON])
def test_laplace_poisson_amp_cell_converges(channel, mode, solver, seed):
    prob = _laplace_cell(channel, seed)
    solution, trace = SOLVERS[solver](prob, Mode(mode), SolverConfig())
    assert trace.converged and not trace.diverged
    assert np.isfinite(solution.point).all() and (solution.variance > 0).all()
    if mode == "mmse":  # below the prior mean's NMSE, as on the exact engine
        assert nmse(solution.point, prob.x_true) < 1.0


def _last_floored_all(monkeypatch):
    """Spy on module B's EP division: whether its last call floored every message."""
    seen = []

    def spy(stats, belief):
        ext = ep_extrinsic(stats, belief)
        seen.append(bool(ext.floored.all()))
        return ext

    monkeypatch.setattr(engine, "ep_extrinsic", spy)
    return seen


# Gaussian-prior Poisson MAP: module B floors every message on z while x
# still moves, so the solve ends ``diverged`` (ROADMAP 14: adaptive damping)
# with the last estimate that passed.
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("solver", ["gamp", "modular-amp"])
def test_all_floored_messages_that_move_x_end_diverged(solver, seed, monkeypatch):
    prob = generate_problem(64, 128, parse_prior("gaussian(mean=0,var=1)"),
                            parse_channel("poisson()"), seed)
    seen = _last_floored_all(monkeypatch)
    solution, trace = SOLVERS[solver](prob, Mode.MAX_SUM, SolverConfig())
    assert trace.diverged and not trace.converged and 1 <= len(trace) < 100
    assert seen[-1] and not any(seen[:-1])
    np.testing.assert_array_equal(solution.point, trace.records[-1]["x_hat"])
    assert np.isfinite(solution.point).all()


# With every count 0, module B floors every message on z, but x stays at the
# prior mode: the divergence test must let it converge.
def test_all_floored_messages_that_leave_x_still_converge():
    prob = generate_problem(8, 4, parse_prior("bg(rho=0.1,mean=0,var=1)"),
                            parse_channel("poisson()"), 0)
    for solver in SOLVERS:
        _, trace = SOLVERS[solver](prob, Mode.MAX_SUM, SolverConfig())
        assert trace.converged and not trace.diverged, solver


# Formerly raising, then ``diverged`` while the Laplace MMSE denoiser
# overflowed: the modular-exact cells converge, to GAMP's NMSE (on poisson,
# mean-removed GAMP's).
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("channel", ["awgn(var=0.1)", "probit(scale=0.3)", "poisson()",
                                     "logistic(scale=0.3)"])
def test_laplace_mmse_modular_exact_cell_converges(channel, seed):
    prob = _laplace_cell(channel, seed)
    solution, trace = run_modular(prob, Mode.SUM_PRODUCT, SolverConfig())
    assert trace.converged and not trace.diverged
    gamp, gamp_trace = run_gamp(prob, Mode.SUM_PRODUCT, SolverConfig())
    assert gamp_trace.converged
    assert nmse(solution.point, prob.x_true) == pytest.approx(
        nmse(gamp.point, prob.x_true), rel=0.05)


def _conditioned(kappa, m=256, n=128):
    """Random orthonormal U (m x n) and V, geometric singular values of condition
    number ``kappa``, scaled to ||A||_F^2 = m (ROADMAP item 10's family)."""
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (U * np.geomspace(1.0, 1.0 / kappa, n)) @ V.T
    return A * np.sqrt(m / np.sum(A ** 2))


# GAMP fails on ill-conditioned A.  With probit the first non-finite value is
# module B's EP message on z, which only the trace reads in GAMP.
@pytest.mark.parametrize("kappa", [100, 1000])
@pytest.mark.parametrize("channel", ["awgn(var=0.01)", "probit(scale=0.3)"])
def test_gamp_on_ill_conditioned_matrix_ends_diverged(channel, kappa):
    prior, rng = parse_prior("bg(rho=0.1,mean=0,var=1)"), np.random.default_rng(1)
    prob = observe(_conditioned(kappa), prior.sample(128, rng), prior,
                   parse_channel(channel), rng)
    with np.errstate(all="ignore"):
        solution, trace = run_gamp(prob, Mode.SUM_PRODUCT, SolverConfig(max_iter=300))
    assert trace.diverged and not trace.converged
    assert np.isfinite(solution.point).all()


class TestValidation:
    def test_bad_y_shape(self):
        with pytest.raises(ValueError):
            ProblemInstance(LinearModel(np.eye(3)), np.zeros(4),
                            AwgnChannel(1.0), GaussianPrior(0.0, 1.0))

    def test_y_outside_support(self):
        with pytest.raises(ValueError):
            ProblemInstance(LinearModel(np.eye(3)), np.array([1.0, -1.0, 0.5]),
                            ProbitChannel(1.0), GaussianPrior(0.0, 1.0))
        with pytest.raises(ValueError, match="outside poisson support"):
            ProblemInstance(LinearModel(np.eye(3)), np.array([1.0, np.inf, 2.0]),
                            PoissonChannel(), GaussianPrior(0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_x_true_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="x_true must be 3 finite values"):
            ProblemInstance(LinearModel(np.eye(3)), np.zeros(3), AwgnChannel(1.0),
                            GaussianPrior(0.0, 1.0), x_true=np.array([0.0, bad, 1.0]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            SolverConfig(max_iter=2.5)
        assert SolverConfig(max_iter=np.int64(7)).max_iter == 7
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)
        with pytest.raises(ValueError) as exc:
            SolverConfig(slm_backend="dense")
        assert all(repr(name) in str(exc.value) for name in engine.SLM_BACKENDS)
