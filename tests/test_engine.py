import json
from dataclasses import replace

import numpy as np
import pytest

from glmamp import engine
from glmamp.channels import AwgnChannel, Mode, PoissonChannel, ProbitChannel
from glmamp.engine import (TRACE_FIELDS, ProblemInstance, SolverConfig,
                           nmse, run_gamp, run_modular)
from glmamp.gaussian import (DEFAULT_VARIANCE_FLOOR, GaussianBelief, PosteriorStats,
                             ep_extrinsic)
from glmamp.priors import BernoulliGaussianPrior, GaussianPrior, LaplacePrior
from glmamp.slm import LinearModel, SlmResult

from oracles import dense_gaussian_posterior, lmmse_solution

SQRT3 = np.sqrt(3.0)


def _make_problem(seed, n=64, m=128, prior=None, channel=None):
    rng = np.random.default_rng(seed)
    prior = prior or BernoulliGaussianPrior(0.1, 0.0, 1.0)
    channel = channel or ProbitChannel(1.0)
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    x = prior.sample(n, rng)
    y = channel.sample(A @ x, rng)
    return ProblemInstance(LinearModel(A), y, channel, prior, x_true=x)


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
        s1, t1 = run_gamp(prob, Mode.SUM_PRODUCT, cfg)
        s2, t2 = run_gamp(prob, Mode.SUM_PRODUCT, cfg)
        assert np.array_equal(s1.point, s2.point)
        assert np.array_equal(s1.variance, s2.variance)
        assert t1.records == t2.records

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
        for backend in ("exact", "amp"):
            _, trace = run_modular(prob, Mode.MAX_SUM,
                                   SolverConfig(max_iter=5, tol=0.0,
                                                slm_backend=backend))
            rec = trace.records[0]
            assert rec["z0"][0] == pytest.approx(SQRT3, abs=1e-5)
            assert rec["z_var"][0] == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("mode, prior, damping", [
        (Mode.SUM_PRODUCT, None, None),
        (Mode.MAX_SUM, LaplacePrior(1.0), 0.8),
    ], ids=["mmse", "map"])
    def test_amp_backend_matches_monolithic_trajectory(self, mode, prior, damping):
        prob = _make_problem(2, prior=prior)
        cfg = SolverConfig(max_iter=40, tol=1e-12, damping=damping)
        _, tg = run_gamp(prob, mode, cfg)
        _, tm = run_modular(prob, mode, replace(cfg, slm_backend="amp"))
        assert len(tg) == len(tm)
        assert tg.floor_events == tm.floor_events
        for name in TRACE_FIELDS:
            np.testing.assert_allclose(tg.column(name), tm.column(name),
                                       rtol=1e-12, atol=1e-13, err_msg=name)

    def test_exact_backend_converges_probit_bg(self):
        prob = _make_problem(5)
        sol, trace = run_modular(prob, Mode.SUM_PRODUCT,
                                 SolverConfig(max_iter=300, tol=1e-9))
        assert trace.converged
        assert nmse(sol.point, prob.x_true) < 1.0

    def test_exact_backend_fixed_point_matches_dense_reference(self, monkeypatch):
        # module A rebuilt from the explicit-inverse oracle, same eps floors
        def reference_slm_solve(model, pseudo, prior_x, eps=DEFAULT_VARIANCE_FLOOR):
            py, pv = pseudo.pseudo_mean, pseudo.pseudo_variance
            mu, xv, zm, zv = dense_gaussian_posterior(model.A, prior_x.mean,
                                                      prior_x.variance, py, pv)
            z_stats = PosteriorStats(point=zm, variance=np.maximum(zv, eps))
            return SlmResult(PosteriorStats(point=mu, variance=np.maximum(xv, eps)),
                             z_stats, ep_extrinsic(z_stats, GaussianBelief(py, pv), eps=eps))

        prob = _make_problem(5)
        cfg = SolverConfig(max_iter=300, tol=1e-9)
        sol, trace = run_modular(prob, Mode.SUM_PRODUCT, cfg)
        monkeypatch.setattr(engine, "slm_solve", reference_slm_solve)
        ref, ref_trace = run_modular(prob, Mode.SUM_PRODUCT, cfg)
        assert trace.converged and ref_trace.converged
        assert len(trace) == len(ref_trace)
        dist = np.linalg.norm(sol.point - ref.point) / np.linalg.norm(ref.point)
        assert dist <= 1e-12


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVERS)
def test_trace_bookkeeping(solver):
    # the loop's totals agree with its per-iteration records
    prob = _make_problem(0, prior=LaplacePrior(1.0))
    _, trace = SOLVERS[solver](prob, Mode.MAX_SUM,
                               SolverConfig(max_iter=300, tol=1e-10, damping=0.8))
    assert trace.floor_events == sum(trace.column("floor_events"))
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
            rec = json.loads(line)
            assert set(rec) == set(TRACE_FIELDS)
            assert rec["iter"] == i
            assert len(rec["x_hat"]) == 8
            assert len(rec["p_hat"]) == 16
            assert isinstance(rec["floor_events"], int)

    def test_column_accessor(self):
        prob = _make_problem(1, n=8, m=16)
        _, trace = run_gamp(prob, Mode.SUM_PRODUCT, SolverConfig(max_iter=10))
        iters = trace.column("iter")
        assert iters == list(range(len(trace)))
        nm = trace.column("nmse")
        assert all(isinstance(v, float) for v in nm)


class TestValidation:
    def test_bad_y_shape(self):
        with pytest.raises(ValueError):
            ProblemInstance(LinearModel(np.eye(3)), np.zeros(4),
                            AwgnChannel(1.0), GaussianPrior(0.0, 1.0))

    def test_y_outside_support(self):
        with pytest.raises(ValueError):
            ProblemInstance(LinearModel(np.eye(3)), np.array([1.0, -1.0, 0.5]),
                            ProbitChannel(1.0), GaussianPrior(0.0, 1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)
        with pytest.raises(ValueError):
            SolverConfig(slm_backend="dense")
