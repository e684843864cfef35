import json

import numpy as np
import pytest

from glmamp import verify
from glmamp.channels import (AwgnChannel, LogisticChannel, Mode, PoissonChannel,
                             ProbitChannel)
from glmamp.cli import main
from glmamp.engine import ProblemInstance, SolverConfig
from glmamp.priors import BernoulliGaussianPrior, GaussianPrior
from glmamp.problems import generate_problem
from glmamp.slm import LinearModel
from glmamp.specs import parse_channel, parse_prior
from glmamp.verify import (GATES, CheckReport, check_derivatives, check_ep_bridge,
                           check_equivalence, check_laplace_identity, run_checks,
                           sample_operating_points)

CHANNELS = [AwgnChannel(1.0), ProbitChannel(1.0), PoissonChannel(), LogisticChannel(1.0)]


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
def test_laplace_identity_passes(channel):
    rep = check_laplace_identity(channel, samples=2000, seed=0)
    assert rep.passed, rep.to_json()
    assert rep.max_rel_residual <= 1e-10


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
@pytest.mark.parametrize("mode", [Mode.SUM_PRODUCT, Mode.MAX_SUM])
def test_ep_bridge_passes(channel, mode):
    rep = check_ep_bridge(channel, mode, samples=2000, seed=0)
    assert rep.passed, rep.to_json()
    # degenerate (floored) messages must stay rare
    assert rep.skipped_floored <= 0.01 * rep.samples


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
def test_derivatives_pass(channel):
    rep = check_derivatives(channel, samples=2000, seed=0)
    assert rep.passed, rep.to_json()


def test_checks_reproducible_per_seed():
    a = check_laplace_identity(ProbitChannel(1.0), samples=500, seed=3)
    b = check_laplace_identity(ProbitChannel(1.0), samples=500, seed=3)
    assert a.max_rel_residual == b.max_rel_residual
    c = check_laplace_identity(ProbitChannel(1.0), samples=500, seed=4)
    assert c.max_rel_residual != a.max_rel_residual


def test_report_json_fields():
    rep = check_ep_bridge(ProbitChannel(1.0), Mode.MAX_SUM, samples=200, seed=0)
    d = json.loads(rep.to_json())
    for key in ("check", "samples", "seed", "max_rel_residual", "threshold",
                "pass", "skipped_floored"):
        assert key in d
    assert d["pass"] is True
    assert d["samples"] == 200


def test_failed_report_carries_worst_sample(monkeypatch):
    monkeypatch.setitem(GATES, "bridge", 0.0)
    monkeypatch.setitem(GATES, "derivatives", 0.0)
    rep = check_ep_bridge(ProbitChannel(1.0), Mode.MAX_SUM, samples=200, seed=0)
    assert not rep.passed
    assert rep.worst_sample is not None
    assert {"p_hat", "tau_p", "y", "residual"} <= set(rep.worst_sample)
    rep = check_derivatives(ProbitChannel(1.0), samples=200, seed=0)
    assert not rep.passed
    assert set(rep.worst_sample) == {"z", "y", "residual"}
    assert rep.worst_sample["residual"] == rep.max_rel_residual


# the gates as they stand; a change here must tighten them, never loosen
PINNED_GATES = {"laplace": 1e-10, "bridge": 1e-10, "bridge_numeric_mmse": 1e-9,
                "derivatives": 1e-6, "equivalence": 1e-6}


def _gate_of(check):
    family, args = check.rstrip("]").split("[")
    if family != "ep_bridge":
        return {"laplace_identity": "laplace"}.get(family, family)
    channel, mode = args.split(",")[:2]
    return "bridge_numeric_mmse" if mode == "mmse" and channel != "awgn" else "bridge"


def test_report_lines_carry_the_fixed_gates(tmp_path, capsys):
    assert GATES == PINNED_GATES
    report = tmp_path / "r.jsonl"
    assert main(["verify", "--samples", "200", "--report", str(report)]) == 0
    capsys.readouterr()
    lines = [json.loads(line) for line in report.read_text().splitlines()]
    assert {_gate_of(d["check"]) for d in lines} == set(GATES)
    for d in lines:
        assert d["threshold"] == GATES[_gate_of(d["check"])], d["check"]


@pytest.mark.parametrize("check, args", [
    (check_laplace_identity, (ProbitChannel(1.0), 50, 0)),
    (check_ep_bridge, (ProbitChannel(1.0), Mode.MAX_SUM, 50, 0)),
    (check_derivatives, (ProbitChannel(1.0), 50, 0)),
    (check_equivalence, (None, Mode.SUM_PRODUCT)),
], ids=["laplace", "bridge", "derivatives", "equivalence"])
def test_gates_take_no_argument(check, args):
    for kwarg in ("threshold", "step"):
        with pytest.raises(TypeError):
            check(*args, **{kwarg: 1.0})


def test_sample_operating_points_respects_domains():
    p_hat, tau_p, y = sample_operating_points(PoissonChannel(), 500, seed=0)
    assert np.all(y >= 1.0)
    assert np.all(y == np.round(y))
    assert np.all(tau_p >= 0.1) and np.all(tau_p <= 10.0)
    _, _, yb = sample_operating_points(ProbitChannel(1.0), 500, seed=0)
    assert set(np.unique(yb)) <= {-1.0, 1.0}


def _equivalence_problem(seed=0, n=32, m=64):
    rng = np.random.default_rng(seed)
    prior = BernoulliGaussianPrior(0.1, 0.0, 1.0)
    channel = ProbitChannel(1.0)
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    x = prior.sample(n, rng)
    y = channel.sample(A @ x, rng)
    return ProblemInstance(LinearModel(A), y, channel, prior, x_true=x)


def test_equivalence_amp_backend_exact():
    prob = _equivalence_problem()
    cfg = SolverConfig(max_iter=300, tol=1e-10, damping=0.8, slm_backend="amp")
    rep = check_equivalence(prob, Mode.SUM_PRODUCT, cfg)
    assert rep.passed, rep.to_json()
    assert rep.max_rel_residual <= 1e-6
    assert not rep.extras["diverged"]


def test_equivalence_cut_off_by_max_iter_fails():
    # both engines follow the same trajectory, so their end iterates agree;
    # neither reached a fixed point
    prob = _equivalence_problem()
    cfg = SolverConfig(max_iter=3, tol=1e-10, damping=0.8, slm_backend="amp")
    rep = check_equivalence(prob, Mode.SUM_PRODUCT, cfg)
    assert rep.max_rel_residual <= GATES["equivalence"]
    assert rep.extras["iters_gamp"] == rep.extras["iters_modular"] == 3
    assert not rep.passed
    assert not rep.extras["converged"] and not rep.extras["diverged"]


# their A is abs_gaussian, so both amp engines run the mean-removed step
POISSON_CASES = [case for case in verify.EQUIVALENCE_CASES if case[0] == "poisson()"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("channel, prior, mode", POISSON_CASES,
                         ids=[case[2] for case in POISSON_CASES])
def test_poisson_equivalence_cases_converge(channel, prior, mode, seed):
    prob = generate_problem(64, 128, parse_prior(prior), parse_channel(channel), seed)
    rep = check_equivalence(prob, Mode(mode), verify.EQUIVALENCE_CONFIG, seed=seed)
    assert rep.passed and rep.extras["converged"], rep.to_json()
    assert max(rep.extras["iters_gamp"], rep.extras["iters_modular"]) < 50


def test_equivalence_exact_backend_diagnostic():
    # the dense-SLM loop is a different fixed-point family; the report must
    # still run end to end and expose per-iteration distances
    prob = _equivalence_problem()
    cfg = SolverConfig(max_iter=100, tol=1e-9)
    rep = check_equivalence(prob, Mode.SUM_PRODUCT, cfg)
    assert isinstance(rep, CheckReport)
    assert rep.extras["per_iter_belief_distance"]
    assert np.isfinite(rep.max_rel_residual)


def test_equivalence_poisson_map():
    rng = np.random.default_rng(4)
    n, m = 32, 64
    prior = GaussianPrior(2.0, 0.25)
    channel = PoissonChannel()
    A = np.abs(rng.standard_normal((m, n))) / np.sqrt(n)
    x = prior.sample(n, rng)
    y = channel.sample(A @ x, rng)
    prob = ProblemInstance(LinearModel(A), y, channel, prior, x_true=x)
    cfg = SolverConfig(max_iter=300, tol=1e-10, damping=0.8, slm_backend="amp")
    rep = check_equivalence(prob, Mode.MAX_SUM, cfg)
    assert rep.passed, rep.to_json()


@pytest.mark.parametrize("spec, cases", [("probit(scale=1.0)", 2), ("probit()", 2),
                                         ("probit(scale=2.0)", 0), ("poisson()", 2),
                                         ("awgn(var=1)", 0)])
def test_run_checks_matches_equivalence_cases_by_spec(monkeypatch, spec, cases):
    channel = parse_channel(spec)
    seen = []
    monkeypatch.setattr(verify, "check_equivalence",
                        lambda problem, *args, **kw: seen.append(problem.channel))
    assert len(run_checks("equivalence", channel, 10, 0)) == cases
    assert seen == [channel] * cases
