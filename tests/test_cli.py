import contextlib
import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import glmamp
from glmamp import cli
from glmamp.cli import main
from glmamp.engine import SolverConfig
from glmamp.gaussian import PosteriorStats
from glmamp.priors import GaussianPrior
from glmamp.problems import load_problem


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _edit_meta(directory, **changes):
    meta = directory / "meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), **changes}))


def _poisson_counts(directory, first):
    """Relabel the problem Poisson, with counts of 1 except a first of ``first``."""
    _edit_meta(directory, channel="poisson()")
    y = np.ones_like(np.loadtxt(directory / "y.csv"))
    y[0] = first
    np.savetxt(directory / "y.csv", y)


class TestGen:
    def test_writes_problem_and_is_deterministic(self, tmp_path, capsys):
        args = ["gen", "--n", "16", "--m", "32", "--prior", "bg(rho=0.2,mean=0,var=1)",
                "--channel", "probit(scale=1.0)", "--seed", "5"]
        code, _, _ = _run(capsys, *args, "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = _run(capsys, *args, "--out", str(tmp_path / "b"))
        assert code == 0
        for name in ("A.bin", "x_true.csv", "y.csv", "meta.json"):
            assert _sha256(tmp_path / "a" / name) == _sha256(tmp_path / "b" / name)
        prob = load_problem(tmp_path / "a")
        assert prob.model.n == 16 and prob.model.m == 32
        assert set(np.unique(prob.y)) <= {-1.0, 1.0}

    def test_poisson_counts_nonnegative_integers(self, tmp_path, capsys):
        code, _, _ = _run(capsys, "gen", "--n", "16", "--m", "32",
                          "--prior", "gaussian(mean=2,var=0.25)",
                          "--channel", "poisson()", "--seed", "0",
                          "--out", str(tmp_path / "p"))
        assert code == 0
        y = np.loadtxt(tmp_path / "p" / "y.csv", delimiter=",")
        assert np.all(y >= 0)
        assert np.all(y == np.round(y))

    def test_malformed_prior_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, "gen", "--n", "4", "--m", "4",
                            "--prior", "bg(rho=2)", "--channel", "awgn(var=1)",
                            "--out", str(tmp_path / "x"))
        assert code == 2
        assert "error" in err


class TestSolve:
    def test_solve_generated_problem(self, tmp_path, capsys):
        code, out, _ = _run(capsys, "solve", "--n", "16", "--m", "32",
                            "--prior", "gaussian(mean=0,var=1)",
                            "--channel", "awgn(var=0.1)", "--seed", "1",
                            "--trace", str(tmp_path / "t.jsonl"),
                            "--summary", str(tmp_path / "s.json"))
        assert code == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["converged"] is True
        assert summary["nmse"] < 0.5
        lines = (tmp_path / "t.jsonl").read_text().strip().splitlines()
        assert len(lines) == summary["iterations"]
        assert json.loads(out)["nmse"] == summary["nmse"]

    def test_solver_flag_defaults_are_solver_config_defaults(self):
        args = cli.build_parser().parse_args(["solve"])
        assert SolverConfig(max_iter=args.max_iter, tol=args.tol, damping=args.damping,
                            slm_backend=args.slm_backend) == SolverConfig()

    def test_solve_from_disk_matches_inline(self, tmp_path, capsys):
        gen = ["gen", "--n", "16", "--m", "32", "--prior", "gaussian(mean=0,var=1)",
               "--channel", "awgn(var=0.1)", "--seed", "1",
               "--out", str(tmp_path / "prob")]
        assert _run(capsys, *gen)[0] == 0
        code, out, _ = _run(capsys, "solve", "--problem", str(tmp_path / "prob"))
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_missing_problem_dir_exits_2(self, capsys):
        code, _, err = _run(capsys, "solve", "--problem", "/nonexistent/dir")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("flag", [
        ("--damping", "1.5"), ("--max-iter", "0"),
        ("--tol", "nan"), ("--tol", "-1"),
    ], ids=["damping", "max-iter", "tol-nan", "tol-neg"])
    def test_bad_solver_config_exits_2(self, capsys, flag):
        code, out, err = _run(capsys, "solve", "--n", "8", "--m", "16", *flag)
        assert code == 2
        assert err.startswith("error: ") and out == ""

    @pytest.mark.parametrize("spec", [("--channel", "awgn(var=1e-320)"),
                                      ("--prior", "laplace(lambda=1e-300)"),
                                      ("--prior", "laplace(lambda=1e300)"),
                                      ("--channel", "probit(scale=1e-300)"),
                                      ("--channel", "logistic(scale=1e-300)"),
                                      ("--prior", "gaussian(mean=0,var=1e-320)"),
                                      ("--prior", "gaussian(mean=0,var=1e-320)",
                                       "--mode", "map"),
                                      ("--prior", "gaussian(mean=0,var=1e-320)",
                                       "--engine", "gamp"),
                                      ("--prior", "bg(rho=0.1,mean=0,var=1e-320)",
                                       "--mode", "map"),
                                      ("--prior", "bg(rho=0.1,mean=1,var=1e-320)"),
                                      ("--prior", "bg(rho=0.1,mean=1e160,var=1)"),
                                      ("--prior", "gaussian(mean=1e300,var=1e-10)")],
                             ids=["awgn-1e-320", "laplace-1e-300", "laplace-1e300",
                                  "probit-1e-300", "logistic-1e-300",
                                  "gaussian-var-1e-320", "gaussian-var-1e-320-map",
                                  "gaussian-var-1e-320-gamp", "bg-var-1e-320-map",
                                  "bg-mean-1-var-1e-320", "bg-mean-1e160",
                                  "gaussian-mean-1e300"])
    def test_extreme_spec_value_exits_2(self, capsys, spec):
        code, out, err = _run(capsys, "solve", "--n", "16", "--m", "32", *spec)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be in [" in err

    # at each end of the Laplace range a MAP solve runs to a documented state
    @pytest.mark.parametrize("rate", ["1e-75", "1e75"])
    def test_laplace_map_solves_at_each_end_of_the_rate_range(self, capsys, rate):
        code, out, _ = _run(capsys, "solve", "--n", "16", "--m", "32", "--mode", "map",
                            "--prior", f"laplace(lambda={rate})")
        assert code == 0 and json.loads(out)["converged"] is True

    # each ended in a ValueError traceback while every message checked itself
    @pytest.mark.parametrize("argv", [
        ["--prior", "laplace(lambda=1)", "--channel", "poisson()"],
        ["--n", "16", "--m", "32", "--prior", "gaussian(mean=1e150,var=1e-150)",
         "--engine", "modular"],
        ["--n", "16", "--m", "32", "--prior", "gaussian(mean=1e150,var=1e-150)",
         "--engine", "modular", "--mode", "map"],
    ], ids=["laplace-poisson", "gaussian-prior-corner", "gaussian-prior-corner-map"])
    def test_formerly_raising_solve_exits_1_diverged(self, capsys, argv):
        # the gaussian-prior corner still overflows eta / lam (ROADMAP 3(d))
        corner = any(arg.startswith("gaussian(") for arg in argv)
        with np.errstate(over="ignore") if corner else contextlib.nullcontext():
            code, out, _ = _run(capsys, "solve", *argv)
        assert code == 1 and json.loads(out)["diverged"] is True

    # ROADMAP 3(d), logistic half: beliefs wide against the scale ended in a
    # QuadratureError traceback while the logistic MMSE was a quadrature
    @pytest.mark.parametrize("scale", ["1e-150", "1e-100", "1e-50", "1e-7", "1e-3"])
    @pytest.mark.parametrize("engine", [["--engine", "gamp"],
                                        ["--engine", "modular", "--slm-backend", "amp"],
                                        ["--engine", "modular"]],
                             ids=["gamp", "modular-amp", "modular-exact"])
    def test_logistic_mmse_at_tiny_scales_ends_in_a_summary(self, capsys, scale, engine):
        code, out, _ = _run(capsys, "solve", "--n", "16", "--m", "32", "--mode", "mmse",
                            "--channel", f"logistic(scale={scale})", *engine)
        summary = json.loads(out)
        assert code in (0, 1) and summary["diverged"] is (code == 1)

    def test_bad_denoiser_output_exits_1_diverged(self, capsys, monkeypatch):
        denoise = GaussianPrior.denoise

        def bad_denoise(prior, mode, r, tau):
            return PosteriorStats(np.full_like(r, np.nan), denoise(prior, mode, r, tau).variance)

        monkeypatch.setattr(GaussianPrior, "denoise", bad_denoise)
        code, out, _ = _run(capsys, "solve", "--n", "16", "--m", "32")
        summary = json.loads(out)
        assert code == 1 and summary["diverged"] is True and summary["iterations"] == 0

    @pytest.mark.parametrize("corrupt", [
        lambda d: (d / "meta.json").write_text("{bad"),
        lambda d: (d / "meta.json").write_text('{"prior": "gaussian(mean=0,var=1)"}'),
        lambda d: (d / "A.bin").write_bytes(b"GLMA" + b"\0" * 5),
        lambda d: (d / "A.bin").write_bytes(b"GLMA" + struct.pack("<QQ", 2**40, 2**30)),
        lambda d: _edit_meta(d, n=99, m=3, matrix_dist="nonsense"),
        lambda d: _edit_meta(d, n=5),
        lambda d: _edit_meta(d, m=4),
        lambda d: _edit_meta(d, n=8, m=4),
        lambda d: _edit_meta(d, matrix_dist="cauchy"),
        lambda d: _poisson_counts(d, np.inf),
        lambda d: _poisson_counts(d, 1e9),
        lambda d: np.savetxt(d / "x_true.csv", [0.0, np.nan, 1.0, 0.0]),
    ], ids=["malformed-meta", "missing-key", "unreadable-matrix", "oversized-matrix",
            "meta-disagrees", "meta-n", "meta-m", "meta-n-m-swapped", "meta-matrix-dist",
            "poisson-infinite-count", "poisson-huge-count", "x-true-nan"])
    def test_corrupt_problem_dir_exits_2(self, tmp_path, capsys, corrupt):
        gen = ["gen", "--n", "4", "--m", "8", "--prior", "gaussian(mean=0,var=1)",
               "--channel", "awgn(var=0.1)", "--out", str(tmp_path / "prob")]
        assert _run(capsys, *gen)[0] == 0
        corrupt(tmp_path / "prob")
        code, _, err = _run(capsys, "solve", "--problem", str(tmp_path / "prob"))
        assert code == 2
        assert err.startswith("error: cannot load problem")

    def test_same_result_under_python_O(self):
        # no assert changes what a solve does: BG-prior max-sum GAMP with a
        # logistic channel runs in the cancelling curvature regime
        env = dict(os.environ, PYTHONPATH=str(Path(glmamp.__file__).parents[1]))
        argv = ["-m", "glmamp", "solve", "--prior", "bg(rho=0.1,mean=0,var=1)",
                "--channel", "logistic(scale=0.3)", "--mode", "map", "--seed", "1"]
        summaries = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, *argv], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            summary = json.loads(proc.stdout)
            del summary["wall_time_s"]
            summaries.append(summary)
        assert summaries[0] == summaries[1]

    def test_modular_map_engine(self, capsys):
        code, out, _ = _run(capsys, "solve", "--engine", "modular", "--mode", "map",
                            "--prior", "laplace(lambda=1)",
                            "--channel", "probit(scale=1.0)",
                            "--slm-backend", "amp", "--damping", "0.8",
                            "--max-iter", "300", "--tol", "1e-8")
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_byte_identical_outputs_across_runs(self, tmp_path, capsys):
        for tag in ("a", "b"):
            code, _, _ = _run(capsys, "solve", "--n", "16", "--m", "32",
                              "--channel", "probit(scale=1.0)",
                              "--prior", "bg(rho=0.2,mean=0,var=1)", "--seed", "9",
                              "--trace", str(tmp_path / f"{tag}.jsonl"))
            assert code == 0
        assert _sha256(tmp_path / "a.jsonl") == _sha256(tmp_path / "b.jsonl")

    def test_config_file_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("n = 16\nm = 32\nchannel = awgn(var=0.1)\nmax_iter = 3\n")
        code, out, _ = _run(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["iterations"] == 3
        code, out, _ = _run(capsys, "solve", "--config", str(cfg),
                            "--max-iter", "50")
        assert code == 0
        assert json.loads(out)["iterations"] > 3
        code, out, _ = _run(capsys, "solve", "--max-iter", "50", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["iterations"] > 3

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"],
                                          ["--conf", "{}"]],
                             ids=["separate", "equals", "prefix"])
    def test_config_read_in_every_spelling_argparse_accepts(self, tmp_path, capsys,
                                                            spelling):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("max_iter = 3\n")
        flags = [tok.format(cfg) for tok in spelling]
        code, out, _ = _run(capsys, "solve", "--n", "8", "--m", "16", *flags)
        assert code == 0
        assert json.loads(out)["iterations"] == 3
        code, out, _ = _run(capsys, "solve", *flags, "--n", "8", "--m", "16",
                            "--max-iter", "5", "--tol", "0")
        assert code == 0
        assert json.loads(out)["iterations"] == 5
        missing = [tok.format(tmp_path / "missing.cfg") for tok in spelling]
        code, out, err = _run(capsys, "solve", "--n", "8", "--m", "16", *missing)
        assert code == 2
        assert err.startswith("error: cannot read config") and out == ""

    # the file is spliced in as flags, so a config key would be a second
    # --config that the command line's own overrides without a word
    @pytest.mark.parametrize("key", ["config", "conf"])
    def test_config_key_in_config_file_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(f"max_iter = 3\n{key} = {tmp_path / 'missing.cfg'}\n")
        code, out, err = _run(capsys, "solve", "--n", "8", "--m", "16",
                              "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {cfg}:2: a config file cannot name")

    @pytest.mark.parametrize("line", ["mode = xyz", "engine = foo", "max_iter = 2.5",
                                      "no_such_key = 1"],
                             ids=["mode", "engine", "max-iter", "unknown-key"])
    def test_config_values_validated_like_flags(self, tmp_path, capsys, line):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(f"n = 8\nm = 16\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_all_checks_pass_small(self, tmp_path, capsys):
        code, out, _ = _run(capsys, "verify", "--samples", "300", "--seed", "0",
                            "--report", str(tmp_path / "r.jsonl"))
        assert code == 0
        assert "FAIL" not in out
        lines = (tmp_path / "r.jsonl").read_text().strip().splitlines()
        assert len(lines) == out.count("PASS")
        for line in lines:
            assert json.loads(line)["pass"] is True

    def test_single_check_single_channel(self, capsys):
        code, out, _ = _run(capsys, "verify", "--check", "laplace",
                            "--channel", "probit(scale=1.0)",
                            "--samples", "500")
        assert code == 0
        assert out.count("PASS") == 1

    def test_bad_channel_spec_exits_2(self, capsys):
        code, _, err = _run(capsys, "verify", "--channel", "cauchy()")
        assert code == 2
        assert "error" in err

    # a selection that runs no check is a usage error, not a vacuous pass;
    # equivalence cases match --channel by spec, so probit(scale=2.0) has none
    @pytest.mark.parametrize("channel", ["awgn(var=1)", "probit(scale=2.0)"])
    def test_selection_that_runs_no_check_exits_2(self, tmp_path, capsys, channel):
        report = tmp_path / "r.jsonl"
        code, out, err = _run(capsys, "verify", "--channel", channel, "--check",
                              "equivalence", "--report", str(report))
        assert code == 2 and out == ""
        assert err.startswith("error: --check equivalence runs no check")
        assert not report.exists()


class TestSweep:
    def test_sweep_csv_and_snr_trend(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = _run(capsys, "sweep", "--snr-db", "0,10,20,30",
                            "--rho", "0.1", "--m-over-n", "2.0",
                            "--reps", "3", "--out", str(out_csv))
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        # 4 SNRs x 3 reps x 2 engines
        assert len(rows) == 24
        assert all(r["status"] == "ok" for r in rows)
        for engine in ("gamp", "modular"):
            snr = [float(r["snr_db"]) for r in rows if r["engine"] == engine]
            err = [float(r["nmse"]) for r in rows if r["engine"] == engine]
            corr, _ = spearmanr(snr, err)
            assert corr < 0, engine  # NMSE falls as SNR rises
        # the exact-backed modular engine lands near gamp's fixed point
        # (ratio at most 1.44 on the default grid), not on it
        gamp = {(r["snr_db"], r["rep"]): float(r["nmse"])
                for r in rows if r["engine"] == "gamp"}
        for r in rows:
            if r["engine"] == "modular":
                ratio = float(r["nmse"]) / gamp[(r["snr_db"], r["rep"])]
                assert 0.5 <= ratio <= 2.0, r

    @pytest.mark.parametrize("flag,value", [("--rho", "0.1,0"), ("--snr-db", "10,inf"),
                                            ("--snr-db", "10,1600")],
                             ids=["rho-late-zero", "snr-late-inf", "snr-late-noise-range"])
    def test_axes_checked_before_first_solve(self, tmp_path, capsys, monkeypatch,
                                             flag, value):
        solves = []  # a raising stub would be caught as a failed cell

        def spy(*args):
            solves.append(args)
            raise RuntimeError("no solve expected")

        monkeypatch.setattr(cli, "run_gamp", spy)
        monkeypatch.setattr(cli, "run_modular", spy)
        out = tmp_path / "s.csv"
        code, _, err = _run(capsys, "sweep", "--reps", "1", flag, value, "--out", str(out))
        assert code == 2 and not solves
        assert err.startswith(f"error: {flag} ")
        assert not out.exists()

    def test_empty_axis_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, "sweep", "--snr-db", ",", "--out",
                            str(tmp_path / "s.csv"))
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "0", "--m", "4"],
    ["gen", "--n", "-3", "--m", "4"],
    ["verify", "--samples", "0"],
    ["verify", "--samples", "-1"],
    ["sweep", "--rho", "0"],
    ["sweep", "--rho", "1.5"],
    ["sweep", "--snr-db", "abc"],
    ["sweep", "--m-over-n", "-2"],
    ["solve", "--prior", "gaussian(mean=inf,var=1)"],
    ["solve", "--prior", "laplace(lambda=inf)"],
    ["solve", "--prior", "bg(rho=0.1,mean=nan,var=1)"],
    ["verify", "--channel", "awgn(var=inf)"],
    ["solve", "--prior", "bg(rho=0.1,rho=0.5)"],
    ["solve", "--channel", "awgn(var=1,var=2)"],
], ids=["gen-n-0", "gen-n-neg", "verify-samples-0", "verify-samples-neg",
        "sweep-rho-0", "sweep-rho-1.5", "sweep-snr-text", "sweep-ratio-neg",
        "spec-mean-inf", "spec-lambda-inf", "spec-mean-nan", "spec-var-inf",
        "spec-repeated-prior-key", "spec-repeated-channel-key"])
def test_bad_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    extra = {"gen": ["--prior", "gaussian(mean=0,var=1)", "--channel", "awgn(var=1)",
                     "--out", str(out)],
             "solve": ["--n", "8", "--m", "16", "--max-iter", "2", "--summary", str(out)],
             "verify": ["--check", "laplace"],
             "sweep": ["--reps", "1", "--out", str(out)]}[argv[0]]
    try:  # argparse rejects a bad flag value with SystemExit(2)
        code = main([*argv, *extra])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()
