"""Command-line front end: gen | solve | verify | sweep.

Every command is deterministic given its flags and seed.  Exit codes:
0 success, 1 failed check or solver divergence, 2 usage / I-O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

from .channels import Mode, PoissonChannel
from .engine import ProblemInstance, SolverConfig, nmse, run_gamp, run_modular
from .slm import LinearModel, load_matrix, save_matrix_binary
from .specs import SpecError, parse_channel, parse_prior, spec_string
from .verify import (check_derivatives, check_ep_bridge, check_equivalence,
                     check_laplace_identity)

ALL_CHANNELS = ("awgn(var=1.0)", "probit(scale=1.0)", "poisson()", "logistic(scale=1.0)")

# (channel, prior, mode) of the instances whose GAMP / modular equivalence
# `verify` certifies; each is generated at n=64, m=128 from the verify seed.
EQUIVALENCE_CASES = (("probit(scale=1.0)", "bg(rho=0.1,mean=0,var=1)", "mmse"),
                     ("probit(scale=1.0)", "laplace(lambda=1)", "map"),
                     ("poisson()", "gaussian(mean=2,var=0.25)", "mmse"),
                     ("poisson()", "gaussian(mean=2,var=0.25)", "map"))
EQUIVALENCE_CONFIG = SolverConfig(max_iter=300, tol=1e-10, damping=0.8, slm_backend="amp")


class UsageError(Exception):
    pass


def load_config_file(path) -> dict:
    """Key = value lines; '#' comments; values stay strings.

    A ``config`` key (or any prefix argparse would expand to ``--config``) is
    a usage error: the file is spliced in as flags, so it would be read as a
    second ``--config`` that the command line's own silently overrides.
    """
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key and "config".startswith(key):
            raise UsageError(f"{path}:{lineno}: a config file cannot name "
                             f"another config file (key {key!r})")
        out[key] = value.strip()
    return out


def _make_matrix(m, n, dist, rng):
    if dist == "gaussian":
        return rng.standard_normal((m, n)) / np.sqrt(n)
    if dist == "abs_gaussian":
        return np.abs(rng.standard_normal((m, n))) / np.sqrt(n)
    raise UsageError(f"unknown matrix distribution {dist!r}")


def _default_matrix_dist(channel) -> str:
    """Poisson needs a nonnegative A so that z = A x stays positive."""
    return "abs_gaussian" if isinstance(channel, PoissonChannel) else "gaussian"


def generate_problem(n, m, prior, channel, seed, matrix_dist=None):
    rng = np.random.default_rng(seed)
    if matrix_dist is None:
        matrix_dist = _default_matrix_dist(channel)
    A = _make_matrix(m, n, matrix_dist, rng)
    x = prior.sample(n, rng)
    z = A @ x
    if isinstance(channel, PoissonChannel):
        z = np.maximum(z, PoissonChannel.SAMPLE_Z_MIN)
    y = channel.sample(z, rng)
    return ProblemInstance(LinearModel(A), np.asarray(y, dtype=float), channel,
                           prior, x_true=x)


def cmd_gen(args) -> int:
    prior = parse_prior(args.prior)
    channel = parse_channel(args.channel)
    matrix_dist = args.matrix_dist or _default_matrix_dist(channel)
    prob = generate_problem(args.n, args.m, prior, channel, args.seed,
                            matrix_dist=matrix_dist)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix_binary(out / "A.bin", prob.model.A)
    np.savetxt(out / "x_true.csv", prob.x_true, delimiter=",")
    np.savetxt(out / "y.csv", prob.y, delimiter=",")
    meta = {"n": args.n, "m": args.m, "prior": spec_string(prior),
            "channel": spec_string(channel), "seed": args.seed,
            "matrix_dist": matrix_dist}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"wrote problem to {out}")
    return 0


def load_problem(path) -> ProblemInstance:
    path = Path(path)
    try:
        meta = json.loads((path / "meta.json").read_text())
        A = load_matrix(path / "A.bin")
        y = np.atleast_1d(np.loadtxt(path / "y.csv", delimiter=","))
        x_true = np.atleast_1d(np.loadtxt(path / "x_true.csv", delimiter=","))
        return ProblemInstance(LinearModel(A), y, parse_channel(meta["channel"]),
                               parse_prior(meta["prior"]), x_true=x_true)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load problem from {path}: "
                         f"{type(exc).__name__}: {exc}") from None


def _solver_config(args) -> SolverConfig:
    return SolverConfig(max_iter=args.max_iter, tol=args.tol,
                        damping=args.damping,
                        slm_backend=args.slm_backend)


def cmd_solve(args) -> int:
    try:
        config = _solver_config(args)
    except ValueError as exc:
        raise UsageError(exc) from None
    if args.problem:
        problem = load_problem(args.problem)
    else:
        problem = generate_problem(args.n, args.m, parse_prior(args.prior),
                                   parse_channel(args.channel), args.seed)
    mode = Mode(args.mode)
    runner = run_gamp if args.engine == "gamp" else run_modular
    t0 = time.perf_counter()
    solution, trace = runner(problem, mode, config)
    elapsed = time.perf_counter() - t0
    if args.trace:
        trace.to_jsonl(args.trace)
    summary = {"engine": args.engine, "mode": args.mode,
               "iterations": len(trace), "converged": trace.converged,
               "diverged": trace.diverged, "floor_events": trace.floor_events,
               "wall_time_s": round(elapsed, 6),
               "nmse": nmse(solution.point, problem.x_true)
               if problem.x_true is not None else None}
    text = json.dumps(summary, sort_keys=True, indent=2)
    if args.summary:
        Path(args.summary).write_text(text + "\n")
    print(text)
    return 1 if trace.diverged else 0


def _verify_reports(args):
    channels = [parse_channel(s) for s in
                ([args.channel] if args.channel else ALL_CHANNELS)]
    which = args.check
    reports = []
    for ch in channels:
        if which in ("all", "laplace"):
            reports.append(check_laplace_identity(ch, args.samples, args.seed))
        if which in ("all", "derivatives"):
            reports.append(check_derivatives(ch, args.samples, args.seed))
        if which in ("all", "bridge"):
            for mode in (Mode.SUM_PRODUCT, Mode.MAX_SUM):
                reports.append(check_ep_bridge(ch, mode, args.samples, args.seed))
    if which in ("all", "equivalence"):
        for spec, prior_spec, mode_name in EQUIVALENCE_CASES:
            if args.channel and parse_channel(spec).name != parse_channel(args.channel).name:
                continue
            prob = generate_problem(64, 128, parse_prior(prior_spec),
                                    parse_channel(spec), args.seed)
            reports.append(check_equivalence(prob, Mode(mode_name), EQUIVALENCE_CONFIG,
                                             seed=args.seed))
    return reports


def cmd_verify(args) -> int:
    reports = _verify_reports(args)
    lines = [r.to_json() for r in reports]
    if args.report:
        Path(args.report).write_text("\n".join(lines) + "\n")
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check}: residual "
              f"{r.max_rel_residual:.3e} (threshold {r.threshold:.0e}, "
              f"skipped {r.skipped_floored})")
    return 0 if all(r.passed for r in reports) else 1


def _parse_axis(flag, text, positive=False):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"{flag} {text!r}: expected comma-separated numbers") from None
    if not values:
        raise UsageError(f"{flag}: empty sweep axis")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag} {text!r}: every value must be finite")
    if positive and not all(v > 0.0 for v in values):
        raise UsageError(f"{flag} {text!r}: every value must be > 0")
    return values


def _sweep_prior(rho):
    try:
        return parse_prior(f"bg(rho={rho},mean=0,var=1)")
    except SpecError as exc:
        raise UsageError(f"--rho {rho}: {exc}") from None


def _sweep_cell(cell):
    snr_db, rho, ratio, rep, base_seed, prior = cell
    n = 64
    m = max(1, int(round(ratio * n)))
    seed = base_seed + 1000 * rep + hash((snr_db, rho, ratio)) % 1000
    rng = np.random.default_rng(seed)
    A = _make_matrix(m, n, "gaussian", rng)
    x = prior.sample(n, rng)
    z = A @ x
    signal_power = max(float(np.mean(z ** 2)), 1e-12)
    noise_var = signal_power / 10.0 ** (snr_db / 10.0)
    channel = parse_channel(f"awgn(var={noise_var})")
    y = channel.sample(z, rng)
    problem = ProblemInstance(LinearModel(A), np.asarray(y, dtype=float),
                              channel, prior, x_true=x)
    config = SolverConfig(max_iter=200, tol=1e-10)  # modular: exact module A
    rows = []
    for engine, runner in (("gamp", run_gamp), ("modular", run_modular)):
        row = {"snr_db": snr_db, "rho": rho, "m_over_n": ratio, "rep": rep,
               "engine": engine, "mode": "mmse"}
        try:
            sol, trace = runner(problem, Mode.SUM_PRODUCT, config)
            row.update(nmse=nmse(sol.point, x), iterations=len(trace),
                       floor_events=trace.floor_events,
                       status="diverged" if trace.diverged else "ok")
        except Exception as exc:  # per-cell failure: record, keep sweeping
            row.update(nmse=float("nan"), iterations=0, floor_events=0,
                       status=f"error:{exc}")
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    # every axis value is checked before the first solve
    snrs = _parse_axis("--snr-db", args.snr_db)
    rhos = _parse_axis("--rho", args.rho)
    priors = {rho: _sweep_prior(rho) for rho in rhos}
    ratios = _parse_axis("--m-over-n", args.m_over_n, positive=True)
    cells = [(s, r, q, rep, args.seed, priors[r])
             for s, r, q, rep in product(snrs, rhos, ratios, range(args.reps))]
    rows = [row for cell in cells for row in _sweep_cell(cell)]
    rows.sort(key=lambda r: (r["snr_db"], r["rho"], r["m_over_n"],
                             r["rep"], r["engine"]))
    fields = ["snr_db", "rho", "m_over_n", "rep", "engine", "mode",
              "nmse", "iterations", "floor_events", "status"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)  # argparse reports "invalid positive_int value"
    return value


def _add_solver_flags(p):
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slm-backend", choices=("exact", "amp"), default="exact",
                   help="module-A backend for the modular engine")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glmamp",
                                     description="GLM inference via GAMP and "
                                     "the modular SLM + scalar-module solver")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a problem instance on disk")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=positive_int, required=True)
    g.add_argument("--m", type=positive_int, required=True)
    g.add_argument("--prior", required=True)
    g.add_argument("--channel", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--matrix-dist", choices=("gaussian", "abs_gaussian"),
                   default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve a problem with either engine")
    s.add_argument("--config", help="key = value config file; flags override it")
    s.add_argument("--problem", help="directory written by gen")
    s.add_argument("--n", type=positive_int, default=64)
    s.add_argument("--m", type=positive_int, default=128)
    s.add_argument("--prior", default="gaussian(mean=0,var=1)")
    s.add_argument("--channel", default="awgn(var=1.0)")
    s.add_argument("--engine", choices=("gamp", "modular"), default="gamp")
    s.add_argument("--mode", choices=("mmse", "map"), default="mmse")
    s.add_argument("--trace", help="JSON-lines trace output path")
    s.add_argument("--summary", help="JSON summary output path")
    _add_solver_flags(s)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="run the verification harness")
    v.add_argument("--check", choices=("all", "laplace", "bridge",
                                       "derivatives", "equivalence"),
                   default="all")
    v.add_argument("--channel", help="restrict to one channel spec")
    v.add_argument("--samples", type=positive_int, default=10_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", help="JSON report output path")
    v.set_defaults(func=cmd_verify)

    w = sub.add_parser("sweep", help="SNR/sparsity/ratio sweep to CSV: one gamp "
                       "row and one modular (exact module A) row per cell")
    w.add_argument("--snr-db", default="0,10,20,30,40",
                   help="comma-separated SNR axis in dB")
    w.add_argument("--rho", default="0.1", help="comma-separated sparsity axis")
    w.add_argument("--m-over-n", default="2.0",
                   help="comma-separated measurement-ratio axis")
    w.add_argument("--reps", type=positive_int, default=5)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_sweep)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv; splice in the --config file it names, then parse again.

    The file's ``key = value`` lines become ``--key=value`` flags right after
    the subcommand, so argparse types and validates them like any flag, an
    unknown key is a usage error, and the user's own flags win wherever they are.
    """
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    flags = [f"--{key.replace('_', '-')}={value}"
             for key, value in load_config_file(args.config).items()]
    # the top-level parser takes no valued options: the subcommand is the
    # first token that is not a flag
    at = next(i for i, tok in enumerate(argv) if not tok.startswith("-")) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def main(argv=None) -> int:
    """Run one command; the one place a usage or I/O error becomes exit 2."""
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (UsageError, SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
