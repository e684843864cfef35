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

from .channels import Mode
from .engine import SLM_BACKENDS, SolverConfig, nmse, run_gamp, run_modular
from .problems import (MATRIX_DISTS, generate_problem, load_problem, make_matrix,
                       observe, save_problem)
from .specs import SpecError, parse_channel, parse_prior
from .verify import CHECKS, run_checks


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


def cmd_gen(args) -> int:
    save_problem(args.out, args.n, args.m, parse_prior(args.prior),
                 parse_channel(args.channel), args.seed, args.matrix_dist)
    print(f"wrote problem to {Path(args.out)}")
    return 0


def cmd_solve(args) -> int:
    try:
        config = SolverConfig(max_iter=args.max_iter, tol=args.tol,
                              damping=args.damping, slm_backend=args.slm_backend)
        problem = load_problem(args.problem) if args.problem else None
    except ValueError as exc:
        raise UsageError(exc) from None
    if problem is None:
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


def cmd_verify(args) -> int:
    channel = parse_channel(args.channel) if args.channel else None
    reports = run_checks(args.check, channel, args.samples, args.seed)
    if not reports:
        raise UsageError(f"--check {args.check} runs no check on channel {args.channel}")
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


def _sweep_problem(cell):
    """The cell's instance, drawn from its own seed whatever was drawn or solved before."""
    snr_db, rho, ratio, rep, base_seed, prior = cell
    n = 64
    m = max(1, int(round(ratio * n)))
    seed = base_seed + 1000 * rep + hash((snr_db, rho, ratio)) % 1000
    rng = np.random.default_rng(seed)
    A = make_matrix(m, n, "gaussian", rng)
    x = prior.sample(n, rng)
    signal_power = max(float(np.mean((A @ x) ** 2)), 1e-12)
    noise_var = signal_power / 10.0 ** (snr_db / 10.0)
    try:
        channel = parse_channel(f"awgn(var={noise_var})")
    except SpecError as exc:
        raise UsageError(f"--snr-db {snr_db}: {exc}") from None
    return observe(A, x, prior, channel, rng)


def _sweep_cell(cell, problem):
    snr_db, rho, ratio, rep = cell[:4]
    config = SolverConfig(max_iter=200, tol=1e-10)  # modular: exact module A
    rows = []
    for engine, runner in (("gamp", run_gamp), ("modular", run_modular)):
        row = {"snr_db": snr_db, "rho": rho, "m_over_n": ratio, "rep": rep,
               "engine": engine, "mode": "mmse"}
        try:
            sol, trace = runner(problem, Mode.SUM_PRODUCT, config)
            row.update(nmse=nmse(sol.point, problem.x_true), iterations=len(trace),
                       floor_events=trace.floor_events,
                       status="diverged" if trace.diverged else "ok")
        except Exception as exc:  # per-cell failure: record, keep sweeping
            row.update(nmse=float("nan"), iterations=0, floor_events=0,
                       status=f"error:{exc}")
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    # every axis value, and every cell's derived noise variance, is checked
    # before the first solve
    snrs = _parse_axis("--snr-db", args.snr_db)
    rhos = _parse_axis("--rho", args.rho)
    priors = {rho: _sweep_prior(rho) for rho in rhos}
    ratios = _parse_axis("--m-over-n", args.m_over_n, positive=True)
    cells = [(s, r, q, rep, args.seed, priors[r])
             for s, r, q, rep in product(snrs, rhos, ratios, range(args.reps))]
    problems = [_sweep_problem(cell) for cell in cells]
    rows = [row for cell, problem in zip(cells, problems)
            for row in _sweep_cell(cell, problem)]
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
    p.add_argument("--slm-backend", choices=SLM_BACKENDS,
                   default=SolverConfig.slm_backend,
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
    g.add_argument("--matrix-dist", choices=MATRIX_DISTS, default=None)
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
    v.add_argument("--check", choices=CHECKS, default="all")
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
