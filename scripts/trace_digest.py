#!/usr/bin/env python3
"""Print one digest line per solve of a fixed cell set, for diffing two builds.

The cell set is the full grid of 3 priors x 4 channels x 2 modes x the
engines of ``glmamp.engine.ENGINES`` (gamp, modular-amp, modular-exact) at
n=64, m=128 with the default ``SolverConfig`` and the engine's module-A
backend, plus the 4 ``glmamp.verify.EQUIVALENCE_CASES`` instances
(gamp and modular-amp on each).  Every problem is built by
``glmamp.problems.generate_problem`` from ``--seed``.  ``--n N`` builds
every problem at n=N, m=2N instead, to reach code that only runs on larger
problems; the default is the set above.

Each line is ``<cell> <sha256>`` over the trace's ``to_jsonl`` bytes, its
converged/diverged/floor_events bookkeeping and the solution's point and
variance bytes, or ``<cell> EXC <Type>: <message>`` when the solve raises.
A last line, ``verify|seed=<N> <sha256>``, hashes the file that
``glmamp verify --seed N --report`` writes (independent of ``--n``).
Two builds that print the same lines produce byte-identical traces and
verify reports:

    python scripts/trace_digest.py --seed 0 > new.txt   # on each build
    diff old.txt new.txt

``--seed`` and ``--n`` may each be given more than once.  The script then
prints the lines of every (seed, n) pair, seeds outer, each line starting
with ``seed=S|n=N|``, so one run per build and one ``diff`` cover the set:

    python scripts/trace_digest.py --seed 0 --seed 1 --n 64 --n 256 > new.txt

With one seed and one n the lines carry no such prefix.

``--save DIR`` also writes each cell that solves to ``DIR/<cell>.npz`` (the
cell name with its prefix, if any): the solution's ``point`` and
``variance`` and the trace's ``iterations``, ``converged``, ``diverged`` and
``floor_events``, one row per solve of the cell.
``scripts/compare_fixed_points.py OLD NEW`` reports how far two such
directories' fixed points lie apart.

The script pins BLAS to one thread: it sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before it imports numpy,
whatever the caller's environment holds.  Every solve now runs on one BLAS
thread by itself (``glmamp.blas.one_thread``), but builds from before that
left the count to the caller, and there the exact backend's digests at n=128
and above depend on it.  Pinning here runs an older build as the newer
one runs, so a diff of the two compares the builds, not the thread counts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS; see the docstring

import argparse
import contextlib
import hashlib
import io
import tempfile
from itertools import product
from pathlib import Path

import numpy as np

from glmamp.channels import Mode
from glmamp.cli import main as glmamp_main
from glmamp.engine import ENGINES, SolverConfig, run_gamp, run_modular
from glmamp.problems import generate_problem
from glmamp.specs import non_negative_int, parse_channel, parse_prior, positive_int
from glmamp.verify import EQUIVALENCE_CASES, EQUIVALENCE_CONFIG

PRIORS = ("gaussian(mean=0,var=1)", "bg(rho=0.1,mean=0,var=1)", "laplace(lambda=1)")
CHANNELS = ("awgn(var=0.1)", "probit(scale=0.3)", "poisson()", "logistic(scale=0.3)")


def _solve_bytes(solution, trace, scratch: Path) -> bytes:
    trace.to_jsonl(scratch)
    flags = f"{trace.converged} {trace.diverged} {trace.floor_events}".encode()
    return (scratch.read_bytes() + flags
            + solution.point.tobytes() + solution.variance.tobytes())


def _save(path: Path, results):
    """Write the solves' fixed points and bookkeeping, one row per solve."""
    solutions, traces = zip(*results)
    np.savez(path,
             point=np.array([s.point for s in solutions], dtype=float),
             variance=np.array([s.variance for s in solutions], dtype=float),
             iterations=np.array([len(t) for t in traces]),
             converged=np.array([t.converged for t in traces]),
             diverged=np.array([t.diverged for t in traces]),
             floor_events=np.array([t.floor_events for t in traces]))


def _line(cell, solves, scratch, save_dir):
    """Digest of the solves' bytes, or the first exception they raise."""
    h = hashlib.sha256()
    results = []
    try:
        for runner, problem, mode, config in solves:
            results.append(runner(problem, mode, config))
            h.update(_solve_bytes(*results[-1], scratch))
    except Exception as exc:  # an exception is an outcome to compare, not an error
        return f"{cell} EXC {type(exc).__name__}: {exc}".replace("\n", " ")
    if save_dir is not None:
        _save(save_dir / f"{cell}.npz", results)
    return f"{cell} {h.hexdigest()}"


def _verify_line(seed, report: Path):
    """Digest of the ``glmamp verify --report`` file at ``seed``."""
    with contextlib.redirect_stdout(io.StringIO()):  # its PASS/FAIL lines
        glmamp_main(["verify", "--seed", str(seed), "--report", str(report)])
    return f"verify|seed={seed} {hashlib.sha256(report.read_bytes()).hexdigest()}"


def _print_cells(seed, n, prefix, scratch: Path, save_dir):
    """Print the cell lines of one (seed, n) run, each starting with ``prefix``."""
    for prior, channel in product(PRIORS, CHANNELS):
        problem = generate_problem(n, 2 * n, parse_prior(prior),
                                   parse_channel(channel), seed)
        for mode, (engine, (runner, backend)) in product(Mode, ENGINES.items()):
            config = SolverConfig(slm_backend=backend)
            print(_line(f"{prefix}{prior}|{channel}|{mode.value}|{engine}",
                        [(runner, problem, mode, config)], scratch, save_dir),
                  flush=True)
    for channel, prior, mode_name in EQUIVALENCE_CASES:
        problem = generate_problem(n, 2 * n, parse_prior(prior),
                                   parse_channel(channel), seed)
        mode = Mode(mode_name)
        print(_line(f"{prefix}equivalence|{prior}|{channel}|{mode_name}",
                    [(run_gamp, problem, mode, EQUIVALENCE_CONFIG),
                     (run_modular, problem, mode, EQUIVALENCE_CONFIG)],
                    scratch, save_dir),
              flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=non_negative_int, action="append",
                    help="problem seed (default 0); repeat for several")
    ap.add_argument("--n", type=positive_int, action="append",
                    help="unknowns per problem, m = 2n (default 64); repeat for several")
    ap.add_argument("--save", type=Path, metavar="DIR",
                    help="also write each cell's fixed point to DIR/<cell>.npz")
    args = ap.parse_args()
    seeds, sizes = args.seed or [0], args.n or [64]
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)

    several = len(seeds) * len(sizes) > 1
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp) / "trace.jsonl"
        for seed in seeds:
            verify = None  # the report does not depend on n: made once per seed
            for n in sizes:
                prefix = f"seed={seed}|n={n}|" if several else ""
                _print_cells(seed, n, prefix, scratch, args.save)
                verify = verify or _verify_line(seed, Path(tmp) / "verify.jsonl")
                print(prefix + verify, flush=True)


if __name__ == "__main__":
    main()
