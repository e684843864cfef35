#!/usr/bin/env python3
"""Print one digest line per solve of a fixed cell set, for diffing two builds.

The cell set is the full grid of 3 priors x 4 channels x 2 modes x
{gamp, modular-amp, modular-exact} at n=64, m=128 with the default
``SolverConfig``, plus the 4 instances that ``glmamp verify`` uses for its
equivalence checks (gamp and modular-amp on each).  Every problem is built by
``glmamp.cli.generate_problem`` from ``--seed``.

Each line is ``<cell> <sha256>`` over the trace's ``to_jsonl`` bytes, its
converged/diverged/floor_events bookkeeping and the solution's point and
variance bytes, or ``<cell> EXC <Type>: <message>`` when the solve raises.
Two builds that print the same lines produce byte-identical traces:

    python scripts/trace_digest.py --seed 0 > new.txt   # on each build
    diff old.txt new.txt
"""

import argparse
import hashlib
import tempfile
from itertools import product
from pathlib import Path

import numpy as np

from glmamp.channels import Mode
from glmamp.cli import generate_problem
from glmamp.engine import SolverConfig, run_gamp, run_modular
from glmamp.specs import parse_channel, parse_prior

PRIORS = ("gaussian(mean=0,var=1)", "bg(rho=0.1,mean=0,var=1)", "laplace(lambda=1)")
CHANNELS = ("awgn(var=0.1)", "probit(scale=0.3)", "poisson()", "logistic(scale=0.3)")
ENGINES = {"gamp": (run_gamp, "exact"), "modular-amp": (run_modular, "amp"),
           "modular-exact": (run_modular, "exact")}
# (channel, prior, mode) of the equivalence instances in `glmamp verify`
EQUIVALENCE = (("probit(scale=1.0)", "bg(rho=0.1,mean=0,var=1)", "mmse"),
               ("probit(scale=1.0)", "laplace(lambda=1)", "map"),
               ("poisson()", "gaussian(mean=2,var=0.25)", "mmse"),
               ("poisson()", "gaussian(mean=2,var=0.25)", "map"))
EQUIVALENCE_CONFIG = SolverConfig(max_iter=300, tol=1e-10, damping=0.8, slm_backend="amp")


def _solve_bytes(runner, problem, mode, config, scratch: Path) -> bytes:
    solution, trace = runner(problem, mode, config)
    trace.to_jsonl(scratch)
    flags = f"{trace.converged} {trace.diverged} {trace.floor_events}".encode()
    return (scratch.read_bytes() + flags
            + np.asarray(solution.point, dtype=float).tobytes()
            + np.asarray(solution.variance, dtype=float).tobytes())


def _line(cell, solves, scratch):
    """Digest of the solves' bytes, or the first exception they raise."""
    h = hashlib.sha256()
    try:
        for runner, problem, mode, config in solves:
            h.update(_solve_bytes(runner, problem, mode, config, scratch))
    except Exception as exc:  # an exception is an outcome to compare, not an error
        return f"{cell} EXC {type(exc).__name__}: {exc}".replace("\n", " ")
    return f"{cell} {h.hexdigest()}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp) / "trace.jsonl"
        for prior, channel in product(PRIORS, CHANNELS):
            problem = generate_problem(64, 128, parse_prior(prior),
                                       parse_channel(channel), args.seed)
            for mode, (engine, (runner, backend)) in product(Mode, ENGINES.items()):
                config = SolverConfig(slm_backend=backend)
                print(_line(f"{prior}|{channel}|{mode.value}|{engine}",
                            [(runner, problem, mode, config)], scratch), flush=True)
        for channel, prior, mode_name in EQUIVALENCE:
            problem = generate_problem(64, 128, parse_prior(prior),
                                       parse_channel(channel), args.seed)
            mode = Mode(mode_name)
            print(_line(f"equivalence|{prior}|{channel}|{mode_name}",
                        [(run_gamp, problem, mode, EQUIVALENCE_CONFIG),
                         (run_modular, problem, mode, EQUIVALENCE_CONFIG)], scratch),
                  flush=True)


if __name__ == "__main__":
    main()
