#!/usr/bin/env python3
"""Show how closely the modular SLM + scalar-module solver tracks GAMP.

A front end to ``glmamp.verify.check_equivalence`` on one instance from
``glmamp.problems.generate_problem``, run with
``glmamp.verify.EQUIVALENCE_CONFIG`` and the chosen modular engine of
``glmamp.engine.ENGINES``.  It prints the report's distance between GAMP's
and that engine's belief means for the first 20 iterations, the
fixed-point distance and both iteration counts.  With the default
``--engine modular-amp`` the trajectories coincide to machine precision;
with ``--engine modular-exact`` the dense-Gaussian module settles on a
nearby but distinct fixed point, which the table makes visible.
"""

import argparse
import dataclasses

from glmamp.channels import Mode
from glmamp.engine import ENGINES, run_modular
from glmamp.problems import generate_problem
from glmamp.specs import non_negative_int, parse_channel, parse_prior, positive_int
from glmamp.verify import EQUIVALENCE_CONFIG, check_equivalence


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=positive_int, default=64)
    ap.add_argument("--m", type=positive_int, default=128)
    ap.add_argument("--prior", default="bg(rho=0.1,mean=0,var=1)")
    ap.add_argument("--channel", default="probit(scale=1.0)")
    ap.add_argument("--mode", choices=[m.value for m in Mode], default="mmse")
    ap.add_argument("--seed", type=non_negative_int, default=0)
    ap.add_argument("--engine", default="modular-amp",
                    choices=[name for name, (runner, _) in ENGINES.items()
                             if runner is run_modular])
    args = ap.parse_args()

    prob = generate_problem(args.n, args.m, parse_prior(args.prior),
                            parse_channel(args.channel), args.seed)
    config = dataclasses.replace(EQUIVALENCE_CONFIG, slm_backend=ENGINES[args.engine][1])
    report = check_equivalence(prob, Mode(args.mode), config, seed=args.seed)

    print(f"{'iter':>4}  {'|p_gamp - p_mod| / |p_gamp|':>28}")
    for it, d in enumerate(report.extras["per_iter_belief_distance"]):
        print(f"{it:>4}  {d:>28.3e}")
    print(f"\nfixed-point distance : {report.max_rel_residual:.3e}")
    print(f"iterations           : gamp {report.extras['iters_gamp']}, "
          f"modular {report.extras['iters_modular']} (engine={args.engine})")


if __name__ == "__main__":
    main()
