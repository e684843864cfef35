#!/usr/bin/env python3
"""Show how closely the modular SLM + scalar-module solver tracks GAMP.

A front end to ``glmamp.verify.check_equivalence`` on one instance from
``glmamp.problems.generate_problem``, run with
``glmamp.verify.EQUIVALENCE_CONFIG`` and the chosen module-A backend.  It
prints the report's distance between the two engines' belief means for the
first 20 iterations, the fixed-point distance and both iteration counts.  With the default ``amp`` backend the trajectories
coincide to machine precision; with ``--slm-backend exact`` the
dense-Gaussian module settles on a nearby but distinct fixed point, which
the table makes visible.
"""

import argparse
import dataclasses

from glmamp.channels import Mode
from glmamp.problems import generate_problem
from glmamp.specs import parse_channel, parse_prior
from glmamp.verify import EQUIVALENCE_CONFIG, check_equivalence


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--m", type=int, default=128)
    ap.add_argument("--prior", default="bg(rho=0.1,mean=0,var=1)")
    ap.add_argument("--channel", default="probit(scale=1.0)")
    ap.add_argument("--mode", choices=("mmse", "map"), default="mmse")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--slm-backend", choices=("exact", "amp"), default="amp")
    args = ap.parse_args()

    prob = generate_problem(args.n, args.m, parse_prior(args.prior),
                            parse_channel(args.channel), args.seed)
    config = dataclasses.replace(EQUIVALENCE_CONFIG, slm_backend=args.slm_backend)
    report = check_equivalence(prob, Mode(args.mode), config, seed=args.seed)

    print(f"{'iter':>4}  {'|p_gamp - p_mod| / |p_gamp|':>28}")
    for it, d in enumerate(report.extras["per_iter_belief_distance"]):
        print(f"{it:>4}  {d:>28.3e}")
    print(f"\nfixed-point distance : {report.max_rel_residual:.3e}")
    print(f"iterations           : gamp {report.extras['iters_gamp']}, "
          f"modular {report.extras['iters_modular']} (backend={args.slm_backend})")


if __name__ == "__main__":
    main()
