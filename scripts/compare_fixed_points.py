#!/usr/bin/env python3
"""Compare the fixed points two ``trace_digest.py --save`` runs wrote.

For every cell saved under both OLD and NEW, print one line:

    <cell> dist=<d> iters=<old>-><new> delta=<new - old> [flags]

``dist`` is the relative distance of the solutions, the larger of
||point_new - point_old|| / ||point_old|| and the same for the variance,
taken over every solve of the cell (equivalence cells hold two).  ``iters``
lists each solve's iteration count.  ``flags`` names any solve whose
``converged``, ``diverged`` or ``floor_events`` differ between the runs, and
marks with ``unconverged`` a cell whose new solves did not all converge, so
that its distance is one between end iterates, not fixed points.  Cells saved
on one side only (the other raised) are listed as ``only in OLD``/``NEW``.

The last line sums up the gate: the largest ``dist`` over converged cells and
over unconverged ones, each with its cell, the number of cells whose solutions
moved at all (``dist > 0``), the number whose iteration counts or flags
changed, and the number found on one side only.

    python scripts/trace_digest.py --seed 0 --save old/   # on each build
    python scripts/compare_fixed_points.py old/ new/
"""

import argparse
from pathlib import Path

import numpy as np

FLAGS = ("converged", "diverged", "floor_events")


def _rel(new, old):
    return float(np.linalg.norm(new - old) / max(np.linalg.norm(old), 1e-300))


def compare(old: dict, new: dict) -> tuple[float, bool, str]:
    """Distance, whether iterations or flags changed, and the report line body
    for a cell saved in both runs."""
    dist = max(_rel(new[k][i], old[k][i])
               for k in ("point", "variance") for i in range(len(old["point"])))
    iters_old, iters_new, delta = (",".join(str(n) for n in counts) for counts in (
        old["iterations"], new["iterations"], new["iterations"] - old["iterations"]))
    notes = [f"{k} {old[k].tolist()}->{new[k].tolist()}"
             for k in FLAGS if not np.array_equal(old[k], new[k])]
    changed = bool(notes) or not np.array_equal(old["iterations"], new["iterations"])
    if not np.all(new["converged"]):
        notes.append("unconverged")
    return dist, changed, (f"dist={dist:.2e} iters={iters_old}->{iters_new} "
                           f"delta={delta} {' '.join(notes)}")


def _largest(dists: dict) -> str:
    if not dists:
        return "none"
    cell = max(dists, key=dists.get)
    return f"{dists[cell]:.2e} ({cell})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()

    old_cells = {p.stem for p in args.old.glob("*.npz")}
    new_cells = {p.stem for p in args.new.glob("*.npz")}
    dists = {True: {}, False: {}}  # keyed by: new solves all converged
    changed = 0
    for cell in sorted(old_cells | new_cells):
        if cell not in new_cells:
            print(f"{cell} only in OLD")
        elif cell not in old_cells:
            print(f"{cell} only in NEW")
        else:
            with np.load(args.old / f"{cell}.npz") as old, \
                    np.load(args.new / f"{cell}.npz") as new:
                dist, differs, line = compare(dict(old), dict(new))
                dists[bool(np.all(new["converged"]))][cell] = dist
            changed += differs
            print(f"{cell} {line}".rstrip())
    moved = sum(d > 0 for side in dists.values() for d in side.values())
    print(f"summary: max dist converged={_largest(dists[True])} "
          f"unconverged={_largest(dists[False])} moved={moved} changed={changed} "
          f"one-sided={len(old_cells ^ new_cells)}")


if __name__ == "__main__":
    main()
