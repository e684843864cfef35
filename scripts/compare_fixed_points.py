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

The last line sums up the gate: the largest finite ``dist`` over converged
cells and over unconverged ones, each with its cell, the number of cells whose
solutions moved at all (``dist > 0``, or not finite: a NaN or inf point on
either side), the number whose iteration counts or flags changed, the number
found on one side only, the cells whose ``dist`` is not finite, and how many
solves changed end state, by transition: ``states=max_iter->converged:10,...``
over the states ``converged``, ``diverged`` and ``max_iter`` (neither flag).

    python scripts/trace_digest.py --seed 0 --save old/   # on each build
    python scripts/compare_fixed_points.py old/ new/
"""

import argparse
from collections import Counter
from pathlib import Path

import numpy as np

FLAGS = ("converged", "diverged", "floor_events")


def _rel(new, old):
    with np.errstate(invalid="ignore", over="ignore"):  # reported as non-finite
        return float(np.linalg.norm(new - old) / max(np.linalg.norm(old), 1e-300))


def compare(old: dict, new: dict) -> tuple[float, bool, str]:
    """Distance, whether iterations or flags changed, and the report line body
    for a cell saved in both runs."""
    dist = float(np.max([_rel(new[k][i], old[k][i])  # np.max keeps a NaN
                         for k in ("point", "variance") for i in range(len(old["point"]))]))
    iters_old, iters_new, delta = (",".join(str(n) for n in counts) for counts in (
        old["iterations"], new["iterations"], new["iterations"] - old["iterations"]))
    notes = [f"{k} {old[k].tolist()}->{new[k].tolist()}"
             for k in FLAGS if not np.array_equal(old[k], new[k])]
    changed = bool(notes) or not np.array_equal(old["iterations"], new["iterations"])
    if not np.all(new["converged"]):
        notes.append("unconverged")
    return dist, changed, (f"dist={dist:.2e} iters={iters_old}->{iters_new} "
                           f"delta={delta} {' '.join(notes)}")


def _states(cell: dict) -> list:
    """Each solve's end state: ``converged``, ``diverged`` or ``max_iter``."""
    return ["converged" if c else "diverged" if d else "max_iter"
            for c, d in zip(cell["converged"], cell["diverged"])]


def _largest(dists: dict) -> str:
    finite = {cell: d for cell, d in dists.items() if np.isfinite(d)}
    if not finite:
        return "none"
    cell = max(finite, key=finite.get)
    return f"{finite[cell]:.2e} ({cell})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()

    old_cells = {p.stem for p in args.old.glob("*.npz")}
    new_cells = {p.stem for p in args.new.glob("*.npz")}
    dists = {True: {}, False: {}}  # keyed by: new solves all converged
    changed = 0
    transitions = Counter()
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
                transitions.update(f"{a}->{b}" for a, b in zip(_states(old), _states(new))
                                   if a != b)
            changed += differs
            print(f"{cell} {line}".rstrip())
    every = {**dists[True], **dists[False]}
    non_finite = sorted(cell for cell, d in every.items() if not np.isfinite(d))
    moved = sum(d > 0 or not np.isfinite(d) for d in every.values())
    print(f"summary: max dist converged={_largest(dists[True])} "
          f"unconverged={_largest(dists[False])} moved={moved} changed={changed} "
          f"one-sided={len(old_cells ^ new_cells)} "
          f"non-finite={','.join(non_finite) or 'none'} "
          f"states={','.join(f'{t}:{k}' for t, k in sorted(transitions.items())) or 'none'}")


if __name__ == "__main__":
    main()
