"""glmamp benchmark: one workload per run, closed loop, single process.

    python3 benchmarks/run.py --workload large-mmse --seed 0 --seconds 36 --trace 0
    python3 benchmarks/run.py --smoke

Run from the repository root; the package is imported from ``src/``.  A run
sets up its instances ``setups_per_run`` times (``setup_s`` is the median),
then runs passes back to back until the next pass would end after
``--seconds``, but never fewer than one full cycle of its instances, so the
deterministic metrics always cover the same solves.  With ``--trace 1`` each
pass runs twice, untraced and then traced, every pass on the first instance,
and the run reports the per-layer metrics and the tracing overhead instead
of the end-to-end ones.  End-to-end timings are corrected for the drift in
speed of a shared host by the probe in ``hostspeed.py``, which runs before
the first set-up and after every set-up and pass.

``attempted`` and ``failed`` count distinct operations: each operation on
each instance once, however often the run repeats it.  A repeat must
reproduce its first run exactly (otherwise ``correct`` is false), so both
counts depend on the seed alone, not on how many passes fit in the time.

stdout ends with two JSON lines: a detail record (parameters, environment,
sample counts and percentiles, failures), then the result
``{"correct", "attempted", "failed", "metrics"}``.  Workload parameters and
the documentation of every metric are in ``spec.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size, traced and untraced, and check "
                         "that every metric BENCHMARK.json names is emitted")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def cap_blas_threads() -> int:
    """Run BLAS single-threaded; before numpy loads.

    The solves are closed loop in one process and their matrices are small
    (n <= 1024), so a second BLAS thread adds no speed; it only spins on a
    second CPU, where it competes with the rest of the machine and makes the
    timings noisier."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def environment(nproc):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "nproc": nproc, "cpu": cpu}


def summary(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 20:
        q = (100 * (n - 10)) // n
        if q > 50:
            out[f"p{q}"] = values[math.ceil(q * n / 100) - 1]
    return out


def run_passes(wl, state, seconds, probe, tracer=None):
    """Closed loop: the next pass starts when the previous returns.

    Untraced, pass j runs on instance j mod cycle and at least one cycle runs.
    Traced, every pass runs on instance 0, untraced and then traced.  The host
    probe runs after every pass; returns the passes and each one's host-speed
    correction."""
    from tracing import PASS

    plain, traced, scales = [], [], []
    start = perf_counter()
    deadline = start + seconds
    min_passes = 1 if tracer is not None else wl.cycle
    j = 0
    while True:
        t0 = perf_counter()
        key = 0 if tracer is not None else j % wl.cycle
        plain.append(wl.run_pass(state, j, key))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(tracer.call(PASS, wl.run_pass, state, j, key))
            finally:
                tracer.uninstall()
        probe.measure()
        scales.append(probe.scale(len(probe.samples) - 2))
        j += 1
        if j >= min_passes and perf_counter() + (perf_counter() - t0) > deadline:
            return plain, traced, scales


def check_outputs(wl, passes, final_checks):
    """Gate ``correct``: benchmark-level checks pass, repeats reproduce, outputs finite."""
    problems = []
    for p in passes:
        for c in p.checks:
            if c.gates and not c.passed:
                problems.append(f"pass {p.index}: {c.name} failed: {c.detail}")
        for s in p.solves:
            if s.outcome == "converged" and not all(map(math.isfinite, s.x)):
                problems.append(f"pass {p.index}: {s.label} converged to a non-finite result")
    first = first_runs(passes)
    problems += repeat_mismatches([(first[p.key], p) for p in passes if first[p.key] is not p])
    problems += [f"{c.name} failed: {c.detail}" for c in final_checks if not c.passed]
    return problems


def first_runs(passes):
    """The first pass run on each instance, by instance key."""
    first = {}
    for p in passes:
        first.setdefault(p.key, p)
    return first


def repeat_mismatches(pairs):
    """Solves of two passes on the same inputs must agree exactly."""
    problems = []
    for p, q in pairs:
        for a, b in zip(p.solves, q.solves):
            same = a.outcome == b.outcome and a.iterations == b.iterations and (
                a.x is None or (b.x is not None and bool((a.x == b.x).all())))
            if not same:
                problems.append(f"pass {q.index}: {b.label} differs from an earlier "
                                f"run of pass {p.index}")
    return problems


def timings(passes, scales, setup_s, setup_scales):
    """Per-pass timing figures, each multiplied by its interval's host-speed
    correction (all 1.0 for the raw figures).  Each is a figure of the whole
    pass, so a pass of many small solves (certify-grid) weighs as much as one
    of a single large solve, and a median cannot flip between kinds of cell."""
    out = {"solve_s": [], "ms_per_iter": [], "solves_per_s": [], "pass_s": []}
    for p, c in zip(passes, scales):
        converged = [s for s in p.solves if s.outcome == "converged"]
        if not converged:
            raise RuntimeError(f"pass {p.index}: no solve converged, so solve_s is undefined")
        seconds = sum(s.seconds for s in converged)
        out["solve_s"].append(c * seconds / len(converged))
        out["ms_per_iter"].append(c * 1e3 * seconds / sum(s.iterations for s in converged))
        out["solves_per_s"].append(len(converged) / (c * p.seconds))
        out["pass_s"].append(c * p.seconds)
    out["setup_s"] = [c * t for t, c in zip(setup_s, setup_scales)]
    return out


def end_to_end(passes, scales, distinct, setup_s, setup_scales, failed_frac):
    """End-to-end metrics: host-speed-corrected medians, then the deterministic ones."""
    corrected = timings(passes, scales, setup_s, setup_scales)
    raw = timings(passes, [1.0] * len(passes), setup_s, [1.0] * len(setup_s))
    metrics = {k: statistics.median(v) for k, v in corrected.items()}
    metrics.update({
        "iterations": statistics.median(s.iterations for p in distinct for s in p.solves
                                        if s.iterations is not None),
        "ok_frac": 1.0 - failed_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    samples = {k: summary(v) for k, v in corrected.items()}
    samples["raw"] = {k: summary(v) for k, v in raw.items()}
    return metrics, samples


def run_workload(name, params, seed, seconds, trace, setups, probe_nominal_s):
    import hostspeed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](params)
    tracer = tracing.Tracer() if trace else None
    probe = hostspeed.HostProbe(probe_nominal_s)
    probe.measure()
    setup_s, setup_scales, state = [], [], None
    for k in range(setups):
        state = None  # release the previous instances before building new ones
        start = perf_counter()
        if tracer is None:
            state = wl.setup(seed)
        else:
            tracer.install()
            try:
                state = tracer.call(tracing.SETUP, wl.setup, seed)
            finally:
                tracer.uninstall()
        setup_s.append(perf_counter() - start)
        probe.measure()
        setup_scales.append(probe.scale(k))

    plain, traced, scales = run_passes(wl, state, seconds, probe, tracer)
    final_checks = wl.final_checks(state)
    # tracing must not change any result: each traced pass repeats its untraced twin
    problems = check_outputs(wl, plain, final_checks) + repeat_mismatches(zip(plain, traced))
    distinct = list(first_runs(plain).values())
    attempted = sum(p.ops for p in distinct) + len(final_checks)
    failed = sum(p.failures for p in distinct) + sum(not c.passed for c in final_checks)
    failed_frac = failed / attempted

    outcomes = Counter(s.outcome for p in distinct for s in p.solves)
    solves = [{"pass": p.index, "op": s.label, "outcome": s.outcome, "iterations": s.iterations,
               "seconds": s.seconds, "error": s.error} for p in distinct for s in p.solves]
    failed_checks = [{"pass": p.index, "op": c.name, "detail": c.detail}
                     for p in distinct for c in p.checks if not c.passed]
    # nmse is NaN when an instance's true signal is all zeros; leave those out
    nmse = statistics.median(s.nmse for p in distinct for s in p.solves
                             if s.outcome == "converged" and math.isfinite(s.nmse))
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "params": params, "passes": len(plain), "cycle": wl.cycle,
              "operations_run": sum(p.ops for p in plain + traced) + len(final_checks),
              "nmse": nmse, "failed_frac": failed_frac, "outcomes": dict(outcomes),
              "solves": solves,
              "failed_checks": failed_checks,
              "final_checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                               for c in final_checks],
              "problems": problems}
    if trace:
        solve_plain = [s.seconds for p in plain for s in p.solves if s.outcome == "converged"]
        solve_traced = [s.seconds for p in traced for s in p.solves if s.outcome == "converged"]
        overhead_solve = statistics.median(solve_traced) - statistics.median(solve_plain)
        overhead_pass = (statistics.median(p.seconds for p in traced)
                         - statistics.median(p.seconds for p in plain))
        metrics = tracer.layer_metrics(overhead_solve, overhead_pass, nmse)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_file)
        detail.update({"traced_passes": len(traced), "spans_file": str(spans_file.relative_to(ROOT)),
                       "samples": {"untraced_pass_s": summary(p.seconds for p in plain),
                                   "traced_pass_s": summary(p.seconds for p in traced)}})
    else:
        metrics, samples = end_to_end(plain, scales, distinct, setup_s, setup_scales,
                                      failed_frac)
        detail["samples"] = samples
    detail["host_probe"] = {"nominal_s": probe_nominal_s, **summary(probe.samples)}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def with_units(metrics, spec_metrics):
    return {k: {"value": metrics[k], "unit": spec_metrics[k]["unit"]} for k in spec_metrics}


def smoke(spec, setups):
    """Tiny run of every workload both ways; the metric names must match BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(spec["workloads"]):
        problems.append("BENCHMARK.json workloads differ from spec.json")
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in bench[section]}
        if list(listed) != list(spec[section]):
            problems.append(f"BENCHMARK.json {section} names differ from spec.json")
        for key, m in listed.items():
            doc = spec[section].get(key, {})
            if any(m.get(f) != doc.get(f) for f in m if f != "name"):
                problems.append(f"{section} {key}: BENCHMARK.json and spec.json disagree")
    for name, w in spec["workloads"].items():
        if {"name": name, "why": w["why"]} not in bench["workloads"]:
            problems.append(f"{name}: why differs from spec.json")
        params = {**w["params"], **w["smoke"]}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = run_workload(name, params, 0, 0.0, trace, setups,
                                          spec["host_probe_nominal_s"])
            names = [m["name"] for m in bench[section]]
            missing = [k for k in names if k not in result["metrics"]]
            bad = [k for k in names if k in result["metrics"]
                   and not math.isfinite(result["metrics"][k])]
            status = "ok" if not (missing or bad or detail["problems"]) else "FAIL"
            print(f"smoke {name} trace={trace}: {status} "
                  f"({len(names) - len(missing)}/{len(names)} metrics)", flush=True)
            problems += [f"{name} trace={trace}: {k} not emitted" for k in missing]
            problems += [f"{name} trace={trace}: {k} not finite" for k in bad]
            problems += [f"{name} trace={trace}: {p}" for p in detail["problems"]]
    print(json.dumps({"smoke": True, "ok": not problems, "problems": problems}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under python -O: glmamp's hot-path assert "
              "changes both behaviour and timing there", file=sys.stderr)
        return 2
    if not (SRC / "glmamp" / "__init__.py").is_file():
        print(f"error: no glmamp package under {SRC}; run from a glmamp checkout",
              file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import glmamp

    if Path(glmamp.__file__).resolve().parent != SRC / "glmamp":
        print(f"error: imported glmamp from {glmamp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    setups = spec["setups_per_run"]
    if args.smoke:
        return smoke(spec, setups)
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, spec["workloads"][args.workload]["params"],
                                  args.seed, args.seconds, args.trace, setups,
                                  spec["host_probe_nominal_s"])
    section = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = with_units(result["metrics"], spec[section])
    detail["environment"] = environment(nproc)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
