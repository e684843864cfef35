"""Spans around the calls into glmamp's modules, recorded from outside the package.

``Tracer.install`` replaces each traced function wherever a glmamp module
binds it (several modules import these names at load time, and the engine
imports the channel posteriors inside its loop), and the ``denoise`` methods
of the prior classes and ``IterationTrace.append`` on their classes.  Each
call then records a span: name, start, end, parent span and root span.
``uninstall`` restores every original.  Spans stay in memory; ``write``
saves them when the run ends and ``layer_metrics`` derives the per-layer
numbers from their self times.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from glmamp import channels, cli, engine, gaussian, priors, slm, verify

PASS = "bench.pass"
SETUP = "bench.setup"


def _y_size(args):
    return int(np.size(args[1]))  # posterior_*(channel, y, belief)


def _r_size(args):
    return int(np.size(args[2]))  # denoise(self, mode, r, tau)


def _trace_stats(result):
    """(iterations, converged, diverged, Python floats held) of a solve's trace."""
    trace = result[1]
    floats = 0
    for rec in trace.records:
        for value in rec.values():
            floats += len(value) if isinstance(value, list) else isinstance(value, float)
    return len(trace), trace.converged, trace.diverged, floats


# (home module, function name, span name, element counter, result note)
FUNCTIONS = (
    (engine, "run_gamp", "engine.solve", None, _trace_stats),
    (engine, "run_modular", "engine.solve", None, _trace_stats),
    (slm, "slm_solve", "slm.slm_solve", None, None),
    (channels, "posterior_mmse", "channels.posterior_mmse", _y_size, None),
    (channels, "posterior_map", "channels.posterior_map", _y_size, None),
    (channels, "g_out_with_stats", "channels.g_out_with_stats", None, None),
    (channels, "awgn_g_out", "channels.awgn_g_out", None, None),
    (gaussian, "ep_extrinsic", "gaussian.ep_extrinsic", None, None),
    (verify, "check_laplace_identity", "verify.laplace", None, None),
    (verify, "check_derivatives", "verify.derivatives", None, None),
    (verify, "check_ep_bridge", "verify.bridge", None, None),
    (verify, "check_equivalence", "verify.equivalence", None, None),
    (cli, "generate_problem", "cli.generate_problem", None, None),
)

PRIOR_CLASSES = (priors.GaussianPrior, priors.BernoulliGaussianPrior, priors.LaplacePrior)
VALUE_CLASSES = (gaussian.GaussianBelief, gaussian.PosteriorStats, gaussian.ExtrinsicMessage)


def _denoise_name(args):
    prior, mode = args[0], args[1]
    return f"priors.{prior.name}.{mode.value}.denoise"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    root: int
    elems: int = 0
    note: tuple | None = None


class Tracer:
    """Records spans and value-object counts while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.value_objects = Counter()  # root span id -> constructions
        self._stack: list[tuple[int, int]] = []  # (span id, root span id)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        parent, root = self._stack[-1] if self._stack else (-1, sid)
        self.spans.append(None)
        self._stack.append((sid, root))
        return sid, parent, root

    def _traced(self, fn, name, elems=None, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, root = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name(args) if callable(name) else name, start, end,
                                       parent, root, elems(args) if elems else 0)
            if note is not None:
                self.spans[sid].note = note(result)
            return result
        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a benchmark-level span (a pass or a set-up)."""
        return self._traced(fn, name)(*args)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "glmamp" or n.startswith("glmamp.")]
        for home, fname, span, elems, note in FUNCTIONS:
            orig = getattr(home, fname)
            wrapper = self._traced(orig, span, elems, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        for cls in PRIOR_CLASSES:
            self._patch(cls, "denoise", self._traced(cls.denoise, _denoise_name, _r_size))
        self._patch(engine.IterationTrace, "append",
                    self._traced(engine.IterationTrace.append, "engine.trace_append"))
        for cls in VALUE_CLASSES:
            self._patch(cls, "__post_init__", self._counting(cls.__post_init__))

    def _counting(self, post_init):
        def counted(obj):
            self.value_objects[self._stack[0][1] if self._stack else -1] += 1
            post_init(obj)
        return counted

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "root": s.root, "elems": s.elems,
                                     "note": s.note}) + "\n")

    def layer_metrics(self, overhead_solve_s, overhead_pass_s, nmse):
        """Per-layer metrics, per traced pass (``cli.generate_problem_s`` per set-up)."""
        selfs = self.self_times()
        roots = {sid: s.name for sid, s in enumerate(self.spans) if s.parent < 0}
        n_pass = max(1, sum(1 for name in roots.values() if name == PASS))
        n_setup = max(1, sum(1 for name in roots.values() if name == SETUP))
        busy, calls, elems = Counter(), Counter(), Counter()
        setup_generate = 0.0
        iters = floats = unconverged = spans = 0
        for s, t in zip(self.spans, selfs):
            if roots[s.root] == SETUP:
                if s.name == "cli.generate_problem":
                    setup_generate += t
                continue
            spans += 1
            busy[s.name] += t
            calls[s.name] += 1
            elems[s.name] += s.elems
            if s.name == "engine.solve" and s.note is not None:
                it, converged, diverged, held = s.note
                iters += it
                floats += held
                unconverged += not converged and not diverged

        def per_pass(x):
            return x / n_pass

        def ns_per_elem(names):
            n = sum(elems[k] for k in names)
            return 1e9 * sum(busy[k] for k in names) / n if n else 0.0

        m = {
            "engine.self_s": per_pass(busy["engine.solve"]),
            "engine.trace_append_s": per_pass(busy["engine.trace_append"]),
            "engine.trace_append_calls": per_pass(calls["engine.trace_append"]),
            "engine.trace_floats": per_pass(floats),
            "engine.iterations": per_pass(iters),
            "engine.unconverged": per_pass(unconverged),
            "engine.nmse": nmse,
            "slm.slm_solve_s": per_pass(busy["slm.slm_solve"]),
            "slm.slm_solve_calls": per_pass(calls["slm.slm_solve"]),
            "slm.ms_per_call": (1e3 * busy["slm.slm_solve"] / calls["slm.slm_solve"]
                                if calls["slm.slm_solve"] else 0.0),
            "channels.g_out_self_s": per_pass(busy["channels.g_out_with_stats"]),
            "channels.awgn_g_out_s": per_pass(busy["channels.awgn_g_out"]),
            "gaussian.ep_extrinsic_s": per_pass(busy["gaussian.ep_extrinsic"]),
            "gaussian.ep_extrinsic_calls": per_pass(calls["gaussian.ep_extrinsic"]),
            "gaussian.value_objects": per_pass(sum(n for r, n in self.value_objects.items()
                                                   if roots.get(r) == PASS)),
            "cli.generate_problem_s": setup_generate / n_setup,
            "trace.overhead_solve_s": overhead_solve_s,
            "trace.overhead_pass_s": overhead_pass_s,
            "trace.spans": per_pass(spans),
        }
        for post in ("posterior_mmse", "posterior_map"):
            name = f"channels.{post}"
            m[f"{name}_s"] = per_pass(busy[name])
            m[f"{name}_calls"] = per_pass(calls[name])
            m[f"{name}_ns_per_elem"] = ns_per_elem([name])
        for check in ("laplace", "bridge", "derivatives", "equivalence"):
            m[f"verify.{check}_s"] = per_pass(busy[f"verify.{check}"])
        denoisers = []
        for cls in PRIOR_CLASSES:
            for mode in ("mmse", "map"):
                name = f"priors.{cls.name}.{mode}.denoise"
                denoisers.append(name)
                m[f"{name}_s"] = per_pass(busy[name])
                m[f"{name}_ns_per_elem"] = ns_per_elem([name])
        m["priors.denoise_s"] = per_pass(sum(busy[k] for k in denoisers))
        m["priors.denoise_ns_per_elem"] = ns_per_elem(denoisers)
        return m

