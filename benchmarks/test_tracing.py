"""Tests of the benchmark's tracer: run with ``python -m pytest benchmarks``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from glmamp import channels, engine, priors, verify  # noqa: E402
from glmamp.channels import Mode, ProbitChannel  # noqa: E402
from glmamp.gaussian import GaussianBelief  # noqa: E402


def test_uninstall_restores_every_binding():
    before = (engine.g_out_with_stats, verify.posterior_map, channels.posterior_mmse,
              priors.LaplacePrior.denoise, engine.IterationTrace.append)
    tracer = tracing.Tracer()
    tracer.install()
    assert engine.g_out_with_stats is not before[0]
    assert verify.posterior_map is not before[1]
    tracer.uninstall()
    after = (engine.g_out_with_stats, verify.posterior_map, channels.posterior_mmse,
             priors.LaplacePrior.denoise, engine.IterationTrace.append)
    assert all(a is b for a, b in zip(before, after))


def test_nested_spans_give_self_times_and_element_counts():
    tracer = tracing.Tracer()
    belief = GaussianBelief(np.zeros(5), np.ones(5))
    y = np.ones(5)
    tracer.install()
    try:
        tracer.call(tracing.PASS, channels.g_out_with_stats, ProbitChannel(), Mode.SUM_PRODUCT,
                    y, belief)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    # g_out -> posterior_mmse -> posterior_map (the Laplace centre of the quadrature)
    assert names[:4] == [tracing.PASS, "channels.g_out_with_stats",
                         "channels.posterior_mmse", "channels.posterior_map"]
    assert [s.parent for s in tracer.spans[:4]] == [-1, 0, 1, 2]
    assert tracer.spans[2].elems == 5
    selfs = tracer.self_times()
    total = tracer.spans[0].end - tracer.spans[0].start
    assert all(t >= 0 for t in selfs)
    assert abs(sum(selfs) - total) < 1e-9
    m = tracer.layer_metrics(0.0, 0.0, float("nan"))
    assert m["channels.posterior_mmse_calls"] == 1
    assert m["gaussian.value_objects"] > 0
