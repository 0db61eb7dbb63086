"""The names perfbench/tracing.py wraps must keep resolving against this
sbnn: `perfbench/run.py --trace 1` crashes on a missing one, and its
per-layer popcount metrics divide by the time spent in
`_kernels.and_popcount_matmat`. The tracer module is loaded read-only."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sbnn import engine, nn
from sbnn.train import quantize_network

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tracing):
    assert tracing.TARGETS
    for module, path, _, _ in tracing.TARGETS:
        _, _, raw = tracing._resolve(module, path)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert callable(fn), f"{module}.{path}"


@pytest.mark.parametrize("skip", [True, False])
def test_infer_calls_and_popcount_matmat(tracing, skip):
    spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8)
    net = nn.Network(spec, np.random.default_rng(0))
    model = quantize_network(net, (1, 8, 8), 2)
    images = np.random.default_rng(1).normal(size=(4, 1, 8, 8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        engine.infer(model, images, skip=skip)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "engine.infer" in names
    assert "_kernels.and_popcount_matmat" in names
    # each batch packs its activations through engine.pack, so the per-layer
    # packing metrics see the per-batch work, not only the one-off weights
    assert any(
        span[0] == "engine.pack" and span[3] >= 0 and names[span[3]] == "engine.BinStage.forward"
        for span in tracer.spans
    )
