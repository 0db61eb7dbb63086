"""The names perfbench wraps or reads must keep resolving against this sbnn.
`perfbench/run.py --trace 1` crashes on a missing trace target, and its
per-layer popcount metrics divide by the time spent in
`_kernels.and_popcount_matmat`. Every run, traced or not, also records
`_kernels.BACKEND`, reads `OpsCounters.gather_ops` and calls `infer` with
`workers=`. The perfbench modules are loaded read-only."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from sbnn import engine, nn
from sbnn.binquant import ValidationError
from sbnn.train import quantize_network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# what perfbench/run.py sets with os.environ.setdefault when it loads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", PERFBENCH / "tracing.py")


@pytest.fixture
def run(monkeypatch):
    """perfbench/run.py. The BLAS variables are set through monkeypatch
    first, so its setdefaults change nothing and later tests see the
    environment as it was."""
    for v in BLAS_VARS:
        monkeypatch.setenv(v, os.environ.get(v, "1"))
    monkeypatch.delenv("SBNN_THREADS", raising=False)
    module = _load("perfbench_run", PERFBENCH / "run.py")
    assert set(module.BLAS_VARS) <= set(BLAS_VARS)
    return module


def _model_and_images():
    spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8)
    net = nn.Network(spec, np.random.default_rng(0))
    model = quantize_network(net, (1, 8, 8), 2)
    return model, np.random.default_rng(1).normal(size=(4, 1, 8, 8))


def test_every_trace_target_resolves(tracing):
    assert tracing.TARGETS
    for module, path, _, _ in tracing.TARGETS:
        _, _, raw = tracing._resolve(module, path)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert callable(fn), f"{module}.{path}"


@pytest.mark.parametrize("skip", [True, False])
def test_infer_calls_and_popcount_matmat(tracing, skip):
    model, images = _model_and_images()
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


def test_names_read_outside_the_tracer(run):
    assert run.environment(1)["backend"] == "numpy"
    assert engine.OpsCounters().gather_ops == 0
    model, images = _model_and_images()
    logits, counters = engine.infer(model, images, workers=None)
    assert logits.shape == (4, 2) and counters.gather_ops == 0
    with pytest.raises(ValidationError, match="calling thread"):
        engine.infer(model, images, workers=2)
