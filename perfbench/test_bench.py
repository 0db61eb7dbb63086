"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_program()

import pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sbnn import engine, modelio  # noqa: E402

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(name, trace=False):
    r = pipeline.Run(workloads.WORKLOADS[name].tiny(), seed=3, seconds=0.0, trace=trace)
    r.execute(import_s=0.0)
    return r


def report(r, trace, capsys):
    code = run.report(r, {"seed": 3}, run.expected_metrics(trace))
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    r = tiny_run(name, trace=bool(trace))
    code, lines, result = report(r, trace, capsys)
    assert code == 0 and result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
            for line in lines
        ), m["name"]
    assert any(line.startswith("ops_attempted ") for line in lines)
    assert any(line == "ops_failed 0 count" for line in lines)
    if trace:
        spans = r.tracer.to_json()["spans"]
        seen = {s["name"] for s in spans}
        listed = {f"{m.removeprefix('sbnn.')}.{p}" for m, p, _, _ in tracing.TARGETS}
        # no workload model has a pool stage
        assert listed - seen == {"engine.BitPool.forward"}
        assert all(s["self"] >= 0.0 for s in spans)


def test_perturbed_logit_is_counted_as_failed(monkeypatch, capsys):
    real = engine.infer

    def perturbed(model, images, skip=True, workers=None):
        logits, counters = real(model, images, skip=skip, workers=workers)
        if not skip:
            logits = logits.copy()
            logits[0, 0] = np.nextafter(logits[0, 0], np.inf)
        return logits, counters

    monkeypatch.setattr(engine, "infer", perturbed)
    r = tiny_run("sparse16")
    code, lines, result = report(r, 0, capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] == r.checks.failed > 0
    assert all("off logits" in f for f in r.checks.failures)
    assert f"ops_failed {r.checks.failed} count" in lines


def test_corrupted_saved_byte_is_counted_as_failed(monkeypatch, capsys):
    real = modelio.save_model

    def corrupting(path, model):
        real(path, model)
        data = bytearray(Path(path).read_bytes())
        data[len(data) // 2] ^= 0x10
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(modelio, "save_model", corrupting)
    r = tiny_run("dense-wide")
    code, lines, result = report(r, 0, capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] > 0
    assert all(f.startswith("load: ") for f in r.checks.failures)


def _cli(cwd, **env):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd,
        env={**os.environ, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    p = _cli(tmp_path)
    assert p.returncode == 2 and p.stdout == ""
    assert "no sbnn package" in p.stderr


def test_refuses_more_engine_threads_than_cores():
    p = _cli(run.HERE.parent, SBNN_THREADS=str(len(os.sched_getaffinity(0)) + 1))
    assert p.returncode == 2 and p.stdout == ""
    assert "exceeds nproc" in p.stderr
