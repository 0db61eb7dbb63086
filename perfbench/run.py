"""End-to-end and per-module benchmark of the sbnn pipeline.

    python3 perfbench/run.py --workload sparse16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sbnn is imported from its `src/`. Prints
one `name value unit` line per metric, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The full
record (environment, workload validity, metrics and, when traced, every
span) goes to perfbench/out/<workload>-seed<seed>-trace<0|1>.json.

Exit codes: 0 every check passed, 1 a check failed (the result still
prints), 2 bad arguments or environment, or no sbnn under src/.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# with a BLAS thread on each core of a 2-core host, every matmul waits for
# the slower core, and numpy-heavy steps spread far more from run to run
# (README.md, "Load model and environment").
for _v in BLAS_VARS:
    os.environ.setdefault(_v, "1")
# the keys of workloads.WORKLOADS, which can only be imported once
# load_program() has put sbnn on the path
WORKLOAD_NAMES = ("desk-train", "sparse16", "dense-wide")


class SetupError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def load_program():
    """Put the checkout's src/ first on the import path and import sbnn
    from there, never from anywhere else."""
    if not (SRC / "sbnn" / "__init__.py").is_file():
        raise SetupError(f"no sbnn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import sbnn
    except (ImportError, RuntimeError) as exc:  # _kernels rejects a bad SBNN_BACKEND
        raise SetupError(f"cannot import sbnn: {exc}") from exc
    if Path(sbnn.__file__).resolve().parent != (SRC / "sbnn").resolve():
        raise SetupError(f"sbnn imported from {sbnn.__file__}, not {SRC}")


def environment(seed):
    """What the numbers depend on besides the code. Refuses SBNN_THREADS
    above the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    threads = os.environ.get("SBNN_THREADS", "").strip()
    if threads:
        try:
            n = int(threads)
        except ValueError:
            raise SetupError(f"SBNN_THREADS={threads!r} is not an integer") from None
        if n > nproc:
            raise SetupError(f"SBNN_THREADS={n} exceeds nproc={nproc}")
    import numpy

    from sbnn import _kernels

    return {
        "backend": _kernels.BACKEND,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": nproc,
        **{v: os.environ.get(v) for v in ("SBNN_THREADS", "SBNN_BACKEND") + BLAS_VARS},
        "seed": seed,
    }


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def report(run, env, expected_names, out_file=None):
    """Print the metric lines and the final JSON line; return the exit code."""
    checks = run.checks
    print("# env " + json.dumps(env, sort_keys=True))
    print("# workload " + json.dumps(run.records, sort_keys=True))
    for what in checks.failures:
        print(f"FAILED: {what}")
    for name, (value, unit) in sorted(run.metrics.items()):
        print(f"{name} {value!r} {unit}")
    print(f"ops_attempted {checks.attempted} count")
    print(f"ops_failed {checks.failed} count")
    chosen = {n: run.metrics[n] for n in expected_names if n in run.metrics}
    missing = sorted(set(expected_names) - set(chosen))
    for name in missing:
        print(f"MISSING: {name}")
    correct = checks.failed == 0 and not missing
    if out_file is not None:
        record = {
            "env": env,
            "workload": run.records,
            "failures": checks.failures,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in run.metrics.items()},
            "seconds": run.times,
        }
        if run.tracer:
            record["trace"] = run.tracer.to_json()
        out_file.write_text(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
            }
        )
    )
    return 0 if correct else 1


def expected_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse(argv)
    try:
        load_program()
        env = environment(args.seed)
        names = expected_metrics(args.trace)
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import pipeline
    import workloads

    run = pipeline.Run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    run.execute(import_s=perf_counter() - _T0)
    out_file = pipeline.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    return report(run, env, names, out_file)


if __name__ == "__main__":
    raise SystemExit(main())
