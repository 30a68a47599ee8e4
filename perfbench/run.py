"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced pass and prints every per-layer metric,
and writes the spans to ``.perfbench_out/``. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the environment and how each figure was taken.

The library is imported from ``src/`` of the working directory; the run
exits non-zero, printing no result, when that tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("dense-wide", "banded-ooc", "region-queries"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's smoke tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def isolate_environment(tmp: Path) -> dict:
    """Point every piece of persistent library state into *tmp*.

    Must run before numpy is imported: the BLAS thread count is read at
    import. Each engine worker gets one BLAS thread, so workers × BLAS
    threads never exceeds the core count.
    """
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_POOL_STATE"] = str(tmp / "pools.json")
    os.environ["REPRO_RUNS_PATH"] = str(tmp / "runs.jsonl")
    os.environ["REPRO_TUNING_PROFILE"] = str(tmp / "tuning.json")
    os.environ.pop("REPRO_LIVE", None)
    os.environ["TMPDIR"] = str(tmp)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return {"blas_threads": 1}


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    shared memory, so the run leaves no process behind. ``_stop`` is
    private; interpreters without it leave the tracker to exit with us.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"error: no library source at {src}/repro; run from the root of "
            "a checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    tmp = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    env = isolate_environment(tmp)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import numpy as np
    import repro
    import workloads
    from repro.core.executors import stop_pools

    workload = None
    try:
        if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
            print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, tmp)
        env.update(
            nproc=os.cpu_count(),
            numpy=np.__version__,
            executor=workload.executor,
            workers=workload.n_workers,
            workload=args.workload,
            seed=args.seed,
            scale=args.scale,
            shape=workload.shape,
        )
        if args.trace:
            trace_file = (
                root / ".perfbench_out"
                / f"trace-{args.workload}-seed{args.seed}.jsonl"
            )
            metrics, notes = workloads.run_traced(workload, args.seconds, trace_file)
            names = spec["per_layer"]
        else:
            metrics, notes = workloads.run_untraced(workload, args.seconds)
            names = spec["end_to_end"]
    finally:
        if workload is not None:
            workload.close()
        stop_pools()
        stop_resource_tracker()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            tmp.parent.rmdir()

    expected = {m["name"] for m in names}
    if set(metrics) != expected:
        print(
            f"error: metrics {sorted(set(metrics) ^ expected)} do not match "
            "BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    print(json.dumps({"env": env}))
    print(json.dumps({"notes": notes}))
    result = {
        "correct": notes["failed"] == 0,
        "attempted": notes["attempted"],
        "failed": notes["failed"],
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
