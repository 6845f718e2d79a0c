"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload sweep --seed 1 --size full \
        --trace 0 --spawned <time.monotonic() just before the spawn>

A fresh interpreter per repetition means the operator cache starts cold and
the peak RSS belongs to this repetition alone.  Prints one JSON line: set-up
and wall time, peak RSS, the check counts, provenance and, when traced, the
per-layer sums.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = setup(args.seed, workloads.SIZES[args.size][args.workload])
    setup_s = time.monotonic() - args.spawned
    setup_stats = tracer.take() if tracer else None

    t0 = time.perf_counter()
    result = run(inputs)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer:
        layers = tracing.layer_metrics(setup_stats, tracer.take())
        tracer.uninstall()

    attempted, failed, ops = check(inputs, result)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "provenance": _provenance(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
