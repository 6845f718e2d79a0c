"""fracineq benchmark: four closed-loop workloads, one client, one BLAS thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs the workload again and again, each repetition in a fresh interpreter
(``worker.py``), until the next one would overrun ``--seconds``; every
repetition checks its own outputs after its timed region.  With ``--trace 0``
it reports the median of each end-to-end metric over the repetitions; with
``--trace 1`` it makes one traced repetition for the per-layer metrics and
untraced ones for the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "sharpness", "diffuse", "operators")
#: end-to-end metrics, each the median over the repetitions of a worker field
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: a repetition that has not finished by then counts as crashed
REP_TIMEOUT_S = 150.0


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    cache = "/sys/devices/system/cpu/cpu0/cache"
    levels = {}
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        if index.startswith("index"):
            level = _read(f"{cache}/{index}/level")
            kind = _read(f"{cache}/{index}/type")
            if kind != "Instruction":
                levels[f"L{level}"] = _read(f"{cache}/{index}/size")
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {"cpu": model, "machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "caches": levels}


def spawn(workload: str, seed: int, size: str, trace: int) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(trace),
           "--spawned", repr(time.monotonic())]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {REP_TIMEOUT_S:.0f} s",
                "elapsed": time.monotonic() - t0}
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": f"exit {proc.returncode}: {tail[0]}", "elapsed": elapsed}
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed"] = elapsed
    return rep


def measure(workload: str, seed: int, seconds: float, size: str, trace: int) -> dict:
    """Repeat the workload for ``seconds`` and aggregate; returns the result object."""
    start = time.monotonic()
    reps = []
    traced = spawn(workload, seed, size, 1) if trace else None
    while True:
        reps.append(spawn(workload, seed, size, 0))
        longest = max(r["elapsed"] for r in reps)
        if time.monotonic() - start + longest > seconds:
            break
    done = [r for r in reps + [traced] if r and "crashed" not in r]
    crashed = [r for r in reps + [traced] if r and "crashed" in r]
    for r in crashed:
        print(f"{workload}: repetition crashed: {r['crashed']}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in done) + len(crashed)
    failed = sum(r["failed"] for r in done) + len(crashed)

    untraced = [r for r in reps if "crashed" not in r]
    if not untraced or (trace and "crashed" in traced):
        raise SystemExit(f"{workload}: no repetition completed")
    wall = statistics.median(r["wall_s"] for r in untraced)
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_frac"] = {"value": (traced["wall_s"] - wall) / wall,
                                          "unit": "ratio"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{workload}: {len(untraced)} untraced repetitions"
          + (" + 1 traced" if trace else "")
          + f", failed_frac {failed / attempted:.3g} ({failed}/{attempted}), "
          + f"ops_per_s {untraced[0]['ops'] / wall:.6g}, "
          + "wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in untraced))
    print(f"provenance {json.dumps({**machine(), **done[0]['provenance']})}")
    for name, m in metrics.items():
        print(f"  {workload} {name:32s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for a seconds-long check")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fracineq", "__init__.py")):
        print(f"error: no fracineq sources under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.size, args.trace)
    else:
        parts = {w: measure(w, args.seed, args.seconds, args.size, args.trace)
                 for w in WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{name}": m for w, p in parts.items()
                        for name, m in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
