"""Smoke test of the benchmark: every workload and every check at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Takes about half a minute.  It also checks that the metrics the benchmark
prints are exactly the ones BENCHMARK.json declares, with the same units.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "sharpness", "diffuse", "operators")


def _run_all(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "1", "--size", "smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    return {m["name"]: m["unit"] for m in spec[section]}


def _check(result: dict, section: str) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{name}": unit for w in WORKLOADS
                for name, unit in _declared(section).items()}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected


def test_end_to_end_metrics():
    result = _run_all(0)
    _check(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics():
    result = _run_all(1)
    _check(result, "per_layer")
    value = {name: m["value"] for name, m in result["metrics"].items()}
    # counts per certificate that the sweep path fixes exactly
    assert value["sweep.inequalities.validate_per_cert"] == 2.0
    assert value["sweep.inequalities.certs"] == 204 * 2
    assert value["diffuse.diffusion.solve_calls"] == 100
    assert value["operators.operators.matrix_calls"] == 6
