#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at smoke size (a few seconds each), untraced and
traced, and checks:

* the result line has exactly the keys correct/attempted/failed/metrics,
  the run is correct and nothing failed;
* every metric BENCHMARK.json names appears with its unit and a finite
  value, and every end-to-end value is positive;
* the traced train-small breakdown closes: core.forward_ms +
  core.backward_ms + core.optimizer_ms + core.unattributed_ms equals the
  train/step wall time core.step_ms, with a non-negative unattributed part;
* sparse.spmm_ms is 0 on train-small and positive on train-city, and
  serve-hot answers every timed request from the cache while
  serve-uncached never consults it;
* in a directory that holds only BENCHMARK.json and the benchmark's files
  the benchmark exits non-zero without printing a result.

Exits non-zero on the first failed expectation.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(workload, trace, root=ROOT):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "2",
               "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=900)


def result_of(workload, trace):
    done = run(workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}:\n"
             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {lines[-1][:300]}")
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in table}:
        fail(f"{workload}: metric names differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ {m['name'] for m in table})}")
    for spec in table:
        got = metrics[spec["name"]]
        if got["unit"] != spec["unit"] or not math.isfinite(got["value"]):
            fail(f"{workload}: {spec['name']} = {got}")
        if not trace and got["value"] <= 0:
            fail(f"{workload}: end-to-end {spec['name']} is not positive")
    return {name: m["value"] for name, m in metrics.items()}


def check_empty_directory():
    scratch = os.path.join(ROOT, ".bench_build", "smoke-empty")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(scratch, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run("train-small", 0, root=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("benchmark produced a result without the library sources")


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        result_of(workload, 0)
        layers = result_of(workload, 1)
        if workload == "train-small":
            parts = (layers["core.forward_ms"] + layers["core.backward_ms"] +
                     layers["core.optimizer_ms"] +
                     layers["core.unattributed_ms"])
            if abs(parts - layers["core.step_ms"]) > \
                    1e-6 * layers["core.step_ms"] or \
                    layers["core.unattributed_ms"] < 0 or \
                    layers["core.step_ms"] <= 0:
                fail(f"train-small breakdown does not close: {layers}")
            if layers["sparse.spmm_ms"] != 0:
                fail("train-small ran the sparse path")
        if workload == "train-city" and layers["sparse.spmm_ms"] <= 0:
            fail("train-city did not run the sparse path")
        if workload == "serve-hot" and layers["serve.cache_hit_ratio"] != 1.0:
            fail("serve-hot missed the cache")
        if workload == "serve-uncached" and \
                layers["serve.cache_hit_ratio"] != 0.0:
            fail("serve-uncached hit the cache")
        print(f"ok {workload}")
    check_empty_directory()
    print("ok empty directory")
    print("PASS")


if __name__ == "__main__":
    main()
