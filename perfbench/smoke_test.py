#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of liod).

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size (20k keys, 1 s) through run.py in both
modes and asserts the result object's shape: the oracle passed, nothing
failed, and the metrics are exactly the ones BENCHMARK.json lists for the
mode. Then it reruns each workload with deliberately corrupted expected
answers and asserts that the run fails. Exits 0 when all checks pass.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("served_lookup", "served_update_wal", "embedded_scan_pgm")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--keys", "20000", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    result = json.loads(last) if last.startswith("{") else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, result = run(workload, trace)
            what = f"{workload} --trace {trace}"
            check(rc == 0 and result is not None, f"{what}: exit 0 with a result")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result has exactly the four keys")
            check(result["correct"] is True, f"{what}: oracle passed")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{what}: attempted >= 1, failed == 0")
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == want, f"{what}: metric names and units match BENCHMARK.json")
            check(all(isinstance(v.get("value"), (int, float)) for v in result["metrics"].values()),
                  f"{what}: every metric has a numeric value")
        rc, result = run(workload, 0, "--corrupt-oracle")
        check(rc != 0 and (result is None or result["correct"] is False),
              f"{workload}: a corrupted expected answer fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
