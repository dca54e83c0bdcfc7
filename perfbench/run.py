#!/usr/bin/env python3
"""liod's measured benchmark: one run of one workload.

    python3 perfbench/run.py --workload served_lookup --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds perfbench/ (the liod library
from src/ plus the harness in bench.cc) as a Release build under
$CARGO_TARGET_DIR (default .bench_build), runs the harness in a fresh work
directory under .bench_tmp/ that it removes afterwards, and prints the
harness's report, a host fingerprint, and -- as the last line of stdout -- one
JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes the harness's spans to .bench_out/<workload>.spans.csv).

Exit status: 0 when every answer was right; 1 on a wrong answer or a lost
write; 2 on bad usage or missing sources; 3 when the build or the run failed.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("served_lookup", "served_update_wal", "embedded_scan_pgm")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"liod sources not found under {ROOT}/src")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch inside the checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "liod_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail(3, "build failed: " + " ".join(step))
    return os.path.join(build_dir, "liod_perfbench")


def source_digest():
    """sha256 over src/ (paths and contents): identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint(report):
    governor = "unreadable"
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            governor = f.read().strip()
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    build = re.search(r"^build: (\S+), compiler (.+)$", report, re.M)
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "cpu_governor": governor,
        "build_type": build.group(1) if build else "unknown",
        "compiler": build.group(2) if build else "unknown",
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smoke-test knobs: a smaller dataset, and deliberately wrong expected
    # answers (the run must then fail).
    parser.add_argument("--keys", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    binary = build()
    work_dir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-s{args.seed}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, f"{args.workload}.spans.csv")]
    if args.keys:
        cmd += ["--keys", str(args.keys)]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")

    try:
        # Relative work paths keep the server's unix socket path short.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))  # only when no other run uses it
        except OSError:
            pass

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(proc.returncode or 3, f"harness exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    report = "\n".join(lines[:-1])
    print(report)
    print("host: " + json.dumps(host_fingerprint(report), sort_keys=True))

    names = expected_metrics(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail(3, f"harness metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(names)}")
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
