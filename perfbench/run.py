#!/usr/bin/env python3
"""Builds and runs the jslice repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_unique --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the jslice libraries,
jslice_serve and the perfbench program, compiled from this checkout's
sources) into .bench_build/perfbench; later runs only rebuild what
changed. The last line printed is the JSON result. Spans, provenance and
count digests are kept under .bench_build/results. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold_unique", "zipf_hot", "batch_large")
BUILD_TYPE = "RelWithDebInfo"
RUN_LIMIT_S = 175     # every run but a building one
BUILD_RUN_LIMIT_S = 890


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, bench_dir, build_dir, log_path):
    """Configures (once) and builds; returns True when a build ran."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    with open(log_path, "a") as log:
        if not configured:
            rc = subprocess.call(
                ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                stdout=log, stderr=subprocess.STDOUT, cwd=root,
                stdin=subprocess.DEVNULL)
            if rc != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("configure failed (see %s)" % log_path)
        rc = subprocess.call(
            ["cmake", "--build", build_dir, "-j", jobs,
             "--target", "perfbench", "jslice_serve"],
            stdout=log, stderr=subprocess.STDOUT, cwd=root,
            stdin=subprocess.DEVNULL)
        if rc != 0:
            fail("build failed (see %s)" % log_path)
    return not configured


def git_commit(root):
    """HEAD when the checkout is a git repository, else "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             stdin=subprocess.DEVNULL)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def sources_digest(root):
    """A digest of every source the benchmark compiles."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def wanted_metrics(root, trace):
    """(name, unit) of every metric BENCHMARK.json asks this run for."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def narrow_result(line, wanted):
    """The result line with exactly the wanted metrics, or an error."""
    try:
        r = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed",
                                             "metrics"}:
        return None, "result keys are not correct/attempted/failed/metrics"
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        return None, "attempted must be a whole number >= 1"
    if not isinstance(r["failed"], int) or r["failed"] < 0:
        return None, "failed must be a whole number"
    metrics = {}
    for name, unit in wanted:
        m = r["metrics"].get(name)
        if m is None:
            return None, "metric %s was not measured" % name
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            return None, "metric %s is malformed or has the wrong unit" % name
        metrics[name] = {"value": m["value"], "unit": unit}
    r["metrics"] = metrics
    return r, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    start = time.monotonic()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    state = os.path.join(root, ".bench_build")
    build_dir = os.path.join(state, "perfbench")
    built = build(root, bench_dir, build_dir, os.path.join(state, "build.log"))

    work = os.path.join(state, "work", "%s-%d-%d-%d" % (
        a.workload, a.seed, a.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--serve-bin", os.path.join(build_dir, "jslice_serve"),
           "--work-dir", work,
           "--out-dir", os.path.join(state, "results"),
           "--commit", git_commit(root),
           "--sources", sources_digest(root)]
    limit = (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - start)
    # Its own process group, so a timeout takes the server down with it.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(limit, 30))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded its time limit", 3)
    try:  # Anything perfbench left behind in its group.
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    shutil.rmtree(work, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("benchmark printed nothing (exit %d)" % proc.returncode, 1)
    result, err = narrow_result(lines[-1], wanted_metrics(root, a.trace))
    if err:
        fail(err, 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
