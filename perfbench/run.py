#!/usr/bin/env python3
"""Build the GraphABCD benchmark from source and run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload pr-social --seed 1 --seconds 30 --trace 0

It configures and builds perfbench/ (which compiles ../src) into the
directory named by CARGO_TARGET_DIR, default .bench_build, runs the
oracle self-test, prints a provenance header, runs the workload in its
own process and prints that process's result object as the last line.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE)
WORKLOADS = ("pr-social", "serve-mix")
BUILD_TYPE = "RelWithDebInfo"
# A workload must finish well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt here; run from the root of a source tree")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "abcd_perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "abcd_perfbench")


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cpu_model():
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = []
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return "unknown"
    for idx in entries:
        d = os.path.join(base, idx)
        level, kind, size = (read(os.path.join(d, f)) for f in
                             ("level", "type", "size"))
        if level and size:
            out.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"
                       f"={size}")
    return " ".join(out) or "unknown"


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            return "git " + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for root in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "not a git checkout; sha256 of src/ and perfbench/ " + \
        digest.hexdigest()[:16]


def result_line(raw, traced):
    """The result object of a run, built from the workload's raw line.

    BENCHMARK.json is the one list of metric names and units.  A traced
    run reports the per-layer metrics, an untraced run the end-to-end
    ones; the other mode's figures are dropped.  An end-to-end metric
    the workload did not measure is an error; a per-layer metric of a
    layer the workload does not run reads 0.
    """
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = raw["values"]
    unknown = sorted(set(values) - set(units) - set(layer_units))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    if traced:
        units = layer_units
    else:
        missing = sorted(set(units) - set(values))
        if missing:
            fail(f"end-to-end metrics not measured: {missing}")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, 0)
        if not isinstance(value, (int, float)):
            fail(f"metric {name} has no numeric value")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(build_dir, "perfbench"))
    data_dir = os.path.join(build_dir, "perfbench-data")
    os.makedirs(data_dir, exist_ok=True)

    selftest = subprocess.run([binary, "--selftest"], capture_output=True,
                              text=True, timeout=60)
    if selftest.returncode:
        sys.stderr.write(selftest.stdout)
        fail("oracle self-test failed")

    print(f"host: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"caches: {cache_sizes()}")
    print(f"source: {source_identity()}")
    print(f"seeds: workload seed {args.seed}; inputs, sources and client "
          f"draws derive from it")
    print("oracle self-test: passed")
    sys.stdout.flush()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", data_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line:
                if last:
                    print(last)
                last = line
    except BaseException:
        proc.kill()
        raise
    finally:
        # At end of output the workload exits, or the watchdog kills it.
        proc.wait()
        watchdog.cancel()
    if proc.returncode:
        fail(f"workload exited with {proc.returncode}")

    try:
        raw = json.loads(last)
    except json.JSONDecodeError:
        fail("no result object on the last line: " + last[:200])
    result = result_line(raw, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
