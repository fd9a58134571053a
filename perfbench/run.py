#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles the library from
src/) into .bench_build/; later calls rebuild only what changed. Build output
goes to stderr; the benchmark's report goes to stdout and its last line is one
JSON object with the keys correct, attempted, failed and metrics. The metric
names are checked against BENCHMARK.json before that line is printed. With
--trace 1 the traced pass's spans are written as Chrome JSON under
.bench_build/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_live", "ingest_repair", "analytics_static")


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= a.seconds <= 600:
        fail("--seconds must be in [1, 600]")
    return a


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "pushpull.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    a = parse_args()
    expected = expected_metrics(a.trace)
    binary = build()
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, "%s_seed%d.json" % (a.workload, a.seed))]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       cwd=ROOT, text=True)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(r.stdout)
        fail("benchmark printed no result (exit %d)" % r.returncode, r.returncode or 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(expected.items())))
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
