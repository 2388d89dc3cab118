#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload kiel-r10-long --seed 1 \
        --seconds 12 --trace 0

Run from the root of a checkout. The benchmark is compiled from source
into $CARGO_TARGET_DIR (default .bench_build) under the checkout; build
output goes to stderr. The benchmark's own output is passed through, and
its last line is one JSON object with the keys correct, attempted, failed
and metrics. Exits non-zero, without a result line, when the build or the
run fails, and with the result line when the output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("kiel-r10-long", "sar-routed-short", "kiel-ingest")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    configure = ["cmake", "-S", source_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", "4"]
    for command in (configure, compile_):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(command))


def check_result(line, trace, benchmark_json):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    if not os.path.exists(benchmark_json):
        return
    with open(benchmark_json) as f:
        spec = json.load(f)
    tier = spec["per_layer"] if trace else spec["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in tier}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if wanted != got:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    build(os.path.join(root, "perfbench"), build_dir)

    tag = "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid())
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(target, "work", tag)]
    if args.trace == "1":
        os.makedirs(os.path.join(target, "traces"), exist_ok=True)
        command += ["--trace-out",
                    os.path.join(target, "traces", tag + ".jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    output = done.stdout.decode(errors="replace")
    sys.stdout.write(output)
    sys.stdout.flush()
    lines = output.strip().splitlines()
    if done.returncode != 0 and (not lines or not lines[-1].startswith("{")):
        fail("benchmark exited with code %d" % done.returncode)
    if not lines:
        fail("benchmark printed nothing")
    check_result(lines[-1], args.trace == "1",
                 os.path.join(root, "BENCHMARK.json"))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
