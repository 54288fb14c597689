#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench binary (and the simulator library it links) from
source into .bench_build/perfbench at the repository root, runs one
workload, echoes the binary's report, and prints the benchmark result as the
last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (0 where the workload does not exercise that
layer; see perfbench/README.md). When perfbench/digests.json records the
workload and seed, the run's digest and simulated metrics must equal the
recorded ones exactly; a mismatch is one more failed check. Exits non-zero,
without a result line, when the build or the run fails; exits 1 after the
result line when a correctness check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not os.path.exists(
        os.path.join(BUILD, "Makefile")
    ):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(
                    cmd, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1, deadline - time.monotonic()),
                )
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                if cmd[1] == "-S":  # a failed configure must not be reused
                    shutil.rmtree(BUILD, ignore_errors=True)
                fail("build step failed (%s): %s" % (rc, " ".join(cmd)))


def check_recorded(report, workload, seed):
    """Mismatches against the recorded digest and simulated metrics of this
    (workload, seed) as a list of messages, or None when none is recorded."""
    with open(os.path.join(HERE, "digests.json")) as f:
        want = json.load(f).get(workload, {}).get(str(seed))
    if want is None:
        return None
    got = dict(report["end_to_end"], digest=report["digest"])
    return ["%s is %r, recorded %r" % (k, got.get(k), v)
            for k, v in sorted(want.items()) if got.get(k) != v]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build()

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench exited %d without a report" % proc.returncode)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = report["per_layer" if args.trace else "end_to_end"]
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        fail("perfbench reported metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
    missing = [m["name"] for m in spec["end_to_end"] if not args.trace and m["name"] not in got]
    if missing:
        fail("perfbench did not report: %s" % ", ".join(missing))

    mismatches = check_recorded(report, args.workload, args.seed)
    if mismatches is not None:
        report["attempted"] += 1
        if mismatches:
            report["failed"] += 1
            report["correct"] = False
        for msg in mismatches:
            print("perfbench: FAILED recorded seed %d: %s" % (args.seed, msg), file=sys.stderr)
    print(json.dumps(report))
    for name in ("end_to_end", "extra", "per_layer"):
        for k, v in sorted(report[name].items()):
            print("  %-44s %s" % (k, v))
    print("  digest %s  windows %d  attempted %d  failed %d"
          % (report["digest"], report["windows"], report["attempted"], report["failed"]))
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": got.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
