#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs K] [--workloads a,b] [--trace 0|1]
                                [--save FILE] [--compare FILE]

Runs every workload K times through perfbench/run.py for BENCHMARK.json's
run_seconds, round-robin, reversing the workload order on every other round
so no workload always runs first or last. Round r uses seed r + 1, so a set
covers seeds 1..K. For every metric it prints the median, the
quartiles (Python's statistics.quantiles(n=4)), the spread (q3 - q1) / median
and the metric's bound from BENCHMARK.json:

    ok      spread below a third of the bound
    within  spread below the bound
    OVER    spread at or above the bound

--save writes every value and digest to FILE; --compare reads such a file
from an earlier set and adds, per metric, the change of the median against
it (judged against the bound in the metric's "better" direction) and
whether the digests of seeds run in both sets are identical.

Exit status is 1 when a run failed, a spread is OVER, a compared median got
worse by more than its bound, or a compared digest differs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(l) for l in lines if l.startswith('{"workload"')), None)
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        return None, report
    return result, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]

    values = {w: {m["name"]: [] for m in metrics} for w in names}
    digests = {w: {} for w in names}
    failures = 0
    for r in range(args.runs):
        order = names if r % 2 == 0 else list(reversed(names))
        seed = r + 1
        for w in order:
            result, report = run_once(w, seed, seconds, args.trace)
            if result is None:
                failures += 1
                print("run failed: %s seed %d" % (w, seed), file=sys.stderr)
                continue
            for m in metrics:
                values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
            digests[w][str(seed)] = report["digest"] if report else None
            print("round %d %-13s seed %-4d done" % (r, w, seed), file=sys.stderr)

    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    bad = failures > 0
    print("%-13s %-34s %14s %14s %14s %8s %6s %7s%s"
          % ("workload", "metric", "median", "q1", "q3", "spread", "bound", "",
             "  vs-previous" if previous else ""))
    for w in names:
        for m in metrics:
            v = values[w][m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "within" if spread < bound else "OVER"
                bad = bad or verdict == "OVER"
            tail = ""
            if previous and m["name"] in previous["values"].get(w, {}):
                old = statistics.median(previous["values"][w][m["name"]])
                change = (med - old) / old if old else 0.0
                worse = change if m["better"] == "lower" else -change
                tail = "  %+.4f" % change
                if bound is not None and worse > bound:
                    tail += " WORSE"
                    bad = True
            print("%-13s %-34s %14.6g %14.6g %14.6g %8.4f %6s %7s%s"
                  % (w, m["name"], med, q1, q3, spread,
                     "" if bound is None else "%.3g" % bound, verdict, tail))
    if previous:
        for w in names:
            for seed, d in digests[w].items():
                old = previous["digests"].get(w, {}).get(seed)
                if old is not None and old != d:
                    print("digest differs: %s seed %s: %s vs %s" % (w, seed, d, old))
                    bad = True
    print("digests:", json.dumps(digests, sort_keys=True))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"values": values, "digests": digests}, f, indent=1, sort_keys=True)
    if failures:
        print("%d runs failed" % failures)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
