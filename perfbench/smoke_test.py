#!/usr/bin/env python3
"""Reduced-size smoke test of the benchmark (about a minute).

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at reduced size (run.py --smoke,
one second) untraced and traced, and checks:
  * the run exits 0, so the metric names matched BENCHMARK.json (run.py
    attaches the units from it and fails on an undeclared name or a
    missing end-to-end metric);
  * the result line has exactly correct/attempted/failed/metrics, the
    run is correct with no failed operation, end-to-end values positive;
  * the traced run wrote a Chrome trace-event file.
Every run also checks its own outputs: SweepEngine::run against the
sweep replica, the sharded merge against the in-process sweep, and every
served reply against an in-process execute, so `correct` covers "the
replica loop matches the real report".
Finally it checks that run.py fails without a result when the program
sources are absent (a directory holding only the benchmark).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(workload, trace, problems):
    before = len(problems)
    out = run(["perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--smoke"])
    tag = "%s trace=%d" % (workload, trace)
    if out.returncode != 0:
        problems.append("%s: exit %d\n%s" % (tag, out.returncode,
                                             out.stderr[-2000:]))
        return
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (tag, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s failed=%s\n%s" % (
            tag, result["correct"], result["attempted"], result["failed"],
            out.stdout[-2000:]))
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append("%s: %s is not a number" % (tag, name))
        elif not trace and v["value"] <= 0:
            problems.append("%s: end-to-end %s is %r" % (tag, name,
                                                         v["value"]))
    if trace:
        path = os.path.join(ROOT, ".bench_build", "runs",
                            "%s-seed1-trace1" % workload, "trace.json")
        try:
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            if not events or not all(e["ph"] == "X" for e in events):
                problems.append("%s: empty or malformed trace" % tag)
        except (OSError, ValueError, KeyError) as e:
            problems.append("%s: trace file: %s" % (tag, e))
    print("ok  " if len(problems) == before else "FAIL", tag, flush=True)


def check_without_sources(problems):
    before = len(problems)
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(["perfbench/run.py", "--workload", "sweep_cold", "--seed", "1",
               "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        problems.append("run.py without program sources: exit %d, stdout %r"
                        % (out.returncode, out.stdout[-300:]))
    print("ok  " if len(problems) == before else "FAIL",
          "no sources -> no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, problems)
    check_without_sources(problems)
    for p in problems:
        print("FAIL", p)
    print("smoke test: %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
