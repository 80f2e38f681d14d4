#!/usr/bin/env python3
"""EasyC end-to-end benchmark: build, pin, run one workload, print metrics.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call builds the program
(the repository's own CMake project, Release) and the harness
(perfbench/CMakeLists.txt) under .bench_build/; later calls only
re-check the build. The harness then runs the workload on a fixed CPU
set and prints human-readable lines followed by one JSON result line:
end-to-end metrics with --trace 0, the per-layer split with --trace 1.
README.md in this directory documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sweep_cold", "sweep_warm_wide", "sweep_sharded", "serve_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Pool threads = shard workers = the size of the program's CPU set.
MAX_PROGRAM_CPUS = 3
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_env():
    """Keep every file the build or the run writes inside the checkout."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["CCACHE_DIR"] = os.path.join(BUILD, "ccache")
    return env


def run_logged(cmd, log, env):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                             env=env, cwd=ROOT)
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail("build step failed: %s\n%s" % (" ".join(cmd), tail), 1)


def cache_value(cache_file, key):
    with open(cache_file) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no EasyC sources next to perfbench/ (run from a checkout)")
    env = build_env()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    log = os.path.join(BUILD, "build.log")
    program = os.path.join(BUILD, "easyc")
    harness = os.path.join(BUILD, "harness")
    if not os.path.isfile(os.path.join(program, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", program,
                    "-DCMAKE_BUILD_TYPE=Release"], log, env)
    build_type = cache_value(os.path.join(program, "CMakeCache.txt"),
                             "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("refusing to measure a %r build; need Release" % build_type)
    run_logged(["cmake", "--build", program, "-j", jobs, "--target", "easyc",
                "easyc_cli", "easyc_serve"], log, env)
    if not os.path.isfile(os.path.join(harness, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", harness,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DEASYC_BUILD_DIR=" + program], log, env)
    run_logged(["cmake", "--build", harness, "-j", jobs], log, env)
    return program, os.path.join(harness, "ezbench")


def source_digest():
    """sha256 over the program's sources (the checkout need not be git)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD read from .git without running git (which could walk up out
    of the checkout); 'none' when the checkout is not a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "none"
    ref = open(head).read().strip()
    if not ref.startswith("ref: "):
        return ref[:12]
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        return open(path).read().strip()[:12]
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        for line in open(packed):
            if line.strip().endswith(ref[5:]):
                return line.split()[0][:12]
    return "unknown"


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def cpu_plan():
    """The benchmark's own work (this script, the serve client) on the
    first allowed CPU, the program on the next (up to MAX_PROGRAM_CPUS);
    one CPU means everything shares it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return cpus[0], cpus
    return cpus[0], cpus[1:1 + MAX_PROGRAM_CPUS]


def with_units(result, trace):
    """The harness reports metrics as name -> value; BENCHMARK.json is
    the one list of names and units. Attach the units, refuse a name it
    does not declare or a missing end-to-end metric, and report a
    per-layer metric the workload does not exercise as 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values = result["metrics"]
    extra = sorted(set(values) - set(units))
    if extra:
        fail("metrics not declared in BENCHMARK.json: %s" % ", ".join(extra), 1)
    missing = [name for name in units if name not in values]
    if missing and not trace:
        fail("end-to-end metrics not measured: %s" % ", ".join(missing), 1)
    if missing:
        print("not exercised by this workload, reported as 0: " +
              ", ".join(missing))
    result["metrics"] = {name: {"value": float(values.get(name, 0.0)),
                                "unit": unit} for name, unit in units.items()}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes (smoke_test.py)")
    args = ap.parse_args()

    program, ezbench = build()
    client, cpus = cpu_plan()
    work = os.path.join(BUILD, "runs", "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = build_env()
    env["TMPDIR"] = work
    print("env: git_sha=%s" % git_sha(), flush=True)
    cmd = [ezbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cpus", ",".join(map(str, cpus)), "--client-cpu", str(client),
           "--bin-dir", program, "--work-dir", work,
           "--source", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    # A session of its own, so a timeout stops the harness and every
    # server or worker it started.
    ticks = cpu_ticks()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S, 1)
    rc = proc.returncode
    if rc != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        sys.stdout.write("".join(l for l in out.splitlines(True)
                                 if not l.startswith("{")))
        fail("harness exited with %d" % rc, 1)
    # The host's share of stolen CPU time during the run: the main
    # source of run-to-run spread on a shared virtual machine.
    lines = out.splitlines()
    after = cpu_ticks()
    try:
        result = json.loads(lines.pop())
    except (IndexError, ValueError):
        sys.stdout.write(out)
        fail("harness printed no result line", 1)
    if ticks and after and after[1] > ticks[1]:
        lines.append("host: %.1f%% of CPU time stolen during the run" %
                     (100.0 * (after[0] - ticks[0]) / (after[1] - ticks[1])))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    print(json.dumps(with_units(result, args.trace)), flush=True)
    # Partials and snapshots are rebuilt every run; keep only the trace.
    for name in os.listdir(work):
        if name != "trace.json":
            os.remove(os.path.join(work, name))


if __name__ == "__main__":
    main()
