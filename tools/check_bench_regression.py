#!/usr/bin/env python3
"""Benchmark-regression gate for the engine/sweep benches.

Compares one or more google-benchmark ``--benchmark_format=json`` (or
``--benchmark_out=<file> --benchmark_out_format=json``) result files
against a committed baseline and fails when any benchmark's real time
regressed by more than the threshold.

User counters gate too: counters recorded in the baseline (e.g. the
million-cell sweep's ``cells_per_s`` throughput and ``peak_rss_mb``
footprint) are compared direction-aware — a higher-is-better counter
fails when it drops past the threshold, a lower-is-better one when it
grows past it.

Usage:
  check_bench_regression.py --baseline bench/baseline.json \
      --current engine.json [--current sweep.json ...] [--threshold 20]

  # refresh the committed baseline from the current run(s)
  check_bench_regression.py --baseline bench/baseline.json \
      --current engine.json --current sweep.json --update-baseline

  # prove the gate works (no files needed): passes an unchanged run,
  # fails an injected +25% regression, round-trips --update-baseline
  check_bench_regression.py --self-test

Gate rules:
  * a benchmark slower than baseline by > threshold %  -> FAIL
  * a baseline benchmark missing from the current runs -> FAIL
    (silently dropping a benchmark is how a gate rots)
  * a baseline counter that worsened past the threshold
    (direction-aware) or went unmeasured               -> FAIL
  * a baseline ``ratios`` entry whose measured counter ratio falls
    below its ``min_ratio`` (or whose operands went unmeasured) -> FAIL
  * a new benchmark or counter absent from the baseline -> note only;
    commit a refreshed baseline to start gating it
  * aggregate rows (mean/median/stddev/cv) are ignored; only
    per-iteration measurements gate.

Ratio gates express speedup floors between two benchmarks of the same
run rather than drift against history — e.g. the SoA batch kernel must
stay >= 1.5x the scalar oracle's cells_per_s no matter how both move
with the host. Baseline format:

  "ratios": [{"name": "batch_soa_vs_scalar",
              "numerator":   {"benchmark": "BM_BatchAssessSoA/real_time",
                              "counter": "cells_per_s"},
              "denominator": {"benchmark": "BM_BatchAssessScalar/real_time",
                              "counter": "cells_per_s"},
              "min_ratio": 1.5}]

``--update-baseline`` preserves the ratios section verbatim (floors are
policy, not measurements).

Times are normalized to nanoseconds before comparing, so a baseline
written in ms gates a run reported in ns. ``--update-baseline`` guesses
counter direction from the name (``*_per_s``/``*_per_second`` and
friends are higher-is-better, everything else lower-is-better); edit
the ``higher_is_better`` field in the baseline when the guess is wrong.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Keys of a google-benchmark result row that are bookkeeping, not user
# counters. items/bytes_per_second are derived from the gated real time
# (SetItemsProcessed), so gating them separately would double-count.
_NON_COUNTER_KEYS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "items_per_second", "bytes_per_second", "aggregate_name", "label",
    "family_index", "per_family_instance_index", "error_occurred",
    "error_message", "aggregate_unit",
}


def _to_ns(value, unit):
    try:
        return float(value) * _NS_PER_UNIT[unit]
    except KeyError:
        raise SystemExit(f"error: unknown time_unit '{unit}'")


def counter_higher_is_better(counter_name):
    """Direction heuristic for --update-baseline."""
    lowered = counter_name.lower()
    return lowered.endswith(("_per_s", "_per_sec", "_per_second", "/s")) or \
        lowered.endswith(("throughput", "hit_rate"))


def load_benchmarks(path_or_obj):
    """Return ({name: real_time_ns}, {(name, counter): value})."""
    if isinstance(path_or_obj, dict):
        doc = path_or_obj
    else:
        try:
            doc = json.loads(Path(path_or_obj).read_text())
        except FileNotFoundError:
            raise SystemExit(f"error: no such file: {path_or_obj}")
        except json.JSONDecodeError as e:
            raise SystemExit(f"error: {path_or_obj} is not JSON: {e}")
    times = {}
    counters = {}
    for b in doc.get("benchmarks", []):
        # google-benchmark marks mean/median/stddev rows as aggregates
        # three different ways depending on version and reporting flags:
        # run_type == "aggregate", an aggregate_name field (present even
        # when run_type is omitted or left "iteration", e.g. under
        # --benchmark_report_aggregates_only), or only a name suffix.
        # Treat any of them as an aggregate: they must never gate, and
        # must never overwrite the per-iteration row of the same name.
        if b.get("run_type", "iteration") != "iteration":
            continue
        if "aggregate_name" in b:
            continue
        name = b["name"]
        if any(name.endswith(s) for s in ("_mean", "_median", "_stddev", "_cv")):
            continue
        times[name] = _to_ns(b["real_time"], b.get("time_unit", "ns"))
        for key, value in b.items():
            if key in _NON_COUNTER_KEYS:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counters[(name, key)] = float(value)
    # The committed baseline format stores gated counters explicitly
    # (with their direction); pick those up too.
    for c in doc.get("counters", []):
        counters[(c["benchmark"], c["counter"])] = float(c["value"])
    return times, counters


def load_baseline_directions(path_or_obj):
    """Return {(benchmark, counter): higher_is_better} from a baseline."""
    if isinstance(path_or_obj, dict):
        doc = path_or_obj
    else:
        doc = json.loads(Path(path_or_obj).read_text())
    return {
        (c["benchmark"], c["counter"]):
            bool(c.get("higher_is_better",
                       counter_higher_is_better(c["counter"])))
        for c in doc.get("counters", [])
    }


def load_baseline_ratios(path_or_obj):
    """Return the baseline's ratio-gate list (possibly empty)."""
    if isinstance(path_or_obj, dict):
        doc = path_or_obj
    else:
        doc = json.loads(Path(path_or_obj).read_text())
    ratios = doc.get("ratios", [])
    for r in ratios:
        for side in ("numerator", "denominator"):
            if side not in r or "benchmark" not in r[side] \
                    or "counter" not in r[side]:
                raise SystemExit(
                    f"error: ratio '{r.get('name', '?')}' needs "
                    f"{side}.benchmark and {side}.counter")
        if "min_ratio" not in r:
            raise SystemExit(
                f"error: ratio '{r.get('name', '?')}' needs min_ratio")
    return ratios


def merge_currents(paths):
    times = {}
    counters = {}
    for p in paths:
        t, c = load_benchmarks(p)
        for name, ns in t.items():
            if name in times:
                raise SystemExit(
                    f"error: benchmark '{name}' appears in more than one "
                    "--current file")
            times[name] = ns
        counters.update(c)
    return times, counters


def write_baseline(path, benchmarks, counters=None, directions=None,
                   ratios=None):
    counters = counters or {}
    directions = directions or {}
    doc = {
        "comment": [
            "Committed benchmark baseline for tools/check_bench_regression.py.",
            "Refresh with: check_bench_regression.py --baseline <this file>",
            "  --current <run.json> [--current ...] --update-baseline",
        ],
        "benchmarks": [
            {"name": name, "real_time": ns, "time_unit": "ns",
             "run_type": "iteration"}
            for name, ns in sorted(benchmarks.items())
        ],
        "counters": [
            {"benchmark": bench, "counter": counter, "value": value,
             "higher_is_better": directions.get(
                 (bench, counter), counter_higher_is_better(counter))}
            for (bench, counter), value in sorted(counters.items())
        ],
    }
    if ratios:
        doc["ratios"] = ratios
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def compare(baseline, current, threshold_pct):
    """Return (failures, lines): gate verdict plus a printable table."""
    failures = []
    lines = []
    for name in sorted(baseline):
        base_ns = baseline[name]
        if name not in current:
            failures.append(f"{name}: present in baseline but not measured")
            lines.append(f"  MISSING {name}")
            continue
        cur_ns = current[name]
        delta_pct = (cur_ns - base_ns) / base_ns * 100.0 if base_ns else 0.0
        verdict = "ok"
        if delta_pct > threshold_pct:
            verdict = "REGRESSED"
            failures.append(
                f"{name}: {base_ns:.0f} ns -> {cur_ns:.0f} ns "
                f"({delta_pct:+.1f}% > +{threshold_pct:.0f}%)")
        lines.append(
            f"  {verdict:>9} {name}: {base_ns:.0f} ns -> {cur_ns:.0f} ns "
            f"({delta_pct:+.1f}%)")
    for name in sorted(set(current) - set(baseline)):
        lines.append(f"      NEW {name}: {current[name]:.0f} ns "
                     "(not gated; refresh the baseline to gate it)")
    return failures, lines


def compare_counters(baseline, current, directions, threshold_pct):
    """Direction-aware counter gate. Same return shape as compare()."""
    failures = []
    lines = []
    for key in sorted(baseline):
        bench, counter = key
        base = baseline[key]
        label = f"{bench} [{counter}]"
        if key not in current:
            failures.append(f"{label}: present in baseline but not measured")
            lines.append(f"  MISSING {label}")
            continue
        cur = current[key]
        higher_better = directions.get(key, counter_higher_is_better(counter))
        delta_pct = (cur - base) / base * 100.0 if base else 0.0
        # The regression direction: a drop for higher-is-better
        # counters, growth for lower-is-better ones.
        worsened_pct = -delta_pct if higher_better else delta_pct
        verdict = "ok"
        if worsened_pct > threshold_pct:
            verdict = "REGRESSED"
            arrow = "dropped" if higher_better else "grew"
            failures.append(
                f"{label}: {base:.6g} -> {cur:.6g} ({arrow} "
                f"{worsened_pct:.1f}% > {threshold_pct:.0f}%)")
        lines.append(
            f"  {verdict:>9} {label}: {base:.6g} -> {cur:.6g} "
            f"({delta_pct:+.1f}%, "
            f"{'higher' if higher_better else 'lower'} is better)")
    for key in sorted(set(current) - set(baseline)):
        bench, counter = key
        lines.append(f"      NEW {bench} [{counter}]: {current[key]:.6g} "
                     "(not gated; refresh the baseline to gate it)")
    return failures, lines


def compare_ratios(ratios, counters):
    """Ratio floors between two counters of the current run. Same
    return shape as compare()."""
    failures = []
    lines = []
    for r in ratios:
        name = r.get("name", "?")
        num_key = (r["numerator"]["benchmark"], r["numerator"]["counter"])
        den_key = (r["denominator"]["benchmark"], r["denominator"]["counter"])
        floor = float(r["min_ratio"])
        missing = [f"{b} [{c}]" for b, c in (num_key, den_key)
                   if (b, c) not in counters]
        if missing:
            failures.append(
                f"ratio {name}: operand(s) not measured: "
                + ", ".join(missing))
            lines.append(f"  MISSING ratio {name}")
            continue
        den = counters[den_key]
        if den == 0:
            failures.append(f"ratio {name}: denominator is zero")
            lines.append(f"  REGRESSED ratio {name}: denominator is zero")
            continue
        ratio = counters[num_key] / den
        verdict = "ok"
        if ratio < floor:
            verdict = "REGRESSED"
            failures.append(
                f"ratio {name}: {ratio:.2f}x < required {floor:.2f}x "
                f"({num_key[0]} [{num_key[1]}] = {counters[num_key]:.6g} vs "
                f"{den_key[0]} [{den_key[1]}] = {den:.6g})")
        lines.append(
            f"  {verdict:>9} ratio {name}: {ratio:.2f}x "
            f"(floor {floor:.2f}x)")
    return failures, lines


def self_test():
    """Exercise the gate end to end with synthetic results."""
    def doc(scale, cells=110000.0, rss=18.0):
        return {
            "benchmarks": [
                {"name": "BM_Fast", "real_time": 100.0 * scale,
                 "time_unit": "ns", "run_type": "iteration"},
                {"name": "BM_Slow/8", "real_time": 2.0 * scale,
                 "time_unit": "ms", "run_type": "iteration",
                 # items_per_second is derived bookkeeping, never a
                 # gated counter.
                 "items_per_second": 4.0e6 / scale},
                {"name": "BM_Stream", "real_time": 10.0 * scale,
                 "time_unit": "s", "run_type": "iteration",
                 "cells_per_s": cells, "peak_rss_mb": rss},
                # aggregates must never gate
                {"name": "BM_Slow/8_mean", "real_time": 99.0,
                 "time_unit": "ms", "run_type": "aggregate"},
                # ...including aggregate_name rows that omit run_type
                # (or call it an iteration): without the aggregate_name
                # check this row would overwrite BM_Slow/8's measurement
                # with a 99 ms "regression".
                {"name": "BM_Slow/8", "real_time": 99.0,
                 "time_unit": "ms", "aggregate_name": "mean"},
            ]
        }

    baseline, base_counters = load_benchmarks(doc(1.0))
    assert set(baseline) == {"BM_Fast", "BM_Slow/8", "BM_Stream"}, baseline
    assert baseline["BM_Slow/8"] == 2.0e6, baseline
    assert set(base_counters) == {("BM_Stream", "cells_per_s"),
                                  ("BM_Stream", "peak_rss_mb")}, base_counters

    # Direction heuristic: throughput up, footprint down.
    assert counter_higher_is_better("cells_per_s")
    assert not counter_higher_is_better("peak_rss_mb")
    directions = {key: counter_higher_is_better(key[1])
                  for key in base_counters}

    # Unchanged run: passes.
    cur_t, cur_c = load_benchmarks(doc(1.0))
    failures, _ = compare(baseline, cur_t, 20.0)
    assert not failures, failures
    failures, _ = compare_counters(base_counters, cur_c, directions, 20.0)
    assert not failures, failures

    # A +10% drift stays under a 20% gate.
    failures, _ = compare(baseline, load_benchmarks(doc(1.10))[0], 20.0)
    assert not failures, failures

    # An injected +25% regression fails it, naming every benchmark.
    failures, _ = compare(baseline, load_benchmarks(doc(1.25))[0], 20.0)
    assert len(failures) == 3, failures

    # A benchmark that vanishes from the run fails the gate.
    shrunk = load_benchmarks(doc(1.0))[0]
    del shrunk["BM_Fast"]
    failures, _ = compare(baseline, shrunk, 20.0)
    assert failures and "not measured" in failures[0], failures

    # A new benchmark is reported but does not gate.
    grown = dict(load_benchmarks(doc(1.0))[0], BM_New=5.0)
    failures, lines = compare(baseline, grown, 20.0)
    assert not failures, failures
    assert any("NEW BM_New" in l for l in lines), lines

    # Counter gates are direction-aware: a 30% throughput drop fails...
    _, dropped = load_benchmarks(doc(1.0, cells=110000.0 * 0.7))
    failures, _ = compare_counters(base_counters, dropped, directions, 20.0)
    assert len(failures) == 1 and "cells_per_s" in failures[0], failures
    # ...a 30% throughput *gain* passes...
    _, gained = load_benchmarks(doc(1.0, cells=110000.0 * 1.3))
    failures, _ = compare_counters(base_counters, gained, directions, 20.0)
    assert not failures, failures
    # ...a 30% RSS growth fails...
    _, fat = load_benchmarks(doc(1.0, rss=18.0 * 1.3))
    failures, _ = compare_counters(base_counters, fat, directions, 20.0)
    assert len(failures) == 1 and "peak_rss_mb" in failures[0], failures
    # ...a 30% RSS reduction passes...
    _, lean = load_benchmarks(doc(1.0, rss=18.0 * 0.7))
    failures, _ = compare_counters(base_counters, lean, directions, 20.0)
    assert not failures, failures
    # ...and a counter that vanishes from the run fails.
    _, partial = load_benchmarks(doc(1.0))
    del partial[("BM_Stream", "peak_rss_mb")]
    failures, _ = compare_counters(base_counters, partial, directions, 20.0)
    assert failures and "not measured" in failures[0], failures

    # Ratio gates: a floor between two counters of the same run.
    ratios = [{"name": "stream_vs_fast",
               "numerator": {"benchmark": "BM_Stream",
                             "counter": "cells_per_s"},
               "denominator": {"benchmark": "BM_Stream",
                               "counter": "peak_rss_mb"},
               "min_ratio": 5000.0}]
    # 110000 / 18 = 6111x: clears the 5000x floor.
    failures, _ = compare_ratios(ratios, base_counters)
    assert not failures, failures
    # A throughput drop to 80000 (4444x) violates it.
    _, degraded = load_benchmarks(doc(1.0, cells=80000.0))
    failures, _ = compare_ratios(ratios, degraded)
    assert len(failures) == 1 and "required 5000.00x" in failures[0], failures
    # A vanished operand fails rather than silently passing.
    _, partial = load_benchmarks(doc(1.0))
    del partial[("BM_Stream", "cells_per_s")]
    failures, _ = compare_ratios(ratios, partial)
    assert failures and "not measured" in failures[0], failures
    # A zero denominator is an explicit failure, not a crash.
    _, zeroed = load_benchmarks(doc(1.0, rss=0.0))
    failures, _ = compare_ratios(ratios, zeroed)
    assert failures and "zero" in failures[0], failures

    # --update-baseline round-trips benchmarks, counters, directions,
    # and preserves the ratio policy verbatim.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "baseline.json"
        write_baseline(path, baseline, base_counters, directions, ratios)
        rt_times, rt_counters = load_benchmarks(path)
        assert rt_times == baseline
        assert rt_counters == base_counters, rt_counters
        assert load_baseline_directions(path) == directions
        assert load_baseline_ratios(path) == ratios
        # A refresh from new measurements keeps the floors.
        write_baseline(path, rt_times, rt_counters, directions,
                       load_baseline_ratios(path))
        assert load_baseline_ratios(path) == ratios
    print("self-test: all gate behaviours verified")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Fail CI when a benchmark regresses past a threshold.")
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--current", action="append", default=[],
                        help="google-benchmark JSON result (repeatable)")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="max tolerated real-time regression, %% "
                             "(default: 20)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline from the --current runs "
                             "instead of gating")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate logic on synthetic data")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("--baseline and at least one --current are required "
                     "(or --self-test)")

    current, current_counters = merge_currents(args.current)
    if args.update_baseline:
        # Keep manually-set directions and the ratio policy from the
        # previous baseline (floors are policy, not measurements).
        directions = {}
        ratios = []
        if Path(args.baseline).exists():
            directions = load_baseline_directions(args.baseline)
            ratios = load_baseline_ratios(args.baseline)
        write_baseline(args.baseline, current, current_counters, directions,
                       ratios)
        print(f"baseline updated: {len(current)} benchmarks, "
              f"{len(current_counters)} counters, {len(ratios)} ratio "
              f"floors -> {args.baseline}")
        return 0

    baseline, baseline_counters = load_benchmarks(args.baseline)
    if not baseline:
        raise SystemExit(f"error: baseline {args.baseline} has no benchmarks")
    directions = load_baseline_directions(args.baseline)
    ratios = load_baseline_ratios(args.baseline)
    failures, lines = compare(baseline, current, args.threshold)
    counter_failures, counter_lines = compare_counters(
        baseline_counters, current_counters, directions, args.threshold)
    failures += counter_failures
    ratio_failures, ratio_lines = compare_ratios(ratios, current_counters)
    failures += ratio_failures
    print(f"benchmark regression gate: {len(baseline)} gated, "
          f"{len(baseline_counters)} counters, {len(ratios)} ratio floors, "
          f"threshold +{args.threshold:.0f}% real time")
    print("\n".join(lines + counter_lines + ratio_lines))
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("PASS: no benchmark or counter regressed past the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
