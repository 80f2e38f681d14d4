// The three sweep workloads: sweep_cold and sweep_warm_wide run the
// sweep in this process through SweepEngine (the loop easyc_cli --sweep
// runs), sweep_sharded runs it as easyc_cli --sweep-shard worker
// processes plus --sweep-merge. See README.md for why each exists.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/sweep.hpp"
#include "analysis/sweep_shard.hpp"
#include "parallel/thread_pool.hpp"
#include "replica.hpp"
#include "service/server.hpp"
#include "system.hpp"
#include "top500/generator.hpp"
#include "workloads.hpp"

namespace ezbench {
namespace {

namespace analysis = easyc::analysis;
namespace top500 = easyc::top500;
using Records = std::vector<top500::SystemRecord>;

constexpr size_t kColdBatch = 256;
constexpr size_t kWarmBatch = 1024;
constexpr size_t kWarmRecords = 8;

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// --- seeded inputs ----------------------------------------------------

// About a thousand distinct cells over the full list: every lane of
// every cell misses a fresh cache. The seed moves the axis ranges; the
// cell count stays 1,007 (1 base + 6 endpoints + 20x10x5 grid).
std::string cold_axes(uint64_t seed, bool smoke) {
  Rng r(seed ^ 0xc01dULL);
  const double aci_lo = 10.0 * static_cast<double>(r.range(0, 10));
  const double aci_hi = aci_lo + 700.0 + 10.0 * static_cast<double>(r.range(0, 10));
  const double pue_lo = 1.05 + 0.01 * static_cast<double>(r.range(0, 5));
  const double pue_hi = pue_lo + 0.8 + 0.01 * static_cast<double>(r.range(0, 5));
  const double util_lo = 0.5 + 0.01 * static_cast<double>(r.range(0, 5));
  const double util_hi = 0.9 + 0.01 * static_cast<double>(r.range(0, 5));
  const int n_aci = smoke ? 4 : 20, n_pue = smoke ? 3 : 10,
            n_util = smoke ? 2 : 5;
  return "aci=" + fmt("%.0f", aci_lo) + ":" + fmt("%.0f", aci_hi) + ":" +
         std::to_string(n_aci) + ";pue=" + fmt("%.2f", pue_lo) + ":" +
         fmt("%.2f", pue_hi) + ":" + std::to_string(n_pue) +
         ";util=" + fmt("%.2f", util_lo) + ":" + fmt("%.2f", util_hi) + ":" +
         std::to_string(n_util);
}

// 65,545 cells (16^4 grid + 1 base + 8 endpoints) so the streaming
// statistics path runs. The lifetime axis is outside the assessment
// fingerprint, so the 8 records x 4,105 distinct assessments cached in
// the snapshot serve every cell.
std::string warm_axes(uint64_t seed, bool smoke) {
  Rng r(seed ^ 0x3a53ULL);
  const double aci_lo = 5.0 * static_cast<double>(r.range(0, 10));
  const double aci_hi = aci_lo + 750.0;
  const double pue_lo = 1.05 + 0.01 * static_cast<double>(r.range(0, 5));
  const double util_lo = 0.4 + 0.01 * static_cast<double>(r.range(0, 10));
  const int n = smoke ? 4 : 16;
  const std::string count = std::to_string(n);
  return "aci=" + fmt("%.0f", aci_lo) + ":" + fmt("%.0f", aci_hi) + ":" +
         count + ";pue=" + fmt("%.2f", pue_lo) + ":1.95:" + count +
         ";util=" + fmt("%.2f", util_lo) + ":0.95:" + count +
         ";life=3:" + std::to_string(2 + n) + ":" + count;
}

analysis::SweepSpec parse_spec(const std::string& axes) {
  const analysis::ScenarioSet scenarios = easyc::service::default_scenarios();
  return analysis::SweepSpec::parse(axes, scenarios.at("enhanced"));
}

// --- in-process set-up ------------------------------------------------

// What a user of the in-process sweep path builds before the first
// request: the record list, a pool of N threads (one per CPU of the
// set) and the engine, plus the snapshot load on the warm path.
struct Stack {
  Records records;
  std::unique_ptr<easyc::par::ThreadPool> pool;
  std::unique_ptr<analysis::AssessmentEngine> engine;
};

std::unique_ptr<easyc::par::ThreadPool> pinned_pool(
    const std::vector<int>& cpus) {
  const std::vector<pid_t> before = thread_ids();
  auto pool =
      std::make_unique<easyc::par::ThreadPool>(static_cast<unsigned>(cpus.size()));
  pin_new_threads(before, thread_ids(), cpus);
  return pool;
}

struct SetupTimes {
  std::vector<double> total, generate, load;
  double heap_bytes_per_entry = 0.0;
  size_t entries = 0;
};

uint64_t heap_in_use() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<uint64_t>(mi.uordblks + mi.hblkhd);
}

// One set-up over the first `limit` records of the generated list (as
// --sweep-records / records= select them); a non-empty `snapshot` is
// loaded into the fresh engine.
Stack set_up(const std::vector<int>& cpus, size_t limit,
             const std::string& snapshot, SetupTimes& t) {
  Stack s;
  const double t0 = now_s();
  s.records = top500::generate_records();
  const double t1 = now_s();
  s.records.resize(std::min(limit, s.records.size()));
  s.pool = pinned_pool(cpus);
  analysis::AssessmentEngine::Options eo;
  eo.pool = s.pool.get();
  s.engine = std::make_unique<analysis::AssessmentEngine>(eo);
  double load = 0.0;
  if (!snapshot.empty()) {
    const uint64_t heap0 = heap_in_use();
    const double l0 = now_s();
    t.entries = s.engine->load_cache(snapshot);
    load = now_s() - l0;
    if (t.entries > 0 && t.load.empty()) {
      t.heap_bytes_per_entry =
          static_cast<double>(heap_in_use() - heap0) /
          static_cast<double>(t.entries);
    }
  }
  t.total.push_back(now_s() - t0);
  t.generate.push_back(t1 - t0);
  if (!snapshot.empty()) t.load.push_back(load);
  return s;
}

// Tear `s` down (engine before its pool) outside the timed region and
// set it up afresh, so only one engine is ever alive.
void set_up_again(Stack& s, const std::vector<int>& cpus, size_t limit,
                  const std::string& snapshot, SetupTimes& t) {
  s.engine.reset();
  s.pool.reset();
  s = set_up(cpus, limit, snapshot, t);
}

Stack set_up_repeated(int times, const std::vector<int>& cpus, size_t limit,
                      const std::string& snapshot, SetupTimes& t) {
  Stack s;
  for (int k = 0; k < times; ++k) set_up_again(s, cpus, limit, snapshot, t);
  return s;
}

std::string cli(const Options& o) { return o.bin_dir + "/easyc_cli"; }

// --- output checks ----------------------------------------------------

// What every sweep of one input must reproduce.
struct Reference {
  std::string render;
  std::vector<analysis::AxisMarginal> marginals;
  uint64_t export_digest = 0;  ///< of the EZCELLS export, when there is one
};

Reference reference_of(const ReplicaResult& r) {
  return {r.render, r.marginals, r.export_digest};
}

Reference reference_of(const analysis::SweepReport& r, uint64_t digest) {
  return {analysis::render_sweep_report(r), r.grid_marginals, digest};
}

void check_real(Result& res, const analysis::SweepReport& report,
                const Reference& ref) {
  if (analysis::render_sweep_report(report) != ref.render) {
    res.fail("SweepEngine::run report differs from the replica's");
  }
  if (!same_marginals(report.grid_marginals, ref.marginals)) {
    res.fail("SweepEngine::run grid marginals differ from the replica's");
  }
}

// --- the program as a user runs it -----------------------------------
//
// peak_rss_mb is the peak RSS of a program process. A child's reported
// peak includes the harness's peak at the time it was spawned (see
// own_peak_mb), so every child whose peak is reported starts before the
// harness runs a sweep in process.

struct CliSweep {
  std::string error;          ///< empty when the run exited 0
  std::string report;         ///< stdout: the rendered sweep report
  uint64_t cells_digest = 0;  ///< FNV-1a of the EZCELLS export, if any
  double peak_mb = 0.0;
};

// One `easyc_cli --sweep` on the CPU set with one thread per CPU, over
// the first `records` records; with `cache_file` as --cache-file (read
// if it exists, saved after the run) and an EZCELLS export when
// `export_cells`.
CliSweep cli_sweep(const Options& o, const std::string& axes, size_t records,
                   size_t batch, const std::string& cache_file,
                   bool export_cells) {
  const std::string out = o.work_dir + "/cli_sweep.txt";
  const std::string cells = o.work_dir + "/cli_sweep.ezcells";
  std::vector<std::string> argv = {
      cli(o), "--sweep=" + axes, "--sweep-base=enhanced",
      "--sweep-records=" + std::to_string(records),
      "--sweep-batch=" + std::to_string(batch),
      "--threads=" + std::to_string(o.cpus.size())};
  if (!cache_file.empty()) argv.push_back("--cache-file=" + cache_file);
  if (export_cells) {
    argv.insert(argv.end(), {"--cells-out=" + cells, "--cells-format=bin"});
  }
  const Exit e = reap(spawn(argv, o.cpus, out, -1));
  CliSweep r;
  if (!e.ok()) {
    r.error = "easyc_cli --sweep " + e.describe();
    return r;
  }
  r.peak_mb = own_peak_mb(e, "easyc_cli --sweep");
  r.report = read_file(out);
  if (export_cells) r.cells_digest = fnv1a(read_file(cells));
  return r;
}

// Three untimed easyc_cli runs of the workload's sweep, made first; with
// a `snapshot`, each warm-starts from a fresh copy of it and exports
// EZCELLS, as sweep_warm_wide does in process.
std::vector<CliSweep> cli_peak_runs(const Options& o, const std::string& axes,
                                    size_t records, size_t batch,
                                    const std::string& snapshot) {
  const std::string copy = o.work_dir + "/cli_sweep.snap";
  std::vector<CliSweep> runs;
  for (int k = 0; k < 3; ++k) {
    if (!snapshot.empty()) {
      std::filesystem::copy_file(
          snapshot, copy, std::filesystem::copy_options::overwrite_existing);
    }
    runs.push_back(cli_sweep(o, axes, records, batch,
                             snapshot.empty() ? "" : copy, !snapshot.empty()));
  }
  return runs;
}

// Check each run against the in-process reference; the median peak.
double cli_peak_mb(Result& res, const std::vector<CliSweep>& runs,
                   const Reference& ref, bool export_cells) {
  std::vector<double> peaks;
  for (const CliSweep& r : runs) {
    ++res.attempted;
    if (!r.error.empty()) {
      res.fail(r.error);
      continue;
    }
    peaks.push_back(r.peak_mb);
    if (r.report != ref.render) {
      res.fail("easyc_cli --sweep report differs from the replica's");
    } else if (export_cells && r.cells_digest != ref.export_digest) {
      res.fail("easyc_cli --sweep EZCELLS export differs from the replica's");
    }
  }
  return median(peaks);
}

// --- metrics ----------------------------------------------------------

std::string setup_line(const std::vector<double>& t) {
  return "setup_s: median of " + std::to_string(t.size()) + " set-ups " +
         fmt("%.6f", median(t)) + " s (min " +
         fmt("%.6f", *std::min_element(t.begin(), t.end())) + ", max " +
         fmt("%.6f", *std::max_element(t.begin(), t.end())) + ")";
}

void sweep_end_to_end(Result& res, const std::vector<double>& rep_s,
                      size_t cells, const SetupTimes& st, double peak_mb,
                      const std::string& what) {
  // Throughput of the median sweep, not total cells over total time: a
  // burst of host contention covering a few sweeps moves the mean but
  // not the median.
  const double p50 = median(rep_s);
  res.end_to_end["setup_s"] = median(st.total);
  res.end_to_end["ops_per_s"] = static_cast<double>(cells) / p50;
  res.end_to_end["latency_p50_ms"] = p50 * 1e3;
  res.end_to_end["peak_rss_mb"] = peak_mb;
  const double tail = supported_tail_percentile(rep_s.size());
  res.lines.push_back(
      what + ": " + std::to_string(rep_s.size()) + " sweeps of " +
      std::to_string(cells) + " cells; sweep latency p50 " +
      fmt("%.1f", p50 * 1e3) +
      " ms (n=" + std::to_string(rep_s.size()) + ", min " +
      fmt("%.1f", *std::min_element(rep_s.begin(), rep_s.end()) * 1e3) +
      ", max " +
      fmt("%.1f", *std::max_element(rep_s.begin(), rep_s.end()) * 1e3) +
      (tail > 50.0 ? ", p" + fmt("%g", tail) + " " +
                         fmt("%.1f", percentile(rep_s, tail) * 1e3) + " ms)"
                   : "; too few samples for a tail percentile)"));
  res.lines.push_back(setup_line(st.total));
}

// Per-layer split from the traced replica reps: self time per layer per
// sweep, the engine's cache and kernel counters per sweep, and tracing
// overhead as the traced minus the untraced replica median.
void sweep_per_layer(Result& res, const Tracer& tracer, size_t traced_reps,
                     const ReplicaResult& last,
                     const std::vector<double>& untraced_s,
                     const std::vector<double>& traced_s,
                     const SetupTimes& st) {
  const auto self = tracer.self_seconds();
  const double reps = static_cast<double>(std::max<size_t>(1, traced_reps));
  const auto per_sweep = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / reps;
  };
  for (const char* layer : {"expand", "register", "engine", "project",
                            "reduce", "encode", "tornado", "render"}) {
    res.per_layer[std::string(layer) + ".self_s"] = per_sweep(layer);
  }
  // The loop itself: endpoint retention and freeing each batch's results.
  res.per_layer["sweep.self_s"] = per_sweep("sweep") + per_sweep("batch");
  res.per_layer["encode.bytes"] = static_cast<double>(last.export_bytes);
  res.per_layer["cache.hits"] = static_cast<double>(last.cache.hits);
  res.per_layer["cache.misses"] = static_cast<double>(last.cache.misses);
  res.per_layer["cache.hit_rate"] = last.cache.hit_rate();
  res.per_layer["kernel.lanes"] = static_cast<double>(last.kernel.lanes);
  res.per_layer["kernel.profiles"] = static_cast<double>(last.kernel.profiles);
  res.per_layer["kernel.lanes_per_profile"] =
      last.kernel.profiles == 0
          ? 0.0
          : static_cast<double>(last.kernel.lanes) /
                static_cast<double>(last.kernel.profiles);
  res.per_layer["kernel.aci_db_queries"] =
      static_cast<double>(last.kernel.aci_db_queries);
  res.per_layer["records.generate_s"] = median(st.generate);
  if (!st.load.empty()) {
    res.per_layer["snapshot.load_s"] = median(st.load);
    res.per_layer["cache.bytes_per_entry"] = st.heap_bytes_per_entry;
  }
  const double u = median(untraced_s), t = median(traced_s);
  res.per_layer["trace.overhead_pct"] = u > 0.0 ? (t - u) / u * 100.0 : 0.0;
  res.lines.push_back(
      "replica: " + std::to_string(untraced_s.size()) + " untraced / " +
      std::to_string(traced_s.size()) + " traced sweeps, p50 " +
      fmt("%.1f", u * 1e3) + " / " + fmt("%.1f", t * 1e3) +
      " ms; tracing overhead " + fmt("%.2f", res.per_layer["trace.overhead_pct"]) +
      "%");
}

// Alternate untraced and traced replica sweeps for `seconds`, checking
// each render against `reference`. `reset` runs untimed before each rep.
template <typename Reset>
void traced_replica_reps(const Options& o, Tracer& tracer, Stack& stack,
                         const analysis::SweepSpec& spec, size_t batch,
                         bool export_cells, const Reference& reference,
                         const SetupTimes& st, Reset reset, Result& res) {
  std::vector<double> untraced, traced;
  ReplicaResult last;
  const double start = now_s();
  uint64_t request = 0;
  while (now_s() - start < o.seconds || traced.size() < 2) {
    for (const bool on : {false, true}) {
      reset();
      tracer.set_enabled(on);
      ReplicaResult r = replica_sweep(*stack.engine, stack.records, spec,
                                      batch, export_cells, tracer, ++request);
      tracer.set_enabled(false);
      ++res.attempted;
      if (r.render != reference.render) {
        res.fail("replica render differs from SweepEngine::run");
      }
      if (!same_marginals(r.marginals, reference.marginals)) {
        res.fail("replica grid marginals differ from SweepEngine::run");
      }
      if (export_cells && r.export_digest != reference.export_digest) {
        res.fail("replica EZCELLS export differs from SweepEngine::run");
      }
      (on ? traced : untraced).push_back(r.seconds);
      if (on) last = std::move(r);
    }
  }
  sweep_per_layer(res, tracer, traced.size(), last, untraced, traced, st);
}

analysis::SweepReport real_sweep(analysis::AssessmentEngine& engine,
                                 const Records& records,
                                 const analysis::SweepSpec& spec, size_t batch,
                                 analysis::SweepCellSink* sink) {
  analysis::SweepEngine::Options so;
  so.engine = &engine;
  so.batch_size = batch;
  so.retain_cells = false;  // as the server and CLI run it
  analysis::SweepEngine sweep(so);
  return sweep.run(records, spec, sink);
}

}  // namespace

// ---------------------------------------------------------------------
Result run_sweep_cold(const Options& o, Tracer& tracer) {
  Result res;
  pin_self(o.cpus);
  const std::string axes = cold_axes(o.seed, o.smoke);
  const analysis::SweepSpec spec = parse_spec(axes);
  const size_t limit = o.smoke ? 60 : 500;
  const size_t cells = spec.total_cells();
  const std::vector<CliSweep> cli_runs =
      o.trace ? std::vector<CliSweep>{}
              : cli_peak_runs(o, axes, limit, kColdBatch, "");

  SetupTimes st;
  Stack stack = set_up_repeated(5, o.cpus, limit, "", st);
  res.lines.push_back("input: --sweep='" + axes + "' over " +
                      std::to_string(stack.records.size()) + " records, " +
                      std::to_string(cells) + " cells, batch " +
                      std::to_string(kColdBatch) + ", fresh cache per sweep");

  if (!o.trace) {
    // The replica doubles as the untimed first sweep of the process, so
    // first-touch heap growth lands outside the timed reps.
    Tracer off(false);
    const Reference ref = reference_of(replica_sweep(
        *stack.engine, stack.records, spec, kColdBatch, false, off, 0));
    set_up_again(stack, o.cpus, limit, "", st);
    std::vector<double> rep_s;
    const double start = now_s();
    while (now_s() - start < o.seconds || rep_s.size() < 3) {
      const double t0 = now_s();
      const analysis::SweepReport report =
          real_sweep(*stack.engine, stack.records, spec, kColdBatch, nullptr);
      rep_s.push_back(now_s() - t0);
      ++res.attempted;
      check_real(res, report, ref);
      // A fresh engine (so a fresh cache) for the next sweep, and more
      // set-up samples spread over the run (see README.md).
      for (int k = 0; k < 2; ++k) set_up_again(stack, o.cpus, limit, "", st);
    }
    const double peak_mb = cli_peak_mb(res, cli_runs, ref, false);
    sweep_end_to_end(res, rep_s, cells, st, peak_mb, "sweep_cold");
  } else {
    const Reference reference = reference_of(
        real_sweep(*stack.engine, stack.records, spec, kColdBatch, nullptr), 0);
    traced_replica_reps(o, tracer, stack, spec, kColdBatch, false, reference,
                        st, [&] { stack.engine->clear_cache(); }, res);
  }
  return res;
}

// ---------------------------------------------------------------------
Result run_sweep_warm_wide(const Options& o, Tracer& tracer) {
  Result res;
  pin_self(o.cpus);
  const std::string axes = warm_axes(o.seed, o.smoke);
  const analysis::SweepSpec spec = parse_spec(axes);
  const size_t cells = spec.total_cells();
  const std::string snapshot = o.work_dir + "/warm_wide.snap";

  // Untimed: easyc_cli fills a cache and saves the snapshot that the
  // set-up and the peak-RSS runs load. Then an in-process sweep on a
  // fresh engine gives the reference output every run must match.
  const CliSweep fill =
      cli_sweep(o, axes, kWarmRecords, kWarmBatch, snapshot, false);
  if (!fill.error.empty()) throw std::runtime_error(fill.error);
  const std::vector<CliSweep> cli_runs =
      o.trace ? std::vector<CliSweep>{}
              : cli_peak_runs(o, axes, kWarmRecords, kWarmBatch, snapshot);
  Reference reference;
  {
    SetupTimes ignored;
    Stack s = set_up(o.cpus, kWarmRecords, "", ignored);
    Tracer off(false);
    if (!o.trace) {
      reference = reference_of(replica_sweep(*s.engine, s.records, spec,
                                             kWarmBatch, true, off, 0));
    } else {
      DigestBuf buf;
      std::ostream out(&buf);
      analysis::BinaryCellSink sink(out);
      const analysis::SweepReport report =
          real_sweep(*s.engine, s.records, spec, kWarmBatch, &sink);
      sink.finish();
      reference = reference_of(report, buf.digest());
    }
  }
  ++res.attempted;
  if (fill.report != reference.render) {
    res.fail("easyc_cli --sweep (cache fill) report differs from the replica's");
  }

  SetupTimes st;
  Stack stack = set_up_repeated(3, o.cpus, kWarmRecords, snapshot, st);
  res.lines.push_back("input: --sweep='" + axes + "' over the first " +
                      std::to_string(kWarmRecords) + " records, " +
                      std::to_string(cells) + " cells, batch " +
                      std::to_string(kWarmBatch) + ", EZCELLS export, " +
                      std::to_string(st.entries) + " cached entries loaded");

  if (!o.trace) {
    std::vector<double> rep_s;
    const double start = now_s();
    while (now_s() - start < o.seconds || rep_s.size() < 3) {
      DigestBuf buf;
      std::ostream out(&buf);
      const double t0 = now_s();
      analysis::BinaryCellSink sink(out);
      const analysis::SweepReport report =
          real_sweep(*stack.engine, stack.records, spec, kWarmBatch, &sink);
      sink.finish();
      rep_s.push_back(now_s() - t0);
      ++res.attempted;
      check_real(res, report, reference);
      if (buf.digest() != reference.export_digest) {
        res.fail("EZCELLS export differs from the replica's");
      }
      if (report.cache.misses != 0) {
        res.fail("warm sweep missed the loaded cache " +
                 std::to_string(report.cache.misses) + " times");
      }
      set_up_again(stack, o.cpus, kWarmRecords, snapshot, st);
    }
    const double peak_mb = cli_peak_mb(res, cli_runs, reference, true);
    sweep_end_to_end(res, rep_s, cells, st, peak_mb, "sweep_warm_wide");
  } else {
    traced_replica_reps(o, tracer, stack, spec, kWarmBatch, true, reference,
                        st, [] {}, res);
  }
  return res;
}

// ---------------------------------------------------------------------
namespace {

struct ShardRun {
  double total_s = 0.0;
  std::vector<double> worker_s;
  double merge_s = 0.0;
  uint64_t partial_bytes = 0;
  double maxrss_mb = 0.0;
  double trace_s = 0.0;  ///< time spent recording spans
  bool ok = true;
  std::string error;
  std::string merged;
};

int open_log(const std::string& path) {
  return ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

// One sharded sweep: N single-thread workers, one per CPU of the set,
// then the merge; every process's wall time and peak RSS.
ShardRun sharded_sweep(const Options& o, const std::string& axes,
                       const std::vector<std::string>& extra, Tracer& tracer,
                       uint64_t request) {
  ShardRun run;
  const size_t n = o.cpus.size();
  const uint32_t root = tracer.enabled() ? tracer.reserve_id() : 0;
  // The spans are recorded after each waitpid; the time spent doing so
  // is all that tracing adds to this path.
  const auto record = [&](const char* name, double a, double b,
                          uint32_t parent, uint32_t id) {
    const double r0 = now_s();
    tracer.record(name, a, b, parent, request, id);
    run.trace_s += now_s() - r0;
  };
  std::vector<std::string> parts;
  std::vector<pid_t> pids;
  const int err = open_log(o.work_dir + "/shard_workers.log");
  const double t0 = now_s();
  for (size_t i = 0; i < n; ++i) {
    const std::string part =
        o.work_dir + "/part" + std::to_string(i + 1) + ".ezpart";
    parts.push_back(part);
    std::vector<std::string> argv = {
        cli(o), "--sweep=" + axes, "--sweep-base=enhanced",
        "--sweep-batch=" + std::to_string(kColdBatch), "--threads=1",
        "--sweep-shard=" + std::to_string(i + 1) + "/" + std::to_string(n),
        "--shard-out=" + part};
    argv.insert(argv.end(), extra.begin(), extra.end());
    pids.push_back(spawn(argv, {o.cpus[i]}, "", err));
  }
  for (size_t i = 0; i < n; ++i) {
    const Exit e = reap_any();
    run.worker_s.push_back(e.end_s - t0);
    record("shard.worker", t0, e.end_s, root, 0);
    if (!e.ok()) {
      run.ok = false;
      run.error = "shard worker " + e.describe();
    } else {
      run.maxrss_mb = std::max(run.maxrss_mb, own_peak_mb(e, "shard worker"));
    }
  }
  const double t1 = now_s();
  std::string list;
  for (const std::string& p : parts) {
    list += (list.empty() ? "" : ",") + p;
    run.partial_bytes += file_size(p);
  }
  std::vector<std::string> argv = {cli(o), "--sweep=" + axes,
                                   "--sweep-base=enhanced",
                                   "--sweep-merge=" + list};
  argv.insert(argv.end(), extra.begin(), extra.end());
  const std::string merged_path = o.work_dir + "/merged.txt";
  const Exit m = reap(spawn(argv, {o.cpus[0]}, merged_path, err));
  const double t2 = m.end_s;
  ::close(err);
  record("shard.merge", t1, t2, root, 0);
  if (root != 0) record("shard.sweep", t0, t2, 0, root);
  if (!m.ok()) {
    run.ok = false;
    run.error = "merge " + m.describe();
  } else {
    run.maxrss_mb = std::max(run.maxrss_mb, own_peak_mb(m, "merge"));
  }
  run.total_s = t2 - t0;
  run.merge_s = t2 - t1;
  run.merged = read_file(merged_path);
  return run;
}

}  // namespace

Result run_sweep_sharded(const Options& o, Tracer& tracer) {
  Result res;
  const std::string axes = cold_axes(o.seed, o.smoke);
  const analysis::SweepSpec spec = parse_spec(axes);
  const size_t cells = spec.total_cells();
  std::vector<std::string> extra;
  if (o.smoke) extra.push_back("--sweep-records=60");

  const size_t limit = o.smoke ? 60 : 500;

  // Untimed reference: the same sweep unsharded, by easyc_cli (so that
  // this process stays small while it spawns the workers whose peak RSS
  // it reports); every merged report must equal it byte for byte.
  const CliSweep unsharded = cli_sweep(o, axes, limit, kColdBatch, "", false);
  if (!unsharded.error.empty()) throw std::runtime_error(unsharded.error);
  const std::string& reference = unsharded.report;
  pin_self({o.client_cpu});

  // Set-up a user of this path pays per worker: process start, record
  // generation and server construction, timed on a one-cell shard.
  SetupTimes st;
  const auto set_up_worker = [&] {
    const double t0 = now_s();
    const Exit e = reap(spawn({cli(o), "--sweep=aci=100", "--sweep-records=1",
                               "--threads=1", "--sweep-shard=1/1",
                               "--shard-out=" + o.work_dir + "/setup.ezpart"},
                              {o.cpus[0]}, "", -1));
    st.total.push_back(e.end_s - t0);
    if (!e.ok()) res.fail("set-up worker " + e.describe());
  };
  for (int k = 0; k < 3; ++k) set_up_worker();
  res.lines.push_back("input: --sweep='" + axes + "' as " +
                      std::to_string(o.cpus.size()) +
                      " easyc_cli --sweep-shard workers (1 thread each) + "
                      "--sweep-merge, " + std::to_string(cells) + " cells");

  std::vector<double> rep_s, worker_max, worker_mean, merge_s, trace_share;
  double maxrss = 0.0;
  uint64_t partial_bytes = 0;
  uint64_t request = 0;
  const double start = now_s();
  while (now_s() - start < o.seconds || rep_s.size() < 3) {
    tracer.set_enabled(o.trace);
    ShardRun r = sharded_sweep(o, axes, extra, tracer, ++request);
    tracer.set_enabled(false);
    ++res.attempted;
    if (!r.ok) {
      res.fail(r.error);
    } else if (r.merged != reference) {
      res.fail("merged report differs from the unsharded sweep");
    }
    rep_s.push_back(r.total_s);
    trace_share.push_back(r.trace_s / r.total_s);
    worker_max.push_back(*std::max_element(r.worker_s.begin(), r.worker_s.end()));
    worker_mean.push_back(mean(r.worker_s));
    merge_s.push_back(r.merge_s);
    maxrss = std::max(maxrss, r.maxrss_mb);
    partial_bytes = r.partial_bytes;
    for (int k = 0; k < 2; ++k) set_up_worker();
  }

  if (!o.trace) {
    // The largest worker or merge of any rep.
    sweep_end_to_end(res, rep_s, cells, st, maxrss, "sweep_sharded");
    return res;
  }

  res.per_layer["shard.worker_s_max"] = median(worker_max);
  res.per_layer["shard.worker_s_mean"] = median(worker_mean);
  res.per_layer["shard.merge_s"] = median(merge_s);
  res.per_layer["shard.partial_bytes"] = static_cast<double>(partial_bytes);
  res.per_layer["trace.overhead_pct"] = median(trace_share) * 100.0;
  res.lines.push_back("process reps: worker max p50 " +
                      fmt("%.3f", median(worker_max)) + " s, merge p50 " +
                      fmt("%.3f", median(merge_s)) + " s (n=" +
                      std::to_string(rep_s.size()) + ")");

  // In-process replica of the same shards (run_sweep_shard, one
  // single-thread engine per shard, then merge_sweep_partials): the
  // kernel and cache counters the worker processes do not export. It
  // must match the in-process sweep (SweepEngine::run), which must match
  // easyc_cli's.
  pin_self(o.cpus);
  Reference in_process;
  {
    SetupTimes ignored;
    Stack s = set_up(o.cpus, limit, "", ignored);
    in_process = reference_of(
        real_sweep(*s.engine, s.records, spec, kColdBatch, nullptr), 0);
  }
  ++res.attempted;
  if (in_process.render != reference) {
    res.fail("in-process sweep differs from easyc_cli --sweep");
  }
  Records records = top500::generate_records();
  records.resize(std::min(records.size(), limit));
  std::vector<std::string> paths;
  easyc::par::CacheStats cache;
  easyc::model::BatchStats kernel;
  tracer.set_enabled(true);
  {
    Tracer::Span sweep_span(tracer, "shard.inproc", 0);
    for (size_t i = 0; i < o.cpus.size(); ++i) {
      Tracer::Span s(tracer, "shard.run", i + 1);
      auto pool = pinned_pool({o.cpus[i]});
      analysis::AssessmentEngine::Options eo;
      eo.pool = pool.get();
      analysis::AssessmentEngine engine(eo);
      analysis::SweepEngine::Options so;
      so.engine = &engine;
      so.batch_size = kColdBatch;
      analysis::SweepEngine sweep(so);
      const std::string path =
          o.work_dir + "/inproc" + std::to_string(i + 1) + ".ezpart";
      std::ofstream out(path, std::ios::binary);
      analysis::run_sweep_shard(
          sweep, records, spec,
          {static_cast<uint32_t>(i + 1), static_cast<uint32_t>(o.cpus.size())},
          out);
      out.close();
      paths.push_back(path);
      const easyc::par::CacheStats c = engine.cache_stats();
      cache.hits += c.hits;
      cache.misses += c.misses;
      const easyc::model::BatchStats b = engine.batch_stats();
      kernel.lanes += b.lanes;
      kernel.profiles += b.profiles;
      kernel.aci_db_queries += b.aci_db_queries;
    }
    std::optional<analysis::SweepReport> merged;
    {
      Tracer::Span s(tracer, "shard.merge_inproc", 0);
      merged = analysis::merge_sweep_partials(paths, records, spec);
    }
    ++res.attempted;
    if (analysis::render_sweep_report(*merged) != in_process.render ||
        !same_marginals(merged->grid_marginals, in_process.marginals)) {
      res.fail("in-process shard replica differs from the in-process sweep");
    }
  }
  tracer.set_enabled(false);
  res.per_layer["cache.hits"] = static_cast<double>(cache.hits);
  res.per_layer["cache.misses"] = static_cast<double>(cache.misses);
  res.per_layer["cache.hit_rate"] = cache.hit_rate();
  res.per_layer["kernel.lanes"] = static_cast<double>(kernel.lanes);
  res.per_layer["kernel.profiles"] = static_cast<double>(kernel.profiles);
  res.per_layer["kernel.lanes_per_profile"] =
      kernel.profiles == 0 ? 0.0
                           : static_cast<double>(kernel.lanes) /
                                 static_cast<double>(kernel.profiles);
  res.per_layer["kernel.aci_db_queries"] =
      static_cast<double>(kernel.aci_db_queries);
  return res;
}

}  // namespace ezbench
