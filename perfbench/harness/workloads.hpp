// The four benchmark workloads. Each one builds its inputs from the
// seed, sets up what a user of that path pays for (timed several times,
// median reported), measures for the requested seconds, checks every
// output, and returns named metrics. README.md in this directory says
// why each workload exists and which metric each layer should move.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace ezbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes for the smoke test (a few seconds per workload).
  bool smoke = false;
  /// CPUs the program runs on; pool threads = shard workers = size().
  std::vector<int> cpus;
  /// CPU of the benchmark's own work outside the program (the serve
  /// client, spawning and reaping workers).
  int client_cpu = 0;
  /// Directory holding the easyc_cli and easyc_serve binaries.
  std::string bin_dir;
  /// Working directory for partials, snapshots and the trace file.
  std::string work_dir;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric values by name. Units live in BENCHMARK.json; a per-layer
  /// metric a workload does not exercise stays unset and run.py
  /// reports it as 0.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable lines printed above the result (sample counts,
  /// percentiles, check outcomes, the trace file).
  std::vector<std::string> lines;

  void fail(const std::string& why) {
    correct = false;
    ++failed;
    lines.push_back("CHECK FAILED: " + why);
  }
};

Result run_sweep_cold(const Options& o, Tracer& tracer);
Result run_sweep_warm_wide(const Options& o, Tracer& tracer);
Result run_sweep_sharded(const Options& o, Tracer& tracer);
Result run_serve_mixed(const Options& o, Tracer& tracer);

}  // namespace ezbench
