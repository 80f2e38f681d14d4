// ezbench — the EasyC end-to-end benchmark harness.
//
//   ezbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --cpus <a,b,c> --client-cpu <c> --bin-dir <dir>
//           --work-dir <dir> [--source <digest>] [--smoke]
//
// perfbench/run.py builds this and the program, picks the CPU set and
// calls it; see README.md. Human-readable lines go to stdout first; the
// last line is one JSON object with correct/attempted/failed/metrics,
// the metrics as name -> value: the end-to-end ones untraced (--trace 0)
// or the per-layer ones from the traced run (--trace 1).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "system.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace ezbench;

std::vector<int> parse_cpus(const std::string& text) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t comma = text.find(',', pos);
    out.push_back(std::atoi(text.substr(pos, comma - pos).c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// {"name": value, ...}: BENCHMARK.json is the one list of metric names
// and units; run.py attaches the units and rejects names it does not
// declare.
std::string metrics_json(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + json_number(v);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "ezbench: refusing to measure a build with assertions on; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  Options o;
  std::string cpus = "0", source = "unknown", trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ezbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--cpus") cpus = value();
    else if (a == "--client-cpu") o.client_cpu = std::atoi(value().c_str());
    else if (a == "--bin-dir") o.bin_dir = value();
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--source") source = value();
    else if (a == "--smoke") o.smoke = true;
    else {
      std::fprintf(stderr, "ezbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  o.cpus = parse_cpus(cpus);
  if (o.cpus.empty() || o.bin_dir.empty() || o.work_dir.empty()) {
    std::fprintf(stderr, "ezbench: --cpus, --bin-dir and --work-dir are required\n");
    return 2;
  }

  std::printf("env: nproc=%ld cpus=%s threads=%zu client_cpu=%d seed=%llu "
              "seconds=%g trace=%d source=%s build=Release%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), cpus.c_str(), o.cpus.size(),
              o.client_cpu, static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, source.c_str(), o.smoke ? " smoke" : "");

  Tracer tracer(false);
  Result r;
  try {
    if (o.workload == "sweep_cold") r = run_sweep_cold(o, tracer);
    else if (o.workload == "sweep_warm_wide") r = run_sweep_warm_wide(o, tracer);
    else if (o.workload == "sweep_sharded") r = run_sweep_sharded(o, tracer);
    else if (o.workload == "serve_mixed") r = run_serve_mixed(o, tracer);
    else {
      std::fprintf(stderr, "ezbench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
    if (o.trace) {
      trace_path = o.work_dir + "/trace.json";
      tracer.write_chrome(trace_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ezbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  if (r.attempted == 0) r.fail("the workload attempted nothing");
  r.attempted = std::max(r.attempted, r.failed);
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  if (o.trace) {
    std::printf("trace: %zu spans -> %s\n", tracer.size(), trace_path.c_str());
    for (const auto& [name, v] : r.per_layer) {
      std::printf("  %-26s %.6g\n", name.c_str(), v);
    }
  } else {
    for (const auto& [name, v] : r.end_to_end) {
      std::printf("  %-26s %.6g\n", name.c_str(), v);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(o.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}
