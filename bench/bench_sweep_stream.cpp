// Million-cell sweep with streamed cells: the perf target behind lazy
// expansion (SweepExpansion), the exact reduction (SweepReduction, three
// doubles per cell) and the columnar binary export — a 1,000,007-cell
// grid swept on one worker with cell retention off, every cell flowing
// through a BinaryCellSink into a discarding stream.
//
// Gated counters (tools/check_bench_regression.py vs
// bench/baseline.json): cells_per_s (throughput) and peak_rss_mb
// (process peak RSS after the sweep). The reduction's three 1e6-double
// series (~24 MB) are the bulk of that peak; retaining this grid
// instead would add ~1e6 SweepCells with two heap strings each — the
// counter pins that the streamed run stays well below that.
//
// Unlike the other bench binaries this one defines its own main and
// never touches bench::shared_pipeline(): peak RSS is process-wide
// and monotone, so nothing but the sweep may contribute to it.
#include <benchmark/benchmark.h>

#include <streambuf>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "analysis/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "top500/generator.hpp"

namespace {

using easyc::analysis::AssessmentEngine;
using easyc::analysis::BinaryCellSink;
using easyc::analysis::SweepEngine;
using easyc::analysis::SweepSpec;

// 50 ACI x 50 PUE x 400 lifetime values = 1e6 grid cells (+ base and 6
// tornado endpoints). The lifetime axis never reaches the assessment
// fingerprint, so the memo cache holds 50x50 = 2500 distinct
// assessments per record — the engine-side memory is negligible and
// the measurement isolates the per-cell sweep machinery itself.
constexpr const char* kMillionSpec =
    "aci=0:800:50;pue=1.05:1.95:50;life=2:12:400";

// Generated systems assessed per cell. Small so the bench measures
// per-cell orchestration (expansion, reduction, export), which is what
// scales with cell count, not the per-record model kernel.
constexpr size_t kRecords = 8;

const std::vector<easyc::top500::SystemRecord>& records8() {
  static const auto kRecords8 = [] {
    auto all = easyc::top500::generate_records();
    all.resize(kRecords);
    return all;
  }();
  return kRecords8;
}

// Swallows every byte: the export pays full serialization cost without
// accumulating the ~100 MB file in memory (which would pollute the
// peak-RSS counter).
class NullBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override {
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
#endif
#else
  return 0.0;
#endif
}

void BM_SweepStream1M(benchmark::State& state) {
  const auto spec = SweepSpec::parse(kMillionSpec);
  const auto cells = static_cast<int64_t>(spec.total_cells());
  easyc::par::ThreadPool one(1);
  size_t assessed = 0;
  for (auto _ : state) {
    AssessmentEngine engine({.pool = &one});
    SweepEngine::Options opt;
    opt.engine = &engine;
    opt.batch_size = 1024;
    opt.retain_cells = false;  // the report renders from the stream
    NullBuf null;
    std::ostream devnull(&null);
    BinaryCellSink sink(devnull, 4096);
    const auto report = SweepEngine(opt).run(records8(), spec, &sink);
    sink.finish();
    assessed = report.total_cells;
    benchmark::DoNotOptimize(&report);
  }
  state.SetItemsProcessed(state.iterations() * cells);
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cells),
      benchmark::Counter::kIsRate);
  state.counters["peak_rss_mb"] = benchmark::Counter(peak_rss_mb());
  if (assessed != static_cast<size_t>(cells)) {
    state.SkipWithError("cell count mismatch");
  }
}
BENCHMARK(BM_SweepStream1M)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
