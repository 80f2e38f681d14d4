// The scenario-grid sweep engine: cells/sec over a real axis grid,
// cold vs warm.
//
// Report: one moderate grid (4 ACI x 3 PUE x 3 utilization x 2
// lifetimes plus endpoints and base = 81 derived scenarios) swept over
// the full 500-system list on one worker, first with a cold memo cache
// and then again on the same engine. The warm pass is the steady state
// of iterating on a sweep (new axes over unchanged scenarios, a
// --cache-file restart): pure lookups, no model evaluations. The
// google-benchmark timings below feed the CI regression gate
// (tools/check_bench_regression.py vs bench/baseline.json).
#include "bench/common.hpp"

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using easyc::analysis::AssessmentEngine;
using easyc::analysis::SweepEngine;
using easyc::analysis::SweepSpec;
using easyc::util::format_double;

constexpr const char* kGridSpec =
    "aci=25:600:4;pue=1.1:1.6:3;util=0.5:0.9:3;life=4,8";

const std::vector<easyc::top500::SystemRecord>& records500() {
  static const auto kRecords = easyc::top500::generate_records();
  return kRecords;
}

std::string sweep_report() {
  const auto spec = SweepSpec::parse(kGridSpec);
  const size_t cells = spec.total_cells();
  easyc::par::ThreadPool one(1);
  AssessmentEngine engine({.pool = &one});
  SweepEngine::Options opt;
  opt.engine = &engine;
  SweepEngine sweep(opt);

  auto run_once = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = sweep.run(records500(), spec);
    const auto t1 = std::chrono::steady_clock::now();
    return std::make_pair(std::chrono::duration<double>(t1 - t0).count(),
                          report.cache.hit_rate());
  };
  const auto [t_cold, cold_rate] = run_once();
  const auto [t_warm, warm_rate] = run_once();

  const double n = static_cast<double>(cells);
  std::string out = "Scenario-grid sweep — " + std::to_string(cells) +
                    " derived scenarios x " +
                    std::to_string(records500().size()) +
                    " systems, 1 worker\n";
  out += "  spec: " + std::string(kGridSpec) + "\n";
  out += "  cold: " + format_double(t_cold * 1000, 1) + " ms (" +
         format_double(n / t_cold, 0) + " cells/sec, " +
         format_double(cold_rate * 100, 1) + "% hits)\n";
  out += "  warm: " + format_double(t_warm * 1000, 1) + " ms (" +
         format_double(n / t_warm, 0) + " cells/sec, " +
         format_double(warm_rate * 100, 1) + "% hits, " +
         format_double(t_cold / t_warm, 2) + "x)\n";

  // Adaptive refinement economics on a fresh engine: every round keeps
  // the previous values, so the refined rounds re-run the old grid as
  // cache lookups and only pay for the densified cells.
  {
    easyc::par::ThreadPool worker(1);
    AssessmentEngine fresh({.pool = &worker});
    SweepEngine::Options aopt;
    aopt.engine = &fresh;
    easyc::analysis::RefineOptions refine;
    refine.top_axes = 2;
    refine.rounds = 2;
    const auto report =
        SweepEngine(aopt).run_adaptive(records500(), spec, refine);
    out += "  adaptive (--sweep-refine 2@2):\n";
    for (const auto& round : report.refinement) {
      out += "    round " + std::to_string(round.round) + ": " +
             std::to_string(round.cells) + " cells, " +
             format_double(round.cache.hit_rate() * 100, 1) + "% hits\n";
    }
  }
  return out;
}

// Pure expansion: the grammar + cartesian generator without any
// assessment. This bounds how much of a sweep is orchestration.
void BM_SweepExpandGrid(benchmark::State& state) {
  const auto spec = SweepSpec::parse(kGridSpec);
  for (auto _ : state) {
    const easyc::analysis::SweepExpansion expansion(spec);
    for (size_t i = 0; i < expansion.size(); ++i) {
      auto cell = expansion.cell(i);
      benchmark::DoNotOptimize(&cell);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.total_cells()));
}
BENCHMARK(BM_SweepExpandGrid)->Unit(benchmark::kMillisecond);

// Cold grid: a fresh engine per iteration, every distinct cell pays a
// model evaluation. items/sec = sweep cells per second.
void BM_SweepColdGrid(benchmark::State& state) {
  const auto spec = SweepSpec::parse(kGridSpec);
  for (auto _ : state) {
    SweepEngine sweep;
    auto report = sweep.run(records500(), spec);
    benchmark::DoNotOptimize(&report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.total_cells()));
}
BENCHMARK(BM_SweepColdGrid)->Unit(benchmark::kMillisecond);

// Warm grid: shared engine, primed cache — the memoized steady state.
void BM_SweepWarmGrid(benchmark::State& state) {
  const auto spec = SweepSpec::parse(kGridSpec);
  AssessmentEngine engine;
  SweepEngine::Options opt;
  opt.engine = &engine;
  SweepEngine sweep(opt);
  sweep.run(records500(), spec);  // prime
  for (auto _ : state) {
    auto report = sweep.run(records500(), spec);
    benchmark::DoNotOptimize(&report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.total_cells()));
}
BENCHMARK(BM_SweepWarmGrid)->Unit(benchmark::kMillisecond);

// The sweep reduction's summary kernel over a grid-sized sample, three
// summaries per iteration like the report reduction (annualized, op,
// emb). util::summarize now sorts once and reads every order statistic
// from the sorted copy instead of re-copying and re-sorting per
// percentile (plus separate min/max scans); the outputs are
// bit-identical (stats_test pins every field against the independent
// computations), only the redundant O(n log n) passes are gone.
void BM_SweepReduceSummaries(benchmark::State& state) {
  std::vector<double> cells(4096);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<double>((i * 7919) % 4096) * 0.5;
  }
  for (auto _ : state) {
    auto a = easyc::util::summarize(cells);
    auto b = easyc::util::summarize(cells);
    auto c = easyc::util::summarize(cells);
    benchmark::DoNotOptimize(&a);
    benchmark::DoNotOptimize(&b);
    benchmark::DoNotOptimize(&c);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(3 * cells.size()));
}
BENCHMARK(BM_SweepReduceSummaries)->Unit(benchmark::kMicrosecond);

// The streaming counterpart: the same three distributions reduced
// through util::StreamingSummary (Welford moments + P² quantiles, the
// O(1)-memory mode big sweeps switch to) instead of store-all + sort.
// Comparing against BM_SweepReduceSummaries shows what a cell costs in
// each mode — streaming trades the terminal O(n log n) sort for
// constant per-cell marker updates.
void BM_SweepReduceStreaming(benchmark::State& state) {
  std::vector<double> cells(4096);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<double>((i * 7919) % 4096) * 0.5;
  }
  for (auto _ : state) {
    easyc::util::StreamingSummary a, b, c;
    for (const double x : cells) {
      a.add(x);
      b.add(x);
      c.add(x);
    }
    auto sa = a.summary();
    auto sb = b.summary();
    auto sc = c.summary();
    benchmark::DoNotOptimize(&sa);
    benchmark::DoNotOptimize(&sb);
    benchmark::DoNotOptimize(&sc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(3 * cells.size()));
}
BENCHMARK(BM_SweepReduceStreaming)->Unit(benchmark::kMicrosecond);

// Warm grid with the per-cell CSV sink attached: the marginal cost of
// --cells-out on top of the assessment (string formatting + quoting).
void BM_SweepWarmGridCsvExport(benchmark::State& state) {
  const auto spec = SweepSpec::parse(kGridSpec);
  AssessmentEngine engine;
  SweepEngine::Options opt;
  opt.engine = &engine;
  SweepEngine sweep(opt);
  sweep.run(records500(), spec);  // prime
  for (auto _ : state) {
    std::ostringstream csv;
    easyc::analysis::CsvCellSink sink(csv);
    auto report = sweep.run(records500(), spec, &sink);
    benchmark::DoNotOptimize(&report);
    benchmark::DoNotOptimize(&csv);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.total_cells()));
}
BENCHMARK(BM_SweepWarmGridCsvExport)->Unit(benchmark::kMillisecond);

// Seeded Monte-Carlo arm: 64 prior draws, cold. Dominated by model
// evaluations (every draw is a distinct fingerprint).
void BM_SweepMonteCarlo64(benchmark::State& state) {
  const auto spec = SweepSpec::parse("mc=64@42");
  for (auto _ : state) {
    SweepEngine sweep;
    auto report = sweep.run(records500(), spec);
    benchmark::DoNotOptimize(&report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.total_cells()));
}
BENCHMARK(BM_SweepMonteCarlo64)->Unit(benchmark::kMillisecond);

}  // namespace

EASYC_FIGURE_BENCH_MAIN(sweep_report())
