// Report builders: one function per paper table/figure. Each renders a
// human-readable reproduction (ASCII table/chart + paper-vs-measured
// lines) from a PipelineResult; each bench/bench_* binary prints its
// figure before timing.
#pragma once

#include <string>

#include "analysis/pipeline.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/turnover.hpp"

namespace easyc::report {

std::string fig02_missingness(const analysis::PipelineResult& r);
std::string fig03_carbon_vs_rank_baseline(const analysis::PipelineResult& r);
std::string fig04_coverage_bars(const analysis::PipelineResult& r);
std::string fig05_op_coverage_ranges(const analysis::PipelineResult& r);
std::string fig06_emb_coverage_ranges(const analysis::PipelineResult& r);
std::string fig07_totals(const analysis::PipelineResult& r);
std::string fig08_full_assessment(const analysis::PipelineResult& r);
std::string fig09_sensitivity_diff(const analysis::PipelineResult& r);
std::string fig10_projection(const analysis::PipelineResult& r);
std::string fig11_perf_per_carbon(const analysis::PipelineResult& r);
std::string table1_data_gaps(const analysis::PipelineResult& r);
/// Per-system carbon under the three data scenarios (appendix Table II);
/// `max_rows` limits output (0 = all 500).
std::string table2_per_system(const analysis::PipelineResult& r,
                              int max_rows = 40);
std::string headline_numbers(const analysis::PipelineResult& r);
/// Per-scenario coverage/totals table over every registered scenario —
/// the part of the report the closed two-scenario pipeline could not
/// produce.
std::string scenario_summary(const analysis::PipelineResult& r);
/// Multi-edition turnover: per-edition footprints, measured growth
/// rates (paper values annotated), and the engine's cache statistics —
/// shared by the CLI's --turnover mode and the turnover ablation bench.
/// `include_cache_stats=false` drops the trailing cache line: the
/// counts legitimately differ between cold and warm-started runs, so
/// the server's deterministic reply payload excludes them (they travel
/// as a note instead).
std::string turnover_summary(const analysis::TurnoverReport& r,
                             bool include_cache_stats = true);

/// Dump machine-readable figure data as CSV files under `dir`
/// (created by the caller). Returns the list of files written.
std::vector<std::string> write_figure_csvs(const analysis::PipelineResult& r,
                                           const std::string& dir);

}  // namespace easyc::report
