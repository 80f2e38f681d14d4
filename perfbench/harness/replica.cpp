#include "replica.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>

#include "analysis/sensitivity.hpp"
#include "system.hpp"

namespace ezbench {

namespace analysis = easyc::analysis;

bool same_marginals(const std::vector<analysis::AxisMarginal>& a,
                    const std::vector<analysis::AxisMarginal>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Exact comparison: both sides sum the same cells in the same order.
    if (a[i].axis != b[i].axis || a[i].values != b[i].values ||
        a[i].mean_annualized != b[i].mean_annualized) {
      return false;
    }
  }
  return true;
}

DigestBuf::int_type DigestBuf::overflow(int_type c) {
  if (c != traits_type::eof()) {
    const char ch = traits_type::to_char_type(c);
    digest_ = fnv1a(std::string_view(&ch, 1), digest_);
    ++bytes_;
  }
  return traits_type::not_eof(c);
}

std::streamsize DigestBuf::xsputn(const char* s, std::streamsize n) {
  digest_ = fnv1a(std::string_view(s, static_cast<size_t>(n)), digest_);
  bytes_ += static_cast<uint64_t>(n);
  return n;
}

ReplicaResult replica_sweep(
    analysis::AssessmentEngine& engine,
    const std::vector<easyc::top500::SystemRecord>& records,
    const analysis::SweepSpec& spec, size_t batch_size, bool export_cells,
    Tracer& tracer, uint64_t request) {
  const double t0 = now_s();
  const easyc::par::CacheStats cache_before = engine.cache_stats();
  const easyc::model::BatchStats kernel_before = engine.batch_stats();

  ReplicaResult out;
  DigestBuf digest;
  std::ostream digest_stream(&digest);
  {
    Tracer::Span sweep_span(tracer, "sweep", request);

    std::optional<analysis::SweepExpansion> expansion;
    {
      Tracer::Span s(tracer, "expand", request);
      expansion.emplace(spec);
    }

    analysis::SweepReport report;
    report.base_name = spec.base.name;
    report.num_records = records.size();
    report.grid_cells = spec.grid_cells();
    report.mc_cells = spec.monte_carlo ? spec.monte_carlo->draws : 0;
    report.axis_cells =
        expansion->size() - 1 - report.grid_cells - report.mc_cells;
    report.total_cells = expansion->size();
    const bool streaming =
        expansion->size() >= analysis::kStreamingStatsThreshold;
    report.streaming_stats = streaming;

    const std::vector<analysis::TornadoEndpoint> endpoints =
        analysis::tornado_endpoints(spec);
    std::map<std::string, analysis::ScenarioResults> retained;
    for (const auto& e : endpoints) {
      retained[e.low_name] = {};
      retained[e.high_name] = {};
    }

    // Grid marginals, one accumulator per multi-valued axis, fed in
    // expansion order as SweepEngine::run feeds them.
    struct Marginal {
      size_t axis = 0;
      std::vector<double> sorted;
      std::vector<size_t> decl_to_sorted;
      std::vector<double> sums;
      std::vector<size_t> counts;
    };
    std::vector<Marginal> marginals;
    for (size_t a = 0; a < spec.axes.size(); ++a) {
      const std::vector<double>& values = spec.axes[a].values;
      if (values.size() < 2) continue;
      Marginal m;
      m.axis = a;
      m.sorted = values;
      std::sort(m.sorted.begin(), m.sorted.end());
      for (double v : values) {
        m.decl_to_sorted.push_back(static_cast<size_t>(
            std::lower_bound(m.sorted.begin(), m.sorted.end(), v) -
            m.sorted.begin()));
      }
      m.sums.assign(m.sorted.size(), 0.0);
      m.counts.assign(m.sorted.size(), 0);
      marginals.push_back(std::move(m));
    }

    analysis::SweepReduction reduction(streaming);
    std::optional<analysis::BinaryCellSink> sink;
    if (export_cells) sink.emplace(digest_stream);

    std::vector<analysis::ScenarioSpec> specs;
    std::vector<analysis::SweepCell> cells;
    size_t cell_index = 0;
    for (size_t start = 0; start < expansion->size(); start += batch_size) {
      Tracer::Span batch_span(tracer, "batch", request);
      const size_t end = std::min(start + batch_size, expansion->size());
      specs.clear();
      {
        Tracer::Span s(tracer, "expand", request);
        for (size_t i = start; i < end; ++i) {
          specs.push_back(expansion->cell(i));
        }
      }
      analysis::ScenarioSet batch;
      {
        Tracer::Span s(tracer, "register", request);
        for (analysis::ScenarioSpec& cell_spec : specs) {
          batch.add(std::move(cell_spec));
        }
      }
      analysis::EditionAssessment assessed;
      {
        Tracer::Span s(tracer, "engine", request);
        assessed = engine.assess(records, batch);
      }
      ++report.batches;
      cells.clear();
      {
        Tracer::Span s(tracer, "project", request);
        for (const analysis::ScenarioResults& r : assessed.scenarios) {
          cells.push_back(analysis::make_sweep_cell(r));
        }
      }
      const size_t first = cell_index;
      {
        Tracer::Span s(tracer, "reduce", request);
        for (const analysis::SweepCell& cell : cells) {
          if (cell_index == 0) report.base = cell;
          reduction.add(cell);
          if (cell.kind == analysis::SweepCellKind::kGrid) {
            const size_t g = cell_index - expansion->grid_begin();
            for (Marginal& m : marginals) {
              const size_t si =
                  m.decl_to_sorted[expansion->grid_value_index(g, m.axis)];
              m.sums[si] += cell.annualized_mt;
              ++m.counts[si];
            }
          }
          ++cell_index;
        }
      }
      if (sink) {
        Tracer::Span s(tracer, "encode", request);
        for (size_t k = 0; k < cells.size(); ++k) {
          sink->cell(0, first + k, cells[k]);
        }
      }
      for (analysis::ScenarioResults& r : assessed.scenarios) {
        if (auto it = retained.find(r.spec.name); it != retained.end()) {
          it->second = std::move(r);
        }
      }
    }
    if (sink) {
      Tracer::Span s(tracer, "encode", request);
      sink->finish();
    }

    {
      Tracer::Span s(tracer, "tornado", request);
      for (const auto& e : endpoints) {
        const analysis::ScenarioResults& low = retained.at(e.low_name);
        const analysis::ScenarioResults& high = retained.at(e.high_name);
        const analysis::SensitivityReport sens =
            analysis::sensitivity(records, low, high);
        analysis::TornadoRow row;
        row.axis = e.axis;
        row.low = e.low;
        row.high = e.high;
        row.low_annualized_mt = low.annualized_total_mt();
        row.high_annualized_mt = high.annualized_total_mt();
        row.swing_mt = row.high_annualized_mt - row.low_annualized_mt;
        row.swing_pct =
            report.base.annualized_mt == 0.0
                ? 0.0
                : row.swing_mt / report.base.annualized_mt * 100.0;
        row.op_total_pct = sens.op_total_pct;
        row.emb_total_pct = sens.emb_total_pct;
        row.op_max_abs_pct = sens.op_max_abs_pct;
        row.emb_max_abs_pct = sens.emb_max_abs_pct;
        report.tornado.push_back(row);
      }
    }
    {
      Tracer::Span s(tracer, "reduce", request);
      report.annualized_mt = reduction.annualized_mt();
      report.op_total_mt = reduction.op_total_mt();
      report.emb_total_mt = reduction.emb_total_mt();
      for (Marginal& m : marginals) {
        analysis::AxisMarginal out_m;
        out_m.axis = spec.axes[m.axis].axis;
        out_m.values = std::move(m.sorted);
        out_m.mean_annualized.assign(out_m.values.size(), 0.0);
        for (size_t i = 0; i < out_m.values.size(); ++i) {
          if (m.counts[i] > 0) {
            out_m.mean_annualized[i] =
                m.sums[i] / static_cast<double>(m.counts[i]);
          }
        }
        out.marginals.push_back(std::move(out_m));
      }
    }
    {
      Tracer::Span s(tracer, "render", request);
      out.render = analysis::render_sweep_report(report);
    }
  }
  out.seconds = now_s() - t0;
  out.cache = engine.cache_stats().since(cache_before);
  const easyc::model::BatchStats after = engine.batch_stats();
  out.kernel.lanes = after.lanes - kernel_before.lanes;
  out.kernel.profiles = after.profiles - kernel_before.profiles;
  out.kernel.validations = after.validations - kernel_before.validations;
  out.kernel.aci_keys = after.aci_keys - kernel_before.aci_keys;
  out.kernel.aci_db_queries =
      after.aci_db_queries - kernel_before.aci_db_queries;
  out.kernel.aci_hoisted = after.aci_hoisted - kernel_before.aci_hoisted;
  if (export_cells) {
    out.export_digest = digest.digest();
    out.export_bytes = digest.bytes();
  }
  return out;
}

}  // namespace ezbench
