// The sweep replica: SweepEngine::run's loop rebuilt from the public
// layer functions, one span per layer call, so the traced run can split
// a sweep's time across expand (SweepExpansion::cell), register
// (ScenarioSet::add), engine (AssessmentEngine::assess), project
// (make_sweep_cell), reduce (SweepReduction::add, the grid marginals
// and finalize), encode (BinaryCellSink), tornado (sensitivity) and render
// (render_sweep_report). Within a batch each layer runs as its own loop
// so one span covers one layer's whole share of the batch.
//
// The replica must render byte-identically to SweepEngine::run for the
// same inputs, and produce the same grid marginals (which the render
// does not print); every workload checks both, so a change to the real
// loop that the replica does not mirror shows up as a failed check
// rather than as a silently wrong per-layer split.
#pragma once

#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "analysis/sweep.hpp"
#include "trace.hpp"

namespace ezbench {

struct ReplicaResult {
  std::string render;          ///< render_sweep_report output
  /// SweepReport::grid_marginals as SweepEngine::run builds them.
  std::vector<easyc::analysis::AxisMarginal> marginals;
  uint64_t export_digest = 0;  ///< FNV-1a of the EZCELLS bytes (0 = none)
  uint64_t export_bytes = 0;
  easyc::par::CacheStats cache;     ///< engine activity during the sweep
  easyc::model::BatchStats kernel;  ///< kernel counters during the sweep
  double seconds = 0.0;
};

/// Run `spec` over `records` on `engine` the way SweepEngine::run does
/// (stats mode auto, no cell retention), optionally exporting every
/// cell through a BinaryCellSink into a hashing stream.
ReplicaResult replica_sweep(easyc::analysis::AssessmentEngine& engine,
                            const std::vector<easyc::top500::SystemRecord>&
                                records,
                            const easyc::analysis::SweepSpec& spec,
                            size_t batch_size, bool export_cells,
                            Tracer& tracer, uint64_t request);

/// Exact equality of two grid-marginal lists (axis, values, means).
bool same_marginals(const std::vector<easyc::analysis::AxisMarginal>& a,
                    const std::vector<easyc::analysis::AxisMarginal>& b);

/// A stream buffer that keeps only a running FNV-1a digest and a byte
/// count of what is written through it, so exports are checked and
/// sized without touching the disk.
class DigestBuf : public std::streambuf {
 public:
  uint64_t digest() const { return digest_; }
  uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  uint64_t bytes_ = 0;
};

}  // namespace ezbench
