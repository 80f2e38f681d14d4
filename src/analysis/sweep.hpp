// Scenario-grid sweep engine: expand axis specifications into thousands
// of derived scenarios and drive them through the shared
// AssessmentEngine in batched cell blocks.
//
// The paper probes how much EasyC's priors matter with exactly two
// hand-picked scenarios (Fig. 9, the +/-77.5% ACI swing); the ROADMAP's
// north star asks for "as many scenarios as you can imagine". Since
// per-(record, scenario) assessment became memoized, persistent, and
// sharded, the marginal cost of a derived scenario is near zero — this
// module supplies the generator. A SweepSpec declares value lists or
// linspace ranges over the model's what-if axes (grid ACI, PUE, fab
// electricity intensity, utilization prior, amortization lifetime) plus
// optional seeded Monte-Carlo draws from model::PriorRanges; the
// SweepEngine expands the cartesian grid into derived ScenarioSpecs,
// runs them in batched blocks over one AssessmentEngine (so the LRU
// memo cache and thread pool amortize across the whole grid), and
// reduces the per-cell results into a SweepReport: per-axis tornado
// swings (reusing analysis::sensitivity's two-scenario compare as the
// inner kernel), total-footprint percentiles across every cell, and
// the engine CacheStats that make the memoization win measurable.
//
// Scale: expansion is lazy (SweepExpansion derives cell i on demand)
// and the reduction keeps only three doubles per cell (SweepReduction,
// exact percentiles at every size), so with cell retention off a
// million-cell sweep runs at one batch plus 24 B per cell — cells
// stream to sinks (CSV, columnar binary, or a fan-out tee) instead of
// accumulating in the report.
//
// Determinism: each cell is a pure function of (record content, derived
// spec), batches are ordered engine calls, and every reduction iterates
// in registration order, so the rendered report is byte-identical for
// any thread count, any batch size, and any cache state (cold, warm,
// or restored from a snapshot file). The lifetime axis is deliberately
// cheap: service_years is excluded from ScenarioSpec::fingerprint(),
// so lifetime-derived cells alias their siblings' assessments and cost
// only cache lookups.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "analysis/scenario.hpp"
#include "easyc/uncertainty.hpp"
#include "util/stats.hpp"

namespace easyc::analysis {

/// The sweepable what-if axes — exactly the ScenarioSpec override knobs
/// (lifetime reaches annualized totals only; the rest reach the model).
enum class SweepAxis {
  kAci,          ///< aci_override_g_kwh (gCO2e/kWh, fleet-wide)
  kPue,          ///< pue_override
  kFab,          ///< fab_aci_kg_kwh (kgCO2e/kWh)
  kUtilization,  ///< default_utilization prior, (0,1]
  kLifetime,     ///< service_years for amortization
};

inline constexpr size_t kNumSweepAxes =
    static_cast<size_t>(SweepAxis::kLifetime) + 1;

/// Canonical grammar name ("aci", "pue", "fab", "util", "life").
std::string_view axis_name(SweepAxis axis);

/// Parse a grammar name; accepts the canonical short form plus the
/// spelled-out aliases "utilization" and "lifetime". nullopt = unknown.
std::optional<SweepAxis> axis_from_name(std::string_view name);

/// Set the one override an axis controls, leaving the rest of the spec
/// (and its name) untouched.
ScenarioSpec apply_axis(ScenarioSpec spec, SweepAxis axis, double value);

/// One axis of the grid: the values it takes, in declaration order.
struct AxisValues {
  SweepAxis axis = SweepAxis::kAci;
  std::vector<double> values;
};

/// Optional seeded Monte-Carlo arm: `draws` derived scenarios sampled
/// from model::PriorRanges via model::perturb_options (the same prior
/// model the uncertainty module uses). Only the spec-expressible subset
/// of a draw reaches a derived scenario: the utilization and fab
/// intensity perturbations always, the ACI scale only when the base
/// scenario pins an absolute aci_override_g_kwh to scale.
struct MonteCarloSpec {
  size_t draws = 0;
  uint64_t seed = 0;
  model::PriorRanges ranges;
};

/// A declarative sweep: a base scenario, the axes to vary, and an
/// optional Monte-Carlo arm. Expansion derives (in this order) the base
/// cell, two single-axis tornado endpoints per multi-valued axis, the
/// full cartesian grid, and the Monte-Carlo draws.
struct SweepSpec {
  ScenarioSpec base;             ///< derived cells start from this spec
  std::vector<AxisValues> axes;  ///< each axis at most once
  std::optional<MonteCarloSpec> monte_carlo;

  /// Parse the axis-spec grammar:
  ///
  ///   spec  := part (';' part)*
  ///   part  := axis '=' values | 'mc=' draws '@' seed
  ///   axis  := 'aci' | 'pue' | 'fab' | 'util' | 'life'
  ///   values:= v (',' v)*            -- explicit list
  ///          | lo ':' hi ':' n       -- n-point linspace, n >= 2
  ///
  /// e.g. "aci=25,229,600;pue=1.1:1.6:6;life=4,6,8;mc=200@42".
  /// Throws util::ParseError on unknown axes, malformed values,
  /// duplicate axes, or duplicate values within one axis.
  static SweepSpec parse(std::string_view text,
                         ScenarioSpec base = scenarios::enhanced());

  size_t grid_cells() const;   ///< product of axis sizes (0 without axes)
  size_t total_cells() const;  ///< base + endpoints + grid + Monte-Carlo
};

/// Lazy view of a sweep's expansion: derives the i-th ScenarioSpec on
/// demand instead of materializing all of them, so a million-cell grid
/// costs index arithmetic plus one spec construction per visited cell —
/// the SweepEngine's peak memory stays at one batch regardless of cell
/// count. cell(i) is a pure function of (spec, i) and enumerates the
/// expansion order documented on SweepSpec: base, tornado endpoints
/// (low/high per multi-valued axis), the cartesian grid in odometer
/// order (last declared axis fastest), then Monte-Carlo draws.
///
/// The constructor validates axis values (physical ranges, plus
/// duplicate detection at cell-naming precision) and throws util::Error
/// — the same failures ScenarioSet registration used to surface, moved
/// ahead of the first engine call. Per-cell spec validation still runs
/// when a cell joins a batch ScenarioSet.
class SweepExpansion {
 public:
  explicit SweepExpansion(SweepSpec spec);

  size_t size() const { return total_; }
  const SweepSpec& spec() const { return spec_; }

  /// The index-th derived scenario, expansion order. index < size().
  /// Cell names are deterministic: "sweep/base",
  /// "sweep/axis/<axis>=<value>", "sweep/grid/<axis>=<v>/...",
  /// "sweep/mc/<index>".
  ScenarioSpec cell(size_t index) const;

  /// Grid cells occupy expansion indices [grid_begin, grid_begin +
  /// grid_cells). grid_value_index recovers, for grid cell
  /// `grid_index` (zero-based within the grid), which of
  /// spec().axes[axis].values it is pinned at — O(1) odometer
  /// arithmetic, so SweepFold buckets a cell into its marginal without
  /// comparing coordinate doubles.
  size_t grid_begin() const { return 1 + endpoints_.size(); }
  size_t grid_cells() const { return grid_; }
  /// Tornado endpoints occupy expansion indices [1, grid_begin()).
  bool is_endpoint(size_t index) const {
    return index >= 1 && index < grid_begin();
  }
  size_t grid_value_index(size_t grid_index, size_t axis) const {
    return (grid_index / strides_[axis]) % spec_.axes[axis].values.size();
  }

 private:
  struct Endpoint {
    SweepAxis axis = SweepAxis::kAci;
    double value = 0.0;
    std::string name;
  };

  SweepSpec spec_;
  std::string base_label_;
  std::vector<Endpoint> endpoints_;  ///< low, high per multi-valued axis
  std::vector<size_t> strides_;      ///< odometer stride per axis
  size_t grid_ = 0;
  size_t total_ = 0;
};

/// Which expansion arm produced a cell. Recoverable from the cell's
/// deterministic name (see cell_kind_from_name), tracked explicitly so
/// reductions and exports never re-parse names.
enum class SweepCellKind { kBase, kAxisEndpoint, kGrid, kMonteCarlo };

/// Export label ("base", "axis", "grid", "mc").
std::string_view cell_kind_name(SweepCellKind kind);

/// Inverse of the expansion naming scheme ("sweep/base",
/// "sweep/axis/...", "sweep/grid/...", "sweep/mc/..."). Throws
/// util::Error for a name this module never generates.
SweepCellKind cell_kind_from_name(std::string_view cell_name);

/// The one override value `axis` holds in a derived spec: the optional
/// override knob for aci/pue/fab/util (nullopt = model default), the
/// always-present service_years for life.
std::optional<double> axis_value(const ScenarioSpec& spec, SweepAxis axis);

/// One derived scenario's aggregate footprint (full per-record series
/// are reduced batch by batch; only the tornado endpoints retain them).
struct SweepCell {
  std::string name;
  std::string description;
  SweepCellKind kind = SweepCellKind::kBase;
  uint64_t fingerprint = 0;      ///< the spec's assessment identity
  /// Effective axis coordinates of the derived spec, indexed by
  /// SweepAxis (axis_value over every axis).
  std::array<std::optional<double>, kNumSweepAxes> coords;
  double op_total_mt = 0.0;      ///< covered operational total, MT/yr
  double emb_total_mt = 0.0;     ///< covered embodied total, MT
  double annualized_mt = 0.0;    ///< op + emb / service_years, MT/yr
  int op_covered = 0;
  int emb_covered = 0;
};

/// Reduce one assessed scenario to its SweepCell aggregates — the one
/// projection both the in-process sweep loop and the shard worker
/// (sweep_shard.hpp) apply, so a sharded run cannot drift from a
/// single-process one cell field by cell field.
SweepCell make_sweep_cell(const ScenarioResults& results);

/// Streaming consumer of per-cell sweep results. `cell` is invoked once
/// per assessed cell, always in deterministic order — rounds ascending,
/// cells in expansion order within a round — regardless of thread
/// count, batch size, or cache state: the bit-identity guarantee of the
/// rendered report extends to anything a sink writes. `round` is 0 for
/// the coarse grid (and for every SweepEngine::run cell); adaptive
/// refinement re-emits each round's cells with its round number.
class SweepCellSink {
 public:
  virtual ~SweepCellSink() = default;
  virtual void cell(size_t round, size_t index, const SweepCell& cell) = 0;
};

/// RFC-4180 CSV sink: a header row on construction, then one row per
/// cell — round, index, kind, scenario name, assessment fingerprint
/// (hex), the five axis coordinates (empty = model default), footprint
/// aggregates, coverage counts, and the cell description. Every field
/// is routed through util::csv_escape, so scenario names/descriptions
/// embedding ',', '"', or newlines round-trip through any CSV reader.
/// Fails fast: throws util::Error the moment the output stream reports
/// failure (construction or any row), so a full disk at cell 10 of a
/// million aborts the sweep instead of silently burning the rest.
class CsvCellSink : public SweepCellSink {
 public:
  explicit CsvCellSink(std::ostream& out);
  void cell(size_t round, size_t index, const SweepCell& cell) override;

  /// The column schema, in emission order (documented in README.md).
  static const std::vector<std::string>& columns();

 private:
  std::ostream& out_;
};

/// Fan-out splitter: forwards every cell to each attached sink, in
/// attachment order (e.g. a CSV file and a binary export from one
/// sweep). Sinks are borrowed, not owned; an exception from any sink
/// propagates, preserving the fail-fast contract.
class TeeCellSink : public SweepCellSink {
 public:
  /// All sinks must be non-null.
  explicit TeeCellSink(std::vector<SweepCellSink*> sinks);
  void cell(size_t round, size_t index, const SweepCell& cell) override;

 private:
  std::vector<SweepCellSink*> sinks_;
};

/// Columnar little-endian binary cell export (the "EZCELLS" format,
/// specified in README.md). Same integrity policy as the cache
/// snapshot format: magic + version header, and every cell block
/// carries an FNV-1a checksum over its payload, so truncated or
/// corrupt files are rejected by the reader, never trusted. Cells are
/// buffered and written as columnar blocks of `block_cells` rows;
/// call finish() (or let the destructor) to flush the tail block and
/// the footer — a file without its footer is detectably truncated.
/// Fails fast: throws util::Error when the stream reports failure at
/// any flushed block. The destructor swallows flush errors; call
/// finish() explicitly to observe them.
class BinaryCellSink : public SweepCellSink {
 public:
  static constexpr std::string_view kMagic = "EZCELLS\n";
  static constexpr uint32_t kFormatVersion = 1;

  explicit BinaryCellSink(std::ostream& out, size_t block_cells = 4096);
  ~BinaryCellSink() override;

  void cell(size_t round, size_t index, const SweepCell& cell) override;

  /// Flush buffered cells and write the footer. Idempotent; no cells
  /// may be appended afterwards. Throws util::Error on stream failure.
  void finish();

 private:
  struct Row {
    size_t round = 0;
    size_t index = 0;
    SweepCell cell;
  };

  void flush_block();

  std::ostream& out_;
  size_t block_cells_;
  std::vector<Row> buffer_;
  size_t total_ = 0;
  bool finished_ = false;
};

/// Decode an EZCELLS stream block by block (bounded memory), replaying
/// every cell into `sink` in stored order. Returns the cell count.
/// Throws util::CodecError on a bad magic/version, checksum mismatch,
/// schema drift, truncation (including a missing footer), or trailing
/// garbage. `read_binary_cells(in, CsvCellSink(out))` reproduces the
/// direct CSV export of the same sweep byte for byte.
///
/// `expect_eof` (default) rejects trailing bytes after the footer — a
/// standalone export file must end there. The EZPART partial codec
/// embeds an EZCELLS stream mid-file and passes false: the stream is
/// self-delimiting (the checksummed footer), so the reader stops
/// exactly at its end and leaves the stream positioned on whatever
/// follows.
size_t read_binary_cells(std::istream& in, SweepCellSink& sink,
                         bool expect_eof = true);

/// One multi-valued axis's tornado endpoints: the extreme values and
/// the deterministic cell names the expansion gives them. Expansion
/// and the tornado rows (SweepFold) both derive from this one helper,
/// so their cell names are structurally incapable of diverging.
/// Endpoints occupy expansion indices [1, 1 + 2*size()): low then
/// high, spec axis order; the fold and the shard partial codec key
/// endpoint results by that index.
struct TornadoEndpoint {
  SweepAxis axis = SweepAxis::kAci;
  double low = 0.0;
  double high = 0.0;
  std::string low_name;
  std::string high_name;
};

std::vector<TornadoEndpoint> tornado_endpoints(const SweepSpec& spec);

/// One axis's tornado bar: the base-anchored swing between the axis's
/// extreme values with every other knob at the base scenario's value.
/// The low/high comparison is analysis::sensitivity's two-scenario
/// kernel, so the per-system extremes come along for free.
struct TornadoRow {
  SweepAxis axis = SweepAxis::kAci;
  double low = 0.0;               ///< smallest axis value
  double high = 0.0;              ///< largest axis value
  double low_annualized_mt = 0.0;
  double high_annualized_mt = 0.0;
  double swing_mt = 0.0;          ///< high - low, annualized MT/yr
  double swing_pct = 0.0;         ///< swing vs the base cell's annualized
  double op_total_pct = 0.0;      ///< aggregate op change low -> high
  double emb_total_pct = 0.0;
  double op_max_abs_pct = 0.0;    ///< largest per-system |op change|
  double emb_max_abs_pct = 0.0;
};

/// One axis's contribution to a refinement round: the steepest adjacent
/// value pair of its marginal response, densified with new points.
struct RefinedAxis {
  SweepAxis axis = SweepAxis::kAci;
  double seg_lo = 0.0;   ///< steepest segment, lower value
  double seg_hi = 0.0;   ///< steepest segment, upper value
  size_t added = 0;      ///< new values inserted (after precision dedup)
  double swing_mt = 0.0; ///< the tornado swing that ranked this axis
};

/// Per-round trace of an adaptive sweep. Round 0 is the coarse grid
/// (no refined axes); each later round re-runs the grid with the
/// refined axes. `cache` is the engine activity attributable to this
/// round — it legitimately differs between cold and warm-started runs
/// and is therefore never rendered; everything else is deterministic.
struct RefinementRound {
  size_t round = 0;
  size_t cells = 0;               ///< cells assessed this round
  std::vector<RefinedAxis> refined;
  par::CacheStats cache;
};

// ---- Benchmark-replica compatibility -------------------------------
// perfbench/harness/replica.cpp still names three relics of the former
// approximate statistics mode: this constant, the ignored `bool`
// constructor of SweepReduction and SweepReport::streaming_stats (both
// tagged "replica compatibility"). No code in src/ or tools/ reads any
// of them. They go when a benchmark change retires the replica
// (CHANGES.md, the FOUND line on the replica).
inline constexpr size_t kStreamingStatsThreshold = 65536;
// ---- end of benchmark-replica compatibility -------------------------

/// The reduction of the three cross-cell footprint distributions
/// (annualized / operational / embodied): it stores each cell's three
/// totals (24 B per cell) and finalizes them through util::summarize,
/// so the percentiles are exact at every sweep size. The feed order is
/// the expansion order, so results are bit-stable for any thread
/// count, batch size, cache state, or shard count (a sharded merge
/// replays every cell into one reduction; see SweepFold).
class SweepReduction {
 public:
  SweepReduction() = default;
  /// Replica compatibility (see kStreamingStatsThreshold): ignored.
  explicit SweepReduction(bool /*ignored*/) {}

  void add(const SweepCell& cell);

  /// Finalized distributions (each sorts a copy of its series).
  util::Summary annualized_mt() const;
  util::Summary op_total_mt() const;
  util::Summary emb_total_mt() const;

 private:
  std::vector<double> annualized_, op_, emb_;
};

/// One multi-valued axis's grid-marginal response: the mean annualized
/// total over the grid cells pinned at each axis value, every other
/// axis marginalized out. Accumulated from the cell stream in
/// expansion order (bit-identical to a store-all recomputation), so
/// adaptive refinement can rank segments without report.cells — the
/// decision inputs survive retention being switched off.
struct AxisMarginal {
  SweepAxis axis = SweepAxis::kAci;
  std::vector<double> values;           ///< axis values, ascending
  std::vector<double> mean_annualized;  ///< parallel to `values`
};

struct SweepReport {
  std::string base_name;          ///< the base scenario swept around
  size_t num_records = 0;
  size_t axis_cells = 0;          ///< tornado endpoint count
  size_t grid_cells = 0;
  size_t mc_cells = 0;
  size_t batches = 0;             ///< engine blocks the sweep ran as
  size_t total_cells = 0;         ///< cells assessed (this round)
  /// Replica compatibility (see kStreamingStatsThreshold): never set.
  bool streaming_stats = false;

  SweepCell base;                 ///< the base cell's aggregates
  /// Every cell, registration order — only when Options::retain_cells
  /// (the default). A sink-driven big sweep runs with retention off and
  /// leaves this empty; everything else in the report is still filled,
  /// captured from the stream.
  std::vector<SweepCell> cells;
  std::vector<TornadoRow> tornado;  ///< spec axis order

  /// Distributions over all cells (base + endpoints + grid + draws).
  util::Summary annualized_mt;
  util::Summary op_total_mt;
  util::Summary emb_total_mt;

  /// Grid-marginal responses of the multi-valued axes, spec axis order.
  /// Not rendered; the refinement planner's input.
  std::vector<AxisMarginal> grid_marginals;

  /// Adaptive-refinement trace: empty for a plain run; round 0 (the
  /// coarse grid) plus one entry per executed refinement round for
  /// run_adaptive. Everything but each round's `cache` is rendered.
  std::vector<RefinementRound> refinement;

  /// Engine cache activity during this sweep — cumulative across every
  /// round for run_adaptive (`entries` is the resident count
  /// afterwards). Not part of the rendered report: hit counts
  /// legitimately differ between cold and warm-started runs while the
  /// report stays byte-identical.
  par::CacheStats cache;
};

/// The one fold every SweepReport comes out of. SweepEngine feeds it
/// the cells it assesses; merge_sweep_partials (sweep_shard.hpp) feeds
/// it the cells it replays from the shards' partials. Both feed in
/// expansion order, so the base cell, the summaries, the grid
/// marginals and the tornado rows are byte-identical whichever path —
/// and however many processes — produced the cells.
class SweepFold {
 public:
  /// `sink`, when non-null, receives every folded cell tagged `round`;
  /// `retain_cells` keeps each one in SweepReport::cells.
  SweepFold(const SweepExpansion& expansion, bool retain_cells,
            SweepCellSink* sink = nullptr, size_t round = 0);

  /// Fold the cell at expansion index `index`; indices arrive in
  /// expansion order. The rvalue overload moves a retained cell.
  void add(size_t index, const SweepCell& cell);
  void add(size_t index, SweepCell&& cell);

  /// Hand over the full per-record results of endpoint `index`
  /// (SweepExpansion::is_endpoint), which the tornado rows need.
  /// Returns false when that endpoint already has them.
  bool add_endpoint(size_t index, ScenarioResults results);

  /// The finished report: tornado rows (analysis::sensitivity over the
  /// endpoint results), the three summaries, and the marginal means.
  /// Every endpoint must have its results. `batches` and `cache` are
  /// left for the caller. Call once.
  SweepReport finish(const std::vector<top500::SystemRecord>& records);

 private:
  // One multi-valued axis's grid-marginal sums. Buckets are fed in
  // expansion order, so the means are bit-identical to a store-all
  // recomputation over report.cells.
  struct MarginalAcc {
    size_t axis_pos = 0;                 // index into spec.axes
    std::vector<double> sorted;          // axis values, ascending
    std::vector<size_t> decl_to_sorted;  // declaration idx -> sorted idx
    std::vector<double> sums;
    std::vector<size_t> counts;
  };

  void fold_cell(size_t index, const SweepCell& cell);

  const SweepExpansion& expansion_;
  bool retain_cells_;
  SweepCellSink* sink_;
  size_t round_;
  SweepReport report_;
  SweepReduction reduction_;
  std::vector<MarginalAcc> marginals_;
  std::vector<std::optional<ScenarioResults>> endpoint_results_;
};

/// Tornado-guided refinement: after the coarse grid, rank the
/// multi-valued axes by |tornado swing|, pick the top K, and densify
/// each around the steepest segment of its grid-marginal response for R
/// rounds. Every round keeps the previous round's values (the old grid
/// is a pure cache lookup) and inserts `points` new values strictly
/// inside the steepest adjacent pair, so refinement rounds hit the
/// shared AssessmentEngine cache at least as often as the coarse round
/// — strictly more often when the sweep starts cold.
struct RefineOptions {
  size_t top_axes = 2;  ///< K: axes refined per round, ranked by |swing|
  size_t rounds = 1;    ///< R: refinement rounds after the coarse grid
  size_t points = 4;    ///< new values per refined axis per round
};

/// Drives a SweepSpec through an AssessmentEngine in batched cell
/// blocks: every batch is one engine call over all records, so the
/// thread pool parallelizes within a block and the memo cache carries
/// aliases (lifetime cells, endpoint/grid coincidences) across blocks.
class SweepEngine {
 public:
  struct Options {
    /// Engine to run on; null = a private engine on `pool`. A shared
    /// engine keeps its memo cache warm across sweeps and lets callers
    /// persist it (AssessmentEngine::save_cache/load_cache).
    AssessmentEngine* engine = nullptr;
    /// Pool for the private engine (ignored when `engine` is set).
    par::ThreadPool* pool = nullptr;
    /// Derived scenarios per engine block. Bounds peak memory (one
    /// block's full per-record results are alive at a time) without
    /// affecting results: reports are identical for any batch size.
    size_t batch_size = 64;
    /// Keep every SweepCell in SweepReport::cells. Default on (the
    /// historical behaviour); switch off for sink-driven big sweeps so
    /// peak memory is one batch plus the reduction's 24 B per cell. The rest of the report (base cell, tornado,
    /// summaries, marginals, counters) is unaffected.
    bool retain_cells = true;
  };

  SweepEngine();  // default options
  explicit SweepEngine(Options options);

  /// Expand `spec` and assess every derived scenario over `records`.
  /// Deterministic: byte-identical SweepCells and tornado rows for any
  /// pool size, batch size, or cache state. When `sink` is non-null it
  /// receives every cell, in expansion order, as its batch completes.
  SweepReport run(const std::vector<top500::SystemRecord>& records,
                  const SweepSpec& spec, SweepCellSink* sink = nullptr);

  /// Coarse grid plus tornado-guided refinement (see RefineOptions).
  /// Returns the final round's report with the full per-round trace in
  /// SweepReport::refinement and cumulative cache stats. Refinement
  /// decisions are pure functions of deterministic cell aggregates, so
  /// the report and everything `sink` receives stay byte-identical for
  /// any pool size, batch size, or cache state. Rounds stop early when
  /// no axis can be refined (no multi-valued axes, or the steepest
  /// segments are already denser than the naming precision).
  SweepReport run_adaptive(const std::vector<top500::SystemRecord>& records,
                           const SweepSpec& spec,
                           const RefineOptions& refine,
                           SweepCellSink* sink = nullptr);

  /// Assess expansion cells [begin, end) over `records` in blocks of
  /// Options::batch_size, one engine call per block, and hand each
  /// cell to `visit` in expansion order: its index, its SweepCell, and
  /// its full per-record results. Returns the number of blocks. The
  /// batch loop of both run() and run_sweep_shard.
  using CellVisitor =
      std::function<void(size_t index, SweepCell&& cell,
                         ScenarioResults&& results)>;
  size_t assess_range(const std::vector<top500::SystemRecord>& records,
                      const SweepExpansion& expansion, size_t begin,
                      size_t end, const CellVisitor& visit);

  /// The engine the sweep runs on (the shared one, or the private one).
  AssessmentEngine& engine();

  /// The effective options (with `engine` filled in when a private one
  /// was constructed). The shard runner reads batch/stats knobs here.
  const Options& options() const { return options_; }

 private:
  SweepReport run_round(const std::vector<top500::SystemRecord>& records,
                        const SweepSpec& spec, size_t round,
                        SweepCellSink* sink);

  Options options_;
  std::unique_ptr<AssessmentEngine> owned_engine_;
};

/// Render the deterministic part of a report (everything but the cache
/// stats and batch shape) as the CLI's stdout block: header, tornado
/// table, the refinement trace (adaptive runs only), and the footprint
/// percentiles.
std::string render_sweep_report(const SweepReport& report);

}  // namespace easyc::analysis
