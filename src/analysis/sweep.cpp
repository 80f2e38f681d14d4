#include "analysis/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <set>
#include <utility>

#include "analysis/sensitivity.hpp"
#include "util/ascii.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/strings.hpp"

namespace easyc::analysis {

namespace {

// Cell names embed axis values; six significant decimals round-trips
// every value the grammar can express while keeping names stable (two
// values that collide at this precision are rejected as duplicates by
// ScenarioSet registration, never silently merged).
std::string format_axis_value(double v) { return util::format_double(v, 6); }

std::string endpoint_name(SweepAxis axis, double value) {
  return "sweep/axis/" + std::string(axis_name(axis)) + "=" +
         format_axis_value(value);
}

constexpr std::string_view kBaseCellName = "sweep/base";

// Physical-range guard for axis values, applied at parse time so a
// meaningless spec fails with a grammar-level message naming the axis
// and value instead of surfacing later from ScenarioSet validation
// (which stays in place as the backstop for hand-built SweepSpecs).
const char* axis_range_complaint(SweepAxis axis, double v) {
  switch (axis) {
    case SweepAxis::kAci:
      if (!(v >= 0.0)) return "grid intensity (gCO2e/kWh) must be >= 0";
      break;
    case SweepAxis::kPue:
      if (!(v >= 1.0)) return "PUE must be >= 1 (facility draws at least IT power)";
      break;
    case SweepAxis::kFab:
      if (!(v >= 0.0)) return "fab intensity (kgCO2e/kWh) must be >= 0";
      break;
    case SweepAxis::kUtilization:
      if (!(v > 0.0 && v <= 1.0)) return "utilization must be in (0,1]";
      break;
    case SweepAxis::kLifetime:
      if (!(v > 0.0)) return "lifetime (years) must be > 0";
      break;
  }
  return nullptr;
}

}  // namespace

std::vector<TornadoEndpoint> tornado_endpoints(const SweepSpec& spec) {
  std::vector<TornadoEndpoint> out;
  for (const auto& a : spec.axes) {
    if (a.values.size() < 2) continue;
    const auto [lo, hi] =
        std::minmax_element(a.values.begin(), a.values.end());
    out.push_back({a.axis, *lo, *hi, endpoint_name(a.axis, *lo),
                   endpoint_name(a.axis, *hi)});
  }
  return out;
}

std::string_view axis_name(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kAci: return "aci";
    case SweepAxis::kPue: return "pue";
    case SweepAxis::kFab: return "fab";
    case SweepAxis::kUtilization: return "util";
    case SweepAxis::kLifetime: return "life";
  }
  return "?";
}

std::optional<SweepAxis> axis_from_name(std::string_view name) {
  if (name == "aci") return SweepAxis::kAci;
  if (name == "pue") return SweepAxis::kPue;
  if (name == "fab") return SweepAxis::kFab;
  if (name == "util" || name == "utilization") return SweepAxis::kUtilization;
  if (name == "life" || name == "lifetime") return SweepAxis::kLifetime;
  return std::nullopt;
}

ScenarioSpec apply_axis(ScenarioSpec spec, SweepAxis axis, double value) {
  switch (axis) {
    case SweepAxis::kAci: spec.aci_override_g_kwh = value; break;
    case SweepAxis::kPue: spec.pue_override = value; break;
    case SweepAxis::kFab: spec.fab_aci_kg_kwh = value; break;
    case SweepAxis::kUtilization: spec.default_utilization = value; break;
    case SweepAxis::kLifetime: spec.service_years = value; break;
  }
  return spec;
}

std::optional<double> axis_value(const ScenarioSpec& spec, SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kAci: return spec.aci_override_g_kwh;
    case SweepAxis::kPue: return spec.pue_override;
    case SweepAxis::kFab: return spec.fab_aci_kg_kwh;
    case SweepAxis::kUtilization: return spec.default_utilization;
    case SweepAxis::kLifetime: return spec.service_years;
  }
  return std::nullopt;
}

std::string_view cell_kind_name(SweepCellKind kind) {
  switch (kind) {
    case SweepCellKind::kBase: return "base";
    case SweepCellKind::kAxisEndpoint: return "axis";
    case SweepCellKind::kGrid: return "grid";
    case SweepCellKind::kMonteCarlo: return "mc";
  }
  return "?";
}

SweepCellKind cell_kind_from_name(std::string_view cell_name) {
  if (cell_name == kBaseCellName) return SweepCellKind::kBase;
  if (util::starts_with(cell_name, "sweep/axis/")) {
    return SweepCellKind::kAxisEndpoint;
  }
  if (util::starts_with(cell_name, "sweep/grid/")) return SweepCellKind::kGrid;
  if (util::starts_with(cell_name, "sweep/mc/")) {
    return SweepCellKind::kMonteCarlo;
  }
  throw util::Error("'" + std::string(cell_name) +
                    "' is not a sweep cell name");
}

SweepSpec SweepSpec::parse(std::string_view text, ScenarioSpec base) {
  SweepSpec spec;
  spec.base = std::move(base);

  auto fail = [&](const std::string& why) {
    throw util::ParseError("sweep spec: " + why);
  };

  for (const auto& raw_part : util::split(text, ';')) {
    const std::string part(util::trim(raw_part));
    if (part.empty()) fail("empty part (stray ';'?)");
    const auto eq = part.find('=');
    if (eq == std::string::npos) {
      fail("'" + part + "' is not of the form axis=values");
    }
    const std::string key(util::trim(part.substr(0, eq)));
    const std::string value(util::trim(part.substr(eq + 1)));
    if (value.empty()) fail("axis '" + key + "' has no values");

    if (key == "mc") {
      if (spec.monte_carlo) fail("mc given twice");
      const auto at = value.find('@');
      if (at == std::string::npos) {
        fail("mc wants draws@seed, got '" + value + "'");
      }
      const auto draws = util::parse_int(util::trim(value.substr(0, at)));
      const auto seed = util::parse_int(util::trim(value.substr(at + 1)));
      if (!draws || *draws <= 0) fail("mc draw count must be positive");
      if (!seed || *seed < 0) fail("mc seed must be a non-negative integer");
      MonteCarloSpec mc;
      mc.draws = static_cast<size_t>(*draws);
      mc.seed = static_cast<uint64_t>(*seed);
      spec.monte_carlo = mc;
      continue;
    }

    const auto axis = axis_from_name(key);
    if (!axis) {
      fail("unknown axis '" + key +
           "' (axes: aci, pue, fab, util, life; plus mc=draws@seed)");
    }
    for (const auto& existing : spec.axes) {
      if (existing.axis == *axis) fail("axis '" + key + "' given twice");
    }

    AxisValues av;
    av.axis = *axis;
    const auto colon_fields = util::split(value, ':');
    if (colon_fields.size() == 3) {
      // lo:hi:n linspace.
      const auto lo = util::parse_double(colon_fields[0]);
      const auto hi = util::parse_double(colon_fields[1]);
      const auto n = util::parse_int(colon_fields[2]);
      if (!lo || !hi || !n) {
        fail("axis '" + key + "': malformed range '" + value + "'");
      }
      if (*n < 2) fail("axis '" + key + "': linspace needs n >= 2");
      if (*lo == *hi) fail("axis '" + key + "': degenerate range lo == hi");
      for (long long i = 0; i < *n; ++i) {
        av.values.push_back(*lo + (*hi - *lo) * static_cast<double>(i) /
                                      static_cast<double>(*n - 1));
      }
    } else if (colon_fields.size() == 1) {
      for (const auto& field : util::split(value, ',')) {
        const auto v = util::parse_double(field);
        if (!v) {
          fail("axis '" + key + "': '" + std::string(util::trim(field)) +
               "' is not a number");
        }
        av.values.push_back(*v);
      }
    } else {
      fail("axis '" + key + "': values are v1,v2,... or lo:hi:n");
    }
    // Range-check the materialized values, so a meaningless list entry
    // and a linspace that strays out of range (e.g. "life=0:8:5", which
    // starts at a zero-year lifetime) fail identically.
    for (const double v : av.values) {
      if (const char* complaint = axis_range_complaint(*axis, v)) {
        fail("axis '" + key + "': value " + format_axis_value(v) + " — " +
             complaint);
      }
    }
    for (size_t i = 0; i < av.values.size(); ++i) {
      for (size_t j = i + 1; j < av.values.size(); ++j) {
        if (format_axis_value(av.values[i]) ==
            format_axis_value(av.values[j])) {
          fail("axis '" + key + "': duplicate value " +
               format_axis_value(av.values[i]));
        }
      }
    }
    spec.axes.push_back(std::move(av));
  }

  if (spec.axes.empty() && !spec.monte_carlo) {
    fail("no axes and no mc draws — nothing to sweep");
  }
  return spec;
}

size_t SweepSpec::grid_cells() const {
  if (axes.empty()) return 0;
  size_t n = 1;
  for (const auto& a : axes) n *= a.values.size();
  return n;
}

size_t SweepSpec::total_cells() const {
  return 1 + 2 * tornado_endpoints(*this).size() + grid_cells() +
         (monte_carlo ? monte_carlo->draws : 0);
}

SweepExpansion::SweepExpansion(SweepSpec spec) : spec_(std::move(spec)) {
  base_label_ = spec_.base.name;

  // Fail before the first engine call: physical-range and
  // naming-precision violations used to surface from ScenarioSet
  // registration during materialization; the lazy expansion checks the
  // axis lists (the only unbounded input) upfront instead. Per-cell
  // spec validation still runs when a cell joins a batch ScenarioSet.
  for (const auto& a : spec_.axes) {
    for (const double v : a.values) {
      if (const char* complaint = axis_range_complaint(a.axis, v)) {
        throw util::Error("sweep axis '" + std::string(axis_name(a.axis)) +
                          "': value " + format_axis_value(v) + " — " +
                          complaint);
      }
    }
    for (size_t i = 0; i < a.values.size(); ++i) {
      for (size_t j = i + 1; j < a.values.size(); ++j) {
        if (format_axis_value(a.values[i]) ==
            format_axis_value(a.values[j])) {
          throw util::Error("sweep axis '" + std::string(axis_name(a.axis)) +
                            "': duplicate value " +
                            format_axis_value(a.values[i]) +
                            " at cell-naming precision");
        }
      }
    }
  }

  for (const auto& e : tornado_endpoints(spec_)) {
    endpoints_.push_back({e.axis, e.low, e.low_name});
    endpoints_.push_back({e.axis, e.high, e.high_name});
  }

  grid_ = spec_.grid_cells();
  strides_.assign(spec_.axes.size(), 1);
  for (size_t a = spec_.axes.size(); a-- > 1;) {
    strides_[a - 1] = strides_[a] * spec_.axes[a].values.size();
  }
  total_ = 1 + endpoints_.size() + grid_ +
           (spec_.monte_carlo ? spec_.monte_carlo->draws : 0);
}

ScenarioSpec SweepExpansion::cell(size_t index) const {
  EASYC_REQUIRE(index < total_, "sweep cell index out of range");
  if (index == 0) {
    ScenarioSpec base = spec_.base;
    base.name = std::string(kBaseCellName);
    base.description = "sweep base (" + base_label_ + ")";
    return base;
  }
  index -= 1;

  // Tornado endpoints: one axis at its extreme, everything else at base.
  if (index < endpoints_.size()) {
    const Endpoint& e = endpoints_[index];
    ScenarioSpec s = apply_axis(spec_.base, e.axis, e.value);
    s.name = e.name;
    s.description = "sweep endpoint: " + std::string(axis_name(e.axis)) +
                    "=" + format_axis_value(e.value) + " over " + base_label_;
    return s;
  }
  index -= endpoints_.size();

  // The cartesian grid, odometer order (last declared axis fastest).
  if (index < grid_) {
    ScenarioSpec s = spec_.base;
    std::string suffix;
    for (size_t a = 0; a < spec_.axes.size(); ++a) {
      const double v = spec_.axes[a].values[grid_value_index(index, a)];
      s = apply_axis(std::move(s), spec_.axes[a].axis, v);
      suffix += (a == 0 ? "" : "/") +
                std::string(axis_name(spec_.axes[a].axis)) + "=" +
                format_axis_value(v);
    }
    s.name = "sweep/grid/" + suffix;
    s.description = "sweep grid cell over " + base_label_;
    return s;
  }
  index -= grid_;

  // Seeded Monte-Carlo draw `index` from the uncertainty module's prior
  // model. Each draw forks its own RNG stream, so draw k is the same
  // scenario regardless of which other cells are ever derived.
  const auto& mc = *spec_.monte_carlo;
  util::Rng rng = util::Rng(mc.seed).fork(index);
  double aci_scale = 1.0;
  const model::EasyCOptions drawn = model::perturb_options(
      spec_.base.to_options(), mc.ranges, rng, &aci_scale);
  ScenarioSpec s = spec_.base;
  s.default_utilization = drawn.operational.default_utilization;
  s.fab_aci_kg_kwh = drawn.embodied.fab_aci_kg_kwh;
  if (s.aci_override_g_kwh) {
    s.aci_override_g_kwh = *s.aci_override_g_kwh * aci_scale;
  }
  char tag[32];
  std::snprintf(tag, sizeof(tag), "%04zu", index);
  s.name = std::string("sweep/mc/") + tag;
  s.description = "prior draw " + std::string(tag) + " (seed " +
                  std::to_string(mc.seed) + ") over " + base_label_;
  return s;
}

namespace {

// Aggregates are exported at full double precision via the pinned
// util::format_exact (%.17g) helper: the acceptance contract diffs
// exported files across thread counts and cache states byte for byte,
// and a lossless decimal form also lets downstream plotting recover
// the exact computed values.
using util::format_exact;

std::string format_fingerprint(uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

// Fail-fast contract of every cell sink: raise the moment the output
// stream reports failure, so a full disk at cell 10 of a million aborts
// the sweep instead of silently burning the remaining run.
void require_stream(const std::ostream& out, const char* what) {
  if (!out) {
    throw util::Error(std::string(what) +
                      ": output stream failed (disk full or closed?)");
  }
}

}  // namespace

SweepCell make_sweep_cell(const ScenarioResults& r) {
  SweepCell cell;
  cell.name = r.spec.name;
  cell.description = r.spec.description;
  cell.kind = cell_kind_from_name(r.spec.name);
  cell.fingerprint = r.spec.fingerprint();
  for (size_t a = 0; a < kNumSweepAxes; ++a) {
    cell.coords[a] = axis_value(r.spec, static_cast<SweepAxis>(a));
  }
  cell.op_total_mt = r.total(true);
  cell.emb_total_mt = r.total(false);
  cell.annualized_mt = r.annualized_total_mt();
  cell.op_covered = r.coverage.operational;
  cell.emb_covered = r.coverage.embodied;
  return cell;
}

void SweepReduction::add(const SweepCell& cell) {
  annualized_.push_back(cell.annualized_mt);
  op_.push_back(cell.op_total_mt);
  emb_.push_back(cell.emb_total_mt);
}

util::Summary SweepReduction::annualized_mt() const {
  return util::summarize(annualized_);
}

util::Summary SweepReduction::op_total_mt() const {
  return util::summarize(op_);
}

util::Summary SweepReduction::emb_total_mt() const {
  return util::summarize(emb_);
}

CsvCellSink::CsvCellSink(std::ostream& out) : out_(out) {
  out_ << util::csv_format_row(columns());
  require_stream(out_, "cell CSV export");
}

const std::vector<std::string>& CsvCellSink::columns() {
  static const std::vector<std::string> kColumns = {
      "round",       "index",       "kind",
      "scenario",    "fingerprint", "aci_g_kwh",
      "pue",         "fab_kg_kwh",  "utilization",
      "service_years", "op_total_mt", "emb_total_mt",
      "annualized_mt", "op_covered",  "emb_covered",
      "description"};
  return kColumns;
}

void CsvCellSink::cell(size_t round, size_t index, const SweepCell& c) {
  std::vector<std::string> fields;
  fields.reserve(columns().size());
  fields.push_back(std::to_string(round));
  fields.push_back(std::to_string(index));
  fields.push_back(std::string(cell_kind_name(c.kind)));
  fields.push_back(c.name);
  fields.push_back(format_fingerprint(c.fingerprint));
  for (size_t a = 0; a < kNumSweepAxes; ++a) {
    const auto& v = c.coords[a];
    fields.push_back(v ? format_exact(*v) : "");
  }
  fields.push_back(format_exact(c.op_total_mt));
  fields.push_back(format_exact(c.emb_total_mt));
  fields.push_back(format_exact(c.annualized_mt));
  fields.push_back(std::to_string(c.op_covered));
  fields.push_back(std::to_string(c.emb_covered));
  fields.push_back(c.description);

  out_ << util::csv_format_row(fields);
  require_stream(out_, "cell CSV export");
}

TeeCellSink::TeeCellSink(std::vector<SweepCellSink*> sinks)
    : sinks_(std::move(sinks)) {
  for (const auto* s : sinks_) {
    EASYC_REQUIRE(s != nullptr, "TeeCellSink: null sink");
  }
}

void TeeCellSink::cell(size_t round, size_t index, const SweepCell& c) {
  for (auto* s : sinks_) s->cell(round, index, c);
}

BinaryCellSink::BinaryCellSink(std::ostream& out, size_t block_cells)
    : out_(out), block_cells_(std::max<size_t>(1, block_cells)) {
  util::BinaryWriter header;
  header.raw(kMagic);
  header.u32(kFormatVersion);
  const auto& cols = CsvCellSink::columns();
  header.u32(static_cast<uint32_t>(cols.size()));
  for (const auto& c : cols) header.str(c);
  out_.write(header.bytes().data(),
             static_cast<std::streamsize>(header.size()));
  require_stream(out_, "binary cell export (header)");
}

BinaryCellSink::~BinaryCellSink() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; call finish() to observe flush errors.
  }
}

void BinaryCellSink::cell(size_t round, size_t index, const SweepCell& c) {
  EASYC_REQUIRE(!finished_, "BinaryCellSink: cell() after finish()");
  buffer_.push_back(Row{round, index, c});
  if (buffer_.size() >= block_cells_) flush_block();
}

void BinaryCellSink::flush_block() {
  if (buffer_.empty()) return;
  // Columnar payload: one contiguous run per column (README.md spec).
  util::BinaryWriter payload;
  for (const auto& r : buffer_) payload.u64(r.round);
  for (const auto& r : buffer_) payload.u64(r.index);
  for (const auto& r : buffer_) payload.u8(static_cast<uint8_t>(r.cell.kind));
  for (const auto& r : buffer_) payload.u64(r.cell.fingerprint);
  for (size_t a = 0; a < kNumSweepAxes; ++a) {
    for (const auto& r : buffer_) {
      payload.boolean(r.cell.coords[a].has_value());
    }
    for (const auto& r : buffer_) {
      if (r.cell.coords[a]) payload.f64(*r.cell.coords[a]);
    }
  }
  for (const auto& r : buffer_) payload.f64(r.cell.op_total_mt);
  for (const auto& r : buffer_) payload.f64(r.cell.emb_total_mt);
  for (const auto& r : buffer_) payload.f64(r.cell.annualized_mt);
  for (const auto& r : buffer_) {
    payload.u32(static_cast<uint32_t>(r.cell.op_covered));
  }
  for (const auto& r : buffer_) {
    payload.u32(static_cast<uint32_t>(r.cell.emb_covered));
  }
  for (const auto& r : buffer_) payload.str(r.cell.name);
  for (const auto& r : buffer_) payload.str(r.cell.description);

  util::BinaryWriter block;
  block.u8('B');
  block.u64(buffer_.size());
  block.u64(payload.size());
  block.u64(util::checksum64(payload.bytes()));
  out_.write(block.bytes().data(), static_cast<std::streamsize>(block.size()));
  out_.write(payload.bytes().data(),
             static_cast<std::streamsize>(payload.size()));
  require_stream(out_, "binary cell export (block)");
  total_ += buffer_.size();
  buffer_.clear();
}

void BinaryCellSink::finish() {
  if (finished_) return;
  flush_block();
  // Footer: 'E', the total cell count, and a checksum over that count —
  // a file cut off anywhere upstream fails decoding as truncated.
  util::BinaryWriter count;
  count.u64(total_);
  util::BinaryWriter footer;
  footer.u8('E');
  footer.raw(count.bytes());
  footer.u64(util::checksum64(count.bytes()));
  out_.write(footer.bytes().data(),
             static_cast<std::streamsize>(footer.size()));
  out_.flush();
  require_stream(out_, "binary cell export (footer)");
  finished_ = true;
}

size_t read_binary_cells(std::istream& in, SweepCellSink& sink,
                         bool expect_eof) {
  using util::read_stream_exact;
  if (read_stream_exact(in, BinaryCellSink::kMagic.size(), "magic") !=
      BinaryCellSink::kMagic) {
    throw util::CodecError("not an EZCELLS cell export (bad magic)");
  }
  {
    const std::string bytes = read_stream_exact(in, 4, "format version");
    const uint32_t version = util::BinaryReader(bytes).u32();
    if (version != BinaryCellSink::kFormatVersion) {
      throw util::CodecError(
          "cell export format version " + std::to_string(version) +
          ", expected " + std::to_string(BinaryCellSink::kFormatVersion));
    }
  }
  const auto& cols = CsvCellSink::columns();
  {
    const std::string bytes = read_stream_exact(in, 4, "column count");
    const uint32_t ncols = util::BinaryReader(bytes).u32();
    if (ncols != cols.size()) {
      throw util::CodecError("cell export has " + std::to_string(ncols) +
                             " columns, expected " +
                             std::to_string(cols.size()));
    }
  }
  for (const auto& expected : cols) {
    const std::string len_bytes = read_stream_exact(in, 8, "column name length");
    const uint64_t len = util::BinaryReader(len_bytes).u64();
    if (len > 4096) {
      throw util::CodecError("implausible column name length " +
                             std::to_string(len));
    }
    const std::string name =
        read_stream_exact(in, static_cast<size_t>(len), "column name");
    if (name != expected) {
      throw util::CodecError("cell export column '" + name +
                             "' where '" + expected + "' was expected");
    }
  }

  size_t cells = 0;
  for (;;) {
    const std::string tag = read_stream_exact(in, 1, "block tag");
    if (tag[0] == 'E') {
      const std::string body = read_stream_exact(in, 16, "footer");
      util::BinaryReader r(body);
      const uint64_t total = r.u64();
      const uint64_t sum = r.u64();
      if (sum != util::checksum64(std::string_view(body).substr(0, 8))) {
        throw util::CodecError("cell export footer checksum mismatch");
      }
      if (total != cells) {
        throw util::CodecError(
            "cell export footer claims " + std::to_string(total) +
            " cells, decoded " + std::to_string(cells));
      }
      if (expect_eof && in.peek() != std::char_traits<char>::eof()) {
        throw util::CodecError("trailing bytes after cell export footer");
      }
      return cells;
    }
    if (tag[0] != 'B') {
      throw util::CodecError("unknown cell export block tag " +
                             std::to_string(static_cast<int>(tag[0])));
    }
    const std::string head = read_stream_exact(in, 24, "block header");
    util::BinaryReader hr(head);
    const uint64_t n = hr.u64();
    const uint64_t payload_size = hr.u64();
    const uint64_t sum = hr.u64();
    if (n == 0) throw util::CodecError("empty cell export block");
    if (payload_size > (1ULL << 32)) {
      throw util::CodecError("implausible cell block size " +
                             std::to_string(payload_size));
    }
    // The round column alone is 8 bytes per cell, so a count the
    // payload cannot hold is corruption the checksum can't see (the
    // count lives in the block header) — reject before sizing any
    // decode buffers by it.
    if (n > payload_size / 8) {
      throw util::CodecError("cell block claims " + std::to_string(n) +
                             " cells in " + std::to_string(payload_size) +
                             " payload bytes");
    }
    const std::string payload =
        read_stream_exact(in, static_cast<size_t>(payload_size), "block payload");
    if (util::checksum64(payload) != sum) {
      throw util::CodecError("cell block checksum mismatch");
    }

    util::BinaryReader r(payload);
    const size_t count = static_cast<size_t>(n);
    std::vector<size_t> rounds(count), indices(count);
    std::vector<SweepCell> block(count);
    for (auto& v : rounds) v = static_cast<size_t>(r.u64());
    for (auto& v : indices) v = static_cast<size_t>(r.u64());
    for (auto& c : block) {
      const uint8_t k = r.u8();
      if (k > static_cast<uint8_t>(SweepCellKind::kMonteCarlo)) {
        throw util::CodecError("bad cell kind byte " + std::to_string(k));
      }
      c.kind = static_cast<SweepCellKind>(k);
    }
    for (auto& c : block) c.fingerprint = r.u64();
    for (size_t a = 0; a < kNumSweepAxes; ++a) {
      std::vector<bool> present(count);
      for (size_t i = 0; i < count; ++i) present[i] = r.boolean();
      for (size_t i = 0; i < count; ++i) {
        if (present[i]) block[i].coords[a] = r.f64();
      }
    }
    for (auto& c : block) c.op_total_mt = r.f64();
    for (auto& c : block) c.emb_total_mt = r.f64();
    for (auto& c : block) c.annualized_mt = r.f64();
    for (auto& c : block) c.op_covered = static_cast<int>(r.u32());
    for (auto& c : block) c.emb_covered = static_cast<int>(r.u32());
    for (auto& c : block) c.name = r.str();
    for (auto& c : block) c.description = r.str();
    if (!r.exhausted()) {
      throw util::CodecError("trailing bytes in cell export block");
    }
    for (size_t i = 0; i < count; ++i) {
      sink.cell(rounds[i], indices[i], block[i]);
    }
    cells += count;
  }
}

SweepFold::SweepFold(const SweepExpansion& expansion, bool retain_cells,
                     SweepCellSink* sink, size_t round)
    : expansion_(expansion),
      retain_cells_(retain_cells),
      sink_(sink),
      round_(round),
      endpoint_results_(expansion.grid_begin() - 1) {
  const SweepSpec& spec = expansion.spec();
  report_.base_name = spec.base.name;
  report_.grid_cells = spec.grid_cells();
  report_.mc_cells = spec.monte_carlo ? spec.monte_carlo->draws : 0;
  report_.axis_cells = endpoint_results_.size();
  report_.total_cells = expansion.size();
  if (retain_cells_) report_.cells.reserve(expansion.size());

  for (size_t a = 0; a < spec.axes.size(); ++a) {
    const auto& values = spec.axes[a].values;
    if (values.size() < 2) continue;
    MarginalAcc acc;
    acc.axis_pos = a;
    acc.sorted = values;
    std::sort(acc.sorted.begin(), acc.sorted.end());
    acc.decl_to_sorted.resize(values.size());
    for (size_t j = 0; j < values.size(); ++j) {
      acc.decl_to_sorted[j] = static_cast<size_t>(
          std::lower_bound(acc.sorted.begin(), acc.sorted.end(), values[j]) -
          acc.sorted.begin());
    }
    acc.sums.assign(acc.sorted.size(), 0.0);
    acc.counts.assign(acc.sorted.size(), 0);
    marginals_.push_back(std::move(acc));
  }
}

void SweepFold::fold_cell(size_t index, const SweepCell& cell) {
  if (index == 0) report_.base = cell;
  reduction_.add(cell);
  if (cell.kind == SweepCellKind::kGrid) {
    const size_t g = index - expansion_.grid_begin();
    for (auto& acc : marginals_) {
      const size_t si =
          acc.decl_to_sorted[expansion_.grid_value_index(g, acc.axis_pos)];
      acc.sums[si] += cell.annualized_mt;
      ++acc.counts[si];
    }
  }
  if (sink_ != nullptr) sink_->cell(round_, index, cell);
}

void SweepFold::add(size_t index, const SweepCell& cell) {
  fold_cell(index, cell);
  if (retain_cells_) report_.cells.push_back(cell);
}

void SweepFold::add(size_t index, SweepCell&& cell) {
  fold_cell(index, cell);
  if (retain_cells_) report_.cells.push_back(std::move(cell));
}

bool SweepFold::add_endpoint(size_t index, ScenarioResults results) {
  EASYC_REQUIRE(expansion_.is_endpoint(index),
                "SweepFold: not a tornado endpoint");
  auto& slot = endpoint_results_[index - 1];
  if (slot) return false;
  slot = std::move(results);
  return true;
}

SweepReport SweepFold::finish(
    const std::vector<top500::SystemRecord>& records) {
  report_.num_records = records.size();
  const std::vector<TornadoEndpoint> endpoints =
      tornado_endpoints(expansion_.spec());
  for (size_t j = 0; j < endpoints.size(); ++j) {
    const auto& low = endpoint_results_[2 * j];
    const auto& high = endpoint_results_[2 * j + 1];
    EASYC_REQUIRE(low && high, "SweepFold: tornado endpoint results missing");
    // The Fig.-9 kernel generalizes to any two scenarios over one list:
    // low plays Baseline, high plays Baseline+PublicInfo.
    const SensitivityReport s = sensitivity(records, *low, *high);

    const TornadoEndpoint& e = endpoints[j];
    TornadoRow row;
    row.axis = e.axis;
    row.low = e.low;
    row.high = e.high;
    row.low_annualized_mt = low->annualized_total_mt();
    row.high_annualized_mt = high->annualized_total_mt();
    row.swing_mt = row.high_annualized_mt - row.low_annualized_mt;
    row.swing_pct = report_.base.annualized_mt == 0.0
                        ? 0.0
                        : row.swing_mt / report_.base.annualized_mt * 100.0;
    row.op_total_pct = s.op_total_pct;
    row.emb_total_pct = s.emb_total_pct;
    row.op_max_abs_pct = s.op_max_abs_pct;
    row.emb_max_abs_pct = s.emb_max_abs_pct;
    report_.tornado.push_back(row);
  }

  report_.annualized_mt = reduction_.annualized_mt();
  report_.op_total_mt = reduction_.op_total_mt();
  report_.emb_total_mt = reduction_.emb_total_mt();

  for (auto& acc : marginals_) {
    AxisMarginal m;
    m.axis = expansion_.spec().axes[acc.axis_pos].axis;
    m.values = std::move(acc.sorted);
    m.mean_annualized.assign(m.values.size(), 0.0);
    for (size_t i = 0; i < m.values.size(); ++i) {
      if (acc.counts[i] > 0) {
        m.mean_annualized[i] =
            acc.sums[i] / static_cast<double>(acc.counts[i]);
      }
    }
    report_.grid_marginals.push_back(std::move(m));
  }
  return std::move(report_);
}

SweepEngine::SweepEngine() : SweepEngine(Options{}) {}

SweepEngine::SweepEngine(Options options) : options_(options) {
  if (options_.engine == nullptr) {
    AssessmentEngine::Options eopt;
    eopt.pool = options_.pool;
    owned_engine_ = std::make_unique<AssessmentEngine>(eopt);
    options_.engine = owned_engine_.get();
  }
}

AssessmentEngine& SweepEngine::engine() { return *options_.engine; }

SweepReport SweepEngine::run(
    const std::vector<top500::SystemRecord>& records, const SweepSpec& spec,
    SweepCellSink* sink) {
  return run_round(records, spec, /*round=*/0, sink);
}

size_t SweepEngine::assess_range(
    const std::vector<top500::SystemRecord>& records,
    const SweepExpansion& expansion, size_t begin, size_t end,
    const CellVisitor& visit) {
  const size_t batch_size = std::max<size_t>(1, options_.batch_size);
  size_t batches = 0;
  size_t index = begin;
  for (size_t start = begin; start < end; start += batch_size) {
    ScenarioSet batch;
    const size_t stop = std::min(start + batch_size, end);
    for (size_t i = start; i < stop; ++i) batch.add(expansion.cell(i));
    EditionAssessment assessed = options_.engine->assess(records, batch);
    ++batches;
    // Batches are ordered engine calls, so visit order is the
    // expansion order for every thread count / batch size.
    for (auto& r : assessed.scenarios) {
      visit(index++, make_sweep_cell(r), std::move(r));
    }
  }
  return batches;
}

SweepReport SweepEngine::run_round(
    const std::vector<top500::SystemRecord>& records, const SweepSpec& spec,
    size_t round, SweepCellSink* sink) {
  const SweepExpansion expansion(spec);
  SweepFold fold(expansion, options_.retain_cells, sink, round);
  const par::CacheStats before = options_.engine->cache_stats();
  const size_t batches = assess_range(
      records, expansion, 0, expansion.size(),
      [&](size_t index, SweepCell&& cell, ScenarioResults&& results) {
        fold.add(index, std::move(cell));
        if (expansion.is_endpoint(index)) {
          fold.add_endpoint(index, std::move(results));
        }
      });
  SweepReport report = fold.finish(records);
  report.batches = batches;
  report.cache = options_.engine->cache_stats().since(before);
  return report;
}

namespace {

// Pick and densify the top-K axes of `spec` (mutating it) from the last
// round's report. An axis's marginal response (SweepReport::
// grid_marginals, accumulated from the cell stream — so refinement
// works with cell retention off) is the mean annualized total over the
// grid cells pinned at each of its values; the steepest adjacent pair
// gets `points` new values strictly inside it, keeping every old value
// so the previous grid re-runs as pure cache lookups. Returns the
// per-axis trace; empty when nothing could be refined. Deterministic:
// ranking is stable-sorted (spec order breaks |swing| ties), segment
// ties resolve to the lower pair, and inputs are deterministic cell
// aggregates.
std::vector<RefinedAxis> refine_spec(SweepSpec& spec, const SweepReport& last,
                                     const RefineOptions& opt) {
  std::vector<const TornadoRow*> ranked;
  ranked.reserve(last.tornado.size());
  for (const auto& row : last.tornado) ranked.push_back(&row);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const TornadoRow* a, const TornadoRow* b) {
                     return std::abs(a->swing_mt) > std::abs(b->swing_mt);
                   });

  std::vector<RefinedAxis> out;
  for (const TornadoRow* row : ranked) {
    if (out.size() >= opt.top_axes) break;
    const auto axis_it =
        std::find_if(spec.axes.begin(), spec.axes.end(),
                     [&](const AxisValues& a) { return a.axis == row->axis; });
    if (axis_it == spec.axes.end()) continue;

    const auto marg_it =
        std::find_if(last.grid_marginals.begin(), last.grid_marginals.end(),
                     [&](const AxisMarginal& m) { return m.axis == row->axis; });
    if (marg_it == last.grid_marginals.end()) continue;
    const std::vector<double>& sorted = marg_it->values;
    const std::vector<double>& marginal = marg_it->mean_annualized;
    if (sorted.size() < 2) continue;

    size_t seg = 0;
    double steepest = -1.0;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      const double delta = std::abs(marginal[i + 1] - marginal[i]);
      if (delta > steepest) {
        steepest = delta;
        seg = i;
      }
    }

    RefinedAxis refined;
    refined.axis = row->axis;
    refined.seg_lo = sorted[seg];
    refined.seg_hi = sorted[seg + 1];
    refined.swing_mt = row->swing_mt;

    // New values that collide with an existing one at naming precision
    // are skipped: the axis is already as dense as names can express.
    std::set<std::string> existing;
    for (const double v : sorted) existing.insert(format_axis_value(v));
    std::vector<double> merged = sorted;
    for (size_t j = 1; j <= opt.points; ++j) {
      const double v = refined.seg_lo +
                       (refined.seg_hi - refined.seg_lo) *
                           static_cast<double>(j) /
                           static_cast<double>(opt.points + 1);
      if (existing.insert(format_axis_value(v)).second) {
        merged.push_back(v);
        ++refined.added;
      }
    }
    if (refined.added == 0) continue;
    std::sort(merged.begin(), merged.end());
    axis_it->values = std::move(merged);
    out.push_back(refined);
  }
  return out;
}

}  // namespace

SweepReport SweepEngine::run_adaptive(
    const std::vector<top500::SystemRecord>& records, const SweepSpec& spec,
    const RefineOptions& refine, SweepCellSink* sink) {
  const par::CacheStats before = options_.engine->cache_stats();

  SweepSpec current = spec;
  SweepReport report = run_round(records, current, 0, sink);
  report.refinement.push_back(
      RefinementRound{0, report.total_cells, {}, report.cache});

  for (size_t round = 1; round <= refine.rounds; ++round) {
    std::vector<RefinedAxis> refined = refine_spec(current, report, refine);
    if (refined.empty()) break;  // nothing left to densify

    std::vector<RefinementRound> trace = std::move(report.refinement);
    report = run_round(records, current, round, sink);
    trace.push_back(RefinementRound{round, report.total_cells,
                                    std::move(refined), report.cache});
    report.refinement = std::move(trace);
  }

  report.cache = options_.engine->cache_stats().since(before);
  return report;
}

std::string render_sweep_report(const SweepReport& r) {
  using util::format_double;
  std::string out = "Parameter sweep — " + std::to_string(r.total_cells) +
                    " derived scenarios over " +
                    std::to_string(r.num_records) + " systems\n";
  out += "  base: " + r.base_name + " — annualized " +
         format_double(r.base.annualized_mt, 0) +
         " MT CO2e/yr (operational " + format_double(r.base.op_total_mt, 0) +
         " MT/yr, embodied " + format_double(r.base.emb_total_mt, 0) +
         " MT)\n";
  out += "  cells: 1 base + " + std::to_string(r.axis_cells) +
         " axis endpoints + " + std::to_string(r.grid_cells) + " grid + " +
         std::to_string(r.mc_cells) + " monte-carlo\n\n";

  out += "Tornado — one axis swept, all others at base:\n";
  if (r.tornado.empty()) {
    out += "  (no multi-valued axes)\n";
  } else {
    util::TextTable t({"Axis", "Low", "High", "Ann@low MT", "Ann@high MT",
                       "Swing MT", "Swing %", "Max |op| %", "Max |emb| %"});
    for (const auto& row : r.tornado) {
      t.add_row({std::string(axis_name(row.axis)),
                 format_axis_value(row.low), format_axis_value(row.high),
                 format_double(row.low_annualized_mt, 0),
                 format_double(row.high_annualized_mt, 0),
                 format_double(row.swing_mt, 0),
                 format_double(row.swing_pct, 1),
                 format_double(row.op_max_abs_pct, 1),
                 format_double(row.emb_max_abs_pct, 1)});
    }
    out += t.render();
  }

  // The refinement trace renders only its deterministic fields (each
  // round's cache stats stay off stdout, like the sweep-level stats).
  if (r.refinement.size() > 1) {
    out += "\nAdaptive refinement — " +
           std::to_string(r.refinement.size() - 1) +
           " round(s) after the coarse grid:\n";
    for (const auto& round : r.refinement) {
      if (round.round == 0) {
        out += "  round 0 (coarse): " + std::to_string(round.cells) +
               " cells\n";
        continue;
      }
      std::string axes;
      for (const auto& ax : round.refined) {
        if (!axes.empty()) axes += ", ";
        axes += std::string(axis_name(ax.axis)) + " in [" +
                format_axis_value(ax.seg_lo) + ", " +
                format_axis_value(ax.seg_hi) + "] +" +
                std::to_string(ax.added) + " values";
      }
      out += "  round " + std::to_string(round.round) + ": " + axes + " — " +
             std::to_string(round.cells) + " cells\n";
    }
  }

  auto dist_line = [](const util::Summary& s) {
    return "min " + format_double(s.min, 0) + " | p05 " +
           format_double(s.p05, 0) + " | median " +
           format_double(s.median, 0) + " | mean " +
           format_double(s.mean, 0) + " | p95 " + format_double(s.p95, 0) +
           " | max " + format_double(s.max, 0);
  };
  out += "\nFleet totals across all " + std::to_string(r.total_cells) +
         " cells:\n";
  out += "  annualized (MT CO2e/yr):  " + dist_line(r.annualized_mt) + "\n";
  out += "  operational (MT CO2e/yr): " + dist_line(r.op_total_mt) + "\n";
  out += "  embodied (MT CO2e):       " + dist_line(r.emb_total_mt) + "\n";
  return out;
}

}  // namespace easyc::analysis
