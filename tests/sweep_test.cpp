// Sweep engine: axis-spec grammar, grid expansion counts and naming,
// axis-override correctness against hand-built specs, Monte-Carlo seed
// determinism, and the engine guarantees (1-vs-N-thread and batch-size
// bit-identity, cache amortization across aliased cells).
#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "top500/generator.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace easyc::analysis {
namespace {

namespace sc = scenarios;

// Register every cell of the expansion, in order, into one set (which
// also checks that cell names are unique and each spec validates).
ScenarioSet register_cells(const SweepSpec& spec) {
  const SweepExpansion expansion(spec);
  ScenarioSet set;
  for (size_t i = 0; i < expansion.size(); ++i) set.add(expansion.cell(i));
  return set;
}

// A 60-record slice of the generated list: plenty of coverage variety,
// fast enough to sweep many times in one test binary.
const std::vector<top500::SystemRecord>& records60() {
  static const auto kRecords = [] {
    auto all = top500::generate_records();
    all.resize(60);
    return all;
  }();
  return kRecords;
}

// --- grammar --------------------------------------------------------

TEST(SweepSpec, AxisNamesRoundTripAndAliases) {
  for (const SweepAxis a :
       {SweepAxis::kAci, SweepAxis::kPue, SweepAxis::kFab,
        SweepAxis::kUtilization, SweepAxis::kLifetime}) {
    EXPECT_EQ(axis_from_name(axis_name(a)), a);
  }
  EXPECT_EQ(axis_from_name("utilization"), SweepAxis::kUtilization);
  EXPECT_EQ(axis_from_name("lifetime"), SweepAxis::kLifetime);
  EXPECT_FALSE(axis_from_name("watts").has_value());
}

TEST(SweepSpec, ParsesListsRangesAndMonteCarlo) {
  const auto spec =
      SweepSpec::parse("aci=25,100; pue=1.1:1.5:3 ;life=4,8;mc=16@7");
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.axes[0].axis, SweepAxis::kAci);
  EXPECT_EQ(spec.axes[0].values, (std::vector<double>{25.0, 100.0}));
  EXPECT_EQ(spec.axes[1].axis, SweepAxis::kPue);
  ASSERT_EQ(spec.axes[1].values.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.axes[1].values[0], 1.1);
  EXPECT_NEAR(spec.axes[1].values[1], 1.3, 1e-12);
  EXPECT_DOUBLE_EQ(spec.axes[1].values[2], 1.5);
  EXPECT_EQ(spec.axes[2].axis, SweepAxis::kLifetime);
  ASSERT_TRUE(spec.monte_carlo.has_value());
  EXPECT_EQ(spec.monte_carlo->draws, 16u);
  EXPECT_EQ(spec.monte_carlo->seed, 7u);

  EXPECT_EQ(spec.grid_cells(), 12u);
  // 1 base + 2 endpoints per multi-valued axis + grid + draws.
  EXPECT_EQ(spec.total_cells(), 1u + 6u + 12u + 16u);
}

TEST(SweepSpec, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(SweepSpec::parse(""), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("watts=1,2"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("aci=25;aci=50"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("aci=25,banana"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("aci=1:2:1"), util::ParseError);   // n < 2
  EXPECT_THROW(SweepSpec::parse("aci=5:5:3"), util::ParseError);   // lo == hi
  EXPECT_THROW(SweepSpec::parse("aci=1:2"), util::ParseError);     // not lo:hi:n
  EXPECT_THROW(SweepSpec::parse("aci=25,25"), util::ParseError);   // duplicate
  EXPECT_THROW(SweepSpec::parse("aci=25;;pue=1.2"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("mc=16"), util::ParseError);       // no seed
  EXPECT_THROW(SweepSpec::parse("mc=0@7"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("mc=2@-1"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("mc=4@1;mc=4@2"), util::ParseError);
}

TEST(SweepSpec, ParseRejectsPhysicallyMeaninglessValues) {
  EXPECT_THROW(SweepSpec::parse("pue=-1"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("pue=0.5,1.2"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("util=0,0.5"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("util=0.5,1.5"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("life=0:8:5"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("life=-4,6"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("aci=-5,100"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("fab=-0.1,0.2"), util::ParseError);

  // Boundary values are legal: a carbon-free grid, a perfect facility,
  // full utilization.
  EXPECT_NO_THROW(SweepSpec::parse("aci=0,100;pue=1,1.2;util=0.5,1"));

  // The message names the axis, the value, and the violated range.
  try {
    SweepSpec::parse("util=0.5,0");
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("util"), std::string::npos) << what;
    EXPECT_NE(what.find("value 0"), std::string::npos) << what;
    EXPECT_NE(what.find("(0,1]"), std::string::npos) << what;
  }

  // ScenarioSet::add stays as the backstop for hand-built SweepSpecs
  // that never went through the grammar.
  SweepSpec bad;
  bad.base = sc::enhanced();
  bad.axes.push_back({SweepAxis::kPue, {0.5, 1.2}});
  EXPECT_THROW(register_cells(bad), util::Error);
  ScenarioSet set;
  EXPECT_THROW(set.add(apply_axis(sc::enhanced(), SweepAxis::kPue, 0.5)),
               util::Error);
}

// --- expansion ------------------------------------------------------

TEST(SweepSpec, ApplyAxisMatchesHandBuiltSpecs) {
  // The stock renewables-grid what-if *is* enhanced + aci=25: deriving
  // it through the axis machinery must land on the same assessment
  // identity (equal fingerprints => the memo cache serves either).
  EXPECT_EQ(apply_axis(sc::enhanced(), SweepAxis::kAci, 25.0).fingerprint(),
            sc::renewables_grid().fingerprint());

  // The lifetime axis only reaches annualization: same fingerprint as
  // its base (the cache win behind cheap lifetime sweeps), new
  // service_years — exactly the stock extended-lifetime what-if.
  const ScenarioSpec life8 = apply_axis(sc::enhanced(), SweepAxis::kLifetime,
                                        8.0);
  EXPECT_EQ(life8.fingerprint(), sc::enhanced().fingerprint());
  EXPECT_DOUBLE_EQ(life8.service_years,
                   sc::extended_lifetime().service_years);

  const auto opt = apply_axis(sc::baseline(), SweepAxis::kPue, 1.25)
                       .to_options();
  EXPECT_EQ(opt.operational.pue_override, 1.25);
  const auto fab = apply_axis(sc::baseline(), SweepAxis::kFab, 0.2);
  EXPECT_EQ(fab.fab_aci_kg_kwh, 0.2);
  const auto util = apply_axis(sc::baseline(), SweepAxis::kUtilization, 0.6);
  EXPECT_EQ(util.default_utilization, 0.6);
}

TEST(SweepExpansion, NamesAreOrderedUniqueAndCorrect) {
  const auto spec = SweepSpec::parse("aci=25,100;life=4,8;mc=3@9");
  const ScenarioSet set = register_cells(spec);
  ASSERT_EQ(set.size(), spec.total_cells());

  EXPECT_EQ(set.specs().front().name, "sweep/base");
  EXPECT_EQ(set.specs().front().fingerprint(), sc::enhanced().fingerprint());
  EXPECT_TRUE(set.contains("sweep/axis/aci=25"));
  EXPECT_TRUE(set.contains("sweep/axis/aci=100"));
  EXPECT_TRUE(set.contains("sweep/axis/life=4"));
  EXPECT_TRUE(set.contains("sweep/mc/0002"));
  EXPECT_FALSE(set.contains("sweep/mc/0003"));

  // A grid cell carries exactly the overrides its name declares —
  // identical to deriving the same cell by hand.
  const ScenarioSpec& cell = set.at("sweep/grid/aci=25/life=4");
  const ScenarioSpec by_hand = apply_axis(
      apply_axis(sc::enhanced(), SweepAxis::kAci, 25.0),
      SweepAxis::kLifetime, 4.0);
  EXPECT_EQ(cell.fingerprint(), by_hand.fingerprint());
  EXPECT_DOUBLE_EQ(cell.service_years, 4.0);
  EXPECT_EQ(cell.aci_override_g_kwh, 25.0);
  // ...and the single-axis endpoint aliases the stock what-if.
  EXPECT_EQ(set.at("sweep/axis/aci=25").fingerprint(),
            sc::renewables_grid().fingerprint());
}

TEST(SweepExpansion, MonteCarloDrawsAreSeededAndSpecExpressible) {
  const auto a = register_cells(SweepSpec::parse("mc=6@42"));
  const auto b = register_cells(SweepSpec::parse("mc=6@42"));
  const auto c = register_cells(SweepSpec::parse("mc=6@43"));
  ASSERT_EQ(a.size(), 7u);  // base + draws
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.specs()[i].fingerprint(), b.specs()[i].fingerprint());
    any_differs |= a.specs()[i].fingerprint() != c.specs()[i].fingerprint();
  }
  EXPECT_TRUE(any_differs);

  // Draws perturb the spec-expressible priors around the base values.
  const ScenarioSpec& draw = a.at("sweep/mc/0000");
  ASSERT_TRUE(draw.default_utilization.has_value());
  ASSERT_TRUE(draw.fab_aci_kg_kwh.has_value());
  const model::PriorRanges ranges;
  const model::EasyCOptions base = sc::enhanced().to_options();
  EXPECT_NEAR(*draw.default_utilization, base.operational.default_utilization,
              base.operational.default_utilization * ranges.utilization_rel +
                  1e-12);
  EXPECT_NEAR(*draw.fab_aci_kg_kwh, base.embodied.fab_aci_kg_kwh,
              base.embodied.fab_aci_kg_kwh * ranges.fab_aci_rel + 1e-12);
  // No absolute ACI override on the base scenario => none on the draw.
  EXPECT_FALSE(draw.aci_override_g_kwh.has_value());
}

// --- engine ---------------------------------------------------------

TEST(SweepEngine, ReportIsBitIdenticalForAnyThreadCountAndBatchSize) {
  const auto spec = SweepSpec::parse("aci=25,300;util=0.6:0.9:3;mc=8@3");

  par::ThreadPool serial(1);
  SweepEngine::Options one;
  one.pool = &serial;
  one.batch_size = 5;
  const SweepReport a = SweepEngine(one).run(records60(), spec);

  par::ThreadPool wide(4);
  SweepEngine::Options many;
  many.pool = &wide;
  many.batch_size = 1000;  // everything in one block
  const SweepReport b = SweepEngine(many).run(records60(), spec);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].name, b.cells[i].name);
    EXPECT_EQ(a.cells[i].op_total_mt, b.cells[i].op_total_mt) << i;
    EXPECT_EQ(a.cells[i].emb_total_mt, b.cells[i].emb_total_mt) << i;
    EXPECT_EQ(a.cells[i].annualized_mt, b.cells[i].annualized_mt) << i;
  }
  EXPECT_EQ(render_sweep_report(a), render_sweep_report(b));
  EXPECT_NE(a.batches, b.batches);  // the runs really differed in shape
}

TEST(SweepEngine, SeedDeterminismReachesTheReport) {
  const SweepReport a =
      SweepEngine().run(records60(), SweepSpec::parse("mc=12@7"));
  const SweepReport b =
      SweepEngine().run(records60(), SweepSpec::parse("mc=12@7"));
  const SweepReport c =
      SweepEngine().run(records60(), SweepSpec::parse("mc=12@8"));
  EXPECT_EQ(render_sweep_report(a), render_sweep_report(b));
  EXPECT_NE(render_sweep_report(a), render_sweep_report(c));
}

TEST(SweepEngine, LifetimeAxisCellsAliasTheirBaseAssessments) {
  // life is excluded from the assessment fingerprint, so a pure
  // lifetime sweep computes each record exactly once — every other
  // cell is lookups. 5 cells (base + 2 endpoints + 2 grid) x 60
  // records = 300 lookups, 60 misses.
  AssessmentEngine engine;
  SweepEngine::Options opt;
  opt.engine = &engine;
  const SweepReport r =
      SweepEngine(opt).run(records60(), SweepSpec::parse("life=4,8"));
  EXPECT_EQ(r.cells.size(), 5u);
  EXPECT_EQ(r.cache.lookups(), 300u);
  EXPECT_EQ(r.cache.misses, 60u);
  EXPECT_EQ(r.cache.hits, 240u);

  // Same engine, same sweep: pure lookups, byte-identical report.
  const SweepReport warm =
      SweepEngine(opt).run(records60(), SweepSpec::parse("life=4,8"));
  EXPECT_DOUBLE_EQ(warm.cache.hit_rate(), 1.0);
  EXPECT_EQ(render_sweep_report(r), render_sweep_report(warm));
}

TEST(SweepEngine, TornadoSwingsPointTheRightWay) {
  const SweepReport r = SweepEngine().run(
      records60(), SweepSpec::parse("aci=25,600;life=4,8"));
  ASSERT_EQ(r.tornado.size(), 2u);

  const TornadoRow& aci = r.tornado[0];
  EXPECT_EQ(aci.axis, SweepAxis::kAci);
  EXPECT_DOUBLE_EQ(aci.low, 25.0);
  EXPECT_DOUBLE_EQ(aci.high, 600.0);
  // A dirtier grid means more operational carbon.
  EXPECT_GT(aci.swing_mt, 0.0);
  EXPECT_GT(aci.op_max_abs_pct, 100.0);   // 25 -> 600 is a 24x ACI
  EXPECT_DOUBLE_EQ(aci.emb_max_abs_pct, 0.0);  // embodied ignores the grid

  const TornadoRow& life = r.tornado[1];
  EXPECT_EQ(life.axis, SweepAxis::kLifetime);
  // Longer amortization lowers the annualized total...
  EXPECT_LT(life.swing_mt, 0.0);
  // ...without touching any per-record assessment.
  EXPECT_DOUBLE_EQ(life.op_max_abs_pct, 0.0);
  EXPECT_DOUBLE_EQ(life.emb_max_abs_pct, 0.0);

  // An endpoint cell and a grid cell that share every model-reaching
  // override are the same assessment under different names (the
  // endpoint keeps life at base 6, the grid cell sets life=4 — but
  // the operational total never depends on life); their per-record
  // aggregates must agree exactly.
  const auto cell = [&](const std::string& name) -> const SweepCell& {
    for (const auto& c : r.cells) {
      if (c.name == name) return c;
    }
    throw util::Error("no cell named " + name);
  };
  EXPECT_DOUBLE_EQ(cell("sweep/axis/aci=25").op_total_mt,
                   cell("sweep/grid/aci=25/life=4").op_total_mt);
}

// --- exact statistics at every size --------------------------------

// Collects the three per-cell totals an EZCELLS export carries.
struct TotalsSink : SweepCellSink {
  std::vector<double> annualized, op, emb;
  void cell(size_t, size_t, const SweepCell& c) override {
    annualized.push_back(c.annualized_mt);
    op.push_back(c.op_total_mt);
    emb.push_back(c.emb_total_mt);
  }
};

void expect_bit_equal(const util::Summary& got, const util::Summary& want,
                      const char* what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.total, want.total) << what;
  EXPECT_EQ(got.mean, want.mean) << what;
  EXPECT_EQ(got.stddev, want.stddev) << what;
  EXPECT_EQ(got.min, want.min) << what;
  EXPECT_EQ(got.max, want.max) << what;
  EXPECT_EQ(got.median, want.median) << what;
  EXPECT_EQ(got.p05, want.p05) << what;
  EXPECT_EQ(got.p95, want.p95) << what;
}

TEST(SweepReduction, BigSweepSummariesAreExact) {
  // 8 records x 65,545 cells (16^4 grid + base + 8 endpoints): a sweep
  // above 65,536 cells, the size at which an earlier approximate
  // reduction took over. The report's summaries must be util::summarize
  // over the exported totals, bit for bit, and the same for any thread
  // count and batch size.
  std::vector<top500::SystemRecord> records(records60().begin(),
                                            records60().begin() + 8);
  const auto spec = SweepSpec::parse(
      "aci=20:770:16;pue=1.07:1.95:16;util=0.45:0.95:16;life=3:18:16");
  ASSERT_GE(spec.total_cells(), 65536u);

  par::ThreadPool wide(4);
  SweepEngine::Options many;
  many.pool = &wide;
  many.batch_size = 1024;
  many.retain_cells = false;
  std::ostringstream bin;
  BinaryCellSink export_sink(bin);
  const SweepReport r = SweepEngine(many).run(records, spec, &export_sink);
  export_sink.finish();

  TotalsSink totals;
  std::istringstream in(bin.str());
  ASSERT_EQ(read_binary_cells(in, totals), spec.total_cells());
  expect_bit_equal(r.annualized_mt, util::summarize(totals.annualized),
                   "annualized");
  expect_bit_equal(r.op_total_mt, util::summarize(totals.op), "operational");
  expect_bit_equal(r.emb_total_mt, util::summarize(totals.emb), "embodied");

  par::ThreadPool serial(1);
  SweepEngine::Options one;
  one.pool = &serial;
  one.batch_size = 64;
  one.retain_cells = false;
  EXPECT_EQ(render_sweep_report(SweepEngine(one).run(records, spec)),
            render_sweep_report(r));
}

// --- per-cell export ------------------------------------------------

TEST(SweepCellExport, CsvRoundTripsAndMatchesTheReport) {
  const auto spec = SweepSpec::parse("aci=25,300;life=4,8;mc=4@9");
  std::ostringstream csv;
  CsvCellSink sink(csv);
  const SweepReport r = SweepEngine().run(records60(), spec, &sink);

  const util::CsvTable t = util::CsvTable::parse(csv.str());
  EXPECT_EQ(t.header(), CsvCellSink::columns());
  ASSERT_EQ(t.num_rows(), r.cells.size());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(t.cell(i, "round"), "0");
    EXPECT_EQ(t.cell_int(i, "index"), static_cast<long long>(i));
    EXPECT_EQ(t.cell(i, "scenario"), r.cells[i].name);
    EXPECT_EQ(t.cell(i, "kind"), cell_kind_name(r.cells[i].kind));
    // Aggregates are written as %.17g, which round-trips doubles
    // exactly.
    EXPECT_EQ(t.cell_double(i, "op_total_mt"), r.cells[i].op_total_mt);
    EXPECT_EQ(t.cell_double(i, "emb_total_mt"), r.cells[i].emb_total_mt);
    EXPECT_EQ(t.cell_double(i, "annualized_mt"), r.cells[i].annualized_mt);
    EXPECT_EQ(t.cell_int(i, "op_covered"), r.cells[i].op_covered);
    EXPECT_EQ(t.cell_int(i, "emb_covered"), r.cells[i].emb_covered);
  }

  // A grid cell's coordinate columns carry exactly its name's declared
  // values; axes the cell leaves at the model default stay empty.
  bool found = false;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (t.cell(i, "scenario") != "sweep/grid/aci=25/life=4") continue;
    found = true;
    EXPECT_EQ(t.cell(i, "kind"), "grid");
    EXPECT_EQ(t.cell_double(i, "aci_g_kwh"), 25.0);
    EXPECT_EQ(t.cell_double(i, "service_years"), 4.0);
    EXPECT_TRUE(t.cell(i, "pue").empty());
    EXPECT_TRUE(t.cell(i, "fab_kg_kwh").empty());
  }
  EXPECT_TRUE(found);
}

TEST(SweepCellExport, QuotesFieldsEmbeddingDelimiters) {
  // A base scenario whose label embeds commas, quotes, and a newline:
  // the cell descriptions inherit it, so an unquoted writer would
  // shear every row. The export must round-trip it through a strict
  // RFC-4180 reader.
  ScenarioSpec base = sc::enhanced();
  base.name = "procurement, 2025 \"winter\"\nrevision";
  const SweepSpec spec = SweepSpec::parse("life=4,8", base);

  std::ostringstream csv;
  CsvCellSink sink(csv);
  SweepEngine().run(records60(), spec, &sink);

  const util::CsvTable t = util::CsvTable::parse(csv.str());
  EXPECT_EQ(t.cell(0, "scenario"), "sweep/base");
  EXPECT_EQ(t.cell(0, "description"),
            "sweep base (procurement, 2025 \"winter\"\nrevision)");
}

TEST(SweepCellExport, FileIsByteIdenticalForThreadsBatchesAndCacheState) {
  const auto spec = SweepSpec::parse("aci=25,300;util=0.6:0.9:3");

  par::ThreadPool serial(1);
  std::ostringstream a;
  {
    SweepEngine::Options opt;
    opt.pool = &serial;
    opt.batch_size = 3;
    CsvCellSink sink(a);
    SweepEngine(opt).run(records60(), spec, &sink);
  }

  par::ThreadPool wide(4);
  AssessmentEngine shared({.pool = &wide});
  std::ostringstream b, c;
  {
    SweepEngine::Options opt;
    opt.engine = &shared;
    opt.batch_size = 1000;  // everything in one block
    CsvCellSink sink(b);
    SweepEngine(opt).run(records60(), spec, &sink);
  }
  {
    SweepEngine::Options opt;  // same engine again: warm cache
    opt.engine = &shared;
    CsvCellSink sink(c);
    SweepEngine(opt).run(records60(), spec, &sink);
  }
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str(), c.str());
}

// --- adaptive refinement --------------------------------------------

TEST(SweepAdaptive, RefinesTheSteepestAxisAndHitsTheCacheHarder) {
  const auto spec = SweepSpec::parse("aci=25:600:4;pue=1.1:1.6:3");
  AssessmentEngine engine;
  SweepEngine::Options opt;
  opt.engine = &engine;
  RefineOptions refine;
  refine.top_axes = 1;
  refine.rounds = 2;
  refine.points = 3;
  const SweepReport r =
      SweepEngine(opt).run_adaptive(records60(), spec, refine);

  ASSERT_EQ(r.refinement.size(), 3u);  // coarse + 2 refinement rounds
  EXPECT_EQ(r.refinement[0].round, 0u);
  EXPECT_TRUE(r.refinement[0].refined.empty());
  size_t grid_values = 4;
  for (size_t i = 1; i < r.refinement.size(); ++i) {
    const auto& round = r.refinement[i];
    EXPECT_EQ(round.round, i);
    ASSERT_EQ(round.refined.size(), 1u);
    const RefinedAxis& ax = round.refined[0];
    // A 24x ACI range dwarfs the PUE swing, so ACI is the axis picked.
    EXPECT_EQ(ax.axis, SweepAxis::kAci);
    EXPECT_EQ(ax.added, 3u);
    EXPECT_LT(ax.seg_lo, ax.seg_hi);
    EXPECT_GE(ax.seg_lo, 25.0);
    EXPECT_LE(ax.seg_hi, 600.0);
    grid_values += ax.added;
    // Every previous value is kept, so a refinement round re-runs the
    // old grid from cache and out-hits the coarse round.
    EXPECT_GT(round.cache.hit_rate(), r.refinement[0].cache.hit_rate());
  }
  // The final report describes the final (densified) grid...
  EXPECT_EQ(r.grid_cells, grid_values * 3);
  EXPECT_EQ(r.refinement.back().cells, r.cells.size());
  // ...and its cache stats are cumulative over all rounds.
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& round : r.refinement) {
    hits += round.cache.hits;
    misses += round.cache.misses;
  }
  EXPECT_EQ(r.cache.hits, hits);
  EXPECT_EQ(r.cache.misses, misses);
}

TEST(SweepAdaptive, StopsWhenNothingCanBeRefined) {
  // A single two-point axis refines once... and then keeps finding new
  // in-segment values, so cap by rounds; mc-only sweeps have no
  // multi-valued axes at all and stop immediately.
  AssessmentEngine engine;
  SweepEngine::Options opt;
  opt.engine = &engine;
  RefineOptions refine;
  refine.rounds = 3;
  const SweepReport mc_only =
      SweepEngine(opt).run_adaptive(records60(), SweepSpec::parse("mc=4@1"),
                                    refine);
  ASSERT_EQ(mc_only.refinement.size(), 1u);  // coarse only
  EXPECT_TRUE(mc_only.refinement[0].refined.empty());
}

TEST(SweepAdaptive, ReportAndExportAreIdenticalAcrossThreadsAndCacheState) {
  const auto spec = SweepSpec::parse("aci=25:600:4;util=0.6,0.9");
  RefineOptions refine;
  refine.top_axes = 2;
  refine.rounds = 2;

  struct Run {
    std::string report;
    std::string csv;
    double hit_rate = 0.0;
  };
  auto run_with = [&](par::ThreadPool& pool, bool prewarm) {
    AssessmentEngine engine({.pool = &pool});
    SweepEngine::Options opt;
    opt.engine = &engine;
    if (prewarm) {
      SweepEngine(opt).run_adaptive(records60(), spec, refine);
    }
    std::ostringstream csv;
    CsvCellSink sink(csv);
    const SweepReport r =
        SweepEngine(opt).run_adaptive(records60(), spec, refine, &sink);
    return Run{render_sweep_report(r), csv.str(), r.cache.hit_rate()};
  };

  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const Run a = run_with(one, false);
  const Run b = run_with(four, false);
  const Run c = run_with(four, true);

  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.report, c.report);  // warm == cold, byte for byte
  EXPECT_EQ(a.csv, c.csv);
  EXPECT_DOUBLE_EQ(c.hit_rate, 1.0);  // the warm rerun is pure lookups
  EXPECT_NE(a.report.find("Adaptive refinement"), std::string::npos);
}

}  // namespace
}  // namespace easyc::analysis
