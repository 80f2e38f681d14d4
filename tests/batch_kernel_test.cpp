// Bit-identity of the engine's two cache-miss kernels against the
// scalar oracle (EasyCModel::assess): the catalog under every stock
// scenario, a ~1k-cell sweep slice, mixed valid/invalid/missing-input
// lanes, ValidationError parity, cache-on vs cache-off, and
// 1-vs-N-thread determinism. The engine picks its kernel from the
// scenario set's shape, so both sides of that choice are driven here by
// shape; model::BatchAssessor is also driven directly. Byte-identity
// is checked through the assessment codec's bytes — same doubles, same
// failure reasons in the same order, same coverage.
#include "easyc/batch.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "analysis/sweep.hpp"
#include "easyc/codec.hpp"
#include "parallel/thread_pool.hpp"
#include "top500/generator.hpp"
#include "top500/history.hpp"
#include "top500/record.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace easyc::analysis {
namespace {

namespace sc = scenarios;
using analysis::AssessmentEngine;

// Byte-identity is asserted through the codec: if two assessments
// encode to the same bytes, every double is bit-equal and every
// failure-reason list matches in content and order.
std::string bytes_of(const model::SystemAssessment& a) {
  util::BinaryWriter w;
  model::encode_assessment(w, a);
  return w.bytes();
}

void expect_bytes_identical(const std::vector<EditionAssessment>& a,
                            const std::vector<EditionAssessment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].scenarios.size(), b[e].scenarios.size());
    for (size_t s = 0; s < a[e].scenarios.size(); ++s) {
      const auto& sa = a[e].scenarios[s].assessments;
      const auto& sb = b[e].scenarios[s].assessments;
      ASSERT_EQ(sa.size(), sb.size());
      for (size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(bytes_of(sa[i]), bytes_of(sb[i]))
            << a[e].label << " scenario " << a[e].scenarios[s].spec.name
            << " record " << i;
      }
    }
  }
}

// Every cell of `got` against the oracle's bytes for that cell.
void expect_matches_oracle(const EditionAssessment& got,
                           const std::vector<top500::SystemRecord>& records,
                           const std::string& what) {
  for (const auto& result : got.scenarios) {
    const ScenarioSpec& spec = result.spec;
    const model::EasyCModel oracle(spec.to_options());
    ASSERT_EQ(result.assessments.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(bytes_of(result.assessments[i]),
                bytes_of(oracle.assess(to_inputs(records[i],
                                                 spec.visibility))))
          << what << ": " << spec.name << " record " << i;
    }
  }
}

// The SoA kernel on its own: one profile per distinct (visibility,
// record), each scenario assessed as one batch of lanes. Returns the
// same shape the engine does, so expect_matches_oracle applies.
EditionAssessment assess_with_batch(
    const std::vector<top500::SystemRecord>& records, const ScenarioSet& set,
    par::ThreadPool& pool) {
  model::BatchAssessor batch;
  constexpr size_t kUnset = static_cast<size_t>(-1);
  std::array<size_t, top500::kNumDataVisibilities> first;
  first.fill(kUnset);
  for (const auto& spec : set.specs()) {
    size_t& base = first[static_cast<size_t>(spec.visibility)];
    if (base != kUnset) continue;
    base = batch.num_profiles();
    for (const auto& r : records) {
      batch.add_profile(to_inputs(r, spec.visibility));
    }
  }
  batch.resolve_profiles(&pool);

  EditionAssessment out;
  std::vector<model::BatchAssessor::Cell> cells(records.size());
  for (const auto& spec : set.specs()) {
    ScenarioResults& result = out.scenarios.emplace_back();
    result.spec = spec;
    result.assessments.resize(records.size());
    const size_t base = first[static_cast<size_t>(spec.visibility)];
    for (size_t i = 0; i < records.size(); ++i) {
      cells[i] = {base + i, &result.assessments[i]};
    }
    batch.assess(spec.to_options(), cells.data(), cells.size(), &pool);
  }
  return out;
}

// Every stock scenario: the paper pair, the what-if trio, and the
// ground-truth bound — three visibilities, overrides, both policies.
// Six specs over three visibilities: the engine's SoA shape.
ScenarioSet all_stock_scenarios() {
  ScenarioSet set = ScenarioSet::paper_with_whatifs();
  set.add(sc::full_knowledge());
  return set;
}

// One spec: a single lane per profile, the engine's scalar shape (what
// the server's `assess` request submits).
ScenarioSet one_spec() {
  ScenarioSet set;
  set.add(sc::enhanced());
  return set;
}

// A sweep block: derived what-ifs over one visibility, the shape
// SweepEngine submits per batch.
ScenarioSet sweep_block() {
  ScenarioSet set;
  int n = 0;
  for (double fab : {0.3, 0.65}) {
    for (double pue : {1.15, 1.45}) {
      ScenarioSpec spec = sc::enhanced();
      spec.name = "sweep/" + std::to_string(n++);
      spec.fab_aci_kg_kwh = fab;
      spec.pue_override = pue;
      set.add(spec);
    }
  }
  return set;
}

// A 4-axis slice: 5 x 5 x 5 x 8 = 1000 grid cells plus the base and
// per-axis endpoint cells. Lifetime cells alias on the assessment
// fingerprint, so the distinct-work set stays test-sized while the
// cell set crosses 1k (and the engine's alias grid runs).
SweepSpec sweep_slice() {
  return SweepSpec::parse(
      "aci=25:600:5;pue=1.1:1.9:5;util=0.5:0.95:5;life=4:8:8");
}

ScenarioSet register_cells(const SweepSpec& spec) {
  const SweepExpansion expansion(spec);
  ScenarioSet set;
  for (size_t i = 0; i < expansion.size(); ++i) set.add(expansion.cell(i));
  return set;
}

// --- kernels vs the oracle ------------------------------------------

TEST(FillKernels, CatalogAllStockScenariosMatchOracle) {
  const auto records = top500::generate_records();
  const auto set = all_stock_scenarios();
  par::ThreadPool one(1);

  expect_matches_oracle(assess_with_batch(records, set, one), records,
                        "BatchAssessor");

  AssessmentEngine cached({.pool = &one});
  AssessmentEngine uncached({.pool = &one, .cache_enabled = false});
  expect_matches_oracle(cached.assess(records, set), records, "cache on");
  expect_matches_oracle(uncached.assess(records, set), records, "cache off");

  // Six specs over three visibilities batch through the SoA kernel:
  // each distinct (visibility, record) profile is resolved and
  // validated exactly once, cache on or off. With the cache on, the
  // extended-lifetime alias of `enhanced` is served from the table.
  for (const AssessmentEngine* engine : {&cached, &uncached}) {
    const auto stats = engine->batch_stats();
    EXPECT_EQ(stats.profiles, 3 * records.size());
    EXPECT_EQ(stats.validations, stats.profiles);
  }
  EXPECT_EQ(uncached.batch_stats().lanes, set.size() * records.size());
  EXPECT_EQ(cached.batch_stats().lanes, (set.size() - 1) * records.size());
}

TEST(FillKernels, SweepSliceMatchesOracle) {
  auto records = top500::generate_records();
  records.resize(30);
  const ScenarioSet set = register_cells(sweep_slice());
  ASSERT_GE(set.size(), 1000u);
  par::ThreadPool one(1);

  expect_matches_oracle(assess_with_batch(records, set, one), records,
                        "BatchAssessor");
  AssessmentEngine engine({.pool = &one});
  expect_matches_oracle(engine.assess(records, set), records, "engine");
  EXPECT_GT(engine.batch_stats().lanes, 0u);
}

// --- the automatic kernel choice ------------------------------------

TEST(FillKernels, KernelChoiceFollowsScenarioShape) {
  const auto records = top500::generate_records();
  par::ThreadPool one(1);

  // Below two lanes per profile the scalar kernel runs: nothing batches.
  for (const ScenarioSet& set : {one_spec(), ScenarioSet::paper()}) {
    AssessmentEngine engine({.pool = &one});
    engine.assess(records, set);
    EXPECT_EQ(engine.batch_stats().lanes, 0u) << set.size() << " specs";
  }

  // A sweep block amortizes each profile across its lanes.
  const ScenarioSet block = sweep_block();
  AssessmentEngine engine({.pool = &one});
  engine.assess(records, block);
  const auto stats = engine.batch_stats();
  EXPECT_EQ(stats.lanes, block.size() * records.size());
  EXPECT_EQ(stats.profiles, records.size());
}

TEST(FillKernels, CacheOnMatchesCacheOffForBothShapes) {
  const auto records = top500::generate_records();
  par::ThreadPool one(1);

  for (const ScenarioSet& set : {one_spec(), sweep_block()}) {
    AssessmentEngine cached({.pool = &one});
    AssessmentEngine uncached({.pool = &one, .cache_enabled = false});
    const auto off = uncached.assess(records, set);
    const auto cold = cached.assess(records, set);
    const auto warm = cached.assess(records, set);
    expect_bytes_identical({off}, {cold});
    expect_bytes_identical({off}, {warm});
    expect_matches_oracle(off, records, "cache off");

    // Warm is pure lookups; the uncached engine never touched a table.
    EXPECT_EQ(cached.cache_stats().misses, set.size() * records.size());
    EXPECT_EQ(cached.cache_stats().hits, set.size() * records.size());
    EXPECT_EQ(uncached.cache_stats().entries, 0u);
    EXPECT_EQ(uncached.cache_stats().hits + uncached.cache_stats().misses,
              0u);
  }

  // A sweep over the cached and the uncached engine: same report, same
  // per-cell export, byte for byte.
  auto slice_records = records;
  slice_records.resize(30);
  AssessmentEngine cached({.pool = &one});
  AssessmentEngine uncached({.pool = &one, .cache_enabled = false});
  std::ostringstream cached_csv, uncached_csv;
  CsvCellSink cached_sink(cached_csv), uncached_sink(uncached_csv);
  SweepEngine se({.engine = &cached});
  SweepEngine ue({.engine = &uncached});
  const auto rc = se.run(slice_records, sweep_slice(), &cached_sink);
  const auto ru = ue.run(slice_records, sweep_slice(), &uncached_sink);
  ASSERT_GE(rc.cells.size(), 1000u);
  EXPECT_EQ(render_sweep_report(rc), render_sweep_report(ru));
  EXPECT_EQ(cached_csv.str(), uncached_csv.str());
}

// --- mixed valid / failing / missing-input lanes --------------------

// Lanes covering every resolution path and failure reason the kernel
// masks: metered, reported, roll-up, core-count, no-path, unknown
// country, in-catalog accelerator, unknown accelerator (strict fail /
// approx proxy), missing GPU count, unknown processor.
std::vector<model::Inputs> mixed_lanes() {
  std::vector<model::Inputs> lanes;

  model::Inputs full;  // every metric present, accelerated, in catalog
  full.name = "full";
  full.country = "United States";
  full.region = "Tennessee";
  full.rmax_tflops = 1.2e6;
  full.rpeak_tflops = 1.7e6;
  full.power_kw = 22000.0;
  full.total_cores = 8'000'000;
  full.processor = "AMD EPYC 7763 64C 2.45GHz";
  full.accelerator = "MI250X";
  full.operation_year = 2022;
  full.num_nodes = 9400;
  full.num_gpus = 37600;
  full.num_cpus = 9400;
  full.memory_gb = 4'800'000.0;
  full.memory_type = "DDR4";
  full.ssd_tb = 11000.0;
  full.utilization = 0.8;
  lanes.push_back(full);

  model::Inputs metered = full;  // metered path beats reported power
  metered.name = "metered";
  metered.annual_energy_kwh = 1.5e8;
  lanes.push_back(metered);

  model::Inputs rollup = full;  // no reported power: component roll-up
  rollup.name = "rollup";
  rollup.power_kw.reset();
  lanes.push_back(rollup);

  model::Inputs cores_only;  // nothing but cores: era-prior W/core path
  cores_only.name = "cores-only";
  cores_only.country = "Germany";
  cores_only.rmax_tflops = 5000.0;
  cores_only.rpeak_tflops = 7000.0;
  cores_only.total_cores = 150000;
  cores_only.processor = "Xeon Platinum 8280 28C 2.7GHz";
  cores_only.operation_year = 2020;
  lanes.push_back(cores_only);

  model::Inputs no_path;  // no power, no counts: operational failure
  no_path.name = "no-path";
  no_path.country = "Japan";
  no_path.rmax_tflops = 3000.0;
  no_path.rpeak_tflops = 4000.0;
  no_path.processor = "mystery chip";
  lanes.push_back(no_path);

  model::Inputs no_aci = full;  // country outside the ACI database
  no_aci.name = "no-aci";
  no_aci.country = "Atlantis";
  no_aci.region.clear();
  lanes.push_back(no_aci);

  model::Inputs unknown_acc = full;  // strict declines, approx proxies
  unknown_acc.name = "unknown-acc";
  unknown_acc.accelerator = "FutureChip Z9";
  lanes.push_back(unknown_acc);

  model::Inputs no_gpu_count = full;  // accelerated but count unknown
  no_gpu_count.name = "no-gpu-count";
  no_gpu_count.num_gpus.reset();
  lanes.push_back(no_gpu_count);

  model::Inputs unknown_cpu = full;  // embodied CPU failure
  unknown_cpu.name = "unknown-cpu";
  unknown_cpu.processor = "mystery chip";
  unknown_cpu.accelerator.clear();
  unknown_cpu.num_gpus.reset();
  lanes.push_back(unknown_cpu);

  model::Inputs sparse;  // power only, defaults everywhere else
  sparse.name = "sparse";
  sparse.country = "France";
  sparse.rmax_tflops = 9000.0;
  sparse.rpeak_tflops = 12000.0;
  sparse.power_kw = 900.0;
  sparse.processor = "AMD EPYC 7763 64C 2.45GHz";
  sparse.total_cores = 200000;
  sparse.num_nodes = 1500;
  lanes.push_back(sparse);

  return lanes;
}

// Option sets spanning both policies and every override the kernel
// blends: stock scenarios plus targeted overrides.
std::vector<model::EasyCOptions> option_sets() {
  std::vector<model::EasyCOptions> sets;
  sets.push_back(sc::enhanced().to_options());
  sets.push_back(sc::baseline().to_options());  // strict policy
  sets.push_back(sc::renewables_grid().to_options());  // ACI override
  sets.push_back(sc::full_knowledge().to_options());

  model::EasyCOptions pue = sc::enhanced().to_options();
  pue.operational.pue_override = 1.08;
  sets.push_back(pue);

  model::EasyCOptions knobs = sc::enhanced().to_options();
  knobs.operational.default_utilization = 0.6;
  knobs.embodied.fab_aci_kg_kwh = 0.2;
  knobs.embodied.accelerator_policy =
      model::AcceleratorPolicy::kApproximateWithMainstreamGpu;
  sets.push_back(knobs);
  return sets;
}

TEST(FillKernels, MixedLanesMatchScalarUnderEveryOptionSet) {
  const auto lanes = mixed_lanes();
  par::ThreadPool one(1);

  model::BatchAssessor batch;
  for (const auto& in : lanes) batch.add_profile(in);
  batch.resolve_profiles(&one);

  for (const auto& options : option_sets()) {
    std::vector<model::SystemAssessment> got(lanes.size());
    std::vector<model::BatchAssessor::Cell> cells(lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) cells[i] = {i, &got[i]};
    batch.assess(options, cells.data(), cells.size(), &one);

    model::EasyCModel oracle(options);
    for (size_t i = 0; i < lanes.size(); ++i) {
      EXPECT_EQ(bytes_of(got[i]), bytes_of(oracle.assess(lanes[i])))
          << lanes[i].name;
    }
  }
}

TEST(FillKernels, InvalidInputsThrowValidationErrorLikeScalar) {
  model::Inputs bad = mixed_lanes()[0];
  bad.name = "bad";
  bad.rmax_tflops = -1.0;  // performance must be non-negative

  model::EasyCModel oracle;
  EXPECT_THROW(oracle.assess(bad), util::ValidationError);

  model::BatchAssessor batch;
  batch.add_profile(bad);
  EXPECT_THROW(batch.resolve_profiles(), util::ValidationError);
}

// --- thread-count determinism and cache accounting -----------------

// Cold and warm runs over a 3-edition history on 1 and 8 threads, for
// both kernel shapes: identical bytes, identical hit/miss/entry counts,
// and exactly one miss per distinct (record content, scenario) key.
TEST(FillKernels, ColdAndWarmAccountingIdenticalAcrossThreads) {
  top500::HistoryConfig cfg;
  cfg.editions = 3;
  const auto history = top500::generate_history(cfg);
  par::ThreadPool one(1);
  par::ThreadPool wide(8);

  for (const ScenarioSet& set : {ScenarioSet::paper(), all_stock_scenarios()}) {
    std::set<std::pair<uint64_t, uint64_t>> keys;
    size_t cells = 0;
    for (const auto& edition : history) {
      for (const auto& spec : set.specs()) {
        for (const auto& r : edition.records) {
          keys.emplace(r.content_fingerprint(), spec.fingerprint());
          ++cells;
        }
      }
    }

    AssessmentEngine a({.pool = &one});
    AssessmentEngine b({.pool = &wide});
    const auto cold = a.run(history, set);
    expect_bytes_identical(cold, b.run(history, set));
    EXPECT_EQ(a.cache_stats().misses, keys.size()) << set.size() << " specs";
    EXPECT_EQ(a.cache_stats().hits, cells - keys.size());
    EXPECT_EQ(a.cache_stats().entries, keys.size());
    EXPECT_EQ(a.cache_stats().misses, b.cache_stats().misses);
    EXPECT_EQ(a.cache_stats().hits, b.cache_stats().hits);
    EXPECT_EQ(a.cache_stats().entries, b.cache_stats().entries);
    EXPECT_EQ(a.batch_stats().lanes, b.batch_stats().lanes);
    EXPECT_EQ(a.batch_stats().profiles, b.batch_stats().profiles);

    expect_bytes_identical(cold, a.run(history, set));
    expect_bytes_identical(cold, b.run(history, set));
    EXPECT_EQ(a.cache_stats().misses, keys.size());
    EXPECT_EQ(a.cache_stats().hits, 2 * cells - keys.size());
    EXPECT_EQ(a.cache_stats().hits, b.cache_stats().hits);
  }
}

// --- stats accounting -----------------------------------------------

TEST(FillKernels, AciHoistStatsAccounting) {
  const auto records = top500::generate_records();
  par::ThreadPool one(1);

  model::BatchAssessor batch;
  for (const auto& r : records) {
    batch.add_profile(to_inputs(r, sc::enhanced().visibility));
  }
  batch.resolve_profiles(&one);
  std::vector<model::SystemAssessment> got(records.size());
  std::vector<model::BatchAssessor::Cell> cells(records.size());
  for (size_t i = 0; i < records.size(); ++i) cells[i] = {i, &got[i]};
  batch.assess(sc::enhanced().to_options(), cells.data(), cells.size(), &one);

  const auto& hs = batch.stats();
  EXPECT_EQ(hs.lanes, records.size());
  EXPECT_EQ(hs.profiles, records.size());
  EXPECT_EQ(hs.validations, records.size());
  // Every lane's ACI came from the per-batch table; the database saw
  // two probes (country + region) per distinct pair, not per lane.
  EXPECT_EQ(hs.aci_hoisted, hs.lanes);
  EXPECT_GT(hs.aci_keys, 0u);
  EXPECT_LT(hs.aci_keys, hs.lanes);
  EXPECT_EQ(hs.aci_db_queries, 2 * hs.aci_keys);

  const model::EasyCModel oracle(sc::enhanced().to_options());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(bytes_of(got[i]), bytes_of(oracle.assess(to_inputs(
                                    records[i], sc::enhanced().visibility))));
  }
}

}  // namespace
}  // namespace easyc::analysis
