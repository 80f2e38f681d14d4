// Multi-process sweep sharding: the i/N partitioner covers the grid
// exactly, EZPART partials from N shards (including empty tail shards)
// merge into a report byte-identical to the single-process run, and the
// merge rejects — never blends — partials from a different spec, record
// list, shard layout, stats mode, or codec version, as well as
// truncated or bit-flipped files.
#include "analysis/sweep_shard.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "analysis/sweep.hpp"
#include "service/server.hpp"
#include "top500/generator.hpp"
#include "util/error.hpp"

namespace easyc::analysis {
namespace {

namespace sc = scenarios;

// A 24-record slice: every cell kind covered, fast enough to sweep
// many times in one test binary.
const std::vector<top500::SystemRecord>& records24() {
  static const auto kRecords = [] {
    auto all = top500::generate_records();
    all.resize(24);
    return all;
  }();
  return kRecords;
}

// 1 base + 6 endpoints + (4*3*4) grid + 20 draws = 75 cells.
constexpr char kAxes[] =
    "aci=25:600:4;pue=1.1,1.3,1.6;util=0.5:0.95:4;mc=20@42";
// 1 base + 2 endpoints + 2 grid = 5 cells (for the N > cells case).
constexpr char kTinyAxes[] = "pue=1.1,1.3";

std::string run_partial(const SweepSpec& spec, ShardRef ref,
                        const std::vector<top500::SystemRecord>& records,
                        SweepStatsMode stats = SweepStatsMode::kAuto) {
  SweepEngine::Options opt;
  opt.stats = stats;
  SweepEngine engine(opt);
  std::ostringstream out;
  run_sweep_shard(engine, records, spec, ref, out);
  return out.str();
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
  return path;
}

// N partials for `spec`, written to temp files, in shard order.
std::vector<std::string> shard_files(
    const SweepSpec& spec, uint32_t n, const std::string& tag,
    const std::vector<top500::SystemRecord>& records,
    SweepStatsMode stats = SweepStatsMode::kAuto) {
  std::vector<std::string> paths;
  for (uint32_t i = 1; i <= n; ++i) {
    paths.push_back(write_temp(
        tag + "_" + std::to_string(i) + "of" + std::to_string(n) + ".ezpart",
        run_partial(spec, ShardRef{i, n}, records, stats)));
  }
  return paths;
}

// What the single-process run produces: rendered report + CSV + EZCELLS
// bytes, the three streams the merge must reproduce exactly.
struct Baseline {
  std::string report;
  std::string csv;
  std::string bin;
};

Baseline single_process(const SweepSpec& spec,
                        const std::vector<top500::SystemRecord>& records,
                        SweepStatsMode stats = SweepStatsMode::kAuto) {
  std::ostringstream csv, bin;
  CsvCellSink csv_sink(csv);
  BinaryCellSink bin_sink(bin, /*block_cells=*/3);
  TeeCellSink tee({&csv_sink, &bin_sink});
  SweepEngine::Options opt;
  opt.stats = stats;
  const SweepReport report = SweepEngine(opt).run(records, spec, &tee);
  bin_sink.finish();
  return Baseline{render_sweep_report(report), csv.str(), bin.str()};
}

Baseline merged(const std::vector<std::string>& paths, const SweepSpec& spec,
                const std::vector<top500::SystemRecord>& records) {
  std::ostringstream csv, bin;
  CsvCellSink csv_sink(csv);
  BinaryCellSink bin_sink(bin, /*block_cells=*/3);
  TeeCellSink tee({&csv_sink, &bin_sink});
  MergeOptions opt;
  opt.sink = &tee;
  const SweepReport report = merge_sweep_partials(paths, records, spec, opt);
  bin_sink.finish();
  return Baseline{render_sweep_report(report), csv.str(), bin.str()};
}

TEST(ShardRef, ParsesAndRoundTrips) {
  EXPECT_EQ(ShardRef::parse("1/1"), (ShardRef{1, 1}));
  EXPECT_EQ(ShardRef::parse("2/7"), (ShardRef{2, 7}));
  // N/N is the valid last shard, not an off-by-one.
  EXPECT_EQ(ShardRef::parse("4/4"), (ShardRef{4, 4}));
  EXPECT_EQ(ShardRef::parse(" 3 / 8 "), (ShardRef{3, 8}));
  EXPECT_EQ(ShardRef::parse("12/12").to_string(), "12/12");
}

TEST(ShardRef, RejectsMalformedReferences) {
  for (const char* bad : {"0/4", "3/0", "5/4", "0/0", "-1/4", "1/-4", "x/4",
                          "3/y", "3", "3/", "/4", "", "1/2/3", "1.5/4",
                          "1/4294967297", "4294967297/4294967297"}) {
    EXPECT_THROW(ShardRef::parse(bad), util::ParseError) << bad;
  }
}

TEST(ShardRef, RangesPartitionEveryTotal) {
  for (const size_t total : {size_t{0}, size_t{1}, size_t{5}, size_t{39},
                             size_t{1025}}) {
    for (const uint32_t n : {1u, 2u, 3u, 4u, 7u, 64u}) {
      size_t covered = 0, expect_begin = 0;
      size_t min_len = total + 1, max_len = 0;
      for (uint32_t i = 1; i <= n; ++i) {
        const ShardRef ref{i, n};
        const size_t b = ref.begin(total), e = ref.end(total);
        ASSERT_EQ(b, expect_begin) << total << " " << ref.to_string();
        ASSERT_LE(b, e);
        expect_begin = e;
        covered += e - b;
        min_len = std::min(min_len, e - b);
        max_len = std::max(max_len, e - b);
      }
      EXPECT_EQ(expect_begin, total);
      EXPECT_EQ(covered, total);
      // Balanced: no shard is more than one cell longer than another.
      EXPECT_LE(max_len - min_len, size_t{1}) << total << "/" << n;
    }
  }
}

TEST(SweepShard, FourShardsMergeByteIdentically) {
  const SweepSpec spec = SweepSpec::parse(kAxes);
  const Baseline one = single_process(spec, records24());
  const auto paths = shard_files(spec, 4, "ident", records24());
  // Path order must not matter — the merge orders by shard index.
  const std::vector<std::string> shuffled = {paths[2], paths[0], paths[3],
                                             paths[1]};
  const Baseline four = merged(shuffled, spec, records24());
  EXPECT_EQ(one.report, four.report);
  EXPECT_EQ(one.csv, four.csv);
  EXPECT_EQ(one.bin, four.bin);
}

TEST(SweepShard, EmptyTailShardsAreValidAndMergeable) {
  const SweepSpec spec = SweepSpec::parse(kTinyAxes);
  ASSERT_EQ(spec.total_cells(), 5u);
  const Baseline one = single_process(spec, records24());
  // 9 shards of a 5-cell grid: shards 6..9 own zero cells and must
  // still emit valid partials the merge accepts.
  const auto paths = shard_files(spec, 9, "empty", records24());
  const Baseline nine = merged(paths, spec, records24());
  EXPECT_EQ(one.report, nine.report);
  EXPECT_EQ(one.csv, nine.csv);
  EXPECT_EQ(one.bin, nine.bin);
}

TEST(SweepShardMerge, RejectsForeignAndCorruptPartials) {
  const SweepSpec spec = SweepSpec::parse(kTinyAxes);
  const auto good = shard_files(spec, 2, "rej", records24());

  // Wrong spec: same shape, different axis values.
  const SweepSpec other = SweepSpec::parse("pue=1.2,1.4");
  {
    auto paths = good;
    paths[1] = write_temp("rej_otherspec.ezpart",
                          run_partial(other, ShardRef{2, 2}, records24()));
    EXPECT_THROW(merge_sweep_partials(paths, records24(), spec),
                 util::CodecError);
    // ...and the merge's own spec must match the partials, too.
    EXPECT_THROW(merge_sweep_partials(good, records24(), other),
                 util::CodecError);
  }

  // Wrong record list: one shard assessed a truncated fleet.
  {
    auto fewer = records24();
    fewer.resize(12);
    auto paths = good;
    paths[0] = write_temp("rej_records.ezpart",
                          run_partial(spec, ShardRef{1, 2}, fewer));
    EXPECT_THROW(merge_sweep_partials(paths, records24(), spec),
                 util::CodecError);
  }

  // Wrong shard layout: a 1/3 partial among 1/2's siblings, a missing
  // shard, a duplicated shard.
  {
    auto paths = good;
    paths[0] = write_temp("rej_layout.ezpart",
                          run_partial(spec, ShardRef{1, 3}, records24()));
    EXPECT_THROW(merge_sweep_partials(paths, records24(), spec),
                 util::CodecError);
    EXPECT_THROW(merge_sweep_partials({good[0]}, records24(), spec),
                 util::CodecError);
    EXPECT_THROW(
        merge_sweep_partials({good[0], good[0]}, records24(), spec),
        util::CodecError);
  }

  // Mixed stats modes never blend.
  {
    auto paths = good;
    paths[1] = write_temp("rej_stats.ezpart",
                          run_partial(spec, ShardRef{2, 2}, records24(),
                                      SweepStatsMode::kStreaming));
    EXPECT_THROW(merge_sweep_partials(paths, records24(), spec),
                 util::CodecError);
  }

  // Not an EZPART file at all.
  {
    const std::string junk = write_temp("rej_junk.ezpart", "EZCELLS\njunk");
    EXPECT_THROW(merge_sweep_partials({junk, good[1]}, records24(), spec),
                 util::CodecError);
    EXPECT_THROW(
        merge_sweep_partials({"/nonexistent/none.ezpart", good[1]},
                             records24(), spec),
        util::Error);
  }
}

TEST(SweepShardMerge, RejectsEveryTruncation) {
  const SweepSpec spec = SweepSpec::parse(kTinyAxes);
  const std::string whole = run_partial(spec, ShardRef{1, 2}, records24());
  const std::string other =
      write_temp("trunc_2of2.ezpart", run_partial(spec, ShardRef{2, 2},
                                                  records24()));
  for (size_t len = 0; len < whole.size(); ++len) {
    const std::string path =
        write_temp("trunc_cut.ezpart", whole.substr(0, len));
    EXPECT_THROW(merge_sweep_partials({path, other}, records24(), spec),
                 util::CodecError)
        << "accepted a partial truncated to " << len << " bytes";
  }
  // Trailing garbage after a complete partial is corruption too.
  const std::string padded = write_temp("trunc_pad.ezpart", whole + "x");
  EXPECT_THROW(merge_sweep_partials({padded, other}, records24(), spec),
               util::CodecError);
}

TEST(SweepShardMerge, RejectsEveryBitFlip) {
  const SweepSpec spec = SweepSpec::parse(kTinyAxes);
  const std::string whole = run_partial(spec, ShardRef{1, 2}, records24());
  const std::string other =
      write_temp("flip_2of2.ezpart", run_partial(spec, ShardRef{2, 2},
                                                 records24()));
  const Baseline one = single_process(spec, records24());
  size_t rejected = 0;
  for (size_t pos = 0; pos < whole.size(); ++pos) {
    std::string flipped = whole;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    const std::string path = write_temp("flip_cut.ezpart", flipped);
    try {
      const Baseline out = merged({path, other}, spec, records24());
      // A flip the checksums cannot see (e.g. flipping a bit back to
      // itself is excluded by ^0x40, but a flip inside ignored padding
      // would land here) must at least not change the merged output.
      EXPECT_EQ(one.report, out.report) << "silent corruption at " << pos;
    } catch (const util::Error&) {
      ++rejected;
    }
  }
  // Nearly every byte is load-bearing; demand the checksums catch
  // corruption essentially everywhere.
  EXPECT_GE(rejected, whole.size() - whole.size() / 64);
}

TEST(SweepShardMerge, StreamingModeMergeMatchesSingleProcess) {
  // The merge replays every cell into one streaming reduction, so the
  // P² quantiles see the single process's feed order whatever the
  // shard count — including shards past the estimator's 5-point
  // warm-up (3 shards of kAxes hold 25 cells each) and empty tail
  // shards (7 shards of a 5-cell grid).
  const auto check = [](const char* axes, uint32_t shards) {
    const SweepSpec spec = SweepSpec::parse(axes);
    const Baseline one =
        single_process(spec, records24(), SweepStatsMode::kStreaming);
    ASSERT_NE(one.report.find("p05"), std::string::npos);
    const auto paths = shard_files(spec, shards, "stream", records24(),
                                   SweepStatsMode::kStreaming);
    const Baseline many = merged(paths, spec, records24());
    EXPECT_EQ(one.report, many.report) << axes << " over " << shards;
    EXPECT_EQ(one.csv, many.csv) << axes << " over " << shards;
    EXPECT_EQ(one.bin, many.bin) << axes << " over " << shards;
  };
  for (const uint32_t shards : {1u, 2u, 3u, 4u}) check(kAxes, shards);
  check(kTinyAxes, 7);
}

TEST(SweepShard, SnapshotShipsCacheState) {
  const SweepSpec spec = SweepSpec::parse(kAxes);
  AssessmentEngine worker;
  {
    SweepEngine::Options opt;
    opt.engine = &worker;
    SweepEngine sweep(opt);
    std::ostringstream out;
    run_sweep_shard(sweep, records24(), spec, ShardRef{1, 2}, out);
  }
  const std::string snap = ::testing::TempDir() + "shard_ship.snap";
  worker.save_cache(snap);

  AssessmentEngine merged_engine;
  ASSERT_GT(merged_engine.load_cache(snap), 0u);
  SweepEngine::Options opt;
  opt.engine = &merged_engine;
  SweepEngine sweep(opt);
  std::ostringstream out;
  run_sweep_shard(sweep, records24(), spec, ShardRef{1, 2}, out);
  const auto stats = merged_engine.cache_stats();
  EXPECT_GE(stats.hit_rate(), 0.99) << stats.hits << "/" << stats.misses;
}

TEST(SweepShard, FingerprintsSeeEveryArm) {
  const auto recs = records24();
  const uint64_t base = sweep_spec_fingerprint(SweepSpec::parse(kAxes));
  for (const char* variant :
       {"aci=25:600:4;pue=1.1,1.3,1.6;util=0.5:0.95:4;mc=20@43",
        "aci=25:600:4;pue=1.1,1.3,1.6;util=0.5:0.95:4;mc=21@42",
        "aci=25:600:4;pue=1.1,1.3,1.6;util=0.5:0.95:4",
        "aci=25:600:5;pue=1.1,1.3,1.6;util=0.5:0.95:4;mc=20@42",
        "aci=25:600:4;pue=1.1,1.3,1.7;util=0.5:0.95:4;mc=20@42"}) {
    EXPECT_NE(base, sweep_spec_fingerprint(SweepSpec::parse(variant)))
        << variant;
  }
  auto fewer = recs;
  fewer.resize(23);
  EXPECT_NE(records_fingerprint(recs), records_fingerprint(fewer));
}

// The serve wiring: oversized sweeps fan out when the sharded backend
// is configured (a broken worker binary surfaces as a clean error
// reply), keep the historical refusal when it is not, and refuse to
// shard adaptive refinement.
TEST(SweepShardServe, FanOutWiring) {
  using service::AssessmentServer;
  using service::Request;
  using service::ServerOptions;
  using service::Verb;

  Request request;
  request.verb = Verb::kSweep;
  request.id = "t";
  request.axes = kTinyAxes;
  request.records = 4;

  {
    ServerOptions options;
    options.admission = 1;
    options.max_sweep_cells = 2;
    AssessmentServer server(options);
    const auto reply = server.execute(request);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.payload.find("--shard-workers"), std::string::npos)
        << reply.payload;
  }
  {
    ServerOptions options;
    options.admission = 1;
    options.max_sweep_cells = 2;
    options.shard_workers = 2;
    options.shard_exec = "/nonexistent/easyc_cli";
    AssessmentServer server(options);
    const auto reply = server.execute(request);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.payload.find("shard worker"), std::string::npos)
        << reply.payload;

    Request refine = request;
    refine.refine = service::parse_refine("1@1");
    const auto refused = server.execute(refine);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.payload.find("refine"), std::string::npos)
        << refused.payload;
  }
}

// A signal that interrupts the fan-out's wait for its workers (the
// serve binary's drain handler has no SA_RESTART) must not read as a
// clean exit: the reply names the worker's real exit status, not a
// partial the merge found missing.
void ignore_signal(int) {}

TEST(SweepShardServe, InterruptedWaitStillReapsWorkers) {
  using service::AssessmentServer;
  using service::Request;
  using service::ServerOptions;

  const std::string script = ::testing::TempDir() + "shard_exit7.sh";
  {
    std::ofstream out(script, std::ios::trunc);
    out << "#!/bin/sh\nsleep 0.5\nexit 7\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

  struct sigaction sa = {};
  struct sigaction old = {};
  sa.sa_handler = ignore_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART, like easyc_serve
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  ServerOptions options;
  options.admission = 1;
  options.max_sweep_cells = 2;
  options.shard_workers = 2;
  options.shard_exec = script;
  AssessmentServer server(options);
  Request request;
  request.verb = service::Verb::kSweep;
  request.id = "t";
  request.axes = kTinyAxes;
  request.records = 4;

  // Signal the executing thread every 20 ms from 100 ms on, so every
  // wait is interrupted at least once.
  const pthread_t executor = ::pthread_self();
  std::atomic<bool> done{false};
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    while (!done.load()) {
      ::pthread_kill(executor, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const auto reply = server.execute(request);
  done.store(true);
  interrupter.join();
  ::sigaction(SIGUSR1, &old, nullptr);

  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.payload.find("shard worker 1/2 failed (exit code 7)"),
            std::string::npos)
      << reply.payload;
}

}  // namespace
}  // namespace easyc::analysis
