// Deterministic multi-process sweep sharding: partition a sweep's
// expanded grid by cell index, run each contiguous shard in its own
// process, and merge the shipped partials into the same SweepReport a
// single process produces.
//
// The partition is the balanced contiguous split of [0, total_cells):
// shard i of N (1-based) owns a range whose length differs by at most
// one cell from any other shard's, and concatenating the shards'
// ranges in shard order reproduces the expansion order exactly. That
// ordering is the whole determinism story — every reduction the sweep
// layer runs is a fold over the expansion order, so a merge that
// replays shards in order through the same SweepFold feeds the same
// sequence a single process fed, and the summaries come out
// byte-identical.
//
// A worker emits an `EZPART` partial: a checksummed, versioned,
// self-contained file (util/serialize.hpp primitives) carrying the
// shard's identity (spec + records fingerprints, shard ref, cell
// range), its cells as an embedded EZCELLS stream, and the per-axis
// tornado endpoint series the shard owns. The merge step cross-checks
// every header field against the spec it was given and against the
// sibling partials — a partial from a different spec, records list,
// shard layout, or codec version is rejected, never silently blended
// (README.md documents the full layout and rejection matrix).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/sweep.hpp"

namespace easyc::analysis {

/// A 1-based shard reference "i/N": this worker runs shard `index` of
/// `count`. Parsing rejects zero or out-of-range indices ("0/4",
/// "5/4"), zero counts ("3/0"), and anything non-numeric; "N/N" is the
/// valid last shard.
struct ShardRef {
  uint32_t index = 1;  ///< 1-based, in [1, count]
  uint32_t count = 1;

  /// Parse "i/N". Throws util::ParseError with the offending text.
  static ShardRef parse(std::string_view text);
  std::string to_string() const;

  /// The balanced contiguous cell range [begin, end) this shard owns
  /// of an expansion with `total` cells. Ranges of shards 1..N
  /// partition [0, total); when N > total the tail shards are empty
  /// (begin == end), which is still a valid, mergeable shard.
  size_t begin(size_t total) const;
  size_t end(size_t total) const;

  friend bool operator==(const ShardRef&, const ShardRef&) = default;
};

/// EZPART file identity (README.md "Sweep partial file format").
inline constexpr std::string_view kPartMagic = "EZPART\n";
inline constexpr uint32_t kPartFormatVersion = 3;

/// Identity of the sweep a partial belongs to: the base scenario's
/// assessment fingerprint plus its presentation name and service
/// years (both reach rendered output), every axis with its exact
/// value bit patterns, and the Monte-Carlo arm. Two specs with equal
/// fingerprints expand to the same cells in the same order.
uint64_t sweep_spec_fingerprint(const SweepSpec& spec);

/// Order-sensitive fold of every record's content_fingerprint(): the
/// identity of the record list the shard assessed.
uint64_t records_fingerprint(
    const std::vector<top500::SystemRecord>& records);

/// Run shard `ref` of `spec` over `records` on `engine` and stream the
/// EZPART partial to `out`. Batch size comes from the engine's
/// options. When `extra` is non-null it receives the shard's cells
/// (round 0, global expansion indices) as they are assessed. Returns
/// the number of cells assessed (possibly 0).
size_t run_sweep_shard(SweepEngine& engine,
                       const std::vector<top500::SystemRecord>& records,
                       const SweepSpec& spec, ShardRef ref, std::ostream& out,
                       SweepCellSink* extra = nullptr);

struct MergeOptions {
  /// Receives every cell (round 0, expansion order) replayed from the
  /// partials' embedded EZCELLS streams — the merged run's --cells-out.
  SweepCellSink* sink = nullptr;
  /// Fill SweepReport::cells from the replay (off by default: a merge
  /// of million-cell shards should not materialize the grid).
  bool retain_cells = false;
};

/// Merge one complete set of EZPART partials — every shard of one
/// sweep, in any path order — into the SweepReport a single process
/// running `spec` over `records` produces: the summaries, the base
/// cell, the tornado table, and everything a sink receives are
/// byte-identical to the single-process run, because every replayed
/// cell feeds one SweepFold. Throws util::CodecError
/// when any partial has a bad magic/version/checksum, is truncated,
/// or disagrees with `spec`/`records`/its siblings (fingerprints,
/// shard count, duplicate or missing shards, cell ranges); the merge
/// rejects, it never blends suspect data.
SweepReport merge_sweep_partials(
    const std::vector<std::string>& paths,
    const std::vector<top500::SystemRecord>& records, const SweepSpec& spec,
    const MergeOptions& options = {});

}  // namespace easyc::analysis
