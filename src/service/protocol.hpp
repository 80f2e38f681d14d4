// Line-delimited request/reply protocol for the assessment server.
//
// A request is one text line: a verb followed by key=value tokens
// ("sweep axes=aci=25:600:6;pue=1.1,1.3 batch=32 id=7"). Values carry
// no whitespace — the scenario/axis grammars (SweepSpec::parse) are
// whitespace-free by construction, so one line is always one request
// and a framing desync can never smear two requests together.
//
// A reply is a sized frame so clients never parse payload content:
//
//   reply <id> ok|err <payload-bytes>\n
//   <payload-bytes bytes of payload>
//   note <id> <text>\n                (zero or more)
//   stats <id> hits=... served=...\n  (always last)
//
// Determinism contract: the *payload* is a pure function of the
// request — byte-identical whether the server is cold, warm-started
// from a snapshot, or interleaving the request with concurrent ones
// (CI diffs all three). Diagnostics that legitimately vary with cache
// state (warm-start lines, per-round hit rates) travel as `note`
// lines, and cache counters as the `stats` trailer, both outside the
// payload. Error replies are payloads too, and equally deterministic.
//
// This header also carries the transport primitives (ByteSource /
// LineReader / ReplySink): enough abstraction that tests drive a
// server session from strings while easyc_serve drives it from pipes
// and sockets, with a wake-pipe poll so a SIGTERM interrupts a
// blocking read instead of racing it.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/sweep.hpp"
#include "parallel/sharded_cache.hpp"
#include "util/error.hpp"

namespace easyc::service {

/// Bump when the request grammar or reply framing changes shape.
/// Distinct from model::kAssessmentCodecVersion (snapshot bytes) and
/// kAssessmentSemanticsVersion (model numbers): the `version` verb
/// reports all three so clients can pin whichever contract they need.
inline constexpr uint32_t kProtocolVersion = 1;

/// A request line longer than this is rejected (and the rest of the
/// physical line discarded) instead of buffered without bound.
inline constexpr size_t kDefaultMaxLineBytes = 64 * 1024;

/// A sweep request expanding past this many cells is rejected before
/// the first engine call — one client typo must not pin the shared
/// engine for hours.
inline constexpr size_t kDefaultMaxSweepCells = 1u << 20;

/// Turnover histories are memoized per edition count; the cap bounds
/// that memo (and one request's runtime).
inline constexpr int kMaxTurnoverEditions = 64;

/// Longest accepted `id=` token (printable ASCII, no whitespace).
inline constexpr size_t kMaxRequestIdBytes = 64;

class ProtocolError : public util::Error {
 public:
  explicit ProtocolError(const std::string& what)
      : Error("protocol error: " + what) {}
};

enum class Verb { kPing, kVersion, kAssess, kTurnover, kSweep, kShutdown };

std::string_view verb_name(Verb verb);

/// One parsed request. Fields beyond `id`/`verb` apply to the verbs
/// noted; parse_request rejects keys a verb does not take.
struct Request {
  /// Reply-matching token. Empty after parsing when the client sent no
  /// id= key; the session assigns its arrival sequence number then.
  std::string id;
  Verb verb = Verb::kPing;

  // assess: scenario=<registered name>, set=<single-valued axis spec>
  std::string scenario;
  std::string overrides;

  // turnover: editions=N (2..kMaxTurnoverEditions)
  int editions = 8;

  // sweep: axes=<SweepSpec grammar> (required), base=<registered name>,
  // batch=N, records=N, refine=K@R
  std::string axes;
  std::string base;
  std::optional<size_t> batch;
  std::optional<size_t> records;
  std::optional<analysis::RefineOptions> refine;
};

/// Parse one request line. Throws ProtocolError on an empty line, an
/// unknown verb, a token that is not key=value, an unknown/duplicate
/// key, or an out-of-range value. Scenario names and axis grammars are
/// validated at execution time (they need the scenario registry).
Request parse_request(std::string_view line);

/// "K@R" (e.g. "2@2"): K top axes, R rounds, both positive. Shared by
/// the protocol's refine= key and the CLI's --sweep-refine flag.
analysis::RefineOptions parse_refine(std::string_view text);

/// Cache/admission counters attached to every reply: what this request
/// did (`delta`, via CacheStats::since) and where the server stands
/// (`cumulative`, plus the served-request count). Deliberately outside
/// the payload — they differ cold vs warm while the payload must not.
struct RequestStats {
  par::CacheStats delta;
  par::CacheStats cumulative;
  uint64_t served = 0;
};

struct Reply {
  std::string id;
  bool ok = true;
  /// The deterministic bytes: a report for ok replies, a one-line
  /// message (trailing newline included) for err replies.
  std::string payload;
  /// Cache-state-dependent diagnostics, one line each (the CLI prints
  /// them to stderr; serve_client.py keeps them out of the diffed
  /// payload file).
  std::vector<std::string> notes;
  RequestStats stats;
};

/// Render the full reply frame (header, payload, notes, stats
/// trailer). Embedded newlines in notes are flattened to spaces so the
/// frame stays line-parseable no matter what an error message carries.
std::string frame_reply(const Reply& reply);

// ---------------------------------------------------------------------
// Transport primitives

/// Blocking byte stream with cooperative interruption: read() returns
/// >0 bytes, 0 at end of stream, or -1 when interrupted (wake pipe
/// readable or EINTR) — the caller checks its shutdown flag and either
/// retries or stops. Stream errors are end-of-stream: a vanished
/// client ends its session, nothing more.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual long read(char* buf, size_t max) = 0;
};

/// In-memory source for tests and one-shot execution.
class StringSource : public ByteSource {
 public:
  explicit StringSource(std::string data) : data_(std::move(data)) {}
  long read(char* buf, size_t max) override;

 private:
  std::string data_;
  size_t pos_ = 0;
};

/// File-descriptor source. When `wake_fd` is >= 0 every read polls
/// {fd, wake_fd} first and reports -1 (interrupted) the moment the
/// wake pipe becomes readable — the server's shutdown path writes one
/// byte there and never drains it, so every blocked session wakes.
class FdSource : public ByteSource {
 public:
  explicit FdSource(int fd, int wake_fd = -1) : fd_(fd), wake_fd_(wake_fd) {}
  long read(char* buf, size_t max) override;

 private:
  int fd_;
  int wake_fd_;
};

/// Splits a ByteSource into request lines with a hard length bound.
class LineReader {
 public:
  enum class Event {
    kLine,         ///< `line` holds one request line (no terminator)
    kEof,          ///< stream ended
    kOverlong,     ///< line exceeded max_line; its remainder is skipped
    kInterrupted,  ///< source interrupted; caller checks shutdown
  };

  LineReader(ByteSource& source, size_t max_line)
      : source_(source), max_line_(max_line) {}

  /// Next event. Lines are terminated by '\n' (a trailing '\r' is
  /// stripped for telnet-style clients); a final unterminated line is
  /// still delivered before kEof. After kOverlong the reader discards
  /// through the offending line's newline, so the *next* request on
  /// the stream parses cleanly — one oversized request costs exactly
  /// one error reply, not the session.
  Event next(std::string& line);

 private:
  ByteSource& source_;
  size_t max_line_;
  std::string buffer_;
  bool discarding_ = false;
  bool eof_ = false;
};

/// Where reply frames go. send() writes one frame atomically with
/// respect to other senders (concurrent executors interleave whole
/// frames, never bytes) and returns false once the peer is gone —
/// failure is sticky, later frames are dropped silently: a client that
/// hung up mid-request loses its replies, not the server.
class ReplySink {
 public:
  virtual ~ReplySink() = default;
  virtual bool send(std::string_view frame) = 0;
};

/// In-memory sink for tests.
class StringSink : public ReplySink {
 public:
  bool send(std::string_view frame) override;
  std::string take();

 private:
  std::mutex mu_;
  std::string data_;
};

/// File-descriptor sink. `is_socket` routes writes through send(2)
/// with MSG_NOSIGNAL so a dead TCP peer yields EPIPE instead of
/// killing the process; pipe/stdout writers must ignore SIGPIPE
/// themselves (easyc_serve does).
class FdSink : public ReplySink {
 public:
  FdSink(int fd, bool is_socket) : fd_(fd), is_socket_(is_socket) {}
  bool send(std::string_view frame) override;
  bool failed() const { return failed_; }

 private:
  std::mutex mu_;
  int fd_;
  bool is_socket_;
  bool failed_ = false;
};

}  // namespace easyc::service
