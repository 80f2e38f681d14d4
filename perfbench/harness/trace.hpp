// In-memory span recorder for the traced run. Each span keeps its name,
// start, end, parent span and request id; nothing is written until the
// run ends, when write_chrome() emits Chrome trace-event JSON (the
// format chrome://tracing and Perfetto load). A disabled tracer records
// nothing and reads no clock, so the untraced runs pay one branch per
// span site.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ezbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Scoped span; its parent is the innermost span open on the same
  /// thread. `name` must be a string literal (stored by pointer).
  class Span {
   public:
    Span(Tracer& tracer, const char* name, uint64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    uint32_t id_ = 0;
    uint32_t parent_ = 0;
    const char* name_;
    uint64_t request_;
    double start_ = 0.0;
  };

  /// Record a finished span measured elsewhere (e.g. a child process's
  /// lifetime, or a client request timed on another thread). `id` 0
  /// allocates a fresh id; pass a reserve_id() value for a span whose
  /// children were recorded first and already name it as parent.
  void record(const char* name, double start_s, double end_s,
              uint32_t parent, uint64_t request, uint32_t id = 0);
  uint32_t reserve_id();

  /// Self time (duration minus the time its child spans cover), summed
  /// per span name, in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Durations of every span with this name, in record order.
  std::vector<double> durations(const std::string& name) const;
  size_t size() const;

  /// Write every span as Chrome trace-event JSON ("X" complete events,
  /// microseconds); args carry the span id, parent id and request id.
  void write_chrome(const std::string& path) const;

 private:
  struct Record {
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root
    const char* name = "";
    uint64_t request = 0;
    double start = 0.0;
    double end = 0.0;
    long tid = 0;
  };

  bool enabled_;
  mutable std::mutex mu_;
  uint32_t next_id_ = 1;
  std::vector<Record> records_;
};

}  // namespace ezbench
