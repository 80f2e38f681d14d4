#include "trace.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "system.hpp"

namespace ezbench {
namespace {

// Innermost open span per thread: the parent of the next one opened.
thread_local std::vector<uint32_t> t_open;

long current_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name, uint64_t request)
    : tracer_(tracer.enabled() ? &tracer : nullptr),
      name_(name),
      request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->reserve_id();
  parent_ = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(id_);
  start_ = now_s();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const double end = now_s();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->records_.push_back(
      {id_, parent_, name_, request_, start_, end, current_tid()});
}

uint32_t Tracer::reserve_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(const char* name, double start_s, double end_s,
                    uint32_t parent, uint64_t request, uint32_t id) {
  if (!enabled_) return;
  if (id == 0) id = reserve_id();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({id, parent, name, request, start_s, end_s,
                      current_tid()});
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint32_t, double> child_time;
  for (const Record& r : records_) {
    if (r.parent != 0) child_time[r.parent] += r.end - r.start;
  }
  std::map<std::string, double> out;
  for (const Record& r : records_) {
    const auto it = child_time.find(r.id);
    const double children = it == child_time.end() ? 0.0 : it->second;
    out[r.name] += (r.end - r.start) - children;
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (name == r.name) out.push_back(r.end - r.start);
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  double t0 = 0.0;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (i == 0 || records_[i].start < t0) t0 = records_[i].start;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"ezbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%ld,"
                  "\"args\":{\"span\":%u,\"parent\":%u,\"request\":%llu}}",
                  i == 0 ? "" : ",", r.name, (r.start - t0) * 1e6,
                  (r.end - r.start) * 1e6, r.tid, r.id, r.parent,
                  static_cast<unsigned long long>(r.request));
    out << buf;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("write failed for trace " + path);
}

}  // namespace ezbench
