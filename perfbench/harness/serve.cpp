// serve_mixed: easyc_serve --tcp driven in a closed loop. One client
// thread per connection sends a request, waits for its whole reply
// frame, and sends the next; request i of the seeded stream is the same
// whichever connection sends it. Every reply is checked against a fresh
// in-process AssessmentServer::execute of the same request line.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include "service/protocol.hpp"
#include "service/server.hpp"
#include "system.hpp"
#include "workloads.hpp"

namespace ezbench {
namespace {

namespace service = easyc::service;

enum VerbKind { kPing, kAssess, kTurnover, kSweep, kVerbKinds };
constexpr const char* kVerbNames[kVerbKinds] = {"ping", "assess", "turnover",
                                                "sweep"};
constexpr const char* kExecSpan[kVerbKinds] = {"exec.ping", "exec.assess",
                                               "exec.turnover", "exec.sweep"};

// The daemon runs with a bounded cache, as a long-lived deployment
// would: resident memory plateaus instead of growing with the number of
// requests a faster build gets through, and misses keep evicting.
constexpr size_t kCacheCapacity = 65536;
// Untimed lead-in on the same stream: fills the bounded cache and grows
// the heap before the timed phase starts.
constexpr double kWarmupSeconds = 3.0;
// Daemon starts timed for setup_s before the timed phase, and again
// after it.
constexpr int kStarts = 8;

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// --- the seeded request mix -------------------------------------------
//
// There is no measured traffic for the daemon to copy, so the shares of
// the stream are design choices, not measurements. Every run prints each
// verb's resulting share of server execute time (exec_share_line), so
// what the end-to-end metrics weigh stays visible. Shares and reasons:
//   20% ping: the protocol floor (parse, admission, framing, a
//       near-zero execute).
//   30% assess set= from a hot pool of 32: repeated what-if questions,
//       answered from the cache.
//   10% assess set= drawn uniformly from a pool of 2,048: mostly misses
//       of the bounded cache (the pool needs ~1M entries, the cache
//       holds 65,536), so the one-lane-per-profile scalar fill of 500
//       lanes stays in the mix.
//   12% assess scenario= over the registered paper and what-if
//       scenarios: the paper's own questions.
//   12% turnover editions=4..12: the multi-edition path, the heaviest
//       single request.
//   16% small sweeps (records <= 90) from a pool of 8: sweeps through
//       admission and the reply framing of a long payload.
// The printed repeat share is measured per run.
class ServeMix {
 public:
  ServeMix(uint64_t seed, bool smoke) : seed_(seed) {
    Rng r(seed ^ 0x5e7eULL);
    for (int k = 0; k < 32; ++k) {
      hot_.push_back("assess set=aci=" + std::to_string(r.range(20, 780)) +
                     ";pue=" + fmt("%.2f", 1.05 + 0.01 * static_cast<double>(r.range(0, 85))));
    }
    // Sizes are fixed (records 20..90, 4..8 aci values: 13..21 cells);
    // the seed moves only the values, so every seed costs the same.
    for (int k = 0; k < 8; ++k) {
      const uint64_t lo = r.range(0, 200), hi = lo + r.range(200, 600);
      const uint64_t n = 4 + static_cast<uint64_t>(k) % 5;
      const double p1 = 1.05 + 0.01 * static_cast<double>(r.range(0, 30));
      const double p2 = p1 + 0.1 + 0.01 * static_cast<double>(r.range(0, 40));
      const uint64_t records =
          smoke ? 10 + static_cast<uint64_t>(k) : 20 + 10 * static_cast<uint64_t>(k);
      sweeps_.push_back("sweep axes=aci=" + std::to_string(lo) + ":" +
                        std::to_string(hi) + ":" + std::to_string(n) +
                        ";pue=" + fmt("%.2f", p1) + "," + fmt("%.2f", p2) +
                        " records=" + std::to_string(records) + " batch=64");
    }
    const easyc::analysis::ScenarioSet registered = service::default_scenarios();
    for (const auto& spec : registered.specs()) {
      scenarios_.push_back("assess scenario=" + spec.name);
    }
  }

  struct Req {
    VerbKind verb = kPing;
    std::string line;  ///< without the id= token
  };

  Req request(uint64_t index) const {
    const uint64_t h = mix(seed_, index);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const uint64_t pickv = mix(seed_ ^ 0xa5a5ULL, index);
    if (u < 0.20) return {kPing, "ping"};
    if (u < 0.50) return {kAssess, hot_[pickv % hot_.size()]};
    if (u < 0.60) {
      // Pool line k: aci and util on a 64 x 32 lattice.
      const uint64_t k = pickv % 2048;
      return {kAssess,
              "assess set=aci=" + std::to_string(40 + 11 * (k % 64)) +
                  ";util=" + fmt("%.2f", 0.3 + 0.02 * static_cast<double>(k / 64))};
    }
    if (u < 0.72) return {kAssess, scenarios_[pickv % scenarios_.size()]};
    if (u < 0.84) {
      return {kTurnover, "turnover editions=" + std::to_string(4 + pickv % 9)};
    }
    return {kSweep, sweeps_[pickv % sweeps_.size()]};
  }

 private:
  uint64_t seed_;
  std::vector<std::string> hot_, sweeps_, scenarios_;
};

// --- the server process -------------------------------------------------

struct ServerProc {
  pid_t pid = -1;
  int port = 0;
  int err_fd = -1;
  double ready_s = 0.0;  ///< spawn to "listening" on stderr
};

// Read stderr lines until the listening line; throws on timeout/exit.
int wait_for_port(int fd) {
  std::string buf;
  const double deadline = now_s() + 60.0;
  for (;;) {
    const size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      const size_t at = line.find("listening on 127.0.0.1:");
      if (at != std::string::npos) {
        return std::atoi(line.c_str() + at + std::strlen("listening on 127.0.0.1:"));
      }
      continue;
    }
    const double left = deadline - now_s();
    if (left <= 0) throw std::runtime_error("easyc_serve did not start");
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) throw std::runtime_error("easyc_serve exited before listening");
    buf.append(chunk, static_cast<size_t>(n));
  }
}

ServerProc start_server(const Options& o) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  ServerProc s;
  const double t0 = now_s();
  s.pid = spawn({o.bin_dir + "/easyc_serve", "--tcp=0",
                 "--threads=" + std::to_string(o.cpus.size()),
                 "--admission=" + std::to_string(o.cpus.size()),
                 "--cache-capacity=" + std::to_string(kCacheCapacity)},
                o.cpus, "", fds[1]);
  ::close(fds[1]);
  s.err_fd = fds[0];
  try {
    s.port = wait_for_port(s.err_fd);
  } catch (...) {
    ::kill(s.pid, SIGKILL);
    reap(s.pid);
    ::close(s.err_fd);
    throw;
  }
  s.ready_s = now_s() - t0;
  return s;
}

Exit stop_server(ServerProc& s) {
  ::kill(s.pid, SIGTERM);
  // Drain stderr so a final diagnostic never blocks the exit.
  char chunk[512];
  while (::read(s.err_fd, chunk, sizeof(chunk)) > 0) {
  }
  const Exit e = reap(s.pid);
  ::close(s.err_fd);
  s.pid = -1;
  return e;
}

// --- the closed-loop client -------------------------------------------

struct Sample {
  uint64_t index = 0;
  VerbKind verb = kPing;
  double start = 0.0, end = 0.0;
  bool ok = false;       ///< reply status "ok"
  bool answered = false; ///< a whole frame arrived
  bool timed = false;    ///< sent after the warm-up
  uint64_t digest = 0;   ///< FNV-1a of the payload
};

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{60, 0};  // a reply slower than this is a failed request
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to easyc_serve");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_line(const std::string& line) {
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Read one reply frame: header, payload, notes, stats trailer.
  bool read_frame(Sample& s) {
    std::string header;
    if (!read_line(header)) return false;
    char status[8] = {0};
    size_t payload = 0;
    char id[80];
    if (std::sscanf(header.c_str(), "reply %79s %7s %zu", id, status,
                    &payload) != 3) {
      return false;
    }
    std::string body;
    if (!read_exact(payload, body)) return false;
    s.digest = fnv1a(body);
    s.ok = std::strcmp(status, "ok") == 0;
    for (;;) {
      std::string line;
      if (!read_line(line)) return false;
      if (line.rfind("stats ", 0) == 0) break;
    }
    s.answered = true;
    return true;
  }

 private:
  bool fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }
  bool read_line(std::string& line) {
    for (;;) {
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        compact();
        return true;
      }
      if (!fill()) return false;
    }
  }
  bool read_exact(size_t n, std::string& out) {
    while (buf_.size() - pos_ < n) {
      if (!fill()) return false;
    }
    out.assign(buf_, pos_, n);
    pos_ += n;
    compact();
    return true;
  }
  void compact() {
    if (pos_ > 65536) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

struct ClientRun {
  std::vector<Sample> samples;
  double start = 0.0;  ///< start of the timed phase
};

ClientRun drive(int port, const ServeMix& mix, size_t connections,
                double warmup, double seconds) {
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Sample>> per_conn(connections);
  std::vector<std::thread> threads;
  ClientRun run;
  run.start = now_s() + warmup;
  const double deadline = run.start + seconds;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        Connection conn(port);
        while (now_s() < deadline) {
          Sample s;
          s.index = next.fetch_add(1);
          const ServeMix::Req req = mix.request(s.index);
          s.verb = req.verb;
          s.start = now_s();
          s.timed = s.start >= run.start;
          const bool sent =
              conn.send_line(req.line + " id=" + std::to_string(s.index) + "\n");
          const bool got = sent && conn.read_frame(s);
          s.end = now_s();
          per_conn[c].push_back(s);
          if (!got) break;  // timeout or a broken connection: stop this one
        }
      } catch (const std::exception&) {
        Sample s;
        s.index = next.fetch_add(1);
        per_conn[c].push_back(s);  // an unanswered request: a failure
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per_conn) {
    run.samples.insert(run.samples.end(), v.begin(), v.end());
  }
  std::sort(run.samples.begin(), run.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return run;
}

std::string latency_line(const std::vector<double>& lat_ms) {
  std::string out = "latency (n=" + std::to_string(lat_ms.size()) + "): p50 " +
                    fmt("%.3f", percentile(lat_ms, 50.0)) + " ms";
  for (double q : {90.0, 99.0, 99.9}) {
    if (static_cast<double>(lat_ms.size()) * (100.0 - q) / 100.0 < 10.0) break;
    out += ", p" + fmt("%g", q) + " " + fmt("%.3f", percentile(lat_ms, q)) +
           " ms";
  }
  return out;
}

// In-process replay of the stream on a fresh server, sequentially:
// requests [0, first) build the state the timed phase started from,
// then [first, first + window) run untraced, each execute timed, and
// (when `traced`) [first + window, first + 2 * window) run traced with a
// span per layer call (parse_request, AssessmentServer::execute,
// frame_reply).
struct Replay {
  std::vector<double> exec_s;  ///< untraced window, by offset from first
  std::vector<size_t> frames;  ///< traced window reply frame sizes
  double untraced_s = 0.0, traced_s = 0.0;
  easyc::par::CacheStats cache;
};

Replay replay(const Options& o, const ServeMix& mix, uint64_t first,
              size_t window, bool traced, Tracer& tracer) {
  service::ServerOptions so;
  so.threads = static_cast<unsigned>(o.cpus.size());
  so.cache_capacity = kCacheCapacity;
  service::AssessmentServer server(so);
  Replay out;
  const auto line_of = [&](uint64_t i) {
    return mix.request(i).line + " id=" + std::to_string(i);
  };
  for (uint64_t i = 0; i < first; ++i) {
    server.execute(service::parse_request(line_of(i)));
  }
  const easyc::par::CacheStats before = server.engine().cache_stats();
  double t0 = now_s();
  for (uint64_t i = first; i < first + window; ++i) {
    const service::Request parsed = service::parse_request(line_of(i));
    const double e0 = now_s();
    const service::Reply reply = server.execute(parsed);
    out.exec_s.push_back(now_s() - e0);
    service::frame_reply(reply);
  }
  out.untraced_s = now_s() - t0;
  if (!traced) return out;
  tracer.set_enabled(true);
  t0 = now_s();
  for (uint64_t i = first + window; i < first + 2 * window; ++i) {
    Tracer::Span request_span(tracer, "request", i);
    service::Request parsed;
    {
      Tracer::Span s(tracer, "parse", i);
      parsed = service::parse_request(line_of(i));
    }
    service::Reply reply;
    {
      Tracer::Span s(tracer, kExecSpan[mix.request(i).verb], i);
      reply = server.execute(parsed);
    }
    std::string frame;
    {
      Tracer::Span s(tracer, "frame", i);
      frame = service::frame_reply(reply);
    }
    out.frames.push_back(frame.size());
  }
  out.traced_s = now_s() - t0;
  tracer.set_enabled(false);
  out.cache = server.engine().cache_stats().since(before);
  return out;
}

// Each verb's share of the server's execute time over the untraced
// replay window: what the mix's request shares weigh in the end-to-end
// metrics (the shares of requests are design choices; see README.md).
std::string exec_share_line(const ServeMix& mix, uint64_t first,
                            const Replay& rp) {
  std::vector<double> sum(kVerbKinds, 0.0);
  std::vector<size_t> count(kVerbKinds, 0);
  double total = 0.0;
  for (size_t k = 0; k < rp.exec_s.size(); ++k) {
    const VerbKind v = mix.request(first + k).verb;
    sum[v] += rp.exec_s[k];
    ++count[v];
    total += rp.exec_s[k];
  }
  std::string out = "server execute time by verb (in-process replay of " +
                    std::to_string(rp.exec_s.size()) + " timed-phase requests):";
  for (int v = 0; v < kVerbKinds; ++v) {
    out += std::string(v == 0 ? " " : ", ") + kVerbNames[v] + " " +
           fmt("%.1f", total > 0.0 ? 100.0 * sum[v] / total : 0.0) +
           "% (" + std::to_string(count[v]) + " requests)";
  }
  return out;
}

}  // namespace

Result run_serve_mixed(const Options& o, Tracer& tracer) {
  Result res;
  const ServeMix mix(o.seed, o.smoke);
  const size_t connections =
      std::min<size_t>(4, std::thread::hardware_concurrency());

  // Set-up: start the daemon until it listens (process start, record
  // generation, engine and pool construction), several times before
  // the timed phase and again after it.
  std::vector<double> ready;
  const auto restart = [&](ServerProc& server) {
    if (server.pid > 0) stop_server(server);
    server = start_server(o);
    ready.push_back(server.ready_s);
  };
  ServerProc server;
  for (int k = 0; k < kStarts; ++k) restart(server);

  pin_self({o.client_cpu});
  const ClientRun run = drive(server.port, mix, connections,
                              o.smoke ? 0.5 : kWarmupSeconds, o.seconds);
  const Exit server_exit = stop_server(server);
  if (!server_exit.ok()) res.fail("easyc_serve " + server_exit.describe());
  for (int k = 0; k < kStarts; ++k) restart(server);
  stop_server(server);

  // Check every reply against an in-process execute of its line.
  pin_self(o.cpus);
  std::map<std::string, std::vector<const Sample*>> by_line;
  for (const Sample& s : run.samples) {
    by_line[mix.request(s.index).line].push_back(&s);
  }
  {
    service::ServerOptions so;
    so.threads = static_cast<unsigned>(o.cpus.size());
    service::AssessmentServer check(so);
    for (const auto& [line, samples] : by_line) {
      const service::Reply expect = check.execute(service::parse_request(line));
      const uint64_t digest = fnv1a(expect.payload);
      for (const Sample* s : samples) {
        ++res.attempted;
        if (!s->answered) {
          res.fail("no reply (timeout or closed connection) for request " +
                   std::to_string(s->index) + ": " + line);
        } else if (!s->ok) {
          res.fail("err reply for request " + std::to_string(s->index) + ": " +
                   line);
        } else if (!expect.ok || s->digest != digest) {
          res.fail("payload differs from in-process execute for request " +
                   std::to_string(s->index) + ": " + line);
        }
      }
    }
  }

  std::vector<double> lat_ms;
  std::vector<std::vector<double>> verb_ms(kVerbKinds);
  size_t assess_sent = 0;
  std::map<std::string, int> assess_lines;
  size_t timed = 0;
  for (const Sample& s : run.samples) {
    if (!s.timed) continue;
    ++timed;
    if (!s.answered) continue;
    lat_ms.push_back((s.end - s.start) * 1e3);
    verb_ms[s.verb].push_back((s.end - s.start) * 1e3);
    if (s.verb == kAssess) {
      ++assess_sent;
      ++assess_lines[mix.request(s.index).line];
    }
  }
  res.lines.push_back("input: " + std::to_string(connections) +
                      " closed-loop connections to easyc_serve --tcp --threads=" +
                      std::to_string(o.cpus.size()) + " --cache-capacity=" +
                      std::to_string(kCacheCapacity) + "; " +
                      std::to_string(run.samples.size() - timed) +
                      " warm-up + " + std::to_string(timed) + " timed requests, " +
                      std::to_string(by_line.size()) + " distinct; repeat share " +
                      fmt("%.1f", 100.0 * (1.0 - static_cast<double>(by_line.size()) /
                                                     static_cast<double>(std::max<size_t>(1, run.samples.size())))) +
                      "% (assess: " +
                      fmt("%.1f", 100.0 * (1.0 - static_cast<double>(assess_lines.size()) /
                                                     static_cast<double>(std::max<size_t>(1, assess_sent)))) +
                      "%)");
  res.lines.push_back(latency_line(lat_ms));
  // Requests answered in each whole second of the timed phase; the
  // median second is the throughput, so a burst of host contention
  // covering a few seconds does not move it.
  std::vector<double> per_second(static_cast<size_t>(std::max(1.0, o.seconds)), 0.0);
  for (const Sample& s : run.samples) {
    const double at = s.end - run.start;
    if (s.timed && s.answered && at < static_cast<double>(per_second.size())) {
      per_second[static_cast<size_t>(at)] += 1.0;
    }
  }
  {
    std::string l = "answered per second of the timed phase:";
    for (double c : per_second) l += " " + fmt("%.0f", c);
    res.lines.push_back(l);
  }
  for (int v = 0; v < kVerbKinds; ++v) {
    res.lines.push_back(std::string("  ") + kVerbNames[v] + ": n=" +
                        std::to_string(verb_ms[v].size()) + ", p50 " +
                        fmt("%.3f", percentile(verb_ms[v], 50.0)) + " ms");
  }
  res.lines.push_back("setup_s: median of " + std::to_string(ready.size()) +
                      " daemon starts " + fmt("%.6f", median(ready)) +
                      " s (min " +
                      fmt("%.6f", *std::min_element(ready.begin(), ready.end())) +
                      ", max " +
                      fmt("%.6f", *std::max_element(ready.begin(), ready.end())) +
                      ")");

  // Replay the start of the timed phase in process: every run prints
  // each verb's share of execute time; the traced run also splits
  // execute from parse and frame, and prices the spans (traced minus
  // untraced window, the two windows being adjacent slices of the mix).
  uint64_t first = 0;
  while (first < run.samples.size() && !run.samples[first].timed) ++first;
  const size_t window = std::min<size_t>(o.smoke ? 50 : 1000, timed / 2);
  const Replay rp = replay(o, mix, first, window, o.trace, tracer);
  res.lines.push_back(exec_share_line(mix, first, rp));

  if (!o.trace) {
    res.end_to_end["setup_s"] = median(ready);
    res.end_to_end["ops_per_s"] = median(per_second);
    res.end_to_end["latency_p50_ms"] = percentile(lat_ms, 50.0);
    res.end_to_end["peak_rss_mb"] = own_peak_mb(server_exit, "easyc_serve");
    return res;
  }

  std::vector<double> wait_ms;
  for (const Sample& s : run.samples) {
    if (s.index >= first && s.index < first + window && s.answered) {
      wait_ms.push_back((s.end - s.start - rp.exec_s[s.index - first]) * 1e3);
    }
  }
  double frame_total = 0.0;
  for (size_t f : rp.frames) frame_total += static_cast<double>(f);
  res.per_layer["protocol.parse_us"] = median(tracer.durations("parse")) * 1e6;
  res.per_layer["protocol.frame_us"] = median(tracer.durations("frame")) * 1e6;
  res.per_layer["protocol.reply_bytes"] =
      rp.frames.empty() ? 0.0
                        : frame_total / static_cast<double>(rp.frames.size());
  for (int v = 0; v < kVerbKinds; ++v) {
    res.per_layer[std::string("server.exec_ms.") + kVerbNames[v]] =
        median(tracer.durations(kExecSpan[v])) * 1e3;
  }
  res.per_layer["server.wait_ms"] = median(wait_ms);
  // p99 needs 1,000 samples; a shorter (smoke) run reports its highest
  // supported tail instead.
  res.per_layer["client.latency_p99_ms"] = percentile(
      lat_ms, std::min(99.0, supported_tail_percentile(lat_ms.size())));
  res.per_layer["cache.hits"] = static_cast<double>(rp.cache.hits);
  res.per_layer["cache.misses"] = static_cast<double>(rp.cache.misses);
  res.per_layer["cache.hit_rate"] = rp.cache.hit_rate();
  res.per_layer["trace.overhead_pct"] =
      rp.untraced_s > 0.0
          ? (rp.traced_s - rp.untraced_s) / rp.untraced_s * 100.0
          : 0.0;
  res.lines.push_back("replay: requests " + std::to_string(first) + "+" +
                      std::to_string(window) + " in process: " +
                      fmt("%.3f", rp.untraced_s) + " s untraced, next " +
                      std::to_string(window) + ": " + fmt("%.3f", rp.traced_s) +
                      " s traced");
  return res;
}

}  // namespace ezbench
