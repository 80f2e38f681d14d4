#include "service/protocol.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "util/strings.hpp"

namespace easyc::service {
namespace {

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

Verb parse_verb(std::string_view token) {
  if (token == "ping") return Verb::kPing;
  if (token == "version") return Verb::kVersion;
  if (token == "assess") return Verb::kAssess;
  if (token == "turnover") return Verb::kTurnover;
  if (token == "sweep") return Verb::kSweep;
  if (token == "shutdown") return Verb::kShutdown;
  throw ProtocolError("unknown verb '" + std::string(token) +
                      "' (want ping, version, assess, turnover, sweep, or "
                      "shutdown)");
}

long long parse_positive_int(std::string_view key, std::string_view value) {
  const auto n = util::parse_int(value);
  if (!n || *n < 1) {
    throw ProtocolError(std::string(key) + "= wants a positive integer, got '" +
                        std::string(value) + "'");
  }
  return *n;
}

void validate_id(std::string_view value) {
  if (value.size() > kMaxRequestIdBytes) {
    throw ProtocolError("id= longer than " +
                        std::to_string(kMaxRequestIdBytes) + " bytes");
  }
  for (char c : value) {
    if (c < 0x21 || c > 0x7e) {
      throw ProtocolError("id= must be printable ASCII without whitespace");
    }
  }
}

}  // namespace

std::string_view verb_name(Verb verb) {
  switch (verb) {
    case Verb::kPing: return "ping";
    case Verb::kVersion: return "version";
    case Verb::kAssess: return "assess";
    case Verb::kTurnover: return "turnover";
    case Verb::kSweep: return "sweep";
    case Verb::kShutdown: return "shutdown";
  }
  return "?";
}

analysis::RefineOptions parse_refine(std::string_view text) {
  const auto at = text.find('@');
  if (at == std::string_view::npos) {
    throw util::ParseError("refine wants K@R (e.g. 2@2), got '" +
                           std::string(text) + "'");
  }
  const auto k = util::parse_int(util::trim(text.substr(0, at)));
  const auto r = util::parse_int(util::trim(text.substr(at + 1)));
  if (!k || *k < 1 || !r || *r < 1) {
    throw util::ParseError("refine K@R needs positive integers, got '" +
                           std::string(text) + "'");
  }
  analysis::RefineOptions refine;
  refine.top_axes = static_cast<size_t>(*k);
  refine.rounds = static_cast<size_t>(*r);
  return refine;
}

Request parse_request(std::string_view line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) throw ProtocolError("empty request");

  Request req;
  req.verb = parse_verb(tokens[0]);

  std::vector<std::string_view> seen;
  bool has_axes = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const auto eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw ProtocolError("token '" + std::string(token) +
                          "' is not key=value");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      throw ProtocolError("duplicate key '" + std::string(key) + "'");
    }
    seen.push_back(key);
    if (value.empty()) {
      throw ProtocolError("key '" + std::string(key) + "' has an empty value");
    }

    if (key == "id") {
      validate_id(value);
      req.id = std::string(value);
      continue;
    }
    // Per-verb keys. Rejecting a key the verb ignores catches typos
    // ("assess axes=...") the same way the CLI's strict flags do.
    bool ok = false;
    switch (req.verb) {
      case Verb::kAssess:
        if (key == "scenario") {
          req.scenario = std::string(value);
          ok = true;
        } else if (key == "set") {
          req.overrides = std::string(value);
          ok = true;
        }
        break;
      case Verb::kTurnover:
        if (key == "editions") {
          const long long n = parse_positive_int(key, value);
          if (n < 2 || n > kMaxTurnoverEditions) {
            throw ProtocolError("editions= wants 2.." +
                                std::to_string(kMaxTurnoverEditions) +
                                " (growth needs a cycle), got '" +
                                std::string(value) + "'");
          }
          req.editions = static_cast<int>(n);
          ok = true;
        }
        break;
      case Verb::kSweep:
        if (key == "axes") {
          req.axes = std::string(value);
          has_axes = true;
          ok = true;
        } else if (key == "base") {
          req.base = std::string(value);
          ok = true;
        } else if (key == "batch") {
          req.batch = static_cast<size_t>(parse_positive_int(key, value));
          ok = true;
        } else if (key == "records") {
          req.records = static_cast<size_t>(parse_positive_int(key, value));
          ok = true;
        } else if (key == "refine") {
          req.refine = parse_refine(value);
          ok = true;
        }
        break;
      case Verb::kPing:
      case Verb::kVersion:
      case Verb::kShutdown:
        break;
    }
    if (!ok) {
      throw ProtocolError("key '" + std::string(key) +
                          "' does not apply to '" +
                          std::string(verb_name(req.verb)) + "'");
    }
  }
  if (req.verb == Verb::kSweep && !has_axes) {
    throw ProtocolError("sweep needs axes=<spec> (e.g. axes=aci=25:600:6)");
  }
  return req;
}

std::string frame_reply(const Reply& reply) {
  std::string out = "reply " + reply.id + (reply.ok ? " ok " : " err ") +
                    std::to_string(reply.payload.size()) + "\n";
  out += reply.payload;
  for (const std::string& note : reply.notes) {
    std::string flat = note;
    std::replace(flat.begin(), flat.end(), '\n', ' ');
    out += "note " + reply.id + " " + flat + "\n";
  }
  const RequestStats& s = reply.stats;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "stats %s hits=%llu misses=%llu evictions=%llu entries=%llu "
                "cum-hits=%llu cum-misses=%llu served=%llu\n",
                reply.id.c_str(),
                static_cast<unsigned long long>(s.delta.hits),
                static_cast<unsigned long long>(s.delta.misses),
                static_cast<unsigned long long>(s.delta.evictions),
                static_cast<unsigned long long>(s.cumulative.entries),
                static_cast<unsigned long long>(s.cumulative.hits),
                static_cast<unsigned long long>(s.cumulative.misses),
                static_cast<unsigned long long>(s.served));
  out += buf;
  return out;
}

// ---------------------------------------------------------------------

long StringSource::read(char* buf, size_t max) {
  if (pos_ >= data_.size()) return 0;
  const size_t n = std::min(max, data_.size() - pos_);
  std::copy_n(data_.data() + pos_, n, buf);
  pos_ += n;
  return static_cast<long>(n);
}

long FdSource::read(char* buf, size_t max) {
  for (;;) {
    if (wake_fd_ >= 0) {
      pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) return -1;
        return 0;
      }
      // The wake pipe is written once and never drained, so it stays
      // readable: after shutdown every poll returns immediately and
      // every session sees "interrupted" until it exits its loop.
      if (fds[1].revents != 0) return -1;
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    }
    const ssize_t got = ::read(fd_, buf, max);
    if (got >= 0) return static_cast<long>(got);
    if (errno == EINTR) return -1;
    return 0;
  }
}

LineReader::Event LineReader::next(std::string& line) {
  for (;;) {
    if (discarding_) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        buffer_.erase(0, nl + 1);
        discarding_ = false;
        continue;
      }
      buffer_.clear();
    } else {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return Event::kLine;
      }
      if (buffer_.size() > max_line_) {
        discarding_ = true;
        return Event::kOverlong;
      }
    }
    if (eof_) {
      if (!buffer_.empty() && !discarding_) {
        line = std::move(buffer_);
        buffer_.clear();
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return Event::kLine;
      }
      return Event::kEof;
    }
    char chunk[4096];
    const long got = source_.read(chunk, sizeof(chunk));
    if (got < 0) return Event::kInterrupted;
    if (got == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

bool StringSink::send(std::string_view frame) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.append(frame);
  return true;
}

std::string StringSink::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(data_);
}

bool FdSink::send(std::string_view frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) return false;
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        is_socket_
            ? ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL)
            : ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      failed_ = true;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace easyc::service
