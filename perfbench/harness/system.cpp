#include "system.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace ezbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q >= 100.0) return v.back();
  // numpy's default, so a median of an even count is the mean of the
  // middle pair.
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double supported_tail_percentile(size_t n) {
  for (double q : {99.9, 99.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - q) / 100.0 >= 10.0) return q;
  }
  return 0.0;
}

uint64_t fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t mix(uint64_t seed, uint64_t index) {
  Rng r(seed ^ (index * 0xd1b54a32d192ed03ULL));
  r.next();
  return r.next();
}

namespace {

cpu_set_t make_set(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return set;
}

void set_affinity(pid_t tid, const std::vector<int>& cpus) {
  const cpu_set_t set = make_set(cpus);
  if (::sched_setaffinity(tid, sizeof(set), &set) != 0) {
    throw std::runtime_error("cannot pin thread " + std::to_string(tid));
  }
}

}  // namespace

void pin_self(const std::vector<int>& cpus) { set_affinity(0, cpus); }

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    out.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

void pin_new_threads(const std::vector<pid_t>& before,
                     const std::vector<pid_t>& after,
                     const std::vector<int>& cpus) {
  size_t pinned = 0;
  for (pid_t tid : after) {
    if (std::binary_search(before.begin(), before.end(), tid)) continue;
    set_affinity(tid, {cpus[pinned++ % cpus.size()]});
  }
}

namespace {

// VmHWM, the peak of this process's memory map: what a child spawned from
// it inherits. (ru_maxrss would also count what this process inherited
// from its own parent.)
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// The harness's peak when each live child was spawned (spawn and reap
// run on one thread).
std::map<pid_t, double>& inherited_mb() {
  static std::map<pid_t, double> by_pid;
  return by_pid;
}

}  // namespace

double own_peak_mb(const Exit& e, const std::string& what) {
  if (e.maxrss_mb <= e.inherited_mb) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " peak RSS %.1f MB is not above the harness's %.1f MB",
                  e.maxrss_mb, e.inherited_mb);
    throw std::runtime_error(what + buf);
  }
  return e.maxrss_mb;
}

bool Exit::ok() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

std::string Exit::describe() const {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

pid_t spawn(const std::vector<std::string>& argv, const std::vector<int>& cpus,
            const std::string& stdout_path, int stderr_fd) {
  std::vector<char*> args;
  std::vector<std::string> copy = argv;
  for (std::string& a : copy) args.push_back(a.data());
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string out = stdout_path.empty() ? "/dev/null" : stdout_path;
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (stderr_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, stderr_fd, STDERR_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  // A spawned child inherits the affinity of the spawning thread, so
  // pin this thread for the duration of the spawn and restore it.
  cpu_set_t saved;
  ::sched_getaffinity(0, sizeof(saved), &saved);
  set_affinity(0, cpus);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  ::sched_setaffinity(0, sizeof(saved), &saved);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
  // posix_spawn returns once the child has exec'd, which is when the
  // kernel folds this process's peak into the child's; the child runs
  // on its own CPUs meanwhile.
  inherited_mb()[pid] = vm_hwm_mb();
  return pid;
}

namespace {

Exit reap_pid(pid_t which) {
  Exit e;
  rusage ru{};
  for (;;) {
    e.pid = ::wait4(which, &e.status, 0, &ru);
    if (e.pid >= 0 || errno != EINTR) break;
  }
  if (e.pid < 0) throw std::runtime_error("wait4 failed");
  e.end_s = now_s();
  e.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (const auto it = inherited_mb().find(e.pid); it != inherited_mb().end()) {
    e.inherited_mb = it->second;
    inherited_mb().erase(it);
  }
  return e;
}

}  // namespace

Exit reap(pid_t pid) { return reap_pid(pid); }
Exit reap_any() { return reap_pid(-1); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

uint64_t file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace ezbench
