// Operating-system plumbing for the benchmark harness: a monotonic
// clock, CPU pinning, child processes, peak resident memory, and the
// small statistics the result line needs. Nothing here knows about
// EasyC; the workloads in workloads.cpp build on it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ezbench {

/// Seconds on the monotonic clock since an arbitrary process-wide epoch.
double now_s();

// --- statistics -------------------------------------------------------

double median(std::vector<double> v);
/// Percentile by linear interpolation between closest ranks, q in
/// [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Highest of the fixed percentiles {99.9, 99, 90, 75, 50} that has at
/// least ten samples above it, or 0 when none does (n < 20).
double supported_tail_percentile(size_t n);

// --- hashing ----------------------------------------------------------

/// FNV-1a 64 over bytes (the payload digest the output checks compare).
uint64_t fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ULL);

/// SplitMix64: the benchmark's only source of seeded input variation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform integer in [lo, hi].
  uint64_t range(uint64_t lo, uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  uint64_t state_;
};

/// Stateless mix of (seed, index) into 64 bits, so request i of a
/// seeded stream is the same no matter which connection sends it.
uint64_t mix(uint64_t seed, uint64_t index);

// --- CPU placement ----------------------------------------------------

/// Pin the calling thread to `cpus` (all of them, any may run it).
void pin_self(const std::vector<int>& cpus);
/// Thread ids of this process, from /proc/self/task.
std::vector<pid_t> thread_ids();
/// Pin each thread in `after` that is not in `before` to its own CPU of
/// `cpus`, round robin.
void pin_new_threads(const std::vector<pid_t>& before,
                       const std::vector<pid_t>& after,
                       const std::vector<int>& cpus);

// --- child processes ----------------------------------------------------

struct Exit {
  pid_t pid = -1;
  int status = 0;
  double end_s = 0.0;     ///< now_s() when the child was reaped
  double maxrss_mb = 0.0;
  double inherited_mb = 0.0;  ///< the harness's peak when it was spawned
  bool ok() const;
  std::string describe() const;
};

/// Start `argv` pinned to `cpus`, stdout to `stdout_path` (empty =
/// /dev/null) and stderr to `stderr_fd` (-1 = /dev/null). Returns the
/// pid; throws on failure.
pid_t spawn(const std::vector<std::string>& argv, const std::vector<int>& cpus,
            const std::string& stdout_path, int stderr_fd = -1);

/// The child's own peak RSS in MB. Linux folds the peak resident size of
/// the parent's memory map into a child's ru_maxrss when the child is
/// spawned, so the figure is the child's own only if it is above
/// `inherited_mb`; throws (naming `what`) when it is not.
double own_peak_mb(const Exit& e, const std::string& what);

/// Reap one specific child (blocking).
Exit reap(pid_t pid);
/// Reap any child (blocking).
Exit reap_any();

/// Read a whole file; throws when it cannot be opened.
std::string read_file(const std::string& path);
uint64_t file_size(const std::string& path);

}  // namespace ezbench
