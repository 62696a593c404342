// perfbench: the optrep benchmark. One workload per invocation; the serving
// workload lives in serve.cc, the gossip workload in gossip.cc, and main.cc
// prints the result (README.md lists every metric and why it exists).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

namespace optrep::prof {
class Profiler;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string trace_dir;  // where the traced run writes its spans; empty = nowhere
};

struct Result {
  std::map<std::string, double> end_to_end;  // measured with tracing off
  std::map<std::string, double> per_layer;   // traced runs only
  std::map<std::string, double> info;        // extra figures for the report line
  std::vector<std::string> failures;         // failed output checks
  std::vector<std::string> warnings;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

Result run_serve(const Options& opt);
Result run_gossip(const Options& opt);

// Write the newest retained spans as a Perfetto profile into opt.trace_dir,
// as <name>.profile.json. Called after the traced run has finished.
void write_spans(const Options& opt, const std::string& name, const optrep::prof::Profiler& spans,
                 Result& r);

// Nearest-rank quantile of unsorted samples (q in [0, 1]); 0 when empty.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

template <class T>
double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Process CPU time (user + system, all threads) in seconds.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

// CPUs the calling thread may run on.
inline int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// Confines the calling thread, and the threads it creates while this lives,
// to n of the CPUs it may run on: the first-th allowed CPU and the ones after
// it, counted cyclically. Restores the thread's mask on destruction. Does
// nothing when fewer than n CPUs are allowed.
class CpuConfinement {
 public:
  explicit CpuConfinement(unsigned n, unsigned first = 0) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count < static_cast<int>(n)) return;
    std::vector<int> allowed;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) allowed.push_back(c);
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned k = 0; k < n; ++k) CPU_SET(allowed[(first + k) % allowed.size()], &set);
    active_ = sched_setaffinity(0, sizeof set, &set) == 0;
  }
  ~CpuConfinement() {
    if (active_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuConfinement(const CpuConfinement&) = delete;
  CpuConfinement& operator=(const CpuConfinement&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_{false};
};

// Process high-water resident set size in MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
