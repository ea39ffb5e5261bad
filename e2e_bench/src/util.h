// Small shared pieces of the end-to-end benchmark: clocks, order
// statistics, operation accounting, output checks and the result record
// the benchmark prints as its last line.

#ifndef EPL_E2E_BENCH_UTIL_H_
#define EPL_E2E_BENCH_UTIL_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace epl::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// User + system CPU time of the whole process (every thread).
inline int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// Peak resident set size of the process so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Quantile q in [0, 1] by linear interpolation (0 for an empty set).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Every public runtime operation the benchmark issues: PushFrame,
/// Deploy, DeployComposite, re-learn, Checkpoint, Recover, Flush.
struct OpCounter {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool Count(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) {
      return true;
    }
    if (failed < 5) {
      std::fprintf(stderr, "e2e_bench: %s failed: %s\n", what,
                   status.ToString().c_str());
    }
    ++failed;
    return false;
  }
};

/// Output checks. A failed check is reported on stderr and turns the
/// run's `correct` false (and its exit code non-zero).
class Checks {
 public:
  void Expect(bool condition, const std::string& what) {
    ++evaluated_;
    if (condition) {
      return;
    }
    if (failures_ < 20) {
      std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", what.c_str());
    }
    ++failures_;
  }
  bool ok() const { return failures_ == 0; }
  uint64_t evaluated() const { return evaluated_; }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t evaluated_ = 0;
  uint64_t failures_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  OpCounter ops;
  Checks checks;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;

  void Add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back(Metric{name, unit, value});
  }
};

/// The command-line flags of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

}  // namespace epl::e2e

#endif  // EPL_E2E_BENCH_UTIL_H_
