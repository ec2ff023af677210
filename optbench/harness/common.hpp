#pragma once
// Shared plumbing of the optbench harness: the run configuration, the
// result a workload hands back, statistics helpers and process probes.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace optbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  int passes = 1;   ///< passes over the request set (traced: 2, alternating)
  bool trace = false;
};

/// What a workload hands back to main(): request accounting, the
/// correctness verdict, and the metric values of the requested mode (main
/// attaches the units from the metric tables).
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< first few wrong answers, for stderr
  std::map<std::string, double> values;

  /// A wrong answer: the run is incorrect and the request failed.
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  /// A request the service answers wrongly in a known, documented way (a
  /// defect kept in the mix on purpose): it counts in `failed`, but does
  /// not make the run incorrect.
  void known_failure() { ++failed; }
};

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double>& v);

/// Seconds on the monotonic clock.
double now_s();
/// CPU seconds used by the whole process (all threads).
double process_cpu_s();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

/// Fixed harness-only integer loop; returns its wall time in ms. Used as
/// a host-speed probe at the start and end of every run, never to
/// normalise another metric.
double host_calibration_ms();

/// Deterministic 64-bit generator for everything the seed drives.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

}  // namespace optbench
