// Shared plumbing of the campaign benchmark: arguments, timing, the report
// that ends in the one-line JSON result, and result digests.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/driver.h"
#include "percentile.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2022;
  double seconds = 30.0;
  bool trace = false;
  /// Scratch directory for journals; created and removed by the benchmark.
  std::string work_dir;
  /// Pool workers: min(CPUs available to this process, 4).
  int jobs = 1;
};

/// Everything one invocation reports. Human-readable lines go to stdout as
/// the workload runs; json() is the final line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count runs whose outputs were produced (and checked).
  void add_attempted(std::size_t runs) { attempted_ += runs; }
  std::size_t attempted() const { return attempted_; }
  /// Record a failed output check covering `runs` runs; makes the whole
  /// invocation incorrect.
  void fail(const std::string& why, std::size_t runs = 1);
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::size_t failed() const { return failed_; }
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// printf to stdout, flushed, so progress shows before the final result line.
void say(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Extends an FNV-1a digest by one length-prefixed record, so that record
/// boundaries count. Start from kDigestSeed.
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;
std::uint64_t digest_chain(std::uint64_t h, const std::string& record);

/// Peak resident set, MB, of this process and of every reaped child.
double peak_rss_mb();

/// A seed-derived 64-bit stream value: splitmix64 of (seed, tag).
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

/// Host time of one pass over a workload's fixed run list.
struct Pass {
  double wall_sec = 0.0;
  std::size_t runs = 0;
  std::uint64_t ticks = 0;            ///< sum of RunResult::steps
  /// Host time of each run, in the pass's fixed run order (so index i is
  /// the same run in every pass); 0 for a run with no measurement.
  std::vector<double> run_ms;
  std::uint64_t digest = kDigestSeed; ///< over result bytes, plan order
  std::size_t harness_errors = 0;
  /// Runs execute one after another, so the pass takes the sum of their
  /// times; pool passes overlap runs.
  bool serial = false;

  /// Counts one result and extends the digest; returns its bytes.
  std::string fold(const dav::RunResult& r);
};

/// Repeats `one_pass(index)` until `seconds` would be exceeded by one more
/// pass. It runs at least two passes, so results can be compared across
/// passes, and enough that the fastest quartile of each run's repeats
/// leaves a reportable run_ms p50: with few runs per pass on a slow host
/// that takes longer than `seconds`.
template <typename PassFn>
std::vector<Pass> timed_passes(double seconds, PassFn&& one_pass) {
  std::vector<Pass> passes;
  std::size_t min_passes = 2;
  const Clock::time_point start = Clock::now();
  for (;;) {
    passes.push_back(one_pass(passes.size()));
    if (passes.size() == 1) {
      const std::size_t runs =
          std::max<std::size_t>(1, passes[0].run_ms.size());
      const std::size_t per_run = (2 * kMinBeyond + runs - 1) / runs;
      min_passes = std::max<std::size_t>(2, 4 * per_run - 3);
    }
    const double elapsed = seconds_since(start);
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (passes.size() >= min_passes && elapsed + per_pass > seconds) break;
  }
  return passes;
}

/// Runs per host second over a set of passes.
double runs_per_s(const std::vector<Pass>& passes);

/// End-to-end metrics over the timed passes: throughput of a
/// fastest-quartile pass (for serial passes, one made of each run's
/// fastest-quartile time), per-run host time (for each run the fastest
/// quartile, at least one, of its repeats across passes, pooled),
/// set-up time (median of `setup_samples`) and memory (`rss`, peak_rss_mb()
/// sampled after the timed passes), plus the checks that
/// every pass produced the same digest and no harness error. Returns false
/// when a reported percentile lacks samples (the run is too short).
bool report_end_to_end(const std::vector<Pass>& passes,
                       const std::vector<double>& setup_samples, double rss,
                       Report& rep);

/// Median of a small sample (mean of the middle two for even sizes).
double median(std::vector<double> v);

}  // namespace perfbench
