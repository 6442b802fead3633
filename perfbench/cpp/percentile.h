// Nearest-rank percentiles that refuse to extrapolate.
//
// A percentile is reported only when at least kMinBeyond samples lie beyond
// it: p90 of 40 runs is the fourth-slowest run, one outlier away from a
// different number. Every report states the sample count and how many
// samples lie beyond the percentile, so a reader can judge it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  int pct = 0;              ///< requested percentile, 1..100
  std::size_t n = 0;        ///< sample count
  std::size_t rank = 0;     ///< 1-based nearest rank (0 when n == 0)
  std::size_t beyond = 0;   ///< samples ranked after `rank`: n - rank
  bool reported = false;    ///< beyond >= kMinBeyond
  double value = 0.0;       ///< the rank-th smallest sample (when n > 0)
};

/// Nearest rank: the smallest sample with at least pct% of the samples at or
/// below it, i.e. rank = ceil(pct * n / 100), clamped to [1, n].
inline Percentile percentile(std::vector<double> samples, int pct) {
  Percentile p;
  p.pct = std::clamp(pct, 1, 100);
  p.n = samples.size();
  if (p.n == 0) return p;
  p.rank = (static_cast<std::size_t>(p.pct) * p.n + 99) / 100;
  p.rank = std::clamp<std::size_t>(p.rank, 1, p.n);
  p.beyond = p.n - p.rank;
  p.reported = p.beyond >= kMinBeyond;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(p.rank - 1),
                   samples.end());
  p.value = samples[p.rank - 1];
  return p;
}

/// "p90=12.5 ms (n=120, 12 beyond)" or, when omitted,
/// "p90 omitted (n=40, 4 beyond < 10)".
inline std::string describe(const Percentile& p, const char* unit) {
  char buf[160];
  if (p.reported) {
    std::snprintf(buf, sizeof(buf), "p%d=%.6g %s (n=%zu, %zu beyond)", p.pct,
                  p.value, unit, p.n, p.beyond);
  } else {
    std::snprintf(buf, sizeof(buf), "p%d omitted (n=%zu, %zu beyond < %zu)",
                  p.pct, p.n, p.beyond, kMinBeyond);
  }
  return buf;
}

}  // namespace perfbench
