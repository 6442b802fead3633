#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "campaign/serialize.h"
#include "percentile.h"
#include "util/bits.h"
#include "util/rng.h"

namespace perfbench {

void say(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stdout, fmt, ap);
  va_end(ap);
  std::fflush(stdout);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::fail(const std::string& why, std::size_t runs) {
  failed_ += runs;
  say("CHECK FAILED (%zu run%s): %s\n", runs, runs == 1 ? "" : "s",
      why.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values are not JSON; they are also never measured.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t digest_chain(std::uint64_t h, const std::string& record) {
  const std::uint64_t len = record.size();
  h = dav::fnv1a64(&len, sizeof(len), h);
  return dav::fnv1a64(record.data(), record.size(), h);
}

std::string Pass::fold(const dav::RunResult& r) {
  std::string bytes = dav::serialize_run_result(r);
  digest = digest_chain(digest, bytes);
  ++runs;
  ticks += static_cast<std::uint64_t>(std::max(0, r.steps));
  if (r.outcome == dav::FaultOutcome::kHarnessError) ++harness_errors;
  return bytes;
}

double peak_rss_mb() {
  // This process: VmHWM, because RUSAGE_SELF's ru_maxrss survives exec and
  // would report the launching interpreter's footprint. Pool workers are
  // forked, never exec'd, so RUSAGE_CHILDREN covers them.
  long self_kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kib) == 1) break;
    }
    std::fclose(f);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self_kib, children.ru_maxrss)) / 1024.0;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t s = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  dav::splitmix64(s);
  return dav::splitmix64(s);
}

double runs_per_s(const std::vector<Pass>& passes) {
  double wall = 0.0;
  std::size_t runs = 0;
  for (const Pass& p : passes) {
    wall += p.wall_sec;
    runs += p.runs;
  }
  return wall > 0.0 ? static_cast<double>(runs) / wall : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// For each run (index into Pass::run_ms), its fastest quartile of repeats.
std::vector<std::vector<double>> per_run_fastest_quartile(
    const std::vector<Pass>& passes) {
  std::size_t items = 0;
  for (const Pass& p : passes) items = std::max(items, p.run_ms.size());
  std::vector<std::vector<double>> out(items);
  for (std::size_t i = 0; i < items; ++i) {
    std::vector<double>& repeats = out[i];
    for (const Pass& p : passes) {
      if (i < p.run_ms.size() && p.run_ms[i] > 0.0) {
        repeats.push_back(p.run_ms[i]);
      }
    }
    std::sort(repeats.begin(), repeats.end());
    repeats.resize((repeats.size() + 3) / 4);
  }
  return out;
}

/// Host time of one pass as the program costs it, without the slowdowns a
/// shared host imposes for seconds at a time (up to 1.6x measured on a
/// 4-vCPU KVM guest): the
/// fastest-quartile pass, or for serial passes the sum of each run's
/// fastest-quartile time. Passes repeat identical work, so either is
/// comparable across passes and invocations.
double fast_pass_sec(const std::vector<Pass>& passes) {
  if (passes.front().serial) {
    double sum_ms = 0.0;
    for (const std::vector<double>& r : per_run_fastest_quartile(passes)) {
      sum_ms += median(r);
    }
    return sum_ms * 1e-3;
  }
  std::vector<double> wall;
  for (const Pass& p : passes) wall.push_back(p.wall_sec);
  return percentile(wall, 25).value;
}

std::vector<double> fastest_quartile_run_ms(const std::vector<Pass>& passes) {
  std::vector<double> out;
  for (const std::vector<double>& r : per_run_fastest_quartile(passes)) {
    out.insert(out.end(), r.begin(), r.end());
  }
  return out;
}

}  // namespace

bool report_end_to_end(const std::vector<Pass>& passes,
                       const std::vector<double>& setup_samples, double rss,
                       Report& rep) {
  double wall = 0.0;
  std::size_t runs = 0;
  std::uint64_t ticks = 0;
  std::size_t harness_errors = 0;
  for (const Pass& p : passes) {
    wall += p.wall_sec;
    runs += p.runs;
    ticks += p.ticks;
    harness_errors += p.harness_errors;
  }
  rep.add_attempted(runs);
  if (harness_errors > 0) {
    rep.fail("runs ended as kHarnessError", harness_errors);
  }
  for (std::size_t i = 1; i < passes.size(); ++i) {
    if (passes[i].digest != passes[0].digest) {
      rep.fail("pass " + std::to_string(i) +
                   " produced a different result digest than pass 0 for "
                   "the same seed",
               passes[i].runs);
    }
  }
  say("result digest %016llx, identical across %zu passes: %s\n",
      static_cast<unsigned long long>(passes[0].digest), passes.size(),
      rep.failed() == 0 ? "yes" : "no");

  const double pass_sec = fast_pass_sec(passes);
  const double rps = static_cast<double>(passes.front().runs) / pass_sec;
  const double tps = static_cast<double>(passes.front().ticks) / pass_sec;
  const std::vector<double> run_ms = fastest_quartile_run_ms(passes);
  const Percentile p50 = percentile(run_ms, 50);
  const Percentile p90 = percentile(run_ms, 90);
  const double setup_s = median(setup_samples);
  say("end-to-end (%zu passes, %zu runs, %.3f s timed; rates from a "
      "fastest-quartile pass of %.4f s):\n",
      passes.size(), runs, wall, pass_sec);
  say("  runs_per_s   %.6g 1/s  (%.6g over all passes)\n", rps,
      static_cast<double>(runs) / wall);
  say("  ticks_per_s  %.6g 1/s  (%.6g over all passes)\n", tps,
      static_cast<double>(ticks) / wall);
  say("  run_ms       %s  (fastest quartile of each run's repeats)\n",
      describe(p50, "ms").c_str());
  say("  run_ms       %s\n", describe(p90, "ms").c_str());
  say("  setup_s      %.6g s  (median of %zu set-ups)\n", setup_s,
      setup_samples.size());
  say("  peak_rss_mb  %.6g MB  (this process and every pool worker)\n", rss);
  rep.metric("runs_per_s", rps, "1/s");
  rep.metric("ticks_per_s", tps, "1/s");
  rep.metric("run_ms_p50", p50.value, "ms");
  rep.metric("setup_s", setup_s, "s");
  rep.metric("peak_rss_mb", rss, "MB");
  if (!p50.reported) {
    std::fprintf(stderr,
                 "perfbench: run_ms p50 has fewer than %zu samples beyond "
                 "it; raise --seconds\n",
                 kMinBeyond);
    return false;
  }
  return true;
}

}  // namespace perfbench
