// davtrace — inspect, convert, and regression-gate flight-recorder traces
// (src/obs/).
//
// Subcommands:
//   davtrace summarize <trace.json>...   span breakdown (count, total, p50/
//                                        p95/p99 per stage), counter ranges,
//                                        and the alarm/recovery timeline
//   davtrace csv <trace.json> [--out=<path>]
//                                        render a run trace's tick-indexed
//                                        detection/recovery CSV (runs export
//                                        only the JSON)
//   davtrace compare <baseline.json> <candidate.json>
//            [--tolerance=<pct>] [--stage=<name>=<pct>]...
//                                        diff two traces' per-stage latency
//                                        percentiles; exit 2 when a stage
//                                        regressed past its threshold (0 =
//                                        zero tolerance). The CI perf gate.
//
// Reads the Chrome trace-event JSON emitted by export_run_trace (and the
// campaign telemetry trace): nothing here depends on which process wrote the
// file, so traces from forked campaign workers summarize identically.
// compare consumes span events when present and falls back to the
// "hist.<stage>" summary rows the campaign worker trace carries, so it gates
// both per-run and campaign-level traces.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.h"
#include "util/stats.h"

namespace {

using dav::obs::ChromeEvent;
using dav::obs::ChromeTrace;

[[noreturn]] void usage_error(const std::string& what) {
  throw std::runtime_error(
      "davtrace: " + what +
      "\nusage: davtrace summarize <trace.json>...\n"
      "       davtrace csv <trace.json> [--out=<path>]\n"
      "       davtrace compare <baseline.json> <candidate.json>"
      " [--tolerance=<pct>] [--stage=<name>=<pct>]...");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("davtrace: cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Read + parse one trace with errors that name the file and say what is
/// actually wrong — an empty file, a truncated/corrupt one, and valid JSON
/// that simply is not a trace are three different operator mistakes.
ChromeTrace load_trace(const std::string& path) {
  const std::string text = read_file(path);
  if (text.empty()) {
    throw std::runtime_error("davtrace: " + path +
                             " is empty (0 bytes) — expected Chrome "
                             "trace-event JSON (was the producer killed "
                             "mid-write?)");
  }
  ChromeTrace trace;
  try {
    trace = dav::obs::parse_chrome_trace(text);
  } catch (const std::exception& e) {
    throw std::runtime_error("davtrace: " + path + ": " + e.what() +
                             " — file is truncated or not Chrome "
                             "trace-event JSON");
  }
  if (trace.events.empty() && trace.other_data.empty()) {
    throw std::runtime_error("davtrace: " + path +
                             " parsed as JSON but contains no traceEvents "
                             "and no otherData — not a flight-recorder "
                             "trace");
  }
  return trace;
}

struct SpanAgg {
  std::vector<double> dur_us;
  double total_us = 0.0;
};

void summarize_one(const std::string& path) {
  const ChromeTrace trace = load_trace(path);
  std::printf("=== %s ===\n", path.c_str());
  for (const auto& [key, value] : trace.other_data) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("  events: %zu\n", trace.events.size());

  // Span breakdown per stage name.
  std::map<std::string, SpanAgg> spans;
  std::map<std::string, std::pair<double, double>> counter_range;
  std::vector<const ChromeEvent*> marks;
  double last_ts = 0.0;
  for (const ChromeEvent& e : trace.events) {
    last_ts = std::max(last_ts, e.ts_us);
    if (e.ph == 'X') {
      SpanAgg& agg = spans[e.name];
      agg.dur_us.push_back(e.dur_us);
      agg.total_us += e.dur_us;
    } else if (e.ph == 'C') {
      auto it = counter_range.find(e.name);
      if (it == counter_range.end()) {
        counter_range.emplace(e.name, std::make_pair(e.value, e.value));
      } else {
        it->second.first = std::min(it->second.first, e.value);
        it->second.second = std::max(it->second.second, e.value);
      }
    } else if (e.ph == 'i') {
      marks.push_back(&e);
    }
  }

  if (!spans.empty()) {
    std::printf("  %-16s %8s %12s %10s %10s %10s\n", "stage", "count",
                "total_ms", "p50_us", "p95_us", "p99_us");
    for (auto& [name, agg] : spans) {
      const std::vector<double>& d = agg.dur_us;
      std::printf("  %-16s %8zu %12.3f %10.1f %10.1f %10.1f\n", name.c_str(),
                  d.size(), agg.total_us / 1e3, dav::percentile(d, 50.0),
                  dav::percentile(d, 95.0), dav::percentile(d, 99.0));
    }
  }
  if (!counter_range.empty()) {
    std::printf("  counters (min..max):\n");
    for (const auto& [name, range] : counter_range) {
      std::printf("    %-20s %g .. %g\n", name.c_str(), range.first,
                  range.second);
    }
  }
  // Alarm / recovery timeline: semantic marks in timestamp order.
  if (!marks.empty()) {
    std::stable_sort(marks.begin(), marks.end(),
                     [](const ChromeEvent* a, const ChromeEvent* b) {
                       return a->ts_us < b->ts_us;
                     });
    std::printf("  timeline:\n");
    for (const ChromeEvent* m : marks) {
      std::printf("    t=%9.3fs tick=%-6d %-20s value=%g\n", m->ts_us / 1e6,
                  m->tick, m->name.c_str(), m->value);
    }
  } else {
    std::printf("  timeline: (no semantic marks — clean run)\n");
  }
  std::printf("  span of trace: %.3f s\n", last_ts / 1e6);
}

// ---- compare: the CI perf gate --------------------------------------------

/// Per-stage latency snapshot, microseconds. Derived from span events when
/// the trace has any; otherwise from the "hist.<stage>" otherData rows
/// ("count,p50_ns,p95_ns,p99_ns") the campaign exporter writes — so compare
/// works on per-run traces and span-free campaign traces alike.
struct StagePercentiles {
  std::size_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

std::map<std::string, StagePercentiles> stage_percentiles(
    const ChromeTrace& trace, const std::string& path) {
  std::map<std::string, StagePercentiles> out;
  std::map<std::string, std::vector<double>> durs;
  for (const ChromeEvent& e : trace.events) {
    if (e.ph == 'X') durs[e.name].push_back(e.dur_us);
  }
  if (!durs.empty()) {
    for (auto& [name, d] : durs) {
      StagePercentiles sp;
      sp.count = d.size();
      sp.p50_us = dav::percentile(d, 50.0);
      sp.p95_us = dav::percentile(d, 95.0);
      sp.p99_us = dav::percentile(d, 99.0);
      out.emplace(name, sp);
    }
    return out;
  }
  for (const auto& [key, value] : trace.other_data) {
    if (key.rfind("hist.", 0) != 0) continue;
    StagePercentiles sp;
    unsigned long long n = 0, p50 = 0, p95 = 0, p99 = 0;
    if (std::sscanf(value.c_str(), "%llu,%llu,%llu,%llu", &n, &p50, &p95,
                    &p99) != 4) {
      throw std::runtime_error("davtrace: " + path + ": malformed " + key +
                               " row \"" + value +
                               "\" — expected count,p50_ns,p95_ns,p99_ns");
    }
    sp.count = static_cast<std::size_t>(n);
    sp.p50_us = static_cast<double>(p50) / 1e3;
    sp.p95_us = static_cast<double>(p95) / 1e3;
    sp.p99_us = static_cast<double>(p99) / 1e3;
    out.emplace(key.substr(5), sp);
  }
  if (out.empty()) {
    throw std::runtime_error("davtrace: " + path +
                             " has no span events and no hist.* summary "
                             "rows — nothing to compare");
  }
  return out;
}

double parse_pct(const std::string& flag, const std::string& val) {
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  if (end == val.c_str() || *end != '\0' || v < 0.0) {
    usage_error(flag + " expects a non-negative percent, got '" + val + "'");
  }
  return v;
}

/// Exit 0 when every shared stage's p50/p95/p99 stayed within its threshold,
/// 2 when anything regressed. A stage only in one trace is reported but
/// never fails the gate (campaign shapes legitimately differ in stages).
int compare_traces(const std::vector<std::string>& inputs,
                   double tolerance_pct,
                   const std::map<std::string, double>& stage_tolerance) {
  if (inputs.size() != 2) {
    usage_error("compare takes exactly two trace files (baseline, candidate)");
  }
  const auto base = stage_percentiles(load_trace(inputs[0]), inputs[0]);
  const auto cand = stage_percentiles(load_trace(inputs[1]), inputs[1]);
  std::printf("davtrace compare\n  baseline:  %s\n  candidate: %s\n",
              inputs[0].c_str(), inputs[1].c_str());
  int regressions = 0;
  for (const auto& [name, b] : base) {
    const auto it = cand.find(name);
    if (it == cand.end()) {
      std::printf("  %-16s only in baseline (skipped)\n", name.c_str());
      continue;
    }
    const StagePercentiles& c = it->second;
    const auto tol_it = stage_tolerance.find(name);
    const double tol =
        tol_it != stage_tolerance.end() ? tol_it->second : tolerance_pct;
    const struct { const char* metric; double from; double to; } rows[] = {
        {"p50", b.p50_us, c.p50_us},
        {"p95", b.p95_us, c.p95_us},
        {"p99", b.p99_us, c.p99_us},
    };
    for (const auto& row : rows) {
      const double delta_pct =
          row.from > 0.0 ? 100.0 * (row.to - row.from) / row.from
                         : (row.to > 0.0 ? 100.0 : 0.0);
      const bool regressed = delta_pct > tol;
      std::printf("  %-16s %s %12.1fus -> %12.1fus  %+7.2f%% (tol %g%%)%s\n",
                  name.c_str(), row.metric, row.from, row.to, delta_pct, tol,
                  regressed ? "  REGRESSION" : "");
      if (regressed) ++regressions;
    }
  }
  for (const auto& [name, c] : cand) {
    if (base.find(name) == base.end()) {
      std::printf("  %-16s only in candidate (skipped)\n", name.c_str());
    }
  }
  if (regressions > 0) {
    std::printf("davtrace compare: %d regression(s) past tolerance\n",
                regressions);
    return 2;
  }
  std::printf("davtrace compare: OK\n");
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) usage_error("missing subcommand");
  const std::string cmd = argv[1];
  std::vector<std::string> inputs;
  std::string out_path;
  double tolerance_pct = 0.0;  // compare: zero tolerance by default
  std::map<std::string, double> stage_tolerance;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance_pct = parse_pct("--tolerance", arg.substr(12));
    } else if (arg.rfind("--stage=", 0) == 0) {
      const std::string spec = arg.substr(8);
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        usage_error("--stage expects <name>=<pct>, got '" + spec + "'");
      }
      stage_tolerance[spec.substr(0, eq)] =
          parse_pct("--stage", spec.substr(eq + 1));
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unrecognized option '" + arg + "'");
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) usage_error("no input trace files");

  if (cmd == "summarize") {
    for (const std::string& path : inputs) summarize_one(path);
    return 0;
  }
  if (cmd == "compare") {
    return compare_traces(inputs, tolerance_pct, stage_tolerance);
  }
  if (cmd == "csv") {
    if (inputs.size() != 1) usage_error("csv takes exactly one trace file");
    const ChromeTrace trace = load_trace(inputs[0]);
    const std::string csv = dav::obs::run_csv(trace.events);
    if (out_path.empty()) {
      std::fputs(csv.c_str(), stdout);
    } else {
      dav::obs::write_text_file(out_path, csv);
    }
    return 0;
  }
  usage_error("unknown subcommand '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
