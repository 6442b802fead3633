// davcamp — run one fault-injection campaign from the command line.
//
// The primary consumer is the CI crash/resume smoke job: launched with
// DAV_JOBS + DAV_JOURNAL, hard-killed partway, relaunched, and its output
// diffed against an uninterrupted reference run. The summary is therefore
// fully deterministic (no wall-clock, no hostnames) and published with an
// error-checked, atomic writer, so a byte-level diff is meaningful.
//
// Usage:
//   davcamp [--scenario=lead|cutin|front] [--mode=single|rr|dup]
//           [--domain=gpu|cpu] [--kind=transient|permanent]
//           [--faults=register|sensor|both]
//           [--td=<meters>] [--out=<path>] [--env-help]
//
// --faults selects the injection surface: "register" (default) is the
// classic compute-fault sweep and prints byte-identical output to earlier
// davcamp versions; "sensor" sweeps the sensor-path models selected by
// DAV_SENSOR_FAULTS (all of them when unset) with fail-degraded fusion
// enabled; "both" appends the sensor section after the register one.
//
// Environment: every DAV_* variable is parsed by dav::EnvOptions (the only
// env-reading entry point); `davcamp --env-help` prints the full table.
// DAV_SCALE scales run counts; DAV_JOBS picks in-process (0, the default) or
// a pool of N sandboxed workers, DAV_JOURNAL makes the campaign resumable
// (DESIGN.md §9/§11), and DAV_CHECKPOINT=1 shares fault-free prefixes
// across variants (DESIGN.md §16).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/env_options.h"
#include "campaign/metrics.h"
#include "obs/export.h"
#include "util/trace.h"

namespace {

using namespace dav;

struct Args {
  enum class Faults { kRegister, kSensor, kBoth };
  ScenarioId scenario = ScenarioId::kLeadSlowdown;
  AgentMode mode = AgentMode::kRoundRobin;
  FaultDomain domain = FaultDomain::kGpu;
  FaultModelKind kind = FaultModelKind::kTransient;
  Faults faults = Faults::kRegister;
  double td = 2.0;
  std::string out;  // empty = stdout
  bool env_help = false;
};

[[noreturn]] void usage_error(const std::string& what) {
  throw std::runtime_error(
      "davcamp: " + what +
      "\nusage: davcamp [--scenario=lead|cutin|front] [--mode=single|rr|dup]"
      " [--domain=gpu|cpu] [--kind=transient|permanent]"
      " [--faults=register|sensor|both] [--td=<meters>]"
      " [--out=<path>] [--env-help]");
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--env-help") {
      a.env_help = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-' ||
        eq == std::string::npos) {
      usage_error("unrecognized argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "scenario") {
      if (val == "lead") a.scenario = ScenarioId::kLeadSlowdown;
      else if (val == "cutin") a.scenario = ScenarioId::kGhostCutIn;
      else if (val == "front") a.scenario = ScenarioId::kFrontAccident;
      else usage_error("unknown scenario '" + val + "'");
    } else if (key == "mode") {
      if (val == "single") a.mode = AgentMode::kSingle;
      else if (val == "rr") a.mode = AgentMode::kRoundRobin;
      else if (val == "dup") a.mode = AgentMode::kDuplicate;
      else usage_error("unknown mode '" + val + "'");
    } else if (key == "domain") {
      if (val == "gpu") a.domain = FaultDomain::kGpu;
      else if (val == "cpu") a.domain = FaultDomain::kCpu;
      else usage_error("unknown domain '" + val + "'");
    } else if (key == "kind") {
      if (val == "transient") a.kind = FaultModelKind::kTransient;
      else if (val == "permanent") a.kind = FaultModelKind::kPermanent;
      else usage_error("unknown kind '" + val + "'");
    } else if (key == "faults") {
      if (val == "register") a.faults = Args::Faults::kRegister;
      else if (val == "sensor") a.faults = Args::Faults::kSensor;
      else if (val == "both") a.faults = Args::Faults::kBoth;
      else usage_error("unknown --faults surface '" + val + "'");
    } else if (key == "td") {
      char* end = nullptr;
      a.td = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || a.td <= 0.0) {
        usage_error("--td expects a positive number, got '" + val + "'");
      }
    } else if (key == "out") {
      a.out = val;
    } else {
      usage_error("unrecognized option '--" + key + "'");
    }
  }
  return a;
}

std::string render_summary(const Args& a, const CampaignSummary& s,
                           const std::vector<RunResult>& runs,
                           const std::vector<CampaignManager::Quarantine>& q) {
  std::ostringstream out;
  out << "davcamp campaign summary\n";
  out << "scenario=" << to_string(a.scenario) << " mode=" << to_string(a.mode)
      << " domain=" << to_string(a.domain) << " kind=" << to_string(a.kind)
      << " td=" << a.td << "\n";
  out << "total=" << s.total << " active=" << s.active
      << " hang_crash=" << s.hang_crash << " accidents=" << s.accidents
      << " traj_violations=" << s.traj_violations
      << " harness_errors=" << s.harness_errors << "\n";
  out << "per-run outcomes:\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << "  run " << i << " seed=" << runs[i].run_seed << " outcome="
        << to_string(runs[i].outcome) << "\n";
  }
  out << "quarantined=" << q.size() << "\n";
  for (const auto& e : q) {
    out << "  seed=" << e.cfg.run_seed << " what=" << e.what << "\n";
  }
  return out.str();
}

/// The sensor-sweep section. Deterministic like render_summary: every value
/// is a pure function of campaign seed + plans, and the doubles are printed
/// with fixed precision so the CI determinism diff is byte-meaningful.
std::string render_sensor_summary(
    const Args& a, const EnvOptions& env,
    const std::vector<SensorFaultModel>& models,
    const std::vector<RunResult>& runs, std::size_t quarantined) {
  std::ostringstream out;
  out << "davcamp sensor campaign summary\n";
  out << "scenario=" << to_string(a.scenario) << " mode=" << to_string(a.mode)
      << " onset=" << env.sensor_onset_tick
      << " duration=" << env.sensor_duration_ticks << " models=";
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (i > 0) out << ",";
    out << to_string(models[i]);
  }
  out << "\n";
  const RecoverySummary rs = summarize_recovery(runs);
  char fixed[160];
  std::snprintf(fixed, sizeof(fixed),
                "mean_sensor_mttr_sec=%.3f mean_availability=%.4f",
                rs.mean_sensor_mttr_sec, rs.mean_availability);
  out << "total=" << rs.total
      << " sensor_degraded_runs=" << rs.sensor_degraded_runs
      << " sensor_episodes=" << rs.sensor_episodes
      << " sensor_rejoins=" << rs.sensor_rejoins
      << " hazard_after_degrade=" << rs.hazard_after_sensor_degrade
      << " escalated=" << rs.escalated_runs
      << " harness_errors=" << rs.harness_errors << "\n";
  out << fixed << "\n";
  out << "per-run outcomes:\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << "  run " << i << " model=" << to_string(runs[i].sensor_fault.model)
        << " seed=" << runs[i].run_seed
        << " outcome=" << to_string(runs[i].outcome)
        << " corruptions=" << runs[i].sensor_corruptions
        << " degraded_ticks=" << runs[i].recovery.sensor_degraded_ticks
        << "\n";
  }
  out << "quarantined=" << quarantined << "\n";
  return out.str();
}

/// The generated DAV_* reference (EnvOptions::docs()): the same definitions
/// the parser uses, so this table and the README one cannot drift from the
/// code.
void print_env_help() {
  std::printf("DAV_* environment variables (parsed by dav::EnvOptions):\n");
  int name_width = 0;
  for (const EnvOptions::VarDoc& d : EnvOptions::docs()) {
    name_width = std::max(name_width, static_cast<int>(std::strlen(d.name)));
  }
  for (const EnvOptions::VarDoc& d : EnvOptions::docs()) {
    std::printf("  %-*s default %-8s %s\n", name_width, d.name, d.fallback,
                d.summary);
  }
}

/// Executor telemetry: per-worker utilization, retries, journal traffic, and
/// a quarantine-reason histogram. Wall-clock data, so it goes to STDERR —
/// the published summary stays byte-deterministic for the CI resume diff.
void print_telemetry(const CampaignManager& mgr) {
  const ExecutorStats& s = mgr.executor_stats();
  std::fprintf(stderr,
               "davcamp executor telemetry (stderr only, nondeterministic)\n"
               "  workers=%d launched=%d retries=%d signal_deaths=%d "
               "timeouts=%d quarantined=%d\n"
               "  journal: hits=%d appends=%d bytes=%llu torn_bytes=%llu\n"
               "  wall=%.2fs\n",
               s.jobs, s.launched, s.retries, s.signal_deaths, s.timeouts,
               s.quarantined, s.journal_hits, s.journal_appends,
               static_cast<unsigned long long>(s.journal_bytes),
               static_cast<unsigned long long>(s.torn_bytes_discarded),
               s.wall_sec);
  if (s.pool_workers > 0) {
    std::fprintf(stderr, "  pool: workers=%d respawns=%d\n", s.pool_workers,
                 s.respawns);
  }
  // Fork-point store traffic, from whichever slot source consulted it (the
  // in-process slot's store counts too). Every capture, and so every
  // eviction, follows a lookup: a campaign that made none prints nothing.
  const std::uint64_t lookups = s.checkpoint_hits + s.checkpoint_misses;
  if (lookups > 0) {
    std::fprintf(stderr,
                 "  checkpoint: checkpoint_hits=%llu checkpoint_misses=%llu "
                 "checkpoint_evictions=%llu hit_rate=%.0f%%\n",
                 static_cast<unsigned long long>(s.checkpoint_hits),
                 static_cast<unsigned long long>(s.checkpoint_misses),
                 static_cast<unsigned long long>(s.checkpoint_evictions),
                 100.0 * static_cast<double>(s.checkpoint_hits) /
                     static_cast<double>(lookups));
  }
  for (std::size_t i = 0; i < s.slot_busy_sec.size(); ++i) {
    const double util =
        s.wall_sec > 0.0 ? 100.0 * s.slot_busy_sec[i] / s.wall_sec : 0.0;
    const int served = i < s.slot_runs_served.size()
                           ? s.slot_runs_served[i]
                           : 0;
    std::fprintf(stderr,
                 "  worker %zu: busy=%.2fs utilization=%.0f%% served=%d\n",
                 i, s.slot_busy_sec[i], util, served);
  }
  // Flight-recorder health + per-stage latency (eviction-proof histograms).
  // The drop count is load-bearing for CI: trace smoke fails when any run's
  // ring evicted events, so published traces are always complete.
  if (s.stage_hist.total_count() > 0 || s.trace_dropped > 0) {
    std::fprintf(stderr, "  trace: dropped_events=%llu\n",
                 static_cast<unsigned long long>(s.trace_dropped));
    for (std::size_t i = 0; i < s.stage_hist.stages.size(); ++i) {
      const obs::StageHistogram& h = s.stage_hist.stages[i];
      if (h.count() == 0) continue;
      std::fprintf(stderr,
                   "  stage %-14s n=%-7llu p50=%lluns p95=%lluns p99=%lluns\n",
                   to_string(static_cast<obs::Stage>(i)),
                   static_cast<unsigned long long>(h.count()),
                   static_cast<unsigned long long>(h.percentile_ns(50.0)),
                   static_cast<unsigned long long>(h.percentile_ns(95.0)),
                   static_cast<unsigned long long>(h.percentile_ns(99.0)));
    }
  }
  // Quarantine reasons, deduplicated into a histogram.
  std::map<std::string, int> reasons;
  for (const auto& q : mgr.quarantined()) ++reasons[q.what];
  for (const auto& [what, n] : reasons) {
    std::fprintf(stderr, "  quarantine x%d: %s\n", n, what.c_str());
  }
}

void publish(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return;
  }
  // Temp file + rename: a davcamp killed mid-write leaves the old summary
  // or none, never a torn one.
  obs::write_text_file(path, text);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.env_help) {
      print_env_help();
      return 0;
    }
    const EnvOptions env = EnvOptions::from_env();
    CampaignManager mgr(env, /*seed=*/2022);
    std::string text;
    if (a.faults != Args::Faults::kSensor) {
      const std::vector<RunResult> golden =
          mgr.golden(a.scenario, a.mode, mgr.scale().golden_runs);
      const Trajectory baseline = golden_baseline(golden);
      const std::vector<RunResult> runs =
          mgr.fi_campaign(a.scenario, a.mode, a.domain, a.kind);
      const CampaignSummary s = summarize_campaign(runs, baseline, a.td);
      text += render_summary(a, s, runs, mgr.quarantined());
    }
    if (a.faults != Args::Faults::kRegister) {
      const std::vector<SensorFaultModel> models =
          env.sensor_faults.empty() ? all_sensor_fault_models()
                                    : env.sensor_faults;
      // Restart-recovery arms the platform sensor monitor alongside fusion;
      // single mode has no replica, so it keeps the safe-stop baseline.
      MitigationSetup mit;
      mit.policy = a.mode == AgentMode::kSingle
                       ? MitigationPolicy::kSafeStopOnly
                       : MitigationPolicy::kRestartRecovery;
      const std::size_t quarantined_before = mgr.quarantined().size();
      const std::vector<RunResult> runs = mgr.sensor_fi_campaign(
          a.scenario, a.mode, models, /*runs_per_model=*/0,
          env.sensor_onset_tick, env.sensor_duration_ticks, &mit);
      text += render_sensor_summary(
          a, env, models, runs,
          mgr.quarantined().size() - quarantined_before);
    }
    publish(a.out, text);
    print_telemetry(mgr);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
