// Typed façade over every DAV_* environment variable.
//
// The campaign layer grew one ad-hoc getenv per knob (scale, executor
// routing, trace opt-in); each parsed its variable with its own lenient
// rules, so a typo like DAV_JOBS=fuor silently ran serial. EnvOptions is the
// single place the process environment is read: from_env() parses and
// validates ALL DAV_* variables with actionable errors and rejects DAV_*
// names it does not know, and everything downstream (CampaignScale sizing,
// ExecutorOptions routing, TraceOptions opt-in, CampaignManager
// construction) consumes the struct — never the environment. A davlint rule (env-read) bans std::getenv outside
// env_options.cpp, so the façade cannot rot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/executor.h"
#include "fi/sensor_fault.h"
#include "util/trace.h"

namespace dav {

struct CampaignScale;  // campaign.h (env_options.cpp sees the full type)

struct EnvOptions {
  // --- campaign sizing (DAV_SCALE) ----------------------------------------
  /// Multiplier on the campaign run counts; 1.0 is the paper-shaped default
  /// structure at simulation scale.
  double scale = 1.0;

  // --- campaign executor (executor.h) -------------------------------------
  /// Worker processes (DAV_JOBS): 0 runs campaigns in this process, N in a
  /// prefork pool of N sandboxed workers.
  int jobs = 0;
  /// Fork-point checkpoint sharing (DAV_CHECKPOINT): capture a RunCheckpoint
  /// at each run's injection onset and restore it for fault variants sharing
  /// the fault-free prefix. Never changes results.
  bool checkpoint = false;
  /// Write-ahead journal path (DAV_JOURNAL); empty disables journaling.
  std::string journal_path;
  /// Wall-clock watchdog per run attempt, seconds (DAV_RUN_TIMEOUT_SEC).
  double run_timeout_sec = 600.0;
  /// Retries for a quarantined run before the final kHarnessError
  /// (DAV_RUN_RETRIES).
  int run_retries = 1;
  /// RLIMIT_CPU per worker, seconds; 0 disables (DAV_RUN_CPU_SEC).
  double run_cpu_sec = 0.0;
  /// RLIMIT_AS per worker, MiB; 0 disables (DAV_RUN_AS_MB).
  std::size_t run_as_mb = 0;

  // --- sensor-path fault injection (fi/sensor_fault.h) ---------------------
  /// Models swept by `davcamp --faults=sensor` (DAV_SENSOR_FAULTS: comma-
  /// separated canonical names, or "all"). Empty selects every model.
  std::vector<SensorFaultModel> sensor_faults;
  /// Tick the swept sensor faults switch on (DAV_SENSOR_ONSET_TICK).
  int sensor_onset_tick = 40;
  /// How many ticks the swept faults stay active (DAV_SENSOR_DURATION_TICKS).
  int sensor_duration_ticks = 80;

  // --- flight recorder (util/trace.h) --------------------------------------
  /// Trace output directory (DAV_TRACE); empty disables tracing.
  std::string trace_dir;

  /// THE env-reading entry point: parses and validates every DAV_* variable.
  /// Unset variables keep the defaults above. Throws std::invalid_argument
  /// naming the variable and the offending value on malformed input, and
  /// naming the variable when a DAV_* name is not one docs() lists.
  static EnvOptions from_env();

  /// The compiled-in defaults, untouched by the environment (what a
  /// default-constructed EnvOptions holds; spelled out for call sites that
  /// want to say "no environment" explicitly).
  static EnvOptions defaults() { return EnvOptions{}; }

  /// Throws std::invalid_argument on nonsensical values (also called by
  /// from_env after parsing).
  void validate() const;

  // --- projections consumed by the subsystems -----------------------------
  /// Campaign sizing with `scale` applied (same floors as the historic
  /// DAV_SCALE handling, so existing campaigns reproduce exactly).
  CampaignScale campaign_scale() const;
  /// Executor routing: jobs/checkpointing/journal/rlimits. The caller
  /// stamps campaign_fingerprint before use.
  ExecutorOptions executor_options() const;
  /// Flight-recorder opt-in for RunConfig::trace.
  obs::TraceOptions trace_options() const;

  /// One documented knob; docs() drives the README env-var table and
  /// `davcamp --env-help`, so the docs cannot drift from the parser.
  struct VarDoc {
    const char* name;
    const char* fallback;  // rendered default
    const char* summary;
  };
  static const std::vector<VarDoc>& docs();
};

}  // namespace dav
