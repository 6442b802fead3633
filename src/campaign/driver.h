// The Driver (paper Fig 3): executes one experiment — world + sensors +
// (possibly fault-injected) ADS — and collects the run record.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ads_system.h"
#include "core/detector.h"
#include "core/recovery.h"
#include "fi/fault_model.h"
#include "fi/sensor_fault.h"
#include "util/trace.h"
#include "sim/world.h"

namespace dav {

class CheckpointStore;  // campaign/checkpoint.h

/// Fork-point checkpointing knobs (DESIGN.md §16). `capture_tick` pins the
/// fork tick explicitly; -1 derives it from the sensor-fault onset
/// (fork_tick in campaign/checkpoint.h).
struct CheckpointOptions {
  bool enabled = false;
  int capture_tick = -1;
};

/// What the platform does once a fault is detected in-run (paper §I, §VII).
enum class MitigationPolicy : std::uint8_t {
  /// The paper's baseline failback: any DUE (and, when the online detector
  /// is enabled, any alarm) brings the vehicle to a safe stop.
  kSafeStopOnly,
  /// DiverseAV's closed loop: identify the faulty agent (arbitration probe),
  /// restart it, run degraded single-agent mode while it re-warms, and
  /// escalate to the safe stop only on presumed-permanent faults.
  kRestartRecovery,
};

std::string to_string(MitigationPolicy p);

struct RunConfig {
  ScenarioId scenario = ScenarioId::kLeadSlowdown;
  std::uint64_t scenario_seed = 2022;  // fixes background traffic per scenario
  ScenarioOptions scenario_opts;
  AgentMode mode = AgentMode::kRoundRobin;
  double overlap_ratio = 0.0;     // partial duplication (paper footnote 5)
  FaultPlan fault;                // kind == kNone for golden runs
  /// Sensor-path injection (fi/sensor_fault.h), orthogonal to the register
  /// plan above: a campaign can sweep either surface or both. Inactive plans
  /// leave the run byte-identical to pre-sensor-fault behavior (pinned).
  SensorFaultPlan sensor_fault;
  /// Fail-degraded fusion (agent/agent.h). Enabling it also turns on LiDAR
  /// capture — the covering channel fusion degrades onto.
  FusionConfig fusion;
  std::uint64_t run_seed = 1;     // per-run nondeterminism (sensor noise,
                                  // fault-manifestation draws)
  double dt = 0.05;               // 20 Hz synchronous tick (the paper runs
                                  // 40 Hz; 20 Hz halves compute per run and
                                  // scales rw semantics accordingly)
  int cam_width = 96;
  int cam_height = 72;
  double camera_noise_sigma = 2.0;
  bool record_traces = false;     // keep throttle/CVIP/agent series (Fig 2)
  double watchdog_sec = 0.5;      // hang detection latency
  /// Platform "vehicle stuck" watchdog: a DUE is raised when the ego sits
  /// stationary this long with no vehicle ahead and no red light — the
  /// behavioral analogue of a hung agent process. Non-positive disables it.
  double stuck_watchdog_sec = 8.0;

  /// Online error detection: a trained LUT (non-null enables it) stepped
  /// INSIDE the loop, so alarms fire in-run instead of in offline replay.
  /// The caller owns the LUT; it must outlive run_experiment.
  const ThresholdLut* online_lut = nullptr;
  DetectorConfig online_detector;

  /// What to do when the platform or the online detector raises an alarm.
  MitigationPolicy mitigation = MitigationPolicy::kSafeStopOnly;
  RecoveryConfig recovery;  // used when mitigation == kRestartRecovery

  /// Flight recorder (src/obs/): when enabled, run_experiment installs a
  /// TraceRecorder for the run and exports Chrome-trace JSON at run end.
  /// Deliberately EXCLUDED from run_config_digest — tracing never affects
  /// the run outcome, so journaled records stay replayable whether or not
  /// the campaign was traced.
  obs::TraceOptions trace;

  /// Fork-point checkpointing (campaign/checkpoint.h): when enabled and a
  /// CheckpointStore is supplied, run_experiment snapshots the full run state
  /// at the fork tick and restores a stored prefix instead of re-simulating
  /// it. Like `trace`, EXCLUDED from run_config_digest — checkpointing never
  /// changes a run's outcome (pinned byte-identical), so journal keys and
  /// replay stay valid whether or not the campaign checkpointed.
  CheckpointOptions checkpoint;

  /// Fail fast on nonsensical parameters (throws std::invalid_argument with
  /// an actionable message). Called by run_experiment.
  void validate() const;
};

/// Everything recorded about one experimental run.
struct RunResult {
  ScenarioId scenario = ScenarioId::kLeadSlowdown;
  AgentMode mode = AgentMode::kRoundRobin;
  FaultPlan fault;
  /// The sensor-path plan this run executed (inactive for register-only and
  /// golden runs) and how many elements it actually corrupted.
  SensorFaultPlan sensor_fault;
  std::uint64_t sensor_corruptions = 0;
  std::uint64_t run_seed = 0;

  FaultOutcome outcome = FaultOutcome::kNotActivated;
  bool fault_activated = false;

  bool collision = false;
  double collision_time = -1.0;
  SafetyFlags flags;
  Trajectory trajectory;
  double duration = 0.0;
  /// The scenario's scheduled duration — the denominator of availability
  /// (a safe-stopped run forfeits its remaining mission time).
  double scheduled_duration = 0.0;
  double dt = 0.05;  // tick length (maps trajectory indices to time)
  int steps = 0;

  /// Platform-detected DUE (crash caught / watchdog hang / rejected output).
  bool due = false;
  double due_time = -1.0;
  DueSource due_source = DueSource::kNone;

  /// Online detector verdict (only when RunConfig::online_lut was set).
  bool online_alarmed = false;
  double online_alarm_time = -1.0;

  /// Mitigation bookkeeping: restarts, MTTR timestamps, tick census.
  MitigationStats recovery;

  /// The comparison stream for the error detector (always recorded; the
  /// detector itself is evaluated offline so rw/td can be swept).
  std::vector<StepObservation> observations;

  /// Optional detailed traces (record_traces).
  std::vector<double> time_trace;
  std::vector<double> throttle_trace;
  std::vector<double> brake_trace;
  std::vector<double> steer_trace;
  std::vector<double> cvip_trace;
  std::vector<int> acting_agent_trace;

  /// Resource accounting.
  std::uint64_t gpu_instructions = 0;  // summed across engine sets
  std::uint64_t cpu_instructions = 0;
  std::size_t agent_state_bytes = 0;
  std::size_t sensor_frame_bytes = 0;
};

RunResult run_experiment(const RunConfig& cfg);

/// run_experiment with an optional checkpoint store (nullptr = always cold).
/// Persistent pool workers pass their store: when cfg.checkpoint.enabled, a
/// run restores a stored fault-free prefix it shares with an earlier sibling
/// and simulates only the post-injection suffix, and stores its own clean
/// prefix at the fork tick. Results are bit-identical either way (pinned by
/// test_executor / test_checkpoint).
RunResult run_experiment(const RunConfig& cfg, CheckpointStore* store);

}  // namespace dav
