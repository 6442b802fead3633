// The Sensorimotor agent facade (paper §IV-A): High-level Route Planner +
// CNN perception/waypoint head (GPU engine) + Waypoint Tracker and PID
// Control Unit (CPU engine). The agent is a black box to the rest of the
// system: sensor frames in, actuation commands out — which is what makes
// DiverseAV a plug-and-play wrapper (paper §III-A).
#pragma once

#include <cstddef>
#include <string>

#include "agent/control.h"
#include "agent/perception.h"
#include "agent/waypoint_head.h"
#include "sensors/sensor_health.h"
#include "sensors/sensor_rig.h"

namespace dav {

/// Fail-degraded multi-sensor fusion (DESIGN.md §14.2). Off by default: the
/// classic Sensorimotor agent trusts every sensor unconditionally and its
/// byte-exact behavior is pinned by golden tests. When enabled, the agent
/// runs a SensorHealthMonitor over its input frames, down-weights implausible
/// channels, covers a lost camera with the LiDAR forward corridor, holds the
/// last plausible speed through a GPS outage, and limps at min_cruise_mps
/// when every ranging source is gone.
struct FusionConfig {
  bool enabled = false;
  SensorHealthConfig health;
  /// Half-angle of the forward LiDAR corridor that substitutes for camera
  /// ranging (beam 0 is ego-forward).
  double lidar_corridor_half_deg = 6.0;
  /// Cruise ceiling once no sensor can bound the obstacle distance.
  double min_cruise_mps = 2.0;
};

struct AgentConfig {
  PerceptionConfig perception;
  WaypointHeadConfig head;
  ControlConfig control;
  FusionConfig fusion;
  double mission_speed = 10.0;  // route cruise set-point
  double route_start_s = 0.0;   // initial localization along the route
};

/// Full private state of a Sensorimotor agent (perception filters, planner
/// progress, tracker/PID state). Captured from the healthy replica and
/// restored into a freshly constructed one during fault recovery, so the
/// restarted agent rejoins with semantically consistent state instead of
/// cold-start transients (which would look like divergence to the detector).
struct AgentSnapshot {
  PerceptionSnapshot perception;
  double planner_progress = 0.0;
  ControlSnapshot control;
  int steps = 0;
  // Fusion-mode state (inert when fusion is disabled).
  SensorHealthSnapshot sensor_health;
  double v_held = 0.0;
};

/// Mid-run agent state for checkpoint capture/adopt: the recovery-resync
/// snapshot plus the fusion monitor's full check buffers (AgentSnapshot
/// carries only the ladder and lets transients re-prime — fine for a
/// restarted replica, not for a byte-exact resume).
struct AgentCheckpoint {
  AgentSnapshot snapshot;
  SensorHealthMonitor::State health;
  // Perception scratch-tensor footprint: pure accounting, but it feeds
  // RunResult::agent_state_bytes, and an agent parked by recovery keeps its
  // last value without ever rebuilding masks after a resume.
  std::size_t perception_scratch = 0;
};

class SensorimotorAgent {
 public:
  /// The engines are the (possibly shared) compute fabric: DiverseAV
  /// time-multiplexes both agents on the same engines; the FD baseline gives
  /// each agent dedicated engines.
  SensorimotorAgent(std::string name, AgentConfig cfg, GpuEngine& gpu,
                    CpuEngine& cpu, const RoadMap* map);

  /// One control step: frame in, actuation out. `dt` is the time since this
  /// agent's previous frame (2x the world tick in round-robin mode).
  /// Propagates CrashError / HangError from the engines.
  Actuation act(const SensorFrame& frame, double dt);

  /// Capture / adopt the agent's private state (fault-recovery resync).
  AgentSnapshot snapshot() const;
  void restore(const AgentSnapshot& s);

  /// Byte-exact mid-run capture / adopt (campaign checkpoints).
  AgentCheckpoint capture() const;
  void adopt(const AgentCheckpoint& c);

  /// Route tensor bit-flip injection into this agent's perception state
  /// (SensorFaultModel::kTensorBitFlip). Non-owning; nullptr detaches.
  void attach_sensor_fault_injector(SensorFaultInjector* injector) {
    perception_.attach_fault_injector(injector);
  }

  /// Live per-channel health, meaningful only when fusion is enabled.
  const SensorHealthMonitor& sensor_health() const { return health_; }

  /// Re-run the per-ISA warmup kernels once, seeded from live state. Called
  /// after a fault-recovery restart: it re-establishes the housekeeping
  /// pipeline and — crucially — gives a permanent fault an immediate chance
  /// to re-manifest (CrashError/HangError propagate), which is how the
  /// recovery manager distinguishes transient from permanent faults.
  void rewarm();

  const std::string& name() const { return name_; }
  const PerceptionOutput& last_perception() const { return last_perception_; }
  const Waypoints& last_waypoints() const { return last_waypoints_; }
  int steps_executed() const { return steps_; }

  /// Private state footprint (resource accounting, Table II: DiverseAV and FD
  /// double memory because each agent keeps independent state).
  std::size_t state_bytes() const;

 private:
  Actuation act_fused(const SensorFrame& frame, double dt);

  std::string name_;
  AgentConfig cfg_;
  GpuEngine& gpu_;
  CpuEngine& cpu_;
  Perception perception_;
  RoutePlanner planner_;
  ControlUnit control_;
  PerceptionOutput last_perception_;
  Waypoints last_waypoints_;
  int steps_ = 0;
  // Fusion mode only: per-channel plausibility and the held speed estimate
  // that bridges GPS outages.
  SensorHealthMonitor health_;
  double v_held_ = 0.0;
};

}  // namespace dav
