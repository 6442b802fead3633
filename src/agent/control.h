// CPU-side control: high-level route planner, waypoint tracker and PID
// control unit (the paper's agent "uses the CPU for loading and setting" —
// the lightweight glue around the GPU pipeline). All arithmetic runs on the
// instrumented CPU engine; PID integrators and smoothing filters are
// persistent private state.
#pragma once

#include <cstddef>

#include "agent/waypoint_head.h"
#include "fi/engine.h"
#include "sim/road.h"
#include "sim/types.h"

namespace dav {

/// High-level route planner: dead-reckons route progress from measured speed
/// and yields the cruise set-point = min(mission speed, local speed limit,
/// curvature-limited cornering speed over a lookahead horizon) — the map-
/// based speed planning a real ADS performs.
class RoutePlanner {
 public:
  RoutePlanner(CpuEngine& eng, const RoadMap* map, double mission_speed,
               double start_s = 0.0);

  double plan_cruise(double v_meas, double dt);
  double progress() const { return s_est_; }
  /// Resync hook: adopt the dead-reckoned progress of the healthy replica.
  void restore_progress(double s) { s_est_ = s; }

 private:
  CpuEngine& eng_;
  const RoadMap* map_;
  double mission_speed_;
  // Nothing reads it, but it is part of sizeof(SensorimotorAgent), which
  // state_bytes() reports in every RunResult: dropping it changes results.
  [[maybe_unused]] double start_s_;
  double s_est_ = 0.0;  // persistent dead-reckoned progress
  double lat_accel_max_ = 2.3;  // m/s^2 comfort cornering envelope
};

struct ControlConfig {
  double kp_speed = 0.38;
  double ki_speed = 0.07;
  double kb_speed = 0.42;      // braking proportional gain
  double integral_limit = 2.0;
  double wheelbase = 2.7;
  double max_steer_angle = 0.5;
  double steer_smooth = 0.4;   // EMA factor on the steering command
  double pedal_smooth = 0.35;  // EMA factor on throttle/brake commands
  double wp_dt = 0.5;          // must match WaypointHeadConfig::wp_dt
};

/// The persistent tracker/PID state of one ControlUnit — everything a
/// restarted replica needs to resynchronize from its healthy peer.
struct ControlSnapshot {
  double integral = 0.0;
  double steer_ema = 0.0;
  double throttle_ema = 0.0;
  double brake_ema = 0.0;
  double prev_v_tgt = 0.0;
  bool first_step = true;
  bool stopped = false;
};

/// Waypoint tracker + PID: decodes target speed from waypoint spacing, runs a
/// PI speed loop and pure-pursuit steering on the chosen waypoint.
class ControlUnit {
 public:
  ControlUnit(CpuEngine& eng, ControlConfig cfg);

  Actuation act(const Waypoints& wps, double v_meas, double dt,
                double cpu_gain);
  ControlSnapshot snapshot() const;
  void restore(const ControlSnapshot& s);
  std::size_t state_bytes() const { return sizeof(*this); }

 private:
  CpuEngine& eng_;
  ControlConfig cfg_;
  // Persistent private state.
  double integral_ = 0.0;
  double steer_ema_ = 0.0;
  double throttle_ema_ = 0.0;
  double brake_ema_ = 0.0;
  double prev_v_tgt_ = 0.0;
  bool first_step_ = true;
  bool stopped_ = false;  // standstill latch (hold brake, park steering)
};

}  // namespace dav
