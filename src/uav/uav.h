// UAV extension (paper §VIII future work: "explore the efficacy of DiverseAV
// in other dynamical systems such as unmanned aerial vehicles").
//
// A longitudinal-plane quadrotor: altitude + forward velocity control with a
// mission profile (climb, cruise, descend) and scripted wind gusts. The agent
// is a pure CPU-engine workload (PID loops over noisy baro/GPS samples),
// which complements the car agent's GPU-heavy profile: here CPU faults are
// the SDC source. The DiverseAV core (distributor, divergence signal,
// threshold LUT, detector) is reused unchanged — commands map onto the
// generic actuation channels (thrust -> throttle, pitch -> steer).
#pragma once

#include <cstdint>
#include <vector>

#include "core/detector.h"
#include "core/distributor.h"
#include "fi/engine.h"
#include "util/rng.h"

namespace dav::uav {

struct UavState {
  double z = 0.0;   // altitude, m
  double vz = 0.0;  // climb rate, m/s
  double x = 0.0;   // along-track position, m
  double vx = 0.0;  // forward speed, m/s
};

/// Normalized commands: thrust in [0,1] (hover ~0.5), pitch in [-1,1].
struct UavCommand {
  double thrust = 0.5;
  double pitch = 0.0;
};

struct UavParams {
  double max_climb_accel = 6.0;   // m/s^2 at full minus hover thrust
  double max_fwd_accel = 3.0;     // m/s^2 at full pitch
  double drag_z = 0.6;            // 1/s
  double drag_x = 0.25;           // 1/s
};

/// One physics tick, including the current vertical wind disturbance (m/s^2).
UavState step_uav(const UavState& s, const UavCommand& cmd,
                  const UavParams& p, double wind_accel, double dt);

/// Mission profile: climb to cruise altitude, fly out, descend to land.
struct UavMission {
  double cruise_alt = 30.0;     // m
  double cruise_speed = 12.0;   // m/s
  double out_distance = 250.0;  // start descending past this along-track x
  double duration_sec = 40.0;

  double ref_altitude(double x, double t) const;
};

/// Scripted vertical gust (triangular pulse).
struct WindGust {
  double t_start = 12.0;
  double duration = 3.0;
  double peak_accel = 2.5;  // m/s^2 downward

  double accel_at(double t) const;
};

/// Noisy sensor sample (float32, as in the paper's bit-diversity analysis).
struct UavSensorSample {
  float baro_alt = 0.0f;
  float climb_rate = 0.0f;
  float gps_x = 0.0f;
  float gps_vx = 0.0f;
};

UavSensorSample sample_uav_sensors(const UavState& s, Rng& noise);

/// PID flight controller on the instrumented CPU engine; private integrator
/// and filter state per replica.
class UavAgent {
 public:
  UavAgent(CpuEngine& engine, UavMission mission);

  UavCommand act(const UavSensorSample& sensors, double t, double dt);

 private:
  CpuEngine& eng_;
  UavMission mission_;
  double alt_integral_ = 0.0;
  double thrust_ema_ = 0.5;
  double pitch_ema_ = 0.0;
  bool first_ = true;
};

/// One closed-loop UAV experiment under the given agent mode and fault.
struct UavRunResult {
  bool crashed = false;           // ground impact away from the landing zone
  double crash_time = -1.0;
  double max_alt_error = 0.0;     // vs the mission reference
  bool due = false;               // engine crash/hang (platform-detected)
  std::vector<StepObservation> observations;  // divergence stream
  std::vector<double> altitude_trace;
};

struct UavRunConfig {
  AgentMode mode = AgentMode::kRoundRobin;
  FaultPlan fault;
  std::uint64_t run_seed = 1;
  double dt = 0.05;
  UavMission mission;
};

UavRunResult run_uav_experiment(const UavRunConfig& cfg);

}  // namespace dav::uav
