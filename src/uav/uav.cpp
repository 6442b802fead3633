#include "uav/uav.h"

#include <algorithm>
#include <cmath>

#include "agent/calc.h"
#include "agent/warmup.h"

namespace dav::uav {

UavState step_uav(const UavState& s, const UavCommand& cmd_in,
                  const UavParams& p, double wind_accel, double dt) {
  UavCommand cmd;
  cmd.thrust = clamp(cmd_in.thrust, 0.0, 1.0);
  cmd.pitch = clamp(cmd_in.pitch, -1.0, 1.0);
  UavState n = s;
  // Thrust above/below the hover point accelerates vertically.
  const double az =
      (cmd.thrust - 0.5) * 2.0 * p.max_climb_accel - p.drag_z * s.vz -
      wind_accel;
  const double ax = cmd.pitch * p.max_fwd_accel - p.drag_x * s.vx;
  n.vz = s.vz + az * dt;
  n.vx = s.vx + ax * dt;
  n.z = std::max(0.0, s.z + 0.5 * (s.vz + n.vz) * dt);
  // z is clamped to exactly 0.0 by the std::max above, so the compare is
  // a ground-contact flag, not arithmetic.
  if (n.z == 0.0 && n.vz < 0.0) n.vz = 0.0;  // on the ground. davlint: allow(float-eq)
  n.x = s.x + 0.5 * (s.vx + n.vx) * dt;
  return n;
}

double UavMission::ref_altitude(double x, double t) const {
  // Climb during the first quarter of the mission; descend past the
  // out-distance; cruise in between.
  const double climb_time = duration_sec * 0.2;
  if (t < climb_time) return cruise_alt * (t / climb_time);
  if (x > out_distance) {
    const double gone = x - out_distance;
    return std::max(2.0, cruise_alt - gone * 0.4);
  }
  return cruise_alt;
}

double WindGust::accel_at(double t) const {
  const double u = (t - t_start) / duration;
  if (u < 0.0 || u > 1.0) return 0.0;
  return peak_accel * (1.0 - std::abs(2.0 * u - 1.0));  // triangular pulse
}

UavSensorSample sample_uav_sensors(const UavState& s, Rng& noise) {
  UavSensorSample out;
  out.baro_alt = static_cast<float>(s.z + noise.normal(0.0, 0.12));
  out.climb_rate = static_cast<float>(s.vz + noise.normal(0.0, 0.05));
  out.gps_x = static_cast<float>(s.x + noise.normal(0.0, 0.2));
  out.gps_vx = static_cast<float>(s.vx + noise.normal(0.0, 0.06));
  return out;
}

UavAgent::UavAgent(CpuEngine& engine, UavMission mission)
    : eng_(engine), mission_(mission) {}

UavCommand UavAgent::act(const UavSensorSample& s, double t, double dt) {
  // Live-seeded housekeeping gain, as in the car agent.
  const double gain =
      cpu_isa_warmup(eng_, s.baro_alt + 0.173 * s.gps_x + 0.031 * t);
  CpuCalc c(eng_);
  c.call();
  if (first_) {
    first_ = false;
    thrust_ema_ = 0.5;
  }

  // Altitude loop: PI on (ref - baro) plus climb-rate damping.
  const double ref = mission_.ref_altitude(s.gps_x, t);
  const double err = c.sub(c.mul(ref, gain), c.load(s.baro_alt));
  alt_integral_ = c.clamp(c.fma(err, dt, c.load(alt_integral_)), -6.0, 6.0);
  c.store();
  const double thrust_raw = c.clamp(
      c.add(0.5, c.fma(0.09, err,
                       c.fma(0.012, alt_integral_,
                             c.mul(-0.10, c.load(s.climb_rate))))),
      0.0, 1.0);
  thrust_ema_ = c.fma(0.6, c.sub(thrust_raw, thrust_ema_), c.load(thrust_ema_));
  c.store();

  // Forward-speed loop: P control toward the cruise speed, ramped to zero
  // over the approach (a hard switch would flip on sensor noise and inject
  // gratuitous divergence between replicas).
  const double approach = c.clamp(
      c.div(c.sub(mission_.out_distance + 70.0, c.load(s.gps_x)), 40.0), 0.0,
      1.0);
  const double v_ref = c.mul(mission_.cruise_speed, approach);
  const double v_err = c.sub(c.mul(v_ref, gain), c.load(s.gps_vx));
  const double pitch_raw = c.clamp(c.mul(0.35, v_err), -1.0, 1.0);
  pitch_ema_ = c.fma(0.5, c.sub(pitch_raw, pitch_ema_), c.load(pitch_ema_));
  c.store();
  c.ret();

  return {clamp(thrust_ema_, 0.0, 1.0), clamp(pitch_ema_, -1.0, 1.0)};
}

UavRunResult run_uav_experiment(const UavRunConfig& cfg) {
  UavRunResult result;
  Rng seeder(cfg.run_seed);
  Rng noise = seeder.split(1);

  CpuEngine cpu0;
  CpuEngine cpu1;
  cpu0.configure(cfg.fault, seeder.split(2)(),
                 CrashHangModel::for_model(FaultDomain::kCpu, cfg.fault.kind));
  cpu1.configure({}, 0);

  UavAgent agent0(cpu0, cfg.mission);
  // DiverseAV time-multiplexes both replicas on the shared engine; the FD
  // baseline gives the replica its own clean engine.
  UavAgent agent1(cfg.mode == AgentMode::kDuplicate ? cpu1 : cpu0,
                  cfg.mission);
  SensorDataDistributor distributor(cfg.mode);

  UavState state;
  UavParams params;
  WindGust gust;
  UavCommand last;
  bool prev_valid = false;
  UavCommand prev;
  const int steps = static_cast<int>(cfg.mission.duration_sec / cfg.dt);
  for (int step = 0; step < steps; ++step) {
    const double t = step * cfg.dt;
    const UavSensorSample sensors = sample_uav_sensors(state, noise);
    UavCommand cmd = last;
    bool have_pair = false;
    UavCommand other;
    try {
      const auto disp = distributor.dispatch(step);
      const double agent_dt = cfg.dt * distributor.agent_period();
      switch (cfg.mode) {
        case AgentMode::kSingle:
          cmd = agent0.act(sensors, t, agent_dt);
          if (prev_valid) {
            have_pair = true;
            other = prev;
          }
          break;
        case AgentMode::kRoundRobin:
          cmd = disp.acting_agent == 0 ? agent0.act(sensors, t, agent_dt)
                                       : agent1.act(sensors, t, agent_dt);
          if (prev_valid) {
            have_pair = true;
            other = prev;
          }
          break;
        case AgentMode::kDuplicate: {
          cmd = agent0.act(sensors, t, agent_dt);
          other = agent1.act(sensors, t, agent_dt);
          have_pair = true;
          break;
        }
      }
    } catch (const CrashError&) {
      result.due = true;
      break;
    } catch (const HangError&) {
      result.due = true;
      break;
    }
    if (!std::isfinite(cmd.thrust) || !std::isfinite(cmd.pitch)) {
      result.due = true;  // output validator
      break;
    }
    prev = cmd;
    prev_valid = true;

    if (have_pair) {
      StepObservation obs;
      obs.time = t;
      // Map the UAV state onto the detector's vehicle-state axes:
      // forward speed/accel index the thrust channel thresholds.
      obs.state.v = state.vx;
      obs.state.a = 0.0;
      obs.state.omega = clamp(state.vz * 0.05, -0.55, 0.55);
      obs.state.alpha = 0.0;
      obs.delta = {std::abs(cmd.thrust - other.thrust), 0.0,
                   std::abs(cmd.pitch - other.pitch)};
      result.observations.push_back(obs);
    }

    state = step_uav(state, cmd, params, gust.accel_at(t), cfg.dt);
    last = cmd;
    result.altitude_trace.push_back(state.z);
    const double ref = cfg.mission.ref_altitude(state.x, t);
    result.max_alt_error =
        std::max(result.max_alt_error, std::abs(state.z - ref));
    // Ground impact outside the landing zone (past the out distance the
    // mission intends to descend).
    if (t > 3.0 && state.z <= 0.01 && state.x < cfg.mission.out_distance) {
      result.crashed = true;
      result.crash_time = t;
      break;
    }
  }
  return result;
}

}  // namespace dav::uav
