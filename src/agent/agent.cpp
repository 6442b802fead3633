#include "agent/agent.h"

#include <algorithm>
#include <cmath>

#include "agent/warmup.h"
#include "util/trace.h"

namespace dav {
namespace {

/// Minimum valid return inside the forward corridor (beam 0 is ego-forward,
/// beam i sits at i * 360/n degrees). Dropout zeros and ~max_range misses
/// are excluded; 200 m (perception's "nothing seen") when no beam qualifies.
double lidar_forward_min(const std::vector<float>& ranges, double half_deg) {
  const int n = static_cast<int>(ranges.size());
  if (n == 0) return 200.0;
  const double step_deg = 360.0 / n;
  double best = 200.0;
  for (int i = 0; i < n; ++i) {
    const double deg = (i <= n / 2) ? i * step_deg : (i - n) * step_deg;
    if (std::abs(deg) > half_deg) continue;
    const double r = ranges[static_cast<std::size_t>(i)];
    if (r > 0.3 && r < 76.0 && r < best) best = r;
  }
  return best;
}

}  // namespace

SensorimotorAgent::SensorimotorAgent(std::string name, AgentConfig cfg,
                                     GpuEngine& gpu, CpuEngine& cpu,
                                     const RoadMap* map)
    : name_(std::move(name)),
      cfg_(cfg),
      gpu_(gpu),
      cpu_(cpu),
      perception_(gpu, cfg.perception),
      planner_(cpu, map, cfg.mission_speed, cfg.route_start_s),
      control_(cpu, cfg.control),
      health_(cfg.fusion.health) {}

AgentSnapshot SensorimotorAgent::snapshot() const {
  AgentSnapshot s;
  s.perception = perception_.snapshot();
  s.planner_progress = planner_.progress();
  s.control = control_.snapshot();
  s.steps = steps_;
  s.sensor_health = health_.snapshot();
  s.v_held = v_held_;
  return s;
}

void SensorimotorAgent::restore(const AgentSnapshot& s) {
  perception_.restore(s.perception);
  planner_.restore_progress(s.planner_progress);
  control_.restore(s.control);
  steps_ = s.steps;
  health_.restore(s.sensor_health);
  v_held_ = s.v_held;
}

AgentCheckpoint SensorimotorAgent::capture() const {
  return {snapshot(), health_.capture(), perception_.scratch_footprint()};
}

void SensorimotorAgent::adopt(const AgentCheckpoint& c) {
  restore(c.snapshot);
  // restore() re-primes the monitor's transient buffers; a byte-exact resume
  // puts the captured ones back.
  health_.adopt(c.health);
  perception_.set_scratch_footprint(c.perception_scratch);
}

void SensorimotorAgent::rewarm() {
  // Seed both warmup kernels from live private state (filter contents and
  // step parity), not constants: a permanent fault corrupting the warmup
  // chain then produces agent-dependent garbage, exactly as in the per-frame
  // housekeeping path.
  const AgentSnapshot s = snapshot();
  gpu_isa_warmup(gpu_, static_cast<float>(s.perception.obstacle_ema) +
                           0.013f * static_cast<float>(steps_));
  cpu_isa_warmup(cpu_, s.planner_progress + 0.173 * s.control.prev_v_tgt +
                           0.031 * steps_);
}

Actuation SensorimotorAgent::act(const SensorFrame& frame, double dt) {
  if (cfg_.fusion.enabled) return act_fused(frame, dt);
  // Obs track = agent index (derived from the name, "agent0"/"agent1"), so
  // the two diverse agents land on separate Perfetto threads.
  const int track = (!name_.empty() && name_.back() == '1') ? 1 : 0;
  const obs::SpanScope act_span(obs::Stage::kAgentAct, track);
  const double v_meas = frame.gps_imu.speed;
  // Live seed for the CPU housekeeping chain (noisy measurements differ at
  // the bit level between the agents' frames).
  const double cpu_gain = cpu_isa_warmup(
      cpu_, v_meas + 0.173 * frame.gps_imu.gps_x + 0.031 * steps_);
  double cruise = 0.0;
  {
    const obs::SpanScope span(obs::Stage::kPlanner, track);
    cruise = planner_.plan_cruise(v_meas, dt);
  }
  {
    const obs::SpanScope span(obs::Stage::kPerception, track);
    last_perception_ = perception_.process(frame.cameras, frame.step);
  }
  {
    const obs::SpanScope span(obs::Stage::kWaypointHead, track);
    last_waypoints_ =
        waypoint_head(gpu_, last_perception_, v_meas, cruise, cfg_.head);
  }
  Actuation cmd;
  {
    const obs::SpanScope span(obs::Stage::kControl, track);
    cmd = control_.act(last_waypoints_, v_meas, dt, cpu_gain);
  }
  ++steps_;
  return cmd;
}

Actuation SensorimotorAgent::act_fused(const SensorFrame& frame, double dt) {
  const int track = (!name_.empty() && name_.back() == '1') ? 1 : 0;
  const obs::SpanScope act_span(obs::Stage::kAgentAct, track);
  health_.observe(frame);

  // GPS: blend toward the held estimate as the channel degrades; a dropped
  // receiver contributes nothing and the agent dead-reckons on v_held_.
  const double w_gps = health_.weight(SensorChannel::kGps);
  const double v_meas =
      w_gps * frame.gps_imu.speed + (1.0 - w_gps) * v_held_;
  const double gps_x = w_gps > 0.0 ? frame.gps_imu.gps_x : 0.0;
  const double cpu_gain =
      cpu_isa_warmup(cpu_, v_meas + 0.173 * gps_x + 0.031 * steps_);
  double cruise = 0.0;
  {
    const obs::SpanScope span(obs::Stage::kPlanner, track);
    cruise = planner_.plan_cruise(v_meas, dt);
  }
  {
    const obs::SpanScope span(obs::Stage::kPerception, track);
    last_perception_ = perception_.process(frame.cameras, frame.step);
  }

  // Conservative ranging fusion: the nearest estimate from any channel the
  // monitor still trusts wins (under-estimating distance costs speed;
  // over-estimating costs the crash).
  const double w_cam = health_.weight(SensorChannel::kCamCenter);
  const double w_lidar =
      frame.lidar.empty() ? 0.0 : health_.weight(SensorChannel::kLidar);
  double fused = (w_cam > 0.0 && last_perception_.obstacle_valid)
                     ? last_perception_.obstacle_distance
                     : 200.0;
  if (w_cam <= 0.0) {
    // Blind camera: neutral lane geometry (drive straight in-lane) beats
    // steering on hallucinated markings.
    last_perception_.lane_offset = 0.0;
    last_perception_.heading_slope = 0.0;
  }
  if (w_lidar > 0.0) {
    fused = std::min(
        fused,
        lidar_forward_min(frame.lidar, cfg_.fusion.lidar_corridor_half_deg));
  }
  last_perception_.obstacle_distance = fused;
  last_perception_.obstacle_valid = fused < 150.0;
  if (health_.ranging_lost()) {
    cruise = std::min(cruise, cfg_.fusion.min_cruise_mps);
  }

  {
    const obs::SpanScope span(obs::Stage::kWaypointHead, track);
    last_waypoints_ =
        waypoint_head(gpu_, last_perception_, v_meas, cruise, cfg_.head);
  }
  Actuation cmd;
  {
    const obs::SpanScope span(obs::Stage::kControl, track);
    cmd = control_.act(last_waypoints_, v_meas, dt, cpu_gain);
  }
  v_held_ = v_meas;
  ++steps_;
  return cmd;
}

std::size_t SensorimotorAgent::state_bytes() const {
  // The perception injection hook is non-owning wiring, not checkpointable
  // state; it is excluded here (the copy inside the perception_ member) and
  // in Perception::state_bytes (the one its own sizeof sees).
  std::size_t bytes = sizeof(*this) + perception_.state_bytes() -
                      sizeof(SensorFaultInjector*);
  if (!cfg_.fusion.enabled) {
    // Fusion-off agents report their pre-fusion checkpoint footprint: the
    // health monitor, the held-speed bridge, and the fusion config block are
    // dead weight unless fusion is on, and plan-free RunResults are pinned
    // byte-identical to the pre-fusion build (test_sensor_fault.cpp).
    bytes -= sizeof(FusionConfig) + sizeof(health_) + sizeof(v_held_);
  }
  return bytes;
}

}  // namespace dav
