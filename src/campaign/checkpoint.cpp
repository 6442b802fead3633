#include "campaign/checkpoint.h"

#include <utility>

#include "campaign/serialize.h"

namespace dav {

// RunCheckpoint's field walk and its sub-state walks (serialize.h explains
// the scheme). Vehicle states, recovery events and sensor degrade events use
// the run record's walks.

template <class A>
void io(A& a, Actuation& act) {
  a.f64(act.throttle);
  a.f64(act.brake);
  a.f64(act.steer);
}

template <class A>
void io(A& a, std::array<std::uint64_t, 4>& rng_state) {
  for (std::uint64_t& word : rng_state) a.u64(word);
}

template <class A>
void io(A& a, SensorRig::RngState& s) {
  io(a, s.camera);
  io(a, s.imu);
  io(a, s.lidar);
}

template <class A>
void io(A& a, EngineState& e) {
  a.vec(e.counts, [&](std::uint64_t& c) { a.u64(c); });
  a.u64(e.total);
  io(a, e.rng);
  a.u8(e.armed);
  a.u8(e.activated);
  a.u64(e.corruptions);
  a.u8(e.permanent_outcome_decided);
  a.u8(e.permanent_lethal);
}

template <class A>
void io(A& a, WindowState& s) {
  a.vec(s.values, [&](double& v) { a.f64(v); });
  a.f64(s.running_sum);  // verbatim: float addition is order-dependent
}

template <class A>
void io(A& a, DetectorState& d) {
  io(a, d.signal.throttle);
  io(a, d.signal.brake);
  io(a, d.signal.steer);
  a.u8(d.alarmed);
  a.f64(d.alarm_time);
  a.i32(d.streak);
  a.f64(d.streak_start_time);
}

template <class A>
void io(A& a, GpsImuSample& s) {
  a.f32(s.gps_x);
  a.f32(s.gps_y);
  a.f32(s.speed);
  a.f32(s.accel_long);
  a.f32(s.yaw);
  a.f32(s.yaw_rate);
}

template <class A>
void io(A& a, SensorHealthSnapshot& s) {
  for (std::size_t i = 0; i < s.status.size(); ++i) {
    a.u8(s.status[i]);
    a.i32(s.bad_streak[i]);
    a.i32(s.good_streak[i]);
  }
}

template <class A>
void io(A& a, SensorHealthMonitor::GpsPoint& p) {
  a.f64(p.gx);
  a.f64(p.gy);
  a.f64(p.ex);
  a.f64(p.ey);
  a.f64(p.t);
}

template <class A>
void io(A& a, SensorHealthMonitor::State& m) {
  io(a, m.ladder);
  for (std::vector<std::uint8_t>& sample : m.prev_sample) a.bytes(sample);
  a.vec(m.gps_window, [&](SensorHealthMonitor::GpsPoint& p) { io(a, p); });
  a.f64(m.exp_x);
  a.f64(m.exp_y);
  a.u8(m.gps_primed);
  io(a, m.prev_gps);
  a.f64(m.prev_time);
  a.u8(m.lidar_seen);
}

template <class A>
void io(A& a, AgentCheckpoint& c) {
  AgentSnapshot& s = c.snapshot;
  a.f32(s.perception.lane_offset_ema);
  a.f32(s.perception.heading_ema);
  a.f32(s.perception.obstacle_ema);
  for (float& h : s.perception.obstacle_hist) a.f32(h);
  a.i32(s.perception.hist_idx);
  a.u8(s.perception.ema_init);
  a.f64(s.planner_progress);
  a.f64(s.control.integral);
  a.f64(s.control.steer_ema);
  a.f64(s.control.throttle_ema);
  a.f64(s.control.brake_ema);
  a.f64(s.control.prev_v_tgt);
  a.u8(s.control.first_step);
  a.u8(s.control.stopped);
  a.i32(s.steps);
  io(a, s.sensor_health);
  a.f64(s.v_held);
  io(a, c.health);
  a.u64(c.perception_scratch);
}

template <class A>
void io(A& a, AdsState& s) {
  io(a, s.agent0);
  a.u8(s.has_agent1);
  if (s.has_agent1) io(a, s.agent1);
  a.u8(s.has_prev_output);
  if (s.has_prev_output) io(a, s.prev_output);
  a.i32(s.step);
  a.i32(s.executing);
}

template <class A>
void io(A& a, NpcState& n) {
  a.f64(n.s);
  a.f64(n.lateral);
  a.f64(n.target_lateral);
  a.f64(n.lane_change_rate);
  a.f64(n.v);
  a.f64(n.desired_speed);
  a.u8(n.braking_override);
  a.f64(n.brake_decel);
  a.f64(n.brake_until);
  a.u8(n.crashed);
  a.bytes(n.events_fired);
}

template <class A>
void io(A& a, WorldState& s) {
  io(a, s.ego);
  a.f64(s.ego_s);
  a.f64(s.ego_lat);
  a.f64(s.time);
  a.i32(s.step_count);
  a.f64(s.cvip);
  io(a, s.flags);
  a.vec(s.trajectory, [&](Vec2& p) { io(a, p); });
  a.f64(s.collision_time);
  a.f64(s.prev_ego_s);
  a.vec(s.npcs, [&](NpcState& n) { io(a, n); });
}

template <class A>
void io(A& a, RecoveryState& s) {
  a.i32(s.state);
  io(a, s.last_applied);
  a.i32(s.probe_left);
  a.f64(s.probe_score0);
  a.f64(s.probe_score1);
  a.f64(s.probe_alarm_time);
  a.i32(s.probe_alarm_tick);
  a.i32(s.rewarm_left);
  a.i32(s.healthy);
  a.vec(s.restart_ticks, [&](int& t) { a.i32(t); });
  io_recovery_counts(a, s.stats);
  io_sensor_recovery(a, s.stats);
  a.u8(s.has_sensor_monitor);
  if (s.has_sensor_monitor) io(a, s.sensor_monitor);
  for (int& idx : s.open_sensor_event) a.i32(idx);
}

template <class A>
void io(A& a, RunCheckpoint& c) {
  a.version(kRunCheckpointVersion);
  a.i32(c.tick);
  io(a, c.world);
  io(a, c.rig);
  io(a, c.gpu0);
  io(a, c.cpu0);
  io(a, c.gpu1);
  io(a, c.cpu1);
  io(a, c.ads);
  a.u8(c.has_detector);
  if (c.has_detector) io(a, c.detector);
  a.u8(c.has_recovery);
  if (c.has_recovery) io(a, c.recovery);
  io(a, c.last_applied);
  a.f64(c.stationary_sec);
  a.str(c.partial_result);
  a.u8(c.has_cameras);
  if (c.has_cameras) {
    for (std::vector<std::uint8_t>& cam : c.cameras) a.bytes(cam);
  }
}

std::string serialize_run_checkpoint(const RunCheckpoint& c) {
  return encode_fields(c);
}

RunCheckpoint deserialize_run_checkpoint(const std::string& bytes) {
  return decode_fields<RunCheckpoint>(bytes, "run checkpoint");
}

int fork_tick(const RunConfig& cfg) {
  if (cfg.checkpoint.capture_tick >= 0) return cfg.checkpoint.capture_tick;
  return cfg.sensor_fault.active() ? cfg.sensor_fault.onset_tick : -1;
}

const CheckpointStore::DeepEntry* CheckpointStore::find_deep(
    const RunConfig& cfg) {
  const DeepEntry* best = nullptr;
  for (const DeepEntry& e : deep_) {
    // Deepest wins; FIFO order breaks ties deterministically (first stored).
    if (best != nullptr && e.tick <= best->tick) continue;
    if (run_config_prefix_digest(cfg, e.tick) != e.prefix_digest) continue;
    // A transient strike below the captured instruction totals would have
    // landed inside the prefix — the straight-through run diverges there.
    if (cfg.fault.kind == FaultModelKind::kTransient &&
        cfg.fault.target_dyn_index < (cfg.fault.domain == FaultDomain::kGpu
                                          ? e.gpu0_total
                                          : e.cpu0_total)) {
      continue;
    }
    best = &e;
  }
  if (best != nullptr) {
    ++deep_hits_;
  } else {
    ++deep_misses_;
  }
  return best;
}

void CheckpointStore::insert_deep(DeepEntry e) {
  deep_bytes_ += e.blob.size();
  deep_.push_back(std::move(e));
  evict_to_budget();
}

void CheckpointStore::set_max_deep_bytes(std::size_t bytes) {
  max_deep_bytes_ = bytes;
  evict_to_budget();
}

void CheckpointStore::evict_to_budget() {
  while (deep_bytes_ > max_deep_bytes_ && !deep_.empty()) {
    deep_bytes_ -= deep_.front().blob.size();
    deep_.pop_front();
    ++evictions_;
  }
}

}  // namespace dav
