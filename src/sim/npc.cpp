#include "sim/npc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dav {

NpcVehicle::NpcVehicle(int id, double s, double lateral, double speed,
                       IdmParams idm, VehicleSpec spec)
    : id_(id),
      s_(s),
      lateral_(lateral),
      target_lateral_(lateral),
      v_(speed),
      spec_(spec),
      idm_(idm) {}

VehicleState NpcVehicle::state(const RoadMap& map) const {
  VehicleState st;
  const Polyline::Sample at = map.route().sample_at(s_);
  st.pose.pos = at.point + at.tangent.perp() * lateral_;
  st.pose.yaw = map.route().heading_at(s_);
  // During a lane change the heading tilts toward the lateral motion.
  // Rate is assigned exactly 0.0 when no lane change is active, so the
  // exact compare is a state flag, not arithmetic.
  if (lane_change_rate_ != 0.0 && v_ > 0.5) {  // davlint: allow(float-eq)
    st.pose.yaw = wrap_angle(st.pose.yaw + std::atan2(lane_change_rate_, v_));
  }
  st.v = v_;
  return st;
}

double NpcVehicle::idm_accel(double lead_gap, double lead_speed) const {
  const double v0 = std::max(idm_.desired_speed, 0.1);
  const double free_term = 1.0 - std::pow(v_ / v0, 4.0);
  double interaction = 0.0;
  if (std::isfinite(lead_gap) && lead_gap > 0.01) {
    const double dv = v_ - lead_speed;
    const double s_star =
        idm_.min_gap + v_ * idm_.headway +
        v_ * dv / (2.0 * std::sqrt(idm_.max_accel * idm_.comfort_decel));
    const double ratio = std::max(0.0, s_star) / lead_gap;
    interaction = ratio * ratio;
  } else if (lead_gap <= 0.01) {
    interaction = 4.0;  // bumper to bumper: brake hard
  }
  return idm_.max_accel * (free_term - interaction);
}

void NpcVehicle::step(double t, double dt, double lead_gap, double lead_speed,
                      double ego_gap) {
  for (auto& ev : events_) {
    if (ev.fired) continue;
    const bool fire =
        (ev.trigger == NpcEvent::Trigger::kAtTime && t >= ev.trigger_value) ||
        (ev.trigger == NpcEvent::Trigger::kAtEgoGap &&
         ego_gap >= ev.trigger_value);
    if (!fire) continue;
    ev.fired = true;
    switch (ev.action) {
      case NpcEvent::Action::kEmergencyBrake:
        braking_override_ = true;
        brake_decel_ = ev.param;
        break;
      case NpcEvent::Action::kLaneChange:
        target_lateral_ = ev.param;
        lane_change_rate_ = (target_lateral_ - lateral_) /
                            std::max(ev.duration, 0.1);
        break;
      case NpcEvent::Action::kSetSpeed:
        idm_.desired_speed = ev.param;
        break;
      case NpcEvent::Action::kBrakePulse:
        braking_override_ = true;
        brake_decel_ = ev.param;
        brake_until_ = t + ev.duration;
        break;
    }
  }
  if (braking_override_ && !crashed_ && brake_until_ >= 0.0 &&
      t >= brake_until_) {
    braking_override_ = false;
    brake_until_ = -1.0;
  }

  double accel;
  if (crashed_) {
    accel = -brake_decel_;
  } else if (braking_override_) {
    accel = -brake_decel_;
  } else {
    accel = idm_accel(lead_gap, lead_speed);
  }
  accel = clamp(accel, -spec_.max_brake_decel, idm_.max_accel);

  v_ = std::max(0.0, v_ + accel * dt);
  s_ += v_ * dt;

  if (lateral_ != target_lateral_) {
    const double step = lane_change_rate_ * dt;
    if (std::abs(target_lateral_ - lateral_) <= std::abs(step) ||
        lane_change_rate_ == 0.0) {  // exact-0.0 state flag, see above. davlint: allow(float-eq)
      lateral_ = target_lateral_;
      lane_change_rate_ = 0.0;
    } else {
      lateral_ += step;
    }
  }
}

void NpcVehicle::crash(double decel, double lateral_jink) {
  if (crashed_) return;
  crashed_ = true;
  braking_override_ = true;
  brake_decel_ = decel;
  target_lateral_ = lateral_ + lateral_jink;
  lane_change_rate_ = lateral_jink / 0.5;  // jink over half a second
}

NpcState NpcVehicle::capture() const {
  NpcState st;
  st.s = s_;
  st.lateral = lateral_;
  st.target_lateral = target_lateral_;
  st.lane_change_rate = lane_change_rate_;
  st.v = v_;
  st.desired_speed = idm_.desired_speed;
  st.braking_override = braking_override_;
  st.brake_decel = brake_decel_;
  st.brake_until = brake_until_;
  st.crashed = crashed_;
  st.events_fired.reserve(events_.size());
  for (const NpcEvent& ev : events_) {
    st.events_fired.push_back(ev.fired ? 1 : 0);
  }
  return st;
}

void NpcVehicle::adopt(const NpcState& st) {
  if (st.events_fired.size() != events_.size()) {
    throw std::invalid_argument(
        "NpcVehicle::adopt: event count mismatch (checkpoint from a "
        "different scenario?)");
  }
  s_ = st.s;
  lateral_ = st.lateral;
  target_lateral_ = st.target_lateral;
  lane_change_rate_ = st.lane_change_rate;
  v_ = st.v;
  idm_.desired_speed = st.desired_speed;
  braking_override_ = st.braking_override;
  brake_decel_ = st.brake_decel;
  brake_until_ = st.brake_until;
  crashed_ = st.crashed;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    events_[i].fired = st.events_fired[i] != 0;
  }
}

}  // namespace dav
