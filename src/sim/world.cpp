#include "sim/world.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dav {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kLaneCorridor = 2.0;        // |lat diff| for same-lane logic
constexpr double kCollisionGraceSec = 2.0;   // keep simulating briefly after a crash
}  // namespace

World::World(Scenario scenario) : scenario_(std::move(scenario)) {
  ego_.pose.pos = scenario_.map.lane_point(scenario_.ego_start_s, 0);
  ego_.pose.yaw = scenario_.map.heading_at(scenario_.ego_start_s);
  ego_.v = scenario_.ego_start_speed;
  ego_s_ = scenario_.ego_start_s;
  prev_ego_s_ = ego_s_;
  update_cvip();
  traj_.push(ego_.pose.pos);
}

std::vector<World::Actor> World::actors_snapshot() const {
  std::vector<Actor> out;
  out.reserve(scenario_.npcs.size() + 1);
  for (const auto& npc : scenario_.npcs) {
    out.push_back({npc.s(), npc.lateral(), npc.speed(),
                   npc.spec().length * 0.5});
  }
  out.push_back({ego_s_, ego_lat_, ego_.v, scenario_.ego_spec.length * 0.5});
  return out;
}

void World::step_npcs(double dt) {
  const auto actors = actors_snapshot();
  const std::size_t n_npc = scenario_.npcs.size();

  for (std::size_t i = 0; i < n_npc; ++i) {
    auto& npc = scenario_.npcs[i];
    // Nearest leader in this NPC's corridor, among all other actors.
    double lead_gap = kInf;
    double lead_speed = 0.0;
    for (std::size_t j = 0; j < actors.size(); ++j) {
      if (j == i) continue;
      if (std::abs(actors[j].lateral - actors[i].lateral) > kLaneCorridor)
        continue;
      const double gap = actors[j].s - actors[i].s - actors[j].half_length -
                         actors[i].half_length;
      if (actors[j].s > actors[i].s && gap < lead_gap) {
        lead_gap = gap;
        lead_speed = actors[j].speed;
      }
    }
    // Red or yellow lights act as a stopped virtual leader at the stop line
    // (only when the NPC is in the route lane corridor).
    if (std::abs(actors[i].lateral) < kLaneCorridor) {
      if (auto light = scenario_.map.next_light_after(actors[i].s)) {
        if (light->phase_at(time_) != TrafficLight::Phase::kGreen) {
          const double gap = light->s - actors[i].s - actors[i].half_length;
          if (gap >= 0.0 && gap < lead_gap) {
            lead_gap = gap;
            lead_speed = 0.0;
          }
        }
      }
    }
    const double ego_gap = actors[i].s - ego_s_;
    npc.step(time_, dt, lead_gap, lead_speed, ego_gap);
  }

  // NPC-NPC collision response: both vehicles crash out (brake hard + jink).
  // crash() tilts the heading, so a crashed pair's boxes are rebuilt.
  const auto box_of = [this](const NpcVehicle& npc) {
    return vehicle_obb(npc.state(scenario_.map), npc.spec());
  };
  npc_boxes_.clear();
  for (const auto& npc : scenario_.npcs) npc_boxes_.push_back(box_of(npc));
  for (std::size_t i = 0; i < n_npc; ++i) {
    for (std::size_t j = i + 1; j < n_npc; ++j) {
      auto& a = scenario_.npcs[i];
      auto& b = scenario_.npcs[j];
      if (a.crashed() && b.crashed()) continue;
      if (obb_may_intersect(npc_boxes_[i], npc_boxes_[j]) &&
          obb_intersect(npc_boxes_[i], npc_boxes_[j])) {
        a.crash(/*decel=*/9.0, /*lateral_jink=*/0.35);
        b.crash(/*decel=*/9.0, /*lateral_jink=*/-0.35);
        npc_boxes_[i] = box_of(a);
        npc_boxes_[j] = box_of(b);
      }
    }
  }
}

void World::update_safety() {
  // The NPCs have not moved since step_npcs built their boxes.
  const Obb ego_box = vehicle_obb(ego_, scenario_.ego_spec);
  for (const Obb& npc_box : npc_boxes_) {
    if (obb_may_intersect(ego_box, npc_box) && obb_intersect(ego_box, npc_box)) {
      if (!flags_.collision) collision_time_ = time_;
      flags_.collision = true;
    }
  }

  // Red-light violation: the ego's projection crossed a stop line this step
  // while the light was red.
  for (const auto& light : scenario_.map.traffic_lights()) {
    if (prev_ego_s_ < light.s && ego_s_ >= light.s &&
        light.phase_at(time_) == TrafficLight::Phase::kRed) {
      flags_.red_light_violation = true;
    }
  }

  if (ego_.v > scenario_.map.speed_limit_at(ego_s_) * 1.15 + 0.5) {
    flags_.speeding = true;
  }
  // update_cvip projected the ego at its current position.
  if (!scenario_.map.on_road_lateral(ego_lat_)) {
    flags_.off_road = true;
  }
}

void World::update_cvip() {
  // The one projection of the ego per step.
  const Polyline& route = scenario_.map.route();
  ego_s_ = route.project(ego_.pose.pos);
  ego_lat_ = route.lateral_offset(ego_.pose.pos, ego_s_);
  double best = kInf;
  for (const auto& npc : scenario_.npcs) {
    if (std::abs(npc.lateral() - ego_lat_) > kLaneCorridor) continue;
    const double gap = npc.s() - ego_s_ - npc.spec().length * 0.5 -
                       scenario_.ego_spec.length * 0.5;
    if (npc.s() > ego_s_ && gap < best) best = gap;
  }
  cvip_ = best;
}

void World::step(const Actuation& ego_cmd, double dt) {
  prev_ego_s_ = ego_s_;
  ego_ = step_vehicle(ego_, ego_cmd, scenario_.ego_spec, dt);
  step_npcs(dt);
  time_ += dt;
  ++step_count_;
  update_cvip();
  update_safety();
  traj_.push(ego_.pose.pos);
}

bool World::done() const {
  if (time_ >= scenario_.duration_sec) return true;
  if (ego_s_ >= scenario_.map.route().length() - 10.0) return true;
  if (collision_time_ >= 0.0 && time_ - collision_time_ > kCollisionGraceSec)
    return true;
  return false;
}

WorldState World::capture() const {
  WorldState st;
  st.ego = ego_;
  st.ego_s = ego_s_;
  st.ego_lat = ego_lat_;
  st.time = time_;
  st.step_count = step_count_;
  st.cvip = cvip_;
  st.flags = flags_;
  st.trajectory = traj_.points();
  st.collision_time = collision_time_;
  st.prev_ego_s = prev_ego_s_;
  st.npcs.reserve(scenario_.npcs.size());
  for (const NpcVehicle& npc : scenario_.npcs) st.npcs.push_back(npc.capture());
  return st;
}

void World::adopt(const WorldState& st) {
  if (st.npcs.size() != scenario_.npcs.size()) {
    throw std::invalid_argument(
        "World::adopt: NPC count mismatch (checkpoint from a different "
        "scenario?)");
  }
  ego_ = st.ego;
  ego_s_ = st.ego_s;
  ego_lat_ = st.ego_lat;
  time_ = st.time;
  step_count_ = st.step_count;
  cvip_ = st.cvip;
  flags_ = st.flags;
  traj_.points() = st.trajectory;
  collision_time_ = st.collision_time;
  prev_ego_s_ = st.prev_ego_s;
  for (std::size_t i = 0; i < scenario_.npcs.size(); ++i) {
    scenario_.npcs[i].adopt(st.npcs[i]);
  }
}

}  // namespace dav
