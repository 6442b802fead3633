// The synchronous world stepper: ego dynamics, NPC traffic, collision
// detection, traffic-rule monitoring, CVIP, and trajectory recording.
// Plays the role of the CARLA server run in synchronous mode (paper §IV-B).
#pragma once

#include <vector>

#include "sim/npc.h"
#include "sim/scenario.h"
#include "sim/trajectory.h"
#include "sim/vehicle.h"

namespace dav {

/// Cumulative safety ground truth for a run.
struct SafetyFlags {
  bool collision = false;
  bool red_light_violation = false;
  bool speeding = false;
  bool off_road = false;

  bool any() const {
    return collision || red_light_violation || speeding || off_road;
  }
};

/// Full dynamic world state for checkpoint capture/adopt: ego kinematics,
/// per-NPC controller state, safety ground truth, and the recorded
/// trajectory so far. The static scenario (map, specs, event scripts) is
/// excluded — a restored World is rebuilt from the same Scenario and adopts
/// only what time evolved.
struct WorldState {
  VehicleState ego;
  double ego_s = 0.0;
  double ego_lat = 0.0;
  double time = 0.0;
  int step_count = 0;
  double cvip = 0.0;
  SafetyFlags flags;
  std::vector<Vec2> trajectory;
  double collision_time = -1.0;
  double prev_ego_s = 0.0;
  std::vector<NpcState> npcs;
};

class World {
 public:
  explicit World(Scenario scenario);

  /// Advance one synchronous tick: apply the ego actuation, move traffic,
  /// update collision/rule/CVIP state, record the trajectory sample.
  void step(const Actuation& ego_cmd, double dt);

  const VehicleState& ego() const { return ego_; }
  const VehicleSpec& ego_spec() const { return scenario_.ego_spec; }
  double time() const { return time_; }
  int step_count() const { return step_count_; }
  const RoadMap& map() const { return scenario_.map; }
  const Scenario& scenario() const { return scenario_; }
  const std::vector<NpcVehicle>& npcs() const { return scenario_.npcs; }

  /// Ego progress (arc length of projection onto the route).
  double ego_route_s() const { return ego_s_; }
  /// Ego lateral offset from the route center line (+ = left).
  double ego_lateral() const { return ego_lat_; }

  /// Closest-vehicle-in-path distance (paper §II / Fig 2): bumper distance to
  /// the nearest vehicle ahead in the ego's lane corridor; +inf if none.
  double cvip() const { return cvip_; }

  const SafetyFlags& flags() const { return flags_; }
  const Trajectory& trajectory() const { return traj_; }

  /// Time of the first ego collision; negative if none so far.
  double first_collision_time() const { return collision_time_; }

  /// True once the scenario duration has elapsed, the route is finished, or
  /// a grace period after an ego collision has passed.
  bool done() const;

  WorldState capture() const;
  void adopt(const WorldState& st);

 private:
  struct Actor {
    double s = 0.0;
    double lateral = 0.0;
    double speed = 0.0;
    double half_length = 0.0;
  };

  void step_npcs(double dt);
  void update_safety();
  void update_cvip();
  std::vector<Actor> actors_snapshot() const;  // NPCs + ego, route coords

  Scenario scenario_;
  VehicleState ego_;
  double ego_s_ = 0.0;
  double ego_lat_ = 0.0;
  double time_ = 0.0;
  int step_count_ = 0;
  double cvip_ = 0.0;
  SafetyFlags flags_;
  Trajectory traj_;
  double collision_time_ = -1.0;
  double prev_ego_s_ = 0.0;
  /// Each NPC's box at the end of step_npcs, for update_safety.
  std::vector<Obb> npc_boxes_;
};

}  // namespace dav
