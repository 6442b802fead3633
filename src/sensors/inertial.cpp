#include "sensors/inertial.h"

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/vehicle.h"

namespace dav {

GpsImuSample sample_gps_imu(const VehicleState& ego, const GpsImuModel& model,
                            Rng& noise) {
  GpsImuSample s;
  s.gps_x = static_cast<float>(ego.pose.pos.x + noise.normal(0.0, model.gps_sigma));
  s.gps_y = static_cast<float>(ego.pose.pos.y + noise.normal(0.0, model.gps_sigma));
  s.speed = static_cast<float>(
      std::max(0.0, ego.v + noise.normal(0.0, model.speed_sigma)));
  s.accel_long = static_cast<float>(ego.a + noise.normal(0.0, model.accel_sigma));
  s.yaw = static_cast<float>(
      wrap_angle(ego.pose.yaw + noise.normal(0.0, model.yaw_sigma)));
  s.yaw_rate =
      static_cast<float>(ego.omega + noise.normal(0.0, model.yaw_rate_sigma));
  return s;
}

namespace {

/// Distance along ray (origin, dir) to segment [a,b]; +inf if no hit.
double ray_segment(const Vec2& origin, const Vec2& dir, const Vec2& a,
                   const Vec2& b) {
  const Vec2 seg = b - a;
  const double denom = dir.cross(seg);
  if (std::abs(denom) < 1e-12) return std::numeric_limits<double>::infinity();
  const Vec2 ao = a - origin;
  const double t = ao.cross(seg) / denom;   // distance along the ray
  const double u = ao.cross(dir) / denom;   // position along the segment
  if (t >= 0.0 && u >= 0.0 && u <= 1.0) return t;
  return std::numeric_limits<double>::infinity();
}

}  // namespace

std::vector<float> sample_lidar(const World& world, const LidarModel& model,
                                Rng& noise) {
  std::vector<float> ranges(static_cast<std::size_t>(model.beams));
  const Vec2 origin = world.ego().pose.pos;
  // Each NPC's box, once per sweep rather than once per beam.
  std::vector<std::array<Vec2, 4>> boxes;
  boxes.reserve(world.npcs().size());
  for (const auto& npc : world.npcs()) {
    boxes.push_back(vehicle_obb(npc.state(world.map()), npc.spec()).corners());
  }
  for (int i = 0; i < model.beams; ++i) {
    const double angle =
        world.ego().pose.yaw + 2.0 * M_PI * i / model.beams;
    const Vec2 dir{std::cos(angle), std::sin(angle)};
    double best = model.max_range;
    for (const auto& corners : boxes) {
      for (int e = 0; e < 4; ++e) {
        const double t =
            ray_segment(origin, dir, corners[e], corners[(e + 1) % 4]);
        best = std::min(best, t);
      }
    }
    // Beams that miss every vehicle return ground/clutter near max range;
    // the return is noisy like any other (a hard clamp to an exact constant
    // would zero out the bit-level diversity the paper measures).
    best = std::max(0.0, best + noise.normal(0.0, model.range_sigma));
    ranges[static_cast<std::size_t>(i)] = static_cast<float>(best);
  }
  return ranges;
}

}  // namespace dav
