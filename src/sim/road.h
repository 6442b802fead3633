// Road network model: a primary route polyline with parallel lanes, speed
// limits, and traffic lights. Rich enough for the paper's scenarios — straight
// multi-lane roads for the safety-critical tests, and long urban/highway
// routes with turns, intersections and traffic lights for detector training.
#pragma once

#include <optional>
#include <vector>

#include "util/geometry.h"

namespace dav {

/// Traffic light placed at arc length `s` on the route, governing a stop line.
/// The cycle is green -> yellow -> red, repeating, with a phase offset.
struct TrafficLight {
  double s = 0.0;            // stop-line arc length on the route
  double green_sec = 10.0;
  double yellow_sec = 2.0;
  double red_sec = 8.0;
  double phase_sec = 0.0;    // cycle offset at t = 0

  enum class Phase { kGreen, kYellow, kRed };
  Phase phase_at(double t) const;
  double cycle_length() const { return green_sec + yellow_sec + red_sec; }
};

/// Speed limit over an arc-length interval of the route.
struct SpeedLimit {
  double s_begin = 0.0;
  double s_end = 0.0;
  double limit = 14.0;  // m/s
};

/// The map: a center route (ego's intended path, lane 0) plus lane geometry.
/// Lane index l has lateral offset l * lane_width (positive = left).
class RoadMap {
 public:
  RoadMap() = default;
  RoadMap(Polyline route, double lane_width, int num_left_lanes,
          int num_right_lanes);

  const Polyline& route() const { return route_; }
  double lane_width() const { return lane_width_; }
  int num_left_lanes() const { return num_left_lanes_; }
  int num_right_lanes() const { return num_right_lanes_; }

  /// World position of (arc length s, lane index).
  Vec2 lane_point(double s, int lane) const;
  double heading_at(double s) const { return route_.heading_at(s); }

  void add_traffic_light(TrafficLight light) { lights_.push_back(light); }
  const std::vector<TrafficLight>& traffic_lights() const { return lights_; }
  /// Next light at or after arc length s (nullopt if none remain).
  std::optional<TrafficLight> next_light_after(double s) const;

  void add_speed_limit(SpeedLimit lim) { limits_.push_back(lim); }
  /// Effective speed limit at arc length s (default if no interval covers s).
  double speed_limit_at(double s, double fallback = 14.0) const;

  /// True if p lies within the paved corridor (all lanes + shoulder margin).
  bool on_road(const Vec2& p, double shoulder = 0.5) const;
  /// The same test for a point at lateral offset `lat` from the route.
  bool on_road_lateral(double lat, double shoulder = 0.5) const;

 private:
  Polyline route_;
  double lane_width_ = 3.5;
  int num_left_lanes_ = 1;
  int num_right_lanes_ = 0;
  std::vector<TrafficLight> lights_;
  std::vector<SpeedLimit> limits_;
};

/// Builder for the long training routes: sequences of straights and turns.
class RouteBuilder {
 public:
  explicit RouteBuilder(Vec2 start = {0.0, 0.0}, double heading = 0.0);

  RouteBuilder& straight(double length);
  /// Circular arc turn; positive angle = left. Radius in meters.
  RouteBuilder& turn(double angle_rad, double radius);
  Polyline build() const;

 private:
  std::vector<Vec2> pts_;
  Vec2 cursor_;
  double heading_;
};

}  // namespace dav
