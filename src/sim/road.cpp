#include "sim/road.h"

#include <algorithm>
#include <cmath>

namespace dav {

TrafficLight::Phase TrafficLight::phase_at(double t) const {
  double u = std::fmod(t + phase_sec, cycle_length());
  if (u < 0.0) u += cycle_length();
  if (u < green_sec) return Phase::kGreen;
  if (u < green_sec + yellow_sec) return Phase::kYellow;
  return Phase::kRed;
}

RoadMap::RoadMap(Polyline route, double lane_width, int num_left_lanes,
                 int num_right_lanes)
    : route_(std::move(route)),
      lane_width_(lane_width),
      num_left_lanes_(num_left_lanes),
      num_right_lanes_(num_right_lanes) {}

Vec2 RoadMap::lane_point(double s, int lane) const {
  const Polyline::Sample at = route_.sample_at(s);
  return at.point + at.tangent.perp() * (static_cast<double>(lane) * lane_width_);
}

std::optional<TrafficLight> RoadMap::next_light_after(double s) const {
  std::optional<TrafficLight> best;
  for (const auto& l : lights_) {
    if (l.s >= s && (!best || l.s < best->s)) best = l;
  }
  return best;
}

double RoadMap::speed_limit_at(double s, double fallback) const {
  for (const auto& lim : limits_) {
    if (s >= lim.s_begin && s < lim.s_end) return lim.limit;
  }
  return fallback;
}

bool RoadMap::on_road(const Vec2& p, double shoulder) const {
  return on_road_lateral(route_.lateral_offset(p), shoulder);
}

bool RoadMap::on_road_lateral(double lat, double shoulder) const {
  const double left_edge =
      (static_cast<double>(num_left_lanes_) + 0.5) * lane_width_ + shoulder;
  const double right_edge =
      (static_cast<double>(num_right_lanes_) + 0.5) * lane_width_ + shoulder;
  return lat <= left_edge && lat >= -right_edge;
}

RouteBuilder::RouteBuilder(Vec2 start, double heading)
    : cursor_(start), heading_(heading) {
  pts_.push_back(start);
}

RouteBuilder& RouteBuilder::straight(double length) {
  // Sample every ~2 m to keep the polyline smooth for curvature queries.
  const int n = std::max(1, static_cast<int>(length / 2.0));
  const Vec2 dir{std::cos(heading_), std::sin(heading_)};
  for (int i = 1; i <= n; ++i) {
    pts_.push_back(cursor_ + dir * (length * static_cast<double>(i) / n));
  }
  cursor_ = pts_.back();
  return *this;
}

RouteBuilder& RouteBuilder::turn(double angle_rad, double radius) {
  const int n =
      std::max(8, static_cast<int>(std::abs(angle_rad) * radius / 1.5));
  const double side = angle_rad >= 0.0 ? 1.0 : -1.0;
  const Vec2 to_center =
      Vec2{std::cos(heading_), std::sin(heading_)}.perp() * side * radius;
  const Vec2 center = cursor_ + to_center;
  const double start_angle = std::atan2(cursor_.y - center.y, cursor_.x - center.x);
  for (int i = 1; i <= n; ++i) {
    const double a = start_angle + angle_rad * static_cast<double>(i) / n;
    pts_.push_back(center + Vec2{std::cos(a), std::sin(a)} * radius);
  }
  cursor_ = pts_.back();
  heading_ = wrap_angle(heading_ + angle_rad);
  return *this;
}

Polyline RouteBuilder::build() const { return Polyline(pts_); }

}  // namespace dav
