#include "util/geometry.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dav {

std::array<Vec2, 4> Obb::corners() const {
  const Vec2 f = pose.forward() * half_length;
  const Vec2 r = pose.forward().perp() * half_width;
  return {pose.pos + f + r, pose.pos - f + r, pose.pos - f - r,
          pose.pos + f - r};
}

namespace {

// Project corners onto axis; return [min, max].
std::pair<double, double> project_onto(const std::array<Vec2, 4>& corners,
                                       const Vec2& axis) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const Vec2& c : corners) {
    const double d = c.dot(axis);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return {lo, hi};
}

}  // namespace

bool obb_intersect(const Obb& a, const Obb& b) {
  const auto ca = a.corners();
  const auto cb = b.corners();
  const std::array<Vec2, 4> axes = {a.pose.forward(), a.pose.forward().perp(),
                                    b.pose.forward(), b.pose.forward().perp()};
  for (const Vec2& axis : axes) {
    const auto [alo, ahi] = project_onto(ca, axis);
    const auto [blo, bhi] = project_onto(cb, axis);
    if (ahi < blo || bhi < alo) return false;  // separating axis found
  }
  return true;
}

Polyline::Polyline(std::vector<Vec2> points) : points_(std::move(points)) {
  cum_.reserve(points_.size());
  double s = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) s += distance(points_[i - 1], points_[i]);
    cum_.push_back(s);
  }
}

std::size_t Polyline::segment_index(double s) const {
  // Find i such that cum_[i] <= s <= cum_[i+1].
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), s);
  const auto idx = static_cast<std::size_t>(it - cum_.begin());
  if (idx == 0) return 0;
  if (idx >= points_.size()) return points_.size() - 2;
  return idx - 1;
}

Vec2 Polyline::point_at(double s) const {
  if (points_.empty()) return {};
  if (points_.size() == 1) return points_.front();
  s = clamp(s, 0.0, length());
  const std::size_t i = segment_index(s);
  const double seg_len = cum_[i + 1] - cum_[i];
  const double t = seg_len > 0.0 ? (s - cum_[i]) / seg_len : 0.0;
  return points_[i] + (points_[i + 1] - points_[i]) * t;
}

Vec2 Polyline::tangent_at(double s) const { return sample_at(s).tangent; }

Polyline::Sample Polyline::sample_at(double s) const {
  if (points_.size() < 2) return {point_at(s), {1.0, 0.0}};
  s = clamp(s, 0.0, length());
  const std::size_t i = segment_index(s);
  const double seg_len = cum_[i + 1] - cum_[i];
  const double t = seg_len > 0.0 ? (s - cum_[i]) / seg_len : 0.0;
  const Vec2 d = points_[i + 1] - points_[i];
  return {points_[i] + d * t, d.normalized()};
}

double Polyline::heading_at(double s) const {
  const Vec2 t = tangent_at(s);
  return std::atan2(t.y, t.x);
}

double Polyline::project(const Vec2& p) const {
  if (points_.size() < 2) return 0.0;
  double best_d = std::numeric_limits<double>::infinity();
  double best_s = 0.0;
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    const Vec2 a = points_[i];
    const Vec2 b = points_[i + 1];
    const Vec2 ab = b - a;
    const double len_sq = ab.norm_sq();
    const double t = len_sq > 0.0 ? clamp((p - a).dot(ab) / len_sq, 0.0, 1.0) : 0.0;
    const Vec2 q = a + ab * t;
    const double d = distance(p, q);
    if (d < best_d) {
      best_d = d;
      best_s = cum_[i] + t * std::sqrt(len_sq);
    }
  }
  return best_s;
}

double Polyline::lateral_offset(const Vec2& p) const {
  if (points_.size() < 2) return 0.0;
  const double s = project(p);
  const Vec2 base = point_at(s);
  const Vec2 tan = tangent_at(s);
  return tan.cross(p - base);
}

double Polyline::curvature_at(double s) const {
  if (points_.size() < 3) return 0.0;
  // The differencing span must exceed the polyline's sampling step (~2-3 m
  // for built routes), or both probes land on the same segment tangent.
  const double ds = 3.0;
  const double s0 = clamp(s - ds, 0.0, length());
  const double s1 = clamp(s + ds, 0.0, length());
  if (s1 - s0 < 1e-9) return 0.0;
  const double h0 = heading_at(s0);
  const double h1 = heading_at(s1);
  return wrap_angle(h1 - h0) / (s1 - s0);
}

}  // namespace dav
