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

bool obb_may_intersect(const Obb& a, const Obb& b) {
  // Every corner lies within the circumradius of its centre, so boxes whose
  // centres are farther apart than the two radii cannot meet; the 1 m is
  // room for rounding.
  const double ra = Vec2{a.half_length, a.half_width}.norm();
  const double rb = Vec2{b.half_length, b.half_width}.norm();
  return distance(a.pose.pos, b.pose.pos) <= ra + rb + 1.0;
}

namespace {

/// Width of a bucket of the arc-length index: a power of two, so s * 0.25
/// is s / 4 exactly.
constexpr double kBucket = 4.0;
constexpr double kMaxBucketsPerSegment = 64.0;
/// Relative slack on the distances project() prunes with. The rounding of
/// one distance or projected point is a few units of 2^-53 of its
/// magnitude; 1e-9 covers it many times over.
constexpr double kSlack = 1e-9;

}  // namespace

Polyline::Polyline(std::vector<Vec2> points) : points_(std::move(points)) {
  cum_.reserve(points_.size());
  double s = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) s += distance(points_[i - 1], points_[i]);
    cum_.push_back(s);
  }
  if (points_.size() < 2) return;

  const std::size_t segments = points_.size() - 1;
  tangent_.reserve(segments);
  heading_.reserve(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    const Vec2 t = (points_[i + 1] - points_[i]).normalized();
    tangent_.push_back(t);
    heading_.push_back(std::atan2(t.y, t.x));
  }

  // Buckets up to the polyline's length, at most kMaxBucketsPerSegment per
  // segment: a longer (or non-finite) length leaves the rest to a scan on
  // from the last bucket.
  const double cap = kMaxBucketsPerSegment * static_cast<double>(segments);
  const double last = length() / kBucket;
  const auto buckets = static_cast<std::size_t>(last < cap ? last : cap) + 1;
  bucket_.reserve(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    const double s0 = kBucket * static_cast<double>(b);
    bucket_.push_back(static_cast<std::uint32_t>(
        std::upper_bound(cum_.begin(), cum_.end(), s0) - cum_.begin()));
  }

  // A chunk's circle is centred on its points' bounding box and reaches
  // its farthest point; the segments lie in their points' convex hull, so
  // in the circle. The inflation covers the rounding of those distances
  // and of the points project() computes on the segments.
  chunks_.reserve((segments + kChunk - 1) / kChunk);
  for (std::size_t c = 0; c < segments; c += kChunk) {
    const std::size_t end = std::min(c + kChunk, segments);
    Vec2 lo = points_[c];
    Vec2 hi = points_[c];
    for (std::size_t i = c + 1; i <= end; ++i) {
      lo = {std::min(lo.x, points_[i].x), std::min(lo.y, points_[i].y)};
      hi = {std::max(hi.x, points_[i].x), std::max(hi.y, points_[i].y)};
    }
    const Vec2 center = (lo + hi) * 0.5;
    double r = 0.0;
    double extent = 0.0;
    for (std::size_t i = c; i <= end; ++i) {
      r = std::max(r, distance(center, points_[i]));
      extent = std::max(extent, std::abs(points_[i].x) + std::abs(points_[i].y));
    }
    chunks_.push_back({center, r + kSlack * (r + extent + 1.0)});
  }
}

std::size_t Polyline::segment_index(double s) const {
  // Find i such that cum_[i] <= s <= cum_[i+1]: j = upper_bound(cum_, s),
  // found from s's bucket by a forward scan.
  std::size_t j = cum_.size();  // s >= length, or NaN
  if (s < 0.0) {
    j = 0;
  } else if (s < cum_.back()) {
    const double b = s * (1.0 / kBucket);
    j = b < static_cast<double>(bucket_.size())
            ? bucket_[static_cast<std::size_t>(b)]
            : bucket_.back();
    while (cum_[j] <= s) ++j;
  }
  if (j == 0) return 0;
  if (j >= points_.size()) return points_.size() - 2;
  return j - 1;
}

Vec2 Polyline::point_at(double s) const {
  if (points_.empty()) return {};
  if (points_.size() == 1) return points_.front();
  return sample_at(s).point;
}

Vec2 Polyline::tangent_at(double s) const { return sample_at(s).tangent; }

Polyline::Sample Polyline::sample_at(double s) const {
  if (points_.size() < 2) return {point_at(s), {1.0, 0.0}};
  s = clamp(s, 0.0, length());
  const std::size_t i = segment_index(s);
  const double seg_len = cum_[i + 1] - cum_[i];
  const double t = seg_len > 0.0 ? (s - cum_[i]) / seg_len : 0.0;
  return {points_[i] + (points_[i + 1] - points_[i]) * t, tangent_[i]};
}

double Polyline::heading_at(double s) const {
  if (points_.size() < 2) return 0.0;  // the heading of tangent (1, 0)
  return heading_[segment_index(clamp(s, 0.0, length()))];
}

double Polyline::project(const Vec2& p) const {
  if (points_.size() < 2) return 0.0;
  // Every distance the scan below computes in chunk c is at least lo(c) and
  // the closest point of the polyline at most `bound` away, so a chunk
  // with lo(c) above the bound, or above the best distance so far, holds no
  // segment the scan would pick, and is passed over.
  const auto lower = [&](const Chunk& c) {
    return distance(p, c.center) * (1.0 - kSlack) - c.radius;
  };
  double bound = std::numeric_limits<double>::infinity();
  for (const Chunk& c : chunks_) {
    bound = std::min(bound, (distance(p, c.center) + c.radius) * (1.0 + kSlack));
  }
  double best_d = std::numeric_limits<double>::infinity();
  double best_s = 0.0;
  const std::size_t segments = points_.size() - 1;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const double lo = lower(chunks_[c]);
    if (lo > bound || lo > best_d) continue;
    const std::size_t end = std::min((c + 1) * kChunk, segments);
    for (std::size_t i = c * kChunk; i < end; ++i) {
      const Vec2 a = points_[i];
      const Vec2 b = points_[i + 1];
      const Vec2 ab = b - a;
      const double len_sq = ab.norm_sq();
      const double t =
          len_sq > 0.0 ? clamp((p - a).dot(ab) / len_sq, 0.0, 1.0) : 0.0;
      const Vec2 q = a + ab * t;
      const double d = distance(p, q);
      if (d < best_d) {
        best_d = d;
        best_s = cum_[i] + t * std::sqrt(len_sq);
      }
    }
  }
  return best_s;
}

double Polyline::lateral_offset(const Vec2& p) const {
  return lateral_offset(p, project(p));
}

double Polyline::lateral_offset(const Vec2& p, double s) const {
  if (points_.size() < 2) return 0.0;
  const Sample at = sample_at(s);
  return at.tangent.cross(p - at.point);
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
