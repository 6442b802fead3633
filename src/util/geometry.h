// Planar geometry: oriented bounding boxes (vehicle footprints, collision
// detection) and polyline utilities (routes, trajectories).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/vec2.h"

namespace dav {

/// Oriented bounding box: center pose plus half extents. Vehicles are OBBs.
struct Obb {
  Pose2 pose;
  double half_length = 0.0;  // along heading
  double half_width = 0.0;   // across heading

  /// The four corners, counter-clockwise, in world coordinates.
  std::array<Vec2, 4> corners() const;
};

/// Separating-axis test for two OBBs.
bool obb_intersect(const Obb& a, const Obb& b);

/// False when the two centres lie farther apart than the boxes'
/// circumradii plus 1 m, so obb_intersect(a, b) is false too: a pre-reject
/// that costs no trigonometry.
bool obb_may_intersect(const Obb& a, const Obb& b);

/// Polyline with arc-length parameterization. Routes and lane center lines are
/// polylines; vehicles track progress along them by arc length s.
///
/// Every query returns what a search over all points would: the segment at
/// arc length s is the one std::upper_bound over the cumulative lengths
/// picks, and project() returns the first of the closest segments. Tables
/// built once, at construction, answer them without the search: each
/// segment's unit tangent and heading, a bucket index over arc length and a
/// bounding circle per run of segments (DESIGN §17.3).
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<Vec2> points);

  const std::vector<Vec2>& points() const { return points_; }
  double length() const { return cum_.empty() ? 0.0 : cum_.back(); }
  bool empty() const { return points_.size() < 2; }
  std::size_t size() const { return points_.size(); }

  /// Point at arc length s (clamped to [0, length]).
  Vec2 point_at(double s) const;
  /// Unit tangent at arc length s.
  Vec2 tangent_at(double s) const;
  /// Point and unit tangent at arc length s from one segment search: the
  /// same values as point_at(s) and tangent_at(s).
  struct Sample {
    Vec2 point;
    Vec2 tangent{1.0, 0.0};
  };
  Sample sample_at(double s) const;
  /// Heading (radians) at arc length s.
  double heading_at(double s) const;
  /// Arc length of the closest point on the polyline to p.
  double project(const Vec2& p) const;
  /// Signed lateral offset of p from the polyline (+ = left of direction).
  double lateral_offset(const Vec2& p) const;
  /// The same, given s = project(p).
  double lateral_offset(const Vec2& p, double s) const;
  /// Approximate signed curvature at arc length s (1/m).
  double curvature_at(double s) const;

 private:
  /// A run of up to kChunk consecutive segments and a circle that holds all
  /// of them, inflated so rounding in project() can never reach outside.
  struct Chunk {
    Vec2 center;
    double radius = 0.0;
  };
  static constexpr std::size_t kChunk = 16;

  std::size_t segment_index(double s) const;
  std::vector<Vec2> points_;
  std::vector<double> cum_;  // cumulative arc length, cum_[i] = length to points_[i]
  std::vector<Vec2> tangent_;    // per segment: its direction, normalized()
  std::vector<double> heading_;  // per segment: atan2 of tangent_
  /// Per 4 m of arc length: bucket_[b] = upper_bound(cum_, 4 * b) as an
  /// index, where the search for any s in [4b, 4b + 4) can start.
  std::vector<std::uint32_t> bucket_;
  std::vector<Chunk> chunks_;
};

}  // namespace dav
