#include <gtest/gtest.h>

#include <cmath>

#include "util/geometry.h"

namespace dav {
namespace {

Obb make_obb(double x, double y, double yaw, double hl, double hw) {
  Obb o;
  o.pose.pos = {x, y};
  o.pose.yaw = yaw;
  o.half_length = hl;
  o.half_width = hw;
  return o;
}

TEST(Obb, CornersAxisAligned) {
  const Obb o = make_obb(0, 0, 0, 2, 1);
  const auto c = o.corners();
  // Contains extremes.
  double max_x = -1e9, max_y = -1e9;
  for (const auto& p : c) {
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  EXPECT_NEAR(max_x, 2.0, 1e-12);
  EXPECT_NEAR(max_y, 1.0, 1e-12);
}

TEST(ObbIntersect, OverlappingAndSeparated) {
  const Obb a = make_obb(0, 0, 0, 2, 1);
  EXPECT_TRUE(obb_intersect(a, make_obb(3.5, 0, 0, 2, 1)));
  EXPECT_FALSE(obb_intersect(a, make_obb(4.5, 0, 0, 2, 1)));
  EXPECT_TRUE(obb_intersect(a, a));
}

TEST(ObbIntersect, RotationMatters) {
  const Obb a = make_obb(0, 0, 0, 2, 0.4);
  // A thin box rotated 90 deg at x = 2.2 overlaps only via its length.
  EXPECT_FALSE(obb_intersect(a, make_obb(2.7, 0, 0, 0.2, 0.2)));
  EXPECT_TRUE(obb_intersect(a, make_obb(2.2, 0, M_PI / 2, 2, 0.4)));
}

TEST(Polyline, LengthAndPointAt) {
  const Polyline line({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(line.length(), 7.0);
  EXPECT_EQ(line.point_at(0.0), Vec2(0, 0));
  EXPECT_EQ(line.point_at(3.0), Vec2(3, 0));
  const Vec2 mid = line.point_at(5.0);
  EXPECT_NEAR(mid.x, 3.0, 1e-12);
  EXPECT_NEAR(mid.y, 2.0, 1e-12);
  // Clamped beyond the ends.
  EXPECT_EQ(line.point_at(100.0), Vec2(3, 4));
  EXPECT_EQ(line.point_at(-5.0), Vec2(0, 0));
}

TEST(Polyline, TangentAndHeading) {
  const Polyline line({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_NEAR(line.heading_at(1.0), 0.0, 1e-12);
  EXPECT_NEAR(line.heading_at(5.0), M_PI / 2, 1e-12);
}

TEST(Polyline, ProjectAndLateralOffset) {
  const Polyline line({{0, 0}, {10, 0}});
  EXPECT_NEAR(line.project({4.0, 3.0}), 4.0, 1e-12);
  EXPECT_NEAR(line.lateral_offset({4.0, 3.0}), 3.0, 1e-12);   // left positive
  EXPECT_NEAR(line.lateral_offset({4.0, -2.0}), -2.0, 1e-12);
  EXPECT_NEAR(line.project({-3.0, 1.0}), 0.0, 1e-12);  // clamps to start
}

class PolylineProjectProperty : public ::testing::TestWithParam<double> {};

TEST_P(PolylineProjectProperty, ProjectionIsNearestPoint) {
  const Polyline line({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const double s = GetParam();
  const Vec2 on_line = line.point_at(s);
  // Projection of a point on the line recovers (approximately) s.
  EXPECT_NEAR(line.project(on_line), s, 1e-9);
  // Offsetting perpendicular keeps the projection.
  const Vec2 off = on_line + line.tangent_at(s).perp() * 0.5;
  EXPECT_NEAR(line.project(off), s, 0.51);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PolylineProjectProperty,
                         ::testing::Values(0.5, 3.0, 9.0, 12.0, 17.5, 24.0,
                                           29.0));

TEST(Polyline, CurvatureOfCircleApproximation) {
  // Approximate a radius-10 circle arc; curvature should be ~0.1.
  std::vector<Vec2> pts;
  for (int i = 0; i <= 60; ++i) {
    const double a = i * M_PI / 60.0;
    pts.push_back({10.0 * std::cos(a), 10.0 * std::sin(a)});
  }
  const Polyline arc(pts);
  EXPECT_NEAR(std::abs(arc.curvature_at(arc.length() / 2)), 0.1, 0.02);
}

TEST(Polyline, StraightHasZeroCurvature) {
  const Polyline line({{0, 0}, {5, 0}, {10, 0}, {20, 0}});
  EXPECT_NEAR(line.curvature_at(10.0), 0.0, 1e-9);
}

}  // namespace
}  // namespace dav
