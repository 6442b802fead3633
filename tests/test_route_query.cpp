// Route queries against the arithmetic they replaced: a binary search over
// the cumulative lengths for the segment at arc length s, tangents from
// normalized() and headings from atan2 at each query, a scan of every
// segment for the projection, std::fmod for the dash phase and a box per
// NPC pair. Doubles compare bit for bit, NaN included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sensors/camera.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "util/geometry.h"
#include "util/rng.h"

namespace dav {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

#define EXPECT_SAME(a, b) EXPECT_EQ(bits(a), bits(b))
#define EXPECT_SAME_VEC(a, b) \
  do {                        \
    EXPECT_SAME((a).x, (b).x); \
    EXPECT_SAME((a).y, (b).y); \
  } while (0)

/// The queries as Polyline computed them before its tables: every one
/// searches the cumulative lengths, and project() scans every segment.
class ReferenceRoute {
 public:
  explicit ReferenceRoute(const Polyline& line) : points_(line.points()) {
    double s = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (i > 0) s += distance(points_[i - 1], points_[i]);
      cum_.push_back(s);
    }
  }

  double length() const { return cum_.empty() ? 0.0 : cum_.back(); }

  Vec2 point_at(double s) const {
    if (points_.empty()) return {};
    if (points_.size() == 1) return points_.front();
    s = clamp(s, 0.0, length());
    const std::size_t i = segment_index(s);
    const double seg_len = cum_[i + 1] - cum_[i];
    const double t = seg_len > 0.0 ? (s - cum_[i]) / seg_len : 0.0;
    return points_[i] + (points_[i + 1] - points_[i]) * t;
  }

  Polyline::Sample sample_at(double s) const {
    if (points_.size() < 2) return {point_at(s), {1.0, 0.0}};
    s = clamp(s, 0.0, length());
    const std::size_t i = segment_index(s);
    const double seg_len = cum_[i + 1] - cum_[i];
    const double t = seg_len > 0.0 ? (s - cum_[i]) / seg_len : 0.0;
    const Vec2 d = points_[i + 1] - points_[i];
    return {points_[i] + d * t, d.normalized()};
  }

  double heading_at(double s) const {
    const Vec2 t = sample_at(s).tangent;
    return std::atan2(t.y, t.x);
  }

  double project(const Vec2& p) const {
    if (points_.size() < 2) return 0.0;
    double best_d = kInf;
    double best_s = 0.0;
    for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
      const Vec2 a = points_[i];
      const Vec2 ab = points_[i + 1] - a;
      const double len_sq = ab.norm_sq();
      const double t =
          len_sq > 0.0 ? clamp((p - a).dot(ab) / len_sq, 0.0, 1.0) : 0.0;
      const double d = distance(p, a + ab * t);
      if (d < best_d) {
        best_d = d;
        best_s = cum_[i] + t * std::sqrt(len_sq);
      }
    }
    return best_s;
  }

  double lateral_offset(const Vec2& p) const {
    if (points_.size() < 2) return 0.0;
    const double s = project(p);
    return sample_at(s).tangent.cross(p - point_at(s));
  }

  const std::vector<double>& cum() const { return cum_; }

 private:
  std::size_t segment_index(double s) const {
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), s);
    const auto idx = static_cast<std::size_t>(it - cum_.begin());
    if (idx == 0) return 0;
    if (idx >= points_.size()) return points_.size() - 2;
    return idx - 1;
  }

  std::vector<Vec2> points_;
  std::vector<double> cum_;
};

std::vector<ScenarioId> all_scenarios() {
  std::vector<ScenarioId> ids = safety_scenarios();
  for (const ScenarioId id : training_scenarios()) ids.push_back(id);
  return ids;
}

/// The six scenario routes and the degenerate shapes.
std::vector<Polyline> routes() {
  std::vector<Polyline> out;
  for (const ScenarioId id : all_scenarios()) {
    out.push_back(make_scenario(id).map.route());
  }
  out.push_back(Polyline({{0, 0}, {3, 0}, {3, 0}, {3, 4}, {7.5, 4.25}}));
  out.push_back(Polyline({{1, 2}, {41, -7}}));
  out.push_back(Polyline({{5, 5}}));
  out.push_back(Polyline());
  return out;
}

/// Arc lengths to query: a dense grid past both ends, every vertex's
/// cumulative length and its neighbours, the ends, infinities and NaN.
std::vector<double> query_lengths(const ReferenceRoute& ref) {
  std::vector<double> s;
  const double len = ref.length();
  for (double v = -5.0; v < len + 5.0; v += 0.37) s.push_back(v);
  for (const double c : ref.cum()) {
    s.push_back(c);
    s.push_back(std::nextafter(c, -kInf));
    s.push_back(std::nextafter(c, kInf));
  }
  for (const double v : {0.0, -0.0, len, std::nextafter(len, kInf), len + 1e6,
                         -1e-300, -7.0, kInf, -kInf, kNaN}) {
    s.push_back(v);
  }
  return s;
}

TEST(RouteQuery, SamplesMatchTheSearch) {
  for (const Polyline& line : routes()) {
    const ReferenceRoute ref(line);
    EXPECT_SAME(line.length(), ref.length());
    for (const double s : query_lengths(ref)) {
      SCOPED_TRACE(testing::Message() << "points " << line.size() << " s " << s);
      EXPECT_SAME_VEC(line.point_at(s), ref.point_at(s));
      const Polyline::Sample got = line.sample_at(s);
      const Polyline::Sample want = ref.sample_at(s);
      EXPECT_SAME_VEC(got.point, want.point);
      EXPECT_SAME_VEC(got.tangent, want.tangent);
      EXPECT_SAME_VEC(line.tangent_at(s), want.tangent);
      EXPECT_SAME(line.heading_at(s), ref.heading_at(s));
    }
  }
}

/// Checks project() and lateral_offset() at p against the full scan.
void expect_projection(const Polyline& line, const ReferenceRoute& ref,
                       const Vec2& p) {
  SCOPED_TRACE(testing::Message()
               << "points " << line.size() << " p " << p.x << "," << p.y);
  const double s = line.project(p);
  EXPECT_SAME(s, ref.project(p));
  EXPECT_SAME(line.lateral_offset(p), ref.lateral_offset(p));
  EXPECT_SAME(line.lateral_offset(p, s), ref.lateral_offset(p));
}

TEST(RouteQuery, ProjectMatchesTheFullScan) {
  Rng rng(2022);
  for (const Polyline& line : routes()) {
    const ReferenceRoute ref(line);
    // Random points within 200 m of the route.
    for (int k = 0; k < 3000; ++k) {
      const Vec2 on = line.point_at(rng.uniform(0.0, ref.length()));
      const double r = 200.0 * std::sqrt(rng.uniform());
      const double a = rng.uniform(-M_PI, M_PI);
      expect_projection(line, ref, on + Vec2{std::cos(a), std::sin(a)} * r);
    }
    const auto& pts = line.points();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      // On a vertex, which two segments share.
      expect_projection(line, ref, pts[i]);
      // On the bisector of a turn: as far from both of its segments.
      if (i == 0 || i + 1 >= pts.size()) continue;
      const Vec2 in = (pts[i] - pts[i - 1]).normalized();
      const Vec2 out = (pts[i + 1] - pts[i]).normalized();
      const Vec2 bisector = (out - in).normalized();
      for (const double h : {0.01, 0.3, 1.0, 5.0}) {
        expect_projection(line, ref, pts[i] + bisector * h);
        expect_projection(line, ref, pts[i] - bisector * h);
      }
    }
    // Far away, and not a point at all.
    for (const Vec2 p : {Vec2{1e5, -1e5}, Vec2{-3e6, 2.5}, Vec2{1e12, 1e12},
                         Vec2{kInf, 0.0}, Vec2{kNaN, 1.0}, Vec2{0.0, -kInf}}) {
      expect_projection(line, ref, p);
    }
  }
}

TEST(RouteQuery, ProjectKeepsTheFirstOfTiedSegments) {
  // Out along the x axis and back over the same points: each point is as
  // close to a segment of the way back, in a later run of segments, as to
  // one of the way out.
  std::vector<Vec2> pts;
  for (int i = 0; i <= 40; ++i) pts.push_back({static_cast<double>(i), 0.0});
  for (int i = 39; i >= 0; --i) pts.push_back({static_cast<double>(i), 0.0});
  // A right-angle corner, whose diagonal is as far from both legs.
  for (int i = 1; i <= 20; ++i) pts.push_back({0.0, static_cast<double>(i)});
  const Polyline line(pts);
  const ReferenceRoute ref(line);
  for (double x = -2.0; x <= 42.0; x += 0.25) {
    for (const double y : {0.0, 0.5, -3.0, 17.0}) {
      expect_projection(line, ref, {x, y});
    }
  }
  for (double d = 0.0; d <= 20.0; d += 0.5) {
    expect_projection(line, ref, {-d, d});
    expect_projection(line, ref, {d, d});
  }
  // The way out wins every tie: the first hit is its earliest segment.
  EXPECT_EQ(line.project({7.0, 1.0}), 7.0);
}

TEST(RouteQuery, DashPhaseIsFmod) {
  // Grids accumulated as RenderScene samples the dashes: s += 1.6 from s0.
  Rng rng(7);
  std::vector<double> starts = {0.0, 0.1, 1.4, 1.6, 2.9, 3.0, 8.0, 299.9};
  for (int k = 0; k < 2000; ++k) starts.push_back(rng.uniform(0.0, 3000.0));
  for (const double s0 : starts) {
    const double s1 = s0 + 128.0;
    for (double s = s0; s < s1; s += std::min(3.0, 1.6)) {
      ASSERT_EQ(bits(dash_phase(s)), bits(std::fmod(s, 3.0))) << s;
    }
  }
  // Whole multiples of the period and their neighbours, where a quotient
  // rounded onto the next whole number would show: every one up to 300 km,
  // then a sparse sweep up to 3e12 m.
  std::vector<double> ks;
  for (int k = 0; k <= 100000; ++k) ks.push_back(k);
  for (double k = 1e5; k < 1e12; k = std::floor(k * 1.37)) ks.push_back(k);
  for (const double k : ks) {
    const double m = 3.0 * k;
    for (const double s : {m, std::nextafter(m, 0.0), std::nextafter(m, kInf),
                           m + 1.6, std::nextafter(m + 1.6, 0.0)}) {
      ASSERT_EQ(bits(dash_phase(s)), bits(std::fmod(s, 3.0))) << s;
    }
  }
  for (const double s : {1e-300, 5e-324, 1e15 + 0.5, 4503599627370495.5}) {
    EXPECT_SAME(dash_phase(s), std::fmod(s, 3.0));
  }
}

TEST(RouteQuery, PairPreRejectNeverSkipsAnOverlap) {
  Rng rng(11);
  const Vec2 sizes[] = {{4.5, 2.0}, {3.6, 1.7}, {6.5, 2.5}};
  int overlaps = 0;
  int rejected = 0;
  for (int k = 0; k < 200000; ++k) {
    Obb box[2];
    for (Obb& b : box) {
      const Vec2 size = sizes[rng.uniform_index(3)];
      b.pose.pos = {rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0)};
      b.pose.yaw = rng.uniform(-M_PI, M_PI);
      b.half_length = size.x * 0.5;
      b.half_width = size.y * 0.5;
    }
    const bool overlap = obb_intersect(box[0], box[1]);
    const bool maybe = obb_may_intersect(box[0], box[1]);
    ASSERT_TRUE(maybe || !overlap) << k;
    EXPECT_EQ(maybe, obb_may_intersect(box[1], box[0]));
    overlaps += overlap ? 1 : 0;
    rejected += maybe ? 0 : 1;
  }
  // Both outcomes occur often.
  EXPECT_GT(overlaps, 10000);
  EXPECT_GT(rejected, 10000);
}

TEST(RouteQuery, WorldProjectsTheEgoOncePerStep) {
  for (const ScenarioId id : all_scenarios()) {
    SCOPED_TRACE(to_string(id));
    World world(make_scenario(id));
    const Polyline& route = world.map().route();
    bool off_road = false;
    for (int tick = 0; tick < 260; ++tick) {
      // Follow the route, then turn hard left off it.
      Actuation cmd{0.4, 0.0, 1.0};
      if (tick < 140) {
        const double heading = route.heading_at(world.ego_route_s());
        const double err = wrap_angle(heading - world.ego().pose.yaw);
        cmd.steer = clamp(2.0 * err - 0.3 * world.ego_lateral(), -1.0, 1.0);
      }
      world.step(cmd, 0.05);
      const Vec2 p = world.ego().pose.pos;
      EXPECT_SAME(world.ego_route_s(), route.project(p));
      EXPECT_SAME(world.ego_lateral(), route.lateral_offset(p));
      off_road = off_road || !world.map().on_road(p);
      ASSERT_EQ(world.flags().off_road, off_road) << "tick " << tick;
    }
    EXPECT_TRUE(off_road);
  }
}

}  // namespace
}  // namespace dav
