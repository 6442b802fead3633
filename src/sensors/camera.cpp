#include "sensors/camera.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace dav {

double CameraModel::focal_px() const {
  return width / (2.0 * std::tan(fov_deg * M_PI / 360.0));
}

namespace {

/// Point in the camera frame: x forward, y left, z up (meters).
struct CamPoint {
  double x = 0.0, y = 0.0, z = 0.0;
};

/// World-to-image projection for one camera pose. The rotation into the
/// camera frame is Pose2::to_local's, with its cos/sin computed once per
/// frame instead of once per projected point.
struct Projector {
  double f = 0.0, cx = 0.0, cy = 0.0;
  Pose2 cam_pose;      // world pose of the camera (pos + yaw)
  double mount_height = 0.0;
  double rot_cos = 1.0, rot_sin = 0.0;  // of -cam_pose.yaw

  Projector(const CameraModel& model, const Pose2& ego)
      : f(model.focal_px()), cx(model.width * 0.5), cy(model.height * 0.5),
        cam_pose{ego.pos, wrap_angle(ego.yaw + model.yaw_offset)},
        mount_height(model.mount_height),
        rot_cos(std::cos(-cam_pose.yaw)), rot_sin(std::sin(-cam_pose.yaw)) {}

  CamPoint to_cam(const Vec2& world, double height_above_ground) const {
    const Vec2 d = world - cam_pose.pos;
    return {rot_cos * d.x - rot_sin * d.y, rot_sin * d.x + rot_cos * d.y,
            height_above_ground - mount_height};
  }

  /// Perspective projection. Caller must ensure p.x > 0.
  void project(const CamPoint& p, double& u, double& v) const {
    u = cx - f * p.y / p.x;
    v = cy - f * p.z / p.x;
  }
};

/// Paint pixels [col_lo, col_hi] of one row. An empty span touches nothing:
/// col_lo may lie past the row's end. Long spans are copied 8 pixels at a
/// time from a run of the color.
void fill_span(Image& img, int row, int col_lo, int col_hi, Rgb color) {
  if (col_lo > col_hi) return;
  std::uint8_t* p = img.row(row) + 3 * static_cast<std::size_t>(col_lo);
  std::uint8_t* const end = p + 3 * static_cast<std::size_t>(col_hi - col_lo + 1);
  constexpr std::ptrdiff_t kRunBytes = 24;
  if (end - p >= 2 * kRunBytes) {
    std::uint8_t run[kRunBytes];
    for (std::ptrdiff_t i = 0; i < kRunBytes; i += 3) {
      run[i] = color.r;
      run[i + 1] = color.g;
      run[i + 2] = color.b;
    }
    for (; end - p >= kRunBytes; p += kRunBytes) std::memcpy(p, run, kRunBytes);
  }
  for (; p != end; p += 3) {
    p[0] = color.r;
    p[1] = color.g;
    p[2] = color.b;
  }
}

/// Scanline-fill a convex quad given in image coordinates. Vertices with
/// camera-space x <= kNearClip must be filtered by the caller.
void fill_quad(Image& img, const double ux[4], const double vy[4], Rgb color) {
  double v_lo = std::numeric_limits<double>::infinity();
  double v_hi = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < 4; ++i) {
    v_lo = std::min(v_lo, vy[i]);
    v_hi = std::max(v_hi, vy[i]);
  }
  int row_lo = std::max(0, static_cast<int>(std::floor(v_lo)));
  int row_hi = std::min(img.height() - 1, static_cast<int>(std::ceil(v_hi)));
  // A row whose center lies outside [v_lo, v_hi] meets no edge.
  while (row_lo <= row_hi && row_lo + 0.5 < v_lo) ++row_lo;
  while (row_lo <= row_hi && row_hi + 0.5 > v_hi) --row_hi;
  if (row_lo > row_hi) return;
  // Edge i runs from vertex i to vertex i + 1 and meets the rows whose
  // center y lies in [y_min, y_max], at x = u0 + t * du with
  // t = (y - y0) / dy (0 for a flat edge).
  struct Edge {
    double y_min = 0.0, y_max = 0.0, y0 = 0.0, dy = 0.0, u0 = 0.0, du = 0.0;
    bool flat = false;
  };
  Edge edges[4];
  for (int i = 0; i < 4; ++i) {
    const int j = (i + 1) % 4;
    const double dy = vy[j] - vy[i];
    edges[i] = {std::min(vy[i], vy[j]), std::max(vy[i], vy[j]), vy[i], dy,
                ux[i], ux[j] - ux[i], std::abs(dy) < 1e-12};
  }
  for (int row = row_lo; row <= row_hi; ++row) {
    const double y = row + 0.5;
    double x_lo = std::numeric_limits<double>::infinity();
    double x_hi = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (const Edge& e : edges) {
      if (e.y_min <= y && y <= e.y_max) {
        const double t = e.flat ? 0.0 : (y - e.y0) / e.dy;
        const double x = e.u0 + t * e.du;
        x_lo = std::min(x_lo, x);
        x_hi = std::max(x_hi, x);
        any = true;
      }
    }
    if (!any) continue;
    const int col_lo = std::max(0, static_cast<int>(std::floor(x_lo)));
    const int col_hi = std::min(img.width() - 1, static_cast<int>(std::ceil(x_hi) - 1));
    fill_span(img, row, col_lo, col_hi, color);
  }
}

constexpr double kNearClip = 0.5;
constexpr double kRenderAhead = 120.0;  // meters of road drawn
constexpr double kRoadStep = 3.0;       // strip sampling

std::uint32_t hash2(std::int32_t a, std::int32_t b) {
  std::uint32_t h = static_cast<std::uint32_t>(a) * 0x85ebca6bu ^
                    static_cast<std::uint32_t>(b) * 0xc2b2ae35u;
  h ^= h >> 13;
  h *= 0x27d4eb2fu;
  h ^= h >> 15;
  return h;
}

Rgb shade(Rgb c, double dist) {
  const double k = 1.0 / (1.0 + 0.012 * dist);
  return {static_cast<std::uint8_t>(c.r * k), static_cast<std::uint8_t>(c.g * k),
          static_cast<std::uint8_t>(c.b * k)};
}

Rgb npc_color(int id) {
  // Scenario-scripted NPCs keep the paper's palette (blue / gray); background
  // traffic gets deterministic per-id colors.
  if (id == 1) return {40, 60, 200};
  if (id == 2) return {120, 120, 130};
  const std::uint32_t h = hash2(id, 977);
  return {static_cast<std::uint8_t>(45 + (h & 0x5F)),
          static_cast<std::uint8_t>(45 + ((h >> 8) & 0x5F)),
          static_cast<std::uint8_t>(45 + ((h >> 16) & 0x5F))};
}

/// Route sample at one grid point of a strip.
struct GridPoint {
  double s = 0.0;
  Polyline::Sample at;
};

/// The grid points of a quad strip over [s_begin, s_end): s_begin,
/// s_begin + step, ... while below s_end, then s_end. Quad k spans points k
/// and k + 1; strips over the same range and step share one grid.
std::vector<GridPoint> route_grid(const Polyline& route, double s_begin,
                                  double s_end, double step) {
  std::vector<GridPoint> grid;
  for (double s = s_begin; s < s_end; s += step) {
    grid.push_back({s, route.sample_at(s)});
  }
  if (!grid.empty()) grid.push_back({s_end, route.sample_at(s_end)});
  return grid;
}

/// Appends the rail at lateral offset `lat` along `grid` (its world point at
/// each grid point) and returns the index of its first point.
std::size_t add_rail(std::vector<Vec2>& rail_points,
                     const std::vector<GridPoint>& grid, double lat) {
  const std::size_t first = rail_points.size();
  for (const GridPoint& g : grid) {
    rail_points.push_back(g.at.point + g.at.tangent.perp() * lat);
  }
  return first;
}

/// A rail point in one camera: its camera-frame depth x and, when it lies
/// beyond the near clip plane, its image position.
struct RailPixel {
  double x = 0.0;
  double u = 0.0;
  double v = 0.0;
};

/// True when a quad with these image x coordinates fills no pixel of a row
/// `width` pixels wide. fill_quad's span ends are interpolated between two
/// of the corners, so a span lies within the corners' x range up to a
/// rounding error of far less than the one pixel of margin used here while
/// the range is narrower than 1e15 pixels.
bool off_image(const double ux[4], int width) {
  const double lo = std::min(std::min(ux[0], ux[1]), std::min(ux[2], ux[3]));
  const double hi = std::max(std::max(ux[0], ux[1]), std::max(ux[2], ux[3]));
  return (hi < -1.0 && lo > -1e15) || (lo > width + 1.0 && hi < 1e15);
}

/// Draw the quads of a strip between rails `a` and `b` (`points` grid points
/// each) as projected by one camera. A dashed strip skips the quads whose
/// `gap` entry is set.
void draw_strip(Image& img, const RailPixel* a, const RailPixel* b,
                std::size_t points, const std::uint8_t* gap, Rgb color) {
  for (std::size_t k = 0; k + 1 < points; ++k) {
    if (gap != nullptr && gap[k] != 0) continue;
    const RailPixel* corners[4] = {&a[k], &b[k], &b[k + 1], &a[k + 1]};
    bool visible = true;
    double ux[4], vy[4];
    for (int i = 0; i < 4; ++i) {
      if (corners[i]->x <= kNearClip) {
        visible = false;
        break;
      }
      ux[i] = corners[i]->u;
      vy[i] = corners[i]->v;
    }
    if (!visible || off_image(ux, img.width())) continue;
    fill_quad(img, ux, vy, shade(color, a[k].x));
  }
}

}  // namespace

RenderScene::RenderScene(const World& world)
    : ego_pose_(world.ego().pose), ego_s_(world.ego_route_s()) {
  const RoadMap& map = world.map();
  const Polyline& route = map.route();
  const double s0 = std::max(0.0, ego_s_ - 8.0);
  const double s1 = std::min(route.length(), ego_s_ + kRenderAhead);
  const double lane_w = map.lane_width();
  const double left_edge = (map.num_left_lanes() + 0.5) * lane_w;
  const double right_edge = -(map.num_right_lanes() + 0.5) * lane_w;

  // Road surface, then lane markings on top.
  const std::vector<GridPoint> road = route_grid(route, s0, s1, kRoadStep);
  const std::size_t right = add_rail(rail_points_, road, right_edge);
  const std::size_t left = add_rail(rail_points_, road, left_edge);
  strips_.push_back({right, left, road.size(), {95, 95, 98}});
  // Solid edge lines.
  strips_.push_back({add_rail(rail_points_, road, left_edge - 0.18), left,
                     road.size(), {225, 225, 225}});
  strips_.push_back({right, add_rail(rail_points_, road, right_edge + 0.18),
                     road.size(), {225, 225, 225}});
  // Dashed separators between lanes (short cycle so several dashes are
  // always visible in any depth band). A quad whose start lies in a gap is
  // skipped.
  constexpr double kDashOn = 1.6;
  constexpr double kDashPeriod = 3.0;
  const std::vector<GridPoint> dashes =
      route_grid(route, s0, s1, std::min(kRoadStep, kDashOn));
  for (std::size_t k = 0; k + 1 < dashes.size(); ++k) {
    dash_gap_.push_back(std::fmod(dashes[k].s, kDashPeriod) >= kDashOn);
  }
  for (int lane = -map.num_right_lanes(); lane < map.num_left_lanes(); ++lane) {
    const double lat = (lane + 0.5) * lane_w;
    strips_.push_back({add_rail(rail_points_, dashes, lat - 0.09),
                       add_rail(rail_points_, dashes, lat + 0.09),
                       dashes.size(), {230, 230, 230}, /*dashed=*/true});
  }

  // Traffic light ahead (stop-line gantry with a colored head). When the
  // light is not green, the stop line itself is painted red across the road —
  // this is the ground-plane cue the perception pipeline ranges against.
  if (auto light = map.next_light_after(ego_s_)) {
    if (light->s - ego_s_ < 100.0) {
      light_ = true;
      light_head_ = {40, 200, 60};
      const auto phase = light->phase_at(world.time());
      if (phase == TrafficLight::Phase::kYellow) light_head_ = {235, 200, 40};
      if (phase == TrafficLight::Phase::kRed) light_head_ = {235, 40, 40};
      if (phase != TrafficLight::Phase::kGreen) {
        const std::vector<GridPoint> stop =
            route_grid(route, std::max(s0, light->s - 0.7),
                       std::min(s1, light->s + 0.7), kRoadStep);
        strips_.push_back({add_rail(rail_points_, stop, right_edge),
                           add_rail(rail_points_, stop, left_edge),
                           stop.size(), {210, 35, 35}});
      }
      light_base_ = route.point_at(light->s) +
                    route.tangent_at(light->s).perp() * (left_edge + 0.6);
    }
  }

  // Vehicles as billboards, far to near.
  billboards_.reserve(world.npcs().size());
  for (const auto& npc : world.npcs()) {
    const VehicleState st = npc.state(map);
    // Billboard anchored at the rear face of the vehicle (what a follower
    // actually sees), so close-range geometry stays visible and rangeable.
    billboards_.push_back(
        {st.pose.pos - st.pose.forward() * (npc.spec().length * 0.5),
         st.pose.yaw, npc.spec().width, npc.spec().length, npc_color(npc.id()),
         distance(st.pose.pos, ego_pose_.pos)});
  }
  std::sort(billboards_.begin(), billboards_.end(),
            [](const Billboard& a, const Billboard& b) { return a.dist > b.dist; });
}

CameraRenderer::CameraRenderer(CameraModel model)
    : model_(model),
      noise_(model.noise_sigma,
             static_cast<std::size_t>(model.width) * model.height),
      background_(model.width, model.height) {
  // Sky gradient above the horizon, ground below.
  const int h = model.height;
  for (int y = 0; y < h; ++y) {
    Rgb c;
    if (y < h / 2) {
      const auto t = static_cast<double>(y) / (h / 2);
      c = {static_cast<std::uint8_t>(110 - 30 * t),
           static_cast<std::uint8_t>(150 - 30 * t),
           static_cast<std::uint8_t>(220 - 40 * t)};
    } else {
      c = {62, 86, 48};  // grass
    }
    fill_span(background_, y, 0, model.width - 1, c);
  }
}

Image CameraRenderer::render(const World& world, Rng& noise) const {
  return render(RenderScene(world), noise);
}

Image CameraRenderer::render(const RenderScene& scene, Rng& noise) const {
  const int w = model_.width;
  const int h = model_.height;
  // 1. Background, the same in every frame.
  Image img = background_;
  const Projector pr(model_, scene.ego_pose_);

  // 2. Road surface, lane markings and stop line: each rail point is
  // projected once and shared by the quads on both of its sides.
  std::vector<RailPixel> rails(scene.rail_points_.size());
  for (std::size_t i = 0; i < rails.size(); ++i) {
    const CamPoint p = pr.to_cam(scene.rail_points_[i], 0.0);
    rails[i].x = p.x;
    if (p.x > kNearClip) pr.project(p, rails[i].u, rails[i].v);
  }
  for (const RenderScene::Strip& strip : scene.strips_) {
    draw_strip(img, rails.data() + strip.rail0, rails.data() + strip.rail1,
               strip.points, strip.dashed ? scene.dash_gap_.data() : nullptr,
               strip.color);
  }

  // 3. Traffic-light head and pole.
  if (scene.light_) {
    const CamPoint top = pr.to_cam(scene.light_base_, 4.6);
    if (top.x > kNearClip) {
      double u, v;
      pr.project(top, u, v);
      const double size = pr.f * 0.9 / top.x;  // ~0.9 m head box
      const double ux[4] = {u - size, u + size, u + size, u - size};
      const double vy[4] = {v - size, v - size, v + size, v + size};
      fill_quad(img, ux, vy, scene.light_head_);
      // Pole.
      const CamPoint bot = pr.to_cam(scene.light_base_, 0.0);
      if (bot.x > kNearClip) {
        double ub, vb;
        pr.project(bot, ub, vb);
        const double pw = std::max(1.0, pr.f * 0.12 / top.x);
        const double pux[4] = {ub - pw, ub + pw, u + pw, u - pw};
        const double pvy[4] = {vb, vb, v + size, v + size};
        fill_quad(img, pux, pvy, {70, 70, 70});
      }
    }
  }

  // 4. Vehicles as billboards, far to near.
  for (const RenderScene::Billboard& bb : scene.billboards_) {
    const CamPoint base = pr.to_cam(bb.rear, 0.0);
    if (base.x <= kNearClip) continue;
    double u, v_bottom;
    pr.project(base, u, v_bottom);
    const double depth = base.x;
    // Apparent width interpolates between the vehicle's width and length
    // depending on the viewing angle.
    const double rel_yaw = std::abs(wrap_angle(bb.yaw - pr.cam_pose.yaw));
    const double apparent =
        bb.width + (bb.length - bb.width) * std::abs(std::sin(rel_yaw));
    const double half_w = 0.5 * pr.f * apparent / depth;
    const double height_px = pr.f * 1.5 / depth;  // 1.5 m body height
    const double ux[4] = {u - half_w, u + half_w, u + half_w, u - half_w};
    const double vy[4] = {v_bottom - height_px, v_bottom - height_px, v_bottom,
                          v_bottom};
    fill_quad(img, ux, vy, shade(bb.color, depth));
    // Windshield band to give the blob structure.
    const double wy[4] = {v_bottom - height_px, v_bottom - height_px,
                          v_bottom - 0.7 * height_px, v_bottom - 0.7 * height_px};
    const double wx[4] = {u - 0.7 * half_w, u + 0.7 * half_w, u + 0.7 * half_w,
                          u - 0.7 * half_w};
    fill_quad(img, wx, wy, shade({30, 34, 40}, depth));
    // Dark underside / shadow at the ground contact line: a stable signature
    // for the perception pipeline's ground-plane ranging.
    const double sy[4] = {v_bottom - 0.18 * height_px, v_bottom - 0.18 * height_px,
                          v_bottom, v_bottom};
    const double sx[4] = {u - half_w, u + half_w, u + half_w, u - half_w};
    fill_quad(img, sx, sy, {22, 22, 26});
  }

  // 5. World-anchored texture (KITTI-like realism) and photometric noise.
  // One RNG draw per pixel: three byte lanes give per-channel uniform dither
  // scaled to the configured sigma (campaigns render millions of frames, so
  // per-channel Gaussian draws are too slow). An untextured frame is one
  // noise pass (sensors/noise.h).
  if (texture_strength_ <= 0.0) {
    noise_.apply(img.row(0), noise);
    return img;
  }
  const double scale = model_.noise_sigma / 74.0;  // byte lane std -> sigma
  const std::uint8_t* const table = noise_.pixel_noise().table();
  Rng rng = noise;
  for (int y = 0; y < h; ++y) {
    std::uint8_t* p = img.row(y);
    if (y <= h / 2) {
      add_noise_scalar(table, p, static_cast<std::size_t>(w), rng);
      continue;
    }
    // Approximate world anchor of this ground row for the center camera:
    // depth from the row, lateral from the column.
    const double depth = pr.f * model_.mount_height / (y - h * 0.5 + 0.5);
    const double lon = scene.ego_s_ + depth;
    for (int x = 0; x < w; ++x, p += 3) {
      const double lat = (pr.cx - x) * depth / pr.f;
      const std::uint32_t hv =
          hash2(static_cast<std::int32_t>(std::floor(lon * 2.0)),
                static_cast<std::int32_t>(std::floor(lat * 2.0)));
      const double extra = texture_strength_ * ((hv & 0xFF) / 255.0 - 0.5) * 2.0;
      const std::uint64_t r = rng();
      const auto jitter = [&](std::uint8_t ch, int lane) {
        const double n =
            (static_cast<int>((r >> (8 * lane)) & 0xFF) - 128) * scale;
        return static_cast<std::uint8_t>(clamp(ch + n + extra * 18.0, 0.0, 255.0));
      };
      p[0] = jitter(p[0], 0);
      p[1] = jitter(p[1], 1);
      p[2] = jitter(p[2], 2);
    }
  }
  noise = rng;
  return img;
}

BBox2 CameraRenderer::project_npc(const World& world,
                                  const NpcVehicle& npc) const {
  const Projector pr(model_, world.ego().pose);

  const VehicleState st = npc.state(world.map());
  const Vec2 rear_pos =
      st.pose.pos - st.pose.forward() * (npc.spec().length * 0.5);
  const CamPoint base = pr.to_cam(rear_pos, 0.0);
  BBox2 box;
  if (base.x <= kNearClip) return box;
  double u, v_bottom;
  pr.project(base, u, v_bottom);
  const double rel_yaw = std::abs(wrap_angle(st.pose.yaw - pr.cam_pose.yaw));
  const double apparent =
      npc.spec().width +
      (npc.spec().length - npc.spec().width) * std::abs(std::sin(rel_yaw));
  const double half_w = 0.5 * pr.f * apparent / base.x;
  const double height_px = pr.f * 1.5 / base.x;
  box.x_min = u - half_w;
  box.x_max = u + half_w;
  box.y_min = v_bottom - height_px;
  box.y_max = v_bottom;
  if (box.x_max < 0 || box.x_min > model_.width || box.y_max < 0 ||
      box.y_min > model_.height) {
    return {};
  }
  return box;
}

std::vector<CameraModel> front_camera_rig(int width, int height,
                                          double noise_sigma) {
  CameraModel left, center, right;
  left.yaw_offset = M_PI / 4.0;
  right.yaw_offset = -M_PI / 4.0;
  for (CameraModel* m : {&left, &center, &right}) {
    m->width = width;
    m->height = height;
    m->noise_sigma = noise_sigma;
  }
  return {left, center, right};
}

}  // namespace dav
