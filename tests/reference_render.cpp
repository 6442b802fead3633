// Test-only reference renderer: the camera renderer as it was before its
// hot path was hoisted (per-point cos/sin, per-quad route searches, per-pixel
// Image::get/set, per-comparison NPC states, per-pixel noise arithmetic).
// The oracle tests compare CameraRenderer::render against it byte for byte.
#include "reference_render.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dav {

namespace {

/// Point in the camera frame: x forward, y left, z up (meters).
struct CamPoint {
  double x = 0.0, y = 0.0, z = 0.0;
};

struct Projector {
  double f = 0.0, cx = 0.0, cy = 0.0;
  Pose2 cam_pose;      // world pose of the camera (pos + yaw)
  double mount_height = 0.0;

  CamPoint to_cam(const Vec2& world, double height_above_ground) const {
    const Vec2 local = cam_pose.to_local(world);
    return {local.x, local.y, height_above_ground - mount_height};
  }

  /// Perspective projection. Caller must ensure p.x > 0.
  void project(const CamPoint& p, double& u, double& v) const {
    u = cx - f * p.y / p.x;
    v = cy - f * p.z / p.x;
  }
};

/// Scanline-fill a convex quad given in image coordinates. Vertices with
/// camera-space x <= kNearClip must be filtered by the caller.
void fill_quad(Image& img, const double ux[4], const double vy[4], Rgb color) {
  double v_lo = std::numeric_limits<double>::infinity();
  double v_hi = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < 4; ++i) {
    v_lo = std::min(v_lo, vy[i]);
    v_hi = std::max(v_hi, vy[i]);
  }
  const int row_lo = std::max(0, static_cast<int>(std::floor(v_lo)));
  const int row_hi = std::min(img.height() - 1, static_cast<int>(std::ceil(v_hi)));
  for (int row = row_lo; row <= row_hi; ++row) {
    const double y = row + 0.5;
    double x_lo = std::numeric_limits<double>::infinity();
    double x_hi = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (int i = 0; i < 4; ++i) {
      const int j = (i + 1) % 4;
      const double y0 = vy[i];
      const double y1 = vy[j];
      if ((y0 <= y && y1 >= y) || (y1 <= y && y0 >= y)) {
        const double denom = y1 - y0;
        const double t = std::abs(denom) < 1e-12 ? 0.0 : (y - y0) / denom;
        const double x = ux[i] + t * (ux[j] - ux[i]);
        x_lo = std::min(x_lo, x);
        x_hi = std::max(x_hi, x);
        any = true;
      }
    }
    if (!any) continue;
    const int col_lo = std::max(0, static_cast<int>(std::floor(x_lo)));
    const int col_hi = std::min(img.width() - 1, static_cast<int>(std::ceil(x_hi) - 1));
    for (int col = col_lo; col <= col_hi; ++col) img.set(col, row, color);
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

/// Draw a quad strip along the route between lateral offsets [lat0, lat1].
void draw_route_strip(Image& img, const Projector& pr, const RoadMap& map,
                      double s_begin, double s_end, double lat0, double lat1,
                      Rgb color, bool dashed = false, double dash_on = 2.0,
                      double dash_period = 4.0) {
  const Polyline& route = map.route();
  const double step = dashed ? std::min(kRoadStep, dash_on) : kRoadStep;
  for (double s = s_begin; s < s_end; s += step) {
    if (dashed && std::fmod(s, dash_period) >= dash_on) continue;
    const double s2 = std::min(s + step, s_end);
    const Vec2 left_a = route.tangent_at(s).perp();
    const Vec2 left_b = route.tangent_at(s2).perp();
    const Vec2 pa = route.point_at(s);
    const Vec2 pb = route.point_at(s2);
    const CamPoint corners[4] = {
        pr.to_cam(pa + left_a * lat0, 0.0), pr.to_cam(pa + left_a * lat1, 0.0),
        pr.to_cam(pb + left_b * lat1, 0.0), pr.to_cam(pb + left_b * lat0, 0.0)};
    bool visible = true;
    double ux[4], vy[4];
    for (int i = 0; i < 4; ++i) {
      if (corners[i].x <= kNearClip) {
        visible = false;
        break;
      }
      pr.project(corners[i], ux[i], vy[i]);
    }
    if (!visible) continue;
    const double dist = corners[0].x;
    fill_quad(img, ux, vy, shade(color, dist));
  }
}

}  // namespace

Image reference_render(const CameraModel& model_, double texture_strength_,
                       const World& world, Rng& noise) {
  const int w = model_.width;
  const int h = model_.height;
  Image img(w, h);

  Projector pr;
  pr.f = model_.focal_px();
  pr.cx = w * 0.5;
  pr.cy = h * 0.5;
  pr.cam_pose.pos = world.ego().pose.pos;
  pr.cam_pose.yaw = wrap_angle(world.ego().pose.yaw + model_.yaw_offset);
  pr.mount_height = model_.mount_height;

  // 1. Background: sky gradient above the horizon, ground below.
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
    for (int x = 0; x < w; ++x) img.set(x, y, c);
  }

  const RoadMap& map = world.map();
  const double ego_s = world.ego_route_s();
  const double s0 = std::max(0.0, ego_s - 8.0);
  const double s1 = std::min(map.route().length(), ego_s + kRenderAhead);
  const double lane_w = map.lane_width();
  const double left_edge = (map.num_left_lanes() + 0.5) * lane_w;
  const double right_edge = -(map.num_right_lanes() + 0.5) * lane_w;

  // 2. Road surface, then lane markings on top.
  draw_route_strip(img, pr, map, s0, s1, right_edge, left_edge, {95, 95, 98});
  // Solid edge lines.
  draw_route_strip(img, pr, map, s0, s1, left_edge - 0.18, left_edge,
                   {225, 225, 225});
  draw_route_strip(img, pr, map, s0, s1, right_edge, right_edge + 0.18,
                   {225, 225, 225});
  // Dashed separators between lanes (short cycle so several dashes are
  // always visible in any depth band).
  for (int lane = -map.num_right_lanes(); lane < map.num_left_lanes(); ++lane) {
    const double lat = (lane + 0.5) * lane_w;
    draw_route_strip(img, pr, map, s0, s1, lat - 0.09, lat + 0.09,
                     {230, 230, 230}, /*dashed=*/true, /*dash_on=*/1.6,
                     /*dash_period=*/3.0);
  }

  // 3. Traffic light ahead (stop-line gantry with a colored head). When the
  // light is not green, the stop line itself is painted red across the road —
  // this is the ground-plane cue the perception pipeline ranges against.
  if (auto light = map.next_light_after(ego_s)) {
    if (light->s - ego_s < 100.0) {
      Rgb head{40, 200, 60};
      const auto phase = light->phase_at(world.time());
      if (phase == TrafficLight::Phase::kYellow) head = {235, 200, 40};
      if (phase == TrafficLight::Phase::kRed) head = {235, 40, 40};
      if (phase != TrafficLight::Phase::kGreen) {
        draw_route_strip(img, pr, map, std::max(s0, light->s - 0.7),
                         std::min(s1, light->s + 0.7), right_edge, left_edge,
                         {210, 35, 35});
      }
      const Vec2 base =
          map.route().point_at(light->s) +
          map.route().tangent_at(light->s).perp() * (left_edge + 0.6);
      const CamPoint top = pr.to_cam(base, 4.6);
      if (top.x > kNearClip) {
        double u, v;
        pr.project(top, u, v);
        const double size = pr.f * 0.9 / top.x;  // ~0.9 m head box
        const double ux[4] = {u - size, u + size, u + size, u - size};
        const double vy[4] = {v - size, v - size, v + size, v + size};
        fill_quad(img, ux, vy, head);
        // Pole.
        const CamPoint bot = pr.to_cam(base, 0.0);
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
  }

  // 4. Vehicles as billboards, far to near.
  std::vector<const NpcVehicle*> order;
  for (const auto& npc : world.npcs()) order.push_back(&npc);
  std::sort(order.begin(), order.end(), [&](const NpcVehicle* a,
                                            const NpcVehicle* b) {
    return distance(a->state(map).pose.pos, pr.cam_pose.pos) >
           distance(b->state(map).pose.pos, pr.cam_pose.pos);
  });
  for (const NpcVehicle* npc : order) {
    const VehicleState st = npc->state(map);
    // Billboard anchored at the rear face of the vehicle (what a follower
    // actually sees), so close-range geometry stays visible and rangeable.
    const Vec2 rear_pos =
        st.pose.pos - st.pose.forward() * (npc->spec().length * 0.5);
    const CamPoint base = pr.to_cam(rear_pos, 0.0);
    if (base.x <= kNearClip) continue;
    double u, v_bottom;
    pr.project(base, u, v_bottom);
    const double depth = base.x;
    // Apparent width interpolates between the vehicle's width and length
    // depending on the viewing angle.
    const double rel_yaw = std::abs(wrap_angle(st.pose.yaw - pr.cam_pose.yaw));
    const double apparent =
        npc->spec().width +
        (npc->spec().length - npc->spec().width) * std::abs(std::sin(rel_yaw));
    const double half_w = 0.5 * pr.f * apparent / depth;
    const double height_px = pr.f * 1.5 / depth;  // 1.5 m body height
    const double ux[4] = {u - half_w, u + half_w, u + half_w, u - half_w};
    const double vy[4] = {v_bottom - height_px, v_bottom - height_px, v_bottom,
                          v_bottom};
    fill_quad(img, ux, vy, shade(npc_color(npc->id()), depth));
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
  const bool textured = texture_strength_ > 0.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      Rgb c = img.get(x, y);
      double extra = 0.0;
      if (textured && y > h / 2) {
        // Approximate world anchor of this ground pixel for the center
        // camera: depth from the row, lateral from the column.
        const double depth = pr.f * model_.mount_height / (y - h * 0.5 + 0.5);
        const double lon = world.ego_route_s() + depth;
        const double lat = (pr.cx - x) * depth / pr.f;
        const std::uint32_t hv =
            hash2(static_cast<std::int32_t>(std::floor(lon * 2.0)),
                  static_cast<std::int32_t>(std::floor(lat * 2.0)));
        extra = texture_strength_ * ((hv & 0xFF) / 255.0 - 0.5) * 2.0;
      }
      // One RNG draw per pixel: three byte lanes give per-channel uniform
      // dither scaled to the configured sigma (campaigns render millions of
      // frames, so per-channel Gaussian draws are too slow).
      const std::uint64_t r = noise();
      const double scale = model_.noise_sigma / 74.0;  // byte lane std -> sigma
      const auto jitter = [&](std::uint8_t ch, int lane) {
        const double n =
            (static_cast<int>((r >> (8 * lane)) & 0xFF) - 128) * scale;
        return static_cast<std::uint8_t>(clamp(ch + n + extra * 18.0, 0.0, 255.0));
      };
      img.set(x, y, {jitter(c.r, 0), jitter(c.g, 1), jitter(c.b, 2)});
    }
  }
  return img;
}

}  // namespace dav
