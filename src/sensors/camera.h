// Pinhole camera model and software rasterizer.
//
// Renders the driving scene (sky, road corridor, lane markings, vehicles,
// traffic-light gantries) from the ego vehicle's viewpoint, with per-pixel
// photometric sensor noise. Three front-facing cameras (left / center /
// right) feed the perception pipeline, as in the Sensorimotor agent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sensors/image.h"
#include "sensors/noise.h"
#include "sim/world.h"
#include "util/rng.h"

namespace dav {

struct CameraModel {
  int width = 96;
  int height = 72;
  double fov_deg = 90.0;     // horizontal field of view
  double yaw_offset = 0.0;   // mount yaw relative to vehicle heading
  double mount_height = 1.4; // meters above ground
  double noise_sigma = 2.0;  // photometric noise, 8-bit LSBs per channel

  double focal_px() const;   // fx = fy, square pixels
};

/// Rectangle in image coordinates (used for ground-truth 2-D boxes).
struct BBox2 {
  double x_min = 0, y_min = 0, x_max = 0, y_max = 0;
  double cx() const { return 0.5 * (x_min + x_max); }
  double cy() const { return 0.5 * (y_min + y_max); }
  bool valid() const { return x_max > x_min && y_max > y_min; }
};

/// The camera-independent part of one frame of a world: what every camera of
/// a rig draws. All cameras sit at the ego position, so they share the route
/// grids (with each dash quad's on/off phase), the NPC billboards in their
/// far-to-near order, and the traffic-light and stop-line state. Build one
/// per tick and render it with each camera.
class RenderScene {
 public:
  explicit RenderScene(const World& world);

 private:
  friend class CameraRenderer;

  /// Quads between two rails of one route grid. A rail is a road line at
  /// one lateral offset: its world point at each of the grid's `points`,
  /// stored from index `rail0` (or `rail1`) of `rail_points_`. Quad k spans
  /// grid points k and k + 1; a dashed strip skips the quads `dash_gap_`
  /// marks.
  struct Strip {
    std::size_t rail0 = 0;
    std::size_t rail1 = 0;
    std::size_t points = 0;
    Rgb color;
    bool dashed = false;
  };
  /// One NPC, drawn as a billboard at its rear face.
  struct Billboard {
    Vec2 rear;
    double yaw = 0.0;
    double width = 0.0;
    double length = 0.0;
    Rgb color;
    double dist = 0.0;  // ego to vehicle center: the draw order, far first
  };

  Pose2 ego_pose_;
  double ego_s_ = 0.0;
  std::vector<Vec2> rail_points_;
  std::vector<Strip> strips_;          // in draw order
  std::vector<std::uint8_t> dash_gap_;  // per dash-grid quad
  bool light_ = false;                 // a light head to draw
  Rgb light_head_;
  Vec2 light_base_;
  std::vector<Billboard> billboards_;  // far to near
};

class CameraRenderer {
 public:
  explicit CameraRenderer(CameraModel model);

  const CameraModel& model() const { return model_; }

  /// Render the world from the ego's current viewpoint. `noise` drives the
  /// photometric noise (one independent stream per run).
  Image render(const World& world, Rng& noise) const;
  /// Render a scene built from the world: the same image and noise draws
  /// as render(world, noise).
  Image render(const RenderScene& scene, Rng& noise) const;

  /// Ground-truth projected 2-D bounding box of an NPC in this camera
  /// (invalid box if behind the camera or out of frame). Used by the
  /// KITTI-like semantic-consistency analysis.
  BBox2 project_npc(const World& world, const NpcVehicle& npc) const;

  /// Extra high-frequency scene texture (0 = clean simulator look; higher
  /// values emulate real-world imagery for the KITTI-like generator).
  void set_texture_strength(double s) { texture_strength_ = s; }

 private:
  CameraModel model_;
  double texture_strength_ = 0.0;
  /// The noise pass of an untextured frame at model_.noise_sigma.
  FrameNoise noise_;
  /// The frame before any geometry: sky gradient and ground.
  Image background_;
};

/// The standard three-camera rig of the Sensorimotor agent: left (-45 deg),
/// center, right (+45 deg).
std::vector<CameraModel> front_camera_rig(int width = 96, int height = 72,
                                          double noise_sigma = 2.0);

}  // namespace dav
