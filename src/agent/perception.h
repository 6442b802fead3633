// Vision-based local perception (the paper's CNN stage), executed entirely on
// the instrumented GPU engine.
//
// From the three front cameras it estimates: the nearest in-path obstacle
// distance (vehicles via body color / underside shadow; red stop lines when a
// traffic light is not green), the ego's lateral offset from the lane center,
// and the lane's heading slope — using ground-plane ranging: an image row
// below the horizon maps to depth d = f * h_mount / (row - horizon).
// Persistent EMA filters are private per-agent state, so fault corruption of
// an estimate propagates across time steps (paper §II-C).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "agent/tensor.h"
#include "fi/sensor_fault.h"
#include "sensors/camera.h"

namespace dav {

struct PerceptionConfig {
  CameraModel center_cam;          // geometry of the center camera
  double corridor_half_m = 1.7;    // half width of the "in path" corridor
  double max_range_m = 75.0;
  double dark_thresh = 0.12;       // underside-shadow brightness cutoff
  double dark_weight = 8.0;
  double blue_thresh = 0.10;
  double blue_weight = 2.0;
  double red_thresh = 0.10;
  double white_thresh = 0.55;
  double row_mass_thresh = 0.30;   // min in-corridor row mass for a detection
  double head_mass_thresh = 0.30;  // min red mass for a traffic-light head
  double light_head_height = 4.6;  // mount height of light heads (m)
  int upper_band_rows = 18;        // above-horizon rows scanned for heads
  double ema_alpha = 0.45;         // smoothing of the lane-offset estimate
  double heading_alpha = 0.22;     // slower smoothing of the heading slope
                                   // (it feeds steering and speed planning)
  double side_mass_thresh = 60.0;  // side-camera proximity warning cutoff
};

struct PerceptionOutput {
  bool obstacle_valid = false;
  double obstacle_distance = 200.0;  // m (vehicle or red stop line)
  double lane_offset = 0.0;          // m, + = lane center left of ego
  double heading_slope = 0.0;        // lateral change of lane center per m
  bool side_warning = false;         // very close object in a side camera
  double gain = 1.0;                 // ISA-warmup gain (1.0 fault-free)
  /// Total smoothed-mask mass in the forward view. Downstream speed planning
  /// applies a mild continuous caution factor from it, so corrupted
  /// perception influences actuation continuously (a corrupted CNN never
  /// degrades to clean defaults) — this is what lets the two data-diverse
  /// agents diverge visibly when a fault blinds or floods the masks.
  double scene_clutter = 0.0;
  /// Coarse patch-sum features of the raw masks (a 2x4 grid over vehicle and
  /// lane masks), consumed by the waypoint head's fully-connected refinement
  /// layer — the end-to-end CNN structure of the Sensorimotor agent. Each
  /// feature is an instrumented accumulation over raw pixels, so register-
  /// level corruption makes it chaotic in the agent's bit-diverse input.
  std::array<float, 8> features{};
};

/// The persistent filter state of one Perception instance — everything a
/// restarted replica needs to resynchronize from its healthy peer.
struct PerceptionSnapshot {
  float lane_offset_ema = 0.0f;
  float heading_ema = 0.0f;
  float obstacle_ema = 200.0f;
  float obstacle_hist[3] = {200.0f, 200.0f, 200.0f};
  int hist_idx = 0;
  bool ema_init = false;
};

/// The side-camera chain of Perception::process: the proximity mass of one
/// camera's ground band, one fused span of image_rows_to_tensor, a 4x4
/// avg_pool and the mass block (DESIGN.md §17.1).
float side_camera_mass(GpuEngine& eng, const Image& cam);

class Perception {
 public:
  Perception(GpuEngine& eng, PerceptionConfig cfg);

  /// `cams` must be {left, center, right} as produced by front_camera_rig.
  /// `tick` is the world step, used only to window spatiotemporal bit-flip
  /// injection; -1 (the default) disables injection for this call.
  PerceptionOutput process(const std::vector<Image>& cams, int tick = -1);

  /// Spatiotemporal bit-flip target hook (SensorFaultModel::kTensorBitFlip).
  /// Non-owning; nullptr detaches. Injection layers: 0 = raw vehicle mask,
  /// 1 = CNN-smoothed mask, 2 = patch-sum features, 3 = persistent EMA state.
  void attach_fault_injector(SensorFaultInjector* injector) {
    injector_ = injector;
  }

  PerceptionSnapshot snapshot() const;
  void restore(const PerceptionSnapshot& s);
  /// Bytes of persistent state + scratch tensors (resource accounting).
  std::size_t state_bytes() const;
  /// The scratch-tensor footprint alone, for checkpoint capture/adopt: an
  /// agent parked by recovery never rebuilds its masks after a resume, so
  /// the restored footprint must match what the straight-through run kept.
  std::size_t scratch_footprint() const { return scratch_bytes_; }
  void set_scratch_footprint(std::size_t bytes) { scratch_bytes_ = bytes; }

 private:
  struct Masks {
    Tensor vehicle;         // raw, ground band (below horizon)
    Tensor vehicle_smooth;  // 3x3-box smoothed (confirmation gate)
    Tensor red;             // ground band (painted stop lines)
    Tensor white;           // ground band (lane markings)
    Tensor red_upper;       // above-horizon band (traffic-light heads)
  };
  Masks build_masks(const Image& img, float gain);

  GpuEngine& eng_;
  PerceptionConfig cfg_;
  SensorFaultInjector* injector_ = nullptr;
  // Persistent (private, fault-corruptible) state.
  float lane_offset_ema_ = 0.0f;
  float heading_ema_ = 0.0f;
  float obstacle_ema_ = 200.0f;
  float obstacle_hist_[3] = {200.0f, 200.0f, 200.0f};  // median-of-3 input
  int hist_idx_ = 0;
  bool ema_init_ = false;
  std::size_t scratch_bytes_ = 0;
};

}  // namespace dav
