// Sensor-path fault models (DESIGN.md §14).
//
// The register-level models in fault_model.h corrupt compute state INSIDE one
// agent, which is exactly what temporal data diversity detects. Sensor faults
// enter upstream of the ADS: both agents consume the same corrupted frames,
// so the divergence detector is structurally blind to them ("Testing the
// Fault-Tolerance of Multi-Sensor Fusion Perception in Autonomous Driving
// Systems"). Detecting and surviving them needs per-sensor plausibility
// monitoring and fail-degraded fusion (sensors/sensor_health.h, §14.2).
//
// Every model is a pure function of (plan, tick, buffer contents): the
// per-tick Rng stream is derived as Rng(seed).split(tick + 1), so identical
// plans yield byte-identical corrupted frames regardless of executor strategy
// or call order — the repo's byte-determinism discipline extends to the
// corruption itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dav {

/// Which physical sensor (or downstream tensor state) a model targets.
enum class SensorKind : std::uint8_t { kNone, kCamera, kLidar, kGps, kTensor };

enum class SensorFaultModel : std::uint8_t {
  kNone,
  kCameraOcclusion,   // opaque patch fixed for the fault's lifetime (dirt/ice)
  kCameraSaltPepper,  // per-tick impulse noise (EMI / link corruption)
  kCameraFrozen,      // repeats the last pre-onset frame (stuck DMA buffer)
  kCameraBlackout,    // all-zero frames (dead sensor / severed link)
  kLidarDropout,      // a seeded subset of beams returns nothing
  kLidarGhost,        // spurious near-range returns on random beams
  kGpsDrift,          // position/speed ramp away from truth (multipath)
  kGpsLoss,           // null fix: every field reads zero
  kTensorBitFlip,     // spatiotemporal bit flip in perception tensor state,
                      // targeted by (layer, tick window, bit) per the
                      // Spatiotemporal-Aware Bit-Flip Injection paper
};

SensorKind sensor_kind(SensorFaultModel m);
std::string to_string(SensorKind k);
std::string to_string(SensorFaultModel m);
/// The canonical spelling accepted by DAV_SENSOR_FAULTS ("camera-blackout",
/// "gps-drift", ...). Returns kNone for an unrecognized name.
SensorFaultModel parse_sensor_fault_model(const std::string& name);
/// Every injectable model, in enum order (sweep generation, env parsing).
const std::vector<SensorFaultModel>& all_sensor_fault_models();

/// One planned sensor-path injection. Serialized into RunConfig/RunResult
/// records and folded into run_config_digest when active, so pool workers
/// inherit the exact plan.
struct SensorFaultPlan {
  SensorFaultModel model = SensorFaultModel::kNone;
  /// Camera models: rig camera index (0 = left, 1 = center, 2 = right).
  /// LiDAR/GPS/tensor models target the single instance; index must be 0.
  int sensor_index = 0;
  int onset_tick = 0;
  int duration_ticks = 0;
  /// Seeds the per-tick corruption streams (independent of the rig's noise
  /// streams, so an inactive plan perturbs nothing).
  std::uint64_t seed = 0;
  /// Model intensity in [0, 1]: occlusion patch size, impulse density,
  /// dropout fraction, drift rate, ...
  double magnitude = 0.5;
  /// kTensorBitFlip: perception pipeline stage (see Perception layer tags).
  int layer = 0;
  /// kTensorBitFlip: bit position to flip (0..31, fp32 state).
  int bit = 0;

  bool active() const {
    return model != SensorFaultModel::kNone && duration_ticks > 0;
  }
  bool covers(int tick) const {
    return active() && tick >= onset_tick &&
           tick < onset_tick + duration_ticks;
  }
  SensorKind kind() const { return sensor_kind(model); }
};

/// Applies one SensorFaultPlan to raw sensor buffers. The injector is handed
/// to the SensorRig (camera/LiDAR/GPS models corrupt at capture(), upstream
/// of both agents) and to the primary agent's Perception (tensor bit flips).
/// All entry points are no-ops outside the plan's (kind, index, tick window),
/// so one injector serves every sensor path.
///
/// Statefulness is limited to the frozen-frame cache and the corruption
/// counter; both are pure functions of the deterministic call sequence.
class SensorFaultInjector {
 public:
  explicit SensorFaultInjector(const SensorFaultPlan& plan);

  /// Row-major RGB8 camera buffer of `width` x `height` pixels.
  void corrupt_camera(int camera_index, int tick, std::uint8_t* rgb,
                      int width, int height);
  void corrupt_lidar(int tick, std::vector<float>& ranges);
  /// The 6 float32 fields of a GpsImuSample, in declaration order.
  void corrupt_gps(int tick, float* fields, int count);
  /// Perception tensor state: flips plan.bit of one seeded element per tick
  /// when `layer` matches plan.layer inside the tick window.
  void corrupt_tensor(int layer, int tick, float* data, std::size_t count);

  const SensorFaultPlan& plan() const { return plan_; }
  /// Corrupted elements (pixels / beams / fields / flips) so far. Nonzero
  /// means the fault activated (drives RunResult outcome classification).
  std::uint64_t corruptions() const { return corruptions_; }

  /// Seed the frozen-frame cache from a checkpointed camera frame. Used when
  /// a clean-prefix checkpoint is re-targeted at a kCameraFrozen variant
  /// whose onset is the restore tick: the injector never saw the pre-onset
  /// frames, so the cache is primed from the checkpoint's last frame.
  void prime_frozen(const std::vector<std::uint8_t>& frame) {
    frozen_ = frame;
  }

 private:
  /// Independent per-tick stream: corruption at tick T never depends on how
  /// many draws earlier ticks consumed.
  Rng tick_rng(int tick) const;

  SensorFaultPlan plan_;
  std::uint64_t corruptions_ = 0;

  // Occlusion patch geometry, drawn once from the plan seed.
  int patch_x_ = 0, patch_y_ = 0, patch_w_ = 0, patch_h_ = 0;
  bool patch_drawn_ = false;

  // GPS drift direction, drawn once from the plan seed.
  double drift_cos_ = 1.0, drift_sin_ = 0.0;

  // Frozen-frame cache: the last pre-onset frame of the targeted camera.
  std::vector<std::uint8_t> frozen_;
};

}  // namespace dav
