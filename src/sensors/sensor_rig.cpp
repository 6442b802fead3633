#include "sensors/sensor_rig.h"

namespace dav {

SensorRig::SensorRig(std::vector<CameraModel> cameras, std::uint64_t noise_seed,
                     bool enable_lidar)
    : camera_noise_(Rng(noise_seed).split(1)),
      imu_noise_(Rng(noise_seed).split(2)),
      lidar_noise_(Rng(noise_seed).split(3)),
      enable_lidar_(enable_lidar) {
  renderers_.reserve(cameras.size());
  for (const auto& cm : cameras) renderers_.emplace_back(cm);
}

SensorFrame SensorRig::capture(const World& world, int step) {
  SensorFrame frame;
  frame.step = step;
  frame.time = world.time();
  frame.cameras.reserve(renderers_.size());
  const RenderScene scene(world);
  for (const auto& r : renderers_) {
    frame.cameras.push_back(r.render(scene, camera_noise_));
  }
  frame.gps_imu = sample_gps_imu(world.ego(), imu_model_, imu_noise_);
  if (enable_lidar_) {
    frame.lidar = sample_lidar(world, lidar_model_, lidar_noise_);
  }
  if (injector_ != nullptr) {
    for (std::size_t i = 0; i < frame.cameras.size(); ++i) {
      Image& img = frame.cameras[i];
      injector_->corrupt_camera(static_cast<int>(i), step, img.bytes().data(),
                                img.width(), img.height());
    }
    std::array<float, 6> fields = frame.gps_imu.as_array();
    injector_->corrupt_gps(step, fields.data(),
                           static_cast<int>(fields.size()));
    frame.gps_imu.gps_x = fields[0];
    frame.gps_imu.gps_y = fields[1];
    frame.gps_imu.speed = fields[2];
    frame.gps_imu.accel_long = fields[3];
    frame.gps_imu.yaw = fields[4];
    frame.gps_imu.yaw_rate = fields[5];
    injector_->corrupt_lidar(step, frame.lidar);
  }
  return frame;
}

std::size_t SensorRig::frame_bytes() const {
  std::size_t bytes = 0;
  for (const auto& r : renderers_) {
    bytes += static_cast<std::size_t>(r.model().width) * r.model().height * 3;
  }
  return bytes;
}

}  // namespace dav
