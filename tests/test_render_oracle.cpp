// Oracle tests for the camera renderer: CameraRenderer::render, and
// SensorRig::capture with its one scene per tick, must produce the reference
// renderer's bytes, and leave the noise stream where the reference leaves
// it, on every frame of closed-loop drives through each scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "reference_render.h"
#include "sensors/sensor_rig.h"
#include "sim/scenario.h"

namespace dav {
namespace {

/// Route-following actuation: proportional cruise control, lane centering
/// and braking on a short CVIP.
Actuation follow_route(const World& world, double target_speed) {
  Actuation cmd;
  const double v_err = target_speed - world.ego().v;
  if (world.cvip() < 12.0) {
    cmd.brake = clamp(0.2 + (12.0 - world.cvip()) * 0.15, 0.0, 1.0);
  } else if (v_err > 0.0) {
    cmd.throttle = clamp(v_err * 0.4, 0.0, 0.8);
  } else {
    cmd.brake = clamp(-v_err * 0.25, 0.0, 0.6);
  }
  const double head_err = wrap_angle(
      world.map().heading_at(world.ego_route_s()) - world.ego().pose.yaw);
  cmd.steer = clamp(-0.35 * world.ego_lateral() + 1.2 * head_err, -1.0, 1.0);
  return cmd;
}

struct DriveCase {
  std::string name;
  ScenarioId id = ScenarioId::kLeadSlowdown;
  double noise_sigma = 2.0;
  double texture_strength = 0.0;
  bool cycling_light = false;  // add a fast-cycling light just ahead
  int width = 96;
  int height = 72;
};

void PrintTo(const DriveCase& c, std::ostream* os) { *os << c.name; }

class RenderOracle : public ::testing::TestWithParam<DriveCase> {};

TEST_P(RenderOracle, EveryFrameMatchesReferenceBytesAndNoiseStream) {
  const DriveCase& dc = GetParam();
  Scenario sc = make_scenario(dc.id);
  if (dc.cycling_light) {
    // Green, yellow and red each last 1 s, so a 200-tick drive sees every
    // phase, with the stop line in view.
    sc.map.add_traffic_light({sc.ego_start_s + 40.0, 1.0, 1.0, 1.0, 0.0});
  }
  World world(std::move(sc));
  std::vector<CameraRenderer> renderers;
  for (const CameraModel& m :
       front_camera_rig(dc.width, dc.height, dc.noise_sigma)) {
    renderers.emplace_back(m);
    renderers.back().set_texture_strength(dc.texture_strength);
  }
  Rng noise(2022);
  Rng ref_noise(2022);
  bool saw_red = false;
  bool saw_yellow = false;
  constexpr int kTicks = 200;
  for (int tick = 0; tick < kTicks; ++tick) {
    for (std::size_t cam = 0; cam < renderers.size(); ++cam) {
      const Image got = renderers[cam].render(world, noise);
      const Image want = reference_render(renderers[cam].model(),
                                          dc.texture_strength, world,
                                          ref_noise);
      ASSERT_EQ(got.bytes(), want.bytes())
          << dc.name << " tick " << tick << " camera " << cam;
      ASSERT_EQ(noise.state(), ref_noise.state())
          << dc.name << " tick " << tick << " camera " << cam;
    }
    if (auto light = world.map().next_light_after(world.ego_route_s())) {
      const auto phase = light->phase_at(world.time());
      saw_red = saw_red || phase == TrafficLight::Phase::kRed;
      saw_yellow = saw_yellow || phase == TrafficLight::Phase::kYellow;
    }
    world.step(follow_route(world, 10.0), 0.05);
  }
  if (dc.cycling_light) {
    EXPECT_TRUE(saw_red);
    EXPECT_TRUE(saw_yellow);
  }
}

// SensorRig::capture renders one scene per tick with all three cameras. Each
// image must equal a reference_render of that tick on the rig's own camera
// noise stream, and the stream must sit where three reference renders leave
// it, with LiDAR capture off and on. The rig's renderers are untextured.
TEST_P(RenderOracle, RigCaptureMatchesReferenceBytesAndNoiseStream) {
  const DriveCase& dc = GetParam();
  for (const bool lidar : {false, true}) {
    Scenario sc = make_scenario(dc.id);
    if (dc.cycling_light) {
      sc.map.add_traffic_light({sc.ego_start_s + 40.0, 1.0, 1.0, 1.0, 0.0});
    }
    World world(std::move(sc));
    const std::vector<CameraModel> models =
        front_camera_rig(dc.width, dc.height, dc.noise_sigma);
    constexpr std::uint64_t kNoiseSeed = 2022;
    SensorRig rig(models, kNoiseSeed, lidar);
    // The rig's camera stream, as SensorRig derives it from the noise seed.
    Rng ref_noise = Rng(kNoiseSeed).split(1);
    ASSERT_EQ(rig.rng_state().camera, ref_noise.state());
    constexpr int kTicks = 200;
    for (int tick = 0; tick < kTicks; ++tick) {
      const SensorFrame frame = rig.capture(world, tick);
      ASSERT_EQ(frame.cameras.size(), models.size());
      for (std::size_t cam = 0; cam < models.size(); ++cam) {
        const Image want = reference_render(models[cam], 0.0, world, ref_noise);
        ASSERT_EQ(frame.cameras[cam].bytes(), want.bytes())
            << dc.name << " lidar " << lidar << " tick " << tick << " camera "
            << cam;
      }
      ASSERT_EQ(rig.rng_state().camera, ref_noise.state())
          << dc.name << " lidar " << lidar << " tick " << tick;
      ASSERT_EQ(frame.lidar.empty(), !lidar);
      world.step(follow_route(world, 10.0), 0.05);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drives, RenderOracle,
    ::testing::Values(
        DriveCase{"LeadSlowdown", ScenarioId::kLeadSlowdown},
        DriveCase{"GhostCutIn", ScenarioId::kGhostCutIn},
        DriveCase{"FrontAccident", ScenarioId::kFrontAccident},
        DriveCase{"Town01Route02", ScenarioId::kLongRoute02},
        DriveCase{"LightPhasesNoiseFree", ScenarioId::kLeadSlowdown, 0.0, 0.0,
                  true},
        DriveCase{"TexturedSigma8", ScenarioId::kLongRoute02, 8.0, 1.0, true},
        // A sigma whose noise table has no integer-offset form: the scalar
        // loop renders every frame.
        DriveCase{"SigmaJustBelow2", ScenarioId::kLeadSlowdown,
                  std::nextafter(2.0, 0.0)},
        // 95 x 71 pixels leave 25 after the noise kernel's four runs.
        DriveCase{"OddSize95x71", ScenarioId::kGhostCutIn, 2.0, 0.0, false, 95,
                  71}),
    [](const ::testing::TestParamInfo<DriveCase>& p) { return p.param.name; });

}  // namespace
}  // namespace dav
