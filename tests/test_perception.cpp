#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "agent/perception.h"
#include "block_equivalence.h"
#include "sensors/sensor_rig.h"
#include "sim/scenario.h"

namespace dav {
namespace {

struct Harness {
  World world;
  SensorRig rig;
  GpuEngine eng;

  explicit Harness(Scenario sc, std::uint64_t seed = 7)
      : world(std::move(sc)), rig(front_camera_rig(), seed) {
    eng.configure({}, 0);
  }

  PerceptionOutput run_perception() {
    PerceptionConfig cfg;
    cfg.center_cam = front_camera_rig()[1];
    Perception perception(eng, cfg);
    // Two frames so the EMA warms up.
    perception.process(rig.capture(world, 0).cameras);
    return perception.process(rig.capture(world, 1).cameras);
  }
};

/// Lead vehicle at a chosen bumper gap; perception distance should track the
/// geometric distance to the rear face within ~20%.
class LeadDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(LeadDistanceSweep, ObstacleDistanceTracksGroundTruth) {
  const double gap = GetParam();
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  sc.npcs.clear();
  IdmParams idm;
  sc.npcs.emplace_back(1, sc.ego_start_s + gap, 0.0, 10.0, idm);
  Harness setup(std::move(sc));
  const PerceptionOutput p = setup.run_perception();
  ASSERT_TRUE(p.obstacle_valid) << "gap " << gap;
  const double rear_face = gap - 2.25;  // half vehicle length
  EXPECT_NEAR(p.obstacle_distance, rear_face, rear_face * 0.25 + 1.5)
      << "gap " << gap;
}

// Beyond ~40 m the 72-row camera's ground-plane resolution runs out (the
// second-from-horizon row already spans depths 34-67 m), so the sweep stops
// at the sensor's reliable range.
INSTANTIATE_TEST_SUITE_P(Gaps, LeadDistanceSweep,
                         ::testing::Values(10.0, 15.0, 20.0, 25.0, 30.0,
                                           40.0));

TEST(Perception, NoObstacleOnEmptyRoad) {
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  sc.npcs.clear();
  Harness setup(std::move(sc));
  const PerceptionOutput p = setup.run_perception();
  EXPECT_FALSE(p.obstacle_valid);
  EXPECT_GT(p.obstacle_distance, 150.0);
}

TEST(Perception, AdjacentLaneVehicleNotInPath) {
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  sc.npcs.clear();
  IdmParams idm;
  sc.npcs.emplace_back(1, sc.ego_start_s + 20.0, 3.5, 10.0, idm);
  Harness setup(std::move(sc));
  const PerceptionOutput p = setup.run_perception();
  // The adjacent-lane vehicle must not read as a close in-path obstacle.
  EXPECT_GT(p.obstacle_distance, 30.0);
}

TEST(Perception, RedLightRangedViaHead) {
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  sc.npcs.clear();
  const double light_s = sc.ego_start_s + 40.0;
  sc.map.add_traffic_light({light_s, 0.0, 0.0, 10000.0, 0.0});
  Harness setup(std::move(sc));
  const PerceptionOutput p = setup.run_perception();
  ASSERT_TRUE(p.obstacle_valid);
  EXPECT_NEAR(p.obstacle_distance, 40.0, 12.0);
}

TEST(Perception, GreenLightIgnored) {
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  sc.npcs.clear();
  sc.map.add_traffic_light({sc.ego_start_s + 40.0, 10000.0, 1.0, 1.0, 0.0});
  Harness setup(std::move(sc));
  const PerceptionOutput p = setup.run_perception();
  EXPECT_FALSE(p.obstacle_valid);
}

TEST(Perception, LaneOffsetNearZeroWhenCentered) {
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  sc.npcs.clear();
  Harness setup(std::move(sc));
  const PerceptionOutput p = setup.run_perception();
  EXPECT_NEAR(p.lane_offset, 0.0, 0.35);
  EXPECT_NEAR(p.heading_slope, 0.0, 0.08);
}

TEST(Perception, GainIsOneFaultFree) {
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  Harness setup(std::move(sc));
  EXPECT_EQ(setup.run_perception().gain, 1.0);
}

TEST(Perception, StateBytesNonTrivial) {
  GpuEngine eng;
  eng.configure({}, 0);
  PerceptionConfig cfg;
  cfg.center_cam = front_camera_rig()[1];
  Perception perception(eng, cfg);
  EXPECT_GT(perception.state_bytes(), sizeof(Perception) / 2);
}

/// Property: lane offset estimate follows the ego's actual lateral offset.
class LaneOffsetSweep : public ::testing::TestWithParam<double> {};

TEST_P(LaneOffsetSweep, TracksActualOffset) {
  const double lateral = GetParam();
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  sc.npcs.clear();
  World world(std::move(sc));
  // Teleport the ego laterally by simulating with an offset start: rebuild
  // scenario with shifted start is complex; instead steer-free run and use
  // project_npc-free approach: construct a custom world via scenario map and
  // inject lateral by stepping with steer until reached is flaky — use the
  // fact that perception measures lane center in the EGO frame. We emulate
  // by moving the ego through World steps is unreliable; accept centered
  // case plus sign checks at +-0.8 m via short steering bursts.
  SensorRig rig(front_camera_rig(), 7);
  GpuEngine eng;
  eng.configure({}, 0);
  PerceptionConfig cfg;
  cfg.center_cam = front_camera_rig()[1];
  Perception perception(eng, cfg);
  // Steer toward the requested lateral offset with a crude P controller.
  for (int i = 0; i < 160; ++i) {
    const double err = lateral - world.ego_lateral();
    const double head =
        wrap_angle(world.map().heading_at(world.ego_route_s()) -
                   world.ego().pose.yaw);
    Actuation cmd;
    cmd.throttle = 0.3;
    cmd.steer = clamp(0.8 * err + 2.0 * head, -1.0, 1.0);
    world.step(cmd, 0.05);
  }
  ASSERT_NEAR(world.ego_lateral(), lateral, 0.3);
  perception.process(rig.capture(world, 0).cameras);
  const PerceptionOutput p = perception.process(rig.capture(world, 1).cameras);
  // Lane center (at lateral 0) relative to ego: -ego_lateral.
  EXPECT_NEAR(p.lane_offset, -world.ego_lateral(), 0.45);
}

INSTANTIATE_TEST_SUITE_P(Offsets, LaneOffsetSweep,
                         ::testing::Values(-0.8, -0.4, 0.0, 0.4, 0.8));


// --- Block accounting: the clean path equals the scalar exec path. ---------

template <typename T>
void append_bits(std::vector<std::uint64_t>& out, T v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(T));
  out.push_back(b);
}

/// Every output field and every persistent filter value, bit for bit.
std::vector<std::uint64_t> perception_bits(const PerceptionOutput& o,
                                           const PerceptionSnapshot& s) {
  std::vector<std::uint64_t> out;
  append_bits(out, o.obstacle_valid);
  append_bits(out, o.obstacle_distance);
  append_bits(out, o.lane_offset);
  append_bits(out, o.heading_slope);
  append_bits(out, o.side_warning);
  append_bits(out, o.gain);
  append_bits(out, o.scene_clutter);
  for (const float f : o.features) append_bits(out, f);
  append_bits(out, s.lane_offset_ema);
  append_bits(out, s.heading_ema);
  append_bits(out, s.obstacle_ema);
  for (const float f : s.obstacle_hist) append_bits(out, f);
  append_bits(out, s.hist_idx);
  append_bits(out, s.ema_init);
  return out;
}

/// A lead vehicle in path, a red light ahead and a parked car on the side,
/// so the ranging, head-scan, lane and side-camera paths all run.
World busy_world() {
  Scenario sc = make_scenario(ScenarioId::kLeadSlowdown);
  sc.npcs.clear();
  IdmParams idm;
  sc.npcs.emplace_back(1, sc.ego_start_s + 15.0, 0.0, 10.0, idm);
  IdmParams parked;
  parked.desired_speed = 0.0;
  sc.npcs.emplace_back(5, sc.ego_start_s + 3.0, 3.6, 0.0, parked);
  sc.map.add_traffic_light({sc.ego_start_s + 40.0, 0.0, 0.0, 10000.0, 0.0});
  return World(std::move(sc));
}

/// Perception::process on the second of two rendered frames (the first warms
/// the filters), from the same warm state under every engine.
auto perception_kernel(int width, int height) {
  World world = busy_world();
  SensorRig rig(front_camera_rig(width, height, 2.0), 7);
  PerceptionConfig cfg;
  cfg.center_cam = front_camera_rig(width, height, 2.0)[1];
  const SensorFrame first = rig.capture(world, 0);
  const SensorFrame second = rig.capture(world, 1);
  GpuEngine warm_eng;
  warm_eng.configure({}, 0);
  Perception warm(warm_eng, cfg);
  warm.process(first.cameras);
  const PerceptionSnapshot snap = warm.snapshot();
  return [=](GpuEngine& eng) {
    Perception p(eng, cfg);
    p.restore(snap);
    const PerceptionOutput out = p.process(second.cameras);
    return perception_bits(out, p.snapshot());
  };
}

TEST(PerceptionBlocks, SmallFramesEveryTransientIndex) {
  // 30x22 leaves an 11-row ground band and 30 columns, neither a multiple
  // of the side cameras' 4x4 pool.
  for (const auto& [width, height] : {std::pair{32, 24}, std::pair{30, 22}}) {
    SCOPED_TRACE(::testing::Message() << width << "x" << height);
    const auto kernel = perception_kernel(width, height);
    GpuEngine probe;
    probe.configure({}, 0);
    kernel(probe);
    testing_blocks::expect_scalar_path_identical(
        kernel, testing_blocks::every_index(probe.total_dyn_instructions()));
  }
}

/// The side-camera span on a textured, noisy left-camera frame, where the
/// pooled sums depend on the order of their terms.
auto side_mass_kernel(int width, int height) {
  World world = busy_world();
  CameraRenderer left(front_camera_rig(width, height, 8.0)[0]);
  left.set_texture_strength(1.0);
  Rng noise(11);
  const Image img = left.render(world, noise);
  return [img](GpuEngine& eng) {
    return testing_blocks::float_bits({side_camera_mass(eng, img)});
  };
}

TEST(PerceptionBlocks, SideCameraSpanEqualsItsKernels) {
  for (const auto& [width, height] : {std::pair{32, 24}, std::pair{30, 22}}) {
    SCOPED_TRACE(::testing::Message() << width << "x" << height);
    const auto kernel = side_mass_kernel(width, height);
    GpuEngine probe;
    probe.configure({}, 0);
    kernel(probe);
    testing_blocks::expect_scalar_path_identical(
        kernel, testing_blocks::every_index(probe.total_dyn_instructions()));
  }
  const auto kernel = side_mass_kernel(96, 72);
  GpuEngine probe;
  probe.configure({}, 0);
  kernel(probe);
  const std::uint64_t total = probe.total_dyn_instructions();
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < total; i += total / 97 + 1) indices.push_back(i);
  indices.push_back(total);
  testing_blocks::expect_scalar_path_identical(kernel, indices);
}

TEST(PerceptionBlocks, FullFramesEveryOpcodeAndSpreadTransients) {
  const auto kernel = perception_kernel(96, 72);
  GpuEngine probe;
  probe.configure({}, 0);
  kernel(probe);
  const std::uint64_t total = probe.total_dyn_instructions();
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < total; i += total / 97 + 1) indices.push_back(i);
  indices.push_back(total - 1);
  indices.push_back(total);
  testing_blocks::expect_scalar_path_identical(kernel, indices);
}

}  // namespace
}  // namespace dav
