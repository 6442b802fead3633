#include <gtest/gtest.h>

#include "agent/agent.h"
#include "sim/scenario.h"

namespace dav {
namespace {

struct AgentFixture {
  World world;
  SensorRig rig;
  GpuEngine gpu;
  CpuEngine cpu;
  SensorimotorAgent agent;

  AgentFixture()
      : world(make_scenario(ScenarioId::kLeadSlowdown)),
        rig(front_camera_rig(), 7),
        agent("test", make_config(world), gpu, cpu, &world.map()) {
    gpu.configure({}, 0);
    cpu.configure({}, 0);
  }

  static AgentConfig make_config(const World& world) {
    AgentConfig cfg;
    cfg.perception.center_cam = front_camera_rig()[1];
    cfg.mission_speed = world.scenario().target_speed;
    cfg.route_start_s = world.scenario().ego_start_s;
    return cfg;
  }
};

TEST(Agent, ProducesBoundedActuation) {
  AgentFixture f;
  const SensorFrame frame = f.rig.capture(f.world, 0);
  const Actuation cmd = f.agent.act(frame, 0.05);
  EXPECT_GE(cmd.throttle, 0.0);
  EXPECT_LE(cmd.throttle, 1.0);
  EXPECT_GE(cmd.brake, 0.0);
  EXPECT_LE(cmd.brake, 1.0);
  EXPECT_GE(cmd.steer, -1.0);
  EXPECT_LE(cmd.steer, 1.0);
  EXPECT_EQ(f.agent.steps_executed(), 1);
}

TEST(Agent, PerceivesLeadVehicle) {
  AgentFixture f;
  f.agent.act(f.rig.capture(f.world, 0), 0.05);
  f.agent.act(f.rig.capture(f.world, 1), 0.05);
  const PerceptionOutput& p = f.agent.last_perception();
  EXPECT_TRUE(p.obstacle_valid);
  EXPECT_NEAR(p.obstacle_distance, 25.0 - 2.25, 8.0);
}

TEST(Agent, WaypointsPointForward) {
  AgentFixture f;
  f.agent.act(f.rig.capture(f.world, 0), 0.05);
  for (const Vec2& wp : f.agent.last_waypoints().pts) {
    EXPECT_GT(wp.x, 0.0);
  }
}

TEST(Agent, ExecutesBothEngines) {
  AgentFixture f;
  f.agent.act(f.rig.capture(f.world, 0), 0.05);
  // The GPU does the heavy lifting; the CPU runs the glue (paper §V-C).
  EXPECT_GT(f.gpu.total_dyn_instructions(), 10000u);
  EXPECT_GT(f.cpu.total_dyn_instructions(), 100u);
  EXPECT_GT(f.gpu.total_dyn_instructions(),
            f.cpu.total_dyn_instructions() * 20);
}

TEST(Agent, StateBytesAccountsPerception) {
  AgentFixture f;
  f.agent.act(f.rig.capture(f.world, 0), 0.05);
  EXPECT_GT(f.agent.state_bytes(), sizeof(SensorimotorAgent));
}

TEST(Agent, DeterministicForSameInputs) {
  AgentFixture a;
  AgentFixture b;
  const SensorFrame frame = a.rig.capture(a.world, 0);
  const Actuation ca = a.agent.act(frame, 0.05);
  const Actuation cb = b.agent.act(frame, 0.05);
  EXPECT_DOUBLE_EQ(ca.throttle, cb.throttle);
  EXPECT_DOUBLE_EQ(ca.brake, cb.brake);
  EXPECT_DOUBLE_EQ(ca.steer, cb.steer);
}

}  // namespace
}  // namespace dav
