#include <gtest/gtest.h>

#include "core/ads_system.h"
#include "sim/scenario.h"

namespace dav {
namespace {

struct AdsFixture {
  World world;
  SensorRig rig;
  GpuEngine gpu0, gpu1;
  CpuEngine cpu0, cpu1;

  AdsFixture() : world(make_scenario(ScenarioId::kLeadSlowdown)),
                 rig(front_camera_rig(), 7) {
    gpu0.configure({}, 0);
    gpu1.configure({}, 0);
    cpu0.configure({}, 0);
    cpu1.configure({}, 0);
  }

  AgentConfig config() const {
    AgentConfig cfg;
    cfg.perception.center_cam = front_camera_rig()[1];
    cfg.mission_speed = world.scenario().target_speed;
    cfg.route_start_s = world.scenario().ego_start_s;
    return cfg;
  }

  AdsSystem make(AgentMode mode) {
    const bool dup = mode == AgentMode::kDuplicate;
    return AdsSystem(mode, config(), gpu0, cpu0, dup ? &gpu1 : nullptr,
                     dup ? &cpu1 : nullptr, &world.map());
  }
};

TEST(AdsSystem, DuplicateModeRequiresSecondEngineSet) {
  AdsFixture f;
  EXPECT_THROW(AdsSystem(AgentMode::kDuplicate, f.config(), f.gpu0, f.cpu0,
                         nullptr, nullptr, &f.world.map()),
               std::invalid_argument);
}

TEST(AdsSystem, RoundRobinAlternatesActingAgent) {
  AdsFixture f;
  AdsSystem ads = f.make(AgentMode::kRoundRobin);
  EXPECT_EQ(ads.num_agents(), 2);
  for (int step = 0; step < 6; ++step) {
    const SensorFrame frame = f.rig.capture(f.world, step);
    const auto sr = ads.step(frame, 0.05);
    EXPECT_EQ(sr.acting_agent, step % 2);
    f.world.step(sr.applied, 0.05);
  }
  EXPECT_EQ(ads.agent(0).steps_executed(), 3);
  EXPECT_EQ(ads.agent(1).steps_executed(), 3);
}

TEST(AdsSystem, RoundRobinDeltaFromSecondStep) {
  AdsFixture f;
  AdsSystem ads = f.make(AgentMode::kRoundRobin);
  const auto first = ads.step(f.rig.capture(f.world, 0), 0.05);
  EXPECT_FALSE(first.have_delta);
  const auto second = ads.step(f.rig.capture(f.world, 1), 0.05);
  EXPECT_TRUE(second.have_delta);
}

TEST(AdsSystem, SingleModeUsesOneAgent) {
  AdsFixture f;
  AdsSystem ads = f.make(AgentMode::kSingle);
  EXPECT_EQ(ads.num_agents(), 1);
  ads.step(f.rig.capture(f.world, 0), 0.05);
  const auto sr = ads.step(f.rig.capture(f.world, 1), 0.05);
  EXPECT_EQ(sr.acting_agent, 0);
  EXPECT_TRUE(sr.have_delta);  // temporal self-comparison
  EXPECT_EQ(ads.agent(0).steps_executed(), 2);
}

TEST(AdsSystem, DuplicateRunsBothAgentsEveryStep) {
  AdsFixture f;
  AdsSystem ads = f.make(AgentMode::kDuplicate);
  const auto sr = ads.step(f.rig.capture(f.world, 0), 0.05);
  EXPECT_TRUE(sr.have_delta);  // same-step comparison available immediately
  EXPECT_EQ(ads.agent(0).steps_executed(), 1);
  EXPECT_EQ(ads.agent(1).steps_executed(), 1);
  // Each agent ran on its own engine set.
  EXPECT_GT(f.gpu0.total_dyn_instructions(), 0u);
  EXPECT_GT(f.gpu1.total_dyn_instructions(), 0u);
}

TEST(AdsSystem, RoundRobinSharesOneEngineSet) {
  AdsFixture f;
  AdsSystem ads = f.make(AgentMode::kRoundRobin);
  ads.step(f.rig.capture(f.world, 0), 0.05);
  ads.step(f.rig.capture(f.world, 1), 0.05);
  EXPECT_GT(f.gpu0.total_dyn_instructions(), 0u);
  EXPECT_EQ(f.gpu1.total_dyn_instructions(), 0u);  // unused second set
}

TEST(AdsSystem, DuplicateModeFaultFreeSameStepDeltaSmall) {
  AdsFixture f;
  AdsSystem ads = f.make(AgentMode::kDuplicate);
  // Identical engines + identical inputs -> identical outputs (bit-equal
  // here because both replicas are deterministic; the paper's FD runs differ
  // only through hardware-level nondeterminism).
  for (int step = 0; step < 4; ++step) {
    const auto sr = ads.step(f.rig.capture(f.world, step), 0.05);
    EXPECT_NEAR(sr.delta.throttle, 0.0, 1e-12);
    EXPECT_NEAR(sr.delta.steer, 0.0, 1e-12);
    f.world.step(sr.applied, 0.05);
  }
}

TEST(AdsSystem, TransientFaultAffectsOnlyOneRoundRobinAgent) {
  AdsFixture f;
  // A transient site somewhere in the second frame's processing (odd step ->
  // agent 1). Profile one step to find the per-step instruction count.
  AdsSystem probe = f.make(AgentMode::kRoundRobin);
  probe.step(f.rig.capture(f.world, 0), 0.05);
  const std::uint64_t per_step = f.gpu0.total_dyn_instructions();

  AdsFixture g;
  FaultPlan plan;
  plan.kind = FaultModelKind::kTransient;
  plan.domain = FaultDomain::kGpu;
  plan.target_dyn_index = per_step + per_step / 2;  // inside step 1
  plan.bit = 30;
  CrashHangModel silent;
  silent.p_crash_data = silent.p_hang_data = silent.p_crash_mem = 0.0;
  silent.p_hang_mem = silent.p_crash_ctrl = silent.p_hang_ctrl = 0.0;
  g.gpu0.configure(plan, 1, silent);
  AdsSystem ads = g.make(AgentMode::kRoundRobin);
  ads.step(g.rig.capture(g.world, 0), 0.05);
  EXPECT_FALSE(g.gpu0.fault_activated());  // agent 0's step: before the site
  ads.step(g.rig.capture(g.world, 1), 0.05);
  EXPECT_TRUE(g.gpu0.fault_activated());   // agent 1 executed the site
}

TEST(AdsSystem, StateBytesScaleWithAgents) {
  AdsFixture f;
  AdsSystem single = f.make(AgentMode::kSingle);
  AdsFixture g;
  AdsSystem dual = g.make(AgentMode::kRoundRobin);
  const SensorFrame frame = f.rig.capture(f.world, 0);
  single.step(frame, 0.05);
  dual.step(frame, 0.05);
  dual.step(frame, 0.05);
  EXPECT_GT(dual.state_bytes(), single.state_bytes() * 3 / 2);
}

}  // namespace
}  // namespace dav
