#include <gtest/gtest.h>

#include <cstdlib>

#include "campaign/campaign.h"
#include "campaign/metrics.h"
#include "campaign/resources.h"

namespace dav {
namespace {

CampaignScale tiny_scale() {
  CampaignScale s;
  s.transient_runs = 4;
  s.permanent_repeats = 1;
  s.golden_runs = 3;
  s.training_runs_per_scenario = 1;
  s.safety_duration_sec = 12.0;
  s.long_route_duration_sec = 20.0;
  return s;
}

TEST(CampaignScaleTest, FromEnvScalesCounts) {
  setenv("DAV_SCALE", "0.5", 1);
  const CampaignScale s = EnvOptions::from_env().campaign_scale();
  EXPECT_EQ(s.transient_runs, 20);
  EXPECT_EQ(s.golden_runs, 5);
  EXPECT_GE(s.permanent_repeats, 1);
  unsetenv("DAV_SCALE");
  const CampaignScale d = EnvOptions::from_env().campaign_scale();
  EXPECT_EQ(d.transient_runs, 40);
}

TEST(CampaignManagerTest, GoldenRunsVaryByNoiseOnly) {
  CampaignManager mgr(tiny_scale(), 7);
  const auto runs =
      mgr.golden(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin, 3);
  ASSERT_EQ(runs.size(), 3u);
  for (const auto& r : runs) {
    EXPECT_FALSE(r.collision);
    EXPECT_FALSE(r.due);
    EXPECT_EQ(r.outcome, FaultOutcome::kMasked);
    EXPECT_GT(r.steps, 100);
  }
  // Sensor-noise nondeterminism: trajectories differ but only slightly.
  const double div = max_divergence(runs[0].trajectory, runs[1].trajectory);
  EXPECT_GT(div, 0.0);
  EXPECT_LT(div, 1.0);
}

TEST(CampaignManagerTest, ProfileCountsInstructions) {
  CampaignManager mgr(tiny_scale(), 7);
  const ExecutionProfile gpu =
      mgr.profile(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin,
                  FaultDomain::kGpu);
  const ExecutionProfile cpu =
      mgr.profile(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin,
                  FaultDomain::kCpu);
  EXPECT_GT(gpu.total_dyn_instructions, 1000000u);
  EXPECT_GT(cpu.total_dyn_instructions, 1000u);
  EXPECT_GT(gpu.total_dyn_instructions, cpu.total_dyn_instructions);
}

TEST(CampaignManagerTest, FiCampaignSizes) {
  CampaignManager mgr(tiny_scale(), 7);
  const auto trans =
      mgr.fi_campaign(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin,
                      FaultDomain::kGpu, FaultModelKind::kTransient);
  EXPECT_EQ(trans.size(), 4u);
  const auto perm =
      mgr.fi_campaign(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin,
                      FaultDomain::kCpu, FaultModelKind::kPermanent);
  EXPECT_EQ(perm.size(), static_cast<std::size_t>(kNumCpuOpcodes));
}

TEST(CampaignManagerTest, TrainingObservationsFromLongScenarios) {
  CampaignManager mgr(tiny_scale(), 7);
  const auto obs = mgr.training_observations(AgentMode::kRoundRobin);
  EXPECT_EQ(obs.size(), 3u);  // one run per training scenario
  for (const auto& run : obs) EXPECT_GT(run.size(), 100u);
}

TEST(Metrics, GoldenBaselineAndDivergence) {
  CampaignManager mgr(tiny_scale(), 7);
  const auto runs =
      mgr.golden(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin, 3);
  const Trajectory base = golden_baseline(runs);
  EXPECT_GT(base.size(), 100u);
  for (const auto& r : runs) {
    EXPECT_LT(run_divergence(r, base), 0.8);
  }
}

TEST(Metrics, IsPositiveRules) {
  Trajectory base;
  base.push({0, 0});
  base.push({1, 0});
  RunResult run;
  run.trajectory.push({0, 0});
  run.trajectory.push({1, 5.0});
  EXPECT_TRUE(is_positive(run, base, 2.0));
  EXPECT_FALSE(is_positive(run, base, 6.0));
  // A DUE run without collision is not a silent hazard.
  run.due = true;
  EXPECT_FALSE(is_positive(run, base, 2.0));
  run.collision = true;
  EXPECT_TRUE(is_positive(run, base, 2.0));
}

TEST(Metrics, DetectRunPrefersEarlierAlarm) {
  ThresholdLut lut;
  RunResult run;
  run.due = true;
  run.due_time = 5.0;
  const Detection d = detect_run(run, lut, 3);
  EXPECT_TRUE(d.alarm);
  EXPECT_DOUBLE_EQ(d.time, 5.0);
}

TEST(Metrics, SummarizeCampaignCounts) {
  Trajectory base;
  for (int i = 0; i < 10; ++i) base.push({i * 1.0, 0.0});
  std::vector<RunResult> runs(4);
  for (auto& r : runs) {
    for (int i = 0; i < 10; ++i) r.trajectory.push({i * 1.0, 0.0});
    r.fault_activated = true;
  }
  runs[0].collision = true;
  runs[1].outcome = FaultOutcome::kCrash;
  runs[1].due = true;
  runs[2].trajectory = Trajectory{};
  for (int i = 0; i < 10; ++i) runs[2].trajectory.push({i * 1.0, 3.0});
  const CampaignSummary s = summarize_campaign(runs, base, 2.0);
  EXPECT_EQ(s.total, 4);
  EXPECT_EQ(s.active, 4);
  EXPECT_EQ(s.hang_crash, 1);
  EXPECT_EQ(s.accidents, 1);
  EXPECT_EQ(s.traj_violations, 1);
}

TEST(Metrics, EvaluateDetectionExcludesPlainDueRuns) {
  ThresholdLut lut;  // untrained: floors only
  Trajectory base;
  for (int i = 0; i < 5; ++i) base.push({i * 1.0, 0.0});
  std::vector<RunResult> fi(2);
  for (auto& r : fi) {
    for (int i = 0; i < 5; ++i) r.trajectory.push({i * 1.0, 0.0});
  }
  fi[0].due = true;  // DUE, no collision: excluded
  const DetectionEval ev = evaluate_detection(fi, {}, base, lut, 3, 2.0);
  EXPECT_EQ(ev.confusion.total(), 1u);
}

TEST(Resources, ModesScaleAsExpected) {
  CampaignManager mgr(tiny_scale(), 7);
  RunConfig single_cfg =
      mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kSingle);
  single_cfg.run_seed = 3;
  const RunResult single = run_experiment(single_cfg);

  RunConfig rr_cfg =
      mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin);
  rr_cfg.run_seed = 3;
  const RunResult rr = run_experiment(rr_cfg);

  RunConfig fd_cfg =
      mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kDuplicate);
  fd_cfg.run_seed = 3;
  const RunResult fd = run_experiment(fd_cfg);

  const ResourceUsage us = measure_resources(single, single);
  const ResourceUsage ur = measure_resources(rr, single);
  const ResourceUsage uf = measure_resources(fd, single);

  EXPECT_NEAR(us.gpu_util_pct, kNominalSingleGpuPct, 1e-9);
  EXPECT_NEAR(us.cpu_util_pct, kNominalSingleCpuPct, 1e-9);
  // DiverseAV: same per-processor utilization ballpark, one processor pair.
  EXPECT_NEAR(ur.gpu_util_pct, us.gpu_util_pct, us.gpu_util_pct * 0.25);
  EXPECT_EQ(ur.processors, 1);
  // FD: two processor pairs, per-processor utilization like single.
  EXPECT_EQ(uf.processors, 2);
  EXPECT_NEAR(uf.gpu_util_pct, us.gpu_util_pct, us.gpu_util_pct * 0.25);
  // Memory: both redundant configurations hold ~2x the single-agent state.
  EXPECT_NEAR(ur.vram_kb / us.vram_kb, 2.0, 0.4);
  EXPECT_NEAR(uf.vram_kb / us.vram_kb, 2.0, 0.4);
}

TEST(Driver, RecordTracesProducesAlignedSeries) {
  CampaignManager mgr(tiny_scale(), 7);
  RunConfig cfg =
      mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin);
  cfg.record_traces = true;
  cfg.run_seed = 5;
  const RunResult r = run_experiment(cfg);
  EXPECT_EQ(r.time_trace.size(), r.throttle_trace.size());
  EXPECT_EQ(r.time_trace.size(), r.brake_trace.size());
  EXPECT_EQ(r.time_trace.size(), r.cvip_trace.size());
  EXPECT_EQ(r.time_trace.size(), r.acting_agent_trace.size());
  EXPECT_GT(r.time_trace.size(), 100u);
}

TEST(Driver, CrashFaultYieldsDueAndFailback) {
  CampaignManager mgr(tiny_scale(), 7);
  RunConfig cfg =
      mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin);
  FaultPlan plan;
  plan.kind = FaultModelKind::kPermanent;
  plan.domain = FaultDomain::kGpu;
  plan.target_opcode = static_cast<int>(GpuOpcode::kLdg);  // memory class
  plan.bit = 4;
  cfg.fault = plan;
  // Try a few seeds: the memory-class permanent lethality is ~0.95.
  bool saw_due = false;
  for (std::uint64_t seed = 1; seed <= 5 && !saw_due; ++seed) {
    cfg.run_seed = seed;
    const RunResult r = run_experiment(cfg);
    if (r.due) {
      saw_due = true;
      EXPECT_TRUE(r.outcome == FaultOutcome::kCrash ||
                  r.outcome == FaultOutcome::kHang);
      EXPECT_GE(r.due_time, 0.0);
      // Failback brings the vehicle to a stop: the run ends early.
      EXPECT_LT(r.duration, 29.9);
    }
  }
  EXPECT_TRUE(saw_due);
}

TEST(Driver, SeedsAreReproducible) {
  CampaignManager mgr(tiny_scale(), 7);
  RunConfig cfg =
      mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin);
  cfg.run_seed = 11;
  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_DOUBLE_EQ(max_divergence(a.trajectory, b.trajectory), 0.0);
}

}  // namespace
}  // namespace dav
