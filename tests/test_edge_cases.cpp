// Edge-case coverage for paths the main suites exercise only on the happy
// path.
#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/metrics.h"

namespace dav {
namespace {

TEST(MetricsEdge, EmptyCampaignSummary) {
  const CampaignSummary s = summarize_campaign({}, Trajectory{}, 2.0);
  EXPECT_EQ(s.total, 0);
  EXPECT_EQ(s.active, 0);
}

TEST(MetricsEdge, EvaluateDetectionEmptyInputs) {
  ThresholdLut lut;
  const DetectionEval ev = evaluate_detection({}, {}, Trajectory{}, lut, 3,
                                              2.0);
  EXPECT_EQ(ev.confusion.total(), 0u);
  EXPECT_EQ(ev.golden_total, 0);
  EXPECT_TRUE(ev.lead_times_sec.empty());
}

TEST(MetricsEdge, GoldenBaselineOfNothingIsEmpty) {
  EXPECT_TRUE(golden_baseline({}).empty());
}

TEST(DriverEdge, ZeroDurationScenarioTerminates) {
  CampaignScale scale;
  scale.safety_duration_sec = 0.2;
  CampaignManager mgr(scale, 1);
  RunConfig cfg = mgr.base_config(ScenarioId::kLeadSlowdown,
                                  AgentMode::kSingle);
  const RunResult r = run_experiment(cfg);
  EXPECT_LE(r.duration, 0.3);
  EXPECT_GE(r.steps, 1);
}

TEST(DriverEdge, TransientPlannedPastEndNotActivated) {
  CampaignScale scale;
  scale.safety_duration_sec = 5.0;
  CampaignManager mgr(scale, 1);
  RunConfig cfg = mgr.base_config(ScenarioId::kLeadSlowdown,
                                  AgentMode::kRoundRobin);
  cfg.fault.kind = FaultModelKind::kTransient;
  cfg.fault.domain = FaultDomain::kGpu;
  cfg.fault.target_dyn_index = ~0ull;  // unreachable
  const RunResult r = run_experiment(cfg);
  EXPECT_FALSE(r.fault_activated);
  EXPECT_EQ(r.outcome, FaultOutcome::kNotActivated);
}

}  // namespace
}  // namespace dav
