// Partial-duplication ablation (paper §III-D footnote 5): sending a fraction
// of frames to BOTH agents raises the per-agent data rate (smaller safety-
// margin cost) at the price of compute overhead. Sweeps the overlap ratio
// and reports compute overhead, golden trajectory divergence and detection
// quality on the LeadSlowdown GPU permanent campaign.
#include <cstdio>
#include <iterator>

#include "bench_common.h"
#include "core/detector.h"

int main() {
  using namespace dav;
  using namespace dav::bench;
  print_header("Ablation — partial duplication (overlap ratio)",
               "DiverseAV (DSN'22) §III-D footnote 5");

  CampaignManager mgr = make_manager();

  // Reference: single-agent instruction count for overhead normalization.
  RunConfig single_cfg =
      mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kSingle);
  single_cfg.run_seed = 17;
  const RunResult single = mgr.run_all({single_cfg}).front();
  const double single_gpu = static_cast<double>(single.gpu_instructions);

  const GoldenSet orig = golden_set(mgr, ScenarioId::kLeadSlowdown,
                                    AgentMode::kSingle, 5);

  TextTable table({"Overlap", "GPU overhead", "Golden div [m]", "Precision",
                   "Recall", "F1"});
  for (double overlap : {0.0, 0.25, 0.5, 1.0}) {
    // One batch per overlap: detector training runs, golden runs, FI sweep.
    std::vector<RunConfig> cfgs;
    // The detector must be trained at the overlap it will run with (the
    // fault-free divergence statistics change with the comparison pattern).
    for (ScenarioId scenario : training_scenarios()) {
      RunConfig cfg = mgr.base_config(scenario, AgentMode::kRoundRobin);
      cfg.overlap_ratio = overlap;
      cfg.run_seed = 900 + static_cast<std::uint64_t>(overlap * 100);
      cfgs.push_back(cfg);
    }
    const std::ptrdiff_t n_train = std::ssize(cfgs);
    const int n_golden = 5;
    for (int i = 0; i < n_golden; ++i) {
      RunConfig cfg =
          mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin);
      cfg.overlap_ratio = overlap;
      cfg.run_seed = 300 + static_cast<std::uint64_t>(i);
      cfgs.push_back(cfg);
    }
    InjectionPlanGenerator gen(41);
    const auto plans = gen.permanent_plans(FaultDomain::kGpu, 1);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      RunConfig cfg =
          mgr.base_config(ScenarioId::kLeadSlowdown, AgentMode::kRoundRobin);
      cfg.overlap_ratio = overlap;
      cfg.fault = plans[i];
      cfg.run_seed = 400 + i;
      cfgs.push_back(cfg);
    }
    const std::vector<RunResult> results = mgr.run_all(cfgs);
    const auto golden_begin = results.begin() + n_train;
    const auto golden_end = golden_begin + n_golden;

    std::vector<std::vector<StepObservation>> train_obs;
    for (auto it = results.begin(); it != golden_begin; ++it) {
      train_obs.push_back(it->observations);
    }
    const ThresholdLut lut = train_lut(train_obs, 3);

    const std::vector<RunResult> golden(golden_begin, golden_end);
    const Trajectory baseline = golden_baseline(golden);
    double worst_vs_orig = 0.0;
    for (const auto& g : golden) {
      worst_vs_orig =
          std::max(worst_vs_orig, run_divergence(g, orig.baseline));
    }
    const double overhead =
        static_cast<double>(golden[0].gpu_instructions) / single_gpu;

    // FI sweep at this overlap.
    const std::vector<RunResult> runs(golden_end, results.end());
    const DetectionEval ev =
        evaluate_detection(runs, golden, baseline, lut, 3, 2.0);
    table.add_row({TextTable::fmt(overlap, 2),
                   TextTable::fmt(overhead, 2) + "x",
                   TextTable::fmt(worst_vs_orig, 2),
                   TextTable::fmt(ev.precision()), TextTable::fmt(ev.recall()),
                   TextTable::fmt(ev.f1())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Overhead grows from ~1x (pure round-robin) to ~2x (every\n"
              "frame duplicated). Detection degrades as overlap -> 1: with\n"
              "identical inputs on the SAME processor the replicas converge\n"
              "to identical state, and a permanent fault corrupts both\n"
              "identically — exactly the paper's §VI-B argument for why\n"
              "time-multiplexed FULL duplication cannot detect permanent\n"
              "faults. Footnote 5's dial therefore trades margin against\n"
              "BOTH overhead and coverage.\n");
  return 0;
}
