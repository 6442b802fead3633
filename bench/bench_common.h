// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures.
//
// Every ADS run a report bench makes goes through CampaignManager::run_all
// (only bench_uav_extension's UAV loop stays in-process), so the benches
// inherit the process-isolated executor: DAV_JOBS parallelizes the campaign
// across sandboxed workers and DAV_JOURNAL makes it resumable after an
// interruption, with bit-identical output (DESIGN.md §9).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/env_options.h"
#include "campaign/metrics.h"
#include "util/text_report.h"

namespace dav::bench {

inline CampaignManager make_manager() {
  // One env read (the typed façade), injected explicitly: sizing, executor
  // routing and trace opt-in all come from the same validated snapshot.
  return CampaignManager(EnvOptions::from_env(), /*seed=*/2022);
}

inline void print_header(const std::string& what, const std::string& paper) {
  std::printf("==========================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("Paper reference: %s\n", paper.c_str());
  std::printf("==========================================================\n");
}

/// Golden runs + baseline for one scenario/mode.
struct GoldenSet {
  std::vector<RunResult> runs;
  Trajectory baseline;
};

inline GoldenSet golden_set(CampaignManager& mgr, ScenarioId scenario,
                            AgentMode mode, int count) {
  GoldenSet g;
  g.runs = mgr.golden(scenario, mode, count);
  g.baseline = golden_baseline(g.runs);
  return g;
}

}  // namespace dav::bench
