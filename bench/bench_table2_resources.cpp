// Table II: average system resources used by the single-agent, DiverseAV and
// fully-duplicated (FD) configurations. Paper: DiverseAV matches the single-
// agent system's per-processor compute utilization (slightly higher) with 2x
// the memory; FD matches per-processor utilization but needs 2x processors
// AND 2x memory. Utilization is normalized so the single-agent configuration
// sits at the paper's nominal operating point (4% CPU, 14% GPU).
#include <cstdio>

#include "bench_common.h"
#include "campaign/resources.h"

int main() {
  using namespace dav;
  using namespace dav::bench;
  print_header("Table II — resource usage by configuration",
               "DiverseAV (DSN'22) §V-E, Table II");

  CampaignManager mgr = make_manager();

  std::vector<RunConfig> cfgs;
  for (AgentMode mode : {AgentMode::kSingle, AgentMode::kRoundRobin,
                         AgentMode::kDuplicate}) {
    RunConfig cfg = mgr.base_config(ScenarioId::kLeadSlowdown, mode);
    cfg.run_seed = 77;
    cfgs.push_back(cfg);
  }
  const std::vector<RunResult> runs = mgr.run_all(cfgs);
  // The single-agent run is the utilization reference.
  const RunResult& single_run = runs.front();

  TextTable table({"Config", "CPU/proc", "GPU/proc", "RAM", "VRAM", "#Proc"});
  for (const RunResult& run : runs) {
    const ResourceUsage u = measure_resources(run, single_run);
    table.add_row({u.config, TextTable::fmt(u.cpu_util_pct, 1) + "%",
                   TextTable::fmt(u.gpu_util_pct, 1) + "%",
                   TextTable::fmt(u.ram_kb, 0) + " KB",
                   TextTable::fmt(u.vram_kb, 0) + " KB",
                   std::to_string(u.processors)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper Table II (their testbed):\n");
  std::printf("  Single Agent:  CPU 4%%, GPU 14%%, RAM 431 MB, VRAM 198 MB\n");
  std::printf("  DiverseAV:     CPU 5%%, GPU 15%%, RAM 862 MB, VRAM 396 MB\n");
  std::printf("  FD (per proc): CPU 4%%, GPU 14%%, 2x processors, 2x memory\n");
  std::printf("\nReproduced shape: DiverseAV ~= single-agent compute on one\n"
              "processor pair with ~2x memory; FD needs two processor pairs.\n");
  return 0;
}
