// Fig 2 (3)/(4): throttle and CVIP traces for the LeadSlowdown scenario.
//   (3) fault-free: original single-agent ADS vs DiverseAV-enabled ADS —
//       actuation differs slightly, CVIP nearly identical (§V-B).
//   (4) permanent GPU fault: the single agent's throttle shows no visible
//       anomaly (PID smooths it), while the DiverseAV agents' outputs
//       visibly diverge — the signal the error detector thrives on.
#include <cstdio>

#include "bench_common.h"

namespace {

using namespace dav;

RunConfig traced_config(const CampaignManager& mgr, AgentMode mode,
                        const FaultPlan& fault) {
  RunConfig cfg = mgr.base_config(ScenarioId::kLeadSlowdown, mode);
  cfg.fault = fault;
  cfg.run_seed = 31;
  cfg.record_traces = true;
  return cfg;
}

void print_series(const char* name, const RunResult& run, int stride) {
  std::printf("%s\n  t[s]:     ", name);
  for (std::size_t i = 0; i < run.time_trace.size(); i += stride) {
    std::printf("%6.1f", run.time_trace[i]);
  }
  std::printf("\n  throttle: ");
  for (std::size_t i = 0; i < run.throttle_trace.size(); i += stride) {
    std::printf("%6.2f", run.throttle_trace[i]);
  }
  std::printf("\n  CVIP[m]:  ");
  for (std::size_t i = 0; i < run.cvip_trace.size(); i += stride) {
    std::printf("%6.1f", std::min(run.cvip_trace[i], 99.0));
  }
  std::printf("\n");
}

/// Per-agent smoothed throttle divergence trace (Fig 2(4)(b)'s visible
/// divergence between the two agents).
void print_divergence(const char* name, const RunResult& run, int stride) {
  std::printf("%s\n  |du| thr: ", name);
  for (std::size_t i = 0; i < run.observations.size();
       i += static_cast<std::size_t>(stride)) {
    std::printf("%6.2f", run.observations[i].delta.throttle);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace dav;
  using namespace dav::bench;
  print_header("Fig 2 (3)/(4) — LeadSlowdown actuation & CVIP traces",
               "DiverseAV (DSN'22) §III-D, Fig 2");

  CampaignManager mgr = make_manager();
  const int stride = 40;  // 2 s at 20 Hz

  // A permanent GPU fault in a data opcode that propagates but does not
  // crash: corrupt FMACC (conv accumulate), a high-frequency opcode.
  FaultPlan none;
  FaultPlan fault;
  fault.kind = FaultModelKind::kPermanent;
  fault.domain = FaultDomain::kGpu;
  fault.target_opcode = static_cast<int>(GpuOpcode::kFMacc);
  fault.bit = 21;

  const std::vector<RunResult> runs = mgr.run_all(
      {traced_config(mgr, AgentMode::kSingle, none),
       traced_config(mgr, AgentMode::kRoundRobin, none),
       traced_config(mgr, AgentMode::kSingle, fault),
       traced_config(mgr, AgentMode::kRoundRobin, fault)});
  const RunResult& orig = runs[0];
  const RunResult& ours = runs[1];
  const RunResult& forig = runs[2];
  const RunResult& fours = runs[3];

  std::printf("--- Fig 2(3): fault-free ---------------------------------\n");
  print_series("(a) original single-agent ADS", orig, stride);
  print_series("(b) DiverseAV-enabled ADS", ours, stride);

  std::printf("\n--- Fig 2(4): permanent GPU fault (FMACC bit 21) ---------\n");
  print_series("(a) single agent under fault (PID smooths the anomaly)",
               forig, stride);
  print_series("(b) DiverseAV under fault", fours, stride);
  print_divergence("    inter-agent throttle divergence (fault-free)", ours,
                   stride);
  print_divergence("    inter-agent throttle divergence (faulty)", fours,
                   stride);
  std::printf("\nExpected shape: fault-free traces of (3)(a) and (3)(b) are\n"
              "close with near-identical CVIP; under the fault the single\n"
              "agent's throttle stays plausible-looking while the DiverseAV\n"
              "inter-agent divergence becomes clearly visible.\n");
  return 0;
}
