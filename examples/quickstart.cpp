// Quickstart: run one golden (fault-free) experiment of the LeadSlowdown
// scenario with the DiverseAV-enabled ADS and print the safety outcome and a
// short actuation trace.
#include <cstdio>

#include "campaign/driver.h"

int main() {
  dav::RunConfig cfg;
  cfg.scenario = dav::ScenarioId::kLeadSlowdown;
  cfg.mode = dav::AgentMode::kRoundRobin;  // DiverseAV
  cfg.run_seed = 42;
  cfg.record_traces = true;

  const dav::RunResult result = dav::run_experiment(cfg);

  std::printf("scenario      : %s\n", dav::to_string(cfg.scenario).c_str());
  std::printf("mode          : %s\n", dav::to_string(cfg.mode).c_str());
  std::printf("duration      : %.1f s (%d steps)\n", result.duration,
              result.steps);
  std::printf("collision     : %s\n", result.collision ? "YES" : "no");
  std::printf("rule violation: %s\n", result.flags.any() ? "YES" : "no");
  std::printf("  (red light %d, speeding %d, off-road %d)\n",
              result.flags.red_light_violation, result.flags.speeding,
              result.flags.off_road);

  std::printf("\n t[s]  throttle brake  steer   CVIP[m]\n");
  for (std::size_t i = 0; i < result.time_trace.size(); i += 20) {
    std::printf("%5.1f  %6.2f  %5.2f  %+5.2f  %7.2f\n", result.time_trace[i],
                result.throttle_trace[i], result.brake_trace[i],
                result.steer_trace[i],
                result.cvip_trace[i] > 150.0 ? 999.0 : result.cvip_trace[i]);
  }
  std::printf("\nfinal comparison-stream length: %zu observations\n",
              result.observations.size());
  return result.collision ? 1 : 0;
}
