// Checkpoint-tree payoff: a fault-variant sweep sharing one fault-free
// prefix, run through the real run_experiment with the deep checkpoint tier
// off vs on (campaign/checkpoint.h, DESIGN.md §16).
//
// The sweep is the shape the tier exists for: every variant has the same
// scenario, seed and world evolution up to the injection onset and differs
// only in its sensor-fault plan. Checkpoint-off replays the shared prefix
// once per variant; checkpoint-on simulates it once, captures at the onset
// tick, and every sibling resumes from the snapshot and pays only for its
// own suffix. With the onset at 90% of the run the ideal payoff for K
// variants is K / (1 + (K-1)/10); the CI gate (--assert-min-speedup) holds
// the realized speedup to >= 3x against the plain pool baseline.
//
// Restored runs are pinned byte-identical to straight-through runs
// (test_checkpoint.cpp), and this benchmark re-verifies that on every
// invocation before it reports a single number.
//
// Usage: bench_checkpoint [--jobs=N] [--assert-min-speedup=X]
// Env:   DAV_SCALE scales the sweep width (same knob as the campaigns).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/driver.h"
#include "campaign/env_options.h"
#include "campaign/executor.h"
#include "campaign/serialize.h"
#include "fi/sensor_fault.h"

namespace {

using namespace dav;

// 160 ticks of simulated time with injection at tick 144: the shared prefix
// is 90% of every run, so the deep tier elides almost all repeated work.
constexpr double kDurationSec = 8.0;
constexpr int kOnsetTick = 144;

std::vector<RunConfig> sweep(std::size_t n) {
  std::vector<RunConfig> cfgs;
  cfgs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RunConfig cfg;
    cfg.scenario = ScenarioId::kLeadSlowdown;
    cfg.mode = AgentMode::kRoundRobin;
    cfg.run_seed = 777;
    cfg.scenario_opts.safety_duration_sec = kDurationSec;
    cfg.fusion.enabled = true;
    cfg.sensor_fault.model = (i % 2 == 0) ? SensorFaultModel::kCameraBlackout
                                          : SensorFaultModel::kCameraFrozen;
    cfg.sensor_fault.sensor_index = 1;
    cfg.sensor_fault.onset_tick = kOnsetTick;
    cfg.sensor_fault.duration_ticks = 10;
    cfg.sensor_fault.seed = 4000 + i;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

struct Measurement {
  double runs_per_sec = 0.0;
  std::vector<std::string> result_bytes;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

Measurement measure(int jobs, bool checkpoint,
                    const std::vector<RunConfig>& cfgs) {
  ExecutorOptions o;
  o.jobs = jobs;
  o.checkpoint = checkpoint;
  o.run_timeout_sec = 600.0;
  o.max_retries = 0;
  CampaignExecutor exec(o);
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = exec.run_all(cfgs);
  const auto t1 = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(t1 - t0).count();

  Measurement m;
  m.runs_per_sec = sec > 0.0 ? static_cast<double>(cfgs.size()) / sec : 0.0;
  m.hits = exec.stats().checkpoint_hits;
  m.misses = exec.stats().checkpoint_misses;
  m.result_bytes.reserve(results.size());
  for (const auto& r : results) {
    m.result_bytes.push_back(serialize_run_result(r));
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1;
  double assert_min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--assert-min-speedup=", 0) == 0) {
      assert_min_speedup = std::atof(arg.c_str() + 21);
    } else {
      std::fprintf(stderr,
                   "usage: bench_checkpoint [--jobs=N] "
                   "[--assert-min-speedup=X]\n");
      return 2;
    }
  }
  if (jobs < 1) jobs = 1;

  const EnvOptions env = EnvOptions::from_env();
  const std::size_t n = std::max<std::size_t>(
      8, static_cast<std::size_t>(12.0 * env.scale));
  const auto cfgs = sweep(n);

  std::printf("==========================================================\n");
  std::printf("Checkpoint trees: shared-prefix sweep, deep tier off vs on\n");
  std::printf("jobs=%d  variants=%zu  prefix=%d/%d ticks\n", jobs, n,
              kOnsetTick, static_cast<int>(kDurationSec / 0.05));
  std::printf("==========================================================\n");

  const Measurement off = measure(jobs, /*checkpoint=*/false, cfgs);
  const Measurement on = measure(jobs, /*checkpoint=*/true, cfgs);

  // The tier must never change a byte of any result.
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    if (on.result_bytes[i] != off.result_bytes[i]) {
      std::fprintf(stderr,
                   "FAIL: checkpointed run %zu differs from the "
                   "straight-through run — results must be bit-identical\n",
                   i);
      return 1;
    }
  }

  const double speedup = on.runs_per_sec / off.runs_per_sec;
  std::printf("checkpoint off : %8.2f runs/sec\n", off.runs_per_sec);
  std::printf("checkpoint on  : %8.2f runs/sec  (%.2fx, %llu hits / %llu "
              "misses)\n",
              on.runs_per_sec, speedup,
              static_cast<unsigned long long>(on.hits),
              static_cast<unsigned long long>(on.misses));
  std::printf("results bit-identical with the tier on: yes\n");

  if (assert_min_speedup > 0.0 && speedup < assert_min_speedup) {
    std::fprintf(stderr, "FAIL: checkpoint speedup %.2fx < required %.2fx\n",
                 speedup, assert_min_speedup);
    return 1;
  }
  return 0;
}
