// Engineering microbenchmarks (google-benchmark): throughput of the
// simulator, renderer, instrumented engines, agent pipeline and detector.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "campaign/driver.h"
#include "campaign/env_options.h"
#include "core/ads_system.h"
#include "core/detector.h"
#include "sensors/sensor_rig.h"
#include "sim/world.h"
#include "util/stats.h"

namespace {

using namespace dav;

void BM_WorldStep(benchmark::State& state) {
  World world(make_scenario(ScenarioId::kLongRoute02));
  for (auto _ : state) {
    world.step({0.3, 0.0, 0.0}, 0.05);
    benchmark::DoNotOptimize(world.ego());
  }
}
BENCHMARK(BM_WorldStep);

void BM_CameraRender(benchmark::State& state) {
  World world(make_scenario(ScenarioId::kLeadSlowdown));
  CameraRenderer renderer(front_camera_rig()[1]);
  Rng noise(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderer.render(world, noise));
  }
}
BENCHMARK(BM_CameraRender);

void BM_EngineExecClean(benchmark::State& state) {
  GpuEngine eng;
  eng.configure({}, 0);
  float v = 1.0f;
  for (auto _ : state) {
    v = eng.exec(GpuOpcode::kFFma, v * 1.0000001f);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineExecClean);

void BM_EngineExecArmedPermanent(benchmark::State& state) {
  GpuEngine eng;
  FaultPlan plan;
  plan.kind = FaultModelKind::kPermanent;
  plan.domain = FaultDomain::kGpu;
  plan.target_opcode = static_cast<int>(GpuOpcode::kFAdd);  // not kFFma
  eng.configure(plan, 1);
  float v = 1.0f;
  for (auto _ : state) {
    v = eng.exec(GpuOpcode::kFFma, v * 1.0000001f);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineExecArmedPermanent);

void BM_AgentStep(benchmark::State& state) {
  World world(make_scenario(ScenarioId::kLeadSlowdown));
  const auto cams = front_camera_rig();
  SensorRig rig(cams, 7);
  GpuEngine gpu;
  CpuEngine cpu;
  gpu.configure({}, 0);
  cpu.configure({}, 0);
  AgentConfig cfg;
  cfg.perception.center_cam = cams[1];
  SensorimotorAgent agent("bench", cfg, gpu, cpu, &world.map());
  const SensorFrame frame = rig.capture(world, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act(frame, 0.05));
  }
}
BENCHMARK(BM_AgentStep);

void BM_DetectorObserve(benchmark::State& state) {
  ThresholdLut lut;
  VehicleState s;
  s.v = 10.0;
  lut.observe(s, {0.1, 0.1, 0.1});
  ErrorDetector det(lut, {});
  StepObservation obs{0.0, s, {0.01, 0.01, 0.01}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.observe(obs));
    obs.time += 0.05;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorObserve);

RunConfig golden_lead_slowdown() {
  RunConfig cfg;
  cfg.scenario = ScenarioId::kLeadSlowdown;
  cfg.mode = AgentMode::kRoundRobin;
  cfg.run_seed = 5;
  return cfg;
}

void BM_GoldenRunLeadSlowdown(benchmark::State& state) {
  const RunConfig cfg = golden_lead_slowdown();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_experiment(cfg));
  }
}
BENCHMARK(BM_GoldenRunLeadSlowdown)->Unit(benchmark::kMillisecond);

// Flight-recorder overhead on that run, for CI's 5% gate. Each iteration is
// a pair: the run untraced and the run with the recorder writing to
// DAV_TRACE's directory, back to back, alternating which goes first, so a
// neighbour's load falls on both halves of a pair alike. Two untimed pairs
// first let the allocator and page cache reach the state a campaign's
// later runs see. Reports the median per-pair overhead with its quartiles,
// and each side's median time.
void BM_GoldenRunLeadSlowdownTraceOverhead(benchmark::State& state) {
  const RunConfig plain = golden_lead_slowdown();
  RunConfig traced = plain;
  traced.trace = EnvOptions::from_env().trace_options();
  if (!traced.trace.enabled()) {
    state.SkipWithError("set DAV_TRACE=<dir> to time the traced run");
    return;
  }
  const auto time_ms = [](const RunConfig& cfg) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run_experiment(cfg));
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  for (int i = 0; i < 2; ++i) {
    time_ms(plain);
    time_ms(traced);
  }
  std::vector<double> off_ms;
  std::vector<double> on_ms;
  std::vector<double> overhead_pct;
  for (auto _ : state) {
    double off = 0.0;
    double on = 0.0;
    if (overhead_pct.size() % 2 == 0) {
      off = time_ms(plain);
      on = time_ms(traced);
    } else {
      on = time_ms(traced);
      off = time_ms(plain);
    }
    off_ms.push_back(off);
    on_ms.push_back(on);
    overhead_pct.push_back((on - off) / off * 100.0);
  }
  state.counters["pairs"] = static_cast<double>(overhead_pct.size());
  state.counters["untraced_ms"] = median(off_ms);
  state.counters["traced_ms"] = median(on_ms);
  state.counters["overhead_pct"] = median(overhead_pct);
  state.counters["overhead_q1_pct"] = percentile(overhead_pct, 25.0);
  state.counters["overhead_q3_pct"] = percentile(overhead_pct, 75.0);
}
BENCHMARK(BM_GoldenRunLeadSlowdownTraceOverhead)
    ->Iterations(60)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
