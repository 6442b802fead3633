// Sensor-path fault injection (fi/sensor_fault.h) and its campaign plumbing.
//
// The load-bearing guarantees pinned here:
//   * Pre-PR byte identity: a plan-free, fusion-free RunConfig/RunResult
//     serializes to EXACTLY the bytes (and digests) the pre-sensor-fault
//     codec produced — hardcoded FNV pins, computed from the pre-extension
//     build. Existing journals stay parseable and digest-stable.
//   * With a plan, the whole pipeline is a pure function of (config): two
//     runs of the same seed+plan are byte-identical, serial or pooled.
//   * The injector's per-model semantics and its per-tick stream
//     independence (corruption at tick T never depends on earlier ticks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/driver.h"
#include "campaign/metrics.h"
#include "campaign/serialize.h"
#include "fi/plan_generator.h"
#include "fi/sensor_fault.h"
#include "sensors/sensor_rig.h"
#include "sim/scenario.h"
#include "util/bits.h"

namespace dav {
namespace {

std::uint64_t fnv_of(const std::string& b) {
  return fnv1a64(b.data(), b.size());
}

// --- Pre-PR pins -----------------------------------------------------------
// Constants computed from the build at the commit BEFORE the sensor-fault
// extension existed. If one of these fails, the extension leaked into the
// plan-free wire format and every existing journal/digest just broke.

RunConfig sample_config() {
  RunConfig cfg;
  cfg.scenario = ScenarioId::kGhostCutIn;
  cfg.scenario_seed = 7;
  cfg.mode = AgentMode::kDuplicate;
  cfg.overlap_ratio = 0.25;
  cfg.fault.kind = FaultModelKind::kPermanent;
  cfg.fault.domain = FaultDomain::kCpu;
  cfg.fault.target_opcode = 3;
  cfg.fault.bit = 21;
  cfg.run_seed = 424242;
  cfg.record_traces = true;
  return cfg;
}

RunResult sample_result() {
  RunResult r;
  r.scenario = ScenarioId::kGhostCutIn;
  r.mode = AgentMode::kDuplicate;
  r.fault.kind = FaultModelKind::kTransient;
  r.fault.domain = FaultDomain::kCpu;
  r.fault.target_dyn_index = 123456789;
  r.fault.target_opcode = 17;
  r.fault.bit = 5;
  r.run_seed = 99;
  r.outcome = FaultOutcome::kSdc;
  r.fault_activated = true;
  r.collision = true;
  r.collision_time = 12.25;
  r.flags.collision = true;
  r.flags.red_light_violation = true;
  r.flags.off_road = true;
  r.trajectory.push({1.5, -2.5});
  r.trajectory.push({3.0, 4.0});
  r.duration = 29.5;
  r.scheduled_duration = 30.0;
  r.dt = 0.05;
  r.steps = 590;
  r.due = true;
  r.due_time = 11.0;
  r.due_source = DueSource::kEngineCrash;
  r.online_alarmed = true;
  r.online_alarm_time = 10.5;
  r.recovery.attempts = 2;
  r.recovery.completed = 1;
  r.recovery.escalated = true;
  r.recovery.first_detector_alarm_time = 10.5;
  r.recovery.events.push_back(
      RecoveryEvent{1, DueSource::kEngineCrash, 10.5, 10.6, 12.6, 210, 212,
                    252});
  r.recovery.nominal_ticks = 500;
  r.recovery.probe_ticks = 6;
  r.recovery.degraded_ticks = 40;
  r.recovery.failback_ticks = 44;
  StepObservation obs;
  obs.time = 1.0;
  obs.state.pose.pos = {2.0, 3.0};
  obs.state.pose.yaw = 0.25;
  obs.state.v = 9.0;
  obs.state.a = 0.5;
  obs.state.omega = 0.01;
  obs.state.alpha = 0.002;
  obs.delta = ActuationDelta{0.1, 0.2, 0.3};
  r.observations.push_back(obs);
  r.time_trace = {0.05, 0.1};
  r.throttle_trace = {0.5, 0.6};
  r.brake_trace = {0.0, 0.1};
  r.steer_trace = {-0.05, 0.05};
  r.cvip_trace = {40.0, 39.0};
  r.acting_agent_trace = {0, 1};
  r.gpu_instructions = 1111111;
  r.cpu_instructions = 2222222;
  r.agent_state_bytes = 4096;
  r.sensor_frame_bytes = 62208;
  return r;
}

TEST(SensorFaultCodec, PlanFreeConfigBytesArePinnedPrePr) {
  const std::string def = serialize_run_config(RunConfig{});
  EXPECT_EQ(def.size(), 151u);
  EXPECT_EQ(fnv_of(def), 0x6d6f47d146fbb8beULL);
  EXPECT_EQ(run_config_digest(RunConfig{}), 0x4f55b58c604a1fd9ULL);

  const std::string sample = serialize_run_config(sample_config());
  EXPECT_EQ(sample.size(), 151u);
  EXPECT_EQ(fnv_of(sample), 0x5f19f1b6749eaffdULL);
  EXPECT_EQ(run_config_digest(sample_config()), 0x22931c5c5b83abdeULL);
}

TEST(SensorFaultCodec, PlanFreeResultBytesArePinnedPrePr) {
  const std::string bytes = serialize_run_result(sample_result());
  EXPECT_EQ(bytes.size(), 480u);
  EXPECT_EQ(fnv_of(bytes), 0x36247859adfba9a9ULL);
}

// --- Round trips -----------------------------------------------------------

SensorFaultPlan sample_plan() {
  SensorFaultPlan p;
  p.model = SensorFaultModel::kCameraBlackout;
  p.sensor_index = 1;
  p.onset_tick = 40;
  p.duration_ticks = 80;
  p.seed = 0xfeedULL;
  p.magnitude = 0.75;
  return p;
}

TEST(SensorFaultCodec, ConfigRoundTripsPlanAndFusion) {
  RunConfig cfg = sample_config();
  cfg.sensor_fault = sample_plan();
  cfg.fusion.enabled = true;
  cfg.fusion.health.degrade_after = 3;
  cfg.fusion.health.drop_after = 7;
  cfg.fusion.health.rejoin_after = 12;
  cfg.fusion.health.degraded_weight = 0.2;
  cfg.fusion.health.gps_window_ticks = 25;
  cfg.fusion.lidar_corridor_half_deg = 9.0;
  cfg.fusion.min_cruise_mps = 1.5;

  const RunConfigRecord rec = deserialize_run_config(serialize_run_config(cfg));
  const RunConfig& d = rec.cfg;
  EXPECT_EQ(d.sensor_fault.model, cfg.sensor_fault.model);
  EXPECT_EQ(d.sensor_fault.sensor_index, cfg.sensor_fault.sensor_index);
  EXPECT_EQ(d.sensor_fault.onset_tick, cfg.sensor_fault.onset_tick);
  EXPECT_EQ(d.sensor_fault.duration_ticks, cfg.sensor_fault.duration_ticks);
  EXPECT_EQ(d.sensor_fault.seed, cfg.sensor_fault.seed);
  EXPECT_DOUBLE_EQ(d.sensor_fault.magnitude, cfg.sensor_fault.magnitude);
  EXPECT_TRUE(d.fusion.enabled);
  EXPECT_EQ(d.fusion.health.degrade_after, 3);
  EXPECT_EQ(d.fusion.health.drop_after, 7);
  EXPECT_EQ(d.fusion.health.rejoin_after, 12);
  EXPECT_DOUBLE_EQ(d.fusion.health.degraded_weight, 0.2);
  EXPECT_EQ(d.fusion.health.gps_window_ticks, 25);
  EXPECT_DOUBLE_EQ(d.fusion.lidar_corridor_half_deg, 9.0);
  EXPECT_DOUBLE_EQ(d.fusion.min_cruise_mps, 1.5);

  // Fusion without a plan also rides the extension (workers must inherit it).
  RunConfig fusion_only;
  fusion_only.fusion.enabled = true;
  const RunConfigRecord rec2 =
      deserialize_run_config(serialize_run_config(fusion_only));
  EXPECT_TRUE(rec2.cfg.fusion.enabled);
  EXPECT_FALSE(rec2.cfg.sensor_fault.active());
}

TEST(SensorFaultCodec, ResultRoundTripsSensorExtension) {
  RunResult r = sample_result();
  r.sensor_fault = sample_plan();
  r.sensor_fault.model = SensorFaultModel::kTensorBitFlip;
  r.sensor_fault.sensor_index = 0;
  r.sensor_fault.layer = 2;
  r.sensor_fault.bit = 30;
  r.sensor_corruptions = 77;
  r.recovery.sensor_degraded_ticks = 55;
  r.recovery.sensor_events.push_back(
      SensorDegradeEvent{/*channel=*/1, /*onset_tick=*/42, /*onset_time=*/2.1,
                         /*rejoin_tick=*/130, /*rejoin_time=*/6.5,
                         /*dropped=*/true, /*escalated=*/false});
  r.recovery.sensor_events.push_back(
      SensorDegradeEvent{/*channel=*/4, /*onset_tick=*/60, /*onset_time=*/3.0,
                         /*rejoin_tick=*/-1, /*rejoin_time=*/-1.0,
                         /*dropped=*/false, /*escalated=*/true});

  const RunResult d = deserialize_run_result(serialize_run_result(r));
  EXPECT_EQ(d.sensor_fault.model, SensorFaultModel::kTensorBitFlip);
  EXPECT_EQ(d.sensor_fault.layer, 2);
  EXPECT_EQ(d.sensor_fault.bit, 30);
  EXPECT_EQ(d.sensor_corruptions, 77u);
  EXPECT_EQ(d.recovery.sensor_degraded_ticks, 55);
  ASSERT_EQ(d.recovery.sensor_events.size(), 2u);
  EXPECT_EQ(d.recovery.sensor_events[0].channel, 1);
  EXPECT_EQ(d.recovery.sensor_events[0].onset_tick, 42);
  EXPECT_DOUBLE_EQ(d.recovery.sensor_events[0].onset_time, 2.1);
  EXPECT_EQ(d.recovery.sensor_events[0].rejoin_tick, 130);
  EXPECT_DOUBLE_EQ(d.recovery.sensor_events[0].rejoin_time, 6.5);
  EXPECT_TRUE(d.recovery.sensor_events[0].dropped);
  EXPECT_FALSE(d.recovery.sensor_events[0].escalated);
  EXPECT_EQ(d.recovery.sensor_events[1].channel, 4);
  EXPECT_EQ(d.recovery.sensor_events[1].rejoin_tick, -1);
  EXPECT_TRUE(d.recovery.sensor_events[1].escalated);
  // Serialized form re-serializes identically (stable fixed point).
  EXPECT_EQ(serialize_run_result(d), serialize_run_result(r));
}

TEST(SensorFaultCodec, DigestIsSensitiveToEveryPlanField) {
  RunConfig base = sample_config();
  base.sensor_fault = sample_plan();
  base.fusion.enabled = true;
  const std::uint64_t d0 = run_config_digest(base);
  EXPECT_NE(d0, run_config_digest(sample_config()));  // extension visible

  const auto mutated = [&](auto&& mutate) {
    RunConfig m = base;
    mutate(m);
    return run_config_digest(m);
  };
  EXPECT_NE(d0, mutated([](RunConfig& m) {
    m.sensor_fault.model = SensorFaultModel::kCameraFrozen;
  }));
  EXPECT_NE(d0, mutated([](RunConfig& m) { m.sensor_fault.sensor_index = 2; }));
  EXPECT_NE(d0, mutated([](RunConfig& m) { m.sensor_fault.onset_tick = 41; }));
  EXPECT_NE(d0,
            mutated([](RunConfig& m) { m.sensor_fault.duration_ticks = 81; }));
  EXPECT_NE(d0, mutated([](RunConfig& m) { m.sensor_fault.seed = 0xbeef; }));
  EXPECT_NE(d0, mutated([](RunConfig& m) { m.sensor_fault.magnitude = 0.5; }));
  EXPECT_NE(d0, mutated([](RunConfig& m) { m.sensor_fault.layer = 1; }));
  EXPECT_NE(d0, mutated([](RunConfig& m) { m.sensor_fault.bit = 7; }));
  EXPECT_NE(d0, mutated([](RunConfig& m) { m.fusion.enabled = false; }));
  EXPECT_NE(d0, mutated([](RunConfig& m) {
    m.fusion.health.degraded_weight = 0.9;
  }));
}

// --- Injector semantics ----------------------------------------------------

constexpr int kW = 16;
constexpr int kH = 12;

std::vector<std::uint8_t> test_image(std::uint8_t base = 100) {
  std::vector<std::uint8_t> img(static_cast<std::size_t>(kW) * kH * 3);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>(base + i % 31);
  }
  return img;
}

TEST(SensorFaultInjector, IdenticalPlansCorruptIdentically) {
  SensorFaultPlan plan = sample_plan();
  plan.model = SensorFaultModel::kCameraSaltPepper;
  SensorFaultInjector a(plan);
  SensorFaultInjector b(plan);
  auto img_a = test_image();
  auto img_b = test_image();
  // Different call orders: per-tick streams make tick 50 independent of
  // whether tick 45 was ever corrupted by this instance.
  a.corrupt_camera(1, 45, img_a.data(), kW, kH);
  a.corrupt_camera(1, 50, img_a.data(), kW, kH);
  auto img_b2 = test_image();
  b.corrupt_camera(1, 45, img_b.data(), kW, kH);
  b.corrupt_camera(1, 50, img_b.data(), kW, kH);
  EXPECT_EQ(img_a, img_b);
  (void)img_b2;

  SensorFaultPlan other = plan;
  other.seed = plan.seed + 1;
  SensorFaultInjector c(other);
  auto img_c = test_image();
  c.corrupt_camera(1, 45, img_c.data(), kW, kH);
  c.corrupt_camera(1, 50, img_c.data(), kW, kH);
  EXPECT_NE(img_a, img_c);
}

TEST(SensorFaultInjector, NoOpOutsideWindowIndexAndKind) {
  SensorFaultPlan plan = sample_plan();  // camera 1, ticks [40, 120)
  SensorFaultInjector inj(plan);
  auto img = test_image();
  const auto orig = img;
  inj.corrupt_camera(1, 39, img.data(), kW, kH);   // before onset
  inj.corrupt_camera(1, 120, img.data(), kW, kH);  // past the window
  inj.corrupt_camera(0, 50, img.data(), kW, kH);   // wrong camera
  std::vector<float> ranges(72, 10.0f);
  const auto ranges_orig = ranges;
  inj.corrupt_lidar(50, ranges);                   // wrong kind
  float gps[6] = {1, 2, 3, 4, 5, 6};
  inj.corrupt_gps(50, gps, 6);                     // wrong kind
  float tensor[4] = {1, 2, 3, 4};
  inj.corrupt_tensor(0, 50, tensor, 4);            // wrong kind
  EXPECT_EQ(img, orig);
  EXPECT_EQ(ranges, ranges_orig);
  EXPECT_FLOAT_EQ(gps[0], 1.0f);
  EXPECT_FLOAT_EQ(tensor[3], 4.0f);
  EXPECT_EQ(inj.corruptions(), 0u);
}

TEST(SensorFaultInjector, BlackoutZeroesTheTargetCamera) {
  SensorFaultInjector inj(sample_plan());
  auto img = test_image();
  inj.corrupt_camera(1, 60, img.data(), kW, kH);
  EXPECT_TRUE(std::all_of(img.begin(), img.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(inj.corruptions(), static_cast<std::uint64_t>(kW) * kH);
}

TEST(SensorFaultInjector, FrozenRepeatsTheLastPreOnsetFrame) {
  SensorFaultPlan plan = sample_plan();
  plan.model = SensorFaultModel::kCameraFrozen;
  SensorFaultInjector inj(plan);
  auto pre = test_image(10);
  inj.corrupt_camera(1, 39, pre.data(), kW, kH);  // cached, not modified
  EXPECT_EQ(pre, test_image(10));
  auto in_window = test_image(200);
  inj.corrupt_camera(1, 70, in_window.data(), kW, kH);
  EXPECT_EQ(in_window, test_image(10));  // replaced by the cached frame
}

TEST(SensorFaultInjector, OcclusionPatchIsStableAcrossTicks) {
  SensorFaultPlan plan = sample_plan();
  plan.model = SensorFaultModel::kCameraOcclusion;
  SensorFaultInjector inj(plan);
  auto t1 = test_image();
  auto t2 = test_image();
  inj.corrupt_camera(1, 50, t1.data(), kW, kH);
  inj.corrupt_camera(1, 90, t2.data(), kW, kH);
  EXPECT_EQ(t1, t2);  // same patch geometry for the fault's lifetime
  EXPECT_NE(t1, test_image());
  EXPECT_GT(inj.corruptions(), 0u);
}

TEST(SensorFaultInjector, LidarDropoutAndGhost) {
  SensorFaultPlan plan = sample_plan();
  plan.model = SensorFaultModel::kLidarDropout;
  plan.sensor_index = 0;
  SensorFaultInjector drop(plan);
  std::vector<float> ranges(72, 20.0f);
  drop.corrupt_lidar(60, ranges);
  const auto zeroed = std::count(ranges.begin(), ranges.end(), 0.0f);
  EXPECT_GT(zeroed, 0);
  EXPECT_LT(zeroed, 72);

  plan.model = SensorFaultModel::kLidarGhost;
  SensorFaultInjector ghost(plan);
  std::vector<float> clean(72, 20.0f);
  ghost.corrupt_lidar(60, clean);
  const auto near = std::count_if(clean.begin(), clean.end(),
                                  [](float r) { return r < 2.0f; });
  EXPECT_GT(near, 0);
}

TEST(SensorFaultInjector, GpsLossAndDrift) {
  SensorFaultPlan plan = sample_plan();
  plan.model = SensorFaultModel::kGpsLoss;
  plan.sensor_index = 0;
  SensorFaultInjector loss(plan);
  float fields[6] = {10.0f, 20.0f, 9.0f, 0.5f, 0.1f, 0.01f};
  loss.corrupt_gps(60, fields, 6);
  for (float f : fields) EXPECT_FLOAT_EQ(f, 0.0f);

  plan.model = SensorFaultModel::kGpsDrift;
  SensorFaultInjector drift(plan);
  float early[6] = {10.0f, 20.0f, 9.0f, 0.5f, 0.1f, 0.01f};
  float late[6] = {10.0f, 20.0f, 9.0f, 0.5f, 0.1f, 0.01f};
  drift.corrupt_gps(45, early, 6);
  drift.corrupt_gps(110, late, 6);
  const double off_early = std::abs(early[0] - 10.0) + std::abs(early[1] - 20.0);
  const double off_late = std::abs(late[0] - 10.0) + std::abs(late[1] - 20.0);
  EXPECT_GT(off_late, off_early);  // the drift ramps with time since onset
}

TEST(SensorFaultInjector, TensorBitFlipFlipsExactlyOneSeededBit) {
  SensorFaultPlan plan = sample_plan();
  plan.model = SensorFaultModel::kTensorBitFlip;
  plan.sensor_index = 0;
  plan.layer = 2;
  plan.bit = 30;
  SensorFaultInjector inj(plan);
  float data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const float orig[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  inj.corrupt_tensor(/*layer=*/1, 60, data, 8);  // wrong layer: no-op
  EXPECT_EQ(std::memcmp(data, orig, sizeof(data)), 0);
  inj.corrupt_tensor(/*layer=*/2, 60, data, 8);
  int changed = 0;
  for (int i = 0; i < 8; ++i) {
    if (data[i] != orig[i]) {
      ++changed;
      const std::uint32_t diff = float_bits(data[i]) ^ float_bits(orig[i]);
      EXPECT_EQ(diff, 1u << 30);
    }
  }
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(inj.corruptions(), 1u);
}

// --- Plan generation -------------------------------------------------------

TEST(SensorPlanGenerator, DeterministicSweepWithValidTargeting) {
  InjectionPlanGenerator gen(77);
  const auto plans =
      gen.sensor_plans(all_sensor_fault_models(), 3, /*onset=*/40,
                       /*duration=*/80);
  EXPECT_EQ(plans.size(), all_sensor_fault_models().size() * 3u);
  const auto again =
      gen.sensor_plans(all_sensor_fault_models(), 3, 40, 80);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].seed, again[i].seed);
    EXPECT_EQ(plans[i].model, again[i].model);
  }
  for (const SensorFaultPlan& p : plans) {
    EXPECT_TRUE(p.active());
    EXPECT_GE(p.magnitude, 0.25);
    EXPECT_LE(p.magnitude, 1.0);
    if (p.kind() == SensorKind::kCamera) {
      EXPECT_GE(p.sensor_index, 0);
      EXPECT_LT(p.sensor_index, 3);
    } else {
      EXPECT_EQ(p.sensor_index, 0);
    }
    if (p.model == SensorFaultModel::kTensorBitFlip) {
      EXPECT_GE(p.bit, 0);
      EXPECT_LT(p.bit, 32);
      EXPECT_GE(p.layer, 0);
      EXPECT_LT(p.layer, 4);
    }
  }
}

// --- Validation (satellite: actionable rejection messages) -----------------

void expect_rejected(const RunConfig& cfg, const std::string& needle) {
  try {
    cfg.validate();
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(RunConfigValidate, RejectsMalformedSensorPlans) {
  RunConfig ok;
  ok.sensor_fault = sample_plan();
  ok.validate();

  RunConfig bad = ok;
  bad.sensor_fault.duration_ticks = 0;
  // duration == 0 means inactive (kNone-equivalent) only when the model is
  // kNone; with a real model it is a misconfigured plan.
  expect_rejected(bad, "duration_ticks");

  bad = ok;
  bad.sensor_fault.duration_ticks = -5;
  expect_rejected(bad, "duration_ticks");

  bad = ok;
  bad.sensor_fault.onset_tick = -1;
  expect_rejected(bad, "onset_tick");

  bad = ok;  // kLeadSlowdown is a safety scenario: 30 s / 0.05 = 600 ticks
  bad.sensor_fault.onset_tick = 600;
  expect_rejected(bad, "scheduled run length");

  bad = ok;
  bad.sensor_fault.sensor_index = 3;
  expect_rejected(bad, "sensor_index");

  bad = ok;
  bad.sensor_fault.model = SensorFaultModel::kGpsLoss;
  bad.sensor_fault.sensor_index = 1;
  expect_rejected(bad, "must be 0");

  bad = ok;
  bad.sensor_fault.magnitude = 1.5;
  expect_rejected(bad, "magnitude");

  bad = ok;
  bad.sensor_fault.model = SensorFaultModel::kTensorBitFlip;
  bad.sensor_fault.sensor_index = 0;
  bad.sensor_fault.bit = 32;
  expect_rejected(bad, "bit");

  bad = ok;
  bad.sensor_fault.model = SensorFaultModel::kTensorBitFlip;
  bad.sensor_fault.sensor_index = 0;
  bad.sensor_fault.layer = 4;
  expect_rejected(bad, "layer");

  bad = ok;  // LiDAR models need fusion (no LiDAR capture without it)
  bad.sensor_fault.model = SensorFaultModel::kLidarDropout;
  bad.sensor_fault.sensor_index = 0;
  expect_rejected(bad, "fusion");
  bad.fusion.enabled = true;
  bad.validate();

  bad = ok;
  bad.fusion.enabled = true;
  bad.fusion.health.drop_after = 0;
  expect_rejected(bad, "drop_after");

  bad = ok;
  bad.fusion.enabled = true;
  bad.fusion.health.degraded_weight = -0.1;
  expect_rejected(bad, "degraded_weight");

  bad = ok;
  bad.fusion.enabled = true;
  bad.fusion.lidar_corridor_half_deg = 0.0;
  expect_rejected(bad, "lidar_corridor_half_deg");
}

// --- End-to-end determinism ------------------------------------------------

TEST(SensorFaultRun, PlanFreeRunsMatchPrePrBuildByteForByte) {
  // FNV pins of whole serialized RunResults, computed from the build at the
  // commit before the sensor-fault subsystem existed. They prove the new
  // capture hook, fusion plumbing, and codec extension leave plan-free runs
  // bit-exact — journals from old campaigns replay unchanged.
  {
    RunConfig cfg;
    cfg.scenario = ScenarioId::kLeadSlowdown;
    cfg.mode = AgentMode::kRoundRobin;
    cfg.run_seed = 2468;
    const std::string b = serialize_run_result(run_experiment(cfg));
    EXPECT_EQ(b.size(), 62559u);
    EXPECT_EQ(fnv_of(b), 0xae1f78abc6093b0dULL);
    EXPECT_EQ(run_config_digest(cfg), 0x0f73663737c4f83bULL);
  }
  {
    RunConfig cfg;
    cfg.scenario = ScenarioId::kGhostCutIn;
    cfg.mode = AgentMode::kDuplicate;
    cfg.mitigation = MitigationPolicy::kRestartRecovery;
    cfg.fault.kind = FaultModelKind::kTransient;
    cfg.fault.domain = FaultDomain::kGpu;
    cfg.fault.target_dyn_index = 500000;
    cfg.fault.bit = 30;
    cfg.run_seed = 1357;
    const std::string b = serialize_run_result(run_experiment(cfg));
    EXPECT_EQ(b.size(), 62647u);
    EXPECT_EQ(fnv_of(b), 0x6e7de7ffb6fd6d1aULL);
    EXPECT_EQ(run_config_digest(cfg), 0xfee975c0b04550bcULL);
  }
}

RunConfig blackout_config() {
  RunConfig cfg;
  cfg.scenario = ScenarioId::kLeadSlowdown;
  cfg.mode = AgentMode::kRoundRobin;
  cfg.run_seed = 31337;
  cfg.fusion.enabled = true;
  cfg.sensor_fault.model = SensorFaultModel::kCameraBlackout;
  cfg.sensor_fault.sensor_index = 1;
  cfg.sensor_fault.onset_tick = 100;
  cfg.sensor_fault.duration_ticks = 120;
  cfg.sensor_fault.seed = 5150;
  return cfg;
}

TEST(SensorFaultRun, SameSeedAndPlanIsByteIdenticalAcrossSerialAndPool) {
  const RunConfig cfg = blackout_config();
  const std::string serial_a = serialize_run_result(run_experiment(cfg));
  const std::string serial_b = serialize_run_result(run_experiment(cfg));
  EXPECT_EQ(serial_a, serial_b);

  // Store-backed path (what pool workers run) must also be identical; with
  // checkpointing off the store is never consulted.
  CheckpointStore store;
  const std::string stored_a =
      serialize_run_result(run_experiment(cfg, &store));
  const std::string stored_b =
      serialize_run_result(run_experiment(cfg, &store));
  EXPECT_EQ(store.deep_hits() + store.deep_misses(), 0u);
  EXPECT_EQ(store.deep_count(), 0u);
  EXPECT_EQ(serial_a, stored_a);
  EXPECT_EQ(serial_a, stored_b);

  // Process-isolated pool executor: fork + wire codec round trip.
  EnvOptions env = EnvOptions::defaults();
  env.jobs = 2;
  CampaignManager mgr(env.campaign_scale(), env, /*seed=*/2022);
  const std::vector<RunResult> pooled = mgr.run_all({cfg, cfg});
  ASSERT_EQ(pooled.size(), 2u);
  EXPECT_GT(mgr.executor_stats().launched, 0);
  EXPECT_EQ(serialize_run_result(pooled[0]), serial_a);
  EXPECT_EQ(serialize_run_result(pooled[1]), serial_a);
}

TEST(SensorFaultRun, BlackoutDegradesAndRejoinsUnderFusion) {
  RunConfig cfg = blackout_config();
  cfg.mitigation = MitigationPolicy::kRestartRecovery;
  const RunResult r = run_experiment(cfg);
  EXPECT_GT(r.sensor_corruptions, 0u);
  EXPECT_TRUE(r.fault_activated);
  EXPECT_EQ(r.outcome, FaultOutcome::kSdc);
  // The platform monitor saw the dead camera: time was spent in
  // kSensorDegraded and the episode closed once frames came back.
  EXPECT_GT(r.recovery.sensor_degraded_ticks, 0);
  ASSERT_FALSE(r.recovery.sensor_events.empty());
  const SensorDegradeEvent& ev = r.recovery.sensor_events.front();
  EXPECT_EQ(ev.channel, static_cast<int>(SensorChannel::kCamCenter));
  EXPECT_GE(ev.onset_tick, cfg.sensor_fault.onset_tick);
  EXPECT_GE(ev.rejoin_tick, ev.onset_tick);
  // Sensor degradation must NOT burn compute restarts: the fault is
  // common-mode, so the restart ladder stays untouched.
  EXPECT_EQ(r.recovery.attempts, 0);
  EXPECT_FALSE(r.recovery.escalated);
  // And the mission completes: no collision, full scheduled duration.
  EXPECT_FALSE(r.collision);
  EXPECT_GE(r.duration, r.scheduled_duration - 1.0);

  const RecoverySummary rs = summarize_recovery({r});
  EXPECT_EQ(rs.sensor_degraded_runs, 1);
  EXPECT_GE(rs.sensor_episodes, 1);
  EXPECT_GE(rs.sensor_rejoins, 1);
  EXPECT_GT(rs.mean_sensor_mttr_sec, 0.0);
  EXPECT_EQ(rs.hazard_after_sensor_degrade, 0);
}

TEST(SensorFaultRun, FusionAloneDoesNotFalselyDegrade) {
  // Clean fused run: the plausibility thresholds must not fire on honest
  // sensor noise (threshold calibration guard).
  RunConfig cfg = blackout_config();
  cfg.sensor_fault = SensorFaultPlan{};
  cfg.mitigation = MitigationPolicy::kRestartRecovery;
  const RunResult r = run_experiment(cfg);
  EXPECT_EQ(r.recovery.sensor_degraded_ticks, 0);
  EXPECT_TRUE(r.recovery.sensor_events.empty());
  EXPECT_EQ(r.sensor_corruptions, 0u);
  EXPECT_EQ(r.outcome, FaultOutcome::kMasked);
  EXPECT_FALSE(r.collision);
}

}  // namespace
}  // namespace dav
