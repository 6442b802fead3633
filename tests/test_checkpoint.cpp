// Fork-point checkpoints (campaign/checkpoint.h, DESIGN.md §16): the
// byte-identity contract — a run restored from a RunCheckpoint produces a
// RunResult byte-for-byte equal to the straight-through run — plus the
// prefix-digest field rules, the RunCheckpoint codec (bit-exact floats,
// NaN / -0.0 included), deep-tier eviction, and both executor slot sources
// (in-process, pool) with checkpointing folded in.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/driver.h"
#include "campaign/executor.h"
#include "campaign/serialize.h"
#include "core/detector.h"
#include "fi/sensor_fault.h"

#if defined(__unix__) || defined(__APPLE__)
#define DAV_TEST_POSIX 1
#endif

namespace dav {
namespace {

/// A fusion-enabled sensor sweep member: every variant shares the fault-free
/// prefix up to `onset` (same run_seed, same world) and differs only in its
/// sensor plan — the shape the deep tier exists for.
RunConfig sensor_variant(SensorFaultModel model, std::uint64_t plan_seed,
                         int onset = 30) {
  RunConfig cfg;
  cfg.scenario = ScenarioId::kLeadSlowdown;
  cfg.mode = AgentMode::kRoundRobin;
  cfg.run_seed = 777;
  cfg.scenario_opts.safety_duration_sec = 4.0;
  cfg.fusion.enabled = true;
  cfg.sensor_fault.model = model;
  cfg.sensor_fault.sensor_index = 1;
  cfg.sensor_fault.onset_tick = onset;
  cfg.sensor_fault.duration_ticks = 20;
  cfg.sensor_fault.seed = plan_seed;
  cfg.checkpoint.enabled = true;
  return cfg;
}

std::string bytes_of(const RunConfig& cfg, CheckpointStore* store = nullptr) {
  return serialize_run_result(run_experiment(cfg, store));
}

// ---- restored-vs-straight-through byte identity ---------------------------

TEST(CheckpointRestore, SensorVariantsRestoreByteIdentical) {
  const RunConfig a = sensor_variant(SensorFaultModel::kCameraBlackout, 5150);
  const RunConfig b = sensor_variant(SensorFaultModel::kCameraBlackout, 6160);
  // Frozen-at-the-fork variant: its injector must freeze the last pre-onset
  // frame, which only the checkpoint saw (prime_frozen path).
  const RunConfig c = sensor_variant(SensorFaultModel::kCameraFrozen, 7170);

  const std::string straight_a = bytes_of(a);
  const std::string straight_b = bytes_of(b);
  const std::string straight_c = bytes_of(c);

  CheckpointStore store;
  EXPECT_EQ(bytes_of(a, &store), straight_a);  // cold: captures at onset
  EXPECT_EQ(bytes_of(b, &store), straight_b);  // cross-variant restore
  EXPECT_EQ(bytes_of(c, &store), straight_c);  // restore + frozen priming
  EXPECT_EQ(store.deep_misses(), 1u);
  EXPECT_EQ(store.deep_hits(), 2u);
  EXPECT_GE(store.deep_count(), 1u);
}

TEST(CheckpointRestore, TransientSweepSharesPrefixViaDynIndexGate) {
  // Register-level transient variants have no static onset tick; they share
  // a prefix through an explicit capture_tick plus the dyn-index gate (a
  // strike below the captured instruction totals would have landed inside
  // the prefix, so such variants must NOT restore).
  RunConfig base;
  base.scenario = ScenarioId::kLeadSlowdown;
  base.mode = AgentMode::kRoundRobin;
  base.run_seed = 4242;
  base.scenario_opts.safety_duration_sec = 4.0;
  base.checkpoint.enabled = true;
  base.checkpoint.capture_tick = 20;
  base.fault.kind = FaultModelKind::kTransient;
  base.fault.domain = FaultDomain::kGpu;
  base.fault.bit = 12;

  RunConfig late = base;   // strike far past the capture point
  late.fault.target_dyn_index = 50'000'000;
  RunConfig early = base;  // strike inside the prefix
  early.fault.target_dyn_index = 1;

  const std::string straight_late = bytes_of(late);
  const std::string straight_early = bytes_of(early);

  CheckpointStore store;
  EXPECT_EQ(bytes_of(late, &store), straight_late);   // captures at tick 20
  EXPECT_EQ(bytes_of(early, &store), straight_early); // must replay in full
  EXPECT_EQ(store.deep_hits(), 0u);  // early was ineligible, late was cold
  EXPECT_EQ(store.deep_misses(), 2u);

  // A third variant striking past the gate restores the stored prefix.
  RunConfig other = base;
  other.fault.target_dyn_index = 60'000'000;
  const std::string straight_other = bytes_of(other);
  EXPECT_EQ(bytes_of(other, &store), straight_other);
  EXPECT_EQ(store.deep_hits(), 1u);
}

TEST(CheckpointRestore, RecoveryDetectorVariantsRestoreByteIdentical) {
  // Sensor variants under restart-recovery with an online detector and
  // fusion: the checkpoint carries detector and recovery-FSM state, the
  // sensor monitor's included, and every restored suffix (degrade ladder,
  // detector windows) must match its straight-through run byte for byte.
  // The LUT keeps the detector quiet through the fault-free prefix (so it
  // is clean and stored) and lets it alarm on the blackouts at the onset.
  ThresholdLut lut;
  VehicleState s;
  s.v = 10.0;
  lut.observe(s, {0.2, 0.2, 0.2});
  const std::pair<SensorFaultModel, std::uint64_t> plans[] = {
      {SensorFaultModel::kCameraBlackout, 5150},
      {SensorFaultModel::kCameraFrozen, 7170},
      {SensorFaultModel::kCameraBlackout, 6160}};
  std::vector<RunConfig> variants;
  for (const auto& [model, seed] : plans) {
    RunConfig cfg = sensor_variant(model, seed);
    cfg.online_lut = &lut;
    cfg.mitigation = MitigationPolicy::kRestartRecovery;
    variants.push_back(cfg);
  }

  CheckpointStore store;
  for (const RunConfig& cfg : variants) {
    const RunResult straight = run_experiment(cfg);
    EXPECT_EQ(bytes_of(cfg, &store), serialize_run_result(straight));
    EXPECT_FALSE(straight.recovery.sensor_events.empty());  // monitor acted
    if (cfg.sensor_fault.model == SensorFaultModel::kCameraBlackout) {
      EXPECT_TRUE(straight.online_alarmed);  // detector acted
    }
  }
  EXPECT_EQ(store.deep_misses(), 1u);
  EXPECT_EQ(store.deep_hits(), 2u);
  const CheckpointStore::DeepEntry* e = store.find_deep(variants[0]);
  ASSERT_NE(e, nullptr);
  const RunCheckpoint c = deserialize_run_checkpoint(e->blob);
  EXPECT_TRUE(c.has_detector);
  EXPECT_TRUE(c.has_recovery);
  EXPECT_TRUE(c.recovery.has_sensor_monitor);
}

TEST(CheckpointRestore, EarlyPermanentFaultStoresNothing) {
  // An early permanent fault has the recovery FSM in flight by the capture
  // tick. No sibling could restore that prefix, so nothing is stored and a
  // re-run of the same config replays in full, byte-identically.
  ThresholdLut lut;
  VehicleState s;
  s.v = 10.0;
  lut.observe(s, {0.1, 0.1, 0.1});

  RunConfig cfg;
  cfg.scenario = ScenarioId::kLeadSlowdown;
  cfg.mode = AgentMode::kRoundRobin;
  cfg.run_seed = 99;
  cfg.record_traces = true;
  cfg.online_lut = &lut;
  cfg.mitigation = MitigationPolicy::kRestartRecovery;
  cfg.scenario_opts.safety_duration_sec = 4.0;
  cfg.fault.kind = FaultModelKind::kPermanent;
  cfg.fault.domain = FaultDomain::kGpu;
  cfg.fault.target_dyn_index = 1000;
  cfg.fault.bit = 30;
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.capture_tick = 40;

  const std::string straight = bytes_of(cfg);
  CheckpointStore store;
  EXPECT_EQ(bytes_of(cfg, &store), straight);
  EXPECT_EQ(store.deep_count(), 0u);
  EXPECT_EQ(bytes_of(cfg, &store), straight);
  EXPECT_EQ(store.deep_hits(), 0u);
  EXPECT_EQ(store.deep_misses(), 2u);
}

TEST(CheckpointRestore, TracingDisablesTheDeepTier) {
  // A restored run would export a truncated flight-recorder trace, so deep
  // checkpointing is mutually exclusive with tracing — results unchanged.
  RunConfig cfg = sensor_variant(SensorFaultModel::kCameraBlackout, 13);
  cfg.trace.dir = ::testing::TempDir();
  const std::string expect = [&] {
    RunConfig plain = cfg;
    plain.trace = {};
    plain.checkpoint = {};
    return bytes_of(plain);
  }();
  CheckpointStore store;
  bytes_of(cfg, &store);
  bytes_of(cfg, &store);
  EXPECT_EQ(store.deep_hits() + store.deep_misses(), 0u);
  EXPECT_EQ(store.deep_count(), 0u);
}

// ---- prefix digest field rules --------------------------------------------

TEST(PrefixDigest, TransientPlanNeverInPrefix) {
  RunConfig a;
  a.scenario = ScenarioId::kLeadSlowdown;
  a.run_seed = 7;
  a.fault.kind = FaultModelKind::kTransient;
  a.fault.target_dyn_index = 1000;
  RunConfig b = a;
  b.fault.target_dyn_index = 2000;
  b.fault.bit = 3;
  EXPECT_EQ(run_config_prefix_digest(a, 0), run_config_prefix_digest(b, 0));
  EXPECT_EQ(run_config_prefix_digest(a, 50), run_config_prefix_digest(b, 50));
}

TEST(PrefixDigest, PermanentPlanEntersPrefixAfterTickZero) {
  RunConfig a;
  a.scenario = ScenarioId::kLeadSlowdown;
  a.run_seed = 7;
  a.fault.kind = FaultModelKind::kPermanent;
  a.fault.target_dyn_index = 1000;
  RunConfig b = a;
  b.fault.target_dyn_index = 2000;
  // Before any instruction ran the plans are indistinguishable; from the
  // first tick a permanent fault may already have fired.
  EXPECT_EQ(run_config_prefix_digest(a, 0), run_config_prefix_digest(b, 0));
  EXPECT_NE(run_config_prefix_digest(a, 1), run_config_prefix_digest(b, 1));
}

TEST(PrefixDigest, SensorPlanEntersPrefixAfterItsOnset) {
  RunConfig faulty;
  faulty.scenario = ScenarioId::kLeadSlowdown;
  faulty.run_seed = 7;
  faulty.fusion.enabled = true;
  faulty.sensor_fault.model = SensorFaultModel::kCameraBlackout;
  faulty.sensor_fault.sensor_index = 1;
  faulty.sensor_fault.onset_tick = 30;
  faulty.sensor_fault.duration_ticks = 20;
  RunConfig clean = faulty;
  clean.sensor_fault = {};
  // At the onset tick the fault has not yet corrupted a frame: variants and
  // the clean run share the prefix. One tick later they have diverged.
  EXPECT_EQ(run_config_prefix_digest(faulty, 30),
            run_config_prefix_digest(clean, 30));
  EXPECT_NE(run_config_prefix_digest(faulty, 31),
            run_config_prefix_digest(clean, 31));
}

TEST(PrefixDigest, SharedPrefixFieldsAreSensitive) {
  RunConfig a;
  a.scenario = ScenarioId::kLeadSlowdown;
  a.run_seed = 7;
  const std::uint64_t base = run_config_prefix_digest(a, 10);
  EXPECT_NE(base, run_config_prefix_digest(a, 11));  // depth is identity
  RunConfig b = a;
  b.run_seed = 8;
  EXPECT_NE(base, run_config_prefix_digest(b, 10));
  b = a;
  b.scenario_seed += 1;
  EXPECT_NE(base, run_config_prefix_digest(b, 10));
  b = a;
  b.mode = AgentMode::kSingle;
  EXPECT_NE(base, run_config_prefix_digest(b, 10));
  b = a;
  b.fusion.enabled = true;
  EXPECT_NE(base, run_config_prefix_digest(b, 10));
}

TEST(PrefixDigest, CheckpointOptionsStayOutOfTheRunDigest) {
  // Like trace: checkpointing never changes WHAT a run computes, so the
  // journal key must not move when a campaign toggles it (checkpoint-off
  // journals stay byte-compatible and resumable either way).
  RunConfig plain;
  plain.scenario = ScenarioId::kLeadSlowdown;
  plain.run_seed = 7;
  RunConfig ck = plain;
  ck.checkpoint.enabled = true;
  ck.checkpoint.capture_tick = 25;
  EXPECT_EQ(run_config_digest(plain), run_config_digest(ck));
  // The wire encoding DOES carry the options (workers need them), but they
  // round-trip faithfully and leave the digest untouched.
  const RunConfigRecord rt = deserialize_run_config(serialize_run_config(ck));
  EXPECT_TRUE(rt.cfg.checkpoint.enabled);
  EXPECT_EQ(rt.cfg.checkpoint.capture_tick, 25);
  EXPECT_EQ(run_config_digest(rt.cfg), run_config_digest(plain));
}

// ---- RunCheckpoint codec --------------------------------------------------

TEST(CheckpointCodec, RoundTripIsByteExactIncludingNanAndNegZero) {
  RunCheckpoint c;
  c.tick = 37;
  c.last_applied.throttle = 0.25;
  c.last_applied.brake = -0.0;
  c.last_applied.steer = std::nan("");
  c.stationary_sec = -0.0;
  RunResult partial;
  partial.run_seed = 55;
  partial.duration = 1.25;
  c.partial_result = serialize_run_result(partial);
  c.has_cameras = true;
  c.cameras = {std::vector<std::uint8_t>{1, 2, 3},
               std::vector<std::uint8_t>{},
               std::vector<std::uint8_t>{255, 0, 128}};

  const std::string bytes = serialize_run_checkpoint(c);
  const RunCheckpoint back = deserialize_run_checkpoint(bytes);
  // Bit-exact floats: NaN stays NaN, -0.0 keeps its sign bit.
  EXPECT_TRUE(std::isnan(back.last_applied.steer));
  EXPECT_EQ(back.last_applied.brake, 0.0);
  EXPECT_TRUE(std::signbit(back.last_applied.brake));
  EXPECT_TRUE(std::signbit(back.stationary_sec));
  EXPECT_EQ(back.tick, 37);
  EXPECT_EQ(back.partial_result, c.partial_result);
  EXPECT_EQ(back.cameras, c.cameras);
  // Canonical encoding: re-serializing the decoded value reproduces the
  // exact bytes (two equal checkpoints serialize identically).
  EXPECT_EQ(serialize_run_checkpoint(back), bytes);
}

TEST(CheckpointCodec, RoundTripsARealCapturedCheckpoint) {
  // The synthetic round-trip above cannot cover every subsystem payload;
  // capture a real mid-run checkpoint (world, agents, detector, recovery,
  // RNG streams) and pin the same canonical-bytes property.
  ThresholdLut lut;
  VehicleState s;
  s.v = 10.0;
  lut.observe(s, {0.1, 0.1, 0.1});
  RunConfig cfg;
  cfg.scenario = ScenarioId::kLeadSlowdown;
  cfg.mode = AgentMode::kRoundRobin;
  cfg.run_seed = 31;
  cfg.record_traces = true;
  cfg.online_lut = &lut;
  cfg.mitigation = MitigationPolicy::kRestartRecovery;
  cfg.sensor_fault.model = SensorFaultModel::kCameraBlackout;
  cfg.sensor_fault.sensor_index = 1;
  cfg.sensor_fault.onset_tick = 25;
  cfg.sensor_fault.duration_ticks = 10;
  cfg.sensor_fault.seed = 9;
  cfg.fusion.enabled = true;
  cfg.scenario_opts.safety_duration_sec = 3.0;
  cfg.checkpoint.enabled = true;

  CheckpointStore store;
  run_experiment(cfg, &store);
  ASSERT_EQ(store.deep_count(), 1u);

  // Reach the stored blob through the store's own lookup.
  RunConfig variant = cfg;
  variant.sensor_fault.seed = 10;
  const CheckpointStore::DeepEntry* e = store.find_deep(variant);
  ASSERT_NE(e, nullptr);
  const RunCheckpoint back = deserialize_run_checkpoint(e->blob);
  EXPECT_EQ(back.tick, 25);
  EXPECT_TRUE(back.has_detector);
  EXPECT_TRUE(back.has_recovery);
  EXPECT_EQ(serialize_run_checkpoint(back), e->blob);
}

TEST(CheckpointCodec, RejectsTruncationGarbageAndVersionSkew) {
  RunCheckpoint c;
  c.tick = 1;
  const std::string bytes = serialize_run_checkpoint(c);
  EXPECT_THROW(deserialize_run_checkpoint(bytes.substr(0, bytes.size() - 1)),
               std::runtime_error);
  EXPECT_THROW(deserialize_run_checkpoint(bytes + "x"), std::runtime_error);
  std::string skewed = bytes;
  skewed[0] = static_cast<char>(skewed[0] + 1);  // version is the first u32
  EXPECT_THROW(deserialize_run_checkpoint(skewed), std::runtime_error);
  EXPECT_THROW(deserialize_run_checkpoint(""), std::runtime_error);
}

// ---- deep-tier eviction ---------------------------------------------------

TEST(CheckpointStoreTier, EvictsOldestPastTheByteBudget) {
  CheckpointStore store;
  store.set_max_deep_bytes(2500);
  const auto entry = [](std::uint64_t digest) {
    CheckpointStore::DeepEntry e;
    e.prefix_digest = digest;
    e.tick = 10;
    e.blob = std::string(1000, 'x');
    return e;
  };
  store.insert_deep(entry(1));
  store.insert_deep(entry(2));
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(store.deep_bytes(), 2000u);
  store.insert_deep(entry(3));  // 3000 bytes > budget: entry 1 goes
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.deep_count(), 2u);
  EXPECT_EQ(store.deep_bytes(), 2000u);
  store.set_max_deep_bytes(1000);  // shrinking evicts immediately
  EXPECT_EQ(store.evictions(), 2u);
  EXPECT_EQ(store.deep_count(), 1u);
}

// ---- executor strategies --------------------------------------------------

std::vector<RunConfig> sweep_configs() {
  // Checkpoint deliberately NOT set per-config: the executor option must
  // fold it in (effective_config), the way DAV_CHECKPOINT=1 does.
  std::vector<RunConfig> cfgs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    RunConfig cfg = sensor_variant(SensorFaultModel::kCameraBlackout,
                                   900 + i);
    cfg.checkpoint = {};
    cfgs.push_back(cfg);
  }
  return cfgs;
}

TEST(CheckpointExecutor, InProcessMatchesSerialByteForByte) {
  const auto cfgs = sweep_configs();
  ExecutorOptions o;
  o.jobs = 0;
  o.checkpoint = true;
  CampaignExecutor exec(o);
  const auto results = exec.run_all(cfgs);
  ASSERT_EQ(results.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(results[i]), bytes_of(cfgs[i]))
        << "index " << i;
  }
  // 4 variants of one prefix through one store: 3 restores after 1 capture.
  EXPECT_EQ(exec.stats().checkpoint_hits, 3u);
  EXPECT_EQ(exec.stats().checkpoint_misses, 1u);
}

#if DAV_TEST_POSIX

TEST(CheckpointExecutor, PoolMatchesSerialByteForByte) {
  const auto cfgs = sweep_configs();
  ExecutorOptions o;
  o.jobs = 1;  // one worker: every variant lands on the same store
  o.checkpoint = true;
  o.run_timeout_sec = 120.0;
  CampaignExecutor exec(o);
  const auto results = exec.run_all(cfgs);
  ASSERT_EQ(results.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(results[i]), bytes_of(cfgs[i]))
        << "index " << i;
  }
  EXPECT_EQ(exec.stats().checkpoint_hits, 3u);
  EXPECT_EQ(exec.stats().checkpoint_misses, 1u);
  EXPECT_EQ(exec.stats().checkpoint_evictions, 0u);
}

TEST(CheckpointExecutor, TwoWorkerPoolMatchesSerialByteForByte) {
  const auto cfgs = sweep_configs();
  ExecutorOptions o;
  o.jobs = 2;  // variants split across two stores; results unchanged
  o.checkpoint = true;
  o.run_timeout_sec = 120.0;
  CampaignExecutor exec(o);
  const auto results = exec.run_all(cfgs);
  ASSERT_EQ(results.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(results[i]), bytes_of(cfgs[i]))
        << "index " << i;
  }
}

#endif  // DAV_TEST_POSIX

}  // namespace
}  // namespace dav
