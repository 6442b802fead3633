// Run-record serialization and write-ahead journal (campaign resume layer).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "campaign/journal.h"
#include "campaign/serialize.h"
#include "core/threshold_lut.h"

namespace dav {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// A RunResult with every field populated, including values that break text
/// round-trips (NaN, -0.0, denormals) — the serializer must be bit-exact.
RunResult full_result() {
  RunResult r;
  r.scenario = ScenarioId::kGhostCutIn;
  r.mode = AgentMode::kDuplicate;
  r.fault.kind = FaultModelKind::kPermanent;
  r.fault.domain = FaultDomain::kCpu;
  r.fault.target_dyn_index = 0xdeadbeefcafeull;
  r.fault.target_opcode = 17;
  r.fault.bit = 31;
  r.run_seed = 0x123456789abcdef0ull;
  r.outcome = FaultOutcome::kSdc;
  r.fault_activated = true;
  r.collision = true;
  r.collision_time = 12.0499999999999998;
  r.flags.collision = true;
  r.flags.red_light_violation = true;
  r.flags.speeding = false;
  r.flags.off_road = true;
  r.trajectory.push({-0.0, std::numeric_limits<double>::denorm_min()});
  r.trajectory.push({1.0 / 3.0, -17.25});
  r.duration = 29.95;
  r.scheduled_duration = 30.0;
  r.dt = 0.05;
  r.steps = 599;
  r.due = true;
  r.due_time = 3.14159;
  r.due_source = DueSource::kHangWatchdog;
  r.online_alarmed = true;
  r.online_alarm_time = 2.5;
  r.recovery.attempts = 2;
  r.recovery.completed = 1;
  r.recovery.escalated = true;
  r.recovery.first_detector_alarm_time = 2.5;
  RecoveryEvent e;
  e.suspect = 1;
  e.trigger = DueSource::kEngineCrash;
  e.alarm_time = 2.5;
  e.restart_time = 2.6;
  e.rejoin_time = 3.1;
  e.alarm_tick = 50;
  e.restart_tick = 52;
  e.rejoin_tick = 62;
  r.recovery.events.push_back(e);
  r.recovery.nominal_ticks = 500;
  r.recovery.probe_ticks = 10;
  r.recovery.degraded_ticks = 80;
  r.recovery.failback_ticks = 9;
  StepObservation o;
  o.time = 0.05;
  o.state.pose.pos = {4.0, -2.0};
  o.state.pose.yaw = 0.125;
  o.state.v = 13.9;
  o.state.a = -1.5;
  o.state.omega = 0.01;
  o.state.alpha = -0.002;
  o.delta.throttle = std::numeric_limits<double>::quiet_NaN();
  o.delta.brake = 0.25;
  o.delta.steer = -0.0;
  r.observations.push_back(o);
  r.time_trace = {0.05, 0.1};
  r.throttle_trace = {0.5, 0.0};
  r.brake_trace = {0.0, 1.0};
  r.steer_trace = {-0.01, 0.01};
  r.cvip_trace = {45.0, 44.2};
  r.acting_agent_trace = {0, 1, -1};
  r.gpu_instructions = 1ull << 40;
  r.cpu_instructions = 77;
  r.agent_state_bytes = 4096;
  r.sensor_frame_bytes = 96 * 72 * 3;
  return r;
}

TEST(RunRecordSerialization, RoundTripIsBitExact) {
  const RunResult a = full_result();
  const std::string bytes = serialize_run_result(a);
  const RunResult b = deserialize_run_result(bytes);
  // Bit-exactness via re-serialization: equal bytes iff every field (incl.
  // the NaN and the signed zero) survived exactly.
  EXPECT_EQ(serialize_run_result(b), bytes);
  EXPECT_EQ(b.scenario, a.scenario);
  EXPECT_EQ(b.run_seed, a.run_seed);
  EXPECT_EQ(b.outcome, a.outcome);
  EXPECT_EQ(b.trajectory.size(), a.trajectory.size());
  EXPECT_EQ(b.observations.size(), a.observations.size());
  EXPECT_TRUE(std::isnan(b.observations[0].delta.throttle));
  EXPECT_TRUE(std::signbit(b.observations[0].delta.steer));
  EXPECT_EQ(b.recovery.events.size(), 1u);
  EXPECT_EQ(b.recovery.events[0].rejoin_tick, 62);
  EXPECT_EQ(b.gpu_instructions, a.gpu_instructions);
}

TEST(RunRecordSerialization, DefaultResultRoundTrips) {
  const RunResult a;
  const std::string bytes = serialize_run_result(a);
  EXPECT_EQ(serialize_run_result(deserialize_run_result(bytes)), bytes);
}

TEST(RunRecordSerialization, TruncatedAndCorruptRecordsThrow) {
  const std::string bytes = serialize_run_result(full_result());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(deserialize_run_result(bytes.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
  EXPECT_THROW(deserialize_run_result(bytes + "x"), std::runtime_error);
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(kRunRecordVersion + 1);
  EXPECT_THROW(deserialize_run_result(wrong_version), std::runtime_error);
}

TEST(RunConfigDigest, SensitiveToOutcomeDeterminingFields) {
  const RunConfig base;
  const std::uint64_t d0 = run_config_digest(base);
  EXPECT_EQ(run_config_digest(base), d0) << "digest must be stable";

  RunConfig seed = base;
  seed.run_seed += 1;
  EXPECT_NE(run_config_digest(seed), d0);

  RunConfig fault = base;
  fault.fault.kind = FaultModelKind::kTransient;
  fault.fault.target_dyn_index = 123;
  EXPECT_NE(run_config_digest(fault), d0);

  RunConfig scen = base;
  scen.scenario = ScenarioId::kFrontAccident;
  EXPECT_NE(run_config_digest(scen), d0);

  RunConfig mode = base;
  mode.mode = AgentMode::kSingle;
  EXPECT_NE(run_config_digest(mode), d0);
}

TEST(RunConfigDigest, LutContentsArePartOfTheIdentity) {
  // Two differently trained LUTs must hash differently: replaying a journal
  // record trained with other thresholds would silently change alarms.
  ThresholdLut a;
  ThresholdLut b;
  VehicleState s;
  s.v = 10.0;
  b.observe(s, ActuationDelta{0.4, 0.3, 0.2});
  RunConfig ca;
  ca.online_lut = &a;
  RunConfig cb;
  cb.online_lut = &b;
  EXPECT_NE(run_config_digest(ca), run_config_digest(cb));
  RunConfig none;
  EXPECT_NE(run_config_digest(ca), run_config_digest(none));
}

TEST(RunConfigDigest, LutThresholdsAreHashedAtFullPrecision) {
  // Tables that agree to six significant digits still alarm at different
  // divergences: a journal must not replay one table's record for the other,
  // and a checkpoint captured under one must not resume the other.
  ThresholdLut a;
  ThresholdLut b;
  VehicleState s;
  s.v = 10.0;
  a.observe(s, ActuationDelta{0.52, 0.3, 0.2});
  b.observe(s, ActuationDelta{0.5200000013, 0.3, 0.2});
  ASSERT_NE(a.thresholds(s).throttle, b.thresholds(s).throttle);
  RunConfig ca;
  ca.online_lut = &a;
  RunConfig cb;
  cb.online_lut = &b;
  EXPECT_NE(run_config_digest(ca), run_config_digest(cb));
  EXPECT_NE(run_config_prefix_digest(ca, 40), run_config_prefix_digest(cb, 40));
}

TEST(Journal, MissingFileIsAFreshStart) {
  const JournalLoad load = load_journal(temp_path("jrnl_missing.bin"), 42);
  EXPECT_FALSE(load.existed);
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.torn_bytes, 0u);
}

TEST(Journal, WriteThenLoadRoundTrips) {
  const std::string path = temp_path("jrnl_roundtrip.bin");
  const std::string p1 = serialize_run_result(full_result());
  const std::string p2 = "arbitrary-bytes\x00\x01\x02";
  {
    JournalWriter w(path, /*fingerprint=*/7, JournalLoad{});
    w.append(11, p1);
    w.append(22, p2);
    w.close();
  }
  const JournalLoad load = load_journal(path, 7);
  EXPECT_TRUE(load.existed);
  EXPECT_EQ(load.torn_bytes, 0u);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records.at(11), p1);
  EXPECT_EQ(load.records.at(22), p2);
}

TEST(Journal, FingerprintMismatchThrows) {
  const std::string path = temp_path("jrnl_fingerprint.bin");
  {
    JournalWriter w(path, 7, JournalLoad{});
    w.append(1, "payload");
  }
  EXPECT_THROW(load_journal(path, 8), std::runtime_error);
}

TEST(Journal, NonJournalFileThrows) {
  const std::string path = temp_path("jrnl_garbage.bin");
  std::ofstream(path) << "this is not a journal at all, not even close";
  EXPECT_THROW(load_journal(path, 7), std::runtime_error);
}

TEST(Journal, TornTailIsDiscardedAndTruncatedOnResume) {
  const std::string path = temp_path("jrnl_torn.bin");
  {
    JournalWriter w(path, 7, JournalLoad{});
    w.append(11, "first-record");
    w.append(22, "second-record");
  }
  // Simulate a supervisor killed mid-append: chop the last record in half.
  std::uint64_t full_size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    full_size = static_cast<std::uint64_t>(in.tellg());
  }
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes(static_cast<std::size_t>(full_size) - 7, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const JournalLoad load = load_journal(path, 7);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records.at(11), "first-record");
  EXPECT_GT(load.torn_bytes, 0u);

  // Resuming truncates the torn tail and appends cleanly after it.
  {
    JournalWriter w(path, 7, load);
    w.append(33, "third-record");
  }
  const JournalLoad reload = load_journal(path, 7);
  EXPECT_EQ(reload.torn_bytes, 0u);
  ASSERT_EQ(reload.records.size(), 2u);
  EXPECT_EQ(reload.records.at(11), "first-record");
  EXPECT_EQ(reload.records.at(33), "third-record");
}

TEST(Journal, CorruptChecksumStopsTheParse) {
  const std::string path = temp_path("jrnl_corrupt.bin");
  {
    JournalWriter w(path, 7, JournalLoad{});
    w.append(11, "first-record");
    w.append(22, "second-record");
  }
  // Flip one byte inside the FIRST record's payload: both it and its
  // successor must be discarded (framing provenance is lost mid-file).
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  bytes[8 + 4 + 8 + 4 + 8 + 4 + 8 + 2] ^= 0x40;  // header + frame + 2 bytes in
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const JournalLoad load = load_journal(path, 7);
  EXPECT_TRUE(load.records.empty());
  EXPECT_GT(load.torn_bytes, 0u);
}

TEST(Journal, DisabledWriterRejectsAppends) {
  JournalWriter w;
  EXPECT_FALSE(w.enabled());
  EXPECT_THROW(w.append(1, "x"), std::runtime_error);
}

}  // namespace
}  // namespace dav
