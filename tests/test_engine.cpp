#include <gtest/gtest.h>

#include <cmath>

#include "fi/engine.h"

namespace dav {
namespace {

FaultPlan transient_gpu(std::uint64_t index, int bit = 0) {
  FaultPlan p;
  p.kind = FaultModelKind::kTransient;
  p.domain = FaultDomain::kGpu;
  p.target_dyn_index = index;
  p.bit = bit;
  return p;
}

FaultPlan permanent_gpu(GpuOpcode op, int bit = 0) {
  FaultPlan p;
  p.kind = FaultModelKind::kPermanent;
  p.domain = FaultDomain::kGpu;
  p.target_opcode = static_cast<int>(op);
  p.bit = bit;
  return p;
}

/// Model where nothing ever crashes or hangs: corruptions propagate as SDCs.
CrashHangModel never_lethal() {
  CrashHangModel m;
  m.p_crash_data = m.p_hang_data = 0.0;
  m.p_crash_mem = m.p_hang_mem = 0.0;
  m.p_crash_ctrl = m.p_hang_ctrl = 0.0;
  return m;
}

CrashHangModel always_crash() {
  CrashHangModel m = never_lethal();
  m.p_crash_data = m.p_crash_mem = m.p_crash_ctrl = 1.0;
  return m;
}

CrashHangModel always_hang() {
  CrashHangModel m = never_lethal();
  m.p_hang_data = m.p_hang_mem = m.p_hang_ctrl = 1.0;
  return m;
}

TEST(FaultPlanMask, InRangeBitsSetExactlyOneBit) {
  FaultPlan plan;
  plan.bit = 0;
  EXPECT_EQ(plan.mask(), 1u);
  plan.bit = 31;
  EXPECT_EQ(plan.mask(), 0x80000000u);
}

TEST(FaultPlanMask, OutOfRangeBitsYieldEmptyMask) {
  // Regression: `1u << bit` with bit >= 32 (or negative) is undefined
  // behavior; out-of-range plans must degrade to a no-op corruption mask.
  FaultPlan plan;
  plan.bit = 32;
  EXPECT_EQ(plan.mask(), 0u);
  plan.bit = -1;
  EXPECT_EQ(plan.mask(), 0u);
}

TEST(Engine, CleanExecIsIdentityAndCounts) {
  GpuEngine eng;
  eng.configure({}, 0);
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 3.5f), 3.5f);
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFMul, -2.0f), -2.0f);
  EXPECT_EQ(eng.total_dyn_instructions(), 2u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kFAdd), 1u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kFMul), 1u);
  EXPECT_FALSE(eng.fault_activated());
}

TEST(Engine, BulkCountsManyAtOnce) {
  GpuEngine eng;
  eng.configure({}, 0);
  eng.bulk(GpuOpcode::kLdg, 1000);
  eng.mark(GpuOpcode::kBra);
  EXPECT_EQ(eng.total_dyn_instructions(), 1001u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kLdg), 1000u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kBra), 1u);
}

TEST(Engine, TransientCorruptsExactlyTargetIndex) {
  GpuEngine eng;
  eng.configure(transient_gpu(/*index=*/2, /*bit=*/31), 1, never_lethal());
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 1.0f), 1.0f);   // index 0
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 1.0f), 1.0f);   // index 1
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 1.0f), -1.0f);  // index 2: sign
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 1.0f), 1.0f);   // index 3
  EXPECT_TRUE(eng.fault_activated());
  EXPECT_EQ(eng.corruption_count(), 1u);
}

TEST(Engine, TransientNotActivatedIfIndexNeverReached) {
  GpuEngine eng;
  eng.configure(transient_gpu(100), 1, never_lethal());
  for (int i = 0; i < 50; ++i) eng.exec(GpuOpcode::kFAdd, 1.0f);
  EXPECT_FALSE(eng.fault_activated());
  EXPECT_EQ(eng.corruption_count(), 0u);
}

TEST(Engine, TransientInBulkRangeActivates) {
  GpuEngine eng;
  eng.configure(transient_gpu(500), 1, never_lethal());
  eng.bulk(GpuOpcode::kLdg, 1000);
  EXPECT_TRUE(eng.fault_activated());
}

TEST(Engine, TransientOutsideBulkRangeDoesNot) {
  GpuEngine eng;
  eng.configure(transient_gpu(1500), 1, never_lethal());
  eng.bulk(GpuOpcode::kLdg, 1000);
  EXPECT_FALSE(eng.fault_activated());
}

TEST(Engine, PermanentCorruptsEveryInstanceOfOpcode) {
  GpuEngine eng;
  eng.configure(permanent_gpu(GpuOpcode::kFMul, /*bit=*/31), 1,
                never_lethal());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFMul, 2.0f), -2.0f);
  }
  // Other opcodes untouched.
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 2.0f), 2.0f);
  EXPECT_EQ(eng.corruption_count(), 10u);
}

TEST(Engine, CrashModelThrowsCrashError) {
  GpuEngine eng;
  eng.configure(transient_gpu(0), 1, always_crash());
  EXPECT_THROW(eng.exec(GpuOpcode::kFAdd, 1.0f), CrashError);
  EXPECT_TRUE(eng.fault_activated());
}

TEST(Engine, HangModelThrowsHangError) {
  GpuEngine eng;
  eng.configure(transient_gpu(0), 1, always_hang());
  EXPECT_THROW(eng.exec(GpuOpcode::kFAdd, 1.0f), HangError);
}

TEST(Engine, PermanentLethalityDrawnOncePerRun) {
  GpuEngine eng;
  eng.configure(permanent_gpu(GpuOpcode::kLdg), 1, always_crash());
  EXPECT_THROW(eng.bulk(GpuOpcode::kLdg, 10), CrashError);
}

TEST(Engine, WrongDomainPlanIsIgnored) {
  GpuEngine eng;
  FaultPlan p = transient_gpu(0, 31);
  p.domain = FaultDomain::kCpu;
  eng.configure(p, 1, never_lethal());
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 1.0f), 1.0f);
  EXPECT_FALSE(eng.fault_activated());
}

TEST(Engine, ReconfigureDisarms) {
  GpuEngine eng;
  eng.configure(permanent_gpu(GpuOpcode::kFAdd, 31), 1, never_lethal());
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 1.0f), -1.0f);
  eng.configure({}, 0);
  EXPECT_FLOAT_EQ(eng.exec(GpuOpcode::kFAdd, 1.0f), 1.0f);
  EXPECT_FALSE(eng.fault_activated());
}

TEST(Engine, MaskMatchesBitPosition) {
  for (int bit : {0, 7, 23, 31}) {
    GpuEngine eng;
    eng.configure(permanent_gpu(GpuOpcode::kFAdd, bit), 1, never_lethal());
    const float in = 1.5f;
    const float out = eng.exec(GpuOpcode::kFAdd, in);
    EXPECT_EQ(float_bits(out) ^ float_bits(in), 1u << bit);
  }
}

TEST(CpuEngine, SameMechanicsDifferentDomain) {
  CpuEngine eng;
  FaultPlan p;
  p.kind = FaultModelKind::kPermanent;
  p.domain = FaultDomain::kCpu;
  p.target_opcode = static_cast<int>(CpuOpcode::kAdd);
  p.bit = 31;
  eng.configure(p, 1, never_lethal());
  EXPECT_FLOAT_EQ(eng.exec(CpuOpcode::kAdd, 4.0f), -4.0f);
  EXPECT_FLOAT_EQ(eng.exec(CpuOpcode::kMul, 4.0f), 4.0f);
}

// --- retire_clean: block accounting boundaries. ----------------------------

/// Runs 10 plain execs, then offers a block of 4 FAdd + 2 FMul (dynamic
/// indices 10..15). Returns whether it retired clean.
bool offer_block(GpuEngine& eng) {
  for (int i = 0; i < 10; ++i) eng.exec(GpuOpcode::kFSub, 1.0f);
  return eng.retire_clean({{GpuOpcode::kFAdd, 4}, {GpuOpcode::kFMul, 2}});
}

void expect_retired(const GpuEngine& eng) {
  EXPECT_EQ(eng.total_dyn_instructions(), 16u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kFAdd), 4u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kFMul), 2u);
  EXPECT_FALSE(eng.fault_activated());
}

void expect_untouched(const GpuEngine& eng) {
  EXPECT_EQ(eng.total_dyn_instructions(), 10u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kFAdd), 0u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kFMul), 0u);
  EXPECT_FALSE(eng.fault_activated());
}

TEST(RetireClean, UnarmedRetiresTheBlock) {
  GpuEngine eng;
  eng.configure({}, 0);
  EXPECT_TRUE(offer_block(eng));
  expect_retired(eng);
}

TEST(RetireClean, TransientInsideTheBlockRefuses) {
  for (const std::uint64_t target : {10u, 12u, 15u}) {  // start, middle, last
    GpuEngine eng;
    eng.configure(transient_gpu(target, 31), 1, never_lethal());
    EXPECT_FALSE(offer_block(eng)) << target;
    expect_untouched(eng);
  }
}

TEST(RetireClean, TransientOutsideTheBlockRetires) {
  for (const std::uint64_t target : {16u, 1000u}) {  // one past, far past
    GpuEngine eng;
    eng.configure(transient_gpu(target, 31), 1, never_lethal());
    EXPECT_TRUE(offer_block(eng)) << target;
    expect_retired(eng);
  }
  // A target just before the block fired in the preceding execs.
  GpuEngine eng;
  eng.configure(transient_gpu(9, 31), 1, never_lethal());
  EXPECT_TRUE(offer_block(eng));
  EXPECT_TRUE(eng.fault_activated());
  EXPECT_EQ(eng.total_dyn_instructions(), 16u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kFAdd), 4u);
}

TEST(RetireClean, PermanentOpcodeInTheBlockRefuses) {
  GpuEngine eng;
  eng.configure(permanent_gpu(GpuOpcode::kFMul, 31), 1, never_lethal());
  EXPECT_FALSE(offer_block(eng));
  expect_untouched(eng);
}

TEST(RetireClean, PermanentOpcodeOutsideTheBlockRetires) {
  GpuEngine eng;
  eng.configure(permanent_gpu(GpuOpcode::kFDiv, 31), 1, never_lethal());
  EXPECT_TRUE(offer_block(eng));
  expect_retired(eng);
  // An opcode listed with no instances is not in the block.
  eng.configure(permanent_gpu(GpuOpcode::kFDiv, 31), 1, never_lethal());
  EXPECT_TRUE(eng.retire_clean({{GpuOpcode::kFDiv, 0}, {GpuOpcode::kFAdd, 3}}));
  EXPECT_EQ(eng.total_dyn_instructions(), 19u);
}

TEST(RetireClean, OtherDomainPlanRetires) {
  for (FaultPlan p : {transient_gpu(12, 31), permanent_gpu(GpuOpcode::kFAdd, 31)}) {
    p.domain = FaultDomain::kCpu;
    GpuEngine eng;
    eng.configure(p, 1, never_lethal());
    EXPECT_TRUE(offer_block(eng));
    expect_retired(eng);
  }
}

TEST(RetireClean, ClearedTransientRetires) {
  GpuEngine eng;
  eng.configure(transient_gpu(3, 31), 1, never_lethal());
  eng.exec(GpuOpcode::kFAdd, 1.0f);
  eng.exec(GpuOpcode::kFAdd, 1.0f);
  eng.exec(GpuOpcode::kFAdd, 1.0f);
  eng.exec(GpuOpcode::kFAdd, 1.0f);  // index 3: fires
  ASSERT_TRUE(eng.fault_activated());
  eng.clear_transient_fault();
  EXPECT_TRUE(eng.retire_clean({{GpuOpcode::kFAdd, 5}}));
  EXPECT_EQ(eng.total_dyn_instructions(), 9u);
  EXPECT_EQ(eng.op_count(GpuOpcode::kFAdd), 9u);
}

class ManifestationProbability
    : public ::testing::TestWithParam<double> {};

TEST_P(ManifestationProbability, CrashRateMatchesConfiguredProbability) {
  const double p_crash = GetParam();
  int crashes = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    GpuEngine eng;
    CrashHangModel m = never_lethal();
    m.p_crash_data = p_crash;
    eng.configure(transient_gpu(0), static_cast<std::uint64_t>(i) + 1, m);
    try {
      eng.exec(GpuOpcode::kFAdd, 1.0f);
    } catch (const CrashError&) {
      ++crashes;
    }
  }
  EXPECT_NEAR(static_cast<double>(crashes) / n, p_crash, 0.04);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ManifestationProbability,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace dav
