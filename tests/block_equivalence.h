// Shared check for the GPU kernels' block accounting: a kernel computed with
// its blocks retired clean must equal the same kernel forced onto its scalar
// exec loops, in outputs, per-opcode counts and dynamic-instruction total.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "fi/engine.h"

namespace dav::testing_blocks {

/// Model where nothing ever crashes or hangs.
inline CrashHangModel never_lethal() {
  CrashHangModel m;
  m.p_crash_data = m.p_hang_data = m.p_crash_mem = m.p_hang_mem = 0.0;
  m.p_crash_ctrl = m.p_hang_ctrl = 0.0;
  return m;
}

/// Plans that push blocks onto the scalar loop without changing a value:
/// bit 32 is an empty mask. One permanent plan per GPU opcode, plus one
/// transient plan per index in `transient_indices`.
inline std::vector<FaultPlan> forcing_plans(
    const std::vector<std::uint64_t>& transient_indices) {
  std::vector<FaultPlan> plans;
  for (int op = 0; op < kNumGpuOpcodes; ++op) {
    FaultPlan p;
    p.kind = FaultModelKind::kPermanent;
    p.domain = FaultDomain::kGpu;
    p.target_opcode = op;
    p.bit = 32;
    plans.push_back(p);
  }
  for (const std::uint64_t i : transient_indices) {
    FaultPlan p;
    p.kind = FaultModelKind::kTransient;
    p.domain = FaultDomain::kGpu;
    p.target_dyn_index = i;
    p.bit = 32;
    plans.push_back(p);
  }
  return plans;
}

/// Every index in [0, total]: the first, last and one-past-last index of
/// every block, and the index one past the whole kernel.
inline std::vector<std::uint64_t> every_index(std::uint64_t total) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 0; i <= total; ++i) v.push_back(i);
  return v;
}

inline std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  if (!v.empty()) std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

/// Runs `kernel(engine)` on an unarmed engine and under each forcing plan;
/// the results (compared with ==), op_counts() and total_dyn_instructions()
/// must be identical, and each plan must activate exactly when its target
/// instruction exists.
template <typename Kernel>
void expect_scalar_path_identical(
    Kernel&& kernel, const std::vector<std::uint64_t>& transient_indices) {
  GpuEngine clean;
  clean.configure({}, 0);
  const auto want = kernel(clean);
  const std::uint64_t total = clean.total_dyn_instructions();
  for (const FaultPlan& plan : forcing_plans(transient_indices)) {
    GpuEngine eng;
    eng.configure(plan, 1, never_lethal());
    const auto got = kernel(eng);
    const bool transient = plan.kind == FaultModelKind::kTransient;
    const auto where = ::testing::Message()
                       << (transient ? "transient at " : "permanent on opcode ")
                       << (transient ? plan.target_dyn_index
                                     : static_cast<std::uint64_t>(
                                           plan.target_opcode));
    ASSERT_TRUE(got == want) << where;
    ASSERT_EQ(eng.op_counts(), clean.op_counts()) << where;
    ASSERT_EQ(eng.total_dyn_instructions(), total) << where;
    const bool reached =
        transient ? plan.target_dyn_index < total
                  : clean.op_counts()[static_cast<std::size_t>(
                        plan.target_opcode)] > 0;
    ASSERT_EQ(eng.fault_activated(), reached) << where;
  }
}

}  // namespace dav::testing_blocks
