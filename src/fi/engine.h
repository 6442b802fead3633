// Instrumented compute engines — the fault-injection substrate.
//
// Every arithmetic operation the agent performs flows through an Engine,
// which (a) counts dynamic instructions per opcode (the profile used to pick
// transient injection sites uniformly, as NVBitFI/PinFI do), and (b) applies
// the configured fault plan: XOR-corrupting the destination register of one
// dynamic instruction (transient) or of all instances of one opcode
// (permanent). Address/control-class corruptions resolve to crashes or hangs
// per the CrashHangModel, mirroring the paper's observed DUE rates.
//
// DiverseAV time-multiplexes both agents on ONE engine (shared processor), so
// a permanent fault corrupts both agents' streams while a transient corrupts
// whichever agent is executing at that dynamic instruction. The FD baseline
// uses two engines (dedicated processors) with the fault in one.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fi/fault_model.h"
#include "fi/opcodes.h"
#include "util/trace.h"
#include "util/bits.h"
#include "util/rng.h"

namespace dav {

/// Dynamic engine state for checkpoint capture/adopt, shared across engine
/// instantiations (opcode counts flatten to a vector). The plan and
/// crash/hang model are configure()-time inputs and stay with the restored
/// run's own configuration; everything the instruction stream evolved —
/// counts, totals, the outcome RNG position, and activation bookkeeping —
/// transfers exactly.
struct EngineState {
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  std::array<std::uint64_t, 4> rng{};
  bool armed = false;
  bool activated = false;
  std::uint64_t corruptions = 0;
  bool permanent_outcome_decided = false;
  bool permanent_lethal = false;
};

template <typename OpcodeT, FaultDomain Domain>
class Engine {
 public:
  static constexpr int kNumOpcodes = static_cast<int>(OpcodeT::kCount);
  static constexpr FaultDomain kDomain = Domain;
  using Opcode = OpcodeT;

  Engine() { counts_.fill(0); }

  /// Arm (or disarm, with a kNone plan) fault injection for the coming run.
  /// `seed` drives the crash/hang outcome draws; `model` gives the per-class
  /// manifestation probabilities.
  void configure(const FaultPlan& plan, std::uint64_t seed,
                 const CrashHangModel& model = CrashHangModel::for_domain(Domain)) {
    plan_ = plan;
    model_ = model;
    rng_ = Rng(seed);
    armed_ = plan.active() && plan.domain == Domain;
    activated_ = false;
    corruptions_ = 0;
    permanent_outcome_decided_ = false;
    permanent_lethal_ = false;
  }

  /// Instrumented scalar operation: returns the (possibly corrupted) value.
  /// The value passed in is the computed result, i.e. the contents of the
  /// destination register before any fault effect.
  float exec(OpcodeT op, float v) {
    ++counts_[index(op)];
    const std::uint64_t i = total_++;
    if (!armed_) [[likely]] {
      return v;
    }
    return faulty_exec(op, v, i);
  }

  /// Bulk accounting for memory / data-movement / control instructions that
  /// accompany a tensor or loop operation (n dynamic instances at once).
  /// Faults landing here resolve via the crash/hang model; survivors are
  /// masked (a corrupted address that neither crashes nor hangs typically
  /// loads a wrong-but-unused value).
  void bulk(OpcodeT op, std::uint64_t n) {
    counts_[index(op)] += n;
    const std::uint64_t start = total_;
    total_ += n;
    if (!armed_) [[likely]] {
      return;
    }
    faulty_bulk(op, start, n);
  }

  /// Single control-flow marker (branch, call, loop bound...).
  void mark(OpcodeT op) { bulk(op, 1); }

  /// Block accounting for a run of exec() calls whose per-opcode counts are
  /// known before it starts. When no instruction of the block can be
  /// corrupted — the engine is unarmed, the transient target lies outside
  /// [total, total + n), or the permanent opcode has no instance in the
  /// block — this retires the whole block at once (its per-opcode counts
  /// and its total n) and returns true: the caller then computes the block
  /// as plain arithmetic. Otherwise it changes nothing and returns false,
  /// and the caller runs its scalar exec() loop, which retires the same
  /// instructions one at a time. Either way the dynamic indices after the
  /// block are the same.
  bool retire_clean(
      std::initializer_list<std::pair<OpcodeT, std::uint64_t>> block) {
    std::uint64_t n = 0;
    for (const auto& [op, k] : block) n += k;
    if (armed_) {
      if (plan_.kind == FaultModelKind::kTransient) {
        if (plan_.target_dyn_index >= total_ &&
            plan_.target_dyn_index - total_ < n) {
          return false;
        }
      } else {
        for (const auto& [op, k] : block) {
          if (k > 0 && index(op) == static_cast<std::size_t>(plan_.target_opcode))
            return false;
        }
      }
    }
    for (const auto& [op, k] : block) counts_[index(op)] += k;
    total_ += n;
    return true;
  }

  std::uint64_t total_dyn_instructions() const { return total_; }
  std::uint64_t op_count(OpcodeT op) const { return counts_[index(op)]; }
  const std::array<std::uint64_t, kNumOpcodes>& op_counts() const {
    return counts_;
  }

  /// Mitigation hook: a transient fault is a one-shot particle strike — once
  /// it has activated, the hardware is clean again, so restarting the victim
  /// agent on the same processor is sound. Disarms an activated transient
  /// plan; a not-yet-activated transient (strike still pending) and permanent
  /// faults (broken silicon) stay armed, which is what forces the recovery
  /// manager's escalation path on genuinely permanent faults.
  void clear_transient_fault() {
    if (plan_.kind == FaultModelKind::kTransient && activated_) {
      armed_ = false;
    }
  }

  /// True once the planned fault has corrupted at least one instruction.
  bool fault_activated() const { return activated_; }
  std::uint64_t corruption_count() const { return corruptions_; }
  const FaultPlan& plan() const { return plan_; }

  EngineState capture() const {
    EngineState st;
    st.counts.assign(counts_.begin(), counts_.end());
    st.total = total_;
    st.rng = rng_.state();
    st.armed = armed_;
    st.activated = activated_;
    st.corruptions = corruptions_;
    st.permanent_outcome_decided = permanent_outcome_decided_;
    st.permanent_lethal = permanent_lethal_;
    return st;
  }

  /// Restore dynamic state; plan_/model_ keep whatever configure() set.
  /// Restores go adopt-then-configure: checkpoints are clean prefixes, so
  /// configure() re-arms the engine for the restoring run's own plan, and
  /// the activation state and outcome RNG it resets are still at their
  /// defaults (nothing activated, nothing drawn).
  void adopt(const EngineState& st) {
    if (st.counts.size() != counts_.size()) {
      throw std::invalid_argument("Engine::adopt: opcode count mismatch");
    }
    for (std::size_t k = 0; k < counts_.size(); ++k) counts_[k] = st.counts[k];
    total_ = st.total;
    rng_.set_state(st.rng);
    armed_ = st.armed;
    activated_ = st.activated;
    corruptions_ = st.corruptions;
    permanent_outcome_decided_ = st.permanent_outcome_decided;
    permanent_lethal_ = st.permanent_lethal;
  }

 private:
  static constexpr std::size_t index(OpcodeT op) {
    return static_cast<std::size_t>(op);
  }

  /// Resolve a corruption event of class `cls` to crash / hang / propagate.
  void resolve_manifestation(OpClass cls) {
    double p_crash = model_.p_crash_data;
    double p_hang = model_.p_hang_data;
    if (cls == OpClass::kMemory) {
      p_crash = model_.p_crash_mem;
      p_hang = model_.p_hang_mem;
    } else if (cls == OpClass::kControl) {
      p_crash = model_.p_crash_ctrl;
      p_hang = model_.p_hang_ctrl;
    }
    const double u = rng_.uniform();
    if (u < p_crash) {
      obs::instant(obs::Instant::kCrashManifested,
                   static_cast<double>(Domain));
      throw CrashError{};
    }
    if (u < p_crash + p_hang) {
      obs::instant(obs::Instant::kHangManifested,
                   static_cast<double>(Domain));
      throw HangError{};
    }
  }

  /// Obs hook for the FIRST corrupted instruction only — permanent faults
  /// corrupt every instance of an opcode, so this must not fire per event.
  void note_activation(std::uint64_t dyn_index) {
    if (!activated_) {
      activated_ = true;
      obs::instant(obs::Instant::kFaultActivated,
                   static_cast<double>(dyn_index));
    }
  }

  float corrupt(float v) {
    ++corruptions_;
    return xor_float(v, plan_.mask());
  }

  float faulty_exec(OpcodeT op, float v, std::uint64_t i) {
    if (plan_.kind == FaultModelKind::kTransient) {
      if (i != plan_.target_dyn_index) return v;
      note_activation(i);
      resolve_manifestation(op_class(op));
      return corrupt(v);
    }
    // Permanent: every dynamic instance of the target opcode.
    if (index(op) != static_cast<std::size_t>(plan_.target_opcode)) return v;
    note_activation(i);
    decide_permanent_outcome(op_class(op));
    return corrupt(v);
  }

  void faulty_bulk(OpcodeT op, std::uint64_t start, std::uint64_t n) {
    if (plan_.kind == FaultModelKind::kTransient) {
      if (plan_.target_dyn_index < start || plan_.target_dyn_index >= start + n)
        return;
      note_activation(plan_.target_dyn_index);
      resolve_manifestation(op_class(op));
      ++corruptions_;  // survived: wrong-but-unused value, masked downstream
      return;
    }
    if (index(op) != static_cast<std::size_t>(plan_.target_opcode)) return;
    note_activation(start);
    decide_permanent_outcome(op_class(op));
    corruptions_ += n;
  }

  /// For permanent faults the lethality draw happens once per run; a lethal
  /// outcome (crash/hang) fires on the first corrupted instance.
  void decide_permanent_outcome(OpClass cls) {
    if (!permanent_outcome_decided_) {
      permanent_outcome_decided_ = true;
      try {
        resolve_manifestation(cls);
      } catch (...) {
        permanent_lethal_ = true;
        throw;
      }
    } else if (permanent_lethal_) {
      // Unreachable in practice (the first instance already threw), but kept
      // for safety if an exception was swallowed upstream.
      throw CrashError{};
    }
  }

  std::array<std::uint64_t, kNumOpcodes> counts_{};
  std::uint64_t total_ = 0;
  FaultPlan plan_;
  CrashHangModel model_;
  Rng rng_{0};
  bool armed_ = false;
  bool activated_ = false;
  std::uint64_t corruptions_ = 0;
  bool permanent_outcome_decided_ = false;
  bool permanent_lethal_ = false;
};

/// Runs one block of instrumented arithmetic whose per-opcode counts are
/// `block`. `body(x)` computes the block through `x(op, v)`, in the order the
/// scalar loop executes it: when the engine retires the block clean, `x` is
/// the identity and the body compiles to plain arithmetic; otherwise `x` is
/// Engine::exec, so every dynamic index, corruption and crash/hang lands
/// exactly where the scalar loop puts it.
template <typename EngineT, typename Body>
void run_block(
    EngineT& eng,
    std::initializer_list<std::pair<typename EngineT::Opcode, std::uint64_t>>
        block,
    Body&& body) {
  using Op = typename EngineT::Opcode;
  if (eng.retire_clean(block)) {
    body([](Op, float v) { return v; });
  } else {
    body([&eng](Op op, float v) { return eng.exec(op, v); });
  }
}

/// The GPU engine: fp32 tensor arithmetic (perception pipeline).
using GpuEngine = Engine<GpuOpcode, FaultDomain::kGpu>;
/// The CPU engine: control-path arithmetic (planner, tracker, PID).
using CpuEngine = Engine<CpuOpcode, FaultDomain::kCpu>;

}  // namespace dav
