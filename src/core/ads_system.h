// The redundant ADS: agents + sensor data distributor + control fusion.
//
// Wires the black-box Sensorimotor agents into the three evaluated
// configurations (paper Fig 2 / §VI):
//   kRoundRobin  — DiverseAV: both agents time-multiplexed on ONE engine set
//                  (shared processor); the agent that received the frame
//                  drives; adjacent outputs (from alternating agents) form
//                  the comparison stream.
//   kDuplicate   — FD-ADS: each agent on its OWN engine set (dedicated
//                  processors); agent 0 drives; same-step outputs compared.
//   kSingle      — one agent; previous output is the comparison reference
//                  (temporal-outlier baseline).
#pragma once

#include <memory>
#include <optional>

#include "agent/agent.h"
#include "core/distributor.h"
#include "core/divergence.h"

namespace dav {

/// Full dynamic ADS state for checkpoint capture/adopt: both agents'
/// checkpoints, the comparison reference, and the tick counter. Engines are
/// owned by the driver and checkpointed separately (fi/engine.h
/// EngineState); construction wiring (mode, engines, map) is excluded.
///
/// A state captured from a freshly constructed AdsSystem is field-for-field
/// what fresh construction produces, so adopting it before the first step
/// reproduces the PR-5 warm-start path (the tick-0 special case) exactly.
struct AdsState {
  AgentCheckpoint agent0;
  bool has_agent1 = false;
  AgentCheckpoint agent1;
  bool has_prev_output = false;
  Actuation prev_output;
  int step = 0;
  int executing = 0;
};

class AdsSystem {
 public:
  /// `gpu1`/`cpu1` must be non-null iff mode == kDuplicate. `overlap_ratio`
  /// sends a fraction of frames to both round-robin agents (paper footnote 5).
  AdsSystem(AgentMode mode, const AgentConfig& agent_cfg, GpuEngine& gpu0,
            CpuEngine& cpu0, GpuEngine* gpu1, CpuEngine* cpu1,
            const RoadMap* map, double overlap_ratio = 0.0);

  struct StepResult {
    Actuation applied;          // the fused/selected actuation command
    int acting_agent = 0;
    bool have_delta = false;    // a comparison pair was available this step
    ActuationDelta delta;
  };

  /// One synchronous tick. Propagates CrashError/HangError from the engines.
  StepResult step(const SensorFrame& frame, double world_dt);

  // --- Fault-mitigation hooks (RecoveryManager) -----------------------------

  /// Arbitration probe tick: both agents receive the SAME frame and both
  /// outputs are returned, so the recovery manager can score each agent
  /// against the fused temporal reference and identify the outlier.
  /// Advances the tick counter; propagates CrashError/HangError.
  struct ProbeOutputs {
    Actuation u0;
    Actuation u1;
  };
  ProbeOutputs probe_step(const SensorFrame& frame, double world_dt);

  /// Degraded single-agent tick: `healthy` drives on every frame (temporal-
  /// outlier operation); the other, freshly restarted agent also consumes the
  /// frame to re-warm its filters but its output is discarded. Exceptions
  /// from either agent propagate — last_executing_agent() tells whose.
  Actuation degraded_step(int healthy, const SensorFrame& frame,
                          double world_dt);

  /// Restart agent `suspect`: clears any spent transient fault on its
  /// engines, constructs a fresh agent, resyncs its private state from the
  /// healthy replica and re-runs the ISA warmup (which re-manifests a
  /// permanent fault immediately — CrashError/HangError propagate).
  /// Requires a two-agent mode.
  void restart_agent(int suspect);

  /// The agent whose computation was in flight when the last engine
  /// exception was thrown (the platform knows which process crashed/hung).
  int last_executing_agent() const { return executing_; }

  /// Route spatiotemporal tensor bit-flips (SensorFaultModel::kTensorBitFlip)
  /// into the PRIMARY agent's perception. Non-owning; nullptr detaches.
  /// Survives restart_agent: a restart swaps compute state, but a sensor-path
  /// fault lives upstream of the agent and re-attaches to the replacement.
  void attach_sensor_fault_injector(SensorFaultInjector* injector);

  /// Symmetric checkpoint capture/adopt (campaign/checkpoint.h). adopt()
  /// requires an AdsSystem constructed with the same mode and AgentConfig as
  /// the one that captured the state; it overwrites every field time
  /// evolved, so a restored system continues bit-identically.
  AdsState capture() const;
  void adopt(const AdsState& s);

  /// Overwrite the adjacent-output comparison reference. The recovery
  /// manager applies a fused command during the arbitration probe; feeding it
  /// back keeps the comparison stream continuous across the recovery window.
  void set_comparison_reference(const Actuation& applied);

  AgentMode mode() const { return distributor_.mode(); }
  int num_agents() const { return distributor_.num_agents(); }
  const SensorimotorAgent& agent(int i) const;

  /// Aggregate private state bytes across agents (Table II accounting).
  std::size_t state_bytes() const;

 private:
  SensorimotorAgent& mutable_agent(int i);

  SensorDataDistributor distributor_;
  AgentConfig agent_cfg_;  // kept for fault-recovery reconstruction
  GpuEngine* gpu0_;
  CpuEngine* cpu0_;
  GpuEngine* gpu1_;  // null outside duplicate mode
  CpuEngine* cpu1_;
  const RoadMap* map_;
  std::unique_ptr<SensorimotorAgent> agent0_;
  std::unique_ptr<SensorimotorAgent> agent1_;
  std::optional<Actuation> prev_output_;  // previous comparison reference
  SensorFaultInjector* sensor_injector_ = nullptr;
  int step_ = 0;
  int executing_ = 0;
};

}  // namespace dav
