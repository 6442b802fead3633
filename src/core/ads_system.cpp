#include "core/ads_system.h"

#include <stdexcept>

#include "util/trace.h"

namespace dav {

std::string to_string(AgentMode m) {
  switch (m) {
    case AgentMode::kSingle: return "single";
    case AgentMode::kRoundRobin: return "diverseav";
    case AgentMode::kDuplicate: return "fd";
  }
  return "?";
}

AdsSystem::AdsSystem(AgentMode mode, const AgentConfig& agent_cfg,
                     GpuEngine& gpu0, CpuEngine& cpu0, GpuEngine* gpu1,
                     CpuEngine* cpu1, const RoadMap* map, double overlap_ratio)
    : distributor_(mode, overlap_ratio),
      agent_cfg_(agent_cfg),
      gpu0_(&gpu0),
      cpu0_(&cpu0),
      gpu1_(gpu1),
      cpu1_(cpu1),
      map_(map) {
  agent0_ = std::make_unique<SensorimotorAgent>("agent0", agent_cfg, gpu0,
                                                cpu0, map);
  if (mode == AgentMode::kRoundRobin) {
    // Time-multiplexed on the SAME engines: a permanent hardware fault
    // affects both agents; a transient affects whichever agent executes the
    // targeted dynamic instruction.
    agent1_ = std::make_unique<SensorimotorAgent>("agent1", agent_cfg, gpu0,
                                                  cpu0, map);
  } else if (mode == AgentMode::kDuplicate) {
    if (gpu1 == nullptr || cpu1 == nullptr) {
      throw std::invalid_argument(
          "AdsSystem: duplicate mode needs a second engine set");
    }
    agent1_ = std::make_unique<SensorimotorAgent>("agent1", agent_cfg, *gpu1,
                                                  *cpu1, map);
  }
}

void AdsSystem::attach_sensor_fault_injector(SensorFaultInjector* injector) {
  sensor_injector_ = injector;
  agent0_->attach_sensor_fault_injector(injector);
}

AdsState AdsSystem::capture() const {
  AdsState s;
  s.agent0 = agent0_->capture();
  if (agent1_) {
    s.has_agent1 = true;
    s.agent1 = agent1_->capture();
  }
  if (prev_output_) {
    s.has_prev_output = true;
    s.prev_output = *prev_output_;
  }
  s.step = step_;
  s.executing = executing_;
  return s;
}

void AdsSystem::adopt(const AdsState& s) {
  if (s.has_agent1 != (agent1_ != nullptr)) {
    throw std::invalid_argument(
        "AdsSystem::adopt: agent count mismatch (checkpoint from a "
        "different mode?)");
  }
  agent0_->adopt(s.agent0);
  if (agent1_) agent1_->adopt(s.agent1);
  if (s.has_prev_output) {
    prev_output_ = s.prev_output;
  } else {
    prev_output_.reset();
  }
  step_ = s.step;
  executing_ = s.executing;
}

const SensorimotorAgent& AdsSystem::agent(int i) const {
  return i == 0 ? *agent0_ : *agent1_;
}

SensorimotorAgent& AdsSystem::mutable_agent(int i) {
  return i == 0 ? *agent0_ : *agent1_;
}

AdsSystem::ProbeOutputs AdsSystem::probe_step(const SensorFrame& frame,
                                              double world_dt) {
  if (num_agents() < 2) {
    throw std::logic_error("AdsSystem::probe_step: needs two agents");
  }
  // Duplicated-frame arbitration: both agents see the same data, so their
  // outputs are directly comparable regardless of the round-robin schedule.
  ProbeOutputs out;
  executing_ = 0;
  out.u0 = agent0_->act(frame, world_dt);
  executing_ = 1;
  out.u1 = agent1_->act(frame, world_dt);
  ++step_;
  return out;
}

void AdsSystem::set_comparison_reference(const Actuation& applied) {
  prev_output_ = applied;
}

Actuation AdsSystem::degraded_step(int healthy, const SensorFrame& frame,
                                   double world_dt) {
  if (num_agents() < 2) {
    throw std::logic_error("AdsSystem::degraded_step: needs two agents");
  }
  executing_ = healthy;
  const Actuation applied = mutable_agent(healthy).act(frame, world_dt);
  prev_output_ = applied;
  // The restarted replica re-warms on the same frames; its output is
  // discarded until the rewarm window elapses and nominal operation resumes.
  const int rewarming = 1 - healthy;
  executing_ = rewarming;
  mutable_agent(rewarming).act(frame, world_dt);
  executing_ = healthy;
  ++step_;
  return applied;
}

void AdsSystem::restart_agent(int suspect) {
  if (num_agents() < 2) {
    throw std::logic_error("AdsSystem::restart_agent: needs two agents");
  }
  const bool dup = mode() == AgentMode::kDuplicate;
  GpuEngine& gpu = (suspect == 1 && dup) ? *gpu1_ : *gpu0_;
  CpuEngine& cpu = (suspect == 1 && dup) ? *cpu1_ : *cpu0_;
  // A spent transient strike leaves clean hardware behind; permanent faults
  // remain armed and will re-manifest.
  gpu.clear_transient_fault();
  cpu.clear_transient_fault();
  auto& slot = suspect == 0 ? agent0_ : agent1_;
  const std::string name = slot->name();
  slot = std::make_unique<SensorimotorAgent>(name, agent_cfg_, gpu, cpu, map_);
  slot->restore(mutable_agent(1 - suspect).snapshot());
  if (suspect == 0) slot->attach_sensor_fault_injector(sensor_injector_);
  executing_ = suspect;
  slot->rewarm();
  obs::instant(obs::Instant::kAgentRestart, 0.0, suspect);
}

AdsSystem::StepResult AdsSystem::step(const SensorFrame& frame,
                                      double world_dt) {
  const auto dispatch = distributor_.dispatch(step_);
  const double agent_dt = world_dt * distributor_.agent_period();
  StepResult result;
  result.acting_agent = dispatch.acting_agent;

  switch (distributor_.mode()) {
    case AgentMode::kSingle: {
      executing_ = 0;
      result.applied = agent0_->act(frame, agent_dt);
      if (prev_output_) {
        result.have_delta = true;
        result.delta = abs_delta(result.applied, *prev_output_);
      }
      prev_output_ = result.applied;
      break;
    }
    case AgentMode::kRoundRobin: {
      if (dispatch.to_agent0 && dispatch.to_agent1) {
        // Overlap frame (partial duplication, footnote 5): both agents
        // consume it; the scheduled owner drives and the same-step pair is
        // directly comparable.
        executing_ = 0;
        const Actuation u0 = agent0_->act(frame, agent_dt);
        executing_ = 1;
        const Actuation u1 = agent1_->act(frame, agent_dt);
        executing_ = dispatch.acting_agent;
        result.applied = dispatch.acting_agent == 0 ? u0 : u1;
        result.have_delta = true;
        result.delta = abs_delta(u0, u1);
      } else {
        SensorimotorAgent& acting =
            dispatch.acting_agent == 0 ? *agent0_ : *agent1_;
        executing_ = dispatch.acting_agent;
        result.applied = acting.act(frame, agent_dt);
        if (prev_output_) {
          // Adjacent outputs come from the two diverse agents.
          result.have_delta = true;
          result.delta = abs_delta(result.applied, *prev_output_);
        }
      }
      prev_output_ = result.applied;
      break;
    }
    case AgentMode::kDuplicate: {
      executing_ = 0;
      const Actuation u0 = agent0_->act(frame, agent_dt);
      executing_ = 1;
      const Actuation u1 = agent1_->act(frame, agent_dt);
      executing_ = 0;
      result.applied = u0;  // the (faulty) primary drives; replica = reference
      result.have_delta = true;
      result.delta = abs_delta(u0, u1);
      break;
    }
  }
  ++step_;
  return result;
}

std::size_t AdsSystem::state_bytes() const {
  std::size_t bytes = agent0_->state_bytes();
  if (agent1_) bytes += agent1_->state_bytes();
  return bytes;
}

}  // namespace dav
