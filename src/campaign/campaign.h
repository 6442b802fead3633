// Campaign Manager (paper Fig 3): reads the experiment configuration,
// launches the Injection Plan Generator, and drives golden runs, fault
// injection sweeps and detector training.
//
// The manager is crash-proof at campaign scale ("A Case for Bayesian Fault
// Injection" stresses harness robustness): every batch runs through
// CampaignExecutor (executor.h), so a run that throws anything other than the
// in-model CrashError/HangError — bad_alloc, a logic error from a bad
// configuration — or that kills its worker is retried, then quarantined as a
// kHarnessError outcome with its offending seed and plan, and the sweep
// continues.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/driver.h"
#include "campaign/env_options.h"
#include "campaign/executor.h"
#include "fi/plan_generator.h"

namespace dav {

/// Campaign sizing. The paper's campaigns (500 transient sites, 3 permanent
/// repeats per opcode, 50 golden runs, 10-15 min training routes) ran for
/// weeks on a GPU testbed; the defaults here reproduce the same structure at
/// simulation scale. Set DAV_SCALE=<float> to scale the counts.
struct CampaignScale {
  int transient_runs = 40;           // paper: 500
  int permanent_repeats = 1;         // paper: 3
  int golden_runs = 10;              // paper: 50
  int training_runs_per_scenario = 2;
  double safety_duration_sec = 30.0;
  double long_route_duration_sec = 60.0;  // paper: 10-15 min

  /// Fail fast on nonsensical sizing (throws std::invalid_argument with an
  /// actionable message). Called by the CampaignManager constructor.
  void validate() const;

  ScenarioOptions scenario_options() const {
    return {long_route_duration_sec, safety_duration_sec};
  }
};

/// Optional per-campaign overrides for the mitigation/detection fields of
/// every generated RunConfig (the sweep structure and seeds are unchanged,
/// so a safe-stop-only and a restart-recovery campaign are run-for-run
/// comparable). The LUT, when set, must outlive the campaign calls.
struct MitigationSetup {
  MitigationPolicy policy = MitigationPolicy::kSafeStopOnly;
  const ThresholdLut* online_lut = nullptr;
  DetectorConfig online_detector;
  RecoveryConfig recovery;

  void apply(RunConfig& cfg) const {
    cfg.mitigation = policy;
    cfg.online_lut = online_lut;
    cfg.online_detector = online_detector;
    cfg.recovery = recovery;
  }
};

class CampaignManager {
 public:
  /// Environment-free: compiled-in defaults for executor routing and
  /// tracing — run_all executes in this process (jobs = 0).
  /// Throws std::invalid_argument when `scale` is nonsensical.
  explicit CampaignManager(CampaignScale scale, std::uint64_t seed = 2022);

  /// Fully injectable: campaign sizing (env.campaign_scale()), executor
  /// routing and trace opt-in all come from `env` — which the caller built
  /// by hand (tests, benches) or read once via EnvOptions::from_env(), the
  /// only env-reading entry point. No constructor reads the environment.
  explicit CampaignManager(const EnvOptions& env, std::uint64_t seed = 2022);

  /// Explicit sizing with injected executor/trace routing (e.g. a custom
  /// CampaignScale that still honors DAV_JOBS/DAV_TRACE from from_env()).
  CampaignManager(CampaignScale scale, EnvOptions env,
                  std::uint64_t seed = 2022);

  const CampaignScale& scale() const { return scale_; }
  const EnvOptions& env() const { return env_; }

  /// Base configuration for one run of `scenario` in `mode`.
  RunConfig base_config(ScenarioId scenario, AgentMode mode) const;

  /// Supervised batch through CampaignExecutor: one result per config, in
  /// order (quarantined runs included as kHarnessError placeholders, never
  /// dropped). The injected EnvOptions pick where runs execute — jobs = 0
  /// in this process, N in a pool of N sandboxed workers — and whether they
  /// are journaled; every choice yields bit-identical batches.
  std::vector<RunResult> run_all(const std::vector<RunConfig>& cfgs);

  /// A run the executor had to give up on, with the offending config (seed
  /// and fault plan included) and the diagnosis.
  struct Quarantine {
    RunConfig cfg;
    std::string what;
  };
  const std::vector<Quarantine>& quarantined() const { return quarantined_; }

  /// Executor telemetry accumulated over every batch:
  /// launches, retries, journal traffic, per-slot busy seconds (wall_sec and
  /// slot_busy_sec sum across batches; spans are per-batch and exported to
  /// the campaign trace instead of accumulated here). Wall-clock data — print
  /// it to stderr, never into a deterministic summary.
  const ExecutorStats& executor_stats() const { return executor_stats_; }

  /// Golden (fault-free) runs; run-to-run variation comes from sensor noise.
  std::vector<RunResult> golden(ScenarioId scenario, AgentMode mode,
                                int count);

  /// Profile run: counts dynamic instructions for transient site selection.
  ExecutionProfile profile(ScenarioId scenario, AgentMode mode,
                           FaultDomain domain);

  /// One fault-injection campaign: `domain` x `kind` on `scenario` in `mode`.
  /// Transient campaigns sample scale().transient_runs sites uniformly over
  /// the profiled execution; permanent campaigns sweep the full ISA with
  /// scale().permanent_repeats repeats. `mitigation`, when non-null, applies
  /// an online detector + mitigation policy to every run of the sweep.
  std::vector<RunResult> fi_campaign(ScenarioId scenario, AgentMode mode,
                                     FaultDomain domain, FaultModelKind kind,
                                     const MitigationSetup* mitigation =
                                         nullptr);

  /// One sensor-path fault-injection campaign: `runs_per_model` runs of each
  /// model in `models` on `scenario` in `mode`, fusion enabled (the sweep
  /// exercises the fail-degraded path; LiDAR capture rides along). Sweep size
  /// derives from scale().transient_runs when `runs_per_model` <= 0 —
  /// deliberately NOT a new CampaignScale field, so existing campaign
  /// fingerprints (journal binding) are unchanged. `mitigation`, when
  /// non-null, applies an online detector + mitigation policy to every run.
  std::vector<RunResult> sensor_fi_campaign(
      ScenarioId scenario, AgentMode mode,
      const std::vector<SensorFaultModel>& models, int runs_per_model = 0,
      int onset_tick = 40, int duration_ticks = 80,
      const MitigationSetup* mitigation = nullptr);

  /// Fault-free observation traces from the three long training scenarios
  /// (input to train_lut; paper §III-D trains on long scenarios only).
  std::vector<std::vector<StepObservation>> training_observations(
      AgentMode mode);

 private:
  std::uint64_t run_seed(ScenarioId scenario, AgentMode mode, int domain_tag,
                         int kind_tag, int index) const;

  /// Digest of (campaign seed, scale): binds a journal file to this
  /// campaign's configuration so resume never replays foreign results.
  std::uint64_t fingerprint() const;

  void accumulate_executor_stats(const ExecutorStats& s);
  /// Writes two Chrome-trace JSON files for one executor batch into the
  /// DAV_TRACE directory. "campaign_<fp>_batch<n>.trace.json" is the worker
  /// timeline — one pid per worker slot, plus per-stage histogram summaries
  /// in otherData. "..._batch<n>.runs.trace.json" is the merged per-run
  /// semantic trace (instant events, pid = plan index + 1, simulated time)
  /// and is byte-identical across identical campaigns.
  void export_campaign_trace(const ExecutorStats& s);

  CampaignScale scale_;
  EnvOptions env_;  ///< injected once at construction; never re-read
  std::uint64_t seed_;
  std::vector<Quarantine> quarantined_;
  ExecutorStats executor_stats_;
  int trace_batches_ = 0;  // names successive campaign trace files
};

/// The merged per-run semantic trace for one executor batch, as Chrome
/// trace-event JSON: every captured run's instant events, one Perfetto pid
/// per plan index (plan_index + 1), simulated-time timestamps. Byte-identical
/// across identical campaigns regardless of execution strategy or completion
/// order — the executor tests and the CI trace gate diff it.
std::string campaign_runs_trace_json(const ExecutorStats& s,
                                     const std::string& fingerprint_hex);

}  // namespace dav
