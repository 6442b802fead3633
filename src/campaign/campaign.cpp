#include "campaign/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "campaign/serialize.h"
#include "obs/export.h"
#include "util/bits.h"
#include "util/rng.h"

namespace dav {

void CampaignScale::validate() const {
  const auto positive = [](const char* name, double v) {
    if (v > 0.0) return;
    throw std::invalid_argument(std::string("CampaignScale: ") + name +
                                " must be positive, got " +
                                std::to_string(v));
  };
  positive("transient_runs", transient_runs);
  positive("permanent_repeats", permanent_repeats);
  positive("golden_runs", golden_runs);
  positive("training_runs_per_scenario", training_runs_per_scenario);
  positive("safety_duration_sec", safety_duration_sec);
  positive("long_route_duration_sec", long_route_duration_sec);
}

CampaignManager::CampaignManager(CampaignScale scale, std::uint64_t seed)
    : CampaignManager(scale, EnvOptions::defaults(), seed) {}

CampaignManager::CampaignManager(const EnvOptions& env, std::uint64_t seed)
    : CampaignManager(env.campaign_scale(), env, seed) {}

CampaignManager::CampaignManager(CampaignScale scale, EnvOptions env,
                                 std::uint64_t seed)
    : scale_(scale), env_(std::move(env)), seed_(seed) {
  scale_.validate();
  env_.validate();
}

std::uint64_t CampaignManager::fingerprint() const {
  ByteWriter w;
  w.u64(seed_);
  w.i32(scale_.transient_runs);
  w.i32(scale_.permanent_repeats);
  w.i32(scale_.golden_runs);
  w.i32(scale_.training_runs_per_scenario);
  w.f64(scale_.safety_duration_sec);
  w.f64(scale_.long_route_duration_sec);
  const std::string& b = w.bytes();
  return fnv1a64(b.data(), b.size());
}

void CampaignManager::accumulate_executor_stats(const ExecutorStats& s) {
  ExecutorStats& t = executor_stats_;
  t.launched += s.launched;
  t.journal_hits += s.journal_hits;
  t.retries += s.retries;
  t.signal_deaths += s.signal_deaths;
  t.timeouts += s.timeouts;
  t.quarantined += s.quarantined;
  t.torn_bytes_discarded += s.torn_bytes_discarded;
  t.pool_workers += s.pool_workers;
  t.respawns += s.respawns;
  t.checkpoint_hits += s.checkpoint_hits;
  t.checkpoint_misses += s.checkpoint_misses;
  t.checkpoint_evictions += s.checkpoint_evictions;
  t.jobs = std::max(t.jobs, s.jobs);
  t.wall_sec += s.wall_sec;
  t.journal_appends += s.journal_appends;
  t.journal_bytes += s.journal_bytes;
  if (t.slot_busy_sec.size() < s.slot_busy_sec.size()) {
    t.slot_busy_sec.resize(s.slot_busy_sec.size(), 0.0);
  }
  for (std::size_t i = 0; i < s.slot_busy_sec.size(); ++i) {
    t.slot_busy_sec[i] += s.slot_busy_sec[i];
  }
  if (t.slot_runs_served.size() < s.slot_runs_served.size()) {
    t.slot_runs_served.resize(s.slot_runs_served.size(), 0);
  }
  for (std::size_t i = 0; i < s.slot_runs_served.size(); ++i) {
    t.slot_runs_served[i] += s.slot_runs_served[i];
  }
  // Observability residue (davcamp's stderr report and the CI drop gate
  // read the campaign-level totals; the per-batch trace files are written
  // from the batch stats before they land here). Captures are deliberately
  // not accumulated — they are per-batch trace inputs, not totals.
  t.trace_dropped += s.trace_dropped;
  t.stage_hist.merge(s.stage_hist);
}

namespace {

/// Histogram summary rows for a trace's otherData: per populated stage,
/// "hist.<stage>" = "count,p50_ns,p95_ns,p99_ns". Derived from the
/// eviction-proof recorder histograms, so the numbers describe every span of
/// every run in the batch even where the per-run event rings wrapped.
void append_histogram_metadata(
    const obs::StageHistogramSet& hist,
    std::vector<std::pair<std::string, std::string>>& out) {
  for (std::size_t i = 0; i < hist.stages.size(); ++i) {
    const obs::StageHistogram& h = hist.stages[i];
    const std::uint64_t n = h.count();
    if (n == 0) continue;
    char row[128];
    std::snprintf(row, sizeof(row), "%llu,%llu,%llu,%llu",
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(h.percentile_ns(50.0)),
                  static_cast<unsigned long long>(h.percentile_ns(95.0)),
                  static_cast<unsigned long long>(h.percentile_ns(99.0)));
    out.emplace_back(
        std::string("hist.") + to_string(static_cast<obs::Stage>(i)), row);
  }
}

}  // namespace

void CampaignManager::export_campaign_trace(const ExecutorStats& s) {
  const obs::TraceOptions topts = env_.trace_options();
  if (!topts.enabled()) return;
  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint()));
  obs::ChromeTrace trace;
  trace.other_data = {{"tool", "dav-campaign-telemetry"},
                      {"fingerprint", fp},
                      {"jobs", std::to_string(s.jobs)},
                      {"launched", std::to_string(s.launched)},
                      {"retries", std::to_string(s.retries)},
                      {"journal_hits", std::to_string(s.journal_hits)},
                      {"pool_workers", std::to_string(s.pool_workers)},
                      {"respawns", std::to_string(s.respawns)},
                      {"checkpoint_hits", std::to_string(s.checkpoint_hits)},
                      {"checkpoint_misses",
                       std::to_string(s.checkpoint_misses)},
                      {"checkpoint_evictions",
                       std::to_string(s.checkpoint_evictions)},
                      {"trace_dropped", std::to_string(s.trace_dropped)}};
  append_histogram_metadata(s.stage_hist, trace.other_data);
  // Per-worker lifetime telemetry: one runs-served counter sample per slot
  // at batch end.
  for (std::size_t slot = 0; slot < s.slot_runs_served.size(); ++slot) {
    if (s.slot_runs_served[slot] == 0) continue;
    obs::ChromeEvent c;
    c.name = "runs_served";
    c.cat = "worker";
    c.ph = 'C';
    c.pid = static_cast<int>(slot) + 1;
    c.tid = 0;
    c.ts_us = s.wall_sec * 1e6;
    c.value = static_cast<double>(s.slot_runs_served[slot]);
    c.has_value = true;
    trace.events.push_back(std::move(c));
  }
  for (const WorkerSpan& w : s.spans) {
    obs::ChromeEvent e;
    e.name = "run " + std::to_string(w.index);
    if (w.attempt > 0) e.name += " retry" + std::to_string(w.attempt);
    e.cat = "worker";
    e.ph = 'X';
    e.pid = w.slot + 1;
    e.tid = 0;
    e.ts_us = w.start_sec * 1e6;
    e.dur_us = w.dur_sec * 1e6;
    trace.events.push_back(std::move(e));
  }
  obs::ensure_dir(topts.dir);
  const std::string stem = topts.dir + "/campaign_" + fp + "_batch" +
                           std::to_string(trace_batches_++);
  obs::write_text_file(stem + ".trace.json", obs::chrome_trace_json(trace));

  if (!s.captures.empty()) {
    obs::write_text_file(stem + ".runs.trace.json",
                         campaign_runs_trace_json(s, fp));
  }
}

std::string campaign_runs_trace_json(const ExecutorStats& s,
                                     const std::string& fingerprint_hex) {
  // Entirely deterministic — two identical campaigns produce byte-identical
  // JSON (CI diffs them) — because captures carry only seed-derived data and
  // the merge order is plan order, not arrival order.
  std::vector<const RunTraceCapture*> sorted;
  sorted.reserve(s.captures.size());
  for (const RunTraceCapture& c : s.captures) sorted.push_back(&c);
  std::sort(sorted.begin(), sorted.end(),
            [](const RunTraceCapture* a, const RunTraceCapture* b) {
              return a->plan_index < b->plan_index;
            });
  obs::ChromeTrace runs;
  runs.other_data = {{"tool", "dav-campaign-runs"},
                     {"fingerprint", fingerprint_hex},
                     {"runs_captured", std::to_string(sorted.size())},
                     {"trace_dropped", std::to_string(s.trace_dropped)}};
  for (const RunTraceCapture* c : sorted) {
    const int pid = static_cast<int>(c->plan_index) + 1;
    for (obs::ChromeEvent& e :
         obs::to_chrome_events(c->capture.instants, c->capture.dt, pid)) {
      runs.events.push_back(std::move(e));
    }
  }
  return obs::chrome_trace_json(runs);
}

std::vector<RunResult> CampaignManager::run_all(
    const std::vector<RunConfig>& cfgs) {
  std::vector<RunConfig> staged = cfgs;
  bool tracing = false;
  for (std::size_t i = 0; i < staged.size(); ++i) {
    if (!staged[i].trace.enabled()) continue;
    tracing = true;
    // One Perfetto pid per run in the batch; the run-config-digest file stem
    // (driver.cpp default) keeps batches from colliding on disk.
    staged[i].trace.pid = static_cast<int>(i) + 1;
  }
  ExecutorOptions opts = env_.executor_options();
  opts.campaign_fingerprint = fingerprint();
  CampaignExecutor exec(opts);
  std::vector<RunResult> out = exec.run_all(staged);
  for (const RunQuarantine& q : exec.quarantined()) {
    quarantined_.push_back(Quarantine{q.cfg, q.what});
  }
  accumulate_executor_stats(exec.stats());
  if (tracing) export_campaign_trace(exec.stats());
  return out;
}

std::uint64_t CampaignManager::run_seed(ScenarioId scenario, AgentMode mode,
                                        int domain_tag, int kind_tag,
                                        int index) const {
  std::uint64_t s = seed_;
  s = splitmix64(s) ^ (static_cast<std::uint64_t>(scenario) << 8);
  s = splitmix64(s) ^ (static_cast<std::uint64_t>(mode) << 16);
  s = splitmix64(s) ^ (static_cast<std::uint64_t>(domain_tag) << 24);
  s = splitmix64(s) ^ (static_cast<std::uint64_t>(kind_tag) << 32);
  s = splitmix64(s) ^ static_cast<std::uint64_t>(index);
  return splitmix64(s);
}

RunConfig CampaignManager::base_config(ScenarioId scenario,
                                       AgentMode mode) const {
  RunConfig cfg;
  cfg.scenario = scenario;
  cfg.mode = mode;
  cfg.scenario_opts = scale_.scenario_options();
  // Flight recorder opt-in (injected EnvOptions): routed through RunConfig
  // so executor workers inherit it. Not part of run_config_digest.
  cfg.trace = env_.trace_options();
  return cfg;
}

std::vector<RunResult> CampaignManager::golden(ScenarioId scenario,
                                               AgentMode mode, int count) {
  std::vector<RunConfig> cfgs;
  cfgs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    RunConfig cfg = base_config(scenario, mode);
    cfg.run_seed = run_seed(scenario, mode, /*domain_tag=*/9, /*kind_tag=*/0, i);
    cfgs.push_back(cfg);
  }
  return run_all(cfgs);
}

ExecutionProfile CampaignManager::profile(ScenarioId scenario, AgentMode mode,
                                          FaultDomain domain) {
  RunConfig cfg = base_config(scenario, mode);
  cfg.run_seed = run_seed(scenario, mode, /*domain_tag=*/8, /*kind_tag=*/0, 0);
  const RunResult r = run_all({cfg}).front();
  if (r.outcome == FaultOutcome::kHarnessError) {
    // Transient plans are sampled over the profiled instruction span; without
    // a profile the whole campaign is meaningless, so fail loudly instead of
    // generating degenerate plans.
    throw std::runtime_error("CampaignManager: profile run was quarantined; "
                             "cannot generate transient plans");
  }
  ExecutionProfile p;
  p.domain = domain;
  p.total_dyn_instructions = domain == FaultDomain::kGpu
                                 ? r.gpu_instructions
                                 : r.cpu_instructions;
  // In duplicate mode only engine set 0 is faulted; halve the span.
  if (mode == AgentMode::kDuplicate) p.total_dyn_instructions /= 2;
  return p;
}

std::vector<RunResult> CampaignManager::fi_campaign(
    ScenarioId scenario, AgentMode mode, FaultDomain domain,
    FaultModelKind kind, const MitigationSetup* mitigation) {
  const int domain_tag = domain == FaultDomain::kGpu ? 0 : 1;
  const int kind_tag = kind == FaultModelKind::kTransient ? 1 : 2;
  InjectionPlanGenerator gen(
      run_seed(scenario, mode, domain_tag, kind_tag, /*index=*/-1));

  std::vector<FaultPlan> plans;
  if (kind == FaultModelKind::kTransient) {
    const ExecutionProfile prof = profile(scenario, mode, domain);
    // GPU transient sites always land inside the execution (all 500 GPU
    // injections in Table I activated); CPU sites oversample past the end so
    // a realistic fraction never activates.
    const double over = domain == FaultDomain::kGpu ? 0.95 : 1.3;
    plans = gen.transient_plans(prof, scale_.transient_runs, over);
  } else {
    plans = gen.permanent_plans(domain, scale_.permanent_repeats);
  }

  std::vector<RunConfig> cfgs;
  cfgs.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    RunConfig cfg = base_config(scenario, mode);
    cfg.fault = plans[i];
    cfg.run_seed = run_seed(scenario, mode, domain_tag, kind_tag,
                            static_cast<int>(i));
    if (mitigation != nullptr) mitigation->apply(cfg);
    cfgs.push_back(cfg);
  }
  return run_all(cfgs);
}

std::vector<RunResult> CampaignManager::sensor_fi_campaign(
    ScenarioId scenario, AgentMode mode,
    const std::vector<SensorFaultModel>& models, int runs_per_model,
    int onset_tick, int duration_ticks, const MitigationSetup* mitigation) {
  // Domain tag 2: distinct from the register campaigns (0/1) and the
  // golden/profile/training reservations (9/8/7), so sensor sweeps never
  // collide with register sweeps on run seeds.
  const int domain_tag = 2;
  const int kind_tag = 3;
  if (runs_per_model <= 0) {
    // Spread the transient budget across the swept models (at least one run
    // each) instead of multiplying campaign cost by the model count.
    const int n = std::max<int>(1, static_cast<int>(models.size()));
    runs_per_model = std::max(1, scale_.transient_runs / n);
  }
  InjectionPlanGenerator gen(
      run_seed(scenario, mode, domain_tag, kind_tag, /*index=*/-1));
  const std::vector<SensorFaultPlan> plans =
      gen.sensor_plans(models, runs_per_model, onset_tick, duration_ticks);

  FusionConfig fusion;
  fusion.enabled = true;
  std::vector<RunConfig> cfgs;
  cfgs.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    RunConfig cfg = base_config(scenario, mode);
    cfg.sensor_fault = plans[i];
    cfg.fusion = fusion;
    cfg.run_seed = run_seed(scenario, mode, domain_tag, kind_tag,
                            static_cast<int>(i));
    if (mitigation != nullptr) mitigation->apply(cfg);
    cfgs.push_back(cfg);
  }
  return run_all(cfgs);
}

std::vector<std::vector<StepObservation>>
CampaignManager::training_observations(AgentMode mode) {
  std::vector<RunConfig> cfgs;
  for (ScenarioId scenario : training_scenarios()) {
    for (int i = 0; i < scale_.training_runs_per_scenario; ++i) {
      RunConfig cfg = base_config(scenario, mode);
      cfg.run_seed = run_seed(scenario, mode, /*domain_tag=*/7, /*kind_tag=*/0, i);
      cfgs.push_back(cfg);
    }
  }
  std::vector<std::vector<StepObservation>> out;
  for (RunResult& r : run_all(cfgs)) {
    if (r.outcome == FaultOutcome::kHarnessError) continue;
    out.push_back(std::move(r.observations));
  }
  return out;
}

}  // namespace dav
