#include "workloads.h"

#include <algorithm>
#include <array>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/env_options.h"
#include "campaign/executor.h"
#include "campaign/metrics.h"
#include "campaign/serialize.h"
#include "core/detector.h"
#include "fi/plan_generator.h"
#include "layers.h"
#include "util/rng.h"

namespace perfbench {

using namespace dav;

namespace {

constexpr AgentMode kMode = AgentMode::kRoundRobin;
/// Set-ups per invocation; setup_s is their median.
constexpr int kSetups = 5;
/// Every 4th frame of a replayed run is re-run through Perception and the
/// agent (enough samples, a quarter of the frame memory).
constexpr int kFrameStride = 4;
/// shared_prefix_pool layout: instances x sensor-fault variants. Twelve
/// variants on four workers leave eight per instance that can restore.
constexpr int kInstances = 6;
constexpr int kVariants = 12;

/// Campaign sizing: the CampaignScale durations (30 s safety scenarios, 60 s
/// long route) with Table I's transient sweeps at EnvOptions' floor of four
/// sites.
CampaignScale bench_scale() {
  CampaignScale s;
  s.transient_runs = 4;
  s.permanent_repeats = 1;
  s.golden_runs = 4;
  return s;
}

/// fi_sweep_pool's sizing: the full-ISA permanent sweeps make ~250 runs per
/// pass, so the safety scenarios are cut to 10 s (200 ticks) to fit two
/// passes in a run. Every scripted hazard (cut-in, merge at 4 s, lead
/// braking at 8 s) still happens inside the window.
CampaignScale sweep_scale() {
  CampaignScale s = bench_scale();
  s.safety_duration_sec = 10.0;
  return s;
}

/// The only executor fields the benchmark sets; strategy fields (pool,
/// warm cache) keep their defaults and the environment is never read.
EnvOptions bench_env(const Args& a, const std::string& journal,
                     bool checkpoint) {
  EnvOptions env = EnvOptions::defaults();
  env.jobs = a.jobs;
  env.journal_path = journal;
  env.checkpoint = checkpoint;
  return env;
}

/// A fresh journal path in the work directory.
std::string fresh_journal(const Args& a, const std::string& name) {
  const std::string path = a.work_dir + "/" + name + ".journal";
  std::filesystem::remove(path);
  return path;
}

/// Ninety per cent into the scheduled run: a late, shared fork point.
int late_onset(const RunConfig& cfg) {
  const double sec = is_safety_critical(cfg.scenario)
                         ? cfg.scenario_opts.safety_duration_sec
                         : cfg.scenario_opts.long_route_duration_sec;
  return static_cast<int>(0.9 * sec / cfg.dt);
}

struct Batch {
  std::vector<RunResult> results;
  ExecutorStats stats;
};

Batch run_batch(ExecutorOptions opts, std::uint64_t fingerprint,
                const std::vector<RunConfig>& cfgs) {
  opts.campaign_fingerprint = fingerprint;
  CampaignExecutor exec(opts);
  Batch b;
  b.results = exec.run_all(cfgs);
  b.stats = exec.stats();
  return b;
}

RunResult run_guarded(const RunConfig& cfg) {
  try {
    return run_experiment(cfg);
  } catch (const std::exception&) {
    return harness_error_result(cfg);
  }
}

/// Reference runs of fault-free configs, then a timed replay of each.
void tick_probe(const std::vector<RunConfig>& cfgs, TickLayers& tick,
                Report& rep) {
  std::vector<RunResult> refs;
  std::vector<std::vector<StepObservation>> training;
  for (const RunConfig& cfg : cfgs) {
    refs.push_back(run_guarded(cfg));
    training.push_back(refs.back().observations);
  }
  const ThresholdLut lut = train_lut(training, /*rw=*/3);
  rep.add_attempted(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    std::string why;
    if (!replay_tick_loop(cfgs[i], refs[i], lut, kFrameStride, tick, why)) {
      rep.fail("tick replay of " + to_string(cfgs[i].scenario) + ": " + why);
    }
  }
}

void codec_probe(const std::vector<RunResult>& results, int rounds,
                 const Args& a, CodecLayers& codec, Report& rep) {
  std::string why;
  if (!measure_codec_and_journal(results, rounds, fresh_journal(a, "codec"),
                                 codec, why)) {
    rep.fail("result codec / journal: " + why);
  }
}

void checkpoint_probe(const std::vector<std::vector<RunConfig>>& groups,
                      CheckpointLayers& ckpt, Report& rep) {
  std::string why;
  std::size_t runs = 1;  // the straight-through comparison run
  for (const auto& g : groups) runs += g.size();
  rep.add_attempted(runs);
  if (!probe_checkpoint(groups, ckpt, why)) rep.fail("checkpoint: " + why);
}

void print_setup(const std::vector<double>& setup) {
  say("set-up:");
  for (double s : setup) say(" %.4f s", s);
  say("\n");
}

// --- golden_serial --------------------------------------------------------

std::vector<RunConfig> golden_configs(std::uint64_t seed) {
  const ScenarioOptions opts = bench_scale().scenario_options();
  const std::array<ScenarioId, 4> ids = {
      ScenarioId::kLeadSlowdown, ScenarioId::kGhostCutIn,
      ScenarioId::kFrontAccident, ScenarioId::kLongRoute02};
  std::vector<RunConfig> cfgs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    RunConfig cfg;
    cfg.scenario = ids[i];
    cfg.mode = kMode;
    cfg.scenario_opts = opts;
    cfg.run_seed = derive(seed, 0x601D0 + i);
    cfgs.push_back(cfg);
  }
  return cfgs;
}

Pass serial_pass(const std::vector<RunConfig>& cfgs,
                 std::vector<RunResult>* keep) {
  Pass p;
  p.serial = true;
  const Clock::time_point start = Clock::now();
  for (const RunConfig& cfg : cfgs) {
    const Clock::time_point t0 = Clock::now();
    RunResult r = run_guarded(cfg);
    p.run_ms.push_back(seconds_since(t0) * 1e3);
    p.fold(r);
    if (keep != nullptr) keep->push_back(std::move(r));
  }
  p.wall_sec = seconds_since(start);
  return p;
}

// --- fi_sweep_pool --------------------------------------------------------

struct FiSpec {
  FaultDomain domain;
  FaultModelKind kind;
  ScenarioId scenario;
};

/// Table I's campaigns, in bench_table1_fi_summary's order.
std::vector<FiSpec> table1_specs() {
  std::vector<FiSpec> specs;
  for (FaultModelKind kind :
       {FaultModelKind::kPermanent, FaultModelKind::kTransient}) {
    for (FaultDomain domain : {FaultDomain::kGpu, FaultDomain::kCpu}) {
      for (ScenarioId sc : safety_scenarios()) {
        specs.push_back(FiSpec{domain, kind, sc});
      }
    }
  }
  return specs;
}

std::string spec_name(const FiSpec& s) {
  return std::string(s.domain == FaultDomain::kGpu ? "GPU" : "CPU") + "-" +
         (s.kind == FaultModelKind::kTransient ? "transient" : "permanent") +
         " " + to_string(s.scenario);
}

/// CampaignManager::run_seed (private). The sweep rebuilds fi_campaign's
/// configs so that it can drive CampaignExecutor itself and read the
/// per-attempt spans the manager does not keep; the output check compares
/// one campaign against fi_campaign byte for byte.
std::uint64_t campaign_run_seed(std::uint64_t campaign_seed,
                                ScenarioId scenario, int domain_tag,
                                int kind_tag, int index) {
  std::uint64_t s = campaign_seed;
  s = splitmix64(s) ^ (static_cast<std::uint64_t>(scenario) << 8);
  s = splitmix64(s) ^ (static_cast<std::uint64_t>(kMode) << 16);
  s = splitmix64(s) ^ (static_cast<std::uint64_t>(domain_tag) << 24);
  s = splitmix64(s) ^ (static_cast<std::uint64_t>(kind_tag) << 32);
  s = splitmix64(s) ^ static_cast<std::uint64_t>(index);
  return splitmix64(s);
}

/// Campaigns whose result is kept for the in-process re-execution check:
/// one per (domain, kind) pair, rotating the scenario.
constexpr std::array<std::size_t, 4> kCheckedCampaigns = {0, 4, 8, 9};
/// The campaign the output check re-runs through fi_campaign itself (the
/// cheapest one: CPU-transient runs mostly end early).
constexpr std::size_t kCrossCheckedCampaign = 11;

struct SweepPass {
  Pass pass;
  std::vector<std::uint64_t> campaign_digests;
  std::vector<CampaignSummary> summaries;
  std::vector<std::string> checked_bytes;  ///< one result per kCheckedCampaigns
  ExecutorLayers exec;
  std::vector<RunResult> results;  ///< kept only for the traced pass
};

SweepPass sweep_pass(const Args& a, const CampaignManager& mgr,
                     const std::vector<Trajectory>& baselines,
                     const std::string& journal, bool keep_results) {
  const CampaignScale scale = mgr.scale();
  const ExecutorOptions opts =
      bench_env(a, journal, /*checkpoint=*/false).executor_options();
  const std::uint64_t fingerprint = derive(a.seed, 0xF1);
  const std::vector<FiSpec> specs = table1_specs();
  SweepPass sp;
  const Clock::time_point start = Clock::now();
  for (std::size_t b = 0; b < specs.size(); ++b) {
    const FiSpec& spec = specs[b];
    const int domain_tag = spec.domain == FaultDomain::kGpu ? 0 : 1;
    const bool transient = spec.kind == FaultModelKind::kTransient;
    const int kind_tag = transient ? 1 : 2;
    const InjectionPlanGenerator gen(
        campaign_run_seed(a.seed, spec.scenario, domain_tag, kind_tag, -1));
    std::vector<FaultPlan> plans;
    if (transient) {
      // fi_campaign's profile run, through the executor like the manager.
      RunConfig pc = mgr.base_config(spec.scenario, kMode);
      pc.run_seed = campaign_run_seed(a.seed, spec.scenario, 8, 0, 0);
      const Batch prof = run_batch(opts, fingerprint, {pc});
      sp.exec.add(prof.stats);
      const RunResult& r = prof.results.front();
      if (r.outcome == FaultOutcome::kHarnessError) ++sp.pass.harness_errors;
      const ExecutionProfile profile{
          spec.domain, spec.domain == FaultDomain::kGpu ? r.gpu_instructions
                                                        : r.cpu_instructions};
      plans = gen.transient_plans(profile, scale.transient_runs,
                                  spec.domain == FaultDomain::kGpu ? 0.95
                                                                   : 1.3);
    } else {
      plans = gen.permanent_plans(spec.domain, scale.permanent_repeats);
    }
    std::vector<RunConfig> cfgs;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      RunConfig cfg = mgr.base_config(spec.scenario, kMode);
      cfg.fault = plans[i];
      cfg.run_seed = campaign_run_seed(a.seed, spec.scenario, domain_tag,
                                       kind_tag, static_cast<int>(i));
      cfgs.push_back(cfg);
    }
    Batch batch = run_batch(opts, fingerprint, cfgs);
    sp.exec.add(batch.stats);
    const std::size_t offset = sp.pass.run_ms.size();
    sp.pass.run_ms.resize(offset + cfgs.size(), 0.0);
    for (const WorkerSpan& w : batch.stats.spans) {
      sp.pass.run_ms[offset + w.index] += w.dur_sec * 1e3;
    }
    const bool checked =
        std::find(kCheckedCampaigns.begin(), kCheckedCampaigns.end(), b) !=
        kCheckedCampaigns.end();
    const std::size_t pick = derive(a.seed, b) % batch.results.size();
    std::uint64_t digest = kDigestSeed;
    for (std::size_t i = 0; i < batch.results.size(); ++i) {
      std::string bytes = sp.pass.fold(batch.results[i]);
      digest = digest_chain(digest, bytes);
      if (checked && i == pick) sp.checked_bytes.push_back(std::move(bytes));
    }
    sp.campaign_digests.push_back(digest);
    sp.summaries.push_back(summarize_campaign(
        batch.results,
        baselines[static_cast<std::size_t>(spec.scenario)], /*td=*/2.0));
    if (keep_results) {
      for (RunResult& r : batch.results) sp.results.push_back(std::move(r));
    }
  }
  sp.pass.wall_sec = seconds_since(start);
  std::filesystem::remove(journal);
  return sp;
}

/// Manager construction, golden baselines (on the pool, journaled) and the
/// work directory for the sweep journals.
struct SweepSetup {
  std::unique_ptr<CampaignManager> mgr;
  std::vector<Trajectory> baselines;  ///< indexed by ScenarioId
  std::uint64_t golden_digest = kDigestSeed;
};

SweepSetup sweep_setup(const Args& a, int index) {
  SweepSetup s;
  const EnvOptions env =
      bench_env(a, fresh_journal(a, "setup" + std::to_string(index)), false);
  s.mgr = std::make_unique<CampaignManager>(sweep_scale(), env, a.seed);
  s.baselines.resize(static_cast<std::size_t>(ScenarioId::kLongRoute42) + 1);
  for (ScenarioId sc : safety_scenarios()) {
    const std::vector<RunResult> golden =
        s.mgr->golden(sc, kMode, s.mgr->scale().golden_runs);
    for (const RunResult& r : golden) {
      s.golden_digest = digest_chain(s.golden_digest, serialize_run_result(r));
    }
    s.baselines[static_cast<std::size_t>(sc)] = golden_baseline(golden);
  }
  std::filesystem::create_directories(a.work_dir + "/sweep");
  return s;
}

void print_table1(const SweepPass& sp) {
  const std::vector<FiSpec> specs = table1_specs();
  say("%-34s %7s %10s %6s %5s %9s\n", "campaign (pass 0)", "#Active",
      "Hang/Crash", "Total", "#Acc", "#TrajViol");
  for (std::size_t i = 0; i < specs.size() && i < sp.summaries.size(); ++i) {
    const CampaignSummary& s = sp.summaries[i];
    say("%-34s %7d %10d %6d %5d %9d\n", spec_name(specs[i]).c_str(), s.active,
        s.hang_crash, s.total, s.accidents, s.traj_violations);
  }
}

/// The sweep's output checks beyond the cross-pass digest: sampled runs
/// re-executed in-process, and one campaign re-run through fi_campaign.
void sweep_checks(const Args& a, const CampaignManager& mgr,
                  const SweepPass& first, Report& rep) {
  std::size_t matched = 0;
  for (const std::string& bytes : first.checked_bytes) {
    const RunResult pooled = deserialize_run_result(bytes);
    RunConfig cfg = mgr.base_config(pooled.scenario, pooled.mode);
    cfg.fault = pooled.fault;
    cfg.run_seed = pooled.run_seed;
    rep.add_attempted(1);
    if (serialize_run_result(run_guarded(cfg)) == bytes) {
      ++matched;
    } else {
      rep.fail("pool result of " + to_string(pooled.scenario) +
               " seed " + std::to_string(pooled.run_seed) +
               " differs from its in-process re-execution");
    }
  }
  say("re-executed in-process: %zu/%zu pool results byte-identical\n",
      matched, first.checked_bytes.size());

  const FiSpec spec = table1_specs()[kCrossCheckedCampaign];
  CampaignManager cross(sweep_scale(),
                        bench_env(a, fresh_journal(a, "crosscheck"), false),
                        a.seed);
  const std::vector<RunResult> rs =
      cross.fi_campaign(spec.scenario, kMode, spec.domain, spec.kind);
  rep.add_attempted(rs.size());
  std::uint64_t digest = kDigestSeed;
  for (const RunResult& r : rs) {
    digest = digest_chain(digest, serialize_run_result(r));
  }
  const bool same = digest == first.campaign_digests[kCrossCheckedCampaign];
  say("CampaignManager::fi_campaign(%s) equals the sweep's batch: %s\n",
      spec_name(spec).c_str(), same ? "yes" : "no");
  if (!same) {
    rep.fail("the sweep's configs no longer match fi_campaign's", rs.size());
  }
}

// --- shared_prefix_pool ---------------------------------------------------

struct PrefixLayout {
  std::vector<RunConfig> instances;  ///< fault-free, fusion on
  std::vector<std::vector<RunConfig>> groups;
  std::vector<RunConfig> flat;       ///< group-major
};

PrefixLayout prefix_layout(std::uint64_t seed) {
  PrefixLayout l;
  const std::vector<ScenarioId> scenarios = safety_scenarios();
  const ScenarioOptions opts = bench_scale().scenario_options();
  for (int i = 0; i < kInstances; ++i) {
    RunConfig cfg;
    cfg.scenario = scenarios[static_cast<std::size_t>(i) % scenarios.size()];
    cfg.mode = kMode;
    cfg.scenario_opts = opts;
    cfg.run_seed = derive(seed, 0x5EED0 + static_cast<std::uint64_t>(i));
    cfg.fusion.enabled = true;
    l.instances.push_back(cfg);
    l.groups.push_back(sensor_variants(
        cfg, kVariants, late_onset(cfg),
        derive(seed, 0x7A0 + static_cast<std::uint64_t>(i))));
    l.flat.insert(l.flat.end(), l.groups.back().begin(),
                  l.groups.back().end());
  }
  return l;
}

struct PrefixPass {
  Pass pass;
  ExecutorLayers exec;
  std::vector<std::string> group0_bytes;  ///< results of instance 0
  std::string last_bytes;                 ///< the last result
  std::vector<RunResult> results;         ///< kept only for the traced pass
};

PrefixPass prefix_pass(const Args& a, const PrefixLayout& l,
                       const std::string& journal, bool keep_results) {
  const ExecutorOptions opts =
      bench_env(a, journal, /*checkpoint=*/true).executor_options();
  PrefixPass pp;
  const Clock::time_point start = Clock::now();
  Batch batch = run_batch(opts, derive(a.seed, 0xF2), l.flat);
  pp.pass.run_ms.assign(l.flat.size(), 0.0);
  for (const WorkerSpan& w : batch.stats.spans) {
    pp.pass.run_ms[w.index] += w.dur_sec * 1e3;
  }
  pp.exec.add(batch.stats);
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    std::string bytes = pp.pass.fold(batch.results[i]);
    if (i + 1 == batch.results.size()) pp.last_bytes = bytes;
    if (i < l.groups[0].size()) pp.group0_bytes.push_back(std::move(bytes));
  }
  if (keep_results) pp.results = std::move(batch.results);
  pp.pass.wall_sec = seconds_since(start);
  std::filesystem::remove(journal);
  return pp;
}

/// A lower bound on deep-tier hits from the pool's combined counters: each
/// run makes one setup-tier lookup, so at most `runs` hits are setup hits.
long long deep_hits_lower_bound(const ExecutorLayers& e) {
  return static_cast<long long>(e.checkpoint_hits) -
         static_cast<long long>(e.runs);
}

void prefix_checks(const PrefixLayout& l, const PrefixPass& first,
                   Report& rep) {
  // Instance 0 again, in-process against one CheckpointStore: the deep tier
  // must hit, and every result must equal the pool's (and the last one its
  // straight-through run, checked inside the probe).
  CheckpointLayers ckpt;
  checkpoint_probe({l.groups[0]}, ckpt, rep);
  std::size_t same = 0;
  for (std::size_t i = 0; i < ckpt.results.size(); ++i) {
    if (i < first.group0_bytes.size() &&
        ckpt.results[i] == first.group0_bytes[i]) {
      ++same;
    }
  }
  say("instance 0 in-process: %llu deep hits, %zu/%zu results equal the "
      "pool's\n",
      static_cast<unsigned long long>(ckpt.deep_hits), same,
      ckpt.results.size());
  if (same != ckpt.results.size()) {
    rep.fail("checkpointed pool results differ from in-process runs",
             ckpt.results.size() - same);
  }
  if (ckpt.deep_hits == 0) rep.fail("the deep checkpoint tier never hit");
  // The pool's last result (a later variant of the last instance) against
  // its straight-through run.
  rep.add_attempted(1);
  const bool last_same =
      serialize_run_result(run_guarded(l.flat.back())) == first.last_bytes;
  say("last pool result equals its straight-through run: %s\n",
      last_same ? "yes" : "no");
  if (!last_same) {
    rep.fail("checkpointed pool result differs from straight-through run");
  }
  say("deep hits in the pool: at least %lld (combined counters)\n",
      deep_hits_lower_bound(first.exec));
}

}  // namespace

bool golden_serial(const Args& a, Report& rep) {
  std::vector<double> setup;
  std::vector<RunConfig> cfgs;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    cfgs = golden_configs(a.seed);
    (void)run_guarded(cfgs.front());  // untimed warm-up
    setup.push_back(seconds_since(t0));
  };
  set_up();

  if (!a.trace) {
    const std::vector<Pass> passes =
        timed_passes(a.seconds, [&](std::size_t i) {
          Pass p = serial_pass(cfgs, nullptr);
          if (i + 1 < kSetups) set_up();
          return p;
        });
    const double rss = peak_rss_mb();  // before the checks run
    print_setup(setup);
    return report_end_to_end(passes, setup, rss, rep);
  }

  print_setup(setup);
  // Untraced and traced passes alternate, so drift in the host's speed
  // lands on both sides of the tracing-overhead comparison.
  std::vector<RunResult> refs;
  std::vector<Pass> untraced;
  ThresholdLut lut;
  TickLayers tick;
  const Clock::time_point start = Clock::now();
  do {
    untraced.push_back(serial_pass(cfgs, refs.empty() ? &refs : nullptr));
    rep.add_attempted(untraced.back().runs);
    if (untraced.back().digest != untraced.front().digest) {
      rep.fail("untraced passes differ", untraced.back().runs);
    }
    if (untraced.size() == 1) {
      std::vector<std::vector<StepObservation>> training;
      for (const RunResult& r : refs) training.push_back(r.observations);
      lut = train_lut(training, /*rw=*/3);
    }
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      std::string why;
      rep.add_attempted(1);
      if (!replay_tick_loop(cfgs[i], refs[i], lut, kFrameStride, tick, why)) {
        rep.fail("tick replay of " + to_string(cfgs[i].scenario) + ": " +
                 why);
      }
    }
  } while (seconds_since(start) < 0.6 * a.seconds);
  say("tick replay equals run_experiment byte for byte on %zu runs: %s\n",
      tick.runs, rep.failed() == 0 ? "yes" : "no");

  ExecutorLayers exec;  // the serial loop: one slot, no executor
  for (const Pass& p : untraced) {
    exec.wall_sec += p.wall_sec;
    for (double ms : p.run_ms) exec.span_sec += ms * 1e-3;
    exec.runs += p.runs;
  }
  exec.busy_sec = exec.span_sec;

  CodecLayers codec;
  codec_probe(refs, 10, a, codec, rep);
  CheckpointLayers ckpt;
  checkpoint_probe(
      {sensor_variants(cfgs[0], 3, late_onset(cfgs[0]), derive(a.seed, 0xC4))},
      ckpt, rep);
  report_per_layer(tick, codec, ckpt, exec, runs_per_s(untraced),
                   static_cast<double>(tick.runs) / tick.loop_sec, rep);
  return true;
}

bool fi_sweep_pool(const Args& a, Report& rep) {
  std::vector<double> setup;
  SweepSetup s;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    SweepSetup next = sweep_setup(a, static_cast<int>(setup.size()));
    setup.push_back(seconds_since(t0));
    if (s.mgr == nullptr) {
      s = std::move(next);
    } else if (next.golden_digest != s.golden_digest) {
      rep.fail("golden baselines differ between set-ups",
               3 * static_cast<std::size_t>(next.mgr->scale().golden_runs));
    }
  };
  set_up();
  const CampaignManager& mgr = *s.mgr;

  std::size_t pass_index = 0;
  const auto next_journal = [&] {
    return fresh_journal(a, "sweep/pass" + std::to_string(pass_index++));
  };

  if (!a.trace) {
    // Only the first pass is kept for the checks: memory held across passes
    // would grow the process (and every worker forked from it) with time.
    SweepPass first;
    const std::vector<Pass> passes =
        timed_passes(a.seconds, [&](std::size_t i) {
          SweepPass sp = sweep_pass(a, mgr, s.baselines, next_journal(),
                                    /*keep_results=*/false);
          if (i + 1 < kSetups) set_up();
          if (i == 0) first = sp;
          return sp.pass;
        });
    const double rss = peak_rss_mb();  // before the checks run
    print_setup(setup);
    print_table1(first);
    sweep_checks(a, mgr, first, rep);
    return report_end_to_end(passes, setup, rss, rep);
  }

  print_setup(setup);
  const SweepPass untraced =
      sweep_pass(a, mgr, s.baselines, next_journal(), false);
  const SweepPass traced = sweep_pass(a, mgr, s.baselines, next_journal(), true);
  rep.add_attempted(untraced.pass.runs + traced.pass.runs);
  if (traced.pass.digest != untraced.pass.digest) {
    rep.fail("traced pass differs from the untraced pass", traced.pass.runs);
  }
  print_table1(traced);

  std::vector<RunConfig> golden;
  for (ScenarioId sc : safety_scenarios()) {
    RunConfig cfg = mgr.base_config(sc, kMode);
    cfg.run_seed = derive(a.seed, 0x7E0 + static_cast<std::uint64_t>(sc));
    golden.push_back(cfg);
  }
  TickLayers tick;
  tick_probe(golden, tick, rep);
  CodecLayers codec;
  codec_probe(traced.results, 1, a, codec, rep);
  RunConfig instance = golden.front();
  CheckpointLayers ckpt;
  checkpoint_probe({sensor_variants(instance, 3, late_onset(instance),
                                    derive(a.seed, 0xC4))},
                   ckpt, rep);
  report_per_layer(tick, codec, ckpt, traced.exec,
                   runs_per_s({untraced.pass}), runs_per_s({traced.pass}),
                   rep);
  return true;
}

bool shared_prefix_pool(const Args& a, Report& rep) {
  std::vector<double> setup;
  PrefixLayout layout;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    layout = prefix_layout(a.seed);
    std::filesystem::create_directories(a.work_dir + "/prefix");
    (void)run_guarded(layout.instances.front());  // untimed warm-up
    setup.push_back(seconds_since(t0));
  };
  set_up();

  std::size_t pass_index = 0;
  const auto next_journal = [&] {
    return fresh_journal(a, "prefix/pass" + std::to_string(pass_index++));
  };

  if (!a.trace) {
    PrefixPass first;  // kept for the checks; later passes are dropped
    const std::vector<Pass> passes =
        timed_passes(a.seconds, [&](std::size_t i) {
          PrefixPass pp = prefix_pass(a, layout, next_journal(), false);
          if (i + 1 < kSetups) set_up();
          if (i == 0) first = pp;
          return pp.pass;
        });
    const double rss = peak_rss_mb();  // before the checks run
    print_setup(setup);
    prefix_checks(layout, first, rep);
    return report_end_to_end(passes, setup, rss, rep);
  }

  print_setup(setup);
  const PrefixPass untraced = prefix_pass(a, layout, next_journal(), false);
  const PrefixPass traced = prefix_pass(a, layout, next_journal(), true);
  rep.add_attempted(untraced.pass.runs + traced.pass.runs);
  if (traced.pass.digest != untraced.pass.digest) {
    rep.fail("traced pass differs from the untraced pass", traced.pass.runs);
  }
  TickLayers tick;
  tick_probe({layout.instances.front()}, tick, rep);
  CodecLayers codec;
  codec_probe(traced.results, 1, a, codec, rep);
  CheckpointLayers ckpt;
  checkpoint_probe({layout.groups[0], layout.groups[1]}, ckpt, rep);
  if (ckpt.deep_hits == 0) rep.fail("the deep checkpoint tier never hit");
  say("deep hits in the pool: at least %lld (combined counters)\n",
      deep_hits_lower_bound(traced.exec));
  report_per_layer(tick, codec, ckpt, traced.exec,
                   runs_per_s({untraced.pass}), runs_per_s({traced.pass}),
                   rep);
  return true;
}

}  // namespace perfbench
