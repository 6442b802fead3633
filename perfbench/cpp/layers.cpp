#include "layers.h"

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <utility>

#include "campaign/checkpoint.h"
#include "campaign/journal.h"
#include "campaign/serialize.h"
#include "core/ads_system.h"
#include "core/detector.h"
#include "percentile.h"
#include "sensors/sensor_rig.h"
#include "util/rng.h"

namespace perfbench {

using namespace dav;

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// run_experiment's agent wiring (campaign/driver.cpp make_agent_config).
AgentConfig agent_config_for(const Scenario& scenario,
                             const CameraModel& center_cam,
                             const FusionConfig& fusion) {
  AgentConfig ac;
  ac.perception.center_cam = center_cam;
  ac.mission_speed = scenario.target_speed;
  ac.route_start_s = scenario.ego_start_s;
  ac.control.wheelbase = scenario.ego_spec.wheelbase;
  ac.control.max_steer_angle = scenario.ego_spec.max_steer_angle;
  ac.fusion = fusion;
  return ac;
}

/// The p50 of `samples`, or 0 with a printed note when it cannot be
/// reported (too few samples beyond it).
double p50_or_zero(const char* name, const std::vector<double>& samples,
                   const char* unit) {
  const Percentile p = percentile(samples, 50);
  say("  %-42s %s\n", name, describe(p, unit).c_str());
  return p.reported ? p.value : 0.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace

bool replay_tick_loop(const RunConfig& cfg, const RunResult& reference,
                      const ThresholdLut& lut, int frame_stride,
                      TickLayers& out, std::string& why) {
  if (cfg.fault.active() || cfg.sensor_fault.active() ||
      cfg.online_lut != nullptr ||
      cfg.mitigation != MitigationPolicy::kSafeStopOnly ||
      cfg.record_traces) {
    why = "replay covers fault-free, detector-free, safe-stop configs only";
    return false;
  }
  if (reference.due) {
    why = "reference run raised a DUE (" + to_string(reference.due_source) +
          ") in a fault-free config";
    return false;
  }
  cfg.validate();

  World world(make_scenario(cfg.scenario, cfg.scenario_seed,
                            cfg.scenario_opts));
  const auto rig_models =
      front_camera_rig(cfg.cam_width, cfg.cam_height, cfg.camera_noise_sigma);
  Rng seeder(cfg.run_seed);
  SensorRig rig(rig_models, seeder.split(1)(), cfg.fusion.enabled);
  GpuEngine gpu0;
  CpuEngine cpu0;
  GpuEngine gpu1;
  CpuEngine cpu1;
  const auto engine_seed = seeder.split(2)();
  gpu0.configure(cfg.fault, engine_seed,
                 CrashHangModel::for_model(FaultDomain::kGpu, cfg.fault.kind));
  cpu0.configure(cfg.fault, engine_seed ^ 0xC0FFEE,
                 CrashHangModel::for_model(FaultDomain::kCpu, cfg.fault.kind));
  const FaultPlan none;
  gpu1.configure(none, 0);
  cpu1.configure(none, 0);
  const bool duplicate = cfg.mode == AgentMode::kDuplicate;
  const AgentConfig acfg =
      agent_config_for(world.scenario(), rig_models[1], cfg.fusion);
  AdsSystem ads(cfg.mode, acfg, gpu0, cpu0, duplicate ? &gpu1 : nullptr,
                duplicate ? &cpu1 : nullptr, &world.map(), cfg.overlap_ratio);
  ErrorDetector detector(lut, DetectorConfig{});

  const auto gpu_total = [&] {
    return gpu0.total_dyn_instructions() + gpu1.total_dyn_instructions();
  };
  const auto cpu_total = [&] {
    return cpu0.total_dyn_instructions() + cpu1.total_dyn_instructions();
  };

  std::vector<StepObservation> observations;
  std::vector<SensorFrame> frames;
  int step = 0;
  const Clock::time_point loop_start = Clock::now();
  while (!world.done()) {
    const Clock::time_point t0 = Clock::now();
    SensorFrame frame = rig.capture(world, step);
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t g0 = gpu_total();
    const std::uint64_t c0 = cpu_total();
    const AdsSystem::StepResult sr = ads.step(frame, cfg.dt);
    const Clock::time_point t2 = Clock::now();
    const std::uint64_t dg = gpu_total() - g0;
    const std::uint64_t dc = cpu_total() - c0;
    if (!sr.applied.finite()) {
      why = "non-finite actuation in a fault-free run";
      return false;
    }
    const Actuation applied = sr.applied.clamped();
    if (sr.have_delta) {
      observations.push_back(
          StepObservation{world.time(), world.ego(), sr.delta});
      const Clock::time_point d0 = Clock::now();
      detector.observe(observations.back());
      const Clock::time_point d1 = Clock::now();
      out.detector_ns.push_back(us_between(d0, d1) * 1e3);
    }
    const Clock::time_point t3 = Clock::now();
    world.step(applied, cfg.dt);
    const Clock::time_point t4 = Clock::now();

    out.capture_us.push_back(us_between(t0, t1));
    out.ads_step_us.push_back(us_between(t1, t2));
    out.world_step_us.push_back(us_between(t3, t4));
    out.ads_step_ns += us_between(t1, t2) * 1e3;
    out.gpu_instr += dg;
    out.cpu_instr += dc;
    ++out.ticks;
    if (frame_stride > 0 && step % frame_stride == 0) {
      frames.push_back(std::move(frame));
    }
    ++step;
  }
  out.loop_sec += seconds_since(loop_start);
  ++out.runs;

  // The replay must be run_experiment's loop, not an approximation of it.
  RunResult mine;
  mine.trajectory = world.trajectory();
  mine.observations = std::move(observations);
  mine.steps = world.step_count();
  mine.gpu_instructions = gpu_total();
  mine.cpu_instructions = cpu_total();
  RunResult theirs;
  theirs.trajectory = reference.trajectory;
  theirs.observations = reference.observations;
  theirs.steps = reference.steps;
  theirs.gpu_instructions = reference.gpu_instructions;
  theirs.cpu_instructions = reference.cpu_instructions;
  if (serialize_run_result(mine) != serialize_run_result(theirs)) {
    why = "replayed tick loop diverged from run_experiment (steps " +
          std::to_string(mine.steps) + " vs " +
          std::to_string(theirs.steps) + ")";
    return false;
  }

  // Perception and the whole agent, replayed on the captured frames.
  GpuEngine pgpu;
  Perception perception(pgpu, acfg.perception);
  for (const SensorFrame& f : frames) {
    const Clock::time_point a = Clock::now();
    perception.process(f.cameras);
    out.perception_us.push_back(us_between(a, Clock::now()));
  }
  GpuEngine agpu;
  CpuEngine acpu;
  SensorimotorAgent agent("replay", acfg, agpu, acpu, &world.map());
  const double agent_dt = cfg.dt * std::max(1, frame_stride);
  for (const SensorFrame& f : frames) {
    const Clock::time_point a = Clock::now();
    agent.act(f, agent_dt);
    out.act_us.push_back(us_between(a, Clock::now()));
  }
  return true;
}

bool measure_codec_and_journal(const std::vector<RunResult>& results,
                               int rounds, const std::string& journal_path,
                               CodecLayers& out, std::string& why) {
  std::vector<std::string> payloads;
  payloads.reserve(results.size());
  for (int round = 0; round < rounds; ++round) {
    for (const RunResult& r : results) {
      const Clock::time_point a = Clock::now();
      const std::string bytes = serialize_run_result(r);
      const Clock::time_point b = Clock::now();
      const RunResult back = deserialize_run_result(bytes);
      const Clock::time_point c = Clock::now();
      out.encode_us.push_back(us_between(a, b));
      out.decode_us.push_back(us_between(b, c));
      out.bytes.push_back(static_cast<double>(bytes.size()));
      if (serialize_run_result(back) != bytes) {
        why = "decoded result does not re-encode to the same bytes";
        return false;
      }
      payloads.push_back(make_result_payload(true, "", r));
    }
  }
  std::filesystem::remove(journal_path);
  {
    constexpr std::uint64_t kFingerprint = 0x70657266ULL;
    JournalWriter journal(journal_path, kFingerprint,
                          load_journal(journal_path, kFingerprint));
    std::uint64_t key = 0;
    for (const std::string& p : payloads) {
      const Clock::time_point a = Clock::now();
      journal.append(++key, p);
      out.append_us.push_back(us_between(a, Clock::now()));
    }
    journal.close();
    if (load_journal(journal_path, kFingerprint).records.size() !=
        payloads.size()) {
      why = "journal did not read back every appended record";
      return false;
    }
  }
  std::filesystem::remove(journal_path);
  return true;
}

bool probe_checkpoint(const std::vector<std::vector<RunConfig>>& groups,
                      CheckpointLayers& out, std::string& why) {
  constexpr int kCodecRounds = 40;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    CheckpointStore store;
    for (std::size_t v = 0; v < groups[g].size(); ++v) {
      RunConfig cfg = groups[g][v];
      cfg.checkpoint.enabled = true;
      const Clock::time_point a = Clock::now();
      const RunResult r = run_experiment(cfg, &store);
      const double ms = seconds_since(a) * 1e3;
      (v == 0 ? out.miss_run_ms : out.hit_run_ms).push_back(ms);
      out.results.push_back(serialize_run_result(r));
    }
    out.deep_hits += store.deep_hits();
    out.deep_misses += store.deep_misses();
    if (g != 0) continue;

    // Checkpointing never changes a result: the last variant, which restored
    // the prefix, must equal its straight-through run.
    const RunResult straight = run_experiment(groups[0].back());
    if (serialize_run_result(straight) != out.results.back()) {
      why = "checkpointed run differs from the straight-through run";
      return false;
    }
    RunConfig probe = groups[0].back();
    probe.checkpoint.enabled = true;
    const CheckpointStore::DeepEntry* entry = store.find_deep(probe);
    if (entry == nullptr) {
      why = "no deep checkpoint was stored for the first group";
      return false;
    }
    out.blob_bytes = static_cast<double>(entry->blob.size());
    for (int i = 0; i < kCodecRounds; ++i) {
      const Clock::time_point a = Clock::now();
      const RunCheckpoint c = deserialize_run_checkpoint(entry->blob);
      const Clock::time_point b = Clock::now();
      const std::string again = serialize_run_checkpoint(c);
      const Clock::time_point d = Clock::now();
      out.decode_us.push_back(us_between(a, b));
      out.encode_us.push_back(us_between(b, d));
      if (again != entry->blob) {
        why = "decoded checkpoint does not re-encode to the same bytes";
        return false;
      }
    }
  }
  return true;
}

void ExecutorLayers::add(const ExecutorStats& s) {
  jobs = std::max(jobs, s.jobs);
  wall_sec += s.wall_sec;
  busy_sec += std::accumulate(s.slot_busy_sec.begin(), s.slot_busy_sec.end(),
                              0.0);
  for (const WorkerSpan& w : s.spans) span_sec += w.dur_sec;
  runs += s.spans.size();
  launched += s.launched;
  respawns += s.respawns;
  retries += s.retries;
  checkpoint_hits += s.checkpoint_hits;
  checkpoint_misses += s.checkpoint_misses;
}

void report_per_layer(const TickLayers& tick, const CodecLayers& codec,
                      const CheckpointLayers& ckpt, const ExecutorLayers& exec,
                      double untraced_runs_per_s, double traced_runs_per_s,
                      Report& rep) {
  say("per-layer (tick layers over %zu replayed runs, %llu ticks):\n",
      tick.runs, static_cast<unsigned long long>(tick.ticks));
  const auto p50 = [&](const char* name, const std::vector<double>& v,
                       const char* unit) {
    rep.metric(name, p50_or_zero(name, v, unit), unit);
  };
  const auto p90 = [&](const char* name, const std::vector<double>& v,
                       const char* unit) {
    const Percentile p = percentile(v, 90);
    say("  %-42s %s\n", name, describe(p, unit).c_str());
    rep.metric(name, p.reported ? p.value : 0.0, unit);
  };
  p50("sim.world_step_us_p50", tick.world_step_us, "us");
  p50("sensors.capture_us_p50", tick.capture_us, "us");
  p90("sensors.capture_us_p90", tick.capture_us, "us");
  p50("core.ads_step_us_p50", tick.ads_step_us, "us");
  p90("core.ads_step_us_p90", tick.ads_step_us, "us");
  p50("agent.act_us_p50", tick.act_us, "us");
  p50("agent.perception_us_p50", tick.perception_us, "us");
  p50("core.detector_observe_ns_p50", tick.detector_ns, "ns");

  const double ticks = static_cast<double>(std::max<std::uint64_t>(1, tick.ticks));
  const double instr = static_cast<double>(tick.gpu_instr + tick.cpu_instr);
  const auto value = [&](const char* name, double v, const char* unit,
                         const char* base) {
    say("  %-42s %.6g %s%s\n", name, v, unit, base);
    rep.metric(name, v, unit);
  };
  value("fi.gpu_instr_per_tick", static_cast<double>(tick.gpu_instr) / ticks,
        "count", "");
  value("fi.cpu_instr_per_tick", static_cast<double>(tick.cpu_instr) / ticks,
        "count", "");
  value("fi.ns_per_instr", instr > 0.0 ? tick.ads_step_ns / instr : 0.0, "ns",
        "  (AdsSystem::step time / engine instructions)");

  char base[160];
  const double slots = static_cast<double>(exec.jobs) * exec.wall_sec;
  std::snprintf(base, sizeof(base), "  (busy %.3f s / %d slots x %.3f s)",
                exec.busy_sec, exec.jobs, exec.wall_sec);
  value("campaign.executor.slot_utilization",
        slots > 0.0 ? exec.busy_sec / slots : 0.0, "ratio", base);
  std::snprintf(base, sizeof(base),
                "  ((%d x %.3f s - %.3f s in runs) / %zu runs)", exec.jobs,
                exec.wall_sec, exec.span_sec, exec.runs);
  value("campaign.executor.overhead_ms_per_run",
        exec.runs > 0 ? (slots - exec.span_sec) * 1e3 /
                            static_cast<double>(exec.runs)
                      : 0.0,
        "ms", base);
  value("campaign.executor.launched", exec.launched, "count", "");
  value("campaign.executor.respawns", exec.respawns, "count", "");
  value("campaign.executor.retries", exec.retries, "count", "");

  p50("campaign.serialize.result_encode_us_p50", codec.encode_us, "us");
  p50("campaign.serialize.result_decode_us_p50", codec.decode_us, "us");
  p50("campaign.serialize.result_bytes_p50", codec.bytes, "B");
  p50("campaign.journal.append_us_p50", codec.append_us, "us");

  const std::uint64_t lookups = exec.checkpoint_hits + exec.checkpoint_misses;
  std::snprintf(base, sizeof(base), "  (%llu hits / %llu lookups, both tiers)",
                static_cast<unsigned long long>(exec.checkpoint_hits),
                static_cast<unsigned long long>(lookups));
  value("campaign.checkpoint.hit_ratio",
        lookups > 0 ? static_cast<double>(exec.checkpoint_hits) /
                          static_cast<double>(lookups)
                    : 0.0,
        "ratio", base);
  std::snprintf(base, sizeof(base), "  (in-process store: %llu deep misses)",
                static_cast<unsigned long long>(ckpt.deep_misses));
  value("campaign.checkpoint.deep_hits", static_cast<double>(ckpt.deep_hits),
        "count", base);
  value("campaign.checkpoint.blob_bytes", ckpt.blob_bytes, "B", "");
  p50("campaign.checkpoint.encode_us", ckpt.encode_us, "us");
  p50("campaign.checkpoint.decode_us", ckpt.decode_us, "us");
  std::snprintf(base, sizeof(base), "  (mean of %zu first variants)",
                ckpt.miss_run_ms.size());
  value("campaign.checkpoint.miss_run_ms_mean", mean(ckpt.miss_run_ms), "ms",
        base);
  std::snprintf(base, sizeof(base), "  (mean of %zu later variants)",
                ckpt.hit_run_ms.size());
  value("campaign.checkpoint.hit_run_ms_mean", mean(ckpt.hit_run_ms), "ms",
        base);

  std::snprintf(base, sizeof(base), "  (%.4g runs/s untraced, %.4g traced)",
                untraced_runs_per_s, traced_runs_per_s);
  value("trace.overhead_pct",
        untraced_runs_per_s > 0.0
            ? 100.0 * (untraced_runs_per_s - traced_runs_per_s) /
                  untraced_runs_per_s
            : 0.0,
        "%", base);
}

std::vector<RunConfig> sensor_variants(const RunConfig& instance, int k,
                                       int onset_tick, std::uint64_t seed) {
  // Camera, LiDAR and GPS models plus perception-tensor bit flips, so a
  // restore exercises every piece of injector state a variant can carry.
  static const SensorFaultModel kModels[] = {
      SensorFaultModel::kCameraBlackout, SensorFaultModel::kCameraFrozen,
      SensorFaultModel::kLidarDropout,   SensorFaultModel::kCameraOcclusion,
      SensorFaultModel::kGpsDrift,       SensorFaultModel::kTensorBitFlip,
      SensorFaultModel::kCameraSaltPepper, SensorFaultModel::kLidarGhost,
      SensorFaultModel::kGpsLoss,
  };
  constexpr int kNumModels = static_cast<int>(std::size(kModels));
  std::vector<RunConfig> out;
  out.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    RunConfig cfg = instance;
    cfg.fusion.enabled = true;
    SensorFaultPlan& p = cfg.sensor_fault;
    p.model = kModels[i % kNumModels];
    p.onset_tick = onset_tick;
    p.duration_ticks = 40;
    p.seed = derive(seed, static_cast<std::uint64_t>(i));
    p.magnitude = 0.3 + 0.1 * static_cast<double>((i / kNumModels) % 5);
    p.sensor_index = p.kind() == SensorKind::kCamera ? 1 - (i / kNumModels) % 2
                                                     : 0;
    if (p.model == SensorFaultModel::kTensorBitFlip) {
      p.layer = (i / kNumModels) % 4;
      p.bit = 30 - (i / kNumModels) % 8;
    }
    out.push_back(cfg);
  }
  return out;
}

}  // namespace perfbench
