#include "campaign/driver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "campaign/checkpoint.h"
#include "campaign/serialize.h"
#include "obs/export.h"
#include "sensors/sensor_rig.h"
#include "util/bits.h"
#include "util/rng.h"

namespace dav {

namespace {

/// Sensor capture wrapped in its obs span (two call sites in the run loop).
SensorFrame captured_frame(SensorRig& rig, const World& world, int step) {
  obs::SpanScope span(obs::Stage::kSensorCapture);
  return rig.capture(world, step);
}

AgentConfig make_agent_config(const Scenario& scenario,
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

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("RunConfig: " + what);
}

}  // namespace

std::string to_string(MitigationPolicy p) {
  switch (p) {
    case MitigationPolicy::kSafeStopOnly: return "safe-stop-only";
    case MitigationPolicy::kRestartRecovery: return "restart-recovery";
  }
  return "?";
}

void RunConfig::validate() const {
  if (!(dt > 0.0) || !std::isfinite(dt)) {
    reject("dt must be a positive finite tick length, got " +
           std::to_string(dt));
  }
  if (cam_width <= 0 || cam_height <= 0) {
    reject("camera dimensions must be positive, got " +
           std::to_string(cam_width) + "x" + std::to_string(cam_height));
  }
  if (camera_noise_sigma < 0.0) {
    reject("camera_noise_sigma must be non-negative, got " +
           std::to_string(camera_noise_sigma));
  }
  if (overlap_ratio < 0.0 || overlap_ratio > 1.0) {
    reject("overlap_ratio must lie in [0,1], got " +
           std::to_string(overlap_ratio));
  }
  if (watchdog_sec < 0.0) {
    reject("watchdog_sec must be non-negative, got " +
           std::to_string(watchdog_sec));
  }
  if (scenario_opts.long_route_duration_sec <= 0.0) {
    reject("scenario_opts.long_route_duration_sec must be positive, got " +
           std::to_string(scenario_opts.long_route_duration_sec));
  }
  if (scenario_opts.safety_duration_sec <= 0.0) {
    reject("scenario_opts.safety_duration_sec must be positive, got " +
           std::to_string(scenario_opts.safety_duration_sec));
  }
  if (online_lut != nullptr) {
    if (online_detector.rw < 1) {
      reject("online_detector.rw must be >= 1, got " +
             std::to_string(online_detector.rw));
    }
    if (online_detector.debounce < 1) {
      reject("online_detector.debounce must be >= 1, got " +
             std::to_string(online_detector.debounce));
    }
  }
  if (mitigation == MitigationPolicy::kRestartRecovery) {
    if (mode == AgentMode::kSingle) {
      reject("restart-recovery needs a redundant agent; single mode has no "
             "healthy replica to resync from (use safe-stop-only)");
    }
    if (recovery.probe_ticks < 1) {
      reject("recovery.probe_ticks must be >= 1, got " +
             std::to_string(recovery.probe_ticks));
    }
    if (recovery.rewarm_ticks < 1) {
      reject("recovery.rewarm_ticks must be >= 1, got " +
             std::to_string(recovery.rewarm_ticks));
    }
    if (recovery.max_recoveries < 1) {
      reject("recovery.max_recoveries must be >= 1, got " +
             std::to_string(recovery.max_recoveries));
    }
    if (recovery.recovery_window_ticks < 1) {
      reject("recovery.recovery_window_ticks must be >= 1, got " +
             std::to_string(recovery.recovery_window_ticks));
    }
  }
  if (sensor_fault.model != SensorFaultModel::kNone) {
    if (sensor_fault.duration_ticks <= 0) {
      reject("sensor_fault.duration_ticks must be positive for model " +
             to_string(sensor_fault.model) + ", got " +
             std::to_string(sensor_fault.duration_ticks));
    }
    if (sensor_fault.onset_tick < 0) {
      reject("sensor_fault.onset_tick must be non-negative, got " +
             std::to_string(sensor_fault.onset_tick));
    }
    const auto safety = safety_scenarios();
    const bool is_safety =
        std::find(safety.begin(), safety.end(), scenario) != safety.end();
    const double sched_sec = is_safety
                                 ? scenario_opts.safety_duration_sec
                                 : scenario_opts.long_route_duration_sec;
    const int sched_ticks = static_cast<int>(sched_sec / dt);
    if (sensor_fault.onset_tick >= sched_ticks) {
      reject("sensor_fault.onset_tick " +
             std::to_string(sensor_fault.onset_tick) +
             " is past the scheduled run length (" +
             std::to_string(sched_ticks) + " ticks at dt " +
             std::to_string(dt) + "); the fault would never fire");
    }
    if (sensor_fault.kind() == SensorKind::kCamera) {
      if (sensor_fault.sensor_index < 0 || sensor_fault.sensor_index >= 3) {
        reject("sensor_fault.sensor_index must name a rig camera in [0,3) "
               "for model " + to_string(sensor_fault.model) + ", got " +
               std::to_string(sensor_fault.sensor_index));
      }
    } else if (sensor_fault.sensor_index != 0) {
      reject("sensor_fault.sensor_index must be 0 for model " +
             to_string(sensor_fault.model) + " (single instance), got " +
             std::to_string(sensor_fault.sensor_index));
    }
    if (sensor_fault.magnitude < 0.0 || sensor_fault.magnitude > 1.0 ||
        !std::isfinite(sensor_fault.magnitude)) {
      reject("sensor_fault.magnitude must lie in [0,1], got " +
             std::to_string(sensor_fault.magnitude));
    }
    if (sensor_fault.model == SensorFaultModel::kTensorBitFlip) {
      if (sensor_fault.bit < 0 || sensor_fault.bit >= 32) {
        reject("sensor_fault.bit must lie in [0,32) for fp32 state, got " +
               std::to_string(sensor_fault.bit));
      }
      if (sensor_fault.layer < 0 || sensor_fault.layer >= 4) {
        reject("sensor_fault.layer must name a perception stage in [0,4), "
               "got " + std::to_string(sensor_fault.layer));
      }
    }
    if (sensor_fault.kind() == SensorKind::kLidar && !fusion.enabled) {
      reject("model " + to_string(sensor_fault.model) +
             " targets the LiDAR, which is only captured when "
             "fusion.enabled is set");
    }
  }
  if (fusion.enabled) {
    if (fusion.health.degrade_after < 1) {
      reject("fusion.health.degrade_after must be >= 1, got " +
             std::to_string(fusion.health.degrade_after));
    }
    if (fusion.health.drop_after < fusion.health.degrade_after) {
      reject("fusion.health.drop_after must be >= degrade_after (" +
             std::to_string(fusion.health.degrade_after) + "), got " +
             std::to_string(fusion.health.drop_after));
    }
    if (fusion.health.rejoin_after < 1) {
      reject("fusion.health.rejoin_after must be >= 1, got " +
             std::to_string(fusion.health.rejoin_after));
    }
    if (fusion.health.degraded_weight < 0.0 ||
        fusion.health.degraded_weight > 1.0) {
      reject("fusion.health.degraded_weight must lie in [0,1], got " +
             std::to_string(fusion.health.degraded_weight));
    }
    if (fusion.min_cruise_mps < 0.0) {
      reject("fusion.min_cruise_mps must be non-negative, got " +
             std::to_string(fusion.min_cruise_mps));
    }
    if (!(fusion.lidar_corridor_half_deg > 0.0) ||
        fusion.lidar_corridor_half_deg > 180.0) {
      reject("fusion.lidar_corridor_half_deg must lie in (0,180], got " +
             std::to_string(fusion.lidar_corridor_half_deg));
    }
  }
}

RunResult run_experiment(const RunConfig& cfg) {
  return run_experiment(cfg, nullptr);
}

RunResult run_experiment(const RunConfig& cfg, CheckpointStore* store) {
  cfg.validate();
  // Flight recorder: installed for this scope only; every helper below picks
  // it up through the process-global hook (no-op when tracing is off).
  std::optional<obs::TraceRecorder> trace_rec;
  std::optional<obs::ScopedRecorder> trace_scope;
  if (cfg.trace.enabled()) {
    trace_rec.emplace(cfg.trace.capacity);
    trace_scope.emplace(&*trace_rec);
  }
  // Fork-point checkpoints: restore the deepest stored clean prefix this run
  // shares, if any. Mutually exclusive with tracing — a restored run would
  // export a truncated trace, and trace is the debugging path anyway.
  const bool deep_enabled =
      store != nullptr && cfg.checkpoint.enabled && !cfg.trace.enabled();
  std::optional<RunCheckpoint> ckpt;
  if (deep_enabled) {
    if (const CheckpointStore::DeepEntry* e = store->find_deep(cfg)) {
      ckpt = deserialize_run_checkpoint(e->blob);
    }
  }
  World world(make_scenario(cfg.scenario, cfg.scenario_seed,
                            cfg.scenario_opts));

  const auto rig_models =
      front_camera_rig(cfg.cam_width, cfg.cam_height, cfg.camera_noise_sigma);
  Rng seeder(cfg.run_seed);
  // LiDAR is captured only under fusion: the plain pipeline ignores it, and
  // leaving it off keeps plan-free runs byte-identical to the pre-sensor
  // stack (the lidar noise stream is split(3) — independent either way).
  SensorRig rig(rig_models, seeder.split(1)(), cfg.fusion.enabled);

  // Sensor-path injection: one injector serves the rig (camera/LiDAR/GPS at
  // capture, upstream of BOTH agents — common-mode by construction) and the
  // primary agent's perception (tensor bit flips, agent 0 only).
  std::optional<SensorFaultInjector> sensor_inj;
  if (cfg.sensor_fault.active()) {
    sensor_inj.emplace(cfg.sensor_fault);
    rig.attach_fault_injector(&*sensor_inj);
  }

  // Engine set 0 is the (potentially faulty) primary processor pair; the FD
  // baseline adds a clean dedicated set for the replica.
  GpuEngine gpu0;
  CpuEngine cpu0;
  GpuEngine gpu1;
  CpuEngine cpu1;
  const auto engine_seed = seeder.split(2)();
  const auto arm_engines = [&]() {
    gpu0.configure(cfg.fault, engine_seed,
                   CrashHangModel::for_model(FaultDomain::kGpu,
                                             cfg.fault.kind));
    cpu0.configure(cfg.fault, engine_seed ^ 0xC0FFEE,
                   CrashHangModel::for_model(FaultDomain::kCpu,
                                             cfg.fault.kind));
    gpu1.configure(FaultPlan{}, 0);
    cpu1.configure(FaultPlan{}, 0);
  };
  arm_engines();

  const bool duplicate = cfg.mode == AgentMode::kDuplicate;
  AdsSystem ads(cfg.mode,
                make_agent_config(world.scenario(), rig_models[1], cfg.fusion),
                gpu0, cpu0, duplicate ? &gpu1 : nullptr,
                duplicate ? &cpu1 : nullptr, &world.map(), cfg.overlap_ratio);
  if (sensor_inj) ads.attach_sensor_fault_injector(&*sensor_inj);

  // Online detection + mitigation (paper §I: detection is only useful if it
  // can invoke mitigation).
  std::optional<ErrorDetector> online_det;
  if (cfg.online_lut != nullptr) {
    online_det.emplace(*cfg.online_lut, cfg.online_detector);
  }
  std::optional<RecoveryManager> rec;
  if (cfg.mitigation == MitigationPolicy::kRestartRecovery) {
    rec.emplace(ads, cfg.recovery, cfg.watchdog_sec,
                online_det ? &*online_det : nullptr);
    // The platform sensor monitor rides along with fusion: known-degraded
    // channels re-attribute detector alarms to the sensor instead of
    // burning restart attempts on healthy compute.
    if (cfg.fusion.enabled) rec->enable_sensor_monitor(cfg.fusion.health);
  }

  RunResult result;
  result.scenario = cfg.scenario;
  result.mode = cfg.mode;
  result.fault = cfg.fault;
  result.sensor_fault = cfg.sensor_fault;
  result.run_seed = cfg.run_seed;
  result.scheduled_duration = world.scenario().duration_sec;
  result.sensor_frame_bytes = rig.frame_bytes();

  Actuation last_applied;
  bool failing_back = false;  // platform failback engaged after a DUE
  double stationary_sec = 0.0;
  int step = 0;
  int failback_ticks = 0;
  std::uint64_t traced_corruptions = 0;
  int restored_tick = -1;

  if (ckpt) {
    // Restore: overwrite everything time evolved. Setup above already rebuilt
    // all configuration (scenario, plans, LUT wiring), so only dynamic state
    // transfers. Then re-arm the engines for THIS config's plan
    // (adopt-then-configure, see Engine::adopt): the clean state configure()
    // clears is already default — no activation, no corruption, and the
    // outcome RNG was never drawn, so Rng(seed) is the captured position.
    world.adopt(ckpt->world);
    rig.set_rng_state(ckpt->rig);
    gpu0.adopt(ckpt->gpu0);
    cpu0.adopt(ckpt->cpu0);
    gpu1.adopt(ckpt->gpu1);
    cpu1.adopt(ckpt->cpu1);
    arm_engines();
    if (sensor_inj &&
        cfg.sensor_fault.model == SensorFaultModel::kCameraFrozen &&
        cfg.sensor_fault.onset_tick == ckpt->tick && ckpt->has_cameras) {
      // The variant freezes at the restore tick: its fresh injector never
      // saw the pre-onset frames, so prime the cache from the checkpoint.
      sensor_inj->prime_frozen(ckpt->cameras[static_cast<std::size_t>(
          cfg.sensor_fault.sensor_index)]);
    }
    ads.adopt(ckpt->ads);
    if (online_det && ckpt->has_detector) online_det->adopt(ckpt->detector);
    if (rec && ckpt->has_recovery) rec->adopt(ckpt->recovery);
    last_applied = ckpt->last_applied;
    stationary_sec = ckpt->stationary_sec;
    step = ckpt->tick;
    restored_tick = ckpt->tick;
    // The accumulated record through tick-1, re-stamped with THIS run's
    // plans (prefix-shared fields are identical by construction).
    RunResult partial = deserialize_run_result(ckpt->partial_result);
    partial.fault = cfg.fault;
    partial.sensor_fault = cfg.sensor_fault;
    result = std::move(partial);
  }

  // Fork-point capture target (fork_tick). Register sweeps have none: they
  // share only through the dyn-index gate on entries captured by sensor
  // variants of the same seed.
  const int capture_target = deep_enabled ? fork_tick(cfg) : -1;
  std::array<std::vector<std::uint8_t>, 3> prev_cameras;
  bool have_prev_cameras = false;
  const auto stash_prev_cameras = [&](const SensorFrame& frame) {
    if (step + 1 != capture_target || frame.cameras.size() != 3) return;
    for (std::size_t i = 0; i < 3; ++i) {
      prev_cameras[i] = frame.cameras[i].bytes();
    }
    have_prev_cameras = true;
  };

  const auto engage_failback = [&]() {
    if (!failing_back) obs::instant(obs::Instant::kFailbackEngaged);
    failing_back = true;
  };

  const auto legitimately_stopped = [&]() {
    if (world.cvip() < 12.0) return true;  // queued behind a vehicle
    const auto light = world.map().next_light_after(world.ego_route_s());
    return light && light->s - world.ego_route_s() < 15.0 &&
           light->phase_at(world.time()) != TrafficLight::Phase::kGreen;
  };

  const auto record_due = [&](DueSource source, double t,
                              FaultOutcome outcome) {
    if (result.due) return;  // keep the FIRST platform detection
    result.due = true;
    result.due_source = source;
    result.due_time = t;
    result.outcome = outcome;
    obs::instant(obs::Instant::kDue, static_cast<double>(source));
  };

  const auto coast_on_hang = [&]() {
    // The agent stops responding; the vehicle coasts on the last command
    // until the watchdog fires. The world may reach its scheduled end
    // mid-coast, in which case the platform never got to observe the hang —
    // clamp the stamped detection time to the actual end of the run.
    const int coast_steps = static_cast<int>(cfg.watchdog_sec / cfg.dt);
    for (int i = 0; i < coast_steps && !world.done(); ++i) {
      world.step(last_applied, cfg.dt);
    }
    if (result.due_source == DueSource::kHangWatchdog) {
      result.due_time = std::min(result.due_time, world.time());
    }
  };

  while (!world.done()) {
    if (capture_target >= 0 && step == capture_target &&
        step > restored_tick) {
      // Fork-point capture, at the top of the tick so a restored run resumes
      // exactly here. Only a clean prefix is stored — nothing detected,
      // activated or corrupted, recovery FSM never left nominal — because
      // only a clean prefix is shared by every config with the same prefix
      // digest. (A restart clears transient faults and rewarms: that is
      // fault-plan-coupled even when nothing activated.)
      RunCheckpoint c;
      if (rec) {
        c.has_recovery = true;
        c.recovery = rec->capture();
      }
      const bool clean =
          !result.due && !failing_back && !gpu0.fault_activated() &&
          !cpu0.fault_activated() &&
          (!sensor_inj || sensor_inj->corruptions() == 0) &&
          (!online_det || !online_det->alarmed()) &&
          (!rec || (c.recovery.state == 0 && c.recovery.stats.attempts == 0));
      if (clean) {
        c.tick = step;
        c.world = world.capture();
        c.rig = rig.rng_state();
        c.gpu0 = gpu0.capture();
        c.cpu0 = cpu0.capture();
        c.gpu1 = gpu1.capture();
        c.cpu1 = cpu1.capture();
        c.ads = ads.capture();
        if (online_det) {
          c.has_detector = true;
          c.detector = online_det->capture();
        }
        c.last_applied = last_applied;
        c.stationary_sec = stationary_sec;
        c.partial_result = serialize_run_result(result);
        if (have_prev_cameras) {
          c.has_cameras = true;
          c.cameras = prev_cameras;
        }
        store->insert_deep(
            {.prefix_digest = run_config_prefix_digest(cfg, step),
             .tick = step,
             .gpu0_total = c.gpu0.total,
             .cpu0_total = c.cpu0.total,
             .blob = serialize_run_checkpoint(c)});
      }
    }
    obs::set_tick(static_cast<std::uint32_t>(step));
    obs::SpanScope tick_span(obs::Stage::kTick);
    Actuation applied = last_applied;
    if (failing_back) {
      // Fail-back system: bring the vehicle to a safe stop (paper §I assumes
      // a failback "that can be invoked on error to bring the vehicle to a
      // safe state").
      applied = Actuation{0.0, 0.45, 0.0};
      ++failback_ticks;
      if (world.ego().v < 0.05) break;
    } else if (rec) {
      // Closed-loop mitigation: the RecoveryManager absorbs engine errors
      // and detector alarms, restarts the suspect agent and only falls back
      // to the safe stop on presumed-permanent faults.
      const SensorFrame frame = captured_frame(rig, world, step);
      stash_prev_cameras(frame);
      const RecoveryManager::TickOutcome t =
          rec->tick(frame, cfg.dt, world.ego(), world.time(), step);
      if (t.due != DueSource::kNone) {
        const bool is_hang = t.due == DueSource::kHangWatchdog;
        record_due(t.due, is_hang ? world.time() + cfg.watchdog_sec
                                  : world.time(),
                   is_hang ? FaultOutcome::kHang : FaultOutcome::kCrash);
      }
      if (t.hang) coast_on_hang();
      if (t.have_delta) {
        result.observations.push_back(
            StepObservation{world.time(), world.ego(), t.delta});
      }
      if (cfg.record_traces) {
        result.acting_agent_trace.push_back(t.acting_agent);
      }
      applied = t.applied;
      if (t.failback) engage_failback();
    } else {
      const SensorFrame frame = captured_frame(rig, world, step);
      stash_prev_cameras(frame);
      try {
        const AdsSystem::StepResult sr = ads.step(frame, cfg.dt);
        // Output plausibility validation (ISO 26262-style): a non-finite
        // actuation command is a platform-detected DUE — the ECU rejects it
        // and engages the failback, exactly like a crashed agent process.
        if (!sr.applied.finite()) {
          record_due(DueSource::kOutputValidator, world.time(),
                     FaultOutcome::kCrash);
          engage_failback();
          continue;
        }
        applied = sr.applied.clamped();
        if (sr.have_delta) {
          result.observations.push_back(
              StepObservation{world.time(), world.ego(), sr.delta});
          // Online detector path: the alarm fires in-run; under the
          // safe-stop-only policy it invokes the failback immediately.
          if (online_det && online_det->observe(result.observations.back())) {
            if (!result.online_alarmed) {
              result.online_alarmed = true;
              result.online_alarm_time = online_det->first_alarm_time();
            }
            engage_failback();
          }
        }
        if (cfg.record_traces) {
          result.acting_agent_trace.push_back(sr.acting_agent);
        }
        ++result.recovery.nominal_ticks;
      } catch (const CrashError&) {
        record_due(DueSource::kEngineCrash, world.time(),
                   FaultOutcome::kCrash);
        engage_failback();
        applied = last_applied;
      } catch (const HangError&) {
        record_due(DueSource::kHangWatchdog,
                   world.time() + cfg.watchdog_sec, FaultOutcome::kHang);
        coast_on_hang();
        engage_failback();
        applied = last_applied;
      }
    }

    if (cfg.record_traces && !failing_back) {
      result.time_trace.push_back(world.time());
      result.throttle_trace.push_back(applied.throttle);
      result.brake_trace.push_back(applied.brake);
      result.steer_trace.push_back(applied.steer);
      result.cvip_trace.push_back(world.cvip());
    }

    if (obs::recorder() != nullptr) {
      obs::counter(obs::Counter::kCvip, world.cvip());
      const std::uint64_t corruptions =
          gpu0.corruption_count() + cpu0.corruption_count();
      if (corruptions != traced_corruptions) {
        traced_corruptions = corruptions;
        obs::counter(obs::Counter::kCorruptions,
                     static_cast<double>(corruptions));
      }
    }
    {
      obs::SpanScope world_span(obs::Stage::kWorldStep);
      world.step(applied, cfg.dt);
    }
    last_applied = applied;
    ++step;

    // Stuck-vehicle watchdog (platform-level plausibility monitoring). A
    // frozen vehicle cannot be attributed to one agent, so it invokes the
    // failback under both mitigation policies.
    if (!failing_back && cfg.stuck_watchdog_sec > 0.0) {
      if (world.ego().v < 0.3 && !legitimately_stopped()) {
        stationary_sec += cfg.dt;
        if (stationary_sec >= cfg.stuck_watchdog_sec) {
          record_due(DueSource::kStuckWatchdog, world.time(),
                     FaultOutcome::kHang);
          engage_failback();
        }
      } else {
        stationary_sec = 0.0;
      }
    }
  }

  result.dt = cfg.dt;
  result.collision = world.flags().collision;
  result.collision_time = world.first_collision_time();
  result.flags = world.flags();
  result.trajectory = world.trajectory();
  result.duration = world.time();
  result.steps = world.step_count();
  result.sensor_corruptions = sensor_inj ? sensor_inj->corruptions() : 0;
  result.fault_activated = gpu0.fault_activated() || cpu0.fault_activated() ||
                           result.sensor_corruptions > 0;
  if (rec) {
    const int nominal_before = result.recovery.nominal_ticks;
    result.recovery = rec->stats();
    result.recovery.nominal_ticks += nominal_before;
    if (result.recovery.first_detector_alarm_time >= 0.0) {
      result.online_alarmed = true;
      result.online_alarm_time = result.recovery.first_detector_alarm_time;
    }
  }
  result.recovery.failback_ticks += failback_ticks;
  if (result.outcome != FaultOutcome::kCrash &&
      result.outcome != FaultOutcome::kHang) {
    const bool any_fault = cfg.fault.active() || cfg.sensor_fault.active();
    if (!any_fault) {
      result.outcome = FaultOutcome::kMasked;  // golden run: nothing injected
    } else if (!result.fault_activated) {
      result.outcome = FaultOutcome::kNotActivated;
    } else if (gpu0.corruption_count() + cpu0.corruption_count() +
                   result.sensor_corruptions > 0) {
      result.outcome = FaultOutcome::kSdc;
    } else {
      result.outcome = FaultOutcome::kMasked;
    }
  }
  result.gpu_instructions =
      gpu0.total_dyn_instructions() + gpu1.total_dyn_instructions();
  result.cpu_instructions =
      cpu0.total_dyn_instructions() + cpu1.total_dyn_instructions();
  result.agent_state_bytes = ads.state_bytes();

  if (cfg.trace.enabled()) {
    trace_scope.reset();  // uninstall before the (allocating) export
    std::string label = cfg.trace.label;
    if (label.empty()) {
      // Stable, collision-free default: the run-config digest.
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(run_config_digest(cfg)));
      label = hex;
    }
    obs::export_run_trace(
        cfg.trace, label, cfg.dt, *trace_rec,
        {{"scenario", to_string(cfg.scenario)},
         {"mode", to_string(cfg.mode)},
         {"mitigation", to_string(cfg.mitigation)},
         {"run_seed", std::to_string(cfg.run_seed)},
         {"outcome", to_string(result.outcome)}});
    // Stash the deterministic residue (instants + histograms + drop count)
    // for the campaign executor to harvest — this is how per-run telemetry
    // reaches the merged campaign trace without touching the RunResult.
    obs::RunCapture cap;
    cap.valid = true;
    cap.dropped = trace_rec->dropped();
    cap.dt = cfg.dt;
    cap.histograms = trace_rec->histograms();
    for (const obs::TraceEvent& ev : trace_rec->drain()) {
      if (ev.kind == obs::EventKind::kInstant) cap.instants.push_back(ev);
    }
    obs::set_last_run_capture(std::move(cap));
  }
  return result;
}

}  // namespace dav
