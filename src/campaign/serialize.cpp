#include "campaign/serialize.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/threshold_lut.h"
#include "util/bits.h"

namespace dav {

namespace {

[[noreturn]] void malformed(const char* what) {
  throw std::runtime_error(std::string("run record: ") + what);
}

}  // namespace

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void ByteWriter::f64(double v) { u64(double_bits(v)); }

void ByteWriter::f32(float v) { u32(float_bits(v)); }

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  buf_ += s;
}

const char* ByteReader::need(std::size_t n) {
  if (size_ - pos_ < n) malformed("truncated");
  const char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(*need(1));
}

std::uint32_t ByteReader::u32() {
  const char* p = need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  const char* p = need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

double ByteReader::f64() { return bits_double(u64()); }

float ByteReader::f32() { return bits_float(u32()); }

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  if (size_ - pos_ < n) malformed("truncated string");
  return raw(static_cast<std::size_t>(n));
}

std::string ByteReader::raw(std::size_t n) { return std::string(need(n), n); }

std::uint64_t ByteReader::count() {
  const std::uint64_t n = u64();
  if (n > remaining()) malformed("implausible element count");
  return n;
}

std::uint32_t ByteReader::count32() {
  const std::uint32_t n = u32();
  if (n > remaining()) malformed("implausible element count");
  return n;
}

void WireReader::fail(const char* what) const {
  throw std::runtime_error(std::string(context_) + ": " + what);
}

template <class A>
void io(A& a, FaultPlan& p) {
  a.u8(p.kind);
  a.u8(p.domain);
  a.u64(p.target_dyn_index);
  a.i32(p.target_opcode);
  a.i32(p.bit);
}

// --- Sensor extension (trailing, optional) ---------------------------------
// The sensor-fault / fusion fields ride in a trailing section that is written
// ONLY when active. A plan-free, fusion-free config or result serializes to
// the exact pre-extension byte stream (pinned by test_sensor_fault), so
// existing journals and digests are untouched; readers probe for remaining
// bytes before the trailing-bytes check, so both generations parse.

template <class A>
void io(A& a, SensorFaultPlan& p) {
  a.u8(p.model);
  a.i32(p.sensor_index);
  a.i32(p.onset_tick);
  a.i32(p.duration_ticks);
  a.u64(p.seed);
  a.f64(p.magnitude);
  a.i32(p.layer);
  a.i32(p.bit);
}

/// Everything a worker needs to reproduce the fused agent + monitor exactly
/// (`enabled` travels separately, ahead of the sensor plan).
template <class A>
void io(A& a, FusionConfig& f) {
  a.i32(f.health.degrade_after);
  a.i32(f.health.drop_after);
  a.i32(f.health.rejoin_after);
  a.f64(f.health.degraded_weight);
  a.f64(f.health.cam_min_mean);
  a.f64(f.health.cam_extreme_frac);
  a.f64(f.health.gps_jump_m);
  a.f64(f.health.gps_velocity_mismatch_mps);
  a.i32(f.health.gps_window_ticks);
  a.f64(f.health.lidar_invalid_frac);
  a.f64(f.health.lidar_ghost_range_m);
  a.f64(f.health.lidar_ghost_frac);
  a.f64(f.lidar_corridor_half_deg);
  a.f64(f.min_cruise_mps);
}

template <class A>
void io(A& a, StepObservation& s) {
  a.f64(s.time);
  io(a, s.state);
  a.f64(s.delta.throttle);
  a.f64(s.delta.brake);
  a.f64(s.delta.steer);
}

template <class A>
void io(A& a, RunResult& r) {
  a.version(kRunRecordVersion);
  a.u8(r.scenario);
  a.u8(r.mode);
  io(a, r.fault);
  a.u64(r.run_seed);
  a.u8(r.outcome);
  a.u8(r.fault_activated);
  a.u8(r.collision);
  a.f64(r.collision_time);
  io(a, r.flags);
  a.vec(r.trajectory.points(), [&](Vec2& p) { io(a, p); });
  a.f64(r.duration);
  a.f64(r.scheduled_duration);
  a.f64(r.dt);
  a.i32(r.steps);
  a.u8(r.due);
  a.f64(r.due_time);
  a.u8(r.due_source);
  a.u8(r.online_alarmed);
  a.f64(r.online_alarm_time);
  io_recovery_counts(a, r.recovery);
  a.vec(r.observations, [&](StepObservation& s) { io(a, s); });
  const auto f64s = [&](std::vector<double>& v) {
    a.vec(v, [&](double& d) { a.f64(d); });
  };
  f64s(r.time_trace);
  f64s(r.throttle_trace);
  f64s(r.brake_trace);
  f64s(r.steer_trace);
  f64s(r.cvip_trace);
  a.vec(r.acting_agent_trace, [&](int& v) { a.i32(v); });
  a.u64(r.gpu_instructions);
  a.u64(r.cpu_instructions);
  a.u64(r.agent_state_bytes);
  a.u64(r.sensor_frame_bytes);
  if (a.extension(r.sensor_fault.active() || r.sensor_corruptions != 0 ||
                  r.recovery.sensor_degraded_ticks != 0 ||
                  !r.recovery.sensor_events.empty())) {
    io(a, r.sensor_fault);
    a.u64(r.sensor_corruptions);
    io_sensor_recovery(a, r.recovery);
  }
}

std::string serialize_run_result(const RunResult& r) {
  return encode_fields(r);
}

RunResult deserialize_run_result(const std::string& bytes) {
  return decode_fields<RunResult>(bytes, "run record");
}

std::string frame_message(const std::string& payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(fnv1a64(payload.data(), payload.size()));
  w.raw(payload);
  return w.take();
}

FrameSplit try_unframe(const std::string& buf) {
  FrameSplit out;
  if (buf.size() < 12) return out;  // header not complete yet
  ByteReader r(buf);
  const std::uint32_t len = r.u32();
  const std::uint64_t checksum = r.u64();
  if (buf.size() - 12 < len) return out;  // payload not complete yet
  std::string payload = buf.substr(12, len);
  if (fnv1a64(payload.data(), payload.size()) != checksum) {
    out.status = FrameSplit::Status::kCorrupt;
    return out;
  }
  out.status = FrameSplit::Status::kOk;
  out.payload = std::move(payload);
  out.consumed = 12 + static_cast<std::size_t>(len);
  return out;
}

namespace {

// A config's online LUT crosses the wire as its text, printed at
// max_digits10 so every threshold round-trips bit-exactly (the worker's
// reconstructed thresholds match the supervisor's to the last ULP); that same
// text is part of run_config_digest, so two LUTs that differ anywhere key
// different runs.

class ConfigWriter : public WireWriter {
 public:
  using WireWriter::WireWriter;
  void lut(const ThresholdLut* table) {
    std::ostringstream text;
    text.precision(std::numeric_limits<double>::max_digits10);
    table->save(text);
    str(text.str());
  }
};

class ConfigReader : public WireReader {
 public:
  using WireReader::WireReader;
  void lut(const ThresholdLut*& table) {
    std::string text;
    str(text);
    std::istringstream in(text);
    storage = std::make_unique<ThresholdLut>(ThresholdLut::load(in));
    table = storage.get();
  }
  std::unique_ptr<ThresholdLut> storage;
};

bool config_has_sensor_extension(const RunConfig& cfg) {
  return cfg.sensor_fault.active() || cfg.fusion.enabled;
}

}  // namespace

/// Every RunConfig field that determines the outcome of run_experiment — the
/// one list behind serialize_run_config and both digests.
template <class A>
void io_outcome(A& a, RunConfig& cfg) {
  a.u8(cfg.scenario);
  a.u64(cfg.scenario_seed);
  a.f64(cfg.scenario_opts.long_route_duration_sec);
  a.f64(cfg.scenario_opts.safety_duration_sec);
  a.u8(cfg.mode);
  a.f64(cfg.overlap_ratio);
  io(a, cfg.fault);
  a.u64(cfg.run_seed);
  a.f64(cfg.dt);
  a.i32(cfg.cam_width);
  a.i32(cfg.cam_height);
  a.f64(cfg.camera_noise_sigma);
  a.u8(cfg.record_traces);
  a.f64(cfg.watchdog_sec);
  a.f64(cfg.stuck_watchdog_sec);
  a.u8(cfg.mitigation);
  a.i32(cfg.recovery.probe_ticks);
  a.i32(cfg.recovery.rewarm_ticks);
  a.i32(cfg.recovery.max_recoveries);
  a.i32(cfg.recovery.recovery_window_ticks);
  bool has_lut = cfg.online_lut != nullptr;
  a.u8(has_lut);
  if (has_lut) {
    a.u64(cfg.online_detector.rw);
    a.f64(cfg.online_detector.min_eval_speed);
    a.i32(cfg.online_detector.debounce);
    a.lut(cfg.online_lut);
  }
}

template <class A>
void io_sensor_extension(A& a, RunConfig& cfg) {
  a.u8(cfg.fusion.enabled);
  io(a, cfg.sensor_fault);
  io(a, cfg.fusion);
}

// Second trailing section (checkpoint routing). Trailing sections carry no
// tags, so a config that needs the checkpoint section also writes the sensor
// section in front of it. A default CheckpointOptions writes nothing, keeping
// checkpoint-off configs byte-identical to the encoding that predates
// checkpoints.
template <class A>
void io(A& a, RunConfig& cfg) {
  a.version(kRunConfigVersion);
  io_outcome(a, cfg);
  a.str(cfg.trace.dir);
  a.u64(cfg.trace.capacity);
  a.i32(cfg.trace.pid);
  a.str(cfg.trace.label);
  const bool ckpt_ext =
      cfg.checkpoint.enabled || cfg.checkpoint.capture_tick >= 0;
  if (a.extension(config_has_sensor_extension(cfg) || ckpt_ext)) {
    io_sensor_extension(a, cfg);
  }
  if (a.extension(ckpt_ext)) {
    a.u8(cfg.checkpoint.enabled);
    a.i32(cfg.checkpoint.capture_tick);
  }
}

std::string serialize_run_config(const RunConfig& cfg) {
  ByteWriter w;
  ConfigWriter a(w);
  io(a, const_cast<RunConfig&>(cfg));  // ConfigWriter only reads through it
  return w.take();
}

RunConfigRecord deserialize_run_config(const std::string& bytes) {
  ByteReader r(bytes);
  ConfigReader a(r, "run config");
  RunConfigRecord out;
  io(a, out.cfg);
  a.finish();
  out.lut = std::move(a.storage);
  return out;
}

template <class A>
void io_payload(A& a, bool& ok, std::string& what, RunResult& r) {
  a.u8(ok);
  if (!ok) a.str(what);
  io(a, r);
}

std::string make_result_payload(bool ok, const std::string& what,
                                const RunResult& r) {
  ByteWriter w;
  WireWriter a(w);
  io_payload(a, ok, const_cast<std::string&>(what),
             const_cast<RunResult&>(r));  // WireWriter only reads through them
  return w.take();
}

ResultPayload parse_result_payload(const std::string& bytes) {
  ByteReader r(bytes);
  WireReader a(r, "run record");
  ResultPayload p;
  io_payload(a, p.ok, p.what, p.result);
  a.finish();
  return p;
}

// Encoding walks the non-empty buckets in order; decoding starts from empty
// histograms and takes both numbers from the wire.
template <class A>
void io(A& a, obs::StageHistogramSet& hist) {
  for (obs::StageHistogram& h : hist.stages) {
    auto nonzero = static_cast<std::uint8_t>(std::count_if(
        h.buckets.begin(), h.buckets.end(),
        [](std::uint64_t b) { return b != 0; }));
    a.u8(nonzero);
    std::size_t next = 0;
    for (std::uint8_t k = 0; k < nonzero; ++k, ++next) {
      while (next < h.buckets.size() && h.buckets[next] == 0) ++next;
      auto bucket = static_cast<std::uint8_t>(next);
      a.u8(bucket);
      if (bucket >= h.buckets.size()) {
        throw std::runtime_error("telemetry: histogram bucket out of range");
      }
      a.u64(h.buckets[bucket]);
    }
  }
}

template <class A>
void io(A& a, RunTraceCapture& cap) {
  a.u64(cap.plan_index);
  a.u64(cap.capture.dropped);
  a.f64(cap.capture.dt);
  io(a, cap.capture.histograms);
  a.vec32(cap.capture.instants, [&](obs::TraceEvent& ev) {
    a.u32(ev.tick);
    a.u32(ev.id);
    a.u8(ev.track);
    a.f64(ev.value);
  });
}

std::string encode_run_capture(const RunTraceCapture& cap) {
  return encode_fields(cap);
}

RunTraceCapture decode_run_capture(const std::string& blob) {
  RunTraceCapture cap = decode_fields<RunTraceCapture>(blob, "telemetry");
  cap.capture.valid = true;
  for (obs::TraceEvent& ev : cap.capture.instants) {
    ev.kind = obs::EventKind::kInstant;
  }
  return cap;
}

std::uint64_t run_config_digest(const RunConfig& cfg) {
  ByteWriter w;
  ConfigWriter a(w);
  RunConfig& c = const_cast<RunConfig&>(cfg);  // ConfigWriter only reads
  io_outcome(a, c);
  // Same only-when-active discipline as serialize_run_config: plan-free,
  // fusion-free configs keep their pre-extension digest (journals and
  // resume keyed on it stay valid). CheckpointOptions are excluded
  // entirely, like TraceOptions: neither changes the run outcome.
  if (config_has_sensor_extension(cfg)) io_sensor_extension(a, c);
  const std::string& b = w.bytes();
  return fnv1a64(b.data(), b.size());
}

std::uint64_t run_config_prefix_digest(const RunConfig& cfg, int tick) {
  // The run digest with every fault plan that has not acted before `tick`
  // cleared. A permanent register fault can fire from the first opcode
  // instance, so it acts once any instruction has run; a sensor plan acts at
  // its onset tick. A transient register fault is a single strike at one
  // dynamic instruction index: the store gates eligibility on the captured
  // instruction totals instead, so it never enters and sweep variants share
  // a prefix.
  RunConfig masked = cfg;
  if (cfg.fault.kind != FaultModelKind::kPermanent || tick <= 0) {
    masked.fault = FaultPlan{};
  }
  if (!cfg.sensor_fault.active() || cfg.sensor_fault.onset_tick >= tick) {
    masked.sensor_fault = SensorFaultPlan{};
  }
  ByteWriter w;
  w.u64(0x6461762d70667831ULL);  // domain separation: "dav-pfx1"
  w.i32(tick);
  w.u64(run_config_digest(masked));
  const std::string& b = w.bytes();
  return fnv1a64(b.data(), b.size());
}

}  // namespace dav
