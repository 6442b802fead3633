// Flight recorder: per-run trace journal for the DiverseAV stack.
//
// The paper's argument is time-resolved — divergence vs. threshold (Fig 5),
// detection lead time (Fig 8), activation→corruption→DUE causality — but a
// RunResult only keeps end-of-run aggregates. The TraceRecorder captures the
// tick-by-tick story: a fixed-capacity ring buffer of POD events (scoped
// spans, counters, instants) recorded with zero allocation on the hot path
// and drained into Chrome-trace JSON / CSV at run end (see obs/export.h).
//
// Determinism contract (davlint-enforced, tested by test_obs.cpp):
//   * Every SEMANTIC field — event identity, tick index, counter value — is a
//     deterministic function of the run seed. Events are timestamped with the
//     simulation tick, never a wall clock.
//   * Wall time appears ONLY in span durations (dur_ns), is read only by
//     these primitives (std::chrono::steady_clock — util/trace holds the
//     davlint obs-clock carve-out), and never feeds back into simulation
//     state: a traced run's RunResult is bit-identical to the untraced run.
//
// This header lives in src/util (layer 0) so that every layer can record
// events without an upward include — the davlint layering rule forbids
// core/agent/fi → obs back-edges. It still *is* the obs layer's recording
// API (hence namespace dav::obs); the obs layer proper (src/obs) holds the
// exporters that drain the ring into trace files.
//   * Recording is a no-op (one pointer test) unless a recorder is installed,
//     so the instrumented hot paths cost nothing when DAV_TRACE is unset.
//
// The recorder is process-global but not thread-safe: one run per process is
// the execution model (campaign parallelism is fork-based, executor.h).
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dav::obs {

/// Span identities: the stages of one synchronous tick.
enum class Stage : std::uint8_t {
  kTick,           // whole run-loop iteration (driver)
  kSensorCapture,  // sensor rig render + noise (driver)
  kAgentAct,       // one agent's full sensorimotor step (ads_system)
  kPerception,     // camera pipeline (agent)
  kPlanner,        // route/cruise planning (agent)
  kWaypointHead,   // GPU waypoint head (agent)
  kControl,        // PID + steering (agent)
  kDetector,       // online detector observe (detector)
  kRecoveryTick,   // recovery FSM tick incl. probe/degraded steps (recovery)
  kWorldStep,      // physics + NPC update (driver)
  kCount
};
const char* to_string(Stage s);

/// Counter identities: tick-indexed scalar series.
enum class Counter : std::uint8_t {
  kDivergence,     // smoothed divergence, one track per actuation channel
  kThreshold,      // LUT threshold for the current state, per channel
  kAlarmStreak,    // consecutive exceedances toward the debounce gate
  kCorruptions,    // cumulative corrupted instructions (gpu0 + cpu0)
  kRecoveryState,  // 0 nominal, 1 probing, 2 degraded, 3 failback,
                   // 4 sensor-degraded
  kCvip,           // closest vehicle in path, meters
  kCount
};
const char* to_string(Counter c);

/// Instant identities: semantic point events.
enum class Instant : std::uint8_t {
  kDetectorAlarm,      // online detector latched (value = alarm time, sec)
  kDue,                // platform DUE raised (value = DueSource)
  kFailbackEngaged,    // safe-stop failback took over the vehicle
  kFaultActivated,     // first corrupted instruction (value = dyn index)
  kCrashManifested,    // corruption resolved to a CrashError
  kHangManifested,     // corruption resolved to a HangError
  kRecoveryProbe,      // arbitration probe began (value = alarm time, sec)
  kRecoveryRestart,    // agent restart began (track = suspect, value = trigger)
  kRecoveryRejoin,     // rewarm complete, full redundancy restored
  kRecoveryEscalated,  // presumed-permanent: recovery gave up
  kAgentRestart,       // fresh agent constructed + resynced (track = suspect)
  kSensorDegraded,     // a sensor channel left kHealthy (track = channel)
  kSensorRejoin,       // a degraded sensor channel rejoined (track = channel)
  kCount
};
const char* to_string(Instant i);

enum class EventKind : std::uint8_t { kSpan, kCounter, kInstant };

/// Fixed-bucket log2 latency histogram. POD, allocation-free, deterministic
/// layout: bucket b holds durations whose bit width is b, i.e. the half-open
/// range [2^(b-1), 2^b) nanoseconds (bucket 0 holds exact zeros). Nonzero
/// u64 bit widths run 1..64, so with the zero bucket the full range takes 65
/// buckets — add() never saturates or clamps a real duration into the wrong
/// bucket. Unlike the event ring, histograms never evict: percentiles
/// computed from them describe EVERY span recorded, even after the ring
/// wrapped and dropped the oldest events.
struct StageHistogram {
  std::array<std::uint64_t, 65> buckets{};

  void add(std::uint64_t dur_ns) {
    ++buckets[dur_ns == 0 ? 0 : std::bit_width(dur_ns)];
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (std::uint64_t b : buckets) n += b;
    return n;
  }

  void merge(const StageHistogram& other) {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
  }

  /// Lower bound (ns) of the bucket containing the p-th percentile
  /// (p in [0,100]), using the nearest-rank definition: the bucket holding
  /// the ceil(p/100 * count)-th smallest sample. Returns 0 when empty.
  /// For durations that are exact powers of two the estimate is exact.
  std::uint64_t percentile_ns(double p) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    if (p < 0.0) p = 0.0;
    if (p > 100.0) p = 100.0;
    std::uint64_t rank = static_cast<std::uint64_t>(p / 100.0 * n + 0.5);
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      seen += buckets[b];
      if (seen >= rank) {
        return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
      }
    }
    return 0;
  }
};

/// One histogram per pipeline stage. The recorder updates these inline in
/// record(), so they ride along with the ring at zero extra allocation.
struct StageHistogramSet {
  std::array<StageHistogram, static_cast<std::size_t>(Stage::kCount)> stages{};

  StageHistogram& at(Stage s) {
    return stages[static_cast<std::size_t>(s)];
  }
  const StageHistogram& at(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }

  void merge(const StageHistogramSet& other) {
    for (std::size_t i = 0; i < stages.size(); ++i) {
      stages[i].merge(other.stages[i]);
    }
  }

  std::uint64_t total_count() const {
    std::uint64_t n = 0;
    for (const StageHistogram& h : stages) n += h.count();
    return n;
  }
};

/// One POD trace event. 24 bytes; the ring holds these by value.
struct TraceEvent {
  std::uint32_t tick = 0;    // simulation tick index (semantic timestamp)
  std::uint16_t id = 0;      // Stage / Counter / Instant enum value
  EventKind kind = EventKind::kSpan;
  std::int8_t track = -1;    // agent index, channel, or -1
  double value = 0.0;        // counter value / instant argument
  std::uint64_t dur_ns = 0;  // span wall duration; obs-layer only
};

/// Fixed-capacity ring buffer of trace events. All storage is allocated in
/// the constructor; record() never allocates. Overflow overwrites the OLDEST
/// event (the newest events are the ones that explain the outcome) and
/// counts the drops.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity);

  void record(const TraceEvent& ev) {
    if (ev.kind == EventKind::kSpan &&
        ev.id < static_cast<std::uint16_t>(Stage::kCount)) {
      hist_.stages[ev.id].add(ev.dur_ns);
    }
    if (buf_.size() < capacity_) {
      buf_.push_back(ev);
      return;
    }
    buf_[head_] = ev;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events overwritten by overflow (oldest-first eviction).
  std::uint64_t dropped() const { return dropped_; }

  /// Per-stage latency histograms over EVERY span ever recorded — these
  /// survive ring eviction, so percentiles stay exact after overflow.
  const StageHistogramSet& histograms() const { return hist_; }

  /// Events in recording order, oldest surviving event first.
  std::vector<TraceEvent> drain() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest event when the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> buf_;
  StageHistogramSet hist_;
};

/// Per-run tracing options, routed through RunConfig so forked executor
/// workers inherit them. None of these fields affect run_experiment's result
/// (and none enter run_config_digest): tracing is observability only.
struct TraceOptions {
  /// Output directory; empty disables tracing entirely.
  std::string dir;
  /// Ring capacity in events (64 Ki ≈ 1.5 MiB): enough for a whole run; CI's
  /// trace smoke fails if a run drops an event.
  std::size_t capacity = 65536;
  /// Perfetto pid for this run's events; the campaign layer assigns one pid
  /// per plan index so multi-run traces stay distinguishable.
  int pid = 1;
  /// File stem override ("run_<label>.trace.json"); empty derives a stable
  /// stem from the run-config digest.
  std::string label;

  bool enabled() const { return !dir.empty(); }

  // Environment opt-in (DAV_TRACE) lives in
  // dav::EnvOptions::trace_options() — the obs layer never reads env vars.
};

/// The deterministic residue of one traced run, stashed by the driver after
/// the run finishes so the campaign executor can harvest it without holding a
/// reference to the (stack-local) recorder. Contains ONLY semantic data —
/// instant events (whose tick/id/track/value are functions of the run seed)
/// and the per-stage histograms + drop count (wall-clock summaries that never
/// feed back into results) — so shipping it back from a pool worker cannot
/// perturb journal or summary byte-determinism.
struct RunCapture {
  bool valid = false;
  std::uint64_t dropped = 0;
  double dt = 0.0;  ///< tick length, so merged traces keep simulated time
  StageHistogramSet histograms;
  std::vector<TraceEvent> instants;  // EventKind::kInstant only, run order
};

/// Stash/harvest the capture of the most recently completed traced run.
/// Process-global, single-slot: the executor consumes it immediately after
/// each run_experiment return (one run per process is the execution model).
void set_last_run_capture(RunCapture cap);
/// Returns the stashed capture and clears the slot; `valid` is false when no
/// traced run completed since the last take.
RunCapture take_last_run_capture();

namespace detail {
// Process-global recorder + current tick. Not thread-safe by design (one run
// per process; campaign parallelism forks).
extern TraceRecorder* g_recorder;
extern std::uint32_t g_tick;
}  // namespace detail

/// The installed recorder, or nullptr when tracing is off.
inline TraceRecorder* recorder() { return detail::g_recorder; }

/// The driver stamps the current simulation tick once per loop iteration;
/// all helpers below pick it up implicitly, so instrumented callees
/// (detector, engines) need no tick plumbing.
inline void set_tick(std::uint32_t tick) { detail::g_tick = tick; }
inline std::uint32_t current_tick() { return detail::g_tick; }

/// Installs a recorder for the current scope (the driver wraps one run);
/// restores the previous recorder on destruction.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(TraceRecorder* rec)
      : prev_(detail::g_recorder), prev_tick_(detail::g_tick) {
    detail::g_recorder = rec;
    detail::g_tick = 0;
  }
  ~ScopedRecorder() {
    detail::g_recorder = prev_;
    detail::g_tick = prev_tick_;
  }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  TraceRecorder* prev_;
  std::uint32_t prev_tick_;
};

/// RAII span: wall-clock duration is measured here (and only here); the
/// event's timestamp is the current simulation tick. When no recorder is
/// installed the constructor is a single pointer test and no clock is read.
class SpanScope {
 public:
  explicit SpanScope(Stage stage, int track = -1)
      : rec_(detail::g_recorder) {
    if (rec_ == nullptr) return;
    stage_ = stage;
    track_ = static_cast<std::int8_t>(track);
    start_ = std::chrono::steady_clock::now();
  }
  ~SpanScope() {
    if (rec_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    TraceEvent ev;
    ev.tick = detail::g_tick;
    ev.id = static_cast<std::uint16_t>(stage_);
    ev.kind = EventKind::kSpan;
    ev.track = track_;
    ev.dur_ns = static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
    rec_->record(ev);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceRecorder* rec_;
  Stage stage_ = Stage::kTick;
  std::int8_t track_ = -1;
  std::chrono::steady_clock::time_point start_;
};

/// Record a tick-indexed counter sample. No-op without a recorder.
inline void counter(Counter c, double value, int track = -1) {
  TraceRecorder* rec = detail::g_recorder;
  if (rec == nullptr) return;
  TraceEvent ev;
  ev.tick = detail::g_tick;
  ev.id = static_cast<std::uint16_t>(c);
  ev.kind = EventKind::kCounter;
  ev.track = static_cast<std::int8_t>(track);
  ev.value = value;
  rec->record(ev);
}

/// Record a semantic point event. No-op without a recorder.
inline void instant(Instant i, double value = 0.0, int track = -1) {
  TraceRecorder* rec = detail::g_recorder;
  if (rec == nullptr) return;
  TraceEvent ev;
  ev.tick = detail::g_tick;
  ev.id = static_cast<std::uint16_t>(i);
  ev.kind = EventKind::kInstant;
  ev.track = static_cast<std::int8_t>(track);
  ev.value = value;
  rec->record(ev);
}

}  // namespace dav::obs
