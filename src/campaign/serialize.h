// Versioned binary serialization of campaign run records.
//
// The multi-process executor ships every RunResult from a sandboxed worker
// back to the supervisor over a pipe, and the write-ahead journal persists
// the same records on disk across campaign restarts. Both need one canonical
// encoding: explicit little-endian byte order, bit-exact doubles (IEEE-754
// bits, never a text round-trip), and length-prefixed containers — so a
// deserialized RunResult is bit-identical to the in-process original and the
// resumed campaign summary matches the uninterrupted one exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/driver.h"
#include "util/trace.h"

namespace dav {

/// Bumped whenever the RunResult encoding changes; a record with a different
/// version fails to deserialize (and the executor simply re-runs it).
inline constexpr std::uint32_t kRunRecordVersion = 1;

/// Bumped whenever the RunConfig encoding changes; a worker that receives a
/// request with a different version reports the mismatch instead of running
/// a misdecoded config.
inline constexpr std::uint32_t kRunConfigVersion = 1;

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  /// Bit-exact IEEE-754 encoding (NaNs and signed zeros round-trip).
  void f64(double v);
  void f32(float v);
  void str(const std::string& s);
  void raw(const std::string& bytes) { buf_ += bytes; }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte buffer. Every accessor throws
/// std::runtime_error on truncated input — a torn record never yields a
/// half-filled RunResult.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  float f32();
  std::string str();
  /// The next `n` bytes, verbatim.
  std::string raw(std::size_t n);
  /// A u64 element count. Every element takes at least one byte, so a count
  /// past the bytes left is corruption — caught here instead of in a giant
  /// allocation.
  std::uint64_t count();
  /// The same for a u32 count.
  std::uint32_t count32();

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const char* need(std::size_t n);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- field walks -------------------------------------------------------------
//
// Each wire type is described once, by a field walk
//
//   template <class A> void io(A& a, T& v);
//
// that lists every field of T in wire order with its wire width. WireWriter
// drives a walk to encode a value and WireReader to decode one, so an encoder
// cannot drift from its decoder: adding a field is one line in one walk, plus
// a byte pin in the tests. encode_fields/decode_fields find walks by
// argument-dependent lookup, so each lives in namespace dav or beside its
// type. A walk writes fields only through the adapter, so encoding a const
// value never modifies it.

/// Encoding adapter: each accessor appends its field to a ByteWriter.
class WireWriter {
 public:
  explicit WireWriter(ByteWriter& w) : w_(w) {}

  template <class T>
  void u8(const T& v) { w_.u8(static_cast<std::uint8_t>(v)); }
  template <class T>
  void i32(const T& v) { w_.i32(static_cast<std::int32_t>(v)); }
  template <class T>
  void u32(const T& v) { w_.u32(static_cast<std::uint32_t>(v)); }
  template <class T>
  void u64(const T& v) { w_.u64(static_cast<std::uint64_t>(v)); }
  void f32(float v) { w_.f32(v); }
  void f64(double v) { w_.f64(v); }
  void str(const std::string& s) { w_.str(s); }
  /// A byte vector, laid out like a string.
  void bytes(const std::vector<std::uint8_t>& v) {
    w_.u64(v.size());
    w_.raw(std::string(v.begin(), v.end()));
  }
  /// An embedded payload that runs to the end of the message.
  void rest(const std::string& s) { w_.raw(s); }
  /// The u32 layout version the reader must find.
  void version(std::uint32_t v) { w_.u32(v); }
  /// u64 element count, then `each(element)` in order.
  template <class V, class F>
  void vec(V& v, F each) {
    w_.u64(v.size());
    for (auto& e : v) each(e);
  }
  /// The same with a u32 count.
  template <class V, class F>
  void vec32(V& v, F each) {
    w_.u32(static_cast<std::uint32_t>(v.size()));
    for (auto& e : v) each(e);
  }
  /// A trailing optional section, written only when `present`. Sections
  /// carry no tag, so a later section forces the earlier ones.
  bool extension(bool present) { return present; }

 private:
  ByteWriter& w_;
};

/// Decoding adapter: each accessor fills its field from a ByteReader.
/// Truncation throws std::runtime_error, so a torn buffer never yields a
/// half-filled value.
class WireReader {
 public:
  /// `context` prefixes this reader's own errors ("run checkpoint").
  WireReader(ByteReader& r, const char* context) : r_(r), context_(context) {}

  template <class T>
  void u8(T& v) { v = static_cast<T>(r_.u8()); }
  template <class T>
  void i32(T& v) { v = static_cast<T>(r_.i32()); }
  template <class T>
  void u32(T& v) { v = static_cast<T>(r_.u32()); }
  template <class T>
  void u64(T& v) { v = static_cast<T>(r_.u64()); }
  void f32(float& v) { v = r_.f32(); }
  void f64(double& v) { v = r_.f64(); }
  void str(std::string& s) { s = r_.str(); }
  void bytes(std::vector<std::uint8_t>& v) {
    const std::string s = r_.str();
    v.assign(s.begin(), s.end());
  }
  void rest(std::string& s) { s = r_.raw(r_.remaining()); }
  void version(std::uint32_t v) {
    if (r_.u32() != v) fail("version mismatch");
  }
  template <class V, class F>
  void vec(V& v, F each) {
    v.clear();
    for (std::uint64_t i = 0, n = r_.count(); i < n; ++i) {
      each(v.emplace_back());
    }
  }
  template <class V, class F>
  void vec32(V& v, F each) {
    v.clear();
    for (std::uint32_t i = 0, n = r_.count32(); i < n; ++i) {
      each(v.emplace_back());
    }
  }
  /// A trailing section is present when bytes remain.
  bool extension(bool) { return !r_.done(); }
  /// Throws unless the whole buffer was consumed.
  void finish() {
    if (!r_.done()) fail("trailing bytes");
  }

 private:
  [[noreturn]] void fail(const char* what) const;

  ByteReader& r_;
  const char* context_;
};

/// Encode `v` through its field walk.
template <class T>
std::string encode_fields(const T& v) {
  ByteWriter w;
  WireWriter a(w);
  io(a, const_cast<T&>(v));  // WireWriter only reads through it
  return w.take();
}

/// Decode a whole buffer through T's field walk. Throws std::runtime_error
/// on truncation or trailing bytes.
template <class T>
T decode_fields(const std::string& bytes, const char* context) {
  ByteReader r(bytes);
  WireReader a(r, context);
  T v;
  io(a, v);
  a.finish();
  return v;
}

// Walks shared by the run record (serialize.cpp) and the run checkpoint
// (checkpoint.cpp).

template <class A>
void io(A& a, Vec2& p) {
  a.f64(p.x);
  a.f64(p.y);
}

template <class A>
void io(A& a, SafetyFlags& f) {
  a.u8(f.collision);
  a.u8(f.red_light_violation);
  a.u8(f.speeding);
  a.u8(f.off_road);
}

template <class A>
void io(A& a, VehicleState& s) {
  a.f64(s.pose.pos.x);
  a.f64(s.pose.pos.y);
  a.f64(s.pose.yaw);
  a.f64(s.v);
  a.f64(s.a);
  a.f64(s.omega);
  a.f64(s.alpha);
}

template <class A>
void io(A& a, RecoveryEvent& e) {
  a.i32(e.suspect);
  a.u8(e.trigger);
  a.f64(e.alarm_time);
  a.f64(e.restart_time);
  a.f64(e.rejoin_time);
  a.i32(e.alarm_tick);
  a.i32(e.restart_tick);
  a.i32(e.rejoin_tick);
}

template <class A>
void io(A& a, SensorDegradeEvent& e) {
  a.i32(e.channel);
  a.i32(e.onset_tick);
  a.f64(e.onset_time);
  a.i32(e.rejoin_tick);
  a.f64(e.rejoin_time);
  a.u8(e.dropped);
  a.u8(e.escalated);
}

/// MitigationStats in two parts: a run record carries the sensor part in
/// its trailing sensor extension, a checkpoint carries both back to back.
template <class A>
void io_recovery_counts(A& a, MitigationStats& m) {
  a.i32(m.attempts);
  a.i32(m.completed);
  a.u8(m.escalated);
  a.f64(m.first_detector_alarm_time);
  a.vec(m.events, [&](RecoveryEvent& e) { io(a, e); });
  a.i32(m.nominal_ticks);
  a.i32(m.probe_ticks);
  a.i32(m.degraded_ticks);
  a.i32(m.failback_ticks);
}

template <class A>
void io_sensor_recovery(A& a, MitigationStats& m) {
  a.i32(m.sensor_degraded_ticks);
  a.vec(m.sensor_events, [&](SensorDegradeEvent& e) { io(a, e); });
}

/// Complete, versioned encoding of a RunResult (every field, including
/// observation and trace vectors).
std::string serialize_run_result(const RunResult& r);

/// Inverse of serialize_run_result. Throws std::runtime_error on a truncated
/// buffer, trailing garbage, or a version mismatch.
RunResult deserialize_run_result(const std::string& bytes);

// --- result payload (worker verdict + RunResult) ---------------------------
//
// result payload = u8 ok | [str what, when !ok] | serialized RunResult
//
// The unit every executor slot journals and every worker ships: ok=1 wraps a
// completed RunResult, ok=0 wraps the quarantine diagnosis plus the
// kHarnessError placeholder. Pool responses embed this payload verbatim, so a
// journal record is byte-compatible across in-process and pool runs.

struct ResultPayload {
  bool ok = false;
  std::string what;  ///< quarantine diagnosis, when !ok
  RunResult result;
};

/// Encode a worker verdict. Bit-exact: two calls with equal inputs produce
/// identical bytes.
std::string make_result_payload(bool ok, const std::string& what,
                                const RunResult& r);

/// Inverse of make_result_payload. Throws std::runtime_error on truncated or
/// version-mismatched bytes.
ResultPayload parse_result_payload(const std::string& bytes);

// --- run trace capture (worker -> executor) --------------------------------
//
// capture = u64 plan_index | u64 dropped | f64 dt | histograms
//           | u32 n | n x (u32 tick | u32 id | u8 track | f64 value)
//
// Histograms go on the wire sparsely: per stage, the number of non-empty
// buckets, then (u8 bucket index, u64 count) for each. A traced run touches
// a handful of buckets per stage, so a capture stays in the low hundreds of
// bytes.

/// The observability residue of one completed run (util/trace.h RunCapture)
/// tagged with its plan index. Harvested by the in-process slot from the
/// driver's stash, and shipped by pool workers inside their response frame
/// beside (never inside) the result payload, so journal bytes do not depend
/// on tracing. One record per traced, non-replayed run.
struct RunTraceCapture {
  std::uint64_t plan_index = 0;
  obs::RunCapture capture;
};

std::string encode_run_capture(const RunTraceCapture& cap);

/// Inverse of encode_run_capture: the capture comes back valid, its events
/// instant. Throws std::runtime_error on truncated or trailing bytes.
RunTraceCapture decode_run_capture(const std::string& blob);

// --- pipe framing (executor <-> worker) ------------------------------------
//
// frame = u32 payload_len | u64 fnv1a64(payload) | payload
//
// Both directions of the pool protocol use this frame: workers stream
// request frames in and result frames out over long-lived pipes. A process
// that dies mid-write leaves a frame that fails the length or checksum test,
// which the supervisor treats exactly like a signal death.

/// Wrap a payload in a checksummed, length-prefixed frame.
std::string frame_message(const std::string& payload);

/// Result of scanning a receive buffer for one complete frame.
struct FrameSplit {
  enum class Status {
    kNeedMore,  ///< no complete frame yet; read more bytes
    kOk,        ///< payload extracted; strip `consumed` bytes from the buffer
    kCorrupt,   ///< length or checksum violation; the stream is unusable
  };
  Status status = Status::kNeedMore;
  std::string payload;
  std::size_t consumed = 0;
};

/// Scan the front of a streaming receive buffer for one complete frame. A
/// persistent worker pipe carries many frames back to back, so extraction is
/// incremental.
FrameSplit try_unframe(const std::string& buf);

/// Complete, versioned encoding of a RunConfig — every outcome-determining
/// field plus the observability routing (TraceOptions), and the trained LUT
/// text (written at full precision, so thresholds survive bit-exactly) when
/// an online detector is attached. This is the pool's request payload: the
/// supervisor streams configs to long-lived workers that were forked before
/// the configs existed.
std::string serialize_run_config(const RunConfig& cfg);

/// A decoded RunConfig plus the storage it points into: cfg.online_lut is
/// wired to `lut` (heap-allocated, so moving the record keeps it valid).
struct RunConfigRecord {
  RunConfig cfg;
  std::unique_ptr<ThresholdLut> lut;  ///< null when no online detector
};

/// Inverse of serialize_run_config. Throws std::runtime_error on truncation,
/// trailing garbage, or a version mismatch.
RunConfigRecord deserialize_run_config(const std::string& bytes);

/// Stable 64-bit digest over every RunConfig field that determines the
/// outcome of run_experiment (including the trained LUT contents when an
/// online detector is attached). Two configs with equal digests produce
/// bit-identical results, so the digest keys the journal: a completed record
/// under the same key can be replayed instead of re-executed.
std::uint64_t run_config_digest(const RunConfig& cfg);

/// Digest over every RunConfig field that can influence the run BEFORE
/// `tick`. Two configs with equal prefix digests at tick T evolve
/// bit-identically through the first T steps, so a clean checkpoint captured
/// at T under one config can seed any sibling that shares the digest.
///
/// Fault handling (the whole point — variants of one sweep share a prefix):
///  - sensor plan: included only once its onset precedes `tick`;
///  - permanent register plan: included whenever tick > 0 (a permanent fault
///    can corrupt any instruction from the first step);
///  - transient register plan: NEVER included — whether the strike landed
///    before `tick` depends on the dynamic instruction count, which the
///    CheckpointStore gates per entry (target_dyn_index >= captured totals).
/// Domain-separated from run_config_digest; in-memory key only.
std::uint64_t run_config_prefix_digest(const RunConfig& cfg, int tick);

}  // namespace dav
