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

#include "campaign/driver.h"

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

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const char* need(std::size_t n);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

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
// The unit every executor strategy journals and every worker ships: ok=1
// wraps a completed RunResult, ok=0 wraps the quarantine diagnosis plus the
// kHarnessError placeholder. Pool responses and the socket transport embed
// this payload verbatim, so a journal record is byte-compatible across
// in-process, pool and distributed runs.

struct ResultPayload {
  bool ok = false;
  std::string what;  ///< quarantine diagnosis, when !ok
  RunResult result;
};

/// Encode a worker verdict. Bit-exact: two calls with equal inputs produce
/// identical bytes (the distributed journal merge relies on this).
std::string make_result_payload(bool ok, const std::string& what,
                                const RunResult& r);

/// Inverse of make_result_payload. Throws std::runtime_error on truncated or
/// version-mismatched bytes.
ResultPayload parse_result_payload(const std::string& bytes);

// --- pipe framing (executor <-> worker) ------------------------------------
//
// frame = u32 payload_len | u64 fnv1a64(payload) | payload
//
// Both directions of the executor protocol use this frame: pool workers
// stream request frames in and result frames out over long-lived pipes, and
// the socket transport carries the same frames. A process that dies
// mid-write leaves a frame that fails the length or checksum test, which the
// supervisor treats exactly like a signal death.

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
/// persistent worker pipe or socket carries many frames back to back, so
/// extraction is incremental.
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

/// Digest over exactly the RunConfig fields that determine scenario
/// construction and the initial (pre-first-frame) ADS state — run_seed and
/// both fault plans are deliberately excluded (they only matter once the run
/// loop starts). Keys the CheckpointStore's tick-0 setup tier (the PR-5 warm
/// cache). In-memory key only: never persisted, free to evolve.
std::uint64_t checkpoint_setup_digest(const RunConfig& cfg);

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
