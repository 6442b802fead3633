// Fork-point checkpoints: snapshot a run at its injection onset, share the
// fault-free prefix across every variant of a campaign (DESIGN.md §16).
//
// A fault-injection sweep varies ONLY the fault plan: every variant simulates
// the same world, the same noise streams and the same agents up to the
// injection tick, then diverges. A pool worker simulates the prefix once,
// captures the complete dynamic state — world actors, both agents, detector,
// recovery FSM, every RNG stream — and restores it per variant, running only
// the post-injection suffix. Only clean prefixes are kept: a checkpoint that
// no sibling can restore is never stored.
//
// The contract is byte-identity, not approximation: a restored run's
// RunResult equals the straight-through run's byte for byte (pinned across
// in-process and pool execution by test_checkpoint / test_executor). That is
// why checkpoints carry order-dependent float accumulators verbatim and why
// nothing config-derived (maps, LUTs, plans, models) is ever serialized —
// restored runs rebuild those from their own RunConfig.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "campaign/driver.h"
#include "sensors/sensor_rig.h"

namespace dav {

/// Bumped whenever the RunCheckpoint encoding changes. Checkpoints live in
/// one worker's memory and never cross a process or version boundary, but
/// the version check turns a stale blob into a loud error, not a misparse.
inline constexpr std::uint32_t kRunCheckpointVersion = 2;

/// Complete dynamic state of a clean run_experiment prefix at the top of one
/// tick: no DUE, no failback, no activated or corrupting fault, recovery FSM
/// nominal and detector quiet. Every field a variant could observe is here.
/// Configuration is deliberately absent, and so is the sensor-fault
/// injector: a clean prefix corrupted nothing, so the restoring variant's
/// fresh injector behaves identically (the one frame it never saw rides in
/// `cameras`).
struct RunCheckpoint {
  int tick = 0;

  // --- subsystem state -----------------------------------------------------
  WorldState world;
  SensorRig::RngState rig;
  EngineState gpu0;
  EngineState cpu0;
  EngineState gpu1;
  EngineState cpu1;
  AdsState ads;
  bool has_detector = false;
  DetectorState detector;
  bool has_recovery = false;
  RecoveryState recovery;

  // --- driver loop locals --------------------------------------------------
  // The failback and corruption-trace locals still hold their initial values
  // in a clean prefix, so they are not carried.
  Actuation last_applied;
  double stationary_sec = 0.0;

  /// The RunResult as accumulated through tick-1 (observations, traces, DUE
  /// bookkeeping), in the canonical record encoding. A restored run swaps in
  /// its own fault plans and keeps appending.
  std::string partial_result;

  /// Post-noise camera frames captured at tick-1 (left, center, right).
  /// Needed for exactly one cross-variant case: a kCameraFrozen plan whose
  /// onset IS the restore tick must freeze the last pre-onset frame, which
  /// the variant's fresh injector never saw.
  bool has_cameras = false;
  std::array<std::vector<std::uint8_t>, 3> cameras;
};

/// Canonical byte encoding (ByteWriter discipline: little-endian, bit-exact
/// floats). Two equal checkpoints serialize identically.
std::string serialize_run_checkpoint(const RunCheckpoint& c);
/// Inverse. Throws std::runtime_error on truncation, trailing garbage, or a
/// version mismatch.
RunCheckpoint deserialize_run_checkpoint(const std::string& bytes);

/// The tick a run forks at: CheckpointOptions::capture_tick when set, else
/// the sensor-fault onset, else -1 (register sweeps have no static onset
/// tick, so they capture nothing). run_experiment captures there, and the
/// executor groups dispatch by the prefix digest at that tick.
int fork_tick(const RunConfig& cfg);

/// Per-worker store of clean fork-point checkpoints, keyed by (prefix
/// digest, tick) and filled only by cfg.checkpoint.enabled runs. Variants
/// that share the run_seed and differ only in their fault plan restore the
/// deepest eligible entry and skip the whole prefix.
///
/// Blobs are byte-bounded by a fixed 64 MiB budget (set_max_deep_bytes is
/// the test seam): inserting past it evicts oldest-first (deterministic
/// FIFO), counted in evictions().
class CheckpointStore {
 public:
  struct DeepEntry {
    std::uint64_t prefix_digest = 0;  ///< run_config_prefix_digest at `tick`
    int tick = 0;
    /// Dynamic instruction totals of engine set 0 at capture: gates transient
    /// variants (a strike below these totals would already have landed).
    std::uint64_t gpu0_total = 0;
    std::uint64_t cpu0_total = 0;
    std::string blob;  ///< serialize_run_checkpoint
  };

  /// Deepest entry cfg may restore, or nullptr. Eligibility: cfg's prefix
  /// digest at the entry's tick must equal the entry's, and a transient
  /// register plan must target a dynamic instruction at or past the captured
  /// totals. Counts one deep hit or miss.
  const DeepEntry* find_deep(const RunConfig& cfg);
  /// Store one checkpoint; evicts oldest entries past the byte budget.
  void insert_deep(DeepEntry e);

  /// Shrinking below the current footprint evicts immediately.
  void set_max_deep_bytes(std::size_t bytes);
  std::size_t deep_bytes() const { return deep_bytes_; }
  std::size_t deep_count() const { return deep_.size(); }

  std::uint64_t deep_hits() const { return deep_hits_; }
  std::uint64_t deep_misses() const { return deep_misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  void evict_to_budget();

  std::deque<DeepEntry> deep_;  // FIFO for eviction
  std::size_t deep_bytes_ = 0;
  std::size_t max_deep_bytes_ = 64u * 1024u * 1024u;
  std::uint64_t deep_hits_ = 0;
  std::uint64_t deep_misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dav
