// Per-layer measurement from outside the program: every number here comes
// from timing or counting calls into a layer's public functions, never from
// spans inside the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "campaign/driver.h"
#include "campaign/executor.h"
#include "core/threshold_lut.h"

namespace perfbench {

/// Samples from replaying fault-free runs tick by tick through the public
/// sim / sensors / core / agent APIs.
struct TickLayers {
  std::vector<double> world_step_us;
  std::vector<double> capture_us;
  std::vector<double> ads_step_us;
  std::vector<double> detector_ns;
  std::vector<double> act_us;         ///< SensorimotorAgent::act on captured frames
  std::vector<double> perception_us;  ///< Perception::process on captured frames
  std::uint64_t ticks = 0;
  std::uint64_t gpu_instr = 0;  ///< engine deltas across AdsSystem::step
  std::uint64_t cpu_instr = 0;
  double ads_step_ns = 0.0;     ///< summed AdsSystem::step time
  std::size_t runs = 0;
  double loop_sec = 0.0;        ///< wall time of the replayed tick loops
};

/// Replays `cfg` (a fault-free config: no plan, no online detector, safe-stop
/// policy) as run_experiment's tick loop, timing World::step,
/// SensorRig::capture, AdsSystem::step and ErrorDetector::observe (fed the
/// observation stream, as an observer that never engages a failback). Every
/// `frame_stride`-th frame is then replayed through a fresh Perception and
/// SensorimotorAgent. Returns false, with `why`, unless the trajectory,
/// observation stream, step count and instruction totals equal `reference`
/// (run_experiment's result for the same config) byte for byte.
bool replay_tick_loop(const dav::RunConfig& cfg,
                      const dav::RunResult& reference,
                      const dav::ThresholdLut& lut, int frame_stride,
                      TickLayers& out, std::string& why);

/// Result codec and journal costs over a set of results.
struct CodecLayers {
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::vector<double> bytes;
  std::vector<double> append_us;  ///< JournalWriter::append (write + fsync)
};

/// Encodes and decodes each result `rounds` times (the decoded result must
/// re-encode to the same bytes) and appends each encoded payload to a fresh
/// journal at `journal_path`, which is removed afterwards.
bool measure_codec_and_journal(const std::vector<dav::RunResult>& results,
                               int rounds, const std::string& journal_path,
                               CodecLayers& out, std::string& why);

/// Deep checkpoint tier, in-process.
struct CheckpointLayers {
  std::vector<double> miss_run_ms;  ///< first variant of a prefix
  std::vector<double> hit_run_ms;   ///< later variants
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  double blob_bytes = 0.0;
  std::uint64_t deep_hits = 0;
  std::uint64_t deep_misses = 0;
  /// Checkpointed results, in variant order (serialize_run_result).
  std::vector<std::string> results;
};

/// Runs the variants of each group in order through run_experiment(cfg,
/// &store) with one CheckpointStore per group (so the first variant of a
/// group misses and the later ones may hit), then times
/// deserialize/serialize_run_checkpoint on a stored blob. The last variant of
/// the first group must equal its straight-through run byte for byte, and a
/// decoded blob must re-encode to the same bytes.
bool probe_checkpoint(const std::vector<std::vector<dav::RunConfig>>& groups,
                      CheckpointLayers& out, std::string& why);

/// Executor telemetry summed over batches.
struct ExecutorLayers {
  int jobs = 1;
  double wall_sec = 0.0;      ///< summed batch wall time
  double busy_sec = 0.0;      ///< summed slot busy seconds
  double span_sec = 0.0;      ///< summed WorkerSpan::dur_sec
  std::size_t runs = 0;       ///< completed attempts
  int launched = 0;
  int respawns = 0;
  int retries = 0;
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t checkpoint_misses = 0;

  void add(const dav::ExecutorStats& s);
};

/// Prints and records every per-layer metric.
void report_per_layer(const TickLayers& tick, const CodecLayers& codec,
                      const CheckpointLayers& ckpt, const ExecutorLayers& exec,
                      double untraced_runs_per_s, double traced_runs_per_s,
                      Report& rep);

/// K sensor-fault variants of one instance: same scenario, run_seed and
/// onset tick, fusion on (LiDAR captured); only the sensor-fault plan
/// differs, so every variant shares the fault-free prefix up to the onset.
std::vector<dav::RunConfig> sensor_variants(const dav::RunConfig& instance,
                                            int k, int onset_tick,
                                            std::uint64_t seed);

}  // namespace perfbench
