// Process-isolated, journaled, resumable campaign execution.
//
// Injected faults produce crashes and hangs by design, and at campaign scale
// the harness itself must survive them (AVFI and the Bayesian-FI follow-up
// treat this as first-class infrastructure). CampaignExecutor::run_all is the
// one dispatch loop every campaign goes through: it owns the plan queue,
// attempts with capped backoff, retry-or-quarantine, the write-ahead journal
// (journal.h) and telemetry folding. Where a run executes is a *slot source*:
//
//  - jobs == 0 (and every non-POSIX host): one slot in this process. A run
//    that throws becomes a failed attempt; no watchdog or rlimits.
//  - jobs == N: a persistent prefork pool of up to N sandboxed workers. Each
//    worker streams RunConfigs in and checksummed result records out, keeps a
//    CheckpointStore (campaign/checkpoint.h) so checkpointed variants sharing
//    a fault-free prefix skip it, and is replaced when it dies by signal,
//    rlimit or the wall-clock watchdog.
//
// Both sources yield the same result bytes, merged by plan index, so a
// pooled, resumed or in-process sweep of the same configs is bit-identical;
// quarantined runs still complete the sweep as kHarnessError records naming
// the offending seed and FaultPlan.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "campaign/driver.h"
#include "campaign/serialize.h"
#include "util/trace.h"

namespace dav {

struct ExecutorOptions {
  /// Longest duration any seconds-valued option may hold. Far inside
  /// steady_clock's range, so `now + duration` can never overflow.
  static constexpr double kMaxSeconds = 1e9;
  /// Largest MiB count whose byte count (MiB << 20) fits a size_t.
  static constexpr std::size_t kMaxMiB =
      std::numeric_limits<std::size_t>::max() >> 20;

  /// Worker processes: 0 (the default) runs every attempt in this process,
  /// N forks a pool of up to N sandboxed workers (never more than the batch
  /// has runs).
  int jobs = 0;
  /// Fork-point checkpoint sharing (DAV_CHECKPOINT): force
  /// cfg.checkpoint.enabled for every dispatched run, so workers capture a
  /// RunCheckpoint at each run's fork tick and variants that share the
  /// fault-free prefix restore it instead of replaying the prefix. Also
  /// turns on prefix-affinity scheduling (variants of one prefix go to the
  /// same worker). Never changes results — byte-identity is test-pinned.
  bool checkpoint = false;
  /// Wall-clock watchdog per run attempt; a worker still alive past this is
  /// SIGKILLed and quarantined.
  double run_timeout_sec = 600.0;
  /// RLIMIT_CPU for each worker, seconds. 0 disables the limit.
  double cpu_limit_sec = 0.0;
  /// RLIMIT_AS for each worker, MiB. 0 disables the limit. (Leave 0 under
  /// AddressSanitizer: ASan reserves terabytes of virtual address space.)
  std::size_t address_space_mb = 0;
  /// Re-execution attempts for a failed run before it is recorded as a
  /// final kHarnessError.
  int max_retries = 1;
  /// Base delay before a retry; doubles per attempt.
  double retry_backoff_sec = 0.25;
  /// Write-ahead journal path; empty disables journaling.
  std::string journal_path;
  /// Binds the journal to one campaign configuration (see journal.h).
  std::uint64_t campaign_fingerprint = 0;

  /// Throws std::invalid_argument naming the field on nonsensical values,
  /// including seconds past kMaxSeconds and MiB counts past kMaxMiB.
  void validate() const;
};

/// A run the executor had to give up on, with the offending config (seed and
/// fault plan included) and a diagnosis: the exception text, the death
/// signal, or the watchdog timeout.
struct RunQuarantine {
  std::size_t index = 0;  ///< position in the submitted config list
  RunConfig cfg;
  std::string what;
};

/// One completed worker attempt on the campaign timeline. Wall-clock,
/// relative to run_all entry — telemetry only, never part of the
/// deterministic summary.
struct WorkerSpan {
  std::size_t index = 0;  ///< position in the submitted config list
  int slot = 0;           ///< worker slot, 0..jobs-1 (Perfetto pid = slot+1)
  int attempt = 0;        ///< 0 = first execution, >0 = retry
  double start_sec = 0.0;
  double dur_sec = 0.0;
};

struct ExecutorStats {
  int launched = 0;       ///< worker processes forked
  int journal_hits = 0;   ///< runs skipped because the journal had them
  int retries = 0;        ///< re-executions of failed attempts
  int signal_deaths = 0;  ///< workers that died to a signal (not the watchdog)
  int timeouts = 0;       ///< workers killed by the wall-clock watchdog
  int quarantined = 0;    ///< runs recorded as final kHarnessError
  std::uint64_t torn_bytes_discarded = 0;  ///< from the journal's torn tail

  // Pool lifecycle (zero in-process).
  int pool_workers = 0;   ///< persistent workers forked at batch start
  int respawns = 0;       ///< replacement workers forked after a death
  /// CheckpointStore counters, summed across workers: fork-point lookups
  /// that restored a prefix (hits) or found none (misses), plus byte-budget
  /// evictions. In-process mode counts the executor-owned store.
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t checkpoint_misses = 0;
  std::uint64_t checkpoint_evictions = 0;

  // Telemetry (wall-clock; surfaced on stderr by davcamp, exported as the
  // campaign trace — deliberately absent from the deterministic summary).
  int jobs = 1;                      ///< worker slots used for this batch
  double wall_sec = 0.0;             ///< run_all wall time
  int journal_appends = 0;           ///< records written to the journal
  std::uint64_t journal_bytes = 0;   ///< payload bytes appended
  std::vector<double> slot_busy_sec; ///< busy seconds per worker slot
  std::vector<int> slot_runs_served; ///< runs completed per worker slot
  std::vector<WorkerSpan> spans;     ///< completed attempts, timeline order

  // Trace telemetry (only populated when runs trace, i.e. DAV_TRACE).
  std::uint64_t trace_dropped = 0;    ///< ring evictions across all runs
  obs::StageHistogramSet stage_hist;  ///< merged per-stage span histograms
  std::vector<RunTraceCapture> captures;  ///< per-run residue, arrival order
};

/// The kHarnessError placeholder for a run that could not produce a result:
/// carries the identity (scenario, mode, fault plan, seed, dt) so summaries
/// and quarantine reports still name the offending run.
RunResult harness_error_result(const RunConfig& cfg);

/// Capped exponential backoff with deterministic seeded jitter, the delay
/// before a retry: base * 2^min(attempt,16), capped at cap_sec, scaled by a
/// jitter factor in [0.75, 1.25) derived from fnv1a64(salt, attempt). Pure —
/// the same (base, attempt, salt) always yields the same delay — so retry
/// schedules are replayable, yet retries keyed by different salts (run
/// digests) never synchronize into thundering herds.
double backoff_delay_sec(double base_sec, int attempt, std::uint64_t salt,
                         double cap_sec = 60.0);

class CampaignExecutor {
 public:
  /// The work function, executed inside the worker. Defaults to
  /// run_experiment; tests substitute functions that crash, hang, or abort
  /// to exercise the sandbox.
  using RunFn = std::function<RunResult(const RunConfig&)>;
  /// Store-aware work function: the second argument is the worker's
  /// CheckpointStore. MUST return the same result with and without the store.
  using CheckpointRunFn =
      std::function<RunResult(const RunConfig&, CheckpointStore*)>;

  /// Throws std::invalid_argument when `opts` is nonsensical.
  explicit CampaignExecutor(ExecutorOptions opts, RunFn fn = {});
  CampaignExecutor(ExecutorOptions opts, CheckpointRunFn fn);

  /// Execute every config with journal resume. Returns one result per config
  /// in submission order (quarantined runs included as kHarnessError
  /// placeholders, never dropped). Deterministic: the result vector is
  /// bit-identical whatever slot source ran it.
  std::vector<RunResult> run_all(const std::vector<RunConfig>& cfgs);

  /// Final quarantines of the last run_all, sorted by config index.
  const std::vector<RunQuarantine>& quarantined() const {
    return quarantined_;
  }
  const ExecutorStats& stats() const { return stats_; }

 private:
  /// Fold the trace residue of the attempt that settled a run into stats_.
  void fold_capture(const std::string& capture_payload);

  ExecutorOptions opts_;
  CheckpointRunFn fn_;
  std::vector<RunQuarantine> quarantined_;
  ExecutorStats stats_;
  /// run_all entry instant: the zero of the WorkerSpan timeline.
  std::chrono::steady_clock::time_point batch_start_{};
};

}  // namespace dav
