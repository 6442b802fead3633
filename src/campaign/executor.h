// Process-isolated, journaled, resumable campaign execution.
//
// Injected faults produce crashes and hangs by design, and at campaign scale
// the harness itself must survive them (AVFI and the Bayesian-FI follow-up
// treat this as first-class infrastructure). CampaignExecutor::run_all is the
// one dispatch loop every campaign goes through: it owns the plan queue,
// attempts with capped backoff, retry-or-quarantine, the write-ahead journal
// (journal.h), first-result-wins dedup by plan index, telemetry folding and
// the live metrics snapshot. Where a run executes is a *slot source*:
//
//  - jobs == 0 (and every non-POSIX host): one slot in this process. A run
//    that throws becomes a failed attempt; no watchdog or rlimits.
//  - jobs == N: a persistent prefork pool of N sandboxed workers
//    (PoolSupervisor). Each worker streams RunConfigs in and checksummed
//    result records out, keeps a CheckpointStore (campaign/checkpoint.h) so
//    runs sharing a scenario skip setup replay, and is replaced when it dies
//    by signal, rlimit or the wall-clock watchdog.
//  - workers non-empty: remote worker daemons (transport.h) with handshake,
//    heartbeat, reconnect and straggler copies.
//
// Every source yields the same result bytes, merged by plan index, so a
// pooled, resumed, distributed or in-process sweep of the same configs is
// bit-identical; quarantined runs still complete the sweep as kHarnessError
// records naming the offending seed and FaultPlan.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "campaign/driver.h"
#include "util/trace.h"

namespace dav {

struct ExecutorOptions {
  /// Longest duration any seconds-valued option may hold. Far inside
  /// steady_clock's range, so `now + duration` can never overflow.
  static constexpr double kMaxSeconds = 1e9;
  /// Largest MiB count whose byte count (MiB << 20) fits a size_t.
  static constexpr std::size_t kMaxMiB =
      std::numeric_limits<std::size_t>::max() >> 20;

  /// Worker processes: 0 runs every attempt in this process, N forks a pool
  /// of N sandboxed workers.
  int jobs = 1;
  /// Fork-point checkpoint sharing (DAV_CHECKPOINT / davcamp --checkpoint):
  /// force cfg.checkpoint.enabled for every dispatched run, so workers
  /// capture a RunCheckpoint at each run's injection onset and variants that
  /// share the fault-free prefix restore it instead of replaying the prefix.
  /// Also turns on prefix-affinity scheduling (variants of one prefix go to
  /// the same worker). Never changes results — byte-identity is test-pinned.
  bool checkpoint = false;
  /// Per-worker deep-checkpoint byte budget, MiB (DAV_CHECKPOINT_MAX_MB).
  /// Oldest entries are evicted past the budget. 0 disables the deep tier.
  std::size_t checkpoint_max_mb = 64;
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
  /// Remote worker endpoints ("host:port" or "unix:/path", see transport.h).
  /// Non-empty runs the plan on those daemons with work-stealing, straggler
  /// copies and reconnect; `jobs` then sizes nothing on this host.
  std::vector<std::string> workers;
  /// Distributed liveness: a daemon beacons when idle for this long, and the
  /// coordinator declares an endpoint dead after ~3x of silence. Seconds.
  double heartbeat_sec = 5.0;
  /// Straggler deadline: a remote run still in flight after this long is
  /// re-dispatched to another endpoint; the first completed result wins and
  /// duplicates are discarded by plan index. 0 disables re-dispatch.
  double straggler_sec = 0.0;
  /// Live metrics snapshot path (DAV_METRICS / davcamp --metrics): the
  /// executor periodically rewrites this file with a key=value progress
  /// snapshot (runs done/total, runs/sec, ETA, quarantines, endpoint health)
  /// via temp-file + atomic rename, so a reader never sees a torn snapshot.
  /// Empty disables. Observability only — never read back, never part of the
  /// deterministic summary.
  std::string metrics_path;
  /// Minimum seconds between metrics snapshots (DAV_METRICS_INTERVAL_SEC).
  double metrics_interval_sec = 2.0;

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

/// The observability residue of one completed run (util/trace.h RunCapture)
/// tagged with its plan index. Harvested by the in-process slot from the
/// driver's stash, shipped by pool workers inside their response frame, and
/// forwarded by daemons as kTelemetry capture messages — one record per
/// traced, non-replayed run, first arrival wins on re-dispatch duplicates.
struct RunTraceCapture {
  std::uint64_t plan_index = 0;
  obs::RunCapture capture;
};

/// One remote endpoint's merged observability picture, accumulated by the
/// distributed coordinator from kTelemetry aggregates. Wall-clock telemetry
/// only; pid assignment in the fleet trace is by `index` (plan order of
/// opts.workers), so the merged trace layout is stable for a given campaign.
struct EndpointTelemetry {
  std::string spec;            ///< endpoint text, for labeling
  int index = 0;               ///< position in opts.workers (pid = index + 1)
  std::string state;           ///< last known: connecting/ready/failed/...
  std::uint32_t slots = 0;     ///< pool slots advertised in kHelloAck
  std::uint64_t runs_done = 0; ///< results accepted from this endpoint
  int reconnects = 0;
  /// Daemon steady clock minus coordinator steady clock, from the handshake
  /// timestamp exchange (NTP-style midpoint estimate). Seconds.
  double clock_offset_sec = 0.0;
  /// Daemon pool epoch mapped onto the coordinator timeline, relative to
  /// run_all entry: add to a daemon span's start_sec to place it.
  double base_sec = 0.0;
  // Cumulative daemon-side pool counters (latest aggregate wins).
  std::uint64_t launched = 0;
  std::uint64_t respawns = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t signal_deaths = 0;
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t checkpoint_misses = 0;
  std::uint64_t checkpoint_evictions = 0;
  std::uint64_t trace_dropped = 0;
  obs::StageHistogramSet histograms;  ///< cumulative across runs served
  std::vector<WorkerSpan> spans;      ///< daemon slot spans, daemon-relative
};

struct ExecutorStats {
  int launched = 0;       ///< worker processes forked
  int journal_hits = 0;   ///< runs skipped because the journal had them
  int retries = 0;        ///< re-executions of failed attempts
  int signal_deaths = 0;  ///< workers that died to a signal (not the watchdog)
  int timeouts = 0;       ///< workers killed by the wall-clock watchdog
  int quarantined = 0;    ///< runs recorded as final kHarnessError
  std::uint64_t torn_bytes_discarded = 0;  ///< from the journal's torn tail

  // Pool lifecycle (zero in-process and distributed).
  int pool_workers = 0;   ///< persistent workers forked at batch start
  int respawns = 0;       ///< replacement workers forked after a death
  /// CheckpointStore reuse counters, summed across workers: hits/misses over
  /// both tiers (tick-0 setup + deep fork-point restores), plus deep-tier
  /// budget evictions. In-process mode counts the executor-owned store.
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t checkpoint_misses = 0;
  std::uint64_t checkpoint_evictions = 0;

  // Distributed-coordinator lifecycle (zero otherwise). In distributed mode
  // the per-slot vectors below are per-endpoint instead of per-process.
  int remote_endpoints = 0;    ///< worker endpoints this batch dispatched to
  int reconnects = 0;          ///< re-handshakes after a connection drop
  int redispatches = 0;        ///< straggler copies sent to another endpoint
  int duplicate_discards = 0;  ///< redundant results dropped by plan index

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
  std::vector<EndpointTelemetry> endpoints;  ///< distributed mode only
};

/// The kHarnessError placeholder for a run that could not produce a result:
/// carries the identity (scenario, mode, fault plan, seed, dt) so summaries
/// and quarantine reports still name the offending run.
RunResult harness_error_result(const RunConfig& cfg);

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
  /// Fold one run's trace residue into stats_ (first arrival wins per plan
  /// index — re-dispatch duplicates and retries are discarded, mirroring the
  /// result dedup).
  void fold_capture(RunTraceCapture cap);
  /// Live metrics snapshot (opts_.metrics_path, atomic rename). Rate-limited
  /// by metrics_interval_sec unless `force` (batch end / final state).
  /// Per-endpoint lines derive from stats_.endpoints in distributed mode.
  void write_metrics_snapshot(std::size_t total, std::size_t done, bool force);

  ExecutorOptions opts_;
  CheckpointRunFn fn_;
  std::vector<RunQuarantine> quarantined_;
  ExecutorStats stats_;
  /// run_all entry instant: the zero of the WorkerSpan timeline.
  std::chrono::steady_clock::time_point batch_start_{};
  /// Plan indices whose capture was already folded (dedup).
  std::unordered_set<std::uint64_t> capture_seen_;
  /// Last metrics snapshot write, for interval rate limiting.
  std::chrono::steady_clock::time_point last_metrics_{};
};

/// Event-driven supervisor over the persistent prefork worker pool: the
/// executor's local slot source, and what the socket worker daemon
/// (transport.h) hosts. Lazily forked long-lived workers, checksummed
/// request/response framing, per-run CPU-budget re-arm, a wall-clock
/// watchdog, death diagnosis and respawn accounting. Policy stays with the
/// caller: retries, backoff, journaling and result merging all consume the
/// Completion records this class emits. POSIX only — constructing one on a
/// non-POSIX host throws.
class PoolSupervisor {
 public:
  /// One finished dispatch. `ok` means a complete, checksummed response
  /// frame arrived; `result_payload` then holds the embedded result payload
  /// (parse_result_payload — which may itself carry a workload failure).
  /// !ok is a worker death — crash, watchdog timeout, corrupt stream — with
  /// the diagnosis in `what`.
  struct Completion {
    std::size_t index = 0;
    int attempt = 0;
    int slot = 0;
    bool ok = false;
    std::string what;
    std::string result_payload;
    /// Encoded RunTraceCapture blob (transport.h encode_run_capture), empty
    /// when the run was untraced. Rides the response frame OUTSIDE the
    /// result payload, so journal bytes are unchanged by tracing.
    std::string capture_payload;
    double start_sec = 0.0;  ///< relative to the epoch; telemetry only
    double dur_sec = 0.0;
  };
  /// Lifecycle + checkpoint counters, folded into ExecutorStats by callers.
  struct Telemetry {
    int launched = 0;
    int pool_workers = 0;  ///< first-wave spawns (before any worker death)
    int respawns = 0;      ///< replacement spawns (after a death)
    int timeouts = 0;
    int signal_deaths = 0;
    std::uint64_t checkpoint_hits = 0;
    std::uint64_t checkpoint_misses = 0;
    std::uint64_t checkpoint_evictions = 0;
  };

  /// `epoch` anchors Completion::start_sec (run_all entry, or daemon session
  /// start). Validates `opts`.
  PoolSupervisor(const ExecutorOptions& opts,
                 CampaignExecutor::CheckpointRunFn fn,
                 std::chrono::steady_clock::time_point epoch);
  /// SIGKILLs and reaps any still-live workers; in-flight runs are dropped
  /// (the daemon relies on this when its coordinator disconnects — the
  /// coordinator requeues them).
  ~PoolSupervisor();
  PoolSupervisor(const PoolSupervisor&) = delete;
  PoolSupervisor& operator=(const PoolSupervisor&) = delete;

  int slots() const;  ///< max concurrent workers (max(1, opts.jobs))
  int busy() const;   ///< dispatches currently in flight
  /// An idle live worker exists, or a replacement can still be forked.
  bool can_dispatch() const;
  /// Send one run to an idle worker (forking one if needed). Only valid when
  /// can_dispatch(); `attempt` is echoed back on the Completion. `affinity`
  /// is an opaque grouping key (the run's prefix digest under checkpointing):
  /// an idle worker that last ran the same key is preferred, so variants of
  /// one fault-free prefix land on the worker that holds its checkpoint.
  void dispatch(std::size_t index, int attempt, const RunConfig& cfg,
                std::uint64_t affinity = 0);
  /// Pump the event loop once: wait up to `max_wait_ms` for response bytes,
  /// drain complete frames, enforce watchdog deadlines, reap deaths, and
  /// append finished dispatches to `out`. When `extra_fd` >= 0 it joins the
  /// poll set and *extra_readable reports whether it has data (or EOF)
  /// pending — the daemon multiplexes its coordinator socket this way.
  void pump(int max_wait_ms, std::vector<Completion>& out, int extra_fd = -1,
            bool* extra_readable = nullptr);
  /// Clean shutdown: close request pipes (workers read EOF and exit), reap.
  /// Call with busy() == 0; any dispatch still in flight is dropped.
  void shutdown();
  const Telemetry& telemetry() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dav
