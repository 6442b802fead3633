#include "campaign/executor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define DAV_EXECUTOR_POSIX 1
#include <csignal>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "campaign/checkpoint.h"
#include "campaign/journal.h"
#include "campaign/serialize.h"
#include "campaign/transport.h"
#include "obs/export.h"
#include "util/bits.h"

namespace dav {

namespace {

using Clock = std::chrono::steady_clock;
using Completion = PoolSupervisor::Completion;

double elapsed_sec(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Seconds as a steady_clock duration. Every value reaching here is bounded
/// by ExecutorOptions::kMaxSeconds (validate) or by backoff_delay_sec's cap,
/// so the cast cannot overflow.
Clock::duration to_duration(double sec) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(sec));
}

/// Milliseconds from `now` until `wake`, at least 1: a poll/sleep timeout.
int ms_until(Clock::time_point now, Clock::time_point wake) {
  return static_cast<int>(std::max<std::int64_t>(
      1, std::chrono::duration_cast<std::chrono::milliseconds>(wake - now)
             .count()));
}

// ---- wire format ----------------------------------------------------------
//
// Frames (serialize.h: u32 len | u64 fnv1a64 | payload) carry a pool request
// one way and a pool response the other. The response embeds the plain
// result payload (serialize.h: u8 ok | [str what] | serialized RunResult)
// verbatim, so the journaled record is byte-compatible across in-process,
// pool and distributed runs. `capture` is an encoded RunTraceCapture
// (transport.h) — the run's trace residue — or empty when the run was
// untraced; it rides OUTSIDE the result payload, so journal bytes never depend
// on tracing. Both layouts stay inside one process tree and are never
// persisted.
//
// A worker that dies mid-write leaves a frame that fails the length or
// checksum test; the supervisor treats that exactly like a signal death.

struct PoolRequest {
  std::uint64_t index = 0;
  std::string config;  ///< serialize_run_config
};

template <class A>
void io(A& a, PoolRequest& r) {
  a.u64(r.index);
  a.rest(r.config);
}

struct PoolResponse {
  std::uint64_t index = 0;
  // The worker's CheckpointStore counters, cumulative over its life.
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t checkpoint_misses = 0;
  std::uint64_t checkpoint_evictions = 0;
  std::string capture;
  std::string result_payload;
};

template <class A>
void io(A& a, PoolResponse& r) {
  a.u64(r.index);
  a.u64(r.checkpoint_hits);
  a.u64(r.checkpoint_misses);
  a.u64(r.checkpoint_evictions);
  a.str(r.capture);
  a.rest(r.result_payload);
}

/// A worker's CheckpointStore. The setup tier is always on; the deep tier
/// fills only for checkpoint-enabled runs, within checkpoint_max_mb.
std::unique_ptr<CheckpointStore> make_store(const ExecutorOptions& opts) {
  auto store = std::make_unique<CheckpointStore>();
  store->set_max_deep_bytes(opts.checkpoint_max_mb << 20);
  return store;
}

/// Fold the executor-level checkpoint flag into the per-run config. The
/// CheckpointOptions are digest-excluded, so journal keys and record bytes
/// are unchanged by this.
RunConfig effective_config(const RunConfig& cfg, const ExecutorOptions& opts) {
  if (!opts.checkpoint || cfg.checkpoint.enabled) return cfg;
  RunConfig c = cfg;
  c.checkpoint.enabled = true;
  return c;
}

/// Prefix-affinity key for dispatch: the run's prefix digest at its capture
/// target, so fault variants that share a fault-free prefix group onto one
/// worker (the one holding the checkpoint). 0 when the run has no capture
/// target (then affinity cannot help).
std::uint64_t dispatch_affinity(const RunConfig& cfg,
                                const ExecutorOptions& opts) {
  if (!opts.checkpoint && !cfg.checkpoint.enabled) return 0;
  const int target = cfg.checkpoint.capture_tick >= 0
                         ? cfg.checkpoint.capture_tick
                         : (cfg.sensor_fault.active() ? cfg.sensor_fault.onset_tick
                                                      : -1);
  if (target < 0) return 0;
  return run_config_prefix_digest(cfg, target);
}

}  // namespace

RunResult harness_error_result(const RunConfig& cfg) {
  RunResult r;
  r.scenario = cfg.scenario;
  r.mode = cfg.mode;
  r.fault = cfg.fault;
  r.run_seed = cfg.run_seed;
  r.dt = cfg.dt;
  r.outcome = FaultOutcome::kHarnessError;
  return r;
}

void ExecutorOptions::validate() const {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("ExecutorOptions: " + what);
  };
  // Written as !(in range) so NaN fails too.
  const auto seconds = [&](const char* field, double v, bool allow_zero) {
    if ((allow_zero ? v >= 0.0 : v > 0.0) && v <= kMaxSeconds) return;
    reject(std::string(field) + " must be " +
           (allow_zero ? "non-negative" : "positive") + " and at most " +
           std::to_string(kMaxSeconds) + " s, got " + std::to_string(v));
  };
  const auto mib = [&](const char* field, std::size_t v) {
    if (v > kMaxMiB) {
      reject(std::string(field) + " of " + std::to_string(v) +
             " MiB overflows a byte count (at most " +
             std::to_string(kMaxMiB) + ")");
    }
  };
  if (jobs < 0) {
    reject("jobs must be non-negative, got " + std::to_string(jobs));
  }
  if (max_retries < 0) {
    reject("max_retries must be non-negative, got " +
           std::to_string(max_retries));
  }
  seconds("run_timeout_sec", run_timeout_sec, false);
  seconds("retry_backoff_sec", retry_backoff_sec, true);
  seconds("cpu_limit_sec", cpu_limit_sec, true);
  seconds("heartbeat_sec", heartbeat_sec, false);
  seconds("straggler_sec", straggler_sec, true);
  seconds("metrics_interval_sec", metrics_interval_sec, false);
  mib("address_space_mb", address_space_mb);
  mib("checkpoint_max_mb", checkpoint_max_mb);
  for (const std::string& spec : workers) {
    try {
      parse_endpoint(spec);
    } catch (const std::invalid_argument& e) {
      reject(std::string("workers entry is not an endpoint: ") + e.what());
    }
  }
}

CampaignExecutor::CampaignExecutor(ExecutorOptions opts, RunFn fn)
    : CampaignExecutor(
          std::move(opts),
          fn ? CheckpointRunFn([f = std::move(fn)](
                                   const RunConfig& c,
                                   CheckpointStore*) { return f(c); })
             : CheckpointRunFn{}) {}

CampaignExecutor::CampaignExecutor(ExecutorOptions opts, CheckpointRunFn fn)
    : opts_(std::move(opts)),
      fn_(fn ? std::move(fn)
             : CheckpointRunFn([](const RunConfig& c, CheckpointStore* s) {
                 return run_experiment(c, s);
               })) {
  opts_.validate();
}

void CampaignExecutor::fold_capture(RunTraceCapture cap) {
  if (!cap.capture.valid) return;
  // First arrival wins: a straggler re-dispatch or retry of an already-folded
  // plan index is discarded, mirroring the result dedup.
  if (!capture_seen_.insert(cap.plan_index).second) return;
  stats_.trace_dropped += cap.capture.dropped;
  stats_.stage_hist.merge(cap.capture.histograms);
  stats_.captures.push_back(std::move(cap));
}

void CampaignExecutor::write_metrics_snapshot(std::size_t total,
                                              std::size_t done, bool force) {
  if (opts_.metrics_path.empty()) return;
  const Clock::time_point now = Clock::now();
  if (!force && last_metrics_ != Clock::time_point{} &&
      elapsed_sec(last_metrics_, now) < opts_.metrics_interval_sec) {
    return;
  }
  last_metrics_ = now;

  const double elapsed = elapsed_sec(batch_start_, now);
  // Journal replays resolve instantly; the rate that predicts the ETA is the
  // executed-run rate.
  const std::size_t hits = static_cast<std::size_t>(
      std::max(0, stats_.journal_hits));
  const std::size_t executed = done > hits ? done - hits : 0;
  const double rate = elapsed > 0.0 ? static_cast<double>(executed) / elapsed
                                    : 0.0;
  double eta = -1.0;
  if (done >= total) {
    eta = 0.0;
  } else if (rate > 0.0) {
    eta = static_cast<double>(total - done) / rate;
  }

  char buf[256];
  std::string out;
  out.reserve(1024);
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
    out += '\n';
  };
  line("schema=dav.metrics.v1");
  line("phase=%s", done >= total ? "done" : "running");
  line("runs_total=%zu", total);
  line("runs_done=%zu", done);
  line("runs_remaining=%zu", total - std::min(done, total));
  line("journal_hits=%d", stats_.journal_hits);
  line("elapsed_sec=%.3f", elapsed);
  line("runs_per_sec=%.6g", rate);
  line("eta_sec=%.3f", eta);
  line("retries=%d", stats_.retries);
  line("quarantined=%d", stats_.quarantined);
  line("timeouts=%d", stats_.timeouts);
  line("signal_deaths=%d", stats_.signal_deaths);
  line("trace_dropped=%llu",
       static_cast<unsigned long long>(stats_.trace_dropped));
  line("endpoints=%zu", stats_.endpoints.size());
  for (const EndpointTelemetry& ep : stats_.endpoints) {
    line("endpoint.%d.spec=%s", ep.index, ep.spec.c_str());
    line("endpoint.%d.state=%s", ep.index, ep.state.c_str());
    line("endpoint.%d.slots=%u", ep.index, ep.slots);
    line("endpoint.%d.runs_done=%llu", ep.index,
         static_cast<unsigned long long>(ep.runs_done));
    line("endpoint.%d.reconnects=%d", ep.index, ep.reconnects);
  }
  // Atomic temp-file + rename (obs/export.h): a reader never sees a torn or
  // partially-updated snapshot, only the previous or the new one.
  obs::write_text_file(opts_.metrics_path, out);
}

// ---- slot sources ---------------------------------------------------------

namespace {

/// Where run_all's dispatch loop sends runs: PoolSupervisor's dispatch /
/// pump / busy shape, plus the batch-end fold of lifecycle counters. A
/// source reports exactly one Completion per dispatch.
class SlotSource {
 public:
  virtual ~SlotSource() = default;
  virtual int slots() const = 0;
  virtual bool can_dispatch() const = 0;
  virtual void dispatch(std::size_t index, int attempt, const RunConfig& cfg,
                        std::uint64_t affinity) = 0;
  /// Wait up to `max_wait_ms` for progress; append finished attempts.
  virtual void pump(int max_wait_ms, std::vector<Completion>& out) = 0;
  virtual int busy() const = 0;
  /// Batch end: release workers and fold their counters into `stats`.
  virtual void finish(ExecutorStats& stats) = 0;
};

/// One slot in this process (jobs == 0, and every non-POSIX host). The run
/// executes inside pump(); an exception is a failed attempt. There is no
/// watchdog or rlimit: a crash or hang here takes the campaign with it.
class InProcessSource final : public SlotSource {
 public:
  InProcessSource(const ExecutorOptions& opts,
                  CampaignExecutor::CheckpointRunFn fn,
                  Clock::time_point epoch)
      : fn_(std::move(fn)), epoch_(epoch), store_(make_store(opts)) {}

  int slots() const override { return 1; }
  bool can_dispatch() const override { return !queued_; }
  void dispatch(std::size_t index, int attempt, const RunConfig& cfg,
                std::uint64_t) override {
    next_ = Completion{};
    next_.index = index;
    next_.attempt = attempt;
    cfg_ = cfg;
    queued_ = true;
  }
  void pump(int max_wait_ms, std::vector<Completion>& out) override {
    if (!queued_) {  // only backed-off retries remain: wait for one
      std::this_thread::sleep_for(std::chrono::milliseconds(max_wait_ms));
      return;
    }
    queued_ = false;
    const Clock::time_point started = Clock::now();
    Completion& c = next_;
    try {
      c.result_payload =
          make_result_payload(true, {}, fn_(cfg_, store_.get()));
    } catch (const std::exception& e) {
      c.result_payload =
          make_result_payload(false, e.what(), harness_error_result(cfg_));
    }
    c.ok = true;
    // Same-process runs leave their trace residue in the driver's stash.
    obs::RunCapture cap = obs::take_last_run_capture();
    if (cap.valid) {
      c.capture_payload = encode_run_capture(
          RunTraceCapture{static_cast<std::uint64_t>(c.index), std::move(cap)});
    }
    c.start_sec = elapsed_sec(epoch_, started);
    c.dur_sec = elapsed_sec(started, Clock::now());
    out.push_back(std::move(c));
  }
  int busy() const override { return queued_ ? 1 : 0; }
  void finish(ExecutorStats& s) override {
    s.checkpoint_hits += store_->hits() + store_->deep_hits();
    s.checkpoint_misses += store_->misses() + store_->deep_misses();
    s.checkpoint_evictions += store_->evictions();
  }

 private:
  CampaignExecutor::CheckpointRunFn fn_;
  Clock::time_point epoch_;
  std::unique_ptr<CheckpointStore> store_;
  bool queued_ = false;
  Completion next_;
  RunConfig cfg_;
};

}  // namespace

#if DAV_EXECUTOR_POSIX

namespace {

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // supervisor gone; nothing useful left to do
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Death path for a forked worker: the child shares the supervisor's heap,
/// stdio and journal buffers via fork, so everything off the happy path must
/// stick to pre-formatted buffers and raw write(2) — no allocation, no
/// stdio, no unwinding (enforced by davlint's fork-safety rule).
[[noreturn]] void child_panic(const char* note, int code) {
  std::size_t len = 0;
  while (note[len] != '\0') ++len;
  ::write(2, note, len);
  ::_exit(code);
}

/// Pre-formatted SIGXCPU note: the handler may only touch the
/// async-signal-safe allowlist, so the text is fixed at arm time.
constexpr char kXcpuNote[] = "dav-worker: CPU budget exhausted (SIGXCPU)\n";

void xcpu_death_note(int sig) {
  ::write(2, kXcpuNote, sizeof(kXcpuNote) - 1);
  // Die by the signal itself (restore the default action and re-raise) so
  // the supervisor still sees WIFSIGNALED and counts a signal death.
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  ::sigaction(sig, &dfl, nullptr);
  ::raise(sig);
}

/// Arm the SIGXCPU death note in a freshly forked worker, before the CPU
/// rlimit can fire. Registered with sigaction, so davlint's signal-safety
/// rule walks xcpu_death_note's call chain.
void arm_death_note() {
  struct sigaction sa {};
  sa.sa_handler = xcpu_death_note;
  ::sigaction(SIGXCPU, &sa, nullptr);
}

/// Reset the soft CPU limit to (CPU used so far) + budget before each run,
/// so a long-lived worker gets the same per-run CPU budget on every request.
/// Only the soft limit moves (an unprivileged process cannot raise a hard
/// limit once lowered); SIGXCPU kills the worker, which the supervisor
/// quarantines.
void rearm_cpu_limit(const ExecutorOptions& opts) {
  if (opts.cpu_limit_sec <= 0.0) return;
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return;
  const double used =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  const auto soft = static_cast<rlim_t>(used + opts.cpu_limit_sec + 0.999);
  rlimit lim{};
  if (::getrlimit(RLIMIT_CPU, &lim) != 0) return;
  lim.rlim_cur = lim.rlim_max == RLIM_INFINITY
                     ? soft
                     : std::min<rlim_t>(soft, lim.rlim_max);
  ::setrlimit(RLIMIT_CPU, &lim);
}

/// Long-lived pool worker: read request frames off `req_fd` until the
/// supervisor closes it, execute each config through the worker's
/// CheckpointStore, and ship response frames back on `resp_fd`.
[[noreturn]] void pool_worker_main(int req_fd, int resp_fd,
                                   const CampaignExecutor::CheckpointRunFn& fn,
                                   const ExecutorOptions& opts) {
  arm_death_note();
  // The address-space limit applies for the worker's life; the CPU budget
  // is per-run, re-armed before each request (see rearm_cpu_limit).
  if (opts.address_space_mb > 0) {
    const auto bytes = static_cast<rlim_t>(opts.address_space_mb) << 20;
    rlimit lim{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &lim);
  }
  std::unique_ptr<CheckpointStore> store = make_store(opts);
  std::string buf;
  // The request/response codec below allocates, and may: the child is a
  // fresh single-threaded copy of a single-threaded supervisor, so the loop
  // body runs on a consistent heap. Death paths go through child_panic
  // (pre-formatted note + write(2) + _exit only).
  for (;;) {
    const FrameSplit fs = try_unframe(buf);  // davlint: allow(fork-safety) sanctioned request codec
    if (fs.status == FrameSplit::Status::kCorrupt) {
      child_panic("dav-worker: corrupt request frame\n", 3);
    }
    if (fs.status == FrameSplit::Status::kNeedMore) {
      char chunk[65536];
      const ssize_t n = ::read(req_fd, chunk, sizeof(chunk));
      if (n == 0) ::_exit(0);  // request pipe closed: batch complete
      if (n < 0) {
        if (errno == EINTR) continue;
        child_panic("dav-worker: request pipe read error\n", 3);
      }
      buf.append(chunk, static_cast<std::size_t>(n));  // davlint: allow(fork-safety) sanctioned request codec
      continue;
    }
    buf.erase(0, fs.consumed);
    const PoolRequest req = decode_fields<PoolRequest>(fs.payload, "pool request");  // davlint: allow(fork-safety) sanctioned request codec
    rearm_cpu_limit(opts);
    PoolResponse resp;
    resp.index = req.index;
    try {
      const RunConfigRecord rec = deserialize_run_config(req.config);  // davlint: allow(fork-safety) sanctioned workload handoff
      resp.result_payload = make_result_payload(  // davlint: allow(fork-safety) sanctioned workload handoff
          true, {}, fn(effective_config(rec.cfg, opts), store.get()));  // davlint: allow(fork-safety) sanctioned workload handoff
    } catch (const std::exception& e) {
      resp.result_payload =
          make_result_payload(false, e.what(), harness_error_result(RunConfig{}));  // davlint: allow(fork-safety) sanctioned workload handoff
    } catch (...) {
      resp.result_payload = make_result_payload(false, "unknown exception",  // davlint: allow(fork-safety) sanctioned workload handoff
                                    harness_error_result(RunConfig{}));
    }
    // Trace residue stashed by the driver (instants + histograms + drops):
    // ships alongside — never inside — the result payload.
    obs::RunCapture cap = obs::take_last_run_capture();  // davlint: allow(fork-safety) sanctioned response codec
    if (cap.valid) {
      RunTraceCapture rec;
      rec.plan_index = req.index;
      rec.capture = std::move(cap);
      resp.capture = encode_run_capture(rec);  // davlint: allow(fork-safety) sanctioned response codec
    }
    resp.checkpoint_hits = store->hits() + store->deep_hits();
    resp.checkpoint_misses = store->misses() + store->deep_misses();
    resp.checkpoint_evictions = store->evictions();
    write_all(resp_fd, frame_message(encode_fields(resp)));  // davlint: allow(fork-safety) sanctioned response codec
  }
}

int await_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) break;
  }
  return status;
}

std::string describe_death(int status) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = ::strsignal(sig);
    return "worker died: signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  if (WIFEXITED(status)) {
    return "worker exited with code " + std::to_string(WEXITSTATUS(status)) +
           " without a complete result record";
  }
  return "worker ended without a complete result record";
}

/// A supervisor writes into worker pipes (and the distributed coordinator
/// into sockets); a peer that died between dispatches would otherwise turn
/// that write into a fatal SIGPIPE. Ignore it for the guard's lifetime — the
/// failed write surfaces as an EOF on the read side, which requeues the run.
struct SigpipeGuard {
  struct sigaction prev {};
  SigpipeGuard() {
    struct sigaction ign {};
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &prev);
  }
  ~SigpipeGuard() { ::sigaction(SIGPIPE, &prev, nullptr); }
};

}  // namespace

// ---- PoolSupervisor -------------------------------------------------------

/// One persistent worker. Lives until it dies (crash/hang/rlimit) or the
/// batch ends; serves many runs, at most one in flight at a time.
struct PoolSupervisor::Impl {
  struct PoolWorker {
    pid_t pid = -1;
    int req_fd = -1;   // supervisor -> worker: request frames
    int resp_fd = -1;  // worker -> supervisor: response frames
    int slot = 0;
    bool busy = false;
    std::size_t index = 0;  // in-flight run (when busy)
    int attempt = 0;
    std::string buf;  // response bytes accumulated so far
    Clock::time_point started{};
    Clock::time_point deadline{};
    bool timed_out = false;
    // Cumulative counters from the worker's latest response; folded into the
    // telemetry when the worker retires.
    std::uint64_t checkpoint_hits = 0;
    std::uint64_t checkpoint_misses = 0;
    std::uint64_t checkpoint_evictions = 0;
    /// Affinity key of the last dispatched run (see PoolSupervisor::dispatch).
    std::uint64_t affinity = 0;
    bool has_affinity = false;
  };

  ExecutorOptions opts;
  CampaignExecutor::CheckpointRunFn fn;
  Clock::time_point epoch;
  Clock::duration timeout{};
  int jobs = 1;
  int deaths = 0;
  std::vector<PoolWorker> workers;
  std::vector<char> slot_used;
  Telemetry tele;
  // Scratch for telemetry(): live workers report checkpoint counters with
  // each response but only fold into `tele` at retirement; a long-lived pool
  // (serve daemon) must still flush current totals with every aggregate.
  mutable Telemetry tele_snapshot;
  SigpipeGuard sigpipe_guard;

  Impl(const ExecutorOptions& o, CampaignExecutor::CheckpointRunFn f,
       Clock::time_point ep)
      : opts(o), fn(std::move(f)), epoch(ep) {
    opts.validate();
    jobs = std::max(1, opts.jobs);
    timeout = to_duration(opts.run_timeout_sec);
    slot_used.assign(static_cast<std::size_t>(jobs), 0);
  }

  ~Impl() {
    // Hard teardown (daemon connection drop, exception unwind): in-flight
    // runs are dropped; the caller is responsible for requeueing them.
    for (PoolWorker& w : workers) {
      if (w.req_fd >= 0) ::close(w.req_fd);
      ::close(w.resp_fd);
      ::kill(w.pid, SIGKILL);
      await_child(w.pid);
    }
  }

  int claim_slot() {
    for (std::size_t s = 0; s < slot_used.size(); ++s) {
      if (slot_used[s] == 0) {
        slot_used[s] = 1;
        return static_cast<int>(s);
      }
    }
    return 0;  // unreachable: live workers are capped at `jobs`
  }

  int busy_count() const {
    int c = 0;
    for (const PoolWorker& w : workers) {
      if (w.busy) ++c;
    }
    return c;
  }

  bool can_dispatch() const {
    for (const PoolWorker& w : workers) {
      if (!w.busy) return true;
    }
    return static_cast<int>(workers.size()) < jobs;
  }

  void spawn() {
    int req[2] = {-1, -1};
    int resp[2] = {-1, -1};
    if (::pipe(req) != 0 || ::pipe(resp) != 0) {
      throw std::runtime_error(std::string("executor: pipe failed: ") +
                               std::strerror(errno));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (int fd : {req[0], req[1], resp[0], resp[1]}) ::close(fd);
      throw std::runtime_error(std::string("executor: fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      ::close(req[1]);
      ::close(resp[0]);
      pool_worker_main(req[0], resp[1], fn, opts);
    }
    ::close(req[0]);
    ::close(resp[1]);
    PoolWorker w;
    w.pid = pid;
    w.req_fd = req[1];
    w.resp_fd = resp[0];
    w.slot = claim_slot();
    workers.push_back(std::move(w));
    ++tele.launched;
    // First-wave spawns are the pool; spawns after any death are respawns.
    if (deaths == 0) {
      ++tele.pool_workers;
    } else {
      ++tele.respawns;
    }
  }

  void dispatch(std::size_t index, int attempt, const RunConfig& cfg,
                std::uint64_t affinity) {
    // Prefer the idle worker that last ran this affinity key (it holds the
    // prefix checkpoint); a fresh (never-dispatched) idle worker beats one
    // warmed on a different key; spawning is the last resort.
    PoolWorker* idle = nullptr;
    PoolWorker* fresh = nullptr;
    PoolWorker* any = nullptr;
    for (PoolWorker& w : workers) {
      if (w.busy) continue;
      if (any == nullptr) any = &w;
      if (!w.has_affinity && fresh == nullptr) fresh = &w;
      if (affinity != 0 && w.has_affinity && w.affinity == affinity) {
        idle = &w;
        break;
      }
    }
    if (idle == nullptr) idle = affinity != 0 && fresh != nullptr ? fresh : any;
    if (idle == nullptr) {
      if (static_cast<int>(workers.size()) >= jobs) {
        throw std::logic_error("PoolSupervisor: dispatch without capacity");
      }
      spawn();
      idle = &workers.back();
    }
    write_all(idle->req_fd,
              frame_message(encode_fields(
                  PoolRequest{index, serialize_run_config(cfg)})));
    idle->busy = true;
    idle->index = index;
    idle->attempt = attempt;
    idle->affinity = affinity;
    idle->has_affinity = true;
    idle->started = Clock::now();
    idle->deadline = idle->started + timeout;
    idle->timed_out = false;
  }

  /// Handle one complete response frame. Returns false when the worker broke
  /// protocol and must be retired.
  bool on_response(PoolWorker& w, const std::string& payload,
                   std::vector<Completion>& out) {
    try {
      PoolResponse resp =
          decode_fields<PoolResponse>(payload, "pool response");
      if (!w.busy || resp.index != w.index) return false;  // protocol violation
      w.checkpoint_hits = resp.checkpoint_hits;
      w.checkpoint_misses = resp.checkpoint_misses;
      w.checkpoint_evictions = resp.checkpoint_evictions;
      Completion c;
      c.index = w.index;
      c.attempt = w.attempt;
      c.slot = w.slot;
      c.ok = true;
      c.result_payload = std::move(resp.result_payload);
      c.capture_payload = std::move(resp.capture);
      c.start_sec = elapsed_sec(epoch, w.started);
      c.dur_sec = elapsed_sec(w.started, Clock::now());
      out.push_back(std::move(c));
      w.busy = false;
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  /// Reap a worker (dead, corrupt, or batch-complete) and fold its counters
  /// into the telemetry. A run in flight becomes a failed Completion (or is
  /// dropped when `out` is null, on shutdown/teardown).
  void retire(PoolWorker w, bool clean_shutdown,
              std::vector<Completion>* out) {
    if (w.req_fd >= 0) ::close(w.req_fd);
    ::close(w.resp_fd);
    if (!clean_shutdown) {
      ::kill(w.pid, SIGKILL);
      ++deaths;
    }
    const int status = await_child(w.pid);
    slot_used[static_cast<std::size_t>(w.slot)] = 0;
    tele.checkpoint_hits += w.checkpoint_hits;
    tele.checkpoint_misses += w.checkpoint_misses;
    tele.checkpoint_evictions += w.checkpoint_evictions;
    if (!w.busy) return;
    const double dur = elapsed_sec(w.started, Clock::now());
    std::string what;
    if (w.timed_out) {
      what = "watchdog: no result after " +
             std::to_string(opts.run_timeout_sec) + " s; worker killed";
    } else {
      what = describe_death(status);
      if (WIFSIGNALED(status)) ++tele.signal_deaths;
    }
    if (out != nullptr) {
      Completion c;
      c.index = w.index;
      c.attempt = w.attempt;
      c.slot = w.slot;
      c.ok = false;
      c.what = std::move(what);
      c.start_sec = elapsed_sec(epoch, w.started);
      c.dur_sec = dur;
      out->push_back(std::move(c));
    }
  }

  void pump(int max_wait_ms, std::vector<Completion>& out, int extra_fd,
            bool* extra_readable) {
    if (extra_readable != nullptr) *extra_readable = false;
    Clock::time_point now = Clock::now();
    Clock::time_point wake =
        now + std::chrono::milliseconds(std::max(1, max_wait_ms));
    for (const PoolWorker& w : workers) {
      if (w.busy) wake = std::min(wake, w.deadline);
    }
    const int timeout_ms = static_cast<int>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::milliseconds>(wake - now)
               .count()));

    std::vector<pollfd> fds;
    fds.reserve(workers.size() + 1);
    for (const PoolWorker& w : workers) {
      fds.push_back(pollfd{w.resp_fd, POLLIN, 0});
    }
    if (extra_fd >= 0) fds.push_back(pollfd{extra_fd, POLLIN, 0});
    const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                          static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("executor: poll failed: ") +
                               std::strerror(errno));
    }
    if (extra_fd >= 0 && extra_readable != nullptr &&
        fds.back().revents != 0) {
      *extra_readable = true;
    }

    // Drain readable pipes. A complete frame is a finished run; EOF or a
    // corrupt stream is a dead worker.
    for (std::size_t i = 0; i < workers.size();) {
      PoolWorker& w = workers[i];
      const short revents = i < fds.size() ? fds[i].revents : 0;
      if (revents == 0) {
        ++i;
        continue;
      }
      bool dead = false;
      char chunk[65536];
      const ssize_t n = ::read(w.resp_fd, chunk, sizeof(chunk));
      if (n > 0) {
        w.buf.append(chunk, static_cast<std::size_t>(n));
        for (;;) {
          const FrameSplit fs = try_unframe(w.buf);
          if (fs.status == FrameSplit::Status::kNeedMore) break;
          if (fs.status == FrameSplit::Status::kCorrupt ||
              !on_response(w, fs.payload, out)) {
            dead = true;
            break;
          }
          w.buf.erase(0, fs.consumed);
        }
      } else if (n < 0 && errno == EINTR) {
        // retry next round
      } else if (n == 0) {
        dead = true;  // EOF: the worker died (clean exits only happen after
                      // the supervisor closes the request pipe on shutdown)
      } else {
        dead = true;
      }
      if (dead) {
        PoolWorker finished = std::move(w);
        workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
        fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
        retire(std::move(finished), /*clean_shutdown=*/false, &out);
      } else {
        ++i;
      }
    }

    // Wall-clock watchdog: a worker still busy past its deadline is killed;
    // the kill surfaces as EOF on the next poll round.
    now = Clock::now();
    for (PoolWorker& w : workers) {
      if (w.busy && !w.timed_out && now >= w.deadline) {
        w.timed_out = true;
        ++tele.timeouts;
        ::kill(w.pid, SIGKILL);
      }
    }
  }

  void shutdown() {
    // Close the request pipes; each worker reads EOF and exits cleanly.
    while (!workers.empty()) {
      PoolWorker w = std::move(workers.back());
      workers.pop_back();
      if (w.req_fd >= 0) ::close(w.req_fd);
      w.req_fd = -1;
      retire(std::move(w), /*clean_shutdown=*/true, nullptr);
    }
  }
};

PoolSupervisor::PoolSupervisor(const ExecutorOptions& opts,
                               CampaignExecutor::CheckpointRunFn fn,
                               std::chrono::steady_clock::time_point epoch)
    : impl_(std::make_unique<Impl>(opts, std::move(fn), epoch)) {}

PoolSupervisor::~PoolSupervisor() = default;

int PoolSupervisor::slots() const { return impl_->jobs; }
int PoolSupervisor::busy() const { return impl_->busy_count(); }
bool PoolSupervisor::can_dispatch() const { return impl_->can_dispatch(); }

void PoolSupervisor::dispatch(std::size_t index, int attempt,
                              const RunConfig& cfg, std::uint64_t affinity) {
  impl_->dispatch(index, attempt, cfg, affinity);
}

void PoolSupervisor::pump(int max_wait_ms, std::vector<Completion>& out,
                          int extra_fd, bool* extra_readable) {
  impl_->pump(max_wait_ms, out, extra_fd, extra_readable);
}

void PoolSupervisor::shutdown() { impl_->shutdown(); }

const PoolSupervisor::Telemetry& PoolSupervisor::telemetry() const {
  impl_->tele_snapshot = impl_->tele;
  for (const auto& w : impl_->workers) {
    impl_->tele_snapshot.checkpoint_hits += w.checkpoint_hits;
    impl_->tele_snapshot.checkpoint_misses += w.checkpoint_misses;
    impl_->tele_snapshot.checkpoint_evictions += w.checkpoint_evictions;
  }
  return impl_->tele_snapshot;
}

namespace {

/// The local prefork pool as a slot source.
class PoolSource final : public SlotSource {
 public:
  PoolSource(const ExecutorOptions& opts, CampaignExecutor::CheckpointRunFn fn,
             Clock::time_point epoch)
      : sup_(opts, std::move(fn), epoch) {}

  int slots() const override { return sup_.slots(); }
  bool can_dispatch() const override { return sup_.can_dispatch(); }
  void dispatch(std::size_t index, int attempt, const RunConfig& cfg,
                std::uint64_t affinity) override {
    sup_.dispatch(index, attempt, cfg, affinity);
  }
  void pump(int max_wait_ms, std::vector<Completion>& out) override {
    sup_.pump(max_wait_ms, out);
  }
  int busy() const override { return sup_.busy(); }
  void finish(ExecutorStats& s) override {
    sup_.shutdown();
    const PoolSupervisor::Telemetry& t = sup_.telemetry();
    s.launched += t.launched;
    s.pool_workers += t.pool_workers;
    s.respawns += t.respawns;
    s.timeouts += t.timeouts;
    s.signal_deaths += t.signal_deaths;
    s.checkpoint_hits += t.checkpoint_hits;
    s.checkpoint_misses += t.checkpoint_misses;
    s.checkpoint_evictions += t.checkpoint_evictions;
  }

 private:
  PoolSupervisor sup_;
};

/// The remote endpoint set (opts.workers): connect, handshake, heartbeat,
/// reconnect with capped backoff, telemetry, and straggler copies. Each
/// endpoint offers the slots its daemon advertises; a dispatch goes to the
/// first ready endpoint with a free slot (work stealing: fast daemons drain
/// the queue). A run in flight past straggler_sec gets a copy on another
/// endpoint, and the source merges copies: the loop sees one Completion per
/// dispatch — the first result, or a failure once no copy is left.
class RemoteSource final : public SlotSource {
 public:
  RemoteSource(const ExecutorOptions& opts, std::size_t n,
               Clock::time_point epoch, ExecutorStats& stats)
      : opts_(opts),
        epoch_(epoch),
        stats_(stats),
        hb_window_(to_duration(std::max(3.0 * opts.heartbeat_sec, 1.0))),
        settled_(n, 0),
        copies_(n, 0),
        extra_copies_(n, 0) {
    for (std::size_t w = 0; w < opts.workers.size(); ++w) {
      Remote r;
      r.ep = parse_endpoint(opts.workers[w]);
      r.id = static_cast<int>(w);
      remotes_.push_back(std::move(r));
      EndpointTelemetry et;
      et.spec = opts.workers[w];
      et.index = static_cast<int>(w);
      et.state = "connecting";
      stats.endpoints.push_back(std::move(et));
    }
    stats.remote_endpoints = static_cast<int>(remotes_.size());
  }
  ~RemoteSource() override {
    for (const Remote& r : remotes_) {
      if (r.fd >= 0) ::close(r.fd);
    }
  }

  int slots() const override { return static_cast<int>(remotes_.size()); }
  bool can_dispatch() const override {
    return std::any_of(remotes_.begin(), remotes_.end(), [](const Remote& r) {
      return r.state == EpState::kReady && r.flights.size() < r.slots;
    });
  }
  void dispatch(std::size_t index, int attempt, const RunConfig& cfg,
                std::uint64_t) override {
    Remote* r = free_endpoint(index);
    if (r == nullptr) {
      throw std::logic_error("executor: remote dispatch without a free slot");
    }
    requests_[index] = msg_run_request(index, serialize_run_config(cfg));
    send_run(*r, index, attempt);
    ++outstanding_;
  }
  void pump(int max_wait_ms, std::vector<Completion>& out) override;
  int busy() const override { return outstanding_; }
  void finish(ExecutorStats& s) override {
    for (Remote& r : remotes_) {
      if (r.fd >= 0) ::close(r.fd);
      r.fd = -1;
    }
    // Endpoint aggregates are cumulative snapshots (latest wins); fold the
    // final ones so distributed campaigns report checkpoint-store
    // effectiveness the way local pools do.
    for (const EndpointTelemetry& et : s.endpoints) {
      s.checkpoint_hits += et.checkpoint_hits;
      s.checkpoint_misses += et.checkpoint_misses;
      s.checkpoint_evictions += et.checkpoint_evictions;
    }
  }

 private:
  struct Flight {
    int attempt = 0;
    Clock::time_point sent{};
  };
  enum class EpState { kDisconnected, kHandshake, kReady, kFailed };
  struct Remote {
    Endpoint ep;
    int id = 0;
    int fd = -1;
    EpState state = EpState::kDisconnected;
    std::string rbuf;
    std::uint32_t slots = 1;
    std::map<std::size_t, Flight> flights;
    Clock::time_point last_rx{};
    Clock::time_point reconnect_at{};
    int connect_attempts = 0;  // consecutive failures since the last ack
    int sessions = 0;          // completed handshakes
    std::string last_error;
    // Clock alignment (handshake timestamp exchange, see transport.h).
    std::uint64_t hello_sent_ns = 0;
    std::int64_t clock_offset_ns = 0;  // daemon minus coordinator
  };

  // Reconnect pacing: fast enough that a daemon starting moments after the
  // coordinator is picked up promptly; bounded so an endpoint that keeps
  // refusing is abandoned (kFailed) after ~7 s instead of stalling forever.
  static constexpr double kReconnectBaseSec = 0.05;
  static constexpr double kReconnectCapSec = 2.0;
  static constexpr int kMaxConnectAttempts = 8;

  static std::int64_t steady_ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  EndpointTelemetry& telemetry(const Remote& r) {
    return stats_.endpoints[static_cast<std::size_t>(r.id)];
  }

  /// A ready endpoint with a free slot that is not already running `index`.
  Remote* free_endpoint(std::size_t index) {
    for (Remote& r : remotes_) {
      if (r.state == EpState::kReady && r.flights.size() < r.slots &&
          r.flights.count(index) == 0) {
        return &r;
      }
    }
    return nullptr;
  }

  void send_run(Remote& r, std::size_t index, int attempt) {
    send_frame(r.fd, requests_[index]);
    r.flights[index] = Flight{attempt, Clock::now()};
    ++copies_[index];
  }

  /// Hand one dispatch's outcome to the loop.
  void emit(Completion c) {
    requests_.erase(c.index);
    --outstanding_;
    ready_.push_back(std::move(c));
  }

  /// Tear down a connection. A run whose last live copy this was goes back
  /// to the loop as a failed attempt — the same retry/quarantine policy as a
  /// dead local worker.
  void drop(Remote& r, const std::string& why, bool permanent) {
    if (r.fd >= 0) {
      ::close(r.fd);
      r.fd = -1;
    }
    r.rbuf.clear();
    const Clock::time_point now = Clock::now();
    for (const auto& [index, fl] : r.flights) {
      if (--copies_[index] > 0 || settled_[index] != 0) continue;
      Completion c;
      c.index = index;
      c.attempt = fl.attempt;
      c.slot = r.id;
      c.what = "endpoint " + r.ep.spec + ": " + why;
      c.start_sec = elapsed_sec(epoch_, fl.sent);
      c.dur_sec = elapsed_sec(fl.sent, now);
      emit(std::move(c));
    }
    r.flights.clear();
    r.last_error = why;
    if (!permanent && ++r.connect_attempts <= kMaxConnectAttempts) {
      r.state = EpState::kDisconnected;
      telemetry(r).state = "disconnected";
      r.reconnect_at =
          now + to_duration(backoff_delay_sec(
                    kReconnectBaseSec, r.connect_attempts,
                    fnv1a64(r.ep.spec.data(), r.ep.spec.size()),
                    kReconnectCapSec));
      return;
    }
    r.state = EpState::kFailed;
    telemetry(r).state = "failed";
  }

  /// One kRunResult frame. The first completed result per plan index wins;
  /// late copies (stragglers) are discarded. A workload failure is
  /// deterministic — every copy reports it — so only the last outstanding
  /// copy hands it to the retry policy. Returns false on a protocol breach.
  bool on_result(Remote& r, std::uint64_t index64, std::string payload) {
    if (index64 >= settled_.size()) return false;
    const auto index = static_cast<std::size_t>(index64);
    const auto fit = r.flights.find(index);
    if (fit != r.flights.end()) {
      const Flight fl = fit->second;
      r.flights.erase(fit);
      --copies_[index];
      // The payload's leading byte is its ok flag (serialize.h).
      const bool ok = !payload.empty() && payload.front() != 0;
      if (settled_[index] == 0 && (ok || copies_[index] == 0)) {
        settled_[index] = ok ? 1 : 0;
        if (ok) ++telemetry(r).runs_done;
        Completion c;
        c.index = index;
        c.attempt = fl.attempt;
        c.slot = r.id;
        c.ok = true;
        c.result_payload = std::move(payload);
        if (const auto cap = captures_.find(index); cap != captures_.end()) {
          c.capture_payload = std::move(cap->second);
          captures_.erase(cap);
        }
        c.start_sec = elapsed_sec(epoch_, fl.sent);
        c.dur_sec = elapsed_sec(fl.sent, Clock::now());
        emit(std::move(c));
        return true;
      }
    }
    // A copy a faster one beat, or a result that raced an earlier session's
    // teardown.
    if (settled_[index] != 0) ++stats_.duplicate_discards;
    return true;
  }

  void on_readable(Remote& r);

  std::vector<Remote> remotes_;
  const ExecutorOptions& opts_;
  Clock::time_point epoch_;
  ExecutorStats& stats_;
  const Clock::duration hb_window_;
  SigpipeGuard sigpipe_guard_;
  int outstanding_ = 0;                          // dispatches not yet emitted
  std::vector<char> settled_;                    // a result was emitted
  std::vector<int> copies_;                      // live copies per plan index
  std::vector<int> extra_copies_;                // straggler copies sent
  std::map<std::size_t, std::string> requests_;  // framed kRunRequest bodies
  std::map<std::size_t, std::string> captures_;  // capture blob per index
  std::vector<Completion> ready_;                // emitted, not yet pumped out
};

void RemoteSource::on_readable(Remote& r) {
  char chunk[65536];
  const ssize_t nread = ::read(r.fd, chunk, sizeof(chunk));
  if (nread < 0) {
    if (errno != EINTR) {
      drop(r, std::string("read error: ") + std::strerror(errno), false);
    }
    return;
  }
  if (nread == 0) {
    drop(r, "connection closed", false);
    return;
  }
  r.last_rx = Clock::now();
  r.rbuf.append(chunk, static_cast<std::size_t>(nread));
  for (;;) {
    const FrameSplit fs = try_unframe(r.rbuf);
    if (fs.status == FrameSplit::Status::kNeedMore) return;
    if (fs.status == FrameSplit::Status::kCorrupt) {
      drop(r, "corrupt frame", false);
      return;
    }
    r.rbuf.erase(0, fs.consumed);
    TransportMsg msg;
    try {
      msg = parse_transport_msg(fs.payload);
    } catch (const std::exception& e) {
      drop(r, std::string("bad message: ") + e.what(), false);
      return;
    }
    switch (msg.type) {
      case TransportMsgType::kHelloAck: {
        if (r.state != EpState::kHandshake ||
            msg.proto_version != kTransportProtocolVersion) {
          drop(r, "unexpected handshake ack", false);
          return;
        }
        r.state = EpState::kReady;
        r.slots = std::max<std::uint32_t>(1, msg.slots);
        r.connect_attempts = 0;
        if (r.sessions > 0) ++stats_.reconnects;
        ++r.sessions;
        // NTP-style midpoint estimate: the daemon read its clock (t1)
        // roughly halfway between our send (t0) and this receive (t2).
        const auto t2 = static_cast<std::uint64_t>(steady_ns(Clock::now()));
        const std::uint64_t midpoint = (r.hello_sent_ns + t2) / 2;
        r.clock_offset_ns = static_cast<std::int64_t>(msg.clock_ns) -
                            static_cast<std::int64_t>(midpoint);
        EndpointTelemetry& et = telemetry(r);
        et.state = "ready";
        et.slots = r.slots;
        et.reconnects = r.sessions - 1;
        et.clock_offset_sec = static_cast<double>(r.clock_offset_ns) * 1e-9;
        break;
      }
      case TransportMsgType::kHelloReject:
        // The daemon refused this campaign (fingerprint or protocol
        // mismatch) — reconnecting cannot help.
        drop(r, "rejected: " + msg.reason, true);
        return;
      case TransportMsgType::kHeartbeat:
        break;  // last_rx already refreshed
      case TransportMsgType::kTelemetry: {
        if (r.state != EpState::kReady) {
          drop(r, "protocol violation", false);
          return;
        }
        try {
          if (telemetry_subtype(msg.body) == kTelemetryRunCapture) {
            // Held until the run's result arrives (the daemon sends the
            // capture first), then folded by the loop with it.
            const RunTraceCapture cap = decode_telemetry_capture(msg.body);
            if (cap.plan_index < settled_.size() &&
                settled_[cap.plan_index] == 0) {
              captures_[cap.plan_index] = msg.body.substr(1);
            }
          } else {
            const TelemetryAggregate agg = decode_telemetry_aggregate(msg.body);
            EndpointTelemetry& et = telemetry(r);
            // Counters and histograms are cumulative snapshots (latest
            // wins); spans arrive incrementally and accumulate.
            et.launched = agg.launched;
            et.respawns = agg.respawns;
            et.timeouts = agg.timeouts;
            et.signal_deaths = agg.signal_deaths;
            et.checkpoint_hits = agg.checkpoint_hits;
            et.checkpoint_misses = agg.checkpoint_misses;
            et.checkpoint_evictions = agg.checkpoint_evictions;
            et.trace_dropped = agg.trace_dropped;
            et.histograms = agg.histograms;
            et.base_sec = static_cast<double>(
                              static_cast<std::int64_t>(agg.base_ns) -
                              r.clock_offset_ns - steady_ns(epoch_)) *
                          1e-9;
            et.spans.insert(et.spans.end(), agg.spans.begin(),
                            agg.spans.end());
          }
        } catch (const std::exception& e) {
          drop(r, std::string("bad telemetry: ") + e.what(), false);
          return;
        }
        break;
      }
      case TransportMsgType::kRunResult:
        if (r.state != EpState::kReady ||
            !on_result(r, msg.index, std::move(msg.body))) {
          drop(r, "protocol violation", false);
          return;
        }
        break;
      default:
        drop(r, "unexpected message type", false);
        return;
    }
  }
}

void RemoteSource::pump(int max_wait_ms, std::vector<Completion>& out) {
  Clock::time_point now = Clock::now();

  // (Re)connect and open the handshake.
  for (Remote& r : remotes_) {
    if (r.state != EpState::kDisconnected || now < r.reconnect_at) continue;
    std::string err;
    const int fd = connect_endpoint(r.ep, &err);
    if (fd < 0) {
      drop(r, err, false);
      continue;
    }
    r.fd = fd;
    r.state = EpState::kHandshake;
    r.last_rx = now;
    telemetry(r).state = "handshake";
    r.hello_sent_ns = static_cast<std::uint64_t>(steady_ns(Clock::now()));
    send_frame(fd, msg_hello(opts_.campaign_fingerprint, r.hello_sent_ns));
  }

  // Every endpoint permanently failed with work outstanding: fail loudly
  // instead of spinning (the journal shard preserves finished work).
  if (std::all_of(remotes_.begin(), remotes_.end(), [](const Remote& r) {
        return r.state == EpState::kFailed;
      })) {
    std::string detail;
    for (const Remote& r : remotes_) {
      detail += "\n  " + r.ep.spec + ": " +
                (r.last_error.empty() ? "unreachable" : r.last_error);
    }
    throw std::runtime_error(
        "executor: no distributed worker endpoint is usable" + detail);
  }

  // Straggler re-dispatch: a run in flight past the deadline gets one copy
  // on another endpoint (never one already running it); the first result
  // wins.
  if (opts_.straggler_sec > 0.0) {
    for (Remote& r : remotes_) {
      if (r.state != EpState::kReady) continue;
      for (const auto& [index, fl] : r.flights) {
        if (settled_[index] != 0 || copies_[index] != 1 ||
            extra_copies_[index] + 1 >= static_cast<int>(remotes_.size()) ||
            elapsed_sec(fl.sent, now) < opts_.straggler_sec) {
          continue;
        }
        Remote* other = free_endpoint(index);
        if (other == nullptr) continue;
        send_run(*other, index, fl.attempt);
        ++extra_copies_[index];
        ++stats_.redispatches;
      }
    }
  }

  // Sleep until the next event: socket bytes, a reconnect coming due, a
  // straggler deadline, or a heartbeat-silence verdict.
  Clock::time_point wake = now + std::chrono::milliseconds(max_wait_ms);
  std::vector<pollfd> fds;
  std::vector<Remote*> polled;
  const Clock::duration straggler = to_duration(opts_.straggler_sec);
  for (Remote& r : remotes_) {
    if (r.state == EpState::kFailed) continue;
    if (r.state == EpState::kDisconnected) {
      wake = std::min(wake, r.reconnect_at);
      continue;
    }
    fds.push_back(pollfd{r.fd, POLLIN, 0});
    polled.push_back(&r);
    wake = std::min(wake, r.last_rx + hb_window_);
    if (opts_.straggler_sec > 0.0) {
      for (const auto& [index, fl] : r.flights) {
        const Clock::time_point due = fl.sent + straggler;
        if (due > now) wake = std::min(wake, due);
      }
    }
  }
  const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                        static_cast<nfds_t>(fds.size()), ms_until(now, wake));
  if (rc < 0 && errno != EINTR) {
    throw std::runtime_error(std::string("executor: poll failed: ") +
                             std::strerror(errno));
  }
  for (std::size_t i = 0; i < polled.size(); ++i) {
    if (fds[i].revents != 0) on_readable(*polled[i]);
  }

  // Declare heartbeat-silent endpoints dead (covers a hung daemon and a
  // dropped network path — no FIN ever arrives in either case).
  now = Clock::now();
  const double window_sec = std::chrono::duration<double>(hb_window_).count();
  for (Remote& r : remotes_) {
    if ((r.state == EpState::kReady || r.state == EpState::kHandshake) &&
        now - r.last_rx > hb_window_) {
      drop(r,
           "no traffic for " + std::to_string(window_sec) +
               " s (heartbeat silence)",
           false);
    }
  }

  for (Completion& c : ready_) out.push_back(std::move(c));
  ready_.clear();
}

}  // namespace

#else  // !DAV_EXECUTOR_POSIX

struct PoolSupervisor::Impl {
  Telemetry tele;
};

PoolSupervisor::PoolSupervisor(const ExecutorOptions&,
                               CampaignExecutor::CheckpointRunFn,
                               std::chrono::steady_clock::time_point) {
  throw std::runtime_error("executor: PoolSupervisor requires a POSIX host");
}

PoolSupervisor::~PoolSupervisor() = default;

int PoolSupervisor::slots() const { return 0; }
int PoolSupervisor::busy() const { return 0; }
bool PoolSupervisor::can_dispatch() const { return false; }

void PoolSupervisor::dispatch(std::size_t, int, const RunConfig&,
                              std::uint64_t) {
  throw std::runtime_error("executor: PoolSupervisor requires a POSIX host");
}

void PoolSupervisor::pump(int, std::vector<Completion>&, int, bool*) {
  throw std::runtime_error("executor: PoolSupervisor requires a POSIX host");
}

void PoolSupervisor::shutdown() {}

const PoolSupervisor::Telemetry& PoolSupervisor::telemetry() const {
  return impl_->tele;
}

#endif  // DAV_EXECUTOR_POSIX

namespace {

std::unique_ptr<SlotSource> make_source(
    const ExecutorOptions& opts, const CampaignExecutor::CheckpointRunFn& fn,
    [[maybe_unused]] std::size_t n, Clock::time_point epoch,
    [[maybe_unused]] ExecutorStats& stats) {
#if DAV_EXECUTOR_POSIX
  if (!opts.workers.empty()) {
    return std::make_unique<RemoteSource>(opts, n, epoch, stats);
  }
  if (opts.jobs > 0) return std::make_unique<PoolSource>(opts, fn, epoch);
#endif
  return std::make_unique<InProcessSource>(opts, fn, epoch);
}

}  // namespace

std::vector<RunResult> CampaignExecutor::run_all(
    const std::vector<RunConfig>& cfgs) {
  quarantined_.clear();
  stats_ = ExecutorStats{};
  capture_seen_.clear();
  last_metrics_ = Clock::time_point{};
  batch_start_ = Clock::now();

  const std::size_t n = cfgs.size();
  std::vector<RunResult> results(n);
  std::vector<char> done(n, 0);
  std::size_t resolved = 0;
  std::vector<std::uint64_t> keys(n, 0);
  for (std::size_t i = 0; i < n; ++i) keys[i] = run_config_digest(cfgs[i]);

  // The one place a verdict lands: the result, and for a failure the
  // quarantine record. Journal replays come through here too, so a resumed
  // campaign reports the same quarantined() list as the uninterrupted one.
  const auto settle = [&](std::size_t i, ResultPayload p) {
    results[i] = std::move(p.result);
    done[i] = 1;
    ++resolved;
    if (!p.ok) {
      quarantined_.push_back(RunQuarantine{i, cfgs[i], std::move(p.what)});
      ++stats_.quarantined;
    }
  };

  // Journal resume. Remote results append to one side shard and merge into
  // the main journal in plan order at batch end, so the main journal is
  // byte-identical to an in-process run's; replaying the shard too resumes
  // a coordinator that died before (or during) the merge.
  const bool remote = !opts_.workers.empty();
  const std::string shard_path = opts_.journal_path + ".shard";
  JournalWriter journal;
  JournalWriter shard;
  std::vector<char> in_main;
  const auto replay = [&](const std::string& path) {
    const JournalLoad load = load_journal(path, opts_.campaign_fingerprint);
    stats_.torn_bytes_discarded += load.torn_bytes;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = load.records.find(keys[i]);
      if (done[i] != 0 || it == load.records.end()) continue;
      try {
        settle(i, parse_result_payload(it->second));
        ++stats_.journal_hits;
      } catch (const std::exception&) {
        // Undeserializable (e.g. an older record version): re-execute.
      }
    }
    return JournalWriter(path, opts_.campaign_fingerprint, load);
  };
  if (!opts_.journal_path.empty()) {
    journal = replay(opts_.journal_path);
    in_main = done;
    if (remote) shard = replay(shard_path);
  }
  JournalWriter& sink = remote ? shard : journal;
  const auto append = [&](JournalWriter& w, std::size_t i,
                          const std::string& payload) {
    if (!w.enabled()) return;
    w.append(keys[i], payload);
    ++stats_.journal_appends;
    stats_.journal_bytes += payload.size();
  };

  // The plan queue. Prefix-affinity grouping: variants sharing a fault-free
  // prefix dispatch back to back (onto the worker holding the checkpoint),
  // plan order breaking ties. Results merge by plan index, so the queue
  // order never shows in the summary.
  struct Pending {
    std::size_t index = 0;
    int attempt = 0;
    Clock::time_point eligible{};
  };
  std::deque<Pending> pending;
  std::vector<std::uint64_t> affinity(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i] != 0) continue;
    pending.push_back(Pending{i, 0, batch_start_});
    affinity[i] = dispatch_affinity(cfgs[i], opts_);
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [&](const Pending& a, const Pending& b) {
                     return affinity[a.index] < affinity[b.index];
                   });

  const std::unique_ptr<SlotSource> src =
      make_source(opts_, fn_, n, batch_start_, stats_);
  stats_.jobs = src->slots();
  stats_.slot_busy_sec.assign(static_cast<std::size_t>(stats_.jobs), 0.0);
  stats_.slot_runs_served.assign(static_cast<std::size_t>(stats_.jobs), 0);

  std::vector<Completion> comps;
  while (!pending.empty() || src->busy() > 0) {
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin();
         it != pending.end() && src->can_dispatch();) {
      if (it->eligible > now) {
        ++it;
        continue;
      }
      src->dispatch(it->index, it->attempt,
                    effective_config(cfgs[it->index], opts_),
                    affinity[it->index]);
      it = pending.erase(it);
    }

    // Sleep until the next event: a completion (the source also wakes for
    // its own deadlines) or a backed-off retry coming due.
    Clock::time_point wake = now + std::chrono::seconds(1);
    for (const Pending& p : pending) {
      if (p.eligible > now) wake = std::min(wake, p.eligible);
    }
    comps.clear();
    src->pump(ms_until(now, wake), comps);

    for (Completion& c : comps) {
      const auto slot = static_cast<std::size_t>(c.slot);
      stats_.spans.push_back(
          WorkerSpan{c.index, c.slot, c.attempt, c.start_sec, c.dur_sec});
      stats_.slot_busy_sec[slot] += c.dur_sec;
      if (!c.capture_payload.empty()) {
        try {
          fold_capture(decode_run_capture(c.capture_payload));
        } catch (const std::exception&) {
          // Malformed capture: observability loss only, the run still counts.
        }
      }
      if (done[c.index] != 0) {  // first result wins
        ++stats_.duplicate_discards;
        continue;
      }
      ResultPayload p;
      if (c.ok) {
        ++stats_.slot_runs_served[slot];
        try {
          p = parse_result_payload(c.result_payload);
        } catch (const std::exception& e) {
          p.what = std::string("undecodable result payload: ") + e.what();
        }
      } else {
        p.what = std::move(c.what);
      }
      if (p.ok) {
        append(sink, c.index, c.result_payload);
        settle(c.index, std::move(p));
      } else if (c.attempt < opts_.max_retries) {
        ++stats_.retries;
        // Capped exponent + per-run jitter (transport.h): unjittered retries
        // synchronize across a fleet.
        pending.push_back(Pending{
            c.index, c.attempt + 1,
            Clock::now() + to_duration(backoff_delay_sec(
                               opts_.retry_backoff_sec, c.attempt,
                               keys[c.index]))});
      } else {
        p.result = harness_error_result(cfgs[c.index]);
        append(sink, c.index, make_result_payload(false, p.what, p.result));
        settle(c.index, std::move(p));
      }
    }
    write_metrics_snapshot(n, resolved, /*force=*/false);
  }
  src->finish(stats_);

  // Workers finish in nondeterministic order; the quarantine report must not.
  std::sort(quarantined_.begin(), quarantined_.end(),
            [](const RunQuarantine& a, const RunQuarantine& b) {
              return a.index < b.index;
            });
  if (remote && journal.enabled()) {
    // Deterministic merge: every record not already in the main journal,
    // re-encoded by the bit-exact codec in plan order. A crash mid-merge
    // leaves a plan-order prefix the next load skips over, and the shard
    // still holds everything unmerged.
    auto q = quarantined_.begin();
    for (std::size_t i = 0; i < n; ++i) {
      const bool failed = q != quarantined_.end() && q->index == i;
      if (in_main[i] == 0) {
        append(journal, i,
               make_result_payload(!failed, failed ? q->what : std::string(),
                                   results[i]));
      }
      if (failed) ++q;
    }
    shard.close();
    std::remove(shard_path.c_str());
    fsync_parent_dir(opts_.journal_path);
  }
  journal.close();
  stats_.wall_sec = elapsed_sec(batch_start_, Clock::now());
  // Final snapshot: phase=done, complete counts. Readers polling the file
  // see the terminal state even for campaigns shorter than the interval.
  write_metrics_snapshot(n, n, /*force=*/true);
  return results;
}

}  // namespace dav
