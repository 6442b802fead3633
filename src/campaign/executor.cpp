#include "campaign/executor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
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
#include "util/bits.h"

namespace dav {

namespace {

using Clock = std::chrono::steady_clock;

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
// verbatim, so the journaled record is byte-compatible across in-process and
// pool runs. `capture` is an encoded RunTraceCapture (serialize.h) — the
// run's trace residue — or empty when the run was untraced; it rides OUTSIDE
// the result payload, so journal bytes never depend on tracing. Both layouts
// stay inside one process tree and are never persisted.
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

/// Fold the executor-level checkpoint flag into the per-run config. The
/// CheckpointOptions are digest-excluded, so journal keys and record bytes
/// are unchanged by this.
RunConfig effective_config(const RunConfig& cfg, const ExecutorOptions& opts) {
  if (!opts.checkpoint || cfg.checkpoint.enabled) return cfg;
  RunConfig c = cfg;
  c.checkpoint.enabled = true;
  return c;
}

/// Prefix-affinity key for dispatch: the run's prefix digest at its fork
/// tick, so fault variants that share a fault-free prefix group onto one
/// worker (the one holding the checkpoint). 0 when the run has no fork tick
/// (then affinity cannot help).
std::uint64_t dispatch_affinity(const RunConfig& cfg,
                                const ExecutorOptions& opts) {
  if (!opts.checkpoint && !cfg.checkpoint.enabled) return 0;
  const int tick = fork_tick(cfg);
  return tick < 0 ? 0 : run_config_prefix_digest(cfg, tick);
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
  mib("address_space_mb", address_space_mb);
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

void CampaignExecutor::fold_capture(const std::string& capture_payload) {
  if (capture_payload.empty()) return;  // the run was untraced
  RunTraceCapture cap;
  try {
    cap = decode_run_capture(capture_payload);
  } catch (const std::exception&) {
    return;  // malformed capture: observability loss only, the run still counts
  }
  stats_.trace_dropped += cap.capture.dropped;
  stats_.stage_hist.merge(cap.capture.histograms);
  stats_.captures.push_back(std::move(cap));
}

// ---- slot sources ---------------------------------------------------------

namespace {

/// One finished dispatch. `ok` means a complete result payload arrived
/// (parse_result_payload — which may itself carry a workload failure). !ok
/// is a worker death — crash, watchdog timeout, corrupt stream — with the
/// diagnosis in `what`.
struct Completion {
  std::size_t index = 0;
  int attempt = 0;
  int slot = 0;
  bool ok = false;
  std::string what;
  std::string result_payload;
  /// Encoded RunTraceCapture (serialize.h), empty when the run was untraced.
  std::string capture_payload;
  double start_sec = 0.0;  ///< relative to run_all entry; telemetry only
  double dur_sec = 0.0;
};

/// Where run_all's dispatch loop sends runs. A source reports exactly one
/// Completion per dispatch, and writes its lifecycle counters into the
/// batch's ExecutorStats.
class SlotSource {
 public:
  SlotSource() = default;
  SlotSource(const SlotSource&) = delete;  // a source owns its workers
  SlotSource& operator=(const SlotSource&) = delete;
  virtual ~SlotSource() = default;
  virtual int slots() const = 0;
  /// A slot is free: an idle worker exists, or one can still be forked.
  virtual bool can_dispatch() const = 0;
  /// Only valid when can_dispatch(); `attempt` is echoed on the Completion.
  virtual void dispatch(std::size_t index, int attempt, const RunConfig& cfg,
                        std::uint64_t affinity) = 0;
  /// Wait up to `max_wait_ms` for progress; append finished attempts.
  virtual void pump(int max_wait_ms, std::vector<Completion>& out) = 0;
  virtual int busy() const = 0;  ///< dispatches in flight
  /// Batch end (busy() == 0): release workers and fold their counters.
  virtual void finish() = 0;
};

/// One slot in this process (jobs == 0, and every non-POSIX host). The run
/// executes inside pump(); an exception is a failed attempt. There is no
/// watchdog or rlimit: a crash or hang here takes the campaign with it.
class InProcessSource final : public SlotSource {
 public:
  InProcessSource(CampaignExecutor::CheckpointRunFn fn,
                  Clock::time_point epoch, ExecutorStats& stats)
      : fn_(std::move(fn)), epoch_(epoch), stats_(stats) {}

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
          make_result_payload(true, {}, fn_(cfg_, &store_));
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
  void finish() override {
    stats_.checkpoint_hits += store_.deep_hits();
    stats_.checkpoint_misses += store_.deep_misses();
    stats_.checkpoint_evictions += store_.evictions();
  }

 private:
  CampaignExecutor::CheckpointRunFn fn_;
  Clock::time_point epoch_;
  ExecutorStats& stats_;
  CheckpointStore store_;
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
  CheckpointStore store;
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
          true, {}, fn(effective_config(rec.cfg, opts), &store));  // davlint: allow(fork-safety) sanctioned workload handoff
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
    resp.checkpoint_hits = store.deep_hits();
    resp.checkpoint_misses = store.deep_misses();
    resp.checkpoint_evictions = store.evictions();
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

/// The supervisor writes into worker pipes; a worker that died between
/// dispatches would otherwise turn that write into a fatal SIGPIPE. Ignore it
/// for the guard's lifetime — the failed write surfaces as an EOF on the read
/// side, which requeues the run.
struct SigpipeGuard {
  struct sigaction prev {};
  SigpipeGuard() {
    struct sigaction ign {};
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &prev);
  }
  ~SigpipeGuard() { ::sigaction(SIGPIPE, &prev, nullptr); }
};

/// The persistent prefork pool (jobs == N): lazily forked long-lived workers,
/// checksummed request/response framing, per-run CPU-budget re-arm, a
/// wall-clock watchdog, death diagnosis and respawn, with its lifecycle
/// counters landing in ExecutorStats. Policy stays with run_all: retries,
/// backoff, journaling and result merging all consume the Completions this
/// source emits.
class PoolSource final : public SlotSource {
 public:
  PoolSource(const ExecutorOptions& opts, CampaignExecutor::CheckpointRunFn fn,
             int slots, Clock::time_point epoch, ExecutorStats& stats)
      : opts_(opts),
        fn_(std::move(fn)),
        epoch_(epoch),
        stats_(stats),
        timeout_(to_duration(opts.run_timeout_sec)),
        slot_used_(static_cast<std::size_t>(slots), 0) {}

  /// Hard teardown (an exception unwinding run_all): in-flight runs are
  /// dropped with their workers.
  ~PoolSource() override {
    for (PoolWorker& w : workers_) {
      if (w.req_fd >= 0) ::close(w.req_fd);
      ::close(w.resp_fd);
      ::kill(w.pid, SIGKILL);
      await_child(w.pid);
    }
  }

  int slots() const override { return static_cast<int>(slot_used_.size()); }

  int busy() const override {
    int c = 0;
    for (const PoolWorker& w : workers_) {
      if (w.busy) ++c;
    }
    return c;
  }

  bool can_dispatch() const override {
    for (const PoolWorker& w : workers_) {
      if (!w.busy) return true;
    }
    return static_cast<int>(workers_.size()) < slots();
  }

  /// `affinity` is an opaque grouping key (the run's prefix digest under
  /// checkpointing): an idle worker that last ran the same key is preferred,
  /// so variants of one fault-free prefix land on the worker that holds its
  /// checkpoint.
  void dispatch(std::size_t index, int attempt, const RunConfig& cfg,
                std::uint64_t affinity) override {
    // Prefer the idle worker that last ran this affinity key (it holds the
    // prefix checkpoint); a fresh (never-dispatched) idle worker beats one
    // warmed on a different key; spawning is the last resort.
    PoolWorker* idle = nullptr;
    PoolWorker* fresh = nullptr;
    PoolWorker* any = nullptr;
    for (PoolWorker& w : workers_) {
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
      if (static_cast<int>(workers_.size()) >= slots()) {
        throw std::logic_error("executor: pool dispatch without capacity");
      }
      spawn();
      idle = &workers_.back();
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
    idle->deadline = idle->started + timeout_;
    idle->timed_out = false;
  }

  /// Wait for response bytes, drain complete frames, enforce watchdog
  /// deadlines and reap deaths.
  void pump(int max_wait_ms, std::vector<Completion>& out) override {
    Clock::time_point now = Clock::now();
    Clock::time_point wake =
        now + std::chrono::milliseconds(std::max(1, max_wait_ms));
    for (const PoolWorker& w : workers_) {
      if (w.busy) wake = std::min(wake, w.deadline);
    }
    const int timeout_ms = static_cast<int>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::milliseconds>(wake - now)
               .count()));

    std::vector<pollfd> fds;
    fds.reserve(workers_.size());
    for (const PoolWorker& w : workers_) {
      fds.push_back(pollfd{w.resp_fd, POLLIN, 0});
    }
    const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                          static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("executor: poll failed: ") +
                               std::strerror(errno));
    }

    // Drain readable pipes. A complete frame is a finished run; EOF or a
    // corrupt stream is a dead worker.
    for (std::size_t i = 0; i < workers_.size();) {
      PoolWorker& w = workers_[i];
      if (fds[i].revents == 0) {
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
        workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(i));
        fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
        retire(std::move(finished), /*clean_shutdown=*/false, &out);
      } else {
        ++i;
      }
    }

    // Wall-clock watchdog: a worker still busy past its deadline is killed;
    // the kill surfaces as EOF on the next poll round.
    now = Clock::now();
    for (PoolWorker& w : workers_) {
      if (w.busy && !w.timed_out && now >= w.deadline) {
        w.timed_out = true;
        ++stats_.timeouts;
        ::kill(w.pid, SIGKILL);
      }
    }
  }

  /// Clean shutdown: close the request pipes; each worker reads EOF and
  /// exits. Called with busy() == 0.
  void finish() override {
    while (!workers_.empty()) {
      PoolWorker w = std::move(workers_.back());
      workers_.pop_back();
      if (w.req_fd >= 0) ::close(w.req_fd);
      w.req_fd = -1;
      retire(std::move(w), /*clean_shutdown=*/true, nullptr);
    }
  }

 private:
  /// One persistent worker. Lives until it dies (crash/hang/rlimit) or the
  /// batch ends; serves many runs, at most one in flight at a time.
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
    // stats when the worker retires.
    std::uint64_t checkpoint_hits = 0;
    std::uint64_t checkpoint_misses = 0;
    std::uint64_t checkpoint_evictions = 0;
    /// Affinity key of the last dispatched run (see dispatch).
    std::uint64_t affinity = 0;
    bool has_affinity = false;
  };

  int claim_slot() {
    for (std::size_t s = 0; s < slot_used_.size(); ++s) {
      if (slot_used_[s] == 0) {
        slot_used_[s] = 1;
        return static_cast<int>(s);
      }
    }
    return 0;  // unreachable: live workers are capped at slots()
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
      pool_worker_main(req[0], resp[1], fn_, opts_);
    }
    ::close(req[0]);
    ::close(resp[1]);
    PoolWorker w;
    w.pid = pid;
    w.req_fd = req[1];
    w.resp_fd = resp[0];
    w.slot = claim_slot();
    workers_.push_back(std::move(w));
    ++stats_.launched;
    // First-wave spawns are the pool; spawns after any death are respawns.
    if (deaths_ == 0) {
      ++stats_.pool_workers;
    } else {
      ++stats_.respawns;
    }
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
      c.start_sec = elapsed_sec(epoch_, w.started);
      c.dur_sec = elapsed_sec(w.started, Clock::now());
      out.push_back(std::move(c));
      w.busy = false;
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  /// Reap a worker (dead, corrupt, or batch-complete) and fold its counters
  /// into the stats. A run in flight becomes a failed Completion (or is
  /// dropped when `out` is null, on shutdown).
  void retire(PoolWorker w, bool clean_shutdown,
              std::vector<Completion>* out) {
    if (w.req_fd >= 0) ::close(w.req_fd);
    ::close(w.resp_fd);
    if (!clean_shutdown) {
      ::kill(w.pid, SIGKILL);
      ++deaths_;
    }
    const int status = await_child(w.pid);
    slot_used_[static_cast<std::size_t>(w.slot)] = 0;
    stats_.checkpoint_hits += w.checkpoint_hits;
    stats_.checkpoint_misses += w.checkpoint_misses;
    stats_.checkpoint_evictions += w.checkpoint_evictions;
    if (!w.busy) return;
    const double dur = elapsed_sec(w.started, Clock::now());
    std::string what;
    if (w.timed_out) {
      what = "watchdog: no result after " +
             std::to_string(opts_.run_timeout_sec) + " s; worker killed";
    } else {
      what = describe_death(status);
      if (WIFSIGNALED(status)) ++stats_.signal_deaths;
    }
    if (out != nullptr) {
      Completion c;
      c.index = w.index;
      c.attempt = w.attempt;
      c.slot = w.slot;
      c.ok = false;
      c.what = std::move(what);
      c.start_sec = elapsed_sec(epoch_, w.started);
      c.dur_sec = dur;
      out->push_back(std::move(c));
    }
  }

  ExecutorOptions opts_;
  CampaignExecutor::CheckpointRunFn fn_;
  Clock::time_point epoch_;
  ExecutorStats& stats_;
  Clock::duration timeout_{};
  int deaths_ = 0;
  std::vector<PoolWorker> workers_;
  std::vector<char> slot_used_;
  SigpipeGuard sigpipe_guard_;
};

}  // namespace

#endif  // DAV_EXECUTOR_POSIX

namespace {

/// In-process for jobs == 0 (and on every non-POSIX host), else a pool of
/// one worker slot per run, up to opts.jobs.
std::unique_ptr<SlotSource> make_source(
    const ExecutorOptions& opts, const CampaignExecutor::CheckpointRunFn& fn,
    [[maybe_unused]] std::size_t n, Clock::time_point epoch,
    ExecutorStats& stats) {
#if DAV_EXECUTOR_POSIX
  if (opts.jobs > 0) {
    const int slots = static_cast<int>(
        std::max<std::size_t>(1, std::min<std::size_t>(opts.jobs, n)));
    return std::make_unique<PoolSource>(opts, fn, slots, epoch, stats);
  }
#endif
  return std::make_unique<InProcessSource>(fn, epoch, stats);
}

}  // namespace

double backoff_delay_sec(double base_sec, int attempt, std::uint64_t salt,
                         double cap_sec) {
  // `1 << attempt` is UB for attempt >= 31; a quarantine-bound run can cross
  // that with a generous max_retries. Clamp the exponent (the cap saturates
  // the delay long before 2^16 anyway).
  const int shift = std::min(std::max(attempt, 0), 16);
  const double raw = base_sec * static_cast<double>(1u << shift);
  const double capped = std::min(raw, cap_sec);
  // Deterministic jitter in [0.75, 1.25): hash (salt, attempt) and map the
  // top 53 bits onto the unit interval.
  ByteWriter w;
  w.u64(salt);
  w.u32(static_cast<std::uint32_t>(shift));
  w.u32(static_cast<std::uint32_t>(attempt));
  const std::uint64_t h = fnv1a64(w.bytes().data(), w.bytes().size());
  const double unit =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  return capped * (0.75 + 0.5 * unit);
}

std::vector<RunResult> CampaignExecutor::run_all(
    const std::vector<RunConfig>& cfgs) {
  quarantined_.clear();
  stats_ = ExecutorStats{};
  batch_start_ = Clock::now();

  const std::size_t n = cfgs.size();
  std::vector<RunResult> results(n);
  std::vector<char> done(n, 0);
  std::vector<std::uint64_t> keys(n, 0);
  for (std::size_t i = 0; i < n; ++i) keys[i] = run_config_digest(cfgs[i]);

  // The one place a verdict lands: the result, and for a failure the
  // quarantine record. Journal replays come through here too, so a resumed
  // campaign reports the same quarantined() list as the uninterrupted one.
  const auto settle = [&](std::size_t i, ResultPayload p) {
    results[i] = std::move(p.result);
    done[i] = 1;
    if (!p.ok) {
      quarantined_.push_back(RunQuarantine{i, cfgs[i], std::move(p.what)});
      ++stats_.quarantined;
    }
  };

  // Journal resume: a config with an intact record settles from it instead
  // of re-executing.
  JournalWriter journal;
  if (!opts_.journal_path.empty()) {
    const JournalLoad load =
        load_journal(opts_.journal_path, opts_.campaign_fingerprint);
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
    journal = JournalWriter(opts_.journal_path, opts_.campaign_fingerprint,
                            load);
  }
  const auto append = [&](std::size_t i, const std::string& payload) {
    if (!journal.enabled()) return;
    journal.append(keys[i], payload);
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
        append(c.index, c.result_payload);
        fold_capture(c.capture_payload);
        settle(c.index, std::move(p));
      } else if (c.attempt < opts_.max_retries) {
        ++stats_.retries;
        // Capped exponent + per-run jitter (backoff_delay_sec).
        pending.push_back(Pending{
            c.index, c.attempt + 1,
            Clock::now() + to_duration(backoff_delay_sec(
                               opts_.retry_backoff_sec, c.attempt,
                               keys[c.index]))});
      } else {
        p.result = harness_error_result(cfgs[c.index]);
        append(c.index, make_result_payload(false, p.what, p.result));
        settle(c.index, std::move(p));
      }
    }
  }
  src->finish();

  // Workers finish in nondeterministic order; the quarantine report must not.
  std::sort(quarantined_.begin(), quarantined_.end(),
            [](const RunQuarantine& a, const RunQuarantine& b) {
              return a.index < b.index;
            });
  journal.close();
  stats_.wall_sec = elapsed_sec(batch_start_, Clock::now());
  return results;
}

}  // namespace dav
