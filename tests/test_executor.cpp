// Campaign executor: the in-process slot, the sandboxed prefork pool
// (watchdog, rlimits, respawn, slot sizing), retry and its backoff, journal
// resume, stream framing, and the run trace capture codec. The fork/pipe
// machinery is POSIX-only, matching the executor itself (non-POSIX hosts run
// every campaign in-process).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/driver.h"
#include "campaign/env_options.h"
#include "campaign/executor.h"
#include "campaign/journal.h"
#include "campaign/serialize.h"
#include "core/threshold_lut.h"
#include "util/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#define DAV_TEST_POSIX 1
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace dav {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Deterministic stand-in for run_experiment: cheap, but exercises enough of
/// the record (traces, trajectory) that a serialization slip would show.
RunResult stub_result(const RunConfig& cfg) {
  RunResult r;
  r.scenario = cfg.scenario;
  r.mode = cfg.mode;
  r.fault = cfg.fault;
  r.run_seed = cfg.run_seed;
  r.outcome = FaultOutcome::kMasked;
  r.fault_activated = true;
  r.duration = static_cast<double>(cfg.run_seed % 97) * 0.5;
  r.steps = static_cast<int>(cfg.run_seed % 13);
  r.trajectory.push({static_cast<double>(cfg.run_seed % 7), -1.5});
  r.cvip_trace = {42.0, static_cast<double>(cfg.run_seed % 5)};
  r.cpu_instructions = cfg.run_seed * 3;
  return r;
}

std::vector<RunConfig> make_configs(std::size_t n) {
  std::vector<RunConfig> cfgs(n);
  for (std::size_t i = 0; i < n; ++i) {
    cfgs[i].run_seed = 1000 + i;
    cfgs[i].fault.kind = FaultModelKind::kTransient;
    cfgs[i].fault.target_dyn_index = 7000 + i;
  }
  return cfgs;
}

/// A deterministic trace residue keyed on the run seed — stands in for what
/// the driver stashes after a real traced run.
obs::RunCapture synthetic_capture(std::uint64_t seed) {
  obs::RunCapture cap;
  cap.valid = true;
  cap.dropped = seed % 5;
  cap.dt = 0.025;
  cap.histograms.at(obs::Stage::kControl)
      .add(std::uint64_t{1} << (10 + seed % 3));
  cap.histograms.at(obs::Stage::kPlanner).add(4096);
  obs::TraceEvent ev;
  ev.tick = static_cast<std::uint32_t>(40 + seed % 7);
  ev.id = static_cast<std::uint16_t>(obs::Instant::kDetectorAlarm);
  ev.kind = obs::EventKind::kInstant;
  ev.track = static_cast<std::int8_t>(seed % 3);
  ev.value = 0.5 * static_cast<double>(seed % 11);
  cap.instants.push_back(ev);
  return cap;
}

/// A two-worker pool with no retries: the worker-lifecycle tests below pin
/// its isolation semantics (crash, abort, hang, rlimit, resume).
ExecutorOptions fast_options() {
  ExecutorOptions o;
  o.jobs = 2;
  o.run_timeout_sec = 60.0;
  o.max_retries = 0;
  o.retry_backoff_sec = 0.01;
  return o;
}

/// The persistent prefork pool with `jobs` workers (0 = in-process).
ExecutorOptions pool_options(int jobs = 2) {
  ExecutorOptions o;
  o.jobs = jobs;
  o.run_timeout_sec = 60.0;
  o.max_retries = 0;
  o.retry_backoff_sec = 0.01;
  return o;
}

TEST(ExecutorOptions, ValidationRejectsNonsense) {
  ExecutorOptions o;
  o.run_timeout_sec = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = ExecutorOptions{};
  o.max_retries = -1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = ExecutorOptions{};
  o.retry_backoff_sec = -0.1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = ExecutorOptions{};
  o.retry_backoff_sec = std::nan("");
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = ExecutorOptions{};
  o.jobs = -1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  // Durations steady_clock cannot hold, and MiB counts whose byte count
  // wraps, are rejected instead of overflowing a cast downstream.
  for (double ExecutorOptions::*field :
       {&ExecutorOptions::run_timeout_sec, &ExecutorOptions::cpu_limit_sec,
        &ExecutorOptions::retry_backoff_sec}) {
    o = ExecutorOptions{};
    o.*field = 1e10;
    EXPECT_THROW(o.validate(), std::invalid_argument);
  }
  o = ExecutorOptions{};
  o.address_space_mb = ExecutorOptions::kMaxMiB + 1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.address_space_mb = ExecutorOptions::kMaxMiB;
  EXPECT_NO_THROW(o.validate());
  o = ExecutorOptions{};
  o.jobs = 0;
  EXPECT_NO_THROW(o.validate());
}

TEST(Executor, InProcessPathMatchesDirectCalls) {
  ExecutorOptions o = fast_options();
  o.jobs = 0;
  CampaignExecutor exec(o, stub_result);
  const auto cfgs = make_configs(5);
  const auto results = exec.run_all(cfgs);
  ASSERT_EQ(results.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(results[i]),
              serialize_run_result(stub_result(cfgs[i])))
        << "index " << i;
  }
  EXPECT_TRUE(exec.quarantined().empty());
  // jobs = 0 forks nothing: every attempt ran in this process, one slot.
  EXPECT_EQ(exec.stats().launched, 0);
  EXPECT_EQ(exec.stats().jobs, 1);
  EXPECT_EQ(exec.stats().spans.size(), cfgs.size());
}

TEST(Executor, DefaultOptionsRunInProcess) {
  // Library callers never fork unasked: a default-constructed
  // ExecutorOptions runs the batch in this process.
  CampaignExecutor exec(ExecutorOptions{}, stub_result);
  const auto cfgs = make_configs(3);
  ASSERT_EQ(exec.run_all(cfgs).size(), cfgs.size());
  EXPECT_EQ(exec.stats().launched, 0);
  EXPECT_EQ(exec.stats().jobs, 1);
}

TEST(Executor, InProcessRetriesAThrowingRunBeforeQuarantine) {
  // The retry policy is the same for every slot source: a run that throws
  // in-process is retried, and quarantined only once retries run out.
  std::map<std::uint64_t, int> attempts;
  const auto fn = [&attempts](const RunConfig& cfg) -> RunResult {
    const int n = attempts[cfg.run_seed]++;
    if (cfg.run_seed == 1001 && n == 0) throw std::runtime_error("flaky");
    if (cfg.run_seed == 1002) throw std::runtime_error("always broken");
    return stub_result(cfg);
  };
  ExecutorOptions o = fast_options();
  o.jobs = 0;
  o.max_retries = 1;
  CampaignExecutor exec(o, fn);
  const auto cfgs = make_configs(3);
  const auto results = exec.run_all(cfgs);

  EXPECT_EQ(serialize_run_result(results[1]),
            serialize_run_result(stub_result(cfgs[1])));
  EXPECT_EQ(results[2].outcome, FaultOutcome::kHarnessError);
  EXPECT_EQ(attempts[1001], 2);
  EXPECT_EQ(attempts[1002], 2);
  EXPECT_EQ(exec.stats().retries, 2);
  EXPECT_EQ(exec.stats().launched, 0);
  ASSERT_EQ(exec.quarantined().size(), 1u);
  EXPECT_EQ(exec.quarantined()[0].index, 2u);
  EXPECT_EQ(exec.quarantined()[0].what, "always broken");
}

TEST(Executor, RetriedRunFoldsOnlyTheSettlingAttemptsCapture) {
  // Both attempts of a traced run leave a capture; the first then throws.
  // Only the attempt that settles the run contributes its trace residue.
  int attempts = 0;
  const auto fn = [&attempts](const RunConfig& cfg) -> RunResult {
    const int n = attempts++;
    obs::RunCapture cap = synthetic_capture(cfg.run_seed);
    cap.dropped = n == 0 ? 100 : 7;  // tells the two attempts apart
    obs::set_last_run_capture(std::move(cap));
    if (n == 0) throw std::runtime_error("first attempt fails");
    return stub_result(cfg);
  };
  ExecutorOptions o = pool_options(0);
  o.max_retries = 1;
  CampaignExecutor exec(o, fn);
  const auto cfgs = make_configs(1);
  const auto results = exec.run_all(cfgs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(serialize_run_result(results[0]),
            serialize_run_result(stub_result(cfgs[0])));
  EXPECT_EQ(attempts, 2);
  ASSERT_EQ(exec.stats().captures.size(), 1u);
  EXPECT_EQ(exec.stats().captures[0].plan_index, 0u);
  EXPECT_EQ(exec.stats().captures[0].capture.dropped, 7u);
  EXPECT_EQ(exec.stats().trace_dropped, 7u);
}

#if DAV_TEST_POSIX

TEST(Executor, ParallelForkedMatchesSerial) {
  CampaignExecutor exec(fast_options(), stub_result);
  const auto cfgs = make_configs(9);
  const auto results = exec.run_all(cfgs);
  ASSERT_EQ(results.size(), cfgs.size());
  // Workers finish in any order; the merged batch must be bit-identical to a
  // serial sweep anyway.
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(results[i]),
              serialize_run_result(stub_result(cfgs[i])))
        << "index " << i;
  }
  EXPECT_TRUE(exec.quarantined().empty());
  EXPECT_EQ(exec.stats().launched, 2);
}

TEST(Executor, CrashingAndAbortingRunsAreQuarantined) {
  // Seeds 1001 / 1003 die at the OS level inside the worker. Under
  // AddressSanitizer a SIGSEGV becomes a diagnostic + nonzero exit instead of
  // a signal death; both read as "no complete result record" and quarantine.
  const auto fn = [](const RunConfig& cfg) -> RunResult {
    if (cfg.run_seed == 1001) ::raise(SIGSEGV);
    if (cfg.run_seed == 1003) std::abort();
    return stub_result(cfg);
  };
  CampaignExecutor exec(fast_options(), fn);
  const auto cfgs = make_configs(5);
  const auto results = exec.run_all(cfgs);
  ASSERT_EQ(results.size(), cfgs.size());

  for (const std::size_t bad : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(results[bad].outcome, FaultOutcome::kHarnessError);
    // The placeholder still names the offending run.
    EXPECT_EQ(results[bad].run_seed, cfgs[bad].run_seed);
    EXPECT_EQ(results[bad].fault.target_dyn_index,
              cfgs[bad].fault.target_dyn_index);
  }
  for (const std::size_t good : {std::size_t{0}, std::size_t{2},
                                 std::size_t{4}}) {
    EXPECT_EQ(serialize_run_result(results[good]),
              serialize_run_result(stub_result(cfgs[good])));
  }
  ASSERT_EQ(exec.quarantined().size(), 2u);
  EXPECT_EQ(exec.quarantined()[0].index, 1u);
  EXPECT_EQ(exec.quarantined()[1].index, 3u);
  EXPECT_EQ(exec.quarantined()[0].cfg.run_seed, 1001u);
  EXPECT_EQ(exec.stats().quarantined, 2);
}

TEST(Executor, WatchdogKillsHangingWorker) {
  const auto fn = [](const RunConfig& cfg) -> RunResult {
    if (cfg.run_seed == 1001) {
      for (;;) ::usleep(10000);  // a hung agent: never returns
    }
    return stub_result(cfg);
  };
  ExecutorOptions o = fast_options();
  o.run_timeout_sec = 0.25;
  CampaignExecutor exec(o, fn);
  const auto cfgs = make_configs(3);
  const auto results = exec.run_all(cfgs);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].outcome, FaultOutcome::kHarnessError);
  EXPECT_EQ(results[1].run_seed, 1001u);
  EXPECT_EQ(serialize_run_result(results[0]),
            serialize_run_result(stub_result(cfgs[0])));
  EXPECT_EQ(serialize_run_result(results[2]),
            serialize_run_result(stub_result(cfgs[2])));
  ASSERT_EQ(exec.quarantined().size(), 1u);
  EXPECT_NE(exec.quarantined()[0].what.find("watchdog"), std::string::npos)
      << exec.quarantined()[0].what;
  EXPECT_GE(exec.stats().timeouts, 1);
}

#if defined(__SANITIZE_ADDRESS__)
#define DAV_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DAV_TEST_ASAN 1
#endif
#endif

#ifndef DAV_TEST_ASAN
TEST(Executor, AddressSpaceLimitQuarantinesRunawayAllocation) {
  // RLIMIT_AS turns a runaway allocation into a quarantine instead of an
  // OOM-killed campaign. (Compiled out under ASan, which needs terabytes of
  // virtual address space for shadow memory.)
  const auto fn = [](const RunConfig& cfg) -> RunResult {
    if (cfg.run_seed == 1001) {
      std::vector<std::string> hog;
      for (;;) hog.emplace_back(64u << 20, 'x');
    }
    return stub_result(cfg);
  };
  ExecutorOptions o = fast_options();
  o.address_space_mb = 512;
  CampaignExecutor exec(o, fn);
  const auto cfgs = make_configs(3);
  const auto results = exec.run_all(cfgs);

  EXPECT_EQ(results[1].outcome, FaultOutcome::kHarnessError);
  EXPECT_EQ(results[1].run_seed, 1001u);
  EXPECT_EQ(serialize_run_result(results[0]),
            serialize_run_result(stub_result(cfgs[0])));
  EXPECT_EQ(serialize_run_result(results[2]),
            serialize_run_result(stub_result(cfgs[2])));
  ASSERT_EQ(exec.quarantined().size(), 1u);
}
#endif  // DAV_TEST_ASAN

TEST(Executor, RetryRecoversATransientWorkerDeath) {
  const std::string marker = temp_path("executor_retry_marker");
  // First attempt: leave the marker and die. Retry: marker present, succeed.
  const auto fn = [marker](const RunConfig& cfg) -> RunResult {
    if (cfg.run_seed == 1001) {
      struct stat st {};
      if (::stat(marker.c_str(), &st) != 0) {
        std::ofstream(marker) << "attempt";
        ::raise(SIGKILL);
      }
    }
    return stub_result(cfg);
  };
  ExecutorOptions o = fast_options();
  o.jobs = 1;  // the retry lands on the respawned replacement worker
  o.max_retries = 2;
  CampaignExecutor exec(o, fn);
  const auto cfgs = make_configs(3);
  const auto results = exec.run_all(cfgs);

  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(results[i]),
              serialize_run_result(stub_result(cfgs[i])))
        << "index " << i;
  }
  EXPECT_TRUE(exec.quarantined().empty());
  EXPECT_GE(exec.stats().retries, 1);
  EXPECT_GE(exec.stats().respawns, 1);
  std::remove(marker.c_str());
}

TEST(Executor, QuarantineVerdictSurvivesResume) {
  const std::string journal = temp_path("executor_verdict.journal");
  const auto fn = [](const RunConfig& cfg) -> RunResult {
    if (cfg.run_seed == 1002) std::abort();
    return stub_result(cfg);
  };
  const auto cfgs = make_configs(4);

  ExecutorOptions o = fast_options();
  o.journal_path = journal;
  CampaignExecutor first(o, fn);
  const auto ref = first.run_all(cfgs);
  ASSERT_EQ(first.quarantined().size(), 1u);

  // Relaunch over the same journal: everything (including the quarantine
  // verdict) replays without re-executing a single worker.
  CampaignExecutor second(o, fn);
  const auto res = second.run_all(cfgs);
  EXPECT_EQ(second.stats().launched, 0);
  EXPECT_EQ(second.stats().journal_hits, 4);
  ASSERT_EQ(second.quarantined().size(), 1u);
  EXPECT_EQ(second.quarantined()[0].index, 2u);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(res[i]), serialize_run_result(ref[i]))
        << "index " << i;
  }
  std::remove(journal.c_str());
}

TEST(Executor, KillMidFlightThenResumeIsBitIdentical) {
  const std::string journal = temp_path("executor_resume.journal");
  const auto slow_stub = [](const RunConfig& cfg) -> RunResult {
    ::usleep(150000);  // slow enough that a kill lands mid-campaign
    return stub_result(cfg);
  };
  const auto cfgs = make_configs(6);

  // Uninterrupted reference, no journal involved.
  CampaignExecutor ref_exec(fast_options(), slow_stub);
  const auto ref = ref_exec.run_all(cfgs);

  ExecutorOptions o = fast_options();
  o.jobs = 1;
  o.journal_path = journal;

  // Supervisor child: runs the journaled campaign until we SIGKILL it.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CampaignExecutor exec(o, slow_stub);
    exec.run_all(cfgs);
    ::_exit(0);
  }
  // Wait until at least one full record is journaled (header is 20 bytes; a
  // record is a few hundred), then hard-kill the supervisor.
  bool saw_progress = false;
  for (int i = 0; i < 400; ++i) {
    struct stat st {};
    if (::stat(journal.c_str(), &st) == 0 && st.st_size > 250) {
      saw_progress = true;
      break;
    }
    ::usleep(25000);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(saw_progress) << "supervisor never journaled a record";

  // Resume in this process, in-process (jobs = 0): journaled runs replay,
  // the rest re-execute, and the merged batch is bit-identical to the
  // uninterrupted pool reference — resume works across slot sources.
  o.jobs = 0;
  CampaignExecutor resumed(o, slow_stub);
  const auto res = resumed.run_all(cfgs);
  ASSERT_EQ(res.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(serialize_run_result(res[i]), serialize_run_result(ref[i]))
        << "index " << i;
  }
  EXPECT_GE(resumed.stats().journal_hits, 1);
  EXPECT_TRUE(resumed.quarantined().empty());
  std::remove(journal.c_str());
}

TEST(Executor, RealRunsAreBitIdenticalAcrossProcessBoundary) {
  // The default RunFn (run_experiment) shipped through the pool's pipes must
  // give byte-for-byte the results of calling it in-process: run_experiment
  // is a pure function of RunConfig, and the wire format is bit-exact.
  std::vector<RunConfig> cfgs(2);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].run_seed = 7 + i;
    cfgs[i].scenario_opts.safety_duration_sec = 2.0;
    cfgs[i].record_traces = true;
  }
  CampaignExecutor exec(fast_options());
  const auto forked = exec.run_all(cfgs);
  ASSERT_EQ(forked.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(forked[i]),
              serialize_run_result(run_experiment(cfgs[i])))
        << "index " << i;
  }
}

// ---- persistent prefork pool ----

TEST(ExecutorPool, MatchesSerialAndForkPerRunByteForByte) {
  // The name predates the removal of the fork-per-run strategy; its
  // one-process-at-a-time reference is now a one-worker pool.
  const auto cfgs = make_configs(9);

  CampaignExecutor serial_exec(pool_options(/*jobs=*/0), stub_result);
  const auto ref = serial_exec.run_all(cfgs);

  CampaignExecutor single_exec(pool_options(/*jobs=*/1), stub_result);
  const auto single = single_exec.run_all(cfgs);

  CampaignExecutor pool_exec(pool_options(), stub_result);
  const auto pooled = pool_exec.run_all(cfgs);

  ASSERT_EQ(pooled.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(pooled[i]), serialize_run_result(ref[i]))
        << "pool vs serial, index " << i;
    EXPECT_EQ(serialize_run_result(pooled[i]), serialize_run_result(single[i]))
        << "pool vs one-worker pool, index " << i;
  }
  EXPECT_TRUE(pool_exec.quarantined().empty());
  // Persistent workers: one spawn wave serves the whole batch.
  EXPECT_EQ(pool_exec.stats().pool_workers, 2);
  EXPECT_EQ(pool_exec.stats().launched, 2);
  EXPECT_EQ(pool_exec.stats().respawns, 0);
  EXPECT_EQ(single_exec.stats().launched, 1);
  int served = 0;
  for (int s : pool_exec.stats().slot_runs_served) served += s;
  EXPECT_EQ(served, 9);
}

TEST(ExecutorPool, WorkerRespawnsAfterCrashAndBatchCompletes) {
  // One worker serves the whole batch (jobs=1); the crash on run 1 must not
  // take down runs 0 and 2 — the supervisor quarantines run 1, respawns a
  // replacement worker and finishes the batch.
  const auto fn = [](const RunConfig& cfg) -> RunResult {
    if (cfg.run_seed == 1001) ::raise(SIGSEGV);
    return stub_result(cfg);
  };
  CampaignExecutor exec(pool_options(/*jobs=*/1), fn);
  const auto cfgs = make_configs(3);
  const auto results = exec.run_all(cfgs);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].outcome, FaultOutcome::kHarnessError);
  EXPECT_EQ(results[1].run_seed, 1001u);
  EXPECT_EQ(serialize_run_result(results[0]),
            serialize_run_result(stub_result(cfgs[0])));
  EXPECT_EQ(serialize_run_result(results[2]),
            serialize_run_result(stub_result(cfgs[2])));
  ASSERT_EQ(exec.quarantined().size(), 1u);
  EXPECT_EQ(exec.quarantined()[0].index, 1u);
  EXPECT_EQ(exec.stats().pool_workers, 1);
  EXPECT_GE(exec.stats().respawns, 1);
}

TEST(ExecutorPool, WatchdogKillsHangingWorkerAndRespawns) {
  const auto fn = [](const RunConfig& cfg) -> RunResult {
    if (cfg.run_seed == 1001) {
      for (;;) ::usleep(10000);  // a hung agent: never returns
    }
    return stub_result(cfg);
  };
  ExecutorOptions o = pool_options(/*jobs=*/1);
  o.run_timeout_sec = 0.25;
  CampaignExecutor exec(o, fn);
  const auto cfgs = make_configs(3);
  const auto results = exec.run_all(cfgs);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].outcome, FaultOutcome::kHarnessError);
  EXPECT_EQ(serialize_run_result(results[0]),
            serialize_run_result(stub_result(cfgs[0])));
  EXPECT_EQ(serialize_run_result(results[2]),
            serialize_run_result(stub_result(cfgs[2])));
  ASSERT_EQ(exec.quarantined().size(), 1u);
  EXPECT_NE(exec.quarantined()[0].what.find("watchdog"), std::string::npos)
      << exec.quarantined()[0].what;
  EXPECT_GE(exec.stats().timeouts, 1);
  EXPECT_GE(exec.stats().respawns, 1);
}

TEST(ExecutorPool, RetryRecoversATransientWorkerDeath) {
  const std::string marker = temp_path("pool_retry_marker");
  const auto fn = [marker](const RunConfig& cfg) -> RunResult {
    if (cfg.run_seed == 1001) {
      struct stat st {};
      if (::stat(marker.c_str(), &st) != 0) {
        std::ofstream(marker) << "attempt";
        ::raise(SIGKILL);
      }
    }
    return stub_result(cfg);
  };
  ExecutorOptions o = pool_options();
  o.max_retries = 2;
  CampaignExecutor exec(o, fn);
  const auto cfgs = make_configs(3);
  const auto results = exec.run_all(cfgs);

  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(results[i]),
              serialize_run_result(stub_result(cfgs[i])))
        << "index " << i;
  }
  EXPECT_TRUE(exec.quarantined().empty());
  EXPECT_GE(exec.stats().retries, 1);
  std::remove(marker.c_str());
}

TEST(ExecutorPool, RealRunsBitIdenticalWithFullConfigCodec) {
  // Real run_experiment through the pool's request/response codec, with the
  // full detector + mitigation + trace cluster riding in the request frame:
  // byte-for-byte the serial results. With jobs=1 both runs share one worker
  // and its checkpoint store, which checkpoint-off runs never consult.
  ThresholdLut lut;
  VehicleState s;
  s.v = 10.0;
  lut.observe(s, {0.1, 0.1, 0.1});

  std::vector<RunConfig> cfgs(2);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].scenario = ScenarioId::kLeadSlowdown;
    cfgs[i].mode = AgentMode::kRoundRobin;
    cfgs[i].run_seed = 7 + i;
    cfgs[i].record_traces = true;
    cfgs[i].online_lut = &lut;
    cfgs[i].mitigation = MitigationPolicy::kRestartRecovery;
    cfgs[i].scenario_opts.safety_duration_sec = 2.0;
  }

  CampaignExecutor pool_exec(pool_options(/*jobs=*/1));
  const auto pooled = pool_exec.run_all(cfgs);
  ASSERT_EQ(pooled.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(pooled[i]),
              serialize_run_result(run_experiment(cfgs[i])))
        << "index " << i;
  }
  EXPECT_EQ(pool_exec.stats().checkpoint_hits, 0u);
  EXPECT_EQ(pool_exec.stats().checkpoint_misses, 0u);
}

TEST(ExecutorPool, KillMidFlightThenResumeIsBitIdentical) {
  const std::string journal = temp_path("pool_resume.journal");
  const auto slow_stub = [](const RunConfig& cfg) -> RunResult {
    ::usleep(150000);  // slow enough that a kill lands mid-campaign
    return stub_result(cfg);
  };
  const auto cfgs = make_configs(6);

  // Uninterrupted serial reference, no journal involved.
  CampaignExecutor ref_exec(pool_options(/*jobs=*/0), slow_stub);
  const auto ref = ref_exec.run_all(cfgs);

  ExecutorOptions o = pool_options(/*jobs=*/1);
  o.journal_path = journal;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CampaignExecutor exec(o, slow_stub);
    exec.run_all(cfgs);
    ::_exit(0);
  }
  bool saw_progress = false;
  for (int i = 0; i < 400; ++i) {
    struct stat st {};
    if (::stat(journal.c_str(), &st) == 0 && st.st_size > 250) {
      saw_progress = true;
      break;
    }
    ::usleep(25000);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(saw_progress) << "supervisor never journaled a record";

  // Resume in pool mode: journaled runs replay, the rest re-execute in
  // fresh pool workers, and the merged batch matches the serial reference.
  CampaignExecutor resumed(o, slow_stub);
  const auto res = resumed.run_all(cfgs);
  ASSERT_EQ(res.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(serialize_run_result(res[i]), serialize_run_result(ref[i]))
        << "index " << i;
  }
  EXPECT_GE(resumed.stats().journal_hits, 1);
  EXPECT_TRUE(resumed.quarantined().empty());
  std::remove(journal.c_str());
}

TEST(ExecutorPool, MergedRunsTraceByteIdenticalAcrossIdenticalCampaigns) {
  // The workload stashes a deterministic capture per run, exactly as the
  // driver does for real traced runs, and sleeps a seed-dependent while so
  // pool completions arrive out of plan order. Two 2-worker pool campaigns
  // and an in-process one must merge to byte-identical runs-trace JSON.
  const auto traced_stub = [](const RunConfig& cfg) {
    ::usleep(static_cast<useconds_t>(cfg.run_seed % 3) * 5000);
    obs::set_last_run_capture(synthetic_capture(cfg.run_seed));
    return stub_result(cfg);
  };
  const auto cfgs = make_configs(10);
  const auto runs_trace = [&](int jobs) {
    CampaignExecutor exec(pool_options(jobs), traced_stub);
    EXPECT_EQ(exec.run_all(cfgs).size(), cfgs.size());
    EXPECT_EQ(exec.stats().captures.size(), cfgs.size());
    return campaign_runs_trace_json(exec.stats(), "00000000deadbeef");
  };
  const std::string first = runs_trace(2);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(runs_trace(2), first);
  EXPECT_EQ(runs_trace(0), first);
}

TEST(ExecutorPool, SlotsNeverExceedTheBatch) {
  // A worker count far past the batch sizes the slot table by the batch:
  // three runs need three slots, whatever `jobs` allows.
  CampaignExecutor exec(pool_options(/*jobs=*/1 << 20), stub_result);
  const auto cfgs = make_configs(3);
  ASSERT_EQ(exec.run_all(cfgs).size(), cfgs.size());
  EXPECT_EQ(exec.stats().jobs, 3);
  EXPECT_EQ(exec.stats().slot_busy_sec.size(), 3u);
  EXPECT_EQ(exec.stats().slot_runs_served.size(), 3u);
  EXPECT_LE(exec.stats().launched, 3);
}

// ---- request codec ----

TEST(RunConfigCodec, RoundTripPreservesDigestAndBytes) {
  ThresholdLut lut;
  VehicleState s;
  s.v = 12.5;
  lut.observe(s, {0.25, 0.125, 1.0 / 3.0});  // 1/3: not exact in 6 digits

  RunConfig cfg;
  cfg.scenario = ScenarioId::kGhostCutIn;
  cfg.mode = AgentMode::kRoundRobin;
  cfg.run_seed = 77;
  cfg.record_traces = true;
  cfg.online_lut = &lut;
  cfg.mitigation = MitigationPolicy::kRestartRecovery;
  cfg.fault.kind = FaultModelKind::kTransient;
  cfg.fault.target_dyn_index = 4242;
  cfg.trace.dir = "/tmp/traces";
  cfg.trace.pid = 9;
  cfg.trace.label = "codec";

  const std::string bytes = serialize_run_config(cfg);
  const RunConfigRecord rec = deserialize_run_config(bytes);
  EXPECT_EQ(run_config_digest(rec.cfg), run_config_digest(cfg));
  ASSERT_NE(rec.cfg.online_lut, nullptr);
  EXPECT_EQ(rec.cfg.trace.label, "codec");
  // The decoded config re-serializes to the same bytes: the LUT text format
  // at max_digits10 precision is an exact double round-trip.
  EXPECT_EQ(serialize_run_config(rec.cfg), bytes);
}

TEST(RunConfigCodec, FramingDetectsCorruptionAndPartialFrames) {
  const std::string framed = frame_message("hello pool");
  FrameSplit part = try_unframe(framed.substr(0, framed.size() - 1));
  EXPECT_EQ(part.status, FrameSplit::Status::kNeedMore);
  FrameSplit full = try_unframe(framed);
  ASSERT_EQ(full.status, FrameSplit::Status::kOk);
  EXPECT_EQ(full.payload, "hello pool");
  EXPECT_EQ(full.consumed, framed.size());
  std::string bad = framed;
  bad[bad.size() - 1] ^= 0x01;
  EXPECT_EQ(try_unframe(bad).status, FrameSplit::Status::kCorrupt);
}

// ---- campaign routing ----

TEST(CampaignManagerRouting, InjectedExecutorOptionsMatchSerialPath) {
  CampaignScale scale;
  scale.golden_runs = 2;
  scale.safety_duration_sec = 2.0;
  scale.long_route_duration_sec = 4.0;

  // The legacy ctor is env-free: defaults mean the in-process slot.
  CampaignManager legacy(scale, 2022);
  const auto ref = legacy.golden(ScenarioId::kLeadSlowdown,
                                 AgentMode::kRoundRobin, 2);

  const std::string journal = temp_path("campaign_routing.journal");
  EnvOptions env = EnvOptions::defaults();
  env.jobs = 2;
  env.journal_path = journal;
  CampaignManager routed(scale, env, 2022);
  const auto res = routed.golden(ScenarioId::kLeadSlowdown,
                                 AgentMode::kRoundRobin, 2);
  // Second manager over the same journal: pure replay, still identical.
  CampaignManager resumed(scale, env, 2022);
  const auto res2 = resumed.golden(ScenarioId::kLeadSlowdown,
                                   AgentMode::kRoundRobin, 2);

  ASSERT_EQ(res.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(serialize_run_result(res[i]), serialize_run_result(ref[i]))
        << "index " << i;
    EXPECT_EQ(serialize_run_result(res2[i]), serialize_run_result(ref[i]))
        << "index " << i;
  }
  EXPECT_TRUE(routed.quarantined().empty());
  std::remove(journal.c_str());
}

TEST(CampaignManagerRouting, LegacyConstructorIgnoresEnvironment) {
  // Malformed env vars must not reach the env-free overload: only
  // EnvOptions::from_env() reads the environment, and only when asked.
  setenv("DAV_JOBS", "not-a-number", 1);
  CampaignScale scale;
  scale.golden_runs = 1;
  scale.safety_duration_sec = 1.0;
  EXPECT_NO_THROW({ CampaignManager mgr(scale, 2022); });
  EXPECT_THROW(EnvOptions::from_env(), std::invalid_argument);
  unsetenv("DAV_JOBS");
}

#endif  // DAV_TEST_POSIX

// ---- stream framing ----

TEST(StreamFraming, FrameSurvivesEveryByteBoundarySplit) {
  const std::string payload = "config-bytes-go-here";
  const std::string frame = frame_message(payload);
  // Deliver the frame 1 byte at a time: kNeedMore at every prefix, then one
  // clean kOk at the final byte — no spurious corrupt verdicts mid-frame.
  std::string buf;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    buf.push_back(frame[i]);
    const FrameSplit fs = try_unframe(buf);
    EXPECT_EQ(fs.status, FrameSplit::Status::kNeedMore) << "byte " << i;
  }
  buf.push_back(frame.back());
  const FrameSplit fs = try_unframe(buf);
  ASSERT_EQ(fs.status, FrameSplit::Status::kOk);
  EXPECT_EQ(fs.payload, payload);
  EXPECT_EQ(fs.consumed, frame.size());
}

TEST(StreamFraming, TwoFramesInOneChunkSplitCleanly) {
  const std::string p1 = "x";
  const std::string p2 = std::string("res\0ult", 7);
  std::string buf = frame_message(p1) + frame_message(p2);
  FrameSplit fs = try_unframe(buf);
  ASSERT_EQ(fs.status, FrameSplit::Status::kOk);
  EXPECT_EQ(fs.payload, p1);
  buf.erase(0, fs.consumed);
  fs = try_unframe(buf);
  ASSERT_EQ(fs.status, FrameSplit::Status::kOk);
  EXPECT_EQ(fs.payload, p2);
  EXPECT_EQ(fs.consumed, buf.size());
}

TEST(StreamFraming, CorruptedByteIsDetected) {
  std::string frame = frame_message("config-bytes-go-here");
  frame[frame.size() - 3] ^= 0x40;  // flip a payload bit
  EXPECT_EQ(try_unframe(frame).status, FrameSplit::Status::kCorrupt);
}

// ---- retry backoff ----

TEST(RetryBackoff, DeterministicJitteredAndBounded) {
  const double base = 0.25;
  // Pure: same inputs, same delay.
  EXPECT_EQ(backoff_delay_sec(base, 3, 42), backoff_delay_sec(base, 3, 42));
  // Jitter stays in [0.75, 1.25) of the capped exponential.
  for (int attempt = 0; attempt < 20; ++attempt) {
    for (std::uint64_t salt : {0ull, 7ull, 0xFFFFFFFFFFFFull}) {
      const double d = backoff_delay_sec(base, attempt, salt, 60.0);
      const double nominal =
          std::min(base * static_cast<double>(1 << std::min(attempt, 16)),
                   60.0);
      EXPECT_GE(d, 0.75 * nominal);
      EXPECT_LT(d, 1.25 * nominal);
    }
  }
  // Different salts de-synchronize (thundering-herd defense): at least one
  // pair of salts must disagree for the same attempt.
  EXPECT_NE(backoff_delay_sec(base, 4, 1), backoff_delay_sec(base, 4, 2));
  // Growth: a later attempt waits longer than the first despite jitter.
  EXPECT_GT(backoff_delay_sec(base, 3, 9), backoff_delay_sec(base, 0, 9));
}

TEST(RetryBackoff, HugeAttemptCountsDoNotOverflow) {
  // Regression: the executor used to compute `1 << attempt`, which is
  // undefined behavior past 30 retries. The clamped version must stay
  // finite and capped for any attempt count.
  for (int attempt : {31, 32, 40, 62, 1000, 1 << 30}) {
    const double d = backoff_delay_sec(0.25, attempt, 123, 60.0);
    EXPECT_TRUE(std::isfinite(d)) << "attempt " << attempt;
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 1.25 * 60.0);
  }
  // Negative attempts clamp to the base delay instead of shifting by a
  // negative count (also UB).
  const double d = backoff_delay_sec(0.25, -5, 123, 60.0);
  EXPECT_GE(d, 0.75 * 0.25);
  EXPECT_LT(d, 1.25 * 0.25);
}

// ---- run trace capture codec ----

TEST(TelemetryCodec, RunCaptureRoundTripsIncludingTickLength) {
  RunTraceCapture cap;
  cap.plan_index = 17;
  cap.capture = synthetic_capture(9);
  const std::string blob = encode_run_capture(cap);
  const RunTraceCapture back = decode_run_capture(blob);
  EXPECT_EQ(back.plan_index, 17u);
  EXPECT_TRUE(back.capture.valid);
  EXPECT_EQ(back.capture.dropped, cap.capture.dropped);
  EXPECT_DOUBLE_EQ(back.capture.dt, 0.025);
  EXPECT_EQ(back.capture.histograms.total_count(), 2u);
  EXPECT_EQ(
      back.capture.histograms.at(obs::Stage::kPlanner).percentile_ns(50.0),
      4096u);
  ASSERT_EQ(back.capture.instants.size(), 1u);
  EXPECT_EQ(back.capture.instants[0].tick, cap.capture.instants[0].tick);
  EXPECT_EQ(back.capture.instants[0].id, cap.capture.instants[0].id);
  EXPECT_EQ(back.capture.instants[0].track, cap.capture.instants[0].track);
  EXPECT_DOUBLE_EQ(back.capture.instants[0].value,
                   cap.capture.instants[0].value);

  EXPECT_THROW(decode_run_capture(blob.substr(0, blob.size() - 1)),
               std::runtime_error);
  EXPECT_THROW(decode_run_capture(blob + "x"), std::runtime_error);
}

TEST(TelemetryCodec, HugeElementCountIsRejectedBeforeAllocating) {
  // A 38-byte capture (empty histograms) whose instant count reads
  // 0xFFFFFFFF would size a ~100 GB reserve(); the decoder must check the
  // count against the bytes that remain first.
  std::string capture = encode_run_capture(RunTraceCapture{});
  ASSERT_EQ(capture.size(), 38u);
  capture.replace(capture.size() - 4, 4, std::string(4, '\xFF'));
  EXPECT_THROW(decode_run_capture(capture), std::runtime_error);
}

}  // namespace
}  // namespace dav
