// Socket transport + distributed campaign service: framing over byte
// streams, endpoint parsing, deterministic backoff, the worker-daemon
// handshake, and the fault-tolerant coordinator (work-stealing, straggler
// re-dispatch, duplicate discard, dead-worker requeue, journal merge).
// The daemon/coordinator machinery is POSIX-only, like the executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/executor.h"
#include "campaign/journal.h"
#include "campaign/serialize.h"
#include "campaign/transport.h"
#include "util/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#define DAV_TEST_POSIX 1
#include <chrono>
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#endif

namespace dav {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- framing over a byte stream -------------------------------------------

TEST(TransportFraming, FrameSurvivesEveryByteBoundarySplit) {
  const std::string payload = msg_run_request(7, "config-bytes-go-here");
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

TEST(TransportFraming, TwoFramesInOneChunkSplitCleanly) {
  const std::string p1 = msg_heartbeat();
  const std::string p2 = msg_run_result(3, "payload");
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

TEST(TransportFraming, CorruptedByteIsDetected) {
  std::string frame = frame_message(msg_hello(0x1234, 0));
  frame[frame.size() - 3] ^= 0x40;  // flip a payload bit
  const FrameSplit fs = try_unframe(frame);
  EXPECT_EQ(fs.status, FrameSplit::Status::kCorrupt);
}

// ---- message codec --------------------------------------------------------

TEST(TransportCodec, MessagesRoundTrip) {
  TransportMsg m = parse_transport_msg(msg_hello(0xDEADBEEFull, 42));
  EXPECT_EQ(m.type, TransportMsgType::kHello);
  EXPECT_EQ(m.proto_version, kTransportProtocolVersion);
  EXPECT_EQ(m.fingerprint, 0xDEADBEEFull);
  EXPECT_EQ(m.clock_ns, 42u);

  m = parse_transport_msg(msg_hello_ack(4, 43));
  EXPECT_EQ(m.type, TransportMsgType::kHelloAck);
  EXPECT_EQ(m.slots, 4u);
  EXPECT_EQ(m.clock_ns, 43u);

  m = parse_transport_msg(msg_hello_reject("wrong campaign"));
  EXPECT_EQ(m.type, TransportMsgType::kHelloReject);
  EXPECT_EQ(m.reason, "wrong campaign");

  m = parse_transport_msg(msg_run_request(41, "cfg"));
  EXPECT_EQ(m.type, TransportMsgType::kRunRequest);
  EXPECT_EQ(m.index, 41u);
  EXPECT_EQ(m.body, "cfg");

  m = parse_transport_msg(msg_run_result(9, std::string("res\0ult", 7)));
  EXPECT_EQ(m.type, TransportMsgType::kRunResult);
  EXPECT_EQ(m.index, 9u);
  EXPECT_EQ(m.body, std::string("res\0ult", 7));

  m = parse_transport_msg(msg_heartbeat());
  EXPECT_EQ(m.type, TransportMsgType::kHeartbeat);
}

TEST(TransportCodec, GarbageAndTruncationThrow) {
  EXPECT_THROW(parse_transport_msg(""), std::runtime_error);
  EXPECT_THROW(parse_transport_msg("\x7f"), std::runtime_error);
  // A truncated kHello (type byte only).
  EXPECT_THROW(parse_transport_msg(std::string(1, '\x01')),
               std::runtime_error);
  // Trailing garbage after a fixed-size message.
  EXPECT_THROW(parse_transport_msg(msg_heartbeat() + "x"),
               std::runtime_error);
}

TEST(TransportCodec, ResultPayloadRoundTripsThroughRunResultMsg) {
  // The result payload embedded in kRunResult must come back byte-identical:
  // the journal merge relies on it.
  RunConfig cfg;
  cfg.run_seed = 77;
  const std::string payload = make_result_payload(true, {}, stub_result(cfg));
  const TransportMsg m = parse_transport_msg(msg_run_result(5, payload));
  EXPECT_EQ(m.body, payload);
  const ResultPayload p = parse_result_payload(m.body);
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(serialize_run_result(p.result),
            serialize_run_result(stub_result(cfg)));
}

// ---- endpoints ------------------------------------------------------------

TEST(TransportEndpoint, ParsesTcpAndUnixSpecs) {
  Endpoint ep = parse_endpoint("localhost:9000");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "localhost");
  EXPECT_EQ(ep.port, 9000);

  ep = parse_endpoint("unix:/tmp/dav.sock");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/dav.sock");

  EXPECT_THROW(parse_endpoint(""), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("nohost"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint(":123"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:0"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:70000"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:12x"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("unix:"), std::invalid_argument);
}

TEST(TransportEndpoint, SplitWorkerListTrimsAndRejectsEmpties) {
  const std::vector<std::string> specs =
      split_worker_list(" a:1 , unix:/x ,b:2");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0], "a:1");
  EXPECT_EQ(specs[1], "unix:/x");
  EXPECT_EQ(specs[2], "b:2");
  EXPECT_THROW(split_worker_list(""), std::invalid_argument);
  EXPECT_THROW(split_worker_list("a:1,,b:2"), std::invalid_argument);
  EXPECT_THROW(split_worker_list("a:1,"), std::invalid_argument);
}

// ---- backoff --------------------------------------------------------------

TEST(TransportBackoff, DeterministicJitteredAndBounded) {
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

TEST(TransportBackoff, HugeAttemptCountsDoNotOverflow) {
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

// ---- telemetry codec -------------------------------------------------------

/// A deterministic trace residue keyed on the run seed — stands in for what
/// the driver stashes after a real traced run.
obs::RunCapture synthetic_capture(std::uint64_t seed) {
  obs::RunCapture cap;
  cap.valid = true;
  cap.dropped = seed % 5;
  cap.dt = 0.025;
  cap.histograms.at(obs::Stage::kControl).add(std::uint64_t{1} << (10 + seed % 3));
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

  // The kTelemetry wrapper forwards the blob verbatim under its sub-type.
  const TransportMsg msg = parse_transport_msg(msg_telemetry_capture(blob));
  ASSERT_EQ(msg.type, TransportMsgType::kTelemetry);
  EXPECT_EQ(telemetry_subtype(msg.body), kTelemetryRunCapture);
  EXPECT_EQ(decode_telemetry_capture(msg.body).plan_index, 17u);

  EXPECT_THROW(decode_run_capture(blob.substr(0, blob.size() - 1)),
               std::runtime_error);
  EXPECT_THROW(decode_run_capture(blob + "x"), std::runtime_error);
}

TEST(TelemetryCodec, AggregateRoundTrips) {
  TelemetryAggregate agg;
  agg.base_ns = 123456789;
  agg.launched = 10;
  agg.respawns = 1;
  agg.timeouts = 2;
  agg.signal_deaths = 3;
  agg.checkpoint_hits = 4;
  agg.checkpoint_misses = 5;
  agg.checkpoint_evictions = 9;
  agg.trace_dropped = 6;
  agg.histograms.at(obs::Stage::kTick).add(2048);
  WorkerSpan w;
  w.index = 7;
  w.slot = 1;
  w.attempt = 2;
  w.start_sec = 0.5;
  w.dur_sec = 0.25;
  agg.spans.push_back(w);

  const TransportMsg msg = parse_transport_msg(msg_telemetry_aggregate(agg));
  ASSERT_EQ(msg.type, TransportMsgType::kTelemetry);
  EXPECT_EQ(telemetry_subtype(msg.body), kTelemetryAggregate);
  const TelemetryAggregate back = decode_telemetry_aggregate(msg.body);
  EXPECT_EQ(back.base_ns, 123456789u);
  EXPECT_EQ(back.launched, 10u);
  EXPECT_EQ(back.respawns, 1u);
  EXPECT_EQ(back.timeouts, 2u);
  EXPECT_EQ(back.signal_deaths, 3u);
  EXPECT_EQ(back.checkpoint_hits, 4u);
  EXPECT_EQ(back.checkpoint_misses, 5u);
  EXPECT_EQ(back.checkpoint_evictions, 9u);
  EXPECT_EQ(back.trace_dropped, 6u);
  EXPECT_EQ(back.histograms.at(obs::Stage::kTick).percentile_ns(50.0), 2048u);
  ASSERT_EQ(back.spans.size(), 1u);
  EXPECT_EQ(back.spans[0].index, 7u);
  EXPECT_EQ(back.spans[0].slot, 1);
  EXPECT_EQ(back.spans[0].attempt, 2);
  EXPECT_DOUBLE_EQ(back.spans[0].start_sec, 0.5);
  EXPECT_DOUBLE_EQ(back.spans[0].dur_sec, 0.25);
}

TEST(TelemetryCodec, HugeElementCountIsRejectedBeforeAllocating) {
  // A 38-byte capture (empty histograms) whose instant count reads
  // 0xFFFFFFFF would size a ~100 GB reserve(); the decoder must check the
  // count against the bytes that remain first.
  std::string capture = encode_run_capture(RunTraceCapture{});
  ASSERT_EQ(capture.size(), 38u);
  capture.replace(capture.size() - 4, 4, std::string(4, '\xFF'));
  EXPECT_THROW(decode_run_capture(capture), std::runtime_error);
  EXPECT_THROW(decode_telemetry_capture(
                   parse_transport_msg(msg_telemetry_capture(capture)).body),
               std::runtime_error);

  std::string aggregate =
      parse_transport_msg(msg_telemetry_aggregate(TelemetryAggregate{})).body;
  aggregate.replace(aggregate.size() - 4, 4, std::string(4, '\xFF'));
  EXPECT_THROW(decode_telemetry_aggregate(aggregate), std::runtime_error);
}

#if DAV_TEST_POSIX

// ---- live daemon/coordinator helpers --------------------------------------

/// Fork a worker daemon serving `listen` with the given work function.
/// Killed (or SIGTERMed) and reaped by the caller.
pid_t spawn_daemon(const std::string& listen,
                   CampaignExecutor::CheckpointRunFn fn,
                   int jobs = 2, std::uint64_t expected_fingerprint = 0,
                   double heartbeat_sec = 0.2) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ServeOptions sopts;
  sopts.listen_spec = listen;
  sopts.heartbeat_sec = heartbeat_sec;
  sopts.expected_fingerprint = expected_fingerprint;
  ExecutorOptions eopts;
  eopts.jobs = jobs;
  eopts.run_timeout_sec = 30.0;
  try {
    serve_campaign(sopts, eopts, std::move(fn));
  } catch (...) {
  }
  ::_exit(0);
}

void stop_daemon(pid_t pid, int sig = SIGTERM) {
  ::kill(pid, sig);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

/// Wait for a unix-socket daemon to come up (bind is near-instant; this only
/// guards against scheduler hiccups on loaded CI hosts).
void await_socket(const std::string& path) {
  for (int i = 0; i < 200; ++i) {
    if (::access(path.c_str(), F_OK) == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

CampaignExecutor::CheckpointRunFn stub_fn() {
  return [](const RunConfig& c, CheckpointStore*) { return stub_result(c); };
}

CampaignExecutor::CheckpointRunFn sleepy_stub_fn(int millis) {
  return [millis](const RunConfig& c, CheckpointStore*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(millis));
    return stub_result(c);
  };
}

void expect_matches_stub(const std::vector<RunConfig>& cfgs,
                         const std::vector<RunResult>& results) {
  ASSERT_EQ(results.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(serialize_run_result(results[i]),
              serialize_run_result(stub_result(cfgs[i])))
        << "index " << i;
  }
}

// ---- distributed coordinator ----------------------------------------------

TEST(Distributed, TwoDaemonCampaignMatchesSerialByteForByte) {
  const std::string s1 = temp_path("dist_a.sock");
  const std::string s2 = temp_path("dist_b.sock");
  const pid_t d1 = spawn_daemon("unix:" + s1, stub_fn());
  const pid_t d2 = spawn_daemon("unix:" + s2, stub_fn());
  await_socket(s1);
  await_socket(s2);

  ExecutorOptions o;
  o.workers = {"unix:" + s1, "unix:" + s2};
  o.max_retries = 1;
  o.heartbeat_sec = 0.2;
  CampaignExecutor exec(o, stub_fn());
  const auto cfgs = make_configs(12);
  const auto results = exec.run_all(cfgs);
  stop_daemon(d1);
  stop_daemon(d2);

  expect_matches_stub(cfgs, results);
  EXPECT_TRUE(exec.quarantined().empty());
  EXPECT_EQ(exec.stats().remote_endpoints, 2);
  // Every run executed remotely, none locally.
  EXPECT_EQ(exec.stats().launched, 0);
}

TEST(Distributed, MergedJournalIsByteIdenticalToSerialJournal) {
  const auto cfgs = make_configs(8);
  const std::uint64_t fp = 0xFEEDFACEull;

  // Serial in-process reference journal.
  const std::string serial_journal = temp_path("jserial.bin");
  {
    ExecutorOptions o;
    o.jobs = 0;
    o.journal_path = serial_journal;
    o.campaign_fingerprint = fp;
    CampaignExecutor exec(o, stub_fn());
    exec.run_all(cfgs);
  }

  const std::string dist_journal = temp_path("jdist.bin");
  const std::string s1 = temp_path("jdist_a.sock");
  const std::string s2 = temp_path("jdist_b.sock");
  const pid_t d1 = spawn_daemon("unix:" + s1, stub_fn());
  const pid_t d2 = spawn_daemon("unix:" + s2, stub_fn());
  await_socket(s1);
  await_socket(s2);
  {
    ExecutorOptions o;
    o.workers = {"unix:" + s1, "unix:" + s2};
    o.journal_path = dist_journal;
    o.campaign_fingerprint = fp;
    o.heartbeat_sec = 0.2;
    CampaignExecutor exec(o, stub_fn());
    const auto results = exec.run_all(cfgs);
    expect_matches_stub(cfgs, results);
    EXPECT_GT(exec.stats().journal_appends, 0);
  }
  stop_daemon(d1);
  stop_daemon(d2);

  const std::string serial_bytes = slurp(serial_journal);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, slurp(dist_journal));
  // The side shard is merged and removed afterwards.
  EXPECT_NE(::access((dist_journal + ".shard").c_str(), F_OK), 0);
}

TEST(Distributed, ResumeWorksAcrossSerialAndDistributedStrategies) {
  const auto cfgs = make_configs(6);
  const std::uint64_t fp = 0xABCDull;

  // Serial journaled run, then a distributed executor resuming from the
  // same journal: every run replays, no socket is ever needed (the listed
  // endpoint does not exist).
  const std::string j1 = temp_path("resume_s2d.bin");
  {
    ExecutorOptions o;
    o.jobs = 0;
    o.journal_path = j1;
    o.campaign_fingerprint = fp;
    CampaignExecutor exec(o, stub_fn());
    exec.run_all(cfgs);
  }
  {
    ExecutorOptions o;
    o.workers = {"unix:" + temp_path("never_created.sock")};
    o.journal_path = j1;
    o.campaign_fingerprint = fp;
    CampaignExecutor exec(o, stub_fn());
    const auto results = exec.run_all(cfgs);
    expect_matches_stub(cfgs, results);
    EXPECT_EQ(exec.stats().journal_hits, 6);
  }

  // Distributed journaled run, then a serial resume from its merged journal.
  const std::string j2 = temp_path("resume_d2s.bin");
  const std::string sock = temp_path("resume.sock");
  const pid_t d = spawn_daemon("unix:" + sock, stub_fn());
  await_socket(sock);
  {
    ExecutorOptions o;
    o.workers = {"unix:" + sock};
    o.journal_path = j2;
    o.campaign_fingerprint = fp;
    o.heartbeat_sec = 0.2;
    CampaignExecutor exec(o, stub_fn());
    exec.run_all(cfgs);
  }
  stop_daemon(d);
  {
    ExecutorOptions o;
    o.jobs = 0;
    o.journal_path = j2;
    o.campaign_fingerprint = fp;
    CampaignExecutor exec(o, stub_fn());
    const auto results = exec.run_all(cfgs);
    expect_matches_stub(cfgs, results);
    EXPECT_EQ(exec.stats().journal_hits, 6);
  }
}

TEST(Distributed, FingerprintMismatchIsRejectedAtHandshake) {
  const std::string sock = temp_path("fpmismatch.sock");
  const pid_t d = spawn_daemon("unix:" + sock, stub_fn(), /*jobs=*/1,
                               /*expected_fingerprint=*/0x1111ull);
  await_socket(sock);

  ExecutorOptions o;
  o.workers = {"unix:" + sock};
  o.campaign_fingerprint = 0x2222ull;  // daemon serves a different campaign
  o.heartbeat_sec = 0.2;
  CampaignExecutor exec(o, stub_fn());
  const auto cfgs = make_configs(3);
  // The daemon's kHelloReject is permanent: with no usable endpoint left the
  // coordinator fails loudly instead of spinning.
  EXPECT_THROW(exec.run_all(cfgs), std::runtime_error);
  stop_daemon(d);
}

TEST(Distributed, CoordinatorWaitsForALateDaemon) {
  // The daemon comes up well after the coordinator started: the reconnect
  // backoff must keep retrying and complete the campaign.
  const std::string sock = temp_path("late.sock");
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    ServeOptions sopts;
    sopts.listen_spec = "unix:" + sock;
    sopts.heartbeat_sec = 0.2;
    ExecutorOptions eopts;
    eopts.jobs = 2;
    try {
      serve_campaign(sopts, eopts, stub_fn());
    } catch (...) {
    }
    ::_exit(0);
  }

  ExecutorOptions o;
  o.workers = {"unix:" + sock};
  o.heartbeat_sec = 0.2;
  CampaignExecutor exec(o, stub_fn());
  const auto cfgs = make_configs(4);
  const auto results = exec.run_all(cfgs);
  stop_daemon(pid);
  expect_matches_stub(cfgs, results);
  EXPECT_TRUE(exec.quarantined().empty());
}

TEST(Distributed, KilledWorkerDaemonIsSurvivedByTheOther) {
  const std::string s1 = temp_path("kill_a.sock");
  const std::string s2 = temp_path("kill_b.sock");
  // Slow enough that daemon A still holds runs in flight when it dies.
  const pid_t d1 = spawn_daemon("unix:" + s1, sleepy_stub_fn(60));
  const pid_t d2 = spawn_daemon("unix:" + s2, sleepy_stub_fn(10));
  await_socket(s1);
  await_socket(s2);

  // SIGKILL daemon A shortly into the campaign, from a helper process (the
  // coordinator blocks this thread).
  const pid_t killer = ::fork();
  if (killer == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ::kill(d1, SIGKILL);
    ::_exit(0);
  }

  ExecutorOptions o;
  o.workers = {"unix:" + s1, "unix:" + s2};
  o.max_retries = 3;
  o.retry_backoff_sec = 0.01;
  o.heartbeat_sec = 0.2;
  CampaignExecutor exec(o, stub_fn());
  const auto cfgs = make_configs(16);
  const auto results = exec.run_all(cfgs);
  int status = 0;
  ::waitpid(killer, &status, 0);
  ::waitpid(d1, &status, 0);
  stop_daemon(d2);

  // The campaign completes, bit-identical, with zero quarantines: runs that
  // died with daemon A were requeued onto daemon B.
  expect_matches_stub(cfgs, results);
  EXPECT_TRUE(exec.quarantined().empty());
}

TEST(Distributed, StragglersAreRedispatchedToAnotherEndpoint) {
  const std::string s1 = temp_path("strag_a.sock");
  const std::string s2 = temp_path("strag_b.sock");
  // Daemon A sits on every run; daemon B is fast. With a short straggler
  // deadline, runs stuck on A get a second copy dispatched to B, and the
  // first completed result wins.
  const pid_t d1 = spawn_daemon("unix:" + s1, sleepy_stub_fn(2000),
                                /*jobs=*/2);
  const pid_t d2 = spawn_daemon("unix:" + s2, stub_fn(), /*jobs=*/2);
  await_socket(s1);
  await_socket(s2);

  ExecutorOptions o;
  o.workers = {"unix:" + s1, "unix:" + s2};
  o.straggler_sec = 0.1;
  o.heartbeat_sec = 0.5;
  o.run_timeout_sec = 30.0;
  CampaignExecutor exec(o, stub_fn());
  const auto cfgs = make_configs(8);
  const auto results = exec.run_all(cfgs);
  stop_daemon(d1, SIGKILL);  // still sleeping in its pool workers
  stop_daemon(d2);

  expect_matches_stub(cfgs, results);
  EXPECT_TRUE(exec.quarantined().empty());
  EXPECT_GE(exec.stats().redispatches, 1);
}

// ---- scripted worker: duplicate results -----------------------------------

/// A protocol-level fake daemon: accepts one coordinator, acks the
/// handshake, and answers every run request with the correct result sent
/// TWICE. Exercises the coordinator's first-result-wins discard
/// deterministically (no timing races needed).
pid_t spawn_duplicating_worker(const std::string& listen) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const Endpoint ep = parse_endpoint(listen);
  std::string err;
  const int lfd = listen_endpoint(ep, &err);
  if (lfd < 0) ::_exit(1);
  const int cfd = ::accept(lfd, nullptr, nullptr);
  if (cfd < 0) ::_exit(1);
  std::string buf;
  bool acked = false;
  for (;;) {
    char chunk[65536];
    const ssize_t n = ::read(cfd, chunk, sizeof(chunk));
    if (n <= 0) ::_exit(0);
    buf.append(chunk, static_cast<std::size_t>(n));
    for (;;) {
      const FrameSplit fs = try_unframe(buf);
      if (fs.status == FrameSplit::Status::kNeedMore) break;
      if (fs.status == FrameSplit::Status::kCorrupt) ::_exit(1);
      buf.erase(0, fs.consumed);
      const TransportMsg msg = parse_transport_msg(fs.payload);
      if (msg.type == TransportMsgType::kHello && !acked) {
        acked = true;
        send_frame(cfd, msg_hello_ack(1, 0));
      } else if (msg.type == TransportMsgType::kRunRequest) {
        const RunConfigRecord rec = deserialize_run_config(msg.body);
        const std::string payload =
            make_result_payload(true, {}, stub_result(rec.cfg));
        send_frame(cfd, msg_run_result(msg.index, payload));
        send_frame(cfd, msg_run_result(msg.index, payload));  // duplicate
      }
    }
  }
}

TEST(Distributed, DuplicateResultsAreDiscardedByPlanIndex) {
  const std::string sock = temp_path("dup.sock");
  const pid_t worker = spawn_duplicating_worker("unix:" + sock);
  await_socket(sock);

  ExecutorOptions o;
  o.workers = {"unix:" + sock};
  o.heartbeat_sec = 5.0;  // the fake worker sends no heartbeats
  CampaignExecutor exec(o, stub_fn());
  const auto cfgs = make_configs(4);
  const auto results = exec.run_all(cfgs);
  stop_daemon(worker, SIGKILL);

  expect_matches_stub(cfgs, results);
  EXPECT_TRUE(exec.quarantined().empty());
  // Each duplicate for an already-completed index is discarded (the very
  // last one can arrive after the batch resolved and go unread).
  EXPECT_GE(exec.stats().duplicate_discards, 3);
}

// ---- daemon handshake + heartbeat (manual client) -------------------------

/// Read frames from `fd` until one parses, with a deadline.
bool read_msg(int fd, std::string& buf, TransportMsg& out, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const FrameSplit fs = try_unframe(buf);
    if (fs.status == FrameSplit::Status::kOk) {
      buf.erase(0, fs.consumed);
      out = parse_transport_msg(fs.payload);
      return true;
    }
    if (fs.status == FrameSplit::Status::kCorrupt) return false;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int remain = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    if (::poll(&pfd, 1, std::max(1, remain)) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(ServeDaemon, HandshakeAcksAndIdleHeartbeatsFlow) {
  const std::string sock = temp_path("hb.sock");
  const pid_t d = spawn_daemon("unix:" + sock, stub_fn(), /*jobs=*/3,
                               /*expected_fingerprint=*/0,
                               /*heartbeat_sec=*/0.1);
  await_socket(sock);

  std::string err;
  const int fd = connect_endpoint(parse_endpoint("unix:" + sock), &err);
  ASSERT_GE(fd, 0) << err;
  ASSERT_TRUE(send_frame(fd, msg_hello(0x77ull, 0)));
  std::string buf;
  TransportMsg msg;
  ASSERT_TRUE(read_msg(fd, buf, msg, 5000));
  EXPECT_EQ(msg.type, TransportMsgType::kHelloAck);
  EXPECT_EQ(msg.slots, 3u);
  // Stay idle: the daemon's heartbeat timer must beacon on its own.
  ASSERT_TRUE(read_msg(fd, buf, msg, 5000));
  EXPECT_EQ(msg.type, TransportMsgType::kHeartbeat);
  ::close(fd);
  stop_daemon(d);
}

TEST(Distributed, MergedRunsTraceByteIdenticalAcrossIdenticalCampaigns) {
  // Each daemon's workload stashes a deterministic capture per run, exactly
  // as the driver does for real traced runs; two identical 2-daemon
  // campaigns must merge to byte-identical runs-trace JSON no matter how
  // completions interleave across endpoints and pool slots.
  auto traced_fn = []() -> CampaignExecutor::CheckpointRunFn {
    return [](const RunConfig& c, CheckpointStore*) {
      obs::set_last_run_capture(synthetic_capture(c.run_seed));
      return stub_result(c);
    };
  };
  auto run_once = [&](const std::string& tag) {
    const std::string s1 = temp_path("runstrace_a" + tag + ".sock");
    const std::string s2 = temp_path("runstrace_b" + tag + ".sock");
    const pid_t d1 = spawn_daemon("unix:" + s1, traced_fn());
    const pid_t d2 = spawn_daemon("unix:" + s2, traced_fn());
    await_socket(s1);
    await_socket(s2);
    ExecutorOptions o;
    o.workers = {"unix:" + s1, "unix:" + s2};
    o.heartbeat_sec = 0.2;
    CampaignExecutor exec(o, stub_fn());
    const auto cfgs = make_configs(10);
    const auto results = exec.run_all(cfgs);
    stop_daemon(d1);
    stop_daemon(d2);
    EXPECT_EQ(results.size(), cfgs.size());
    EXPECT_EQ(exec.stats().captures.size(), cfgs.size());
    return campaign_runs_trace_json(exec.stats(), "00000000deadbeef");
  };
  const std::string first = run_once("1");
  const std::string second = run_once("2");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

#endif  // DAV_TEST_POSIX

}  // namespace
}  // namespace dav
