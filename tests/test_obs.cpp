// Flight-recorder tests (src/obs/): ring-buffer semantics, Chrome trace
// JSON round-trip, the tick-indexed CSV, and the determinism guard — a
// traced run's RunResult must be bit-identical to the untraced run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/driver.h"
#include "campaign/serialize.h"
#include "obs/export.h"
#include "util/trace.h"

namespace dav {
namespace {

namespace fs = std::filesystem;

obs::TraceEvent make_counter(std::uint32_t tick, obs::Counter c, double value,
                             int track = -1) {
  obs::TraceEvent ev;
  ev.tick = tick;
  ev.id = static_cast<std::uint16_t>(c);
  ev.kind = obs::EventKind::kCounter;
  ev.track = static_cast<std::int8_t>(track);
  ev.value = value;
  return ev;
}

obs::TraceEvent make_instant(std::uint32_t tick, obs::Instant i,
                             double value = 0.0) {
  obs::TraceEvent ev;
  ev.tick = tick;
  ev.id = static_cast<std::uint16_t>(i);
  ev.kind = obs::EventKind::kInstant;
  ev.value = value;
  return ev;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ScratchDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("obs_" + std::string(::testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---- ring buffer ----

TEST(TraceRecorder, FillsToCapacityWithoutDrops) {
  obs::TraceRecorder rec(8);
  for (std::uint32_t t = 0; t < 8; ++t) {
    rec.record(make_counter(t, obs::Counter::kCvip, 1.0 * t));
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.dropped(), 0u);
  const auto evs = rec.drain();
  ASSERT_EQ(evs.size(), 8u);
  for (std::uint32_t t = 0; t < 8; ++t) EXPECT_EQ(evs[t].tick, t);
}

TEST(TraceRecorder, OverflowKeepsNewestAndCountsDrops) {
  obs::TraceRecorder rec(4);
  for (std::uint32_t t = 0; t < 10; ++t) {
    rec.record(make_counter(t, obs::Counter::kCvip, 1.0 * t));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // drain() is oldest-surviving-first: ticks 6..9 remain, in order.
  const auto evs = rec.drain();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].tick, 6u + i) << i;
  }
}

// ---- stage histograms ----

obs::TraceEvent make_span(std::uint32_t tick, obs::Stage s,
                          std::uint64_t dur_ns) {
  obs::TraceEvent ev;
  ev.tick = tick;
  ev.id = static_cast<std::uint16_t>(s);
  ev.kind = obs::EventKind::kSpan;
  ev.dur_ns = dur_ns;
  return ev;
}

TEST(StageHistogram, PercentilesExactOnPowerOfTwoDurations) {
  // Bucket lower bounds are powers of two, so a synthetic workload made of
  // power-of-two durations reads back its percentiles exactly.
  obs::StageHistogram h;
  for (int i = 0; i < 50; ++i) h.add(1024);
  for (int i = 0; i < 45; ++i) h.add(4096);
  for (int i = 0; i < 5; ++i) h.add(65536);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile_ns(50.0), 1024u);
  EXPECT_EQ(h.percentile_ns(95.0), 4096u);
  EXPECT_EQ(h.percentile_ns(99.0), 65536u);
  EXPECT_EQ(h.percentile_ns(100.0), 65536u);
  EXPECT_EQ(h.percentile_ns(0.0), 1024u);  // nearest-rank clamps to rank 1
}

TEST(StageHistogram, EmptyAndZeroDurationsAreWellDefined) {
  obs::StageHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_ns(50.0), 0u);
  h.add(0);
  h.add(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile_ns(99.0), 0u);  // bucket 0 holds exact zeros
  h.add(~std::uint64_t{0});              // never saturates into a wrong bucket
  EXPECT_EQ(h.percentile_ns(100.0), std::uint64_t{1} << 63);
}

TEST(StageHistogram, MergeSumsBucketwise) {
  obs::StageHistogram a, b;
  for (int i = 0; i < 10; ++i) a.add(256);
  for (int i = 0; i < 10; ++i) b.add(2048);
  a.merge(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_EQ(a.percentile_ns(50.0), 256u);
  EXPECT_EQ(a.percentile_ns(95.0), 2048u);
}

TEST(StageHistogramSet, RecorderHistogramsSurviveRingEviction) {
  // The ring drops old events under overflow; the histograms must keep
  // counting every span ever recorded anyway.
  obs::TraceRecorder rec(4);
  for (std::uint32_t t = 0; t < 100; ++t) {
    rec.record(make_span(t, obs::Stage::kControl, 512));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 96u);
  const obs::StageHistogram& h = rec.histograms().at(obs::Stage::kControl);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile_ns(50.0), 512u);
  EXPECT_EQ(rec.histograms().total_count(), 100u);
}

// ---- recorder installation + helpers ----

TEST(ScopedRecorder, HelpersRecordIntoInstalledRecorder) {
  ASSERT_EQ(obs::recorder(), nullptr);
  obs::TraceRecorder rec(64);
  {
    obs::ScopedRecorder scope(&rec);
    EXPECT_EQ(obs::recorder(), &rec);
    obs::set_tick(7);
    obs::counter(obs::Counter::kDivergence, 0.5, /*track=*/0);
    obs::instant(obs::Instant::kDetectorAlarm, 1.25);
    { const obs::SpanScope span(obs::Stage::kDetector); }
  }
  EXPECT_EQ(obs::recorder(), nullptr);  // restored on scope exit

  const auto evs = rec.drain();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].kind, obs::EventKind::kCounter);
  EXPECT_EQ(evs[0].tick, 7u);
  EXPECT_EQ(evs[0].track, 0);
  EXPECT_DOUBLE_EQ(evs[0].value, 0.5);
  EXPECT_EQ(evs[1].kind, obs::EventKind::kInstant);
  EXPECT_DOUBLE_EQ(evs[1].value, 1.25);
  EXPECT_EQ(evs[2].kind, obs::EventKind::kSpan);
  EXPECT_EQ(evs[2].id, static_cast<std::uint16_t>(obs::Stage::kDetector));
}

TEST(ScopedRecorder, HelpersAreNoOpsWithoutRecorder) {
  ASSERT_EQ(obs::recorder(), nullptr);
  obs::counter(obs::Counter::kDivergence, 1.0, 0);
  obs::instant(obs::Instant::kDue, 2.0);
  { const obs::SpanScope span(obs::Stage::kTick); }
  EXPECT_EQ(obs::recorder(), nullptr);
}

// ---- Chrome trace JSON round-trip ----

TEST(ChromeTraceJson, RoundTripsEventsAndMetadata) {
  std::vector<obs::TraceEvent> evs;
  obs::TraceEvent span;
  span.tick = 3;
  span.id = static_cast<std::uint16_t>(obs::Stage::kPerception);
  span.kind = obs::EventKind::kSpan;
  span.track = 1;
  span.dur_ns = 1500;
  evs.push_back(span);
  // 0.1 + 0.2 is the canonical double that breaks naive float printing;
  // %.17g must round-trip it exactly.
  evs.push_back(make_counter(4, obs::Counter::kDivergence, 0.1 + 0.2,
                             /*track=*/2));
  evs.push_back(make_instant(5, obs::Instant::kDue, 3.0));

  const auto chrome = obs::to_chrome_events(evs, /*dt=*/0.05, /*pid=*/7);
  ASSERT_EQ(chrome.size(), 3u);
  EXPECT_EQ(chrome[0].ph, 'X');
  EXPECT_EQ(chrome[0].name, "perception");
  EXPECT_DOUBLE_EQ(chrome[0].ts_us, 3 * 0.05 * 1e6);  // simulated time
  EXPECT_DOUBLE_EQ(chrome[0].dur_us, 1.5);            // 1500 ns
  EXPECT_EQ(chrome[1].ph, 'C');
  EXPECT_EQ(chrome[1].name, "divergence.steer");  // track 2 = steer channel
  EXPECT_EQ(chrome[2].ph, 'i');

  obs::ChromeTrace trace;
  trace.events = chrome;
  trace.other_data.emplace_back("tool", "dav-flight-recorder");
  trace.other_data.emplace_back("note", "quotes \" and \\ backslash");

  const std::string json = obs::chrome_trace_json(trace);
  const obs::ChromeTrace back = obs::parse_chrome_trace(json);

  ASSERT_EQ(back.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const obs::ChromeEvent& a = trace.events[i];
    const obs::ChromeEvent& b = back.events[i];
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.ph, b.ph) << i;
    EXPECT_EQ(a.pid, b.pid) << i;
    EXPECT_EQ(a.tid, b.tid) << i;
    EXPECT_EQ(a.tick, b.tick) << i;
    // Bit-exact double round-trip through the %.17g text form.
    EXPECT_EQ(a.ts_us, b.ts_us) << i;
    EXPECT_EQ(a.dur_us, b.dur_us) << i;
    EXPECT_EQ(a.value, b.value) << i;
  }
  ASSERT_EQ(back.other_data.size(), trace.other_data.size());
  EXPECT_EQ(back.other_data[1].second, "quotes \" and \\ backslash");
}

TEST(ChromeTraceJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(obs::parse_chrome_trace("not json"), std::runtime_error);
  EXPECT_THROW(obs::parse_chrome_trace("{\"traceEvents\": ["),
               std::runtime_error);
}

// ---- tick-indexed CSV ----

TEST(RunCsv, CarriesCountersForwardAndLatchesAlarm) {
  std::vector<obs::TraceEvent> evs;
  evs.push_back(make_counter(0, obs::Counter::kDivergence, 0.5, 0));
  evs.push_back(make_counter(0, obs::Counter::kThreshold, 2.0, 0));
  evs.push_back(make_instant(5, obs::Instant::kDetectorAlarm, 0.25));
  evs.push_back(make_counter(6, obs::Counter::kDivergence, 0.75, 0));
  evs.push_back(make_instant(8, obs::Instant::kRecoveryRejoin, 0.4));

  const std::string csv =
      obs::run_csv(obs::to_chrome_events(evs, /*dt=*/0.05, /*pid=*/1));
  std::istringstream in(csv);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  ASSERT_EQ(lines.size(), 5u);  // header + ticks {0, 5, 6, 8}
  EXPECT_EQ(lines[0],
            "tick,time_sec,div_throttle,div_brake,div_steer,"
            "thr_throttle,thr_brake,thr_steer,alarm,recovery_state");

  const auto fields = [](const std::string& line) {
    std::vector<double> out;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) {
      out.push_back(std::stod(cell));
    }
    return out;
  };
  // Columns: tick, time_sec, div x3, thr x3, alarm, recovery_state.
  const std::vector<std::vector<double>> expect = {
      {0, 0.00, 0.50, 0, 0, 2, 0, 0, 0, 0},
      // Alarm latched at tick 5; counters carry forward unchanged.
      {5, 0.25, 0.50, 0, 0, 2, 0, 0, 1, 0},
      // New divergence sample at tick 6, threshold still carried, alarm held.
      {6, 0.30, 0.75, 0, 0, 2, 0, 0, 1, 0},
      // Rejoin clears the alarm latch.
      {8, 0.40, 0.75, 0, 0, 2, 0, 0, 0, 0},
  };
  for (std::size_t r = 0; r < expect.size(); ++r) {
    const std::vector<double> got = fields(lines[r + 1]);
    ASSERT_EQ(got.size(), 10u) << lines[r + 1];
    for (std::size_t c = 0; c < 10; ++c) {
      EXPECT_NEAR(got[c], expect[r][c], 1e-9) << "row " << r << " col " << c;
    }
  }
}

// ---- export ----

TEST_F(ScratchDirTest, ExportRunTraceWritesJsonAndCsv) {
  obs::TraceRecorder rec(16);
  {
    obs::ScopedRecorder scope(&rec);
    obs::set_tick(2);
    obs::counter(obs::Counter::kCvip, 31.5);
    obs::instant(obs::Instant::kFaultActivated, 42.0);
  }
  obs::TraceOptions opts;
  opts.dir = dir_.string();
  opts.pid = 9;
  obs::export_run_trace(opts, "t1", /*dt=*/0.05, rec,
                        {{"scenario", "lead_slowdown"}});

  // The JSON only: `davtrace csv` renders the CSV from it
  // (DavtraceTest.CsvOfExportedTraceEqualsRunCsv).
  const fs::path json_path = dir_ / "run_t1.trace.json";
  ASSERT_TRUE(fs::exists(json_path));
  EXPECT_FALSE(fs::exists(dir_ / "run_t1.csv"));

  const obs::ChromeTrace trace = obs::parse_chrome_trace(read_file(json_path));
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].pid, 9);
  bool saw_tool = false, saw_scenario = false, saw_dropped = false;
  for (const auto& [key, value] : trace.other_data) {
    if (key == "tool") saw_tool = (value == "dav-flight-recorder");
    if (key == "scenario") saw_scenario = (value == "lead_slowdown");
    if (key == "dropped_events") saw_dropped = (value == "0");
  }
  EXPECT_TRUE(saw_tool);
  EXPECT_TRUE(saw_scenario);
  EXPECT_TRUE(saw_dropped);
}

// ---- determinism guard ----

// The acceptance gate: enabling the flight recorder must not perturb the
// run. Every semantic field of the trace is tick-stamped and the wall clock
// only ever lands in span durations, so the serialized RunResult of a traced
// run is byte-identical to the untraced one.
TEST_F(ScratchDirTest, TracedRunResultBitIdenticalToUntraced) {
  RunConfig cfg;
  cfg.scenario = ScenarioId::kLeadSlowdown;
  cfg.mode = AgentMode::kRoundRobin;
  cfg.run_seed = 77;
  cfg.fault.kind = FaultModelKind::kPermanent;
  cfg.fault.domain = FaultDomain::kGpu;
  cfg.fault.target_opcode = 2;
  cfg.fault.bit = 30;
  cfg.mitigation = MitigationPolicy::kRestartRecovery;

  const RunResult untraced = run_experiment(cfg);

  RunConfig traced_cfg = cfg;
  traced_cfg.trace.dir = dir_.string();
  traced_cfg.trace.label = "det";
  traced_cfg.trace.capacity = 4096;
  const RunResult traced = run_experiment(traced_cfg);

  EXPECT_EQ(serialize_run_result(untraced), serialize_run_result(traced));

  // And the trace actually materialized with real content.
  const fs::path json_path = dir_ / "run_det.trace.json";
  ASSERT_TRUE(fs::exists(json_path));
  const obs::ChromeTrace trace = obs::parse_chrome_trace(read_file(json_path));
  EXPECT_GT(trace.events.size(), 100u);
  bool saw_span = false, saw_counter = false;
  for (const obs::ChromeEvent& e : trace.events) {
    saw_span = saw_span || e.ph == 'X';
    saw_counter = saw_counter || e.ph == 'C';
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
}

// Tracing disabled (empty dir) must not install a recorder or write files.
TEST_F(ScratchDirTest, DisabledTraceWritesNothing) {
  RunConfig cfg;
  cfg.scenario = ScenarioId::kLeadSlowdown;
  cfg.run_seed = 5;
  ASSERT_FALSE(cfg.trace.enabled());
  const RunResult r = run_experiment(cfg);
  EXPECT_GT(r.steps, 0);
  EXPECT_FALSE(fs::exists(dir_));
}

}  // namespace
}  // namespace dav
