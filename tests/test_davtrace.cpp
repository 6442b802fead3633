// End-to-end tests for tools/davtrace: the summarize error paths must name
// the offending file and say what is wrong with it, `csv` must render an
// exported run trace exactly as obs::run_csv does, and `compare` — the CI
// perf gate — must pass self-vs-self at zero tolerance, flag regressions
// with exit 2, and respect global and per-stage tolerances. Driven through
// the real binary (DAVTRACE_BIN, injected by CMake).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "util/trace.h"

#ifndef DAVTRACE_BIN
#error "DAVTRACE_BIN must point at the davtrace executable"
#endif

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;
  std::string output;
};

class DavtraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("davtrace_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  fs::path write_fixture(const std::string& name, const std::string& body) {
    const fs::path p = dir_ / name;
    std::ofstream(p) << body;
    return p;
  }

  CliResult run(const std::string& args) {
    const fs::path out = dir_ / "cli_output.txt";
    const std::string cmd = std::string(DAVTRACE_BIN) + " " + args + " > " +
                            out.string() + " 2>&1";
    const int raw = std::system(cmd.c_str());
    CliResult r;
    r.exit_code = WEXITSTATUS(raw);
    std::ifstream in(out);
    std::stringstream ss;
    ss << in.rdbuf();
    r.output = ss.str();
    return r;
  }

  fs::path dir_;
};

/// A campaign-style worker trace: no span events, percentiles carried in the
/// "hist.<stage>" otherData rows (count,p50_ns,p95_ns,p99_ns).
std::string hist_trace(const std::string& control_row,
                       const std::string& planner_row) {
  return std::string("{\"traceEvents\":[],\"otherData\":{") +
         "\"tool\":\"dav-campaign-telemetry\"," +
         "\"hist.control\":\"" + control_row + "\"," +
         "\"hist.planner\":\"" + planner_row + "\"}}";
}

/// A per-run style trace carrying complete span ('X') events.
std::string span_trace(double control_dur_us) {
  std::ostringstream ss;
  ss << "{\"traceEvents\":[";
  for (int i = 0; i < 4; ++i) {
    if (i > 0) ss << ",";
    ss << "{\"name\":\"control\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":"
       << (i * 100) << ",\"dur\":" << control_dur_us
       << ",\"pid\":1,\"tid\":1}";
  }
  ss << "],\"otherData\":{\"tool\":\"dav-trace\"}}";
  return ss.str();
}

// ---- summarize error paths -------------------------------------------------

TEST_F(DavtraceTest, EmptyFileNamesPathAndSaysEmpty) {
  const auto p = write_fixture("empty.trace.json", "");
  const auto r = run("summarize " + p.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(p.string()), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("empty (0 bytes)"), std::string::npos) << r.output;
}

TEST_F(DavtraceTest, TruncatedJsonNamesPathAndSaysTruncated) {
  const auto p = write_fixture("trunc.trace.json",
                               "{\"traceEvents\":[{\"name\":\"cont");
  const auto r = run("summarize " + p.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(p.string()), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("truncated or not Chrome trace-event JSON"),
            std::string::npos)
      << r.output;
}

TEST_F(DavtraceTest, NonTraceJsonNamesPathAndSaysNotATrace) {
  const auto p = write_fixture("other.json", "{\"hello\":\"world\"}");
  const auto r = run("summarize " + p.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(p.string()), std::string::npos) << r.output;
  // Valid JSON that is not a trace must be called out as such, not reported
  // as a parse failure.
  EXPECT_NE(r.output.find("not"), std::string::npos) << r.output;
}

TEST_F(DavtraceTest, ValidTraceStillSummarizes) {
  const auto p = write_fixture("ok.trace.json", span_trace(50.0));
  const auto r = run("summarize " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("control"), std::string::npos) << r.output;
}

// ---- csv -------------------------------------------------------------------

TEST_F(DavtraceTest, CsvOfExportedTraceEqualsRunCsv) {
  // A run exports only its JSON; `davtrace csv` is what produces the
  // tick-indexed CSV, so it must equal run_csv of the exported events.
  dav::obs::TraceRecorder rec(64);
  {
    dav::obs::ScopedRecorder scope(&rec);
    for (int tick = 0; tick < 6; ++tick) {
      dav::obs::set_tick(static_cast<std::uint32_t>(tick));
      for (int ch = 0; ch < 3; ++ch) {
        dav::obs::counter(dav::obs::Counter::kDivergence,
                          (tick + 1) * (ch + 1) / 3.0, ch);
        dav::obs::counter(dav::obs::Counter::kThreshold, 0.1 * (ch + 1), ch);
      }
      if (tick == 3) dav::obs::instant(dav::obs::Instant::kDetectorAlarm, 0.15);
      if (tick == 5) dav::obs::instant(dav::obs::Instant::kRecoveryRejoin);
    }
  }
  dav::obs::TraceOptions opts;
  opts.dir = dir_.string();
  dav::obs::export_run_trace(opts, "csv", /*dt=*/0.05, rec);
  const std::string expected = dav::obs::run_csv(
      dav::obs::to_chrome_events(rec.drain(), /*dt=*/0.05, opts.pid));

  const fs::path csv = dir_ / "davtrace.csv";
  const auto r = run("csv " + (dir_ / "run_csv.trace.json").string() +
                     " --out=" + csv.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(csv);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), expected);
  EXPECT_NE(expected.find("\n5,"), std::string::npos) << expected;
}

// ---- compare: the CI perf gate ---------------------------------------------

TEST_F(DavtraceTest, CompareSelfVsSelfPassesAtZeroTolerance) {
  const auto p =
      write_fixture("base.trace.json",
                    hist_trace("100,1024,2048,4096", "100,512,1024,2048"));
  const auto r = run("compare " + p.string() + " " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("OK"), std::string::npos) << r.output;
}

TEST_F(DavtraceTest, CompareFlagsRegressionWithExitTwo) {
  const auto base =
      write_fixture("base.trace.json",
                    hist_trace("100,1024,2048,4096", "100,512,1024,2048"));
  const auto cand =
      write_fixture("cand.trace.json",
                    hist_trace("100,1024,4096,8192", "100,512,1024,2048"));
  const auto r = run("compare " + base.string() + " " + cand.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("REGRESSION"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("control"), std::string::npos) << r.output;
}

TEST_F(DavtraceTest, CompareGlobalToleranceAbsorbsRegression) {
  const auto base =
      write_fixture("base.trace.json",
                    hist_trace("100,1024,2048,4096", "100,512,1024,2048"));
  const auto cand =
      write_fixture("cand.trace.json",
                    hist_trace("100,1024,4096,8192", "100,512,1024,2048"));
  const auto r = run("compare " + base.string() + " " + cand.string() +
                     " --tolerance=150");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(DavtraceTest, ComparePerStageToleranceOverridesGlobal) {
  const auto base =
      write_fixture("base.trace.json",
                    hist_trace("100,1024,2048,4096", "100,512,1024,2048"));
  const auto cand =
      write_fixture("cand.trace.json",
                    hist_trace("100,1024,4096,8192", "100,512,2048,4096"));
  // control is excused, planner (also +100%) still gates at the global 0.
  const auto r = run("compare " + base.string() + " " + cand.string() +
                     " --stage=control=150");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("planner"), std::string::npos) << r.output;
}

TEST_F(DavtraceTest, CompareUsesSpanEventsWhenPresent) {
  const auto base = write_fixture("base.trace.json", span_trace(50.0));
  const auto cand = write_fixture("cand.trace.json", span_trace(80.0));
  const auto r = run("compare " + base.string() + " " + cand.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  const auto ok = run("compare " + base.string() + " " + cand.string() +
                      " --tolerance=75");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST_F(DavtraceTest, CompareRejectsBadArguments) {
  const auto p =
      write_fixture("base.trace.json",
                    hist_trace("100,1024,2048,4096", "100,512,1024,2048"));
  // One input.
  EXPECT_EQ(run("compare " + p.string()).exit_code, 1);
  // Malformed tolerances.
  EXPECT_EQ(run("compare " + p.string() + " " + p.string() +
                " --tolerance=fast")
                .exit_code,
            1);
  EXPECT_EQ(run("compare " + p.string() + " " + p.string() +
                " --tolerance=-5")
                .exit_code,
            1);
  EXPECT_EQ(
      run("compare " + p.string() + " " + p.string() + " --stage=control")
          .exit_code,
      1);
}

}  // namespace
