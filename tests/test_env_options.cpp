// dav::EnvOptions — the typed façade over every DAV_* environment variable:
// strict parsing with actionable errors, the legacy DAV_SCALE sizing math,
// and the projections the subsystems consume (CampaignScale, ExecutorOptions,
// TraceOptions).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/env_options.h"

extern char** environ;  // POSIX: the process environment block

namespace dav {
namespace {

/// Scoped setenv: every test leaves the environment exactly as it found it,
/// so tests cannot leak DAV_* state into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* var, const char* value) : var_(var) {
    const char* old = std::getenv(var);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      setenv(var, value, 1);
    } else {
      unsetenv(var);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(var_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(var_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string var_;
  std::string old_;
  bool had_old_ = false;
};

/// Clears every DAV_* variable, documented or not, for the test's duration.
class CleanEnv {
 public:
  CleanEnv() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string entry = *e;
      if (entry.rfind("DAV_", 0) == 0) {
        names.push_back(entry.substr(0, entry.find('=')));
      }
    }
    for (const std::string& name : names) {
      scopes_.push_back(std::make_unique<ScopedEnv>(name.c_str(), nullptr));
    }
  }

 private:
  std::vector<std::unique_ptr<ScopedEnv>> scopes_;
};

TEST(EnvOptions, DefaultsWhenNothingIsSet) {
  CleanEnv clean;
  const EnvOptions o = EnvOptions::from_env();
  EXPECT_DOUBLE_EQ(o.scale, 1.0);
  EXPECT_EQ(o.jobs, 0);
  EXPECT_FALSE(o.checkpoint);
  EXPECT_TRUE(o.journal_path.empty());
  EXPECT_DOUBLE_EQ(o.run_timeout_sec, 600.0);
  EXPECT_EQ(o.run_retries, 1);
  EXPECT_DOUBLE_EQ(o.run_cpu_sec, 0.0);
  EXPECT_EQ(o.run_as_mb, 0u);
  EXPECT_TRUE(o.trace_dir.empty());
  // Unset DAV_JOBS runs campaigns in this process.
  EXPECT_EQ(o.executor_options().jobs, 0);
}

TEST(EnvOptions, ParsesEveryKnob) {
  CleanEnv clean;
  ScopedEnv e1("DAV_SCALE", "0.5");
  ScopedEnv e2("DAV_JOBS", "4");
  ScopedEnv e5("DAV_JOURNAL", "/tmp/dav.journal");
  ScopedEnv e6("DAV_RUN_TIMEOUT_SEC", "12.5");
  ScopedEnv e7("DAV_RUN_RETRIES", "3");
  ScopedEnv e8("DAV_RUN_CPU_SEC", "30");
  ScopedEnv e9("DAV_RUN_AS_MB", "2048");
  ScopedEnv e10("DAV_TRACE", "/tmp/traces");

  const EnvOptions o = EnvOptions::from_env();
  EXPECT_DOUBLE_EQ(o.scale, 0.5);
  EXPECT_EQ(o.jobs, 4);
  EXPECT_EQ(o.journal_path, "/tmp/dav.journal");
  EXPECT_DOUBLE_EQ(o.run_timeout_sec, 12.5);
  EXPECT_EQ(o.run_retries, 3);
  EXPECT_DOUBLE_EQ(o.run_cpu_sec, 30.0);
  EXPECT_EQ(o.run_as_mb, 2048u);
  EXPECT_EQ(o.trace_dir, "/tmp/traces");
}

TEST(EnvOptions, BooleanSpellings) {
  CleanEnv clean;
  for (const char* yes : {"1", "true", "TRUE", "on", "Yes"}) {
    ScopedEnv e("DAV_CHECKPOINT", yes);
    EXPECT_TRUE(EnvOptions::from_env().checkpoint) << yes;
  }
  for (const char* no : {"0", "false", "OFF", "no"}) {
    ScopedEnv e("DAV_CHECKPOINT", no);
    EXPECT_FALSE(EnvOptions::from_env().checkpoint) << no;
  }
}

/// The error for a malformed variable must name the variable and echo the
/// offending value — "actionable" means a user can fix it from the message
/// alone.
void expect_rejects(const char* var, const char* value) {
  CleanEnv clean;
  ScopedEnv e(var, value);
  try {
    EnvOptions::from_env();
    FAIL() << var << "=" << value << " was accepted";
  } catch (const std::invalid_argument& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find(var), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
}

TEST(EnvOptions, RejectsMalformedValuesWithActionableErrors) {
  expect_rejects("DAV_JOBS", "abc");
  expect_rejects("DAV_JOBS", "-2");
  expect_rejects("DAV_JOBS", "4x");
  expect_rejects("DAV_SCALE", "0");
  expect_rejects("DAV_SCALE", "-1.5");
  expect_rejects("DAV_SCALE", "fast");
  expect_rejects("DAV_RUN_TIMEOUT_SEC", "-5");
  expect_rejects("DAV_RUN_TIMEOUT_SEC", "soon");
  expect_rejects("DAV_CHECKPOINT", "maybe");
  expect_rejects("DAV_CHECKPOINT", "2");
  expect_rejects("DAV_RUN_RETRIES", "-1");
  expect_rejects("DAV_RUN_CPU_SEC", "-0.1");
  expect_rejects("DAV_RUN_AS_MB", "lots");
  // Out of range for the field: rejected, never wrapped or truncated.
  expect_rejects("DAV_JOBS", "4294967297");             // would wrap to 1
  expect_rejects("DAV_JOBS", "99999999999999999999");   // overflows strtoll
  expect_rejects("DAV_RUN_RETRIES", "4294967296");      // would wrap to 0
  expect_rejects("DAV_SENSOR_ONSET_TICK", "4294967336");
  expect_rejects("DAV_SENSOR_DURATION_TICKS", "4294967376");
  expect_rejects("DAV_RUN_AS_MB", "17592186044417");    // bytes wrap to 1 MiB
  expect_rejects("DAV_RUN_TIMEOUT_SEC", "1e10");        // past steady_clock
  expect_rejects("DAV_RUN_CPU_SEC", "1e10");
}

TEST(EnvOptions, ValidateRejectsNonsenseOnHandBuiltValues) {
  EnvOptions o;
  o.scale = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = EnvOptions::defaults();
  o.jobs = -1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  EXPECT_NO_THROW(EnvOptions::defaults().validate());
}

TEST(EnvOptions, CampaignScaleReproducesLegacyMath) {
  // Same floors and rounding as the historic DAV_SCALE handling: existing
  // campaigns must reproduce bit-for-bit.
  EnvOptions o;
  o.scale = 0.5;
  CampaignScale s = o.campaign_scale();
  EXPECT_EQ(s.transient_runs, 20);
  EXPECT_EQ(s.permanent_repeats, 1);
  EXPECT_EQ(s.golden_runs, 5);
  EXPECT_EQ(s.training_runs_per_scenario, 1);

  o.scale = 0.01;  // floors bite
  s = o.campaign_scale();
  EXPECT_EQ(s.transient_runs, 4);
  EXPECT_EQ(s.permanent_repeats, 1);
  EXPECT_EQ(s.golden_runs, 3);
  EXPECT_EQ(s.training_runs_per_scenario, 1);

  o.scale = 1.0;
  s = o.campaign_scale();
  EXPECT_EQ(s.transient_runs, CampaignScale{}.transient_runs);
  EXPECT_EQ(s.golden_runs, CampaignScale{}.golden_runs);
}

TEST(EnvOptions, ExecutorAndTraceProjections) {
  EnvOptions o;
  o.jobs = 3;
  o.journal_path = "/tmp/j";
  o.run_timeout_sec = 42.0;
  o.run_retries = 2;
  o.run_cpu_sec = 9.0;
  o.run_as_mb = 128;
  o.trace_dir = "/tmp/t";

  const ExecutorOptions x = o.executor_options();
  EXPECT_EQ(x.jobs, 3);
  EXPECT_EQ(x.journal_path, "/tmp/j");
  EXPECT_DOUBLE_EQ(x.run_timeout_sec, 42.0);
  EXPECT_EQ(x.max_retries, 2);
  EXPECT_DOUBLE_EQ(x.cpu_limit_sec, 9.0);
  EXPECT_EQ(x.address_space_mb, 128u);
  EXPECT_NO_THROW(x.validate());

  const obs::TraceOptions t = o.trace_options();
  EXPECT_EQ(t.dir, "/tmp/t");
}

TEST(EnvOptions, ParsesCheckpointKnobsIntoExecutorOptions) {
  CleanEnv clean;
  ScopedEnv e1("DAV_CHECKPOINT", "1");
  ScopedEnv e2("DAV_JOBS", "2");
  const EnvOptions o = EnvOptions::from_env();
  EXPECT_TRUE(o.checkpoint);
  const ExecutorOptions eo = o.executor_options();
  EXPECT_TRUE(eo.checkpoint);
  EXPECT_EQ(eo.jobs, 2);
}

TEST(EnvOptions, RejectsUnknownVariablesByName) {
  // A misspelt or retired DAV_* name must not be ignored: DAV_JOB=4 would
  // otherwise run the campaign in-process without a word.
  for (const char* var :
       {"DAV_JOB", "DAV_WORKERS", "DAV_CHECKPOINT_MAX_MB", "DAV_METRICS",
        "DAV_METRICS_INTERVAL_SEC", "DAV_TRACE_CAPACITY"}) {
    CleanEnv clean;
    ScopedEnv e(var, "4");
    try {
      EnvOptions::from_env();
      FAIL() << var << " was accepted";
    } catch (const std::invalid_argument& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find(var), std::string::npos) << what;
      EXPECT_NE(what.find("--env-help"), std::string::npos) << what;
    }
  }
  // Every documented name is known: all of them set at once, each to its
  // documented default (empty for the unset-by-default ones), still parse.
  CleanEnv clean;
  std::vector<std::unique_ptr<ScopedEnv>> scopes;
  for (const auto& d : EnvOptions::docs()) {
    const bool unset = std::string(d.fallback) == "(unset)";
    scopes.push_back(
        std::make_unique<ScopedEnv>(d.name, unset ? "" : d.fallback));
  }
  EXPECT_NO_THROW(EnvOptions::from_env());
}

TEST(EnvOptions, ParsesSensorFaultKnobs) {
  CleanEnv clean;
  ScopedEnv faults("DAV_SENSOR_FAULTS", "camera-blackout,lidar-dropout");
  ScopedEnv onset("DAV_SENSOR_ONSET_TICK", "55");
  ScopedEnv dur("DAV_SENSOR_DURATION_TICKS", "200");
  const EnvOptions env = EnvOptions::from_env();
  ASSERT_EQ(env.sensor_faults.size(), 2u);
  EXPECT_EQ(env.sensor_faults[0], SensorFaultModel::kCameraBlackout);
  EXPECT_EQ(env.sensor_faults[1], SensorFaultModel::kLidarDropout);
  EXPECT_EQ(env.sensor_onset_tick, 55);
  EXPECT_EQ(env.sensor_duration_ticks, 200);
}

TEST(EnvOptions, SensorFaultsAllSelectsEveryModel) {
  CleanEnv clean;
  ScopedEnv faults("DAV_SENSOR_FAULTS", "all");
  const EnvOptions env = EnvOptions::from_env();
  EXPECT_EQ(env.sensor_faults.size(), all_sensor_fault_models().size());
}

TEST(EnvOptions, RejectsMalformedSensorKnobs) {
  CleanEnv clean;
  {
    ScopedEnv faults("DAV_SENSOR_FAULTS", "camera-blackout,bogus");
    EXPECT_THROW(EnvOptions::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv faults("DAV_SENSOR_FAULTS", "camera-blackout,");
    EXPECT_THROW(EnvOptions::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv onset("DAV_SENSOR_ONSET_TICK", "-3");
    EXPECT_THROW(EnvOptions::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv dur("DAV_SENSOR_DURATION_TICKS", "0");
    EXPECT_THROW(EnvOptions::from_env(), std::invalid_argument);
  }
}

TEST(EnvOptions, DocsCoverEveryParsedVariable) {
  // The docs table drives the README and davcamp --env-help; every variable
  // the parser understands must appear exactly once.
  const std::vector<const char*> expected = {
      "DAV_SCALE",       "DAV_JOBS",          "DAV_CHECKPOINT",
      "DAV_JOURNAL",
      "DAV_RUN_TIMEOUT_SEC", "DAV_RUN_RETRIES", "DAV_RUN_CPU_SEC",
      "DAV_RUN_AS_MB",
      "DAV_TRACE",
      "DAV_SENSOR_FAULTS", "DAV_SENSOR_ONSET_TICK",
      "DAV_SENSOR_DURATION_TICKS"};
  const auto& docs = EnvOptions::docs();
  ASSERT_EQ(docs.size(), expected.size());
  for (const char* var : expected) {
    int found = 0;
    for (const auto& d : docs) {
      if (std::string(d.name) == var) ++found;
    }
    EXPECT_EQ(found, 1) << var;
  }
  for (const auto& d : docs) {
    EXPECT_NE(d.summary[0], '\0') << d.name << " has no summary";
    EXPECT_NE(d.fallback[0], '\0') << d.name << " has no default";
  }
}

TEST(EnvOptions, ReadmeTableMatchesDocsInOrder) {
  // The README's variable table mirrors docs(): the same names in the same
  // order, one row each, the name backticked in the first column.
  std::ifstream in(DAV_README_PATH);
  ASSERT_TRUE(in) << DAV_README_PATH;
  std::vector<std::string> table;
  bool in_table = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line == "| Variable | Effect |") {
      in_table = true;
    } else if (in_table) {
      if (line.rfind('|', 0) != 0) break;         // first line past the table
      if (line.rfind("| `", 0) != 0) continue;    // the | --- | rule
      const std::size_t end = line.find('`', 3);
      ASSERT_NE(end, std::string::npos) << line;
      table.push_back(line.substr(3, end - 3));
    }
  }
  std::vector<std::string> docs;
  for (const auto& d : EnvOptions::docs()) docs.emplace_back(d.name);
  EXPECT_EQ(table, docs);
}

TEST(EnvOptions, DavcampEnvHelpAlignsEveryRow) {
  // `davcamp --env-help` prints one row per docs() entry, in order, with
  // every row's default and summary starting in the same column however
  // long the variable's name is.
  FILE* pipe = popen(DAVCAMP_BIN " --env-help", "r");
  ASSERT_NE(pipe, nullptr);
  std::vector<std::string> rows;
  char buf[1024];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    std::string line(buf);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    if (line.rfind("  DAV_", 0) == 0) rows.push_back(line);
  }
  ASSERT_EQ(pclose(pipe), 0);
  const auto& docs = EnvOptions::docs();
  ASSERT_EQ(rows.size(), docs.size());
  const std::size_t default_col = rows.front().find(" default ");
  ASSERT_NE(default_col, std::string::npos);
  const std::size_t summary_col =
      rows.front().find(docs.front().summary, default_col);
  ASSERT_NE(summary_col, std::string::npos);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string& row = rows[i];
    EXPECT_EQ(row.substr(2, std::strlen(docs[i].name)), docs[i].name) << row;
    EXPECT_EQ(row.find(" default "), default_col) << row;
    EXPECT_EQ(row.find(docs[i].summary, default_col), summary_col) << row;
  }
}

}  // namespace
}  // namespace dav
