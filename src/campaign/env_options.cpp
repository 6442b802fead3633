// The ONLY translation unit allowed to read the process environment
// (davlint rule env-read). Every DAV_* knob is parsed here, strictly: a
// malformed or out-of-range value, or a DAV_* name docs() does not list, is
// an error naming the variable, never a silent fallback or a wrapped integer.
#include "campaign/env_options.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define DAV_ENV_POSIX 1
extern char** environ;  // POSIX: the process environment block
#endif

#include "campaign/campaign.h"

namespace dav {

namespace {

constexpr long long kIntMax = std::numeric_limits<int>::max();

[[noreturn]] void reject(const char* var, const std::string& value,
                         const std::string& want) {
  throw std::invalid_argument(std::string("EnvOptions: ") + var + " must be " +
                              want + ", got \"" + value + "\"");
}

const char* get(const char* var) { return std::getenv(var); }

double parse_double(const char* var, const std::string& value,
                    const std::string& want) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
    reject(var, value, want);
  }
  return v;
}

/// A base-10 integer in [lo, hi]. Garbage, trailing text and values that
/// overflow or leave the range (and so would not fit their field) are
/// rejected.
long long parse_int(const char* var, const std::string& value, long long lo,
                    long long hi, const std::string& want) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > hi) {
    reject(var, value, want + " (" + std::to_string(lo) + ".." +
                           std::to_string(hi) + ")");
  }
  return v;
}

/// Seconds steady_clock can hold: (0, kMaxSeconds], or [0, kMaxSeconds]
/// when zero means "disabled".
double parse_seconds(const char* var, const std::string& value,
                     bool allow_zero) {
  const std::string want =
      std::string(allow_zero ? "a non-negative" : "a positive") +
      " number of seconds, at most " +
      std::to_string(static_cast<long long>(ExecutorOptions::kMaxSeconds));
  const double v = parse_double(var, value, want);
  if (!((allow_zero ? v >= 0.0 : v > 0.0) &&
        v <= ExecutorOptions::kMaxSeconds)) {
    reject(var, value, want);
  }
  return v;
}

/// A MiB count whose byte count still fits a size_t.
std::size_t parse_mib(const char* var, const std::string& value) {
  return static_cast<std::size_t>(parse_int(
      var, value, 0, static_cast<long long>(ExecutorOptions::kMaxMiB),
      "a whole number of MiB"));
}

/// A misspelt or retired DAV_* variable would otherwise be ignored without a
/// word (DAV_JOB=4 ran in-process), so every DAV_-prefixed name must be one
/// docs() lists. Only POSIX hosts expose the whole environment to scan.
void reject_unknown_vars() {
#if DAV_ENV_POSIX
  const auto& docs = EnvOptions::docs();
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("DAV_", 0) != 0) continue;
    const std::string name = entry.substr(0, entry.find('='));
    const auto known = [&](const EnvOptions::VarDoc& d) {
      return name == d.name;
    };
    if (std::none_of(docs.begin(), docs.end(), known)) {
      throw std::invalid_argument("EnvOptions: unknown variable " + name +
                                  "; `davcamp --env-help` lists every DAV_* "
                                  "variable");
    }
  }
#endif
}

bool parse_bool(const char* var, const std::string& value) {
  std::string s = value;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "on" || s == "yes") return true;
  if (s == "0" || s == "false" || s == "off" || s == "no") return false;
  reject(var, value, "a boolean (1/0, true/false, on/off, yes/no)");
}

}  // namespace

EnvOptions EnvOptions::from_env() {
  reject_unknown_vars();
  EnvOptions o;
  if (const char* v = get("DAV_SCALE")) {
    o.scale = parse_double("DAV_SCALE", v, "a positive number");
    if (!(o.scale > 0.0)) reject("DAV_SCALE", v, "a positive number");
  }
  if (const char* v = get("DAV_JOBS")) {
    o.jobs = static_cast<int>(
        parse_int("DAV_JOBS", v, 0, kIntMax, "a worker-process count"));
  }
  if (const char* v = get("DAV_CHECKPOINT")) {
    o.checkpoint = parse_bool("DAV_CHECKPOINT", v);
  }
  if (const char* v = get("DAV_JOURNAL")) o.journal_path = v;
  if (const char* v = get("DAV_RUN_TIMEOUT_SEC")) {
    o.run_timeout_sec = parse_seconds("DAV_RUN_TIMEOUT_SEC", v, false);
  }
  if (const char* v = get("DAV_RUN_RETRIES")) {
    o.run_retries = static_cast<int>(
        parse_int("DAV_RUN_RETRIES", v, 0, kIntMax, "a retry count"));
  }
  if (const char* v = get("DAV_RUN_CPU_SEC")) {
    o.run_cpu_sec = parse_seconds("DAV_RUN_CPU_SEC", v, true);
  }
  if (const char* v = get("DAV_RUN_AS_MB")) {
    o.run_as_mb = parse_mib("DAV_RUN_AS_MB", v);
  }
  if (const char* v = get("DAV_SENSOR_FAULTS"); v != nullptr && *v != '\0') {
    std::string list = v;
    if (list == "all") {
      o.sensor_faults = all_sensor_fault_models();
    } else {
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string name = list.substr(pos, comma - pos);
        const SensorFaultModel m = parse_sensor_fault_model(name);
        if (m == SensorFaultModel::kNone) {
          std::string names = "\"all\"";
          for (const SensorFaultModel known : all_sensor_fault_models()) {
            names += ", " + to_string(known);
          }
          reject("DAV_SENSOR_FAULTS", v,
                 "a comma-separated list of sensor fault models (unknown "
                 "\"" + name + "\"; known: " + names + ")");
        }
        o.sensor_faults.push_back(m);
        pos = comma + 1;
      }
    }
  }
  if (const char* v = get("DAV_SENSOR_ONSET_TICK")) {
    o.sensor_onset_tick = static_cast<int>(parse_int(
        "DAV_SENSOR_ONSET_TICK", v, 0, kIntMax, "a tick index"));
  }
  if (const char* v = get("DAV_SENSOR_DURATION_TICKS")) {
    o.sensor_duration_ticks = static_cast<int>(parse_int(
        "DAV_SENSOR_DURATION_TICKS", v, 1, kIntMax, "a tick count"));
  }
  if (const char* v = get("DAV_TRACE")) o.trace_dir = v;
  o.validate();
  return o;
}

void EnvOptions::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("EnvOptions: " + what);
  };
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    bad("scale must be positive and finite, got " + std::to_string(scale));
  }
  // Every executor knob (jobs, retries, rlimits, timeouts) is checked by the
  // struct that consumes it.
  executor_options().validate();
  for (const SensorFaultModel m : sensor_faults) {
    if (m == SensorFaultModel::kNone) {
      bad("sensor_faults must name injectable models (kNone is not one)");
    }
  }
  if (sensor_onset_tick < 0) {
    bad("sensor_onset_tick must be non-negative, got " +
        std::to_string(sensor_onset_tick));
  }
  if (sensor_duration_ticks <= 0) {
    bad("sensor_duration_ticks must be positive, got " +
        std::to_string(sensor_duration_ticks));
  }
}

CampaignScale EnvOptions::campaign_scale() const {
  CampaignScale s;
  const double k = scale;
  s.transient_runs = std::max(4, static_cast<int>(s.transient_runs * k));
  s.permanent_repeats =
      std::max(1, static_cast<int>(std::lround(s.permanent_repeats * k)));
  s.golden_runs = std::max(3, static_cast<int>(s.golden_runs * k));
  s.training_runs_per_scenario = std::max(
      1, static_cast<int>(std::lround(s.training_runs_per_scenario * k)));
  return s;
}

ExecutorOptions EnvOptions::executor_options() const {
  ExecutorOptions o;
  o.jobs = jobs;
  o.checkpoint = checkpoint;
  o.journal_path = journal_path;
  o.run_timeout_sec = run_timeout_sec;
  o.max_retries = run_retries;
  o.cpu_limit_sec = run_cpu_sec;
  o.address_space_mb = run_as_mb;
  return o;
}

obs::TraceOptions EnvOptions::trace_options() const {
  obs::TraceOptions t;
  t.dir = trace_dir;
  return t;
}

const std::vector<EnvOptions::VarDoc>& EnvOptions::docs() {
  static const std::vector<VarDoc> kDocs = {
      {"DAV_SCALE", "1.0",
       "campaign size multiplier (run counts scale with paper-shaped floors)"},
      {"DAV_JOBS", "0",
       "worker processes: 0 = in-process, N = pool of N sandboxed workers"},
      {"DAV_CHECKPOINT", "0",
       "fork-point checkpoint sharing: variants that share a fault-free "
       "prefix restore a mid-run snapshot instead of replaying it"},
      {"DAV_JOURNAL", "(unset)",
       "write-ahead journal path; enables lossless campaign resume"},
      {"DAV_RUN_TIMEOUT_SEC", "600",
       "wall-clock watchdog per run attempt; hung workers are killed"},
      {"DAV_RUN_RETRIES", "1",
       "retries for a failed run before the final harness-error verdict"},
      {"DAV_RUN_CPU_SEC", "0",
       "RLIMIT_CPU per worker in seconds; 0 disables"},
      {"DAV_RUN_AS_MB", "0",
       "RLIMIT_AS per worker in MiB; 0 disables (keep 0 under ASan)"},
      {"DAV_SENSOR_FAULTS", "(unset)",
       "sensor models swept by `davcamp --faults=sensor`: comma-separated "
       "canonical names (camera-blackout, gps-drift, ...) or \"all\""},
      {"DAV_SENSOR_ONSET_TICK", "40",
       "tick the swept sensor faults switch on"},
      {"DAV_SENSOR_DURATION_TICKS", "80",
       "ticks the swept sensor faults stay active"},
      {"DAV_TRACE", "(unset)",
       "flight-recorder output directory; enables per-run + campaign traces"},
  };
  return kDocs;
}

}  // namespace dav
