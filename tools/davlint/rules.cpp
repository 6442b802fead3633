#include "rules.h"

#include <algorithm>
#include <sstream>

namespace davlint {

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"rand",
       "process-global C RNG (rand/srand/rand_r) is banned; use dav::Rng "
       "seeded from the campaign seed"},
      {"random-device",
       "std::random_device is nondeterministic by design; seed dav::Rng from "
       "the campaign seed"},
      {"wall-clock",
       "wall-clock reads (time/clock/gettimeofday/std::chrono::system_clock) "
       "are banned everywhere; simulated time comes from World::time()"},
      {"unordered-iter",
       "iterating an unordered container has unspecified order; anything "
       "serialized from it is nondeterministic"},
      {"float-eq",
       "exact ==/!= against a floating-point literal; use an epsilon or "
       "integer state instead"},
      {"uninit-pod",
       "uninitialized POD member in a struct; value-initialize so golden "
       "traces never read indeterminate bytes"},
      {"obs-clock",
       "std::chrono::steady_clock / high_resolution_clock are wall clocks; "
       "only the util/trace span primitives, src/obs/ exporters and the "
       "campaign executor may read them"},
      {"env-read",
       "std::getenv is banned outside campaign/env_options: all DAV_* "
       "parsing goes through the dav::EnvOptions facade"},
      {"signal-safety",
       "code reachable from a signal()/sigaction()-registered handler may "
       "only call the async-signal-safe allowlist (no malloc/new, no "
       "stdio/iostream, no locks or string growth); the violating call chain "
       "is printed hop by hop"},
      {"fork-safety",
       "the child branch between fork() and exec*/_exit (worker bootstrap "
       "and death paths) may only call the async-signal-safe allowlist; "
       "sanctioned workload handoffs carry a justified allow()"},
      {"layering",
       "quoted includes must respect the module DAG util -> {sim,fi} -> "
       "sensors -> agent -> core -> uav -> obs -> campaign -> tools; "
       "back-edges and include cycles are rejected"},
      {"taint",
       "wall-clock/trace-derived values (steady_clock reads, elapsed_sec, "
       "dur_ns, wall_sec) must not flow into serialize_run_result, "
       "run_config_digest or journal writes"},
  };
  return kRules;
}

bool is_known_rule(const std::string& name) {
  const auto& r = rules();
  return std::any_of(r.begin(), r.end(),
                     [&](const RuleInfo& ri) { return ri.name == name; });
}

bool is_suppressed(const std::string& raw, const std::string& rule) {
  std::size_t pos = raw.find("davlint:");
  while (pos != std::string::npos) {
    std::size_t open = raw.find("allow(", pos);
    if (open == std::string::npos) return false;
    std::size_t close = raw.find(')', open);
    if (close == std::string::npos) return false;
    std::string listed = raw.substr(open + 6, close - open - 6);
    std::stringstream ss(listed);
    std::string item;
    while (std::getline(ss, item, ',')) {
      item.erase(std::remove_if(item.begin(), item.end(), ::isspace),
                 item.end());
      if (item == rule || item == "all") return true;
    }
    pos = raw.find("davlint:", close);
  }
  return false;
}

std::string rules_markdown() {
  std::ostringstream out;
  out << "| Rule | Checks |\n|---|---|\n";
  for (const RuleInfo& r : rules()) {
    out << "| `" << r.name << "` | " << r.summary << " |\n";
  }
  return out.str();
}

}  // namespace davlint
