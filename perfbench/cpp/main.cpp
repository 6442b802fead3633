// perfbench_campaign: one workload of the campaign benchmark.
//
//   perfbench_campaign --workload <golden_serial|fi_sweep_pool|
//                                  shared_prefix_pool>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      --work-dir <scratch dir>
//
// --trace 0 prints the end-to-end metrics of timed passes; --trace 1 runs a
// separate traced pass and prints the per-layer metrics instead. The last
// line of stdout is the JSON result; the exit code is 0 only when every
// output check passed. Options are built by hand: no DAV_* variable is read.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using perfbench::Args;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_campaign --workload <golden_serial|"
               "fi_sweep_pool|shared_prefix_pool> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n");
  return 2;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage();
  a.jobs = std::min(available_cpus(), 4);

  bool (*workload)(const Args&, perfbench::Report&) = nullptr;
  if (a.workload == "golden_serial") workload = perfbench::golden_serial;
  if (a.workload == "fi_sweep_pool") workload = perfbench::fi_sweep_pool;
  if (a.workload == "shared_prefix_pool") {
    workload = perfbench::shared_prefix_pool;
  }
  if (workload == nullptr) return usage();

  perfbench::say("workload %s  seed %llu  %.3g s  trace %d  jobs %d\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 a.seconds, a.trace ? 1 : 0, a.jobs);
  perfbench::Report rep;
  bool measured = false;
  try {
    std::filesystem::remove_all(a.work_dir);
    std::filesystem::create_directories(a.work_dir);
    measured = workload(a, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(a.work_dir, ec);
  if (!measured) return 2;

  perfbench::say("fail_ratio %zu/%zu = %.6g  (harness errors and failed "
                 "output checks)\n",
                 rep.failed(), rep.attempted(),
                 rep.attempted() > 0 ? static_cast<double>(rep.failed()) /
                                           static_cast<double>(rep.attempted())
                                     : 0.0);
  perfbench::say("%s\n", rep.json().c_str());
  return rep.correct() ? 0 : 1;
}
