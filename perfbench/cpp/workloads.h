// The benchmark's three workloads. Each returns false when it could not
// measure (the report is then not printed); failed output checks are
// recorded in the report instead.
#pragma once

#include "bench.h"

namespace perfbench {

/// Fault-free round-robin runs of the three safety scenarios and one long
/// route, back to back in-process through run_experiment.
bool golden_serial(const Args& args, Report& rep);

/// Table I's twelve fault-injection campaigns on the prefork pool, with a
/// journal and checkpointing off.
bool fi_sweep_pool(const Args& args, Report& rep);

/// Instances x sensor-fault variants sharing a late fault-free prefix, on
/// the pool with fusion and checkpointing on.
bool shared_prefix_pool(const Args& args, Report& rep);

}  // namespace perfbench
