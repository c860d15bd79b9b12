// The four workloads of psmr_bench. Each separates one part of the stack:
//   list-heavy-1r  execution and worker parallelism (single node)
//   list-mixed-3r  the COS pairwise path under the full ordering path
//   kv-zipf-3r     ordering, network and replies (open loop)
//   cos-kv-direct  the COS alone (no network, no replicas)
// See README.md for why each was chosen and what it should move.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "bench.h"

namespace psmr::e2e {

struct Workload {
  const char* name;
  // Fingerprint of the inputs a run with `config` generates (commands and,
  // for the open loop, due times), for the seed-determinism smoke check.
  std::uint64_t (*input_hash)(const RunConfig& config);
  WorkloadResult (*run)(const RunConfig& config);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

// Chrome trace "pid" the workload's spans carry (one per workload).
void set_trace_pid(int pid);

// Per-layer metric names (and units) a traced run reports for every
// workload; a layer the workload does not use reports 0.
struct MetricName {
  const char* name;
  const char* unit;
};
const std::vector<MetricName>& layer_metric_names();

}  // namespace psmr::e2e
