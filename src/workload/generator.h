// Workload generation (paper §7.2).
//
// Reads and writes are mixed at a configured percentage, keys/values are
// uniform over the service's key space, and everything is driven by an
// explicit seed so runs are reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "cos/command.h"

namespace psmr {

class KvService;

// Linked-list workload: `write_pct` percent add(i), rest contains(i), with i
// uniform in [0, key_space). key_space should equal the initial list size so
// operations land on random positions of the list, as in the paper.
std::vector<Command> make_list_workload(std::size_t count, double write_pct,
                                        std::uint64_t key_space,
                                        std::uint64_t seed);

// KV workload: `write_pct` percent put, rest get, uniform keys.
std::vector<Command> make_kv_workload(const KvService& service,
                                      std::size_t count, double write_pct,
                                      std::uint64_t key_space,
                                      std::uint64_t seed);

// Skewed KV workload: keys drawn Zipf(theta) over [0, key_space), then
// scattered by a mix so hot keys don't cluster in one shard. theta = 0 is
// uniform; theta = 0.99 is the YCSB-style heavy skew. Used by the
// bench/e2e kv-zipf-3r workload and early_sched_test.
std::vector<Command> make_kv_workload_zipf(const KvService& service,
                                           std::size_t count, double write_pct,
                                           std::uint64_t key_space,
                                           double theta, std::uint64_t seed);

// Bank workload: `write_pct` percent transfers between two distinct uniform
// accounts, rest balance queries.
std::vector<Command> make_bank_workload(std::size_t count, double write_pct,
                                        std::uint64_t accounts,
                                        std::uint64_t seed);

}  // namespace psmr
