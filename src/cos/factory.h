// Construction of COS implementations by name/enum — used by the drivers,
// benchmarks and examples to sweep all techniques uniformly — plus the
// scheduler-policy enum that selects how a replica turns delivery order
// into execution order, and make_scheduler, which builds that policy's
// scheduler.
#pragma once

#include <memory>
#include <string_view>

#include "cos/class_map.h"
#include "cos/cos.h"

namespace psmr {

enum class CosKind {
  kCoarseGrained,  // Alg. 2 (CBASE-style monitor)
  kFineGrained,    // Algs. 3-4 (lock coupling)
  kLockFree,       // Algs. 5-7 (nonblocking + lazy removal)
};

// How a replica maps delivery order to execution order.
enum class SchedulerPolicy {
  kCosDag,          // parallel SMR: every command goes through the COS DAG
  kEarlyScheduling, // class-routed per-worker queues; DAG only for barriers
  kSequential,      // classical SMR: the scheduler executes everything
};

// The paper fixes the dependency graph at 150 node slots for all techniques.
inline constexpr std::size_t kPaperGraphSize = 150;

// Construction parameters for make_cos(). Aggregate — override fields with
// designated initializers, e.g.
//   make_cos({.kind = CosKind::kFineGrained, .conflict = fn})
struct CosOptions {
  // Which implementation to build.
  CosKind kind = CosKind::kLockFree;
  // Maximum number of commands held (the paper's graph size; semaphore
  // `space` bound).
  std::size_t capacity = kPaperGraphSize;
  // The service's conflict relation (#C). Required, and must be one of the
  // relations in conflict.h: make_cos aborts on a relation without a key
  // extractor, since every variant tracks dependencies through the key
  // index (dep_tracker.h).
  ConflictFn conflict = nullptr;
};

std::unique_ptr<Cos> make_cos(const CosOptions& options);

// The scheduler that turns delivery order into execution order under
// `policy`: nullptr for kSequential (the caller executes every command
// itself), make_cos(options) for kCosDag, and for kEarlyScheduling that
// DAG as the barrier fallback of an EarlyCos that routes by `map` to
// `workers` per-worker rings, each sized like the DAG.
std::unique_ptr<Cos> make_scheduler(SchedulerPolicy policy,
                                    const CosOptions& options, ClassMapFn map,
                                    int workers);

// Parses "coarse-grained" / "fine-grained" / "lock-free" (also accepts the
// short forms "coarse", "fine", "lockfree"). Returns false on unknown names.
bool parse_cos_kind(std::string_view name, CosKind* out);

const char* cos_kind_name(CosKind kind);

// Parses "cos-dag" / "early" / "sequential" (also accepts "dag",
// "early-scheduling", "seq"). Returns false on unknown names.
bool parse_scheduler_policy(std::string_view name, SchedulerPolicy* out);

const char* scheduler_policy_name(SchedulerPolicy policy);

}  // namespace psmr
