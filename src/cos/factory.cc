#include "cos/factory.h"

#include <algorithm>
#include <cstdlib>

#include "cos/coarse_grained.h"
#include "cos/fine_grained.h"
#include "cos/lock_free.h"
#include "cos/parallel_insert.h"
#include "cos/striped.h"

namespace psmr {

std::unique_ptr<Cos> make_cos(const CosOptions& options) {
  switch (options.kind) {
    case CosKind::kCoarseGrained:
      return std::make_unique<CoarseGrainedCos>(options.capacity,
                                                options.conflict,
                                                options.indexed);
    case CosKind::kFineGrained:
      return std::make_unique<FineGrainedCos>(options.capacity,
                                              options.conflict,
                                              options.indexed);
    case CosKind::kLockFree:
      return std::make_unique<LockFreeCos>(options.capacity, options.conflict,
                                           options.reclaim, options.indexed);
    case CosKind::kStriped:
      return std::make_unique<StripedCos>(options.capacity, options.conflict,
                                          options.segment_width,
                                          options.indexed);
  }
  std::abort();  // unreachable: the switch above is exhaustive over CosKind
}

std::unique_ptr<Cos> make_parallel_insert_cos(const CosOptions& options) {
  if (!options.indexed ||
      conflict_key_extractor(options.conflict) == nullptr) {
    return make_cos(options);  // no key space to shard; serial DAG fallback
  }
  const std::size_t shards = options.insert_shards != 0
                                 ? options.insert_shards
                                 : 4 * std::max<std::size_t>(
                                           options.inserter_threads, 1);
  return std::make_unique<ParallelInsertCos>(options.capacity,
                                             options.conflict, shards,
                                             options.inserter_threads);
}

bool parse_cos_kind(std::string_view name, CosKind* out) {
  if (name == "coarse-grained" || name == "coarse") {
    *out = CosKind::kCoarseGrained;
  } else if (name == "fine-grained" || name == "fine") {
    *out = CosKind::kFineGrained;
  } else if (name == "lock-free" || name == "lockfree") {
    *out = CosKind::kLockFree;
  } else if (name == "striped") {
    *out = CosKind::kStriped;
  } else {
    return false;
  }
  return true;
}

const char* cos_kind_name(CosKind kind) {
  switch (kind) {
    case CosKind::kCoarseGrained:
      return "coarse-grained";
    case CosKind::kFineGrained:
      return "fine-grained";
    case CosKind::kLockFree:
      return "lock-free";
    case CosKind::kStriped:
      return "striped";
  }
  return "?";
}

bool parse_scheduler_policy(std::string_view name, SchedulerPolicy* out) {
  if (name == "cos-dag" || name == "dag") {
    *out = SchedulerPolicy::kCosDag;
  } else if (name == "early" || name == "early-scheduling") {
    *out = SchedulerPolicy::kEarlyScheduling;
  } else if (name == "parallel-insert" || name == "pinsert") {
    *out = SchedulerPolicy::kParallelInsert;
  } else if (name == "sequential" || name == "seq") {
    *out = SchedulerPolicy::kSequential;
  } else {
    return false;
  }
  return true;
}

const char* scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kCosDag:
      return "cos-dag";
    case SchedulerPolicy::kEarlyScheduling:
      return "early";
    case SchedulerPolicy::kParallelInsert:
      return "parallel-insert";
    case SchedulerPolicy::kSequential:
      return "sequential";
  }
  return "?";
}

}  // namespace psmr
