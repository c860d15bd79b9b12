#include "cos/factory.h"

#include <cstdlib>

#include "cos/coarse_grained.h"
#include "cos/early_sched.h"
#include "cos/fine_grained.h"
#include "cos/lock_free.h"

namespace psmr {

std::unique_ptr<Cos> make_cos(const CosOptions& options) {
  // Every variant finds dependencies through the relation's key extractor;
  // conflict.h gives one to each relation a service can declare.
  if (conflict_key_extractor(options.conflict) == nullptr) std::abort();
  switch (options.kind) {
    case CosKind::kCoarseGrained:
      return std::make_unique<CoarseGrainedCos>(options.capacity,
                                                options.conflict);
    case CosKind::kFineGrained:
      return std::make_unique<FineGrainedCos>(options.capacity,
                                              options.conflict);
    case CosKind::kLockFree:
      return std::make_unique<LockFreeCos>(options.capacity, options.conflict);
  }
  std::abort();  // unreachable: the switch above is exhaustive over CosKind
}

std::unique_ptr<Cos> make_scheduler(SchedulerPolicy policy,
                                    const CosOptions& options, ClassMapFn map,
                                    int workers) {
  switch (policy) {
    case SchedulerPolicy::kSequential:
      return nullptr;
    case SchedulerPolicy::kCosDag:
      return make_cos(options);
    case SchedulerPolicy::kEarlyScheduling:
      return std::make_unique<EarlyCos>(make_cos(options), map, workers);
  }
  std::abort();  // unreachable: the switch above is exhaustive
}

bool parse_cos_kind(std::string_view name, CosKind* out) {
  if (name == "coarse-grained" || name == "coarse") {
    *out = CosKind::kCoarseGrained;
  } else if (name == "fine-grained" || name == "fine") {
    *out = CosKind::kFineGrained;
  } else if (name == "lock-free" || name == "lockfree") {
    *out = CosKind::kLockFree;
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
  }
  return "?";
}

bool parse_scheduler_policy(std::string_view name, SchedulerPolicy* out) {
  if (name == "cos-dag" || name == "dag") {
    *out = SchedulerPolicy::kCosDag;
  } else if (name == "early" || name == "early-scheduling") {
    *out = SchedulerPolicy::kEarlyScheduling;
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
    case SchedulerPolicy::kSequential:
      return "sequential";
  }
  return "?";
}

}  // namespace psmr
