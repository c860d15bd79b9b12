// Unified low-overhead metrics layer: a process-wide registry of named
// counters, gauges and histograms, snapshotted on read.
//
// The paper's evaluation (§7) is metric-driven — throughput per worker,
// ready-set occupancy, scheduler stall time — so every layer of this stack
// (COS variants, replica scheduler/workers, sequenced broadcast, both
// transports, the client) exports its hot-path counts here instead of
// growing ad-hoc accessors. Consumers are tools/psmr_node.cc
// (--metrics-dump-ms periodic JSON / Prometheus dump) and bench/bench_util.h
// (a "metrics" object appended to benchmark JSON).
//
// Overhead budget (Release, metrics ON):
//   - Counter::inc() is one thread-local read plus one relaxed fetch_add on
//     a cache-line-padded shard — no locks, no shared-line ping-pong among
//     the fixed worker pool.
//   - Gauge updates are single relaxed atomic ops.
//   - HistogramMetric::record() takes a private mutex and is therefore kept
//     OFF per-message hot paths: only per-batch / per-block events use it.
//   - Registration (MetricsRegistry::counter(name) etc.) takes the registry
//     mutex; call sites register once at construction and cache the
//     reference.
//
// PSMR_METRICS=OFF (CMake option -> PSMR_METRICS_ENABLED=0) compiles every
// metric type down to an empty no-op — enforced by static_asserts below —
// so the ±20% bench gate on BENCH_cos.json can be re-validated against a
// metrics-free build at any time.
//
// The registry mutex is a plain std::mutex, invisible to the lock-rank
// checker by design: it is a leaf (nothing is acquired while it is held)
// and registration may happen under any component lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/padded.h"
#include "common/stopwatch.h"

#ifndef PSMR_METRICS_ENABLED
#define PSMR_METRICS_ENABLED 1
#endif

namespace psmr {

inline constexpr bool kMetricsEnabled = PSMR_METRICS_ENABLED != 0;

// now_ns() for timings that only feed metrics; 0 when metrics are compiled
// out, so a timed body is written once and the OFF build reads no clock.
inline std::uint64_t metrics_now_ns() {
  if constexpr (kMetricsEnabled) return now_ns();
  return 0;
}

// Point-in-time copy of every registered metric. Concurrent increments make
// the snapshot approximate (each counter is summed shard by shard), but a
// quiescent registry snapshots exactly.
struct MetricsSnapshot {
  struct HistStats {
    std::uint64_t count = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistStats> histograms;

  // 0 when the name is not present (e.g. metrics compiled out).
  std::uint64_t counter(std::string_view name) const;
  std::int64_t gauge(std::string_view name) const;
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Single-line JSON object: {"cos.inserts":123,...}; histograms become
  // nested objects with count/mean/p50/p99/max.
  std::string to_json() const;
  // Prometheus text exposition format; names are prefixed "psmr_" with
  // dots mapped to underscores.
  std::string to_prometheus() const;
};

#if PSMR_METRICS_ENABLED

// Monotonic counter, sharded to keep concurrent writers off each other's
// cache lines. Threads are spread over the shards round-robin by a
// thread-local index assigned on first use.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void inc(std::uint64_t delta = 1) {
    shards_[shard_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_) {
      sum += shard.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  static std::size_t shard_index() {
    thread_local const std::size_t index =
        next_thread_.fetch_add(1, std::memory_order_relaxed) % kShards;
    return index;
  }

  static inline std::atomic<std::size_t> next_thread_{0};
  std::array<Padded<std::atomic<std::uint64_t>>, kShards> shards_{};
};

// Instantaneous value (queue depth, pipeline occupancy). Writers are few,
// so a single relaxed atomic suffices.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Mutex-guarded wrapper over the log-bucketed Histogram. record() is NOT
// for per-message hot paths — per-batch and per-block-event only.
class HistogramMetric {
 public:
  void record(std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.record(v);
  }
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }

 private:
  mutable std::mutex mu_;  // NOLINT(psmr-raw-mutex) leaf lock below the rank hierarchy; metrics are callable under any lock
  Histogram hist_;  // NOLINT(psmr-guarded-by-coverage) all access through record(), under mu_
};

// Name -> metric registry. Metrics are created on first lookup and live for
// the process lifetime (references stay valid forever), Prometheus-default-
// registry style: components constructed multiple times in one process
// (tests, the Deployment harness) share and accumulate into the same
// metrics.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HistogramMetric& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;  // NOLINT(psmr-raw-mutex) leaf lock below the rank hierarchy; metrics are callable under any lock
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;  // NOLINT(psmr-guarded-by-coverage) guarded by mu_; node stability lets callers hold refs lock-free
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;  // NOLINT(psmr-guarded-by-coverage) guarded by mu_; node stability lets callers hold refs lock-free
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;  // NOLINT(psmr-guarded-by-coverage) guarded by mu_; node stability lets callers hold refs lock-free
};

#else  // !PSMR_METRICS_ENABLED — every call compiles to nothing.

class Counter {
 public:
  void inc(std::uint64_t /*delta*/ = 1) {}
  std::uint64_t value() const { return 0; }
};

class Gauge {
 public:
  void set(std::int64_t) {}
  void add(std::int64_t) {}
  void sub(std::int64_t) {}
  std::int64_t value() const { return 0; }
};

class HistogramMetric {
 public:
  void record(std::uint64_t) {}
  Histogram snapshot() const { return {}; }
};

// The OFF build must carry no per-metric state at all.
static_assert(sizeof(Counter) == 1, "metrics-OFF Counter must be empty");
static_assert(sizeof(Gauge) == 1, "metrics-OFF Gauge must be empty");
static_assert(sizeof(HistogramMetric) == 1,
              "metrics-OFF HistogramMetric must be empty");

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(std::string_view) { return counter_; }
  Gauge& gauge(std::string_view) { return gauge_; }
  HistogramMetric& histogram(std::string_view) { return histogram_; }

  MetricsSnapshot snapshot() const { return {}; }

 private:
  Counter counter_;
  Gauge gauge_;
  HistogramMetric histogram_;
};

#endif  // PSMR_METRICS_ENABLED

}  // namespace psmr
