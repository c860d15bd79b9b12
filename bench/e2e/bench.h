// Shared types of psmr_bench: the run settings a workload receives, the
// result a workload child process reports back, and latency recording.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace psmr::e2e {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measurement window
  bool smoke = false;     // every phase runs for about 0.5 s
  bool trace = false;     // record stage spans and per-layer metrics

  double warmup_s() const { return smoke ? 0.5 : 2.0; }
  double window_s() const { return smoke ? 0.5 : seconds; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct WorkloadResult {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;  // commands issued (or inserted)
  std::uint64_t failed = 0;     // commands with no reply within 1 s
  std::uint64_t input_hash = 0;
  std::vector<std::string> trace_events;  // Chrome trace-event objects

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

// A measurement window is cut into this many equal slices; end-to-end
// figures are medians over them (see Window in workloads.cc).
inline constexpr int kSlices = 10;

// Stage spans and raw per-command records are kept for 1 in kSampleEvery
// commands (client_seq, or the COS id, divisible by it).
inline constexpr std::uint64_t kSampleEvery = 16;

inline bool sampled(std::uint64_t seq) { return seq % kSampleEvery == 0; }

// Growing sample buffers are deques: a vector's doubling copy would stall
// the thread recording the samples, which is often on the measured path.
using Samples = std::deque<std::uint64_t>;

// Fixed-memory latency histogram: exact below 1024 ns, then 1024 linear
// sub-buckets per power of two (0.1 % precision) up to 2^35 ns. End-to-end
// latencies go here rather than into a per-command list, so the harness's
// memory does not grow with throughput and peak RSS measures the program.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[index_of(ns)];
    ++count_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  std::uint64_t count() const { return count_; }

  // Nearest-rank percentile (p in [0, 100]) as its bucket's midpoint; 0
  // when empty.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = std::max(
        1.0, std::ceil(p / 100.0 * static_cast<double>(count_)));
    double seen = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr int kMaxExp = 34;
  static constexpr std::size_t kBuckets = (kMaxExp - kSubBits + 2) * kSub;

  static std::size_t index_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int exp = 63 - std::countl_zero(v);
    if (exp > kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (v >> (exp - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>((exp - kSubBits + 1) * kSub + sub);
  }
  static double midpoint(std::size_t index) {
    if (index < kSub) return static_cast<double>(index);
    const int exp = static_cast<int>(index / kSub) + kSubBits - 1;
    const double width = std::ldexp(1.0, exp - kSubBits);
    const double lower =
        std::ldexp(1.0, exp) + static_cast<double>(index % kSub) * width;
    return lower + (width - 1.0) / 2.0;
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

using SliceLatency = std::vector<LatencyHistogram>;  // one per window slice

}  // namespace psmr::e2e
