#include "workload/ds_driver.h"

#include <atomic>
#include <thread>
#include <vector>

#include "common/padded.h"
#include "common/stopwatch.h"
#include "workload/generator.h"

namespace psmr {

DsDriverResult run_ds_benchmark(const DsDriverConfig& config) {
  const std::size_t list_size = exec_cost_list_size(config.cost);
  LinkedListService service(list_size);
  CosOptions cos_options = config.cos;
  cos_options.conflict = service.conflict();
  const std::unique_ptr<Cos> cos = make_scheduler(
      config.policy == SchedulerPolicy::kSequential ? SchedulerPolicy::kCosDag
                                                    : config.policy,
      cos_options, service.class_map(), config.workers);

  // The scheduler cycles through these, so the paper's command creation
  // cost stays off the insert path.
  constexpr std::size_t kPrecreatedCommands = 1 << 16;
  auto commands = make_list_workload(kPrecreatedCommands, config.write_pct,
                                     list_size, config.seed);

  std::atomic<bool> stop{false};
  std::vector<Padded<std::atomic<std::uint64_t>>> completed(
      static_cast<std::size_t>(config.workers));

  // Population sampling by the scheduler (cheap: every 64 inserts).
  std::atomic<std::uint64_t> population_sum{0};
  std::atomic<std::uint64_t> population_samples{0};

  std::thread scheduler([&] {
    std::uint64_t next_id = 1;
    std::size_t index = 0;
    while (!stop.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      Command c = commands[index];
      if (++index == commands.size()) index = 0;
      c.id = next_id++;
      if (!cos->insert(c)) return;  // closed
      if ((next_id & 63) == 0) {
        population_sum.fetch_add(cos->approx_size(),
                                 std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
        population_samples.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      }
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(config.workers));
  for (int w = 0; w < config.workers; ++w) {
    workers.emplace_back([&, w] {
      auto& counter = completed[static_cast<std::size_t>(w)].value;
      while (true) {
        CosHandle h = cos->get();
        if (!h) return;  // closed
        service.execute(*h.cmd);
        cos->remove(h);
        counter.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      }
    });
  }

  auto total_completed = [&] {
    std::uint64_t total = 0;
    for (const auto& c : completed)
      total += c.value.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
    return total;
  };

  std::this_thread::sleep_for(std::chrono::milliseconds(config.warmup_ms));
  const std::uint64_t ops_before = total_completed();
  const std::uint64_t pop_sum_before =
      population_sum.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  const std::uint64_t pop_n_before =
      population_samples.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(config.measure_ms));
  const std::uint64_t elapsed = watch.elapsed_ns();
  const std::uint64_t ops_after = total_completed();
  const std::uint64_t pop_sum_after =
      population_sum.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  const std::uint64_t pop_n_after =
      population_samples.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter

  stop.store(true, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
  cos->close();
  scheduler.join();
  for (auto& worker : workers) worker.join();

  DsDriverResult result;
  result.completed_ops = ops_after - ops_before;
  result.elapsed_ns = elapsed;
  result.throughput_kops = static_cast<double>(result.completed_ops) /
                           (static_cast<double>(elapsed) * 1e-9) / 1000.0;
  const std::uint64_t samples = pop_n_after - pop_n_before;
  result.mean_population =
      samples > 0 ? static_cast<double>(pop_sum_after - pop_sum_before) /
                        static_cast<double>(samples)
                  : 0.0;
  return result;
}

}  // namespace psmr
