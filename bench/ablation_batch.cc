// Ablation: batched insertion into the lock-free COS.
//
// The paper identifies the (single) insert thread as the lock-free
// scheduler's throughput ceiling for light/moderate commands (§7.3.1:
// "the graph mean population is close to zero, indicating that the insert
// thread is at its performance limit"). Atomic broadcast delivers commands
// in batches anyway, so LockFreeCos::insert_batch takes a whole batch's
// space permits with one semaphore acquisition and then inserts the
// commands one by one through the key index. This bench measures the
// insert-side ceiling for several batch sizes under a read-only workload
// with ample workers.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "app/linked_list_service.h"
#include "bench_util.h"
#include "common/padded.h"
#include "common/stopwatch.h"
#include "cos/factory.h"
#include "cos/lock_free.h"
#include "workload/generator.h"

namespace {

double run_batched(std::size_t batch_size, int workers, std::uint64_t ms) {
  psmr::LinkedListService service(1000);  // light cost
  psmr::LockFreeCos cos(psmr::kPaperGraphSize, service.conflict());
  auto commands = psmr::make_list_workload(1 << 15, 0.0, 1000, 3);

  std::atomic<bool> stop{false};
  std::vector<psmr::Padded<std::atomic<std::uint64_t>>> completed(
      static_cast<std::size_t>(workers));
  std::thread scheduler([&] {
    std::uint64_t id = 1;
    std::size_t index = 0;
    std::vector<psmr::Command> batch(batch_size);
    while (!stop.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      for (std::size_t i = 0; i < batch_size; ++i) {
        batch[i] = commands[index];
        if (++index == commands.size()) index = 0;
        batch[i].id = id++;
      }
      if (!cos.insert_batch(batch)) return;
    }
  });
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      auto& counter = completed[static_cast<std::size_t>(w)].value;
      while (true) {
        psmr::CosHandle h = cos.get();
        if (!h) return;
        service.execute(*h.cmd);
        cos.remove(h);
        counter.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      }
    });
  }
  auto total = [&] {
    std::uint64_t t = 0;
    for (const auto& c : completed)
      t += c.value.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
    return t;
  };
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const std::uint64_t before = total();
  psmr::Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  const std::uint64_t elapsed = watch.elapsed_ns();
  const std::uint64_t after = total();
  stop.store(true);
  cos.close();
  scheduler.join();
  for (auto& t : threads) t.join();
  return static_cast<double>(after - before) /
         (static_cast<double>(elapsed) * 1e-9) / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  const std::uint64_t ms = options.quick ? 120 : 300;
  std::printf("Ablation — batched insertion, lock-free COS (light cost, "
              "0%% writes, 4 workers)\n");
  std::printf("%12s %16s\n", "batch size", "kops/sec");
  const std::vector<std::size_t> sizes =
      options.quick ? std::vector<std::size_t>{1, 16}
                    : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64};
  for (std::size_t batch : sizes) {
    const double kops = run_batched(batch, 4, ms);
    std::printf("%12zu %16.1f\n", batch, kops);
    psmr::bench::record_row("ablation_batch", "real", "lock-free",
                            static_cast<double>(batch), kops);
  }
  return psmr::bench::json_flush(options) ? 0 : 1;
}
