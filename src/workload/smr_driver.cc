#include "workload/smr_driver.h"

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "smr/deployment.h"

namespace psmr {

SmrDriverResult run_smr_benchmark(const SmrDriverConfig& config) {
  const std::size_t list_size = exec_cost_list_size(config.cost);

  Deployment::Config deployment_config;
  deployment_config.replicas = config.replicas;
  deployment_config.net.base_latency_us = 30;
  deployment_config.net.jitter_us = 20;
  deployment_config.net.seed = config.seed;
  deployment_config.replica.policy = config.policy;
  deployment_config.replica.cos = config.cos;
  deployment_config.replica.workers = config.workers;
  deployment_config.replica.broadcast.batch_max = 64;
  deployment_config.replica.broadcast.batch_timeout_us = 200;
  deployment_config.replica.broadcast.tick_interval_ms = 1;

  Deployment deployment(deployment_config, [&] {
    return std::make_unique<LinkedListService>(list_size);
  });

  std::vector<std::unique_ptr<Xoshiro256>> rngs;
  for (int c = 0; c < config.clients; ++c) {
    auto rng = std::make_unique<Xoshiro256>(config.seed * 1000 +
                                            static_cast<unsigned>(c));
    Xoshiro256* r = rng.get();
    rngs.push_back(std::move(rng));
    SmrClient::Config client_config;
    client_config.pipeline = config.pipeline;
    deployment.add_client(client_config, [r, list_size,
                                          write_pct = config.write_pct] {
      const std::uint64_t v = r->below(list_size);
      return r->uniform() * 100.0 < write_pct
                 ? LinkedListService::make_add(v)
                 : LinkedListService::make_contains(v);
    });
  }

  deployment.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(config.warmup_ms));
  const std::uint64_t before = deployment.total_client_completed();
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(config.measure_ms));
  const std::uint64_t elapsed_ns = watch.elapsed_ns();
  const std::uint64_t after = deployment.total_client_completed();

  // Latency over the whole run (dominated by the measurement window).
  Histogram latency;
  for (SmrClient* client : deployment.clients()) {
    latency.merge(client->latency_snapshot());
  }

  for (SmrClient* client : deployment.clients()) client->drain(2000);
  // Allow stragglers to finish executing before the convergence check.
  bool converged = false;
  for (int t = 0; t < 400; ++t) {
    if (deployment.states_converged()) {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  deployment.stop();

  SmrDriverResult result;
  result.completed = after - before;
  result.throughput_kops = static_cast<double>(result.completed) /
                           (static_cast<double>(elapsed_ns) * 1e-9) / 1000.0;
  result.mean_latency_ms = latency.mean() * 1e-6;
  result.p95_latency_ms = static_cast<double>(latency.percentile(95)) * 1e-6;
  result.converged = converged;
  return result;
}

}  // namespace psmr
