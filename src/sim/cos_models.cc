#include "sim/cos_models.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/rng.h"
#include "sim/rw_window.h"

namespace psmr::sim {
namespace {

class Simulation {
 public:
  explicit Simulation(const SimConfig& config)
      : cfg_(config),
        rng_(config.seed),
        cores_(des_, config.cores),
        space_(des_, static_cast<std::int64_t>(config.graph_size)),
        ready_(des_, 0),
        graph_mutex_(des_,
                     static_cast<VirtualNs>(
                         config.kind == psmr::CosKind::kFineGrained
                             ? config.costs.fine_handoff_ns
                             : config.costs.mutex_handoff_ns)),
        arrivals_(des_, 0) {
    exec_ns_ = static_cast<VirtualNs>(
        cfg_.costs.exec_ns[static_cast<int>(cfg_.cost)]);
    switch (cfg_.kind) {
      case psmr::CosKind::kCoarseGrained:
        insert_cost_ = cfg_.costs.coarse_insert;
        get_cost_ = cfg_.costs.coarse_get;
        remove_cost_ = cfg_.costs.coarse_remove;
        contention_ = cfg_.costs.mutex_contention_coeff;
        uses_mutex_ = true;
        break;
      case psmr::CosKind::kFineGrained:
        insert_cost_ = cfg_.costs.fine_insert;
        get_cost_ = cfg_.costs.fine_get;
        remove_cost_ = cfg_.costs.fine_remove;
        contention_ = cfg_.costs.fine_contention_coeff;
        uses_mutex_ = true;
        break;
      case psmr::CosKind::kLockFree:
        insert_cost_ = cfg_.costs.lf_insert;
        get_cost_ = cfg_.costs.lf_get;
        remove_cost_ = cfg_.costs.lf_remove;
        contention_ = cfg_.costs.lf_contention_coeff;
        uses_mutex_ = false;
        break;
    }
  }

  SimResult run() {
    if (cfg_.smr_mode) {
      for (int c = 0; c < cfg_.clients; ++c) {
        for (int p = 0; p < cfg_.client_pipeline; ++p) client_issue(c);
      }
      if (cfg_.sequential) {
        sequential_executor_loop();
      } else {
        smr_scheduler_loop();
        for (int w = 0; w < cfg_.workers; ++w) worker_loop();
      }
    } else {
      standalone_scheduler_loop();
      for (int w = 0; w < cfg_.workers; ++w) worker_loop();
    }

    des_.at(cfg_.warmup_ns, [this] {
      completed_at_warmup_ = completed_;
      measuring_ = true;
    });
    const VirtualNs end = cfg_.warmup_ns + cfg_.measure_ns;
    des_.run_until(end);

    SimResult result;
    result.completed = completed_ - completed_at_warmup_;
    result.throughput_kops = static_cast<double>(result.completed) /
                             (static_cast<double>(cfg_.measure_ns) * 1e-9) /
                             1000.0;
    result.mean_population =
        population_samples_ > 0
            ? static_cast<double>(population_sum_) /
                  static_cast<double>(population_samples_)
            : 0.0;
    if (latency_.count() > 0) {
      result.mean_latency_ms = latency_.mean() * 1e-6;
      result.p95_latency_ms =
          static_cast<double>(latency_.percentile(95)) * 1e-6;
    }
    return result;
  }

 private:
  // Contention-inflated duration of a worker-side operation.
  VirtualNs worker_op(const LinearCost& cost) const {
    const double population = static_cast<double>(window_.population());
    const double active =
        static_cast<double>(std::min(cfg_.workers, cfg_.cores));
    const double inflation = 1.0 + contention_ * (active - 1.0);
    return static_cast<VirtualNs>(cost.at(population) * inflation);
  }

  bool next_is_write() { return rng_.uniform() * 100.0 < cfg_.write_pct; }

  void sample_population() {
    population_sum_ += window_.population();
    ++population_samples_;
  }

  // ---- standalone (§7.3): infinite command source ----
  void standalone_scheduler_loop() {
    space_.acquire([this] {
      const VirtualNs cost = static_cast<VirtualNs>(
          insert_cost_.at(static_cast<double>(window_.population())));
      auto do_insert = [this, cost] {
        cores_.burst(cost, [this] {
          RwWindow::Cmd cmd;
          cmd.is_write = next_is_write();
          const int freed = window_.insert(cmd);
          sample_population();
          if (uses_mutex_) graph_mutex_.release();
          ready_.release(freed);
          standalone_scheduler_loop();
        });
      };
      if (uses_mutex_) {
        graph_mutex_.acquire(do_insert);
      } else {
        do_insert();
      }
    });
  }

  // ---- SMR mode: clients -> batching -> consensus -> scheduler ----
  void client_issue(int client) {
    RwWindow::Cmd cmd;
    cmd.is_write = next_is_write();
    cmd.client = client;
    cmd.issued_ns = des_.now();
    // One-way trip to the leader.
    des_.after(cfg_.net_one_way_ns, [this, cmd] { leader_receive(cmd); });
  }

  void leader_receive(const RwWindow::Cmd& cmd) {
    pending_.push_back(cmd);
    if (pending_.size() >= cfg_.batch_max) {
      flush_batch();
    } else if (pending_.size() == 1) {
      const std::uint64_t epoch = ++batch_epoch_;
      des_.after(cfg_.batch_timeout_ns, [this, epoch] {
        if (epoch == batch_epoch_ && !pending_.empty()) flush_batch();
      });
    }
  }

  void flush_batch() {
    ++batch_epoch_;  // cancel any outstanding timeout
    std::deque<RwWindow::Cmd> batch;
    batch.swap(pending_);
    // ACCEPT/ACCEPTED/COMMIT round: one replica->replica round trip plus
    // per-batch ordering CPU.
    const VirtualNs latency = 2 * cfg_.net_one_way_ns + cfg_.consensus_cpu_ns;
    des_.after(latency, [this, batch = std::move(batch)]() mutable {
      for (const auto& cmd : batch) arrival_queue_.push_back(cmd);
      arrivals_.release(static_cast<std::int64_t>(batch.size()));
    });
  }

  void smr_scheduler_loop() {
    arrivals_.acquire([this] {
      space_.acquire([this] {
        const VirtualNs cost = static_cast<VirtualNs>(
            insert_cost_.at(static_cast<double>(window_.population())));
        auto do_insert = [this, cost] {
          cores_.burst(cost, [this] {
            RwWindow::Cmd cmd = arrival_queue_.front();
            arrival_queue_.pop_front();
            const int freed = window_.insert(cmd);
            sample_population();
            if (uses_mutex_) graph_mutex_.release();
            ready_.release(freed);
            smr_scheduler_loop();
          });
        };
        if (uses_mutex_) {
          graph_mutex_.acquire(do_insert);
        } else {
          do_insert();
        }
      });
    });
  }

  void sequential_executor_loop() {
    arrivals_.acquire([this] {
      cores_.burst(exec_ns_, [this] {
        const RwWindow::Cmd cmd = arrival_queue_.front();
        arrival_queue_.pop_front();
        complete_command(cmd);
        sequential_executor_loop();
      });
    });
  }

  void complete_command(const RwWindow::Cmd& cmd) {
    ++completed_;
    if (cmd.client >= 0) {
      if (measuring_) {
        latency_.record(des_.now() + cfg_.net_one_way_ns - cmd.issued_ns);
      }
      // Reply travels back; the closed-loop client then issues the next
      // command.
      des_.after(cfg_.net_one_way_ns,
                 [this, client = cmd.client] { client_issue(client); });
    }
  }

  // ---- worker threads (both modes) ----
  void worker_loop() {
    ready_.acquire([this] {
      const VirtualNs get_cost = worker_op(get_cost_);
      auto do_get = [this, get_cost] {
        cores_.burst(get_cost, [this] {
          const std::size_t index = window_.pop_oldest_ready();
          if (uses_mutex_) graph_mutex_.release();
          cores_.burst(exec_ns_, [this, index] {
            complete_command(window_.cmd(index));
            const VirtualNs remove_cost = worker_op(remove_cost_);
            auto do_remove = [this, index, remove_cost] {
              cores_.burst(remove_cost, [this, index] {
                const int freed = window_.remove(index);
                if (uses_mutex_) graph_mutex_.release();
                ready_.release(freed);
                space_.release();
                worker_loop();
              });
            };
            if (uses_mutex_) {
              graph_mutex_.acquire(do_remove);
            } else {
              do_remove();
            }
          });
        });
      };
      if (uses_mutex_) {
        graph_mutex_.acquire(do_get);
      } else {
        do_get();
      }
    });
  }

  const SimConfig cfg_;
  psmr::Xoshiro256 rng_;
  Des des_;
  SimCores cores_;
  SimSemaphore space_;
  SimSemaphore ready_;
  SimMutex graph_mutex_;
  SimSemaphore arrivals_;
  RwWindow window_;
  std::deque<RwWindow::Cmd> pending_;        // leader batch buffer
  std::deque<RwWindow::Cmd> arrival_queue_;  // delivered, not yet inserted
  std::uint64_t batch_epoch_ = 0;

  LinearCost insert_cost_{}, get_cost_{}, remove_cost_{};
  double contention_ = 0.0;
  bool uses_mutex_ = false;
  VirtualNs exec_ns_ = 0;

  std::uint64_t completed_ = 0;
  std::uint64_t completed_at_warmup_ = 0;
  bool measuring_ = false;
  std::uint64_t population_sum_ = 0;
  std::uint64_t population_samples_ = 0;
  psmr::Histogram latency_;
};

}  // namespace

SimResult simulate_cos(const SimConfig& config) {
  Simulation simulation(config);
  return simulation.run();
}

}  // namespace psmr::sim
