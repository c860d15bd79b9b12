// Single-node launcher for multi-process deployments over TcpTransport.
//
// Starts ONE replica or ONE closed-loop client as its own OS process; a
// cluster is n replica processes + any number of client processes on a
// shared address list. Node ids are positional: replica i (0-based) is
// peers[i] in --peers, clients use ids >= the replica count.
//
//   # 3 replicas + 1 client on loopback:
//   P="127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103"
//   psmr_node --role=replica --id=0 --peers=$P &
//   psmr_node --role=replica --id=1 --peers=$P &
//   psmr_node --role=replica --id=2 --peers=$P &
//   psmr_node --role=client  --id=3 --peers=$P --ops=1000
//
// A replica serves until --run-ms elapses or SIGTERM/SIGINT arrives, then
// quiesces (waits for the executed count to go stable), and prints one
// machine-parseable line:
//   replica id=0 executed=N digest=0x... view=V state_transfers=K
// A client completes --ops commands (or hits --run-ms), drains, and prints:
//   client id=3 completed=N errors=E drained=0|1
// exiting nonzero if any command never completed. The multi-process smoke
// test (tests/multiprocess_smoke_test.cc) forks this binary and asserts
// the replica digests match.
//
// With --metrics-dump-ms=N (> 0) the process also emits a
// MetricsRegistry::snapshot() every N ms to stderr, one line per dump,
// prefixed "METRICS " (JSON by default; --metrics-format=prom switches to
// Prometheus exposition text, where the prefix is omitted and the dump is
// multi-line). A final dump is always emitted at shutdown.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/bank_service.h"
#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cos/factory.h"
#include "net/tcp_transport.h"
#include "smr/client.h"
#include "smr/replica.h"
#include "tools/options.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

struct Options {
  std::string role;
  int id = -1;
  std::vector<std::string> peers;  // replica addresses, in id order
  std::string listen;              // replica only; defaults to peers[id]
  std::string service = "kv";
  psmr::tools::SchedulerFlags sched;    // --cos/--policy/--graph-size/...
  psmr::tools::MetricsFlags metrics;    // --metrics-dump-ms/--metrics-format
  std::uint64_t run_ms = 60000;
  std::uint64_t ops = 1000;       // client
  int pipeline = 4;               // client
  double write_pct = 50.0;        // client
  std::uint64_t keys = 1024;      // key/account/value space
  std::uint64_t shards = 64;      // kv shard count (must match cluster-wide)
  std::uint64_t seed = 1;
};

// Periodically dumps the global metrics registry to stderr. stderr, not
// stdout: the one machine-parseable result line must stay alone on stdout.
class MetricsDumper {
 public:
  MetricsDumper(std::uint64_t interval_ms, bool prometheus)
      : interval_ms_(interval_ms), prometheus_(prometheus) {
    if (interval_ms_ == 0) return;
    thread_ = std::thread([this] { loop(); });
  }

  ~MetricsDumper() { stop(); }

  void stop() {  // idempotent: the destructor calls it too
    if (interval_ms_ == 0) return;
    if (stop_.exchange(true, std::memory_order_relaxed)) return;  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
    if (thread_.joinable()) thread_.join();
    dump();  // final snapshot so short runs still produce one
  }

  void dump() const {
    const psmr::MetricsSnapshot snap = psmr::MetricsRegistry::global().snapshot();
    if (prometheus_) {
      std::fprintf(stderr, "%s", snap.to_prometheus().c_str());
    } else {
      std::fprintf(stderr, "METRICS %s\n", snap.to_json().c_str());
    }
    std::fflush(stderr);
  }

 private:
  void loop() {
    std::uint64_t next = psmr::now_ns() + interval_ms_ * 1'000'000ull;
    while (!stop_.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      // Poll in short slices so stop() is prompt even for long intervals.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (psmr::now_ns() < next) continue;
      dump();
      next = psmr::now_ns() + interval_ms_ * 1'000'000ull;
    }
  }

  const std::uint64_t interval_ms_;
  const bool prometheus_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool parse_args(int argc, char** argv, Options* opt) {
  psmr::tools::FlagSet flags;
  flags.add_string("--role", &opt->role);
  flags.add_int("--id", &opt->id);
  flags.add_value("--peers", [opt](const char* v) {
    opt->peers = split_csv(v);
    return true;
  });
  flags.add_string("--listen", &opt->listen);
  flags.add_string("--service", &opt->service);
  opt->sched.register_with(&flags);    // --cos/--policy/--workers/...
  opt->metrics.register_with(&flags);  // --metrics-dump-ms/--metrics-format
  flags.add_uint64("--run-ms", &opt->run_ms);
  flags.add_uint64("--ops", &opt->ops);
  flags.add_int("--pipeline", &opt->pipeline);
  flags.add_double("--write-pct", &opt->write_pct);
  flags.add_uint64("--keys", &opt->keys);
  flags.add_uint64("--shards", &opt->shards);
  flags.add_uint64("--seed", &opt->seed);
  if (!flags.parse(argc, argv)) return false;
  if (opt->role != "replica" && opt->role != "client") {
    std::fprintf(stderr, "--role must be replica or client\n");
    return false;
  }
  if (opt->id < 0 || opt->peers.empty()) {
    std::fprintf(stderr, "--id and --peers are required\n");
    return false;
  }
  return opt->metrics.validate();
}

std::unique_ptr<psmr::Service> make_service(const Options& opt) {
  if (opt.service == "kv") {
    return std::make_unique<psmr::KvService>(opt.shards);
  }
  if (opt.service == "bank") {
    return std::make_unique<psmr::BankService>(opt.keys, 1000);
  }
  if (opt.service == "list") {
    return std::make_unique<psmr::LinkedListService>(1000);
  }
  return nullptr;
}

// Closed-loop workload: write_pct% writes over a `keys`-sized space.
std::function<psmr::Command()> make_workload(const Options& opt) {
  auto rng = std::make_shared<psmr::Xoshiro256>(opt.seed + 0x9E37u *
                                                    static_cast<unsigned>(opt.id));
  const double write_p = opt.write_pct / 100.0;
  const std::uint64_t keys = opt.keys == 0 ? 1 : opt.keys;
  if (opt.service == "bank") {
    return [rng, write_p, keys] {
      const std::uint64_t a = rng->below(keys);
      if (rng->uniform() < write_p) {
        return rng->uniform() < 0.5
                   ? psmr::BankService::make_deposit(a, 1 + rng->below(100))
                   : psmr::BankService::make_transfer(a, rng->below(keys), 1);
      }
      return psmr::BankService::make_balance(a);
    };
  }
  if (opt.service == "list") {
    return [rng, write_p, keys] {
      const std::uint64_t v = rng->below(keys);
      return rng->uniform() < write_p
                 ? psmr::LinkedListService::make_add(v)
                 : psmr::LinkedListService::make_contains(v);
    };
  }
  auto kv = std::make_shared<psmr::KvService>(opt.shards);
  return [rng, write_p, keys, kv] {
    const std::uint64_t key = rng->below(keys);
    return rng->uniform() < write_p ? kv->make_put(key, rng->below(1 << 20))
                                    : kv->make_get(key);
  };
}

psmr::TcpTransport::Config transport_config(const Options& opt,
                                            bool with_listener) {
  psmr::TcpTransport::Config cfg;
  cfg.local_id = opt.id;
  if (with_listener) {
    cfg.listen_address = opt.listen.empty()
                             ? opt.peers[static_cast<std::size_t>(opt.id)]
                             : opt.listen;
  }
  for (std::size_t i = 0; i < opt.peers.size(); ++i) {
    cfg.peers[static_cast<psmr::NodeId>(i)] = opt.peers[i];
  }
  // Cluster startup is racy by construction (peers come up in any order);
  // be patient before declaring a peer dead.
  cfg.reconnect_max_attempts = 100;
  return cfg;
}

int run_replica(const Options& opt) {
  const int n = static_cast<int>(opt.peers.size());
  if (opt.id >= n) {
    std::fprintf(stderr, "replica --id must be < number of peers\n");
    return 2;
  }
  auto service = make_service(opt);
  if (!service) {
    std::fprintf(stderr, "unknown --service=%s\n", opt.service.c_str());
    return 2;
  }
  psmr::CosKind kind = psmr::CosKind::kLockFree;
  psmr::SchedulerPolicy policy = psmr::SchedulerPolicy::kCosDag;
  if (!opt.sched.resolve(&kind, &policy)) return 2;

  psmr::TcpTransport transport(transport_config(opt, /*with_listener=*/true));
  psmr::Replica::Config rcfg;
  rcfg.policy = policy;
  rcfg.cos = opt.sched.cos_options(kind);
  rcfg.workers = opt.sched.workers;
  psmr::Replica replica(transport, opt.id, std::move(service), rcfg);
  if (replica.endpoint() != opt.id) {
    std::fprintf(stderr, "failed to start transport (bind %s?)\n",
                 opt.peers[static_cast<std::size_t>(opt.id)].c_str());
    return 2;
  }
  std::vector<psmr::NodeId> endpoints;
  for (int i = 0; i < n; ++i) endpoints.push_back(i);
  replica.connect(endpoints);
  replica.start();
  MetricsDumper dumper(opt.metrics.dump_ms, opt.metrics.prometheus());

  const std::uint64_t deadline_ns =
      psmr::now_ns() + opt.run_ms * 1'000'000ull;
  while (!g_stop && psmr::now_ns() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Quiesce: wait for the executed count to go stable so every replica
  // digests the same prefix (clients are done and retransmissions absorbed
  // by the time this fires).
  std::uint64_t last = replica.executed_count();
  std::uint64_t stable_since = psmr::now_ns();
  const std::uint64_t quiesce_deadline = psmr::now_ns() + 5'000'000'000ull;
  while (psmr::now_ns() < quiesce_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const std::uint64_t cur = replica.executed_count();
    if (cur != last) {
      last = cur;
      stable_since = psmr::now_ns();
    } else if (psmr::now_ns() - stable_since > 300'000'000ull) {
      break;
    }
  }

  transport.shutdown();  // freeze inputs, then join replica threads
  replica.stop();
  dumper.stop();  // final metrics dump covers the whole run
  std::printf("replica id=%d executed=%llu digest=0x%016llx view=%llu "
              "state_transfers=%llu\n",
              opt.id,
              static_cast<unsigned long long>(replica.executed_count()),
              static_cast<unsigned long long>(replica.state_digest()),
              static_cast<unsigned long long>(replica.view()),
              static_cast<unsigned long long>(replica.state_transfers()));
  std::fflush(stdout);
  return 0;
}

int run_client(const Options& opt) {
  const int n = static_cast<int>(opt.peers.size());
  if (opt.id < n) {
    std::fprintf(stderr, "client --id must be >= number of replicas\n");
    return 2;
  }
  psmr::TcpTransport transport(transport_config(opt, /*with_listener=*/false));
  std::vector<psmr::NodeId> replicas;
  for (int i = 0; i < n; ++i) replicas.push_back(i);

  psmr::SmrClient::Config ccfg;
  ccfg.pipeline = opt.pipeline;
  ccfg.resend_timeout_ms = 500;
  psmr::SmrClient client(transport, replicas, ccfg, make_workload(opt));
  if (client.endpoint() != opt.id) {
    std::fprintf(stderr, "failed to start transport\n");
    return 2;
  }
  client.start();
  MetricsDumper dumper(opt.metrics.dump_ms, opt.metrics.prometheus());

  const std::uint64_t deadline_ns =
      psmr::now_ns() + opt.run_ms * 1'000'000ull;
  while (!g_stop && client.completed() < opt.ops &&
         psmr::now_ns() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  client.stop();
  dumper.stop();
  const bool drained = client.drain(3000);
  const std::uint64_t completed = client.completed();
  const std::uint64_t errors = completed >= opt.ops ? 0 : opt.ops - completed;
  std::printf("client id=%d completed=%llu errors=%llu drained=%d\n", opt.id,
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(errors), drained ? 1 : 0);
  std::fflush(stdout);
  transport.shutdown();
  return (errors == 0 && drained) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);
  return opt.role == "replica" ? run_replica(opt) : run_client(opt);
}
