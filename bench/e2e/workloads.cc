#include "workloads.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cos/factory.h"
#include "load_client.h"
#include "smr/deployment.h"
#include "tracing.h"
#include "workload/generator.h"

namespace psmr::e2e {
namespace {

// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupReps = 15;
// Closed-loop workloads keep this many commands outstanding.
constexpr int kClosedOutstanding = 64;
// Pre-generated command pools are cycled; these sizes keep them small.
constexpr std::size_t kClosedPool = std::size_t{1} << 16;
constexpr std::size_t kDirectPool = std::size_t{1} << 18;
// KV key space (Zipf theta 0.99 over 16'384 keys, 20 % put, 64 shards).
constexpr std::uint64_t kKvKeys = 16'384;
constexpr double kKvTheta = 0.99;
constexpr double kKvPutPct = 20.0;
constexpr std::size_t kKvShards = 64;
// kv-zipf-3r's open-loop reference phase offers this Poisson rate.
constexpr std::size_t kOpenPool = std::size_t{1} << 18;
constexpr double kRefRateKops = 20.0;
// Chrome trace output keeps the spans of at most this many commands.
constexpr std::size_t kMaxTracedCommands = 1000;

const std::uint64_t g_trace_origin_ns = now_ns();

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; exact, so
// the value carries every digit measured. 0 for an empty sample.
template <typename Container>
double percentile(const Container& from, double p) {
  std::vector<std::uint64_t> samples(from.begin(), from.end());
  if (samples.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index = std::min(
      samples.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return static_cast<double>(samples[index]);
}

// FNV-1a over raw bytes, used to fingerprint generated inputs.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

std::uint64_t hash_commands(const std::vector<Command>& commands,
                            std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const Command& c : commands) {
    const auto mode = static_cast<std::uint8_t>(c.mode);
    h = fnv1a(&c.op, sizeof c.op, h);
    h = fnv1a(&mode, sizeof mode, h);
    h = fnv1a(&c.nkeys, sizeof c.nkeys, h);
    h = fnv1a(c.keys.data(), sizeof c.keys, h);
    h = fnv1a(&c.arg, sizeof c.arg, h);
  }
  return h;
}

std::vector<Command> kv_pool(std::size_t count, std::uint64_t seed) {
  const KvService shape(kKvShards);
  return make_kv_workload_zipf(shape, count, kKvPutPct, kKvKeys, kKvTheta,
                               seed);
}

// Chrome trace-event helpers: one async span per command stage, so the
// stages of concurrent commands may overlap on screen.
int g_trace_pid = 0;

void add_span(WorkloadResult& r, const char* name, std::uint64_t id,
              std::uint64_t begin_ns, std::uint64_t end_ns) {
  if (begin_ns == 0 || end_ns < begin_ns) return;
  char buf[320];
  const double ts = static_cast<double>(begin_ns - g_trace_origin_ns) * 1e-3;
  const double te = static_cast<double>(end_ns - g_trace_origin_ns) * 1e-3;
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"cmd\",\"ph\":\"b\",\"id\":%llu,"
                "\"pid\":%d,\"tid\":0,\"ts\":%.3f}",
                name, static_cast<unsigned long long>(id), g_trace_pid, ts);
  r.trace_events.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"cmd\",\"ph\":\"e\",\"id\":%llu,"
                "\"pid\":%d,\"tid\":0,\"ts\":%.3f}",
                name, static_cast<unsigned long long>(id), g_trace_pid, te);
  r.trace_events.emplace_back(buf);
}

void report_us(WorkloadResult& r, const std::string& name, const Samples& ns) {
  r.metric(name + ".p50", percentile(ns, 50) * 1e-3, "us");
  r.metric(name + ".p99", percentile(ns, 99) * 1e-3, "us");
}

void report_ns(WorkloadResult& r, const std::string& name, const Samples& ns) {
  r.metric(name + ".p50", percentile(ns, 50), "ns");
  r.metric(name + ".p99", percentile(ns, 99), "ns");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The measurement window: wall time, process CPU time and the metrics
// registry at its ends, cut into kSlices equal slices. The end-to-end
// figures are medians over the slices, so one noisy second on a shared
// host moves a run's result less than a whole-window figure would.
struct Window {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;  // set when the last slice ends
  std::uint64_t slice_ns = 0;
  double cpu0 = 0.0;
  std::vector<double> slice_cpu;  // process CPU seconds at each slice's end
  SliceLatency slice_latency;     // filled from the load by the caller
  MetricsSnapshot m0;
  MetricsSnapshot m1;

  void begin(double seconds) {
    m0 = MetricsRegistry::global().snapshot();
    cpu0 = cpu_seconds();
    slice_ns = static_cast<std::uint64_t>(seconds * 1e9 / kSlices);
    t0 = now_ns();
  }
  bool done() const { return slice_cpu.size() == kSlices; }
  std::uint64_t next_boundary() const {
    return t0 + (slice_cpu.size() + 1) * slice_ns;
  }
  // Closes every slice whose end `now` has reached.
  void tick(std::uint64_t now) {
    if (done()) return;
    while (!done() && now >= next_boundary()) slice_cpu.push_back(cpu_seconds());
    if (done()) {
      t1 = t0 + kSlices * slice_ns;
      m1 = MetricsRegistry::global().snapshot();
    }
  }
  // Sleeps until the window ends.
  void wait() {
    while (!done()) {
      const std::uint64_t now = now_ns();
      if (next_boundary() > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(next_boundary() - now));
      }
      tick(now_ns());
    }
  }
  bool contains(std::uint64_t at) const { return at >= t0 && at < t1; }
  LatencyHistogram merged_latency() const {
    LatencyHistogram all;
    for (const LatencyHistogram& slice : slice_latency) all.merge(slice);
    return all;
  }
  double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
  double cpu() const { return slice_cpu.back() - cpu0; }
  double delta(std::string_view counter) const {
    return static_cast<double>(m1.counter(counter) - m0.counter(counter));
  }
};

// End-to-end figures of a window are medians over its slices: throughput,
// and p50, p95, p99 and CPU per operation. p99.9 and its sample count are
// taken over the whole window. (p95 is the gated tail: a slice's p99 jumps
// from ~1.6 to 2-4 ms when a scheduling hiccup lands in it, so the median
// of slice p99s flips from run to run, while p95 moves by a few percent.)
void report_throughput(WorkloadResult& r, const Window& w) {
  std::vector<double> kops;
  for (const LatencyHistogram& slice : w.slice_latency) {
    kops.push_back(static_cast<double>(slice.count()) /
                   (static_cast<double>(w.slice_ns) * 1e-9) * 1e-3);
  }
  r.metric("throughput_kops", median(kops), "kops");
}

void report_latency(WorkloadResult& r, const Window& w) {
  std::vector<double> p50, p95, p99, cpu_per_op;
  double cpu_before = w.cpu0;
  for (std::size_t i = 0; i < kSlices; ++i) {
    const LatencyHistogram& slice = w.slice_latency[i];
    p50.push_back(slice.percentile(50) * 1e-6);
    p95.push_back(slice.percentile(95) * 1e-6);
    p99.push_back(slice.percentile(99) * 1e-6);
    cpu_per_op.push_back(ratio((w.slice_cpu[i] - cpu_before) * 1e6,
                               static_cast<double>(slice.count())));
    cpu_before = w.slice_cpu[i];
  }
  const LatencyHistogram all = w.merged_latency();
  r.metric("latency_p50_ms", median(p50), "ms");
  r.metric("latency_p95_ms", median(p95), "ms");
  r.metric("latency_p99_ms", median(p99), "ms");
  r.metric("latency_p99.9_ms", all.percentile(99.9) * 1e-6, "ms");
  r.metric("latency_samples", static_cast<double>(all.count()), "count");
  r.metric("cpu_us_per_op", median(cpu_per_op), "us");
}

// ---------------------------------------------------------------------------
// Replicated workloads: a Deployment over SimNetwork plus one LoadClient.
// ---------------------------------------------------------------------------

struct ClusterSpec {
  int replicas = 1;
  Deployment::ServiceFactory make_service;
};

// Torn down in reverse order: client, deployment, then the tracer that the
// deployment's transport and services point at.
struct Cluster {
  std::unique_ptr<StageTracer> tracer;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<LoadClient> client;
  std::uint64_t sends0 = 0;
  std::uint64_t sends1 = 0;

  // Starts the window; the client files replies into its slices by reply
  // time, or by due time with `by_start`.
  void begin_window(Window& w, double seconds, bool by_start) {
    w.begin(seconds);
    client->record_window(w.t0, w.slice_ns, by_start);
    if (tracer) {
      sends0 = tracer->sends();
      tracer->set_enabled(true);
    }
  }
  // Call once the window is done.
  void end_window() {
    if (tracer) {
      tracer->set_enabled(false);
      sends1 = tracer->sends();
    }
  }
};

// SmrDriver's configuration: default Replica::Config (cos-dag, lock-free,
// indexed, capacity 150, 4 workers), batch_max 64, batch_timeout 200 us,
// 1 ms broadcast tick, SimNetwork at 30 us + [0, 20) us jitter.
Deployment::Config deployment_config(int replicas, std::uint64_t seed) {
  Deployment::Config config;
  config.replicas = replicas;
  config.net.base_latency_us = 30;
  config.net.jitter_us = 20;
  config.net.seed = seed;
  config.replica.broadcast.batch_max = 64;
  config.replica.broadcast.batch_timeout_us = 200;
  config.replica.broadcast.tick_interval_ms = 1;
  return config;
}

std::unique_ptr<Cluster> make_cluster(const ClusterSpec& spec,
                                      const RunConfig& rc,
                                      const std::vector<Command>& pool) {
  auto cluster = std::make_unique<Cluster>();
  Deployment::Config config = deployment_config(spec.replicas, rc.seed);
  Deployment::ServiceFactory factory = spec.make_service;
  if (rc.trace) {
    // Replicas register first, so replica i has endpoint id i and replica
    // 0 leads view 0 (no_view_changes checks that it stayed so).
    cluster->tracer = std::make_unique<StageTracer>(spec.replicas, 0);
    StageTracer* tracer = cluster->tracer.get();
    config.transport_factory = [tracer, net = config.net] {
      return std::make_unique<TracingTransport>(
          std::make_unique<SimNetwork>(net), *tracer);
    };
    // Deployment calls the factory once per replica, in index order.
    factory = [tracer, make = spec.make_service,
               next = std::make_shared<int>(0)] {
      return std::make_unique<TracingService>(make(), *tracer, (*next)++);
    };
  }
  cluster->deployment = std::make_unique<Deployment>(config, factory);
  std::vector<NodeId> replicas;
  for (int i = 0; i < spec.replicas; ++i) {
    replicas.push_back(cluster->deployment->replica(i).endpoint());
  }
  cluster->client = std::make_unique<LoadClient>(
      cluster->deployment->net(), replicas, pool, rc.trace);
  return cluster;
}

// Builds and starts the cluster kSetupReps times, each timed from
// construction to the first reply, and keeps the first one for the run.
// The others are built and torn down after it, so the kept services sit on
// a fresh heap: built from recycled chunks, the 100k-node list traversed a
// third slower, by an amount that changed from run to run.
// `baseline` is the registry before the kept cluster was built.
std::unique_ptr<Cluster> set_up(const ClusterSpec& spec, const RunConfig& rc,
                                const std::vector<Command>& pool,
                                WorkloadResult& result,
                                MetricsSnapshot* baseline) {
  *baseline = MetricsRegistry::global().snapshot();
  std::vector<std::uint64_t> times;
  std::unique_ptr<Cluster> kept;
  bool replied = true;
  for (int rep = 0; rep < kSetupReps && replied; ++rep) {
    const std::uint64_t t0 = now_ns();
    auto cluster = make_cluster(spec, rc, pool);
    cluster->deployment->start();
    replied = cluster->client->probe(5000);
    times.push_back(now_ns() - t0);
    if (rep == 0) kept = std::move(cluster);
  }
  result.check("setup_first_reply", replied);
  result.metric("setup_s", percentile(times, 50) * 1e-9, "s");
  return kept;
}

bool wait_converged(Deployment& deployment) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    if (deployment.states_converged()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// Drains the load, runs the correctness checks and stops the deployment;
// afterwards the client's records are stable and copied into `w`.
void finish_cluster(Cluster& cluster, const MetricsSnapshot& baseline,
                    Window& w, WorkloadResult& r) {
  r.check("replies_drained", cluster.client->drain(2000));
  r.check("digests_converge", wait_converged(*cluster.deployment));
  const MetricsSnapshot now = MetricsRegistry::global().snapshot();
  const std::uint64_t dropped = now.counter("scheduler.dropped_deliveries") -
                                baseline.counter("scheduler.dropped_deliveries");
  const std::uint64_t view_changes = now.counter("broadcast.view_changes") -
                                     baseline.counter("broadcast.view_changes");
  r.check("no_dropped_deliveries", dropped == 0, std::to_string(dropped));
  r.check("no_view_changes", view_changes == 0, std::to_string(view_changes));
  cluster.deployment->stop();
  if (cluster.tracer) {
    r.check("at_most_once",
            cluster.tracer->duplicate_executions() == 0 &&
                cluster.tracer->unchecked_executions() == 0,
            std::to_string(cluster.tracer->duplicate_executions()) +
                " duplicate");
  }
  const LoadClient& client = *cluster.client;
  r.attempted = client.issued();
  r.failed = client.issued() - client.completed() + client.late();
  r.check("no_late_replies", client.late() == 0, std::to_string(client.late()));
  w.slice_latency = client.window_latency();
}

// Per-layer metrics of a traced cluster run. `window` holds the raw records
// of the sampled commands among those the end-to-end metrics counted.
void report_cluster_layers(WorkloadResult& r, const Cluster& cluster,
                           const Window& w,
                           const std::deque<LoadClient::Sample>& window) {
  const StageTracer& tracer = *cluster.tracer;
  const int n = tracer.replicas();
  const LatencyHistogram latency = w.merged_latency();
  const double ops = static_cast<double>(latency.count());
  const double window_ns = static_cast<double>(w.t1 - w.t0);
  const int workers = Replica::Config{}.workers;

  r.metric("net.msgs_per_op",
           ratio(static_cast<double>(cluster.sends1 - cluster.sends0), ops),
           "msgs/op");
  report_ns(r, "net.send_ns", tracer.send_ns());
  report_us(r, "net.transit_us", tracer.transit_ns());
  report_us(r, "net.replica_handler_us", tracer.handler_ns());

  // Stage spans of the sampled commands, on the replica that answered first.
  const auto stamps = tracer.stamps();
  Samples request, batch_wait, commit, schedule, reply, late;
  std::size_t traced = 0;
  for (const LoadClient::Sample& s : window) {
    late.push_back(s.sent_ns - s.start_ns);
    if (!sampled(s.seq)) continue;
    auto it = stamps.find(s.seq);
    if (it == stamps.end() || s.replica < 0 || s.replica >= n) continue;
    const StageTracer::Stamps& st = it->second;
    const auto rep = static_cast<std::size_t>(s.replica);
    const std::uint64_t ordered = n > 1 ? st.commit_sent : st.leader_recv;
    const std::uint64_t marks[] = {s.sent_ns, st.leader_recv,
                                   n > 1 ? st.accept_sent : st.leader_recv,
                                   ordered, st.exec_start[rep],
                                   st.exec_end[rep], s.reply_ns};
    if (!std::is_sorted(std::begin(marks), std::end(marks)) ||
        std::find(std::begin(marks), std::end(marks), 0) != std::end(marks)) {
      continue;  // a stamp fell outside the window
    }
    request.push_back(st.leader_recv - s.sent_ns);
    if (n > 1) {
      batch_wait.push_back(st.accept_sent - st.leader_recv);
      commit.push_back(st.commit_sent - st.accept_sent);
    }
    schedule.push_back(st.exec_start[rep] - ordered);
    reply.push_back(s.reply_ns - st.exec_end[rep]);
    if (traced++ < kMaxTracedCommands) {
      add_span(r, "request", s.seq, s.sent_ns, st.leader_recv);
      if (n > 1) {
        add_span(r, "batch_wait", s.seq, st.leader_recv, st.accept_sent);
        add_span(r, "commit", s.seq, st.accept_sent, st.commit_sent);
      }
      add_span(r, "schedule", s.seq, ordered, st.exec_start[rep]);
      add_span(r, "exec", s.seq, st.exec_start[rep], st.exec_end[rep]);
      add_span(r, "reply", s.seq, st.exec_end[rep], s.reply_ns);
    }
  }
  if (n > 1) {
    report_us(r, "broadcast.batch_wait_us", batch_wait);
    report_us(r, "broadcast.commit_us", commit);
  }
  report_us(r, "smr.request_us", request);
  report_us(r, "smr.schedule_us", schedule);
  report_us(r, "smr.reply_us", reply);
  const Samples exec = tracer.exec_ns();
  report_us(r, "app.exec_us", exec);
  // Sum of the stage medians against the traced run's median latency.
  const double stage_sum_ns =
      percentile(request, 50) + percentile(batch_wait, 50) +
      percentile(commit, 50) + percentile(schedule, 50) +
      percentile(exec, 50) + percentile(reply, 50) + percentile(late, 50);
  r.metric("trace.stage_sum_frac", ratio(stage_sum_ns, latency.percentile(50)),
           "frac");
  r.metric("trace.sampled_commands", static_cast<double>(request.size()),
           "count");

  r.metric("broadcast.cmds_per_batch",
           ratio(w.delta("broadcast.delivered_commands"),
                 w.delta("broadcast.delivered_batches")),
           "cmds");
  r.metric("broadcast.view_changes", w.delta("broadcast.view_changes"),
           "count");
  r.metric("scheduler.batch_size.mean",
           ratio(w.delta("scheduler.batch_commands"),
                 w.delta("scheduler.batches")),
           "cmds");
  r.metric("scheduler.dropped_deliveries",
           w.delta("scheduler.dropped_deliveries"), "count");
  const double worker_ns = n * workers * window_ns;
  r.metric("worker.exec_frac", ratio(w.delta("worker.exec_ns"), worker_ns),
           "frac");
  r.metric("worker.stall_frac", ratio(w.delta("worker.stall_ns"), worker_ns),
           "frac");
  r.metric("cos.insert_block_frac",
           ratio(w.delta("cos.insert_block_ns"), n * window_ns), "frac");
  r.metric("cos.get_block_frac", ratio(w.delta("cos.get_block_ns"), worker_ns),
           "frac");
  double population = 0.0;
  for (int i = 0; i < n; ++i) {
    population += cluster.deployment->replica(i).mean_graph_population();
  }
  r.metric("cos.population.mean", population / n, "cmds");
  r.metric("proc.cpu_cores", ratio(w.cpu(), w.seconds()), "cores");
  r.metric("load.late_us.p99", percentile(late, 99) * 1e-3, "us");
}

// Closed loop at kClosedOutstanding commands: warm-up, then the window.
WorkloadResult run_closed(const ClusterSpec& spec,
                          const std::vector<Command>& pool,
                          const RunConfig& rc) {
  WorkloadResult r;
  r.input_hash = hash_commands(pool);
  MetricsSnapshot baseline;
  auto cluster = set_up(spec, rc, pool, r, &baseline);
  cluster->client->start_closed(kClosedOutstanding);
  sleep_s(rc.warmup_s());
  Window w;
  cluster->begin_window(w, rc.window_s(), false);
  w.wait();
  cluster->end_window();
  finish_cluster(*cluster, baseline, w, r);
  report_throughput(r, w);
  report_latency(r, w);
  std::deque<LoadClient::Sample> window;
  for (const LoadClient::Sample& s : cluster->client->sampled_records()) {
    if (w.contains(s.reply_ns)) window.push_back(s);
  }
  if (rc.trace) report_cluster_layers(r, *cluster, w, window);
  return r;
}

std::vector<Command> list_pool(double write_pct, std::size_t list_size,
                               std::uint64_t seed) {
  return make_list_workload(kClosedPool, write_pct, list_size, seed);
}

std::uint64_t list_heavy_hash(const RunConfig& rc) {
  return hash_commands(list_pool(0.0, 100'000, rc.seed));
}

WorkloadResult run_list_heavy(const RunConfig& rc) {
  const ClusterSpec spec{
      1, [] { return std::make_unique<LinkedListService>(100'000); }};
  return run_closed(spec, list_pool(0.0, 100'000, rc.seed), rc);
}

std::uint64_t list_mixed_hash(const RunConfig& rc) {
  return hash_commands(list_pool(10.0, 10'000, rc.seed));
}

WorkloadResult run_list_mixed(const RunConfig& rc) {
  const ClusterSpec spec{
      3, [] { return std::make_unique<LinkedListService>(10'000); }};
  return run_closed(spec, list_pool(10.0, 10'000, rc.seed), rc);
}

// ---------------------------------------------------------------------------
// kv-zipf-3r: latency from an open loop at a fixed rate, throughput from a
// closed loop. Open-loop arrivals are Poisson: the gaps are drawn from the
// seed at unit rate before the run and scaled to the offered rate.
//
// Throughput is not the highest open-loop rate meeting a latency limit:
// that knee moved between 45 and 70 kops from run to run of one seed on
// the 4-core host, too far for any regression bound, while the closed
// loop's rate repeats within a few percent.
// ---------------------------------------------------------------------------

struct OpenInputs {
  std::vector<Command> pool;  // cycled; seq 1 is the set-up probe
  std::vector<double> gaps;   // exponential with mean 1, consumed in order
};

OpenInputs make_open_inputs(std::uint64_t seed) {
  OpenInputs in;
  in.pool = kv_pool(kOpenPool, seed);
  Xoshiro256 rng(seed ^ 0x6f70656e6c6f6f70ull);
  in.gaps.resize(kOpenPool);
  for (double& gap : in.gaps) gap = -std::log(1.0 - rng.uniform());
  return in;
}

std::uint64_t open_inputs_hash(const OpenInputs& in) {
  return fnv1a(in.gaps.data(), in.gaps.size() * sizeof(double),
               hash_commands(in.pool));
}

std::uint64_t kv_zipf_hash(const RunConfig& rc) {
  return open_inputs_hash(make_open_inputs(rc.seed));
}

// Sends on the Poisson schedule at `rate_kops` for `seconds`, each command
// timed from its due time, closing the slices of `w` (if given) as they
// pass. Returns the first and one-past-last seq sent. The sender sleeps to
// each due time; a 1 ns timer slack keeps nanosleep from rounding every
// wake-up up by the default 50 us.
std::pair<std::uint64_t, std::uint64_t> send_open(
    LoadClient& client, const std::vector<double>& gaps, std::size_t* next_gap,
    double rate_kops, double seconds, Window* w) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::uint64_t first = client.issued() + 1;
  const std::uint64_t begin = now_ns();
  const std::uint64_t end = begin + static_cast<std::uint64_t>(seconds * 1e9);
  const double mean_gap_ns = 1e6 / rate_kops;
  double t = static_cast<double>(begin);
  while (true) {
    t += gaps[(*next_gap)++ % gaps.size()] * mean_gap_ns;
    const auto due = static_cast<std::uint64_t>(t);
    if (due >= end) break;
    const std::uint64_t now = now_ns();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    client.issue_open(due);
    if (w != nullptr) w->tick(now_ns());
  }
  if (w != nullptr) w->wait();
  return {first, client.issued() + 1};
}

WorkloadResult run_kv_zipf(const RunConfig& rc) {
  WorkloadResult r;
  const OpenInputs in = make_open_inputs(rc.seed);
  r.input_hash = open_inputs_hash(in);
  const ClusterSpec spec{
      3, [] { return std::make_unique<KvService>(kKvShards); }};
  MetricsSnapshot baseline;
  auto cluster = set_up(spec, rc, in.pool, r, &baseline);
  LoadClient& client = *cluster->client;

  // Reference phase: latency and CPU per operation at a fixed offered rate,
  // where the stage breakdown is traced.
  std::size_t next_gap = 0;
  send_open(client, in.gaps, &next_gap, kRefRateKops, rc.smoke ? 0.5 : 1.0,
            nullptr);
  Window ref;
  cluster->begin_window(ref, rc.window_s(), true);
  const auto [first, end] = send_open(client, in.gaps, &next_gap,
                                      kRefRateKops, rc.window_s(), &ref);
  cluster->end_window();
  r.check("reference_drained", client.drain(LoadClient::kDeadlineNs / 1'000'000));
  ref.slice_latency = client.window_latency();

  // Saturation phase: throughput, closed loop as in the list workloads.
  client.start_closed(kClosedOutstanding);
  sleep_s(rc.smoke ? 0.5 : 1.0);
  Window peak;
  peak.begin(rc.window_s() / 2);
  client.record_window(peak.t0, peak.slice_ns, false);
  peak.wait();
  finish_cluster(*cluster, baseline, peak, r);
  report_throughput(r, peak);
  report_latency(r, ref);

  std::deque<LoadClient::Sample> window;
  for (const LoadClient::Sample& s : client.sampled_records()) {
    if (s.seq >= first && s.seq < end) window.push_back(s);
  }
  if (rc.trace) report_cluster_layers(r, *cluster, ref, window);
  return r;
}

// ---------------------------------------------------------------------------
// cos-kv-direct: the paper's standalone COS harness (section 7.3).
// ---------------------------------------------------------------------------

constexpr int kDirectWorkers = 3;
constexpr std::size_t kDirectBatch = 64;
constexpr std::size_t kBatchRing = 4096;  // >> capacity / batch in flight

struct DirectWorker {
  SliceLatency latency = SliceLatency(kSlices);  // by slice of completion
  // Trace mode only, over the window.
  Samples get_wait_ns;
  Samples remove_ns;
  Samples exec_ns;
  std::uint64_t exec_total_ns = 0;
  std::uint64_t wait_total_ns = 0;
  struct Traced {
    std::uint64_t id, inserted, got, executed, removed;
  };
  std::vector<Traced> traced;
  std::thread thread;
};

// One KvService and its COS, fed by the caller's thread (the scheduler)
// and drained by kDirectWorkers workers looping get -> execute -> remove.
class DirectRig {
 public:
  DirectRig(const std::vector<Command>& pool, bool trace)
      : pool_(pool),
        trace_(trace),
        cos_(make_cos(CosOptions{.conflict = service_.conflict()})),
        batch_start_(std::make_unique<std::atomic<std::uint64_t>[]>(
            kBatchRing)) {
    batch_.resize(kDirectBatch);
    for (int i = 0; i < kDirectWorkers; ++i) {
      workers_.push_back(std::make_unique<DirectWorker>());
      DirectWorker* w = workers_.back().get();
      w->thread = std::thread([this, w] { worker_loop(*w); });
    }
  }

  ~DirectRig() { finish(); }

  DirectRig(const DirectRig&) = delete;
  DirectRig& operator=(const DirectRig&) = delete;

  // Inserts the next batch; returns the insert call's start and end.
  std::pair<std::uint64_t, std::uint64_t> insert_next() {
    for (std::size_t j = 0; j < kDirectBatch; ++j) {
      batch_[j] = pool_[(inserted_ + j) % pool_.size()];
      batch_[j].id = inserted_ + j + 1;
    }
    const std::uint64_t t0 = now_ns();
    batch_start_[(inserted_ / kDirectBatch) % kBatchRing].store(
        t0, std::memory_order_relaxed);
    cos_->insert_batch(batch_);
    inserted_ += kDirectBatch;
    return {t0, now_ns()};
  }

  void open_window(const Window& w) {
    slice_ns_.store(w.slice_ns, std::memory_order_relaxed);
    window_begin_.store(w.t0, std::memory_order_release);
  }

  // Waits for every inserted command to execute, then stops the workers.
  void finish() {
    if (finished_) return;
    finished_ = true;
    while (executed_.load(std::memory_order_acquire) < inserted_) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    cos_->close();
    for (auto& w : workers_) w->thread.join();
  }

  std::uint64_t inserted() const { return inserted_; }
  std::size_t population() const { return cos_->approx_size(); }
  const KvService& service() const { return service_; }
  const std::vector<std::unique_ptr<DirectWorker>>& workers() const {
    return workers_;
  }

 private:
  void worker_loop(DirectWorker& w) {
    while (true) {
      const std::uint64_t t0 = trace_ ? now_ns() : 0;
      CosHandle h = cos_->get();
      if (!h) return;
      const std::uint64_t t1 = trace_ ? now_ns() : 0;
      service_.execute(*h.cmd);
      const std::uint64_t t2 = now_ns();
      const std::uint64_t id = h.cmd->id;
      const std::uint64_t start =
          batch_start_[((id - 1) / kDirectBatch) % kBatchRing].load(
              std::memory_order_relaxed);
      const std::uint64_t begin = window_begin_.load(std::memory_order_acquire);
      const std::uint64_t slice =
          t2 >= begin ? (t2 - begin) / slice_ns_.load(std::memory_order_relaxed)
                      : kSlices;
      const bool in_window = slice < kSlices;
      if (in_window) w.latency[slice].record(t2 - start);
      cos_->remove(h);
      executed_.fetch_add(1, std::memory_order_release);
      if (!trace_ || !in_window) continue;
      const std::uint64_t t3 = now_ns();
      w.get_wait_ns.push_back(t1 - t0);
      w.remove_ns.push_back(t3 - t2);
      w.wait_total_ns += t1 - t0;
      w.exec_total_ns += t2 - t1;
      if (id % kSampleEvery == 0) {
        w.exec_ns.push_back(t2 - t1);
        if (w.traced.size() < kMaxTracedCommands) {
          w.traced.push_back({id, start, t1, t2, t3});
        }
      }
    }
  }

  const std::vector<Command>& pool_;
  const bool trace_;
  KvService service_{kKvShards};
  std::unique_ptr<Cos> cos_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> batch_start_;
  std::vector<Command> batch_;
  std::uint64_t inserted_ = 0;  // scheduler (caller) thread only
  bool finished_ = false;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> window_begin_{~0ull};
  std::atomic<std::uint64_t> slice_ns_{1};
  std::vector<std::unique_ptr<DirectWorker>> workers_;
};

std::uint64_t cos_direct_hash(const RunConfig& rc) {
  return hash_commands(kv_pool(kDirectPool, rc.seed));
}

WorkloadResult run_cos_direct(const RunConfig& rc) {
  WorkloadResult r;
  const std::vector<Command> pool = kv_pool(kDirectPool, rc.seed);
  r.input_hash = hash_commands(pool);

  // As for the clusters, the first set-up is the one kept.
  std::vector<std::uint64_t> setups;
  std::unique_ptr<DirectRig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    auto candidate = std::make_unique<DirectRig>(pool, rc.trace);
    candidate->insert_next();
    setups.push_back(now_ns() - t0);
    if (rep == 0) rig = std::move(candidate);
  }
  r.metric("setup_s", percentile(setups, 50) * 1e-9, "s");

  Samples insert_ns;
  Samples population;
  Window w;
  const std::uint64_t warm_end =
      now_ns() + static_cast<std::uint64_t>(rc.warmup_s() * 1e9);
  while (true) {
    const auto [t0, t1] = rig->insert_next();
    if (w.t0 == 0) {
      if (t1 < warm_end) continue;
      w.begin(rc.window_s());
      rig->open_window(w);
      continue;
    }
    w.tick(t1);
    if (w.done()) break;
    if (rc.trace) {
      insert_ns.push_back((t1 - t0) / kDirectBatch);
      population.push_back(rig->population());
    }
  }
  rig->finish();
  r.attempted = rig->inserted();

  // The final state must equal a sequential replay of the same commands.
  KvService replay(kKvShards);
  for (std::uint64_t i = 0; i < rig->inserted(); ++i) {
    replay.execute(pool[i % pool.size()]);
  }
  r.check("digest_matches_sequential",
          replay.state_digest() == rig->service().state_digest());

  Samples get_wait, remove, exec;
  double exec_total = 0.0;
  double wait_total = 0.0;
  w.slice_latency.assign(kSlices, LatencyHistogram());
  for (const auto& worker : rig->workers()) {
    for (std::size_t i = 0; i < kSlices; ++i) {
      w.slice_latency[i].merge(worker->latency[i]);
    }
    get_wait.insert(get_wait.end(), worker->get_wait_ns.begin(),
                    worker->get_wait_ns.end());
    remove.insert(remove.end(), worker->remove_ns.begin(),
                  worker->remove_ns.end());
    exec.insert(exec.end(), worker->exec_ns.begin(), worker->exec_ns.end());
    exec_total += static_cast<double>(worker->exec_total_ns);
    wait_total += static_cast<double>(worker->wait_total_ns);
    for (const DirectWorker::Traced& t : worker->traced) {
      add_span(r, "queue", t.id, t.inserted, t.got);
      add_span(r, "exec", t.id, t.got, t.executed);
      add_span(r, "remove", t.id, t.executed, t.removed);
    }
  }
  report_throughput(r, w);
  report_latency(r, w);
  if (!rc.trace) return r;

  const double window_ns = static_cast<double>(w.t1 - w.t0);
  report_ns(r, "cos.insert_ns", insert_ns);
  report_ns(r, "cos.get_wait_ns", get_wait);
  report_ns(r, "cos.remove_ns", remove);
  double population_sum = 0.0;
  for (std::uint64_t p : population) population_sum += static_cast<double>(p);
  r.metric("cos.population.mean",
           ratio(population_sum, static_cast<double>(population.size())),
           "cmds");
  report_us(r, "app.exec_us", exec);
  r.metric("worker.exec_frac", ratio(exec_total, kDirectWorkers * window_ns),
           "frac");
  r.metric("worker.stall_frac", ratio(wait_total, kDirectWorkers * window_ns),
           "frac");
  r.metric("cos.insert_block_frac", ratio(w.delta("cos.insert_block_ns"), window_ns),
           "frac");
  r.metric("cos.get_block_frac",
           ratio(w.delta("cos.get_block_ns"), kDirectWorkers * window_ns),
           "frac");
  r.metric("scheduler.batch_size.mean", kDirectBatch, "cmds");
  r.metric("proc.cpu_cores", ratio(w.cpu(), w.seconds()), "cores");
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"list-heavy-1r", list_heavy_hash, run_list_heavy},
      {"list-mixed-3r", list_mixed_hash, run_list_mixed},
      {"kv-zipf-3r", kv_zipf_hash, run_kv_zipf},
      {"cos-kv-direct", cos_direct_hash, run_cos_direct},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void set_trace_pid(int pid) { g_trace_pid = pid; }

const std::vector<MetricName>& layer_metric_names() {
  static const std::vector<MetricName> names = {
      {"net.msgs_per_op", "msgs/op"},
      {"net.send_ns.p50", "ns"},
      {"net.send_ns.p99", "ns"},
      {"net.transit_us.p50", "us"},
      {"net.transit_us.p99", "us"},
      {"net.replica_handler_us.p50", "us"},
      {"net.replica_handler_us.p99", "us"},
      {"broadcast.batch_wait_us.p50", "us"},
      {"broadcast.batch_wait_us.p99", "us"},
      {"broadcast.commit_us.p50", "us"},
      {"broadcast.commit_us.p99", "us"},
      {"broadcast.cmds_per_batch", "cmds"},
      {"broadcast.view_changes", "count"},
      {"smr.request_us.p50", "us"},
      {"smr.request_us.p99", "us"},
      {"smr.schedule_us.p50", "us"},
      {"smr.schedule_us.p99", "us"},
      {"smr.reply_us.p50", "us"},
      {"smr.reply_us.p99", "us"},
      {"scheduler.batch_size.mean", "cmds"},
      {"scheduler.dropped_deliveries", "count"},
      {"worker.exec_frac", "frac"},
      {"worker.stall_frac", "frac"},
      {"cos.insert_block_frac", "frac"},
      {"cos.get_block_frac", "frac"},
      {"cos.insert_ns.p50", "ns"},
      {"cos.insert_ns.p99", "ns"},
      {"cos.get_wait_ns.p50", "ns"},
      {"cos.get_wait_ns.p99", "ns"},
      {"cos.remove_ns.p50", "ns"},
      {"cos.remove_ns.p99", "ns"},
      {"cos.population.mean", "cmds"},
      {"app.exec_us.p50", "us"},
      {"app.exec_us.p99", "us"},
      {"proc.cpu_cores", "cores"},
      {"load.late_us.p99", "us"},
      {"trace.overhead_frac", "frac"},
  };
  return names;
}

}  // namespace psmr::e2e
