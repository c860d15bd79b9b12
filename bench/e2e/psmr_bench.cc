// psmr_bench: the end-to-end benchmark (see README.md).
//
//   psmr_bench [--workload=NAME|all] [--seed=N] [--seconds=S]
//              [--json=PATH] [--trace=PATH] [--smoke]
//              [--metrics-from=BENCHMARK.json]
//
// Every workload runs in its own child process (this binary re-executed
// with --child), so peak RSS and the process-global metrics registry belong
// to one workload. The child reports over a pipe, one tab-separated record
// per line. With --trace the parent runs each workload twice, untraced and
// traced, and the traced run adds the per-layer metrics and the spans.
//
// Exit codes: 0 = every run and check passed; 1 = a run or check failed;
// 2 = bad flags, or a checked build (lock-rank checks or sanitizers) that
// must not produce numbers.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/ranked_mutex.h"
#include "tools/options.h"
#include "workloads.h"

namespace {

using psmr::e2e::RunConfig;
using psmr::e2e::WorkloadResult;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = PSMR_BENCH_SANITIZED != 0;
#endif
#else
constexpr bool kSanitized = PSMR_BENCH_SANITIZED != 0;
#endif
constexpr bool kRankChecks = PSMR_LOCK_RANK_CHECKS != 0;
constexpr const char* kBuildType = PSMR_BENCH_BUILD_TYPE;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string json_path;
  std::string trace_path;
  bool smoke = false;
  std::string metrics_from;
  // Child-process side (set by the parent, not by users).
  bool child = false;
  bool child_trace = false;
  int result_fd = -1;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

// ----- child side ----------------------------------------------------------

RunConfig child_config(const Options& o) {
  RunConfig rc;
  rc.seed = o.seed;
  rc.seconds = o.seconds;
  rc.smoke = o.smoke;
  rc.trace = o.child_trace;
  return rc;
}

int run_child(const Options& o) {
  const auto& all = psmr::e2e::workloads();
  const psmr::e2e::Workload* w = psmr::e2e::find_workload(o.workload);
  if (w == nullptr || o.result_fd < 0) return 2;
  psmr::e2e::set_trace_pid(static_cast<int>(w - all.data()) + 1);
  // A hung workload must not hang the benchmark.
  alarm(static_cast<unsigned>(o.seconds * 4 + 90));
  WorkloadResult r = w->run(child_config(o));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");

  FILE* out = fdopen(o.result_fd, "w");
  if (out == nullptr) return 1;
  for (const auto& m : r.metrics) {
    std::fprintf(out, "metric\t%s\t%.17g\t%s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const auto& c : r.checks) {
    std::fprintf(out, "check\t%s\t%d\t%s\n", c.name.c_str(), c.ok ? 1 : 0,
                 c.detail.c_str());
  }
  std::fprintf(out, "count\t%llu\t%llu\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fprintf(out, "hash\t%llu\n",
               static_cast<unsigned long long>(r.input_hash));
  for (const auto& e : r.trace_events) std::fprintf(out, "event\t%s\n", e.c_str());
  return std::fclose(out) == 0 ? 0 : 1;
}

// ----- parent side ---------------------------------------------------------

struct ChildRun {
  bool exited_ok = false;
  WorkloadResult result;
};

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (true) {
    const std::size_t tab = line.find('\t', begin);
    parts.push_back(line.substr(begin, tab - begin));
    if (tab == std::string::npos) return parts;
    begin = tab + 1;
  }
}

ChildRun spawn_child(const Options& o, const std::string& workload,
                     bool trace) {
  ChildRun run;
  int fds[2];
  if (pipe(fds) != 0) return run;
  std::vector<std::string> args = {
      "psmr_bench", "--child", "--workload=" + workload,
      "--seed=" + std::to_string(o.seed), "--seconds=" + number(o.seconds),
      "--result-fd=" + std::to_string(fds[1])};
  if (o.smoke) args.push_back("--smoke");
  if (trace) args.push_back("--child-trace");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return run;
  }
  FILE* in = fdopen(fds[0], "r");
  if (in == nullptr) close(fds[0]);
  std::string line;
  for (int ch; in != nullptr && (ch = std::fgetc(in)) != EOF;) {
    if (ch != '\n') {
      line += static_cast<char>(ch);
      continue;
    }
    const auto f = split_tabs(line);
    line.clear();
    WorkloadResult& r = run.result;
    if (f[0] == "metric" && f.size() == 4) {
      r.metric(f[1], std::strtod(f[2].c_str(), nullptr), f[3]);
    } else if (f[0] == "check" && f.size() == 4) {
      r.check(f[1], f[2] == "1", f[3]);
    } else if (f[0] == "count" && f.size() == 3) {
      r.attempted = std::strtoull(f[1].c_str(), nullptr, 10);
      r.failed = std::strtoull(f[2].c_str(), nullptr, 10);
    } else if (f[0] == "hash" && f.size() == 2) {
      r.input_hash = std::strtoull(f[1].c_str(), nullptr, 10);
    } else if (f[0] == "event" && f.size() == 2) {
      r.trace_events.push_back(f[1]);
    }
  }
  if (in != nullptr) std::fclose(in);
  int status = 0;
  waitpid(pid, &status, 0);
  run.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return run;
}

const psmr::e2e::Metric* find_metric(const WorkloadResult& r,
                                     const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// Metric names listed under `key` ("end_to_end" or "per_layer") in a
// BENCHMARK.json. Its entries are flat objects, so the list ends at the
// first ']' after the key.
std::vector<std::string> names_under(const std::string& text,
                                     const std::string& key) {
  std::vector<std::string> names;
  std::size_t pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return names;
  const std::size_t end = text.find(']', pos);
  while ((pos = text.find("\"name\"", pos)) != std::string::npos && pos < end) {
    const std::size_t open = text.find('"', text.find(':', pos) + 1);
    const std::size_t close = text.find('"', open + 1);
    names.push_back(text.substr(open + 1, close - open - 1));
    pos = close;
  }
  return names;
}

struct Outcome {
  std::string name;
  bool exited_ok = false;
  WorkloadResult result;
  WorkloadResult untraced;  // trace mode only
};

bool correct(const Outcome& o) {
  bool ok = o.exited_ok;
  for (const auto& c : o.result.checks) ok = ok && c.ok;
  return ok;
}

void print_outcome(const Outcome& out, const Options& o) {
  std::printf("== %s  seed=%llu window=%gs%s\n", out.name.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.smoke ? 0.5 : o.seconds, o.trace_path.empty() ? "" : " traced");
  for (const auto& m : out.result.metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& c : out.result.checks) {
    std::printf("  check %-26s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
  std::printf("  attempted %llu failed %llu input_hash %016llx exit %s\n",
              static_cast<unsigned long long>(out.result.attempted),
              static_cast<unsigned long long>(out.result.failed),
              static_cast<unsigned long long>(out.result.input_hash),
              out.exited_ok ? "ok" : "FAILED");
  std::fflush(stdout);
}

std::string metrics_json(const WorkloadResult& r) {
  std::ostringstream s;
  s << "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    s << (i ? "," : "") << "\"" << json_escape(m.name)
      << "\":{\"value\":" << number(m.value) << ",\"unit\":\""
      << json_escape(m.unit) << "\"}";
  }
  s << "}";
  return s.str();
}

bool write_json(const std::string& path, const Options& o,
                const std::vector<Outcome>& outcomes) {
  std::ofstream out(path);
  out << "{\"bench\":\"psmr_bench\",\"build_type\":\"" << kBuildType
      << "\",\"seed\":" << o.seed << ",\"seconds\":" << number(o.seconds)
      << ",\"smoke\":" << (o.smoke ? "true" : "false")
      << ",\"trace\":" << (o.trace_path.empty() ? "false" : "true")
      << ",\"workloads\":{";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& w = outcomes[i];
    out << (i ? "," : "") << "\"" << w.name << "\":{\"correct\":"
        << (correct(w) ? "true" : "false")
        << ",\"attempted\":" << w.result.attempted
        << ",\"failed\":" << w.result.failed << ",\"input_hash\":\""
        << w.result.input_hash << "\",\"checks\":{";
    for (std::size_t c = 0; c < w.result.checks.size(); ++c) {
      const auto& check = w.result.checks[c];
      out << (c ? "," : "") << "\"" << json_escape(check.name)
          << "\":{\"ok\":" << (check.ok ? "true" : "false") << ",\"detail\":\""
          << json_escape(check.detail) << "\"}";
    }
    out << "},\"metrics\":" << metrics_json(w.result);
    if (!o.trace_path.empty()) {
      out << ",\"untraced_metrics\":" << metrics_json(w.untraced);
    }
    out << "}";
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

bool write_trace(const std::string& path, const std::vector<Outcome>& outcomes) {
  const auto& all = psmr::e2e::workloads();
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Outcome& w : outcomes) {
    const psmr::e2e::Workload* wl = psmr::e2e::find_workload(w.name);
    out << (first ? "" : ",") << "{\"name\":\"process_name\",\"ph\":\"M\","
        << "\"pid\":" << (wl - all.data()) + 1 << ",\"args\":{\"name\":\""
        << w.name << "\"}}";
    first = false;
    for (const auto& e : w.result.trace_events) out << ",\n" << e;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

int run_parent(const Options& o) {
  std::vector<std::string> names;
  for (const auto& w : psmr::e2e::workloads()) {
    if (o.workload == "all" || o.workload == w.name) names.push_back(w.name);
  }
  if (names.empty()) {
    std::fprintf(stderr, "unknown --workload=%s\n", o.workload.c_str());
    return 2;
  }
  std::vector<std::string> e2e_names, layer_names;
  if (!o.metrics_from.empty()) {
    std::ifstream in(o.metrics_from);
    std::stringstream text;
    text << in.rdbuf();
    e2e_names = names_under(text.str(), "end_to_end");
    layer_names = names_under(text.str(), "per_layer");
    if (!in || e2e_names.empty() || layer_names.empty()) {
      std::fprintf(stderr, "no metric names in %s\n", o.metrics_from.c_str());
      return 2;
    }
  }
  const bool trace = o.smoke || !o.trace_path.empty();
  std::printf("psmr_bench build=%s seed=%llu seconds=%g%s\n", kBuildType,
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.smoke ? " smoke" : "");

  std::vector<Outcome> outcomes;
  bool all_ok = true;
  for (const std::string& name : names) {
    Outcome out;
    out.name = name;
    ChildRun plain = spawn_child(o, name, false);
    out.exited_ok = plain.exited_ok;
    if (trace) {
      ChildRun traced = spawn_child(o, name, true);
      out.exited_ok = out.exited_ok && traced.exited_ok;
      out.untraced = std::move(plain.result);
      out.result = std::move(traced.result);
      // CPU per operation the tracing adds, against the untraced run of the
      // same seed. (Throughput would not do: kv-zipf-3r traces only its
      // reference phase, and takes throughput from another phase.)
      const auto* t = find_metric(out.result, "cpu_us_per_op");
      const auto* u = find_metric(out.untraced, "cpu_us_per_op");
      out.result.metric("trace.overhead_frac",
                        t && u && u->value > 0 ? t->value / u->value - 1.0 : 0.0,
                        "frac");
      for (const auto& c : out.untraced.checks) {
        out.result.check("untraced." + c.name, c.ok, c.detail);
      }
      // A layer this workload does not use reports 0.
      for (const auto& m : psmr::e2e::layer_metric_names()) {
        if (!find_metric(out.result, m.name)) out.result.metric(m.name, 0.0, m.unit);
      }
    } else {
      out.result = std::move(plain.result);
    }
    WorkloadResult& r = out.result;
    r.metric("failed_frac",
             r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0,
             "frac");
    if (o.smoke) {
      const psmr::e2e::Workload* w = psmr::e2e::find_workload(name);
      RunConfig rc = child_config(o);
      const std::uint64_t h = w->input_hash(rc);
      const bool repeats = h == w->input_hash(rc);
      rc.seed = o.seed + 1;
      r.check("seed_determinism",
              repeats && h != w->input_hash(rc) && h == r.input_hash &&
                  h == out.untraced.input_hash);
      std::string missing;
      for (const auto& m : e2e_names) {
        if (!find_metric(out.untraced, m)) missing += " " + m;
      }
      for (const auto& m : layer_names) {
        if (!find_metric(r, m)) missing += " " + m;
      }
      r.check("benchmark_metrics_present", missing.empty(), missing);
    }
    print_outcome(out, o);
    all_ok = all_ok && correct(out);
    outcomes.push_back(std::move(out));
  }
  if (!o.json_path.empty() && !write_json(o.json_path, o, outcomes)) {
    std::fprintf(stderr, "cannot write %s\n", o.json_path.c_str());
    all_ok = false;
  }
  if (!o.trace_path.empty() && !write_trace(o.trace_path, outcomes)) {
    std::fprintf(stderr, "cannot write %s\n", o.trace_path.c_str());
    all_ok = false;
  }
  std::printf("psmr_bench: %s\n", all_ok ? "all checks passed" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  psmr::tools::FlagSet flags;
  flags.add_string("--workload", &o.workload);
  flags.add_uint64("--seed", &o.seed);
  flags.add_double("--seconds", &o.seconds);
  flags.add_string("--json", &o.json_path);
  flags.add_string("--trace", &o.trace_path);
  flags.add_flag("--smoke", &o.smoke);
  flags.add_string("--metrics-from", &o.metrics_from);
  flags.add_flag("--child", &o.child);
  flags.add_flag("--child-trace", &o.child_trace);
  flags.add_int("--result-fd", &o.result_fd);
  if (!flags.parse(argc, argv)) return 2;
  if (o.seconds <= 0 || (o.smoke && o.metrics_from.empty() && !o.child)) {
    std::fprintf(stderr, "need --seconds > 0 (and --metrics-from with --smoke)\n");
    return 2;
  }
  if (kRankChecks || kSanitized) {
    std::fprintf(stderr,
                 "psmr_bench: refusing to measure a checked build "
                 "(build type %s, lock-rank checks %s, sanitizers %s); "
                 "build bench/e2e with -DCMAKE_BUILD_TYPE=Release\n",
                 kBuildType, kRankChecks ? "on" : "off",
                 kSanitized ? "on" : "off");
    return 2;
  }
  return o.child ? run_child(o) : run_parent(o);
}
