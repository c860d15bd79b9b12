// The shared runner and flags of the figure-reproduction harnesses.
//
// A figure is a table of points. Each figure harness declares a Figure: its
// panels (the paper's (a), (b), (c)), its series, the x values it sweeps in
// each mode, and the Point measured at each (series, x). run_figure() does
// the rest: measure() runs each point on real threads (run_ds_benchmark or
// run_smr_benchmark) or on the calibrated DES model of the paper's 64-core
// replicas (sim::simulate_cos), run_table() prints one table per panel and
// mode and records every point with record_row(), and finish() writes the
// JSON and runs the --compare gate. The ablations that time what the
// drivers do not (ablation_batch, ablation_early) keep their own loops but
// begin with start() and end with finish() like every figure.
//
// Flags, the same in every harness (micro_cos takes google-benchmark's):
//   --mode=real|sim|both   real threads on this host, the simulator, or
//                          both (default). A harness without a simulator
//                          exits 2 on --mode=sim and reads both as real.
//   --quick                trim sweeps for a fast smoke run
//   --json=<path>          write the recorded rows as JSON: an object mapping
//                          the figure name to an array of
//                          {figure,mode,series,x,y[,extra]} rows — the
//                          format of the committed BENCH_*.json baselines
//   --compare=<path>       gate the run's "speedup/" rows against a
//                          committed baseline (see finish()) and exit 1 on
//                          a regression. A baseline that cannot be read, or
//                          that holds no "speedup/" row for this figure,
//                          exits 2 before anything is measured.
// An unknown flag or a bad value exits 2.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "sim/cos_models.h"
#include "tools/options.h"
#include "workload/ds_driver.h"
#include "workload/smr_driver.h"

namespace psmr::bench {

struct Options {
  bool run_real = true;
  bool run_sim = true;
  bool quick = false;
  std::string json_path;
  std::string compare_path;
};

inline void print_header(const char* figure, const char* description,
                         const char* mode) {
  std::printf("\n=== %s (%s) — %s ===\n", figure, mode, description);
}

// One structured data point, as record_row() stores it for json_flush()
// and the --compare gate.
struct Row {
  std::string figure;
  std::string mode;
  std::string series;
  double x = 0.0;
  double y = 0.0;
  bool has_extra = false;
  double extra = 0.0;
};

inline std::vector<Row>& row_buffer() {
  static std::vector<Row> buffer;
  return buffer;
}

inline void record_row(const char* figure, const char* mode,
                       const char* series, double x, double y) {
  row_buffer().push_back(Row{figure, mode, series, x, y, false, 0.0});
}

inline void record_row(const char* figure, const char* mode,
                       const char* series, double x, double y, double extra) {
  row_buffer().push_back(Row{figure, mode, series, x, y, true, extra});
}

// ---------------------------------------------------------------------------
// JSON output (--json=<path>).
// ---------------------------------------------------------------------------

inline void json_escape_to(std::string* out, const std::string& s) {
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out->push_back('\\');
    out->push_back(ch);
  }
}

// Writes every recorded row, grouped by figure:
//   { "<figure>": [ {"figure":..,"mode":..,"series":..,"x":..,"y":..}, .. ] }
// plus a top-level "metrics" key holding the process-wide
// MetricsRegistry::snapshot() (per-stage breakdowns: COS insert/get/block
// counters, scheduler batch stats, transport traffic). Baseline comparison
// ignores it — the gate only reads "speedup/" rows and the JsonReader
// skips unknown keys — so committed baselines stay compatible.
// Returns false (with a message on stderr) if the file cannot be written.
inline bool json_flush(const Options& options) {
  if (options.json_path.empty()) return true;
  std::FILE* f = std::fopen(options.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
    return false;
  }
  // Figures in first-appearance order.
  std::vector<std::string> figures;
  for (const Row& row : row_buffer()) {
    bool known = false;
    for (const std::string& fig : figures) known = known || fig == row.figure;
    if (!known) figures.push_back(row.figure);
  }
  std::string out = "{\n";
  for (std::size_t fi = 0; fi < figures.size(); ++fi) {
    out += "  \"";
    json_escape_to(&out, figures[fi]);
    out += "\": [\n";
    bool first = true;
    for (const Row& row : row_buffer()) {
      if (row.figure != figures[fi]) continue;
      if (!first) out += ",\n";
      first = false;
      char buf[384];
      if (row.has_extra) {
        std::snprintf(buf, sizeof(buf),
                      "    {\"figure\": \"%s\", \"mode\": \"%s\", \"series\": "
                      "\"%s\", \"x\": %g, \"y\": %.4f, \"extra\": %.4f}",
                      row.figure.c_str(), row.mode.c_str(), row.series.c_str(),
                      row.x, row.y, row.extra);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "    {\"figure\": \"%s\", \"mode\": \"%s\", \"series\": "
                      "\"%s\", \"x\": %g, \"y\": %.4f}",
                      row.figure.c_str(), row.mode.c_str(), row.series.c_str(),
                      row.x, row.y);
      }
      out += buf;
    }
    out += "\n  ]";
    out += fi + 1 < figures.size() ? ",\n" : "\n";
  }
  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  if (!snapshot.empty()) {
    if (!figures.empty()) {
      out.erase(out.size() - 1);  // drop trailing '\n' after last ']'
      out += ",\n";
    }
    out += "  \"metrics\": " + snapshot.to_json() + "\n";
  }
  out += "}\n";
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("wrote %zu rows to %s\n", row_buffer().size(),
              options.json_path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// Baseline comparison (--compare=<path>).
//
// The baseline is JSON in the json_flush format: an object with per-figure
// row arrays. Only rows whose series starts with "speedup/" participate in
// the gate: speedups are ratios of two measurements from the same run, so
// they transfer across machines, unlike absolute throughput. A current
// value more than `band` below the baseline is a regression.
// ---------------------------------------------------------------------------

namespace detail {

// Minimal recursive-descent JSON reader — just enough for the baseline
// files; tolerates and skips anything it does not care about.
struct JsonReader {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool consume(char ch) {
    ws();
    if (p < end && *p == ch) {
      ++p;
      return true;
    }
    return false;
  }
  bool parse_string(std::string* out) {
    ws();
    if (p >= end || *p != '"') return false;
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) ++p;
      out->push_back(*p++);
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }
  bool parse_number(double* out) {
    ws();
    char* after = nullptr;
    *out = std::strtod(p, &after);
    if (after == p) return false;
    p = after;
    return true;
  }
  // Skips any value (object, array, string, number, literal).
  bool skip_value() {
    ws();
    if (p >= end) return false;
    if (*p == '"') {
      std::string ignored;
      return parse_string(&ignored);
    }
    if (*p == '{' || *p == '[') {
      const char open = *p;
      const char close = open == '{' ? '}' : ']';
      ++p;
      int depth = 1;
      while (p < end && depth > 0) {
        if (*p == '"') {
          std::string ignored;
          if (!parse_string(&ignored)) return false;
          continue;
        }
        if (*p == open) ++depth;
        if (*p == close) --depth;
        ++p;
      }
      return depth == 0;
    }
    while (p < end && *p != ',' && *p != '}' && *p != ']') ++p;
    return true;
  }
  // Parses a row object {"figure":...,"x":...,...}.
  bool parse_row(Row* row) {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      std::string key;
      if (!parse_string(&key) || !consume(':')) return false;
      if (key == "figure") {
        if (!parse_string(&row->figure)) return false;
      } else if (key == "mode") {
        if (!parse_string(&row->mode)) return false;
      } else if (key == "series") {
        if (!parse_string(&row->series)) return false;
      } else if (key == "x") {
        if (!parse_number(&row->x)) return false;
      } else if (key == "y") {
        if (!parse_number(&row->y)) return false;
      } else if (key == "extra") {
        row->has_extra = true;
        if (!parse_number(&row->extra)) return false;
      } else {
        if (!skip_value()) return false;
      }
    } while (consume(','));
    return consume('}');
  }
  bool parse_row_array(std::vector<Row>* rows) {
    if (!consume('[')) return false;
    if (consume(']')) return true;
    do {
      Row row;
      if (!parse_row(&row)) return false;
      rows->push_back(std::move(row));
    } while (consume(','));
    return consume(']');
  }
};

// Extracts the row array under the "<figure>" key of the baseline's
// top-level object; leaves `rows` empty if the figure is absent.
inline bool load_baseline_rows(const std::string& text, const char* figure,
                               std::vector<Row>* rows) {
  JsonReader r{text.data(), text.data() + text.size()};
  if (!r.consume('{')) return false;
  if (r.consume('}')) return true;
  do {
    std::string key;
    if (!r.parse_string(&key) || !r.consume(':')) return false;
    if (key == figure) return r.parse_row_array(rows);
    if (!r.skip_value()) return false;
  } while (r.consume(','));
  return true;
}

inline bool read_file(const std::string& path, std::string* text) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char chunk[4096];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text->append(chunk, got);
  }
  std::fclose(f);
  return true;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Start and finish: the same two steps in every harness.
// ---------------------------------------------------------------------------

// A harness run: its flags and, with --compare, the baseline's gated
// ("speedup/") rows for its figure.
struct Harness {
  Options options;
  std::vector<Row> gated;
};

// Parses the flags (built on the shared tools::FlagSet registry, so the
// harnesses reject unknown flags exactly like psmr_node does) and loads the
// --compare baseline. Exits 2 on a bad flag, on --mode=sim when `has_sim`
// is false, and on a baseline that cannot be read or gates nothing for
// `figure` — all before the harness measures anything.
inline Harness start(int argc, char** argv, const char* figure,
                     bool has_sim) {
  Harness harness;
  Options& options = harness.options;
  options.run_sim = has_sim;
  tools::FlagSet flags;
  flags.add_value("--mode", [&options, figure, has_sim](const char* v) {
    const std::string_view mode = v;
    if (mode != "real" && mode != "sim" && mode != "both") return false;
    if (mode == "sim" && !has_sim) {
      std::fprintf(stderr, "%s has no simulator mode\n", figure);
      return false;
    }
    options.run_real = mode != "sim";
    options.run_sim = has_sim && mode != "real";
    return true;
  });
  flags.add_flag("--quick", &options.quick);
  flags.add_string("--json", &options.json_path);
  flags.add_string("--compare", &options.compare_path);
  if (!flags.parse(argc, argv)) std::exit(2);
  if (options.compare_path.empty()) return harness;

  const char* path = options.compare_path.c_str();
  std::string text;
  std::vector<Row> baseline;
  if (!detail::read_file(options.compare_path, &text)) {
    std::fprintf(stderr, "cannot read baseline %s\n", path);
    std::exit(2);
  }
  if (!detail::load_baseline_rows(text, figure, &baseline)) {
    std::fprintf(stderr, "malformed baseline %s\n", path);
    std::exit(2);
  }
  for (Row& row : baseline) {
    if (row.series.rfind("speedup/", 0) == 0) {
      harness.gated.push_back(std::move(row));
    }
  }
  if (harness.gated.empty()) {
    std::fprintf(stderr, "baseline %s holds no gated (speedup/) row for %s\n",
                 path, figure);
    std::exit(2);
  }
  return harness;
}

// Writes --json, then with --compare checks every gated baseline row
// against the run: a current speedup below (1 - band) x baseline is a
// regression, and so is a baseline point the run did not record (a silently
// dropped configuration must not pass the gate). Returns the exit code: 0,
// or 1 if the JSON cannot be written or the gate fails.
inline int finish(const Harness& harness, double band = 0.20) {
  if (!json_flush(harness.options)) return 1;
  if (harness.gated.empty()) return 0;
  int regressions = 0;
  std::printf("\n--- baseline comparison (%s, band ±%.0f%%) ---\n",
              harness.options.compare_path.c_str(), band * 100.0);
  for (const Row& base : harness.gated) {
    const Row* current = nullptr;
    for (const Row& row : row_buffer()) {
      if (row.figure == base.figure && row.mode == base.mode &&
          row.series == base.series && row.x == base.x) {
        current = &row;
        break;
      }
    }
    if (current == nullptr) {
      std::printf("MISSING  %s/%s x=%g (baseline %.3f)\n", base.mode.c_str(),
                  base.series.c_str(), base.x, base.y);
      ++regressions;
      continue;
    }
    const bool regressed = current->y < base.y * (1.0 - band);
    std::printf("%s %s/%s x=%g: current %.3f vs baseline %.3f\n",
                regressed ? "REGRESS " : "ok      ", base.mode.c_str(),
                base.series.c_str(), base.x, current->y, base.y);
    if (regressed) ++regressions;
  }
  if (regressions == 0) {
    std::printf("gate passed: %zu series within band\n", harness.gated.size());
  } else {
    std::printf("gate FAILED: %d of %zu series regressed\n", regressions,
                harness.gated.size());
  }
  return regressions == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The figure runner.
// ---------------------------------------------------------------------------

enum class Mode { kReal, kSim };

// The standalone COS harness of the paper's §7.3, or a full 3-replica
// deployment with ordering and closed-loop clients (§7.4).
enum class Driver { kStandalone, kSmr };

// The fields a figure sweeps; one Point is one measurement.
struct Point {
  CosKind kind = CosKind::kLockFree;
  bool sequential = false;  // SMR: the sequential baseline (no COS, so
                            // kind and workers go unused)
  ExecCost cost = ExecCost::kLight;
  int workers = 4;
  double write_pct = 0.0;
  int clients = 0;  // SMR: closed-loop clients; 0 for the mode's default
  std::size_t capacity = kPaperGraphSize;
};

struct Result {
  double kops = 0.0;
  double population = 0.0;  // mean COS occupancy
  double mean_ms = 0.0;     // SMR only
  double p95_ms = 0.0;      // SMR only
};

// Real-mode warm-up and measurement windows of a --quick and a full run.
struct Windows {
  std::uint64_t quick_warmup_ms;
  std::uint64_t quick_measure_ms;
  std::uint64_t warmup_ms;
  std::uint64_t measure_ms;
};

// SMR load. On real threads, 8 closed-loop clients with 8 requests in
// flight each saturate the deployment; a figure that sweeps clients
// itself (fig6's latency curve) keeps 4 in flight per client. The
// simulator drives the paper's 200 clients, one request each.
constexpr int kRealClients = 8;
constexpr int kRealPipeline = 8;
constexpr int kRealSweptPipeline = 4;
constexpr int kSimClients = 200;
// Virtual measurement window of a --quick simulator run.
constexpr sim::VirtualNs kSimQuickMeasureNs = 50'000'000;

// Runs one point with the driver of `driver` and `mode`.
inline Result measure(Driver driver, Mode mode, const Point& p,
                      const Windows& windows, bool quick) {
  if (mode == Mode::kSim) {
    sim::SimConfig config;
    config.smr_mode = driver == Driver::kSmr;
    config.sequential = p.sequential;
    config.kind = p.kind;
    config.cost = p.cost;
    config.workers = p.workers;
    config.write_pct = p.write_pct;
    config.graph_size = p.capacity;
    if (config.smr_mode) {
      config.clients = p.clients > 0 ? p.clients : kSimClients;
    }
    if (quick) config.measure_ns = kSimQuickMeasureNs;
    const sim::SimResult r = sim::simulate_cos(config);
    return {r.throughput_kops, r.mean_population, r.mean_latency_ms,
            r.p95_latency_ms};
  }
  const std::uint64_t warmup_ms = quick ? windows.quick_warmup_ms
                                        : windows.warmup_ms;
  const std::uint64_t measure_ms = quick ? windows.quick_measure_ms
                                         : windows.measure_ms;
  if (driver == Driver::kStandalone) {
    DsDriverConfig config;
    config.cos.kind = p.kind;
    config.cos.capacity = p.capacity;
    config.cost = p.cost;
    config.write_pct = p.write_pct;
    config.workers = p.workers;
    config.warmup_ms = warmup_ms;
    config.measure_ms = measure_ms;
    const DsDriverResult r = run_ds_benchmark(config);
    return {r.throughput_kops, r.mean_population, 0.0, 0.0};
  }
  SmrDriverConfig config;
  config.policy = p.sequential ? SchedulerPolicy::kSequential
                               : SchedulerPolicy::kCosDag;
  config.cos.kind = p.kind;
  config.cos.capacity = p.capacity;
  config.workers = p.workers;
  config.cost = p.cost;
  config.write_pct = p.write_pct;
  config.clients = p.clients > 0 ? p.clients : kRealClients;
  config.pipeline = p.clients > 0 ? kRealSweptPipeline : kRealPipeline;
  config.warmup_ms = warmup_ms;
  config.measure_ms = measure_ms;
  const SmrDriverResult r = run_smr_benchmark(config);
  return {r.throughput_kops, 0.0, r.mean_latency_ms, r.p95_latency_ms};
}

// What a row records of a point's result.
enum class Yield {
  kThroughput,            // x = swept value, y = kops/sec
  kThroughputPopulation,  // as kThroughput, extra = mean COS population
  kLatency,               // x = kops/sec, y = mean latency ms, extra = p95 ms
};

// One table of a figure: `label` heads it, `suffix` ends its row series.
struct Panel {
  std::string label;
  std::string suffix;
};

struct Sweep {
  std::vector<double> quick;
  std::vector<double> full;
};

struct Figure {
  const char* name;         // the rows' figure and the JSON key
  const char* title;        // printed once, before the first table
  const char* description;  // every table's header
  Driver driver;
  Yield yield;
  Windows windows;          // real mode
  const char* x_label;
  std::vector<Panel> panels;
  std::vector<std::string> series;
  Sweep real_x;
  Sweep sim_x;              // empty: the figure has no simulator mode
  // The point at (mode, panel, series index, x); nullopt leaves the cell
  // empty.
  std::function<std::optional<Point>(Mode, std::size_t, std::size_t, double)>
      point;
  // Run each series' whole sweep before the next series (fig6), instead of
  // every series at one x before the next x. Real-mode results depend on
  // run order (every deployment after the first builds on a recycled
  // heap), so each figure keeps the order its numbers were taken in.
  bool series_major = false;
  // Optional: called before a table's first point, with --quick.
  std::function<void(Mode, std::size_t panel, bool quick)> before_table = {};
  // Optional: called after a table with a copy of the rows it recorded.
  std::function<void(Mode, std::size_t panel, const std::vector<Row>&)>
      after_table = {};
};

// Runs one panel of `figure` in `mode` over `xs`, records every point and
// prints the table: one line per x, one column per series.
inline void run_table(const Figure& figure, Mode mode, std::size_t panel,
                      const std::vector<double>& xs, bool quick) {
  const bool real = mode == Mode::kReal;
  const Panel& p = figure.panels[panel];
  print_header(figure.name, figure.description,
               ((real ? "real, " : "sim 64-core, ") + p.label).c_str());
  if (figure.before_table) figure.before_table(mode, panel, quick);
  const std::size_t first_row = row_buffer().size();
  const std::size_t n = figure.series.size();
  std::vector<std::string> cells(xs.size() * n, "-");
  const auto run_cell = [&](std::size_t i, std::size_t s) {
    const std::optional<Point> point = figure.point(mode, panel, s, xs[i]);
    if (!point) return;
    const Result r = measure(figure.driver, mode, *point, figure.windows,
                             quick);
    const std::string series = figure.series[s] + p.suffix;
    const char* mode_name = real ? "real" : "sim";
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%.1f", r.kops);
    switch (figure.yield) {
      case Yield::kThroughput:
        record_row(figure.name, mode_name, series.c_str(), xs[i], r.kops);
        break;
      case Yield::kThroughputPopulation:
        record_row(figure.name, mode_name, series.c_str(), xs[i], r.kops,
                   r.population);
        break;
      case Yield::kLatency:
        record_row(figure.name, mode_name, series.c_str(), r.kops, r.mean_ms,
                   r.p95_ms);
        std::snprintf(cell, sizeof(cell), "%.1f @ %.2f ms", r.kops,
                      r.mean_ms);
        break;
    }
    cells[i * n + s] = cell;
  };
  if (figure.series_major) {
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < xs.size(); ++i) run_cell(i, s);
    }
  } else {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t s = 0; s < n; ++s) run_cell(i, s);
    }
  }
  int width = 16;
  for (const std::string& s : figure.series) {
    width = std::max(width, static_cast<int>(s.size()) + 2);
  }
  std::printf("%10s", figure.x_label);
  for (const std::string& s : figure.series) {
    std::printf(" %*s", width, s.c_str());
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("\n%10g", xs[i]);
    for (std::size_t s = 0; s < n; ++s) {
      std::printf(" %*s", width, cells[i * n + s].c_str());
    }
  }
  std::printf("\n");
  if (figure.after_table) {
    const auto first =
        row_buffer().begin() + static_cast<std::ptrdiff_t>(first_row);
    figure.after_table(mode, panel,
                       std::vector<Row>(first, row_buffer().end()));
  }
}

// A figure harness's whole main: start(), every panel in real mode and
// then in the simulator (as the flags ask), finish().
inline int run_figure(const Figure& figure, int argc, char** argv) {
  const Harness harness =
      start(argc, argv, figure.name, !figure.sim_x.full.empty());
  std::printf("%s\n", figure.title);
  for (const Mode mode : {Mode::kReal, Mode::kSim}) {
    const bool real = mode == Mode::kReal;
    if (!(real ? harness.options.run_real : harness.options.run_sim)) continue;
    const Sweep& sweep = real ? figure.real_x : figure.sim_x;
    for (std::size_t panel = 0; panel < figure.panels.size(); ++panel) {
      run_table(figure, mode, panel,
                harness.options.quick ? sweep.quick : sweep.full,
                harness.options.quick);
    }
  }
  return finish(harness);
}

// ---------------------------------------------------------------------------
// What the paper's figures share.
// ---------------------------------------------------------------------------

// The paper's three COS algorithms and three execution costs, in its order.
inline constexpr CosKind kKinds[] = {CosKind::kCoarseGrained,
                                     CosKind::kFineGrained,
                                     CosKind::kLockFree};
inline constexpr ExecCost kCosts[] = {ExecCost::kLight, ExecCost::kModerate,
                                      ExecCost::kHeavy};

// One series per COS algorithm, named as cos_kind_name() names it.
inline std::vector<std::string> kind_series(const std::string& prefix = "") {
  std::vector<std::string> series;
  for (CosKind kind : kKinds) series.push_back(prefix + cos_kind_name(kind));
  return series;
}

// One panel per execution cost, its rows suffixed "/<cost>".
inline std::vector<Panel> cost_panels() {
  std::vector<Panel> panels;
  for (ExecCost cost : kCosts) {
    panels.push_back({exec_cost_name(cost),
                      std::string("/") + exec_cost_name(cost)});
  }
  return panels;
}

// The paper's worker counts (Figs. 2 and 4) and write percentages
// (Figs. 3 and 5).
inline const Sweep kPaperWorkers = {
    {1, 4, 16, 64}, {1, 2, 4, 6, 8, 10, 12, 16, 24, 32, 40, 48, 56, 64}};
inline const Sweep kWritePcts = {{0, 10, 100},
                                 {0, 1, 5, 10, 15, 20, 25, 50, 100}};

}  // namespace psmr::bench
