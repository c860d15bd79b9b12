// Shared helpers for the figure-reproduction harnesses.
//
// Every harness prints a human-readable table and records each data point
// with record_row(); --json writes the recorded rows for plotting against
// the paper's figures and for baseline comparison.
//
// Flags (all optional; unknown flags are an error, exit code 2):
//   --mode=real|sim|both   real threads on this host, the calibrated DES
//                          model of the paper's 64-core replicas, or both
//                          (default: both)
//   --quick                trim sweeps for a fast smoke run
//   --json=<path>          write the recorded rows as JSON: an object mapping
//                          the figure name to an array of
//                          {figure,mode,series,x,y[,extra]} rows — the
//                          format of the committed BENCH_*.json baselines
//   --compare=<path>       after the run, compare against a committed
//                          baseline (see run_compare below); harnesses that
//                          support it exit non-zero on regression
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "tools/options.h"

namespace psmr::bench {

struct Options {
  bool run_real = true;
  bool run_sim = true;
  bool quick = false;
  std::string json_path;
  std::string compare_path;
};

// Built on the shared tools::FlagSet registry so the harnesses reject
// unknown flags exactly like psmr_node does (message + exit code 2).
inline Options parse_options(int argc, char** argv) {
  Options options;
  tools::FlagSet flags;
  flags.add_value("--mode", [&options](const char* v) {
    const std::string_view mode = v;
    if (mode != "real" && mode != "sim" && mode != "both") return false;
    options.run_real = mode != "sim";
    options.run_sim = mode != "real";
    return true;
  });
  flags.add_flag("--quick", &options.quick);
  flags.add_string("--json", &options.json_path);
  flags.add_string("--compare", &options.compare_path);
  if (!flags.parse(argc, argv)) std::exit(2);
  return options;
}

inline void print_header(const char* figure, const char* description,
                         const char* mode) {
  std::printf("\n=== %s (%s) — %s ===\n", figure, mode, description);
}

// One structured data point, as record_row() stores it for json_flush()
// and run_compare().
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
// ignores it — run_compare only reads "speedup/" rows and the JsonReader
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
// The baseline is JSON in the json_flush format (an object with per-figure
// row arrays) or a bare row array. Only rows whose series starts with
// "speedup/" participate in the gate: speedups are ratios of two
// measurements from the same run, so they transfer across machines, unlike
// absolute throughput. A current value more than `band` below the baseline
// is a regression.
// ---------------------------------------------------------------------------

namespace detail {

// Minimal recursive-descent JSON reader — just enough for the baseline
// files; tolerates and skips anything it does not care about.
struct JsonReader {
  const char* p;
  const char* end;
  bool ok = true;

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
    if (p >= end || *p != '"') return ok = false;
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) ++p;
      out->push_back(*p++);
    }
    if (p >= end) return ok = false;
    ++p;  // closing quote
    return true;
  }
  bool parse_number(double* out) {
    ws();
    char* after = nullptr;
    *out = std::strtod(p, &after);
    if (after == p) return ok = false;
    p = after;
    return true;
  }
  // Skips any value (object, array, string, number, literal).
  bool skip_value() {
    ws();
    if (p >= end) return ok = false;
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
      return depth == 0 ? true : (ok = false);
    }
    while (p < end && *p != ',' && *p != '}' && *p != ']') ++p;
    return true;
  }
  // Parses a row object {"figure":...,"x":...,...}.
  bool parse_row(Row* row) {
    if (!consume('{')) return ok = false;
    if (consume('}')) return true;
    do {
      std::string key;
      if (!parse_string(&key) || !consume(':')) return ok = false;
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
    return consume('}') ? true : (ok = false);
  }
  bool parse_row_array(std::vector<Row>* rows) {
    if (!consume('[')) return ok = false;
    if (consume(']')) return true;
    do {
      Row row;
      if (!parse_row(&row)) return false;
      rows->push_back(std::move(row));
    } while (consume(','));
    return consume(']') ? true : (ok = false);
  }
};

// Extracts the row array for `figure` from baseline text: either the value
// under the "<figure>" key of a top-level object, or — for a bare top-level
// array — every row whose figure field matches.
inline bool load_baseline_rows(const std::string& text, const char* figure,
                               std::vector<Row>* rows) {
  JsonReader r{text.data(), text.data() + text.size()};
  r.ws();
  if (r.p < r.end && *r.p == '[') {
    std::vector<Row> all;
    if (!r.parse_row_array(&all)) return false;
    for (Row& row : all) {
      if (row.figure == figure || row.figure.empty()) {
        rows->push_back(std::move(row));
      }
    }
    return true;
  }
  if (!r.consume('{')) return false;
  if (r.consume('}')) return true;
  do {
    std::string key;
    if (!r.parse_string(&key) || !r.consume(':')) return false;
    if (key == figure) return r.parse_row_array(rows);
    if (!r.skip_value()) return false;
  } while (r.consume(','));
  return true;  // figure absent: nothing to compare
}

}  // namespace detail

// Compares the current run's "speedup/" rows for `figure` against the
// committed baseline at options.compare_path. Returns the number of
// regressions (current speedup below (1 - band) x baseline); 0 when the
// gate passes, -1 if the baseline cannot be read. Baseline points missing
// from the current run count as regressions (a silently dropped
// configuration must not pass the gate).
inline int run_compare(const char* figure, const Options& options,
                       double band = 0.20) {
  if (options.compare_path.empty()) return 0;
  std::FILE* f = std::fopen(options.compare_path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read baseline %s\n",
                 options.compare_path.c_str());
    return -1;
  }
  std::string text;
  char chunk[4096];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, got);
  }
  std::fclose(f);

  std::vector<Row> baseline;
  if (!detail::load_baseline_rows(text, figure, &baseline)) {
    std::fprintf(stderr, "malformed baseline %s\n",
                 options.compare_path.c_str());
    return -1;
  }

  int regressions = 0;
  int checked = 0;
  std::printf("\n--- baseline comparison (%s, band ±%.0f%%) ---\n",
              options.compare_path.c_str(), band * 100.0);
  for (const Row& base : baseline) {
    if (base.series.rfind("speedup/", 0) != 0) continue;
    const Row* current = nullptr;
    for (const Row& row : row_buffer()) {
      if (row.figure == base.figure && row.mode == base.mode &&
          row.series == base.series && row.x == base.x) {
        current = &row;
        break;
      }
    }
    ++checked;
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
  if (checked == 0) {
    std::printf("no gated (speedup/) series in baseline — nothing checked\n");
  } else if (regressions == 0) {
    std::printf("gate passed: %d series within band\n", checked);
  } else {
    std::printf("gate FAILED: %d of %d series regressed\n", regressions,
                checked);
  }
  return regressions;
}

}  // namespace psmr::bench
