// Shared CLI parsing for the psmr binaries (tools/psmr_node and the bench
// harnesses).
//
// FlagSet is a tiny registry of `--name=value` and bare `--name` flags.
// Binaries register the flags they understand (typed helpers below cover
// the common scalar kinds), then call parse(); any flag that was not
// registered is an error — parse() prints "unknown flag: ..." to stderr
// and returns false, and every caller exits with code 2, the contract the
// multiprocess smoke test and the CI scripts rely on. The numeric helpers
// reject, the same way, a value that is not entirely one number of their
// type ("abc", "4x", "", a sign on an unsigned, out of range).
//
// On top of FlagSet sit two reusable bundles so the scheduler and metrics
// knobs are spelled identically everywhere:
//   SchedulerFlags  --cos, --policy, --graph-size, --workers
//   MetricsFlags    --metrics-dump-ms, --metrics-format
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cos/factory.h"

namespace psmr::tools {

class FlagSet {
 public:
  // Handler for a value flag; returns false to reject the value (parse()
  // then fails with a message naming the flag).
  using ValueHandler = std::function<bool(const char* value)>;

  // `--name=value` flag.
  void add_value(std::string name, ValueHandler handler) {
    flags_.push_back({std::move(name), std::move(handler), nullptr});
  }

  // Bare `--name` flag (no value).
  void add_switch(std::string name, std::function<void()> handler) {
    flags_.push_back({std::move(name), nullptr, std::move(handler)});
  }

  // Typed conveniences -----------------------------------------------------

  void add_string(std::string name, std::string* out) {
    add_value(std::move(name), [out](const char* v) {
      *out = v;
      return true;
    });
  }

  void add_flag(std::string name, bool* out) {
    add_switch(std::move(name), [out] { *out = true; });
  }

  void add_int(std::string name, int* out) { add_number(std::move(name), out); }

  void add_uint64(std::string name, std::uint64_t* out) {
    add_number(std::move(name), out);
  }

  void add_size(std::string name, std::size_t* out) {
    add_number(std::move(name), out);
  }

  void add_double(std::string name, double* out) {
    add_number(std::move(name), out);
  }

  // Parses argv[1..argc). Returns false (after a message on stderr) on an
  // unknown flag, a value flag missing its `=value`, or a handler
  // rejecting its value. Callers exit 2 on failure.
  bool parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (!parse_one(arg)) return false;
    }
    return true;
  }

 private:
  // Accepts `value` only when all of it parses as one T; `*out` is left
  // untouched otherwise.
  template <typename T>
  void add_number(std::string name, T* out) {
    add_value(std::move(name), [out](const char* v) {
      const char* end = v + std::strlen(v);
      T value{};
      const auto [ptr, ec] = std::from_chars(v, end, value);
      if (ec != std::errc() || ptr != end) return false;
      *out = value;
      return true;
    });
  }

  struct Flag {
    std::string name;                    // including the leading "--"
    ValueHandler on_value;               // non-null for --name=value flags
    std::function<void()> on_switch;     // non-null for bare --name flags
  };

  bool parse_one(std::string_view arg) const {
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    for (const Flag& flag : flags_) {
      if (flag.name != name) continue;
      if (flag.on_switch != nullptr) {
        if (eq != std::string_view::npos) {
          std::fprintf(stderr, "flag %s takes no value\n", flag.name.c_str());
          return false;
        }
        flag.on_switch();
        return true;
      }
      if (eq == std::string_view::npos) {
        std::fprintf(stderr, "flag %s requires =<value>\n", flag.name.c_str());
        return false;
      }
      const std::string value(arg.substr(eq + 1));
      if (!flag.on_value(value.c_str())) {
        std::fprintf(stderr, "bad value for %s: %s\n", flag.name.c_str(),
                     value.c_str());
        return false;
      }
      return true;
    }
    std::fprintf(stderr, "unknown flag: %.*s\n", static_cast<int>(arg.size()),
                 arg.data());
    return false;
  }

  std::vector<Flag> flags_;
};

// ---------------------------------------------------------------------------
// Scheduler knobs: COS kind, scheduler policy, graph size, worker count.
// ---------------------------------------------------------------------------

struct SchedulerFlags {
  std::string cos = "lock-free";   // parse_cos_kind spelling
  std::string policy = "cos-dag";  // parse_scheduler_policy spelling
  std::size_t graph_size = kPaperGraphSize;
  int workers = 4;

  void register_with(FlagSet* flags) {
    flags->add_string("--cos", &cos);
    flags->add_string("--policy", &policy);
    flags->add_size("--graph-size", &graph_size);
    flags->add_int("--workers", &workers);
  }

  // Resolves the textual spellings and checks the sizes; prints to stderr
  // and returns false on an unrecognized name or a count below 1.
  bool resolve(CosKind* kind, SchedulerPolicy* out_policy) const {
    if (!parse_cos_kind(cos, kind)) {
      std::fprintf(stderr, "unknown --cos=%s\n", cos.c_str());
      return false;
    }
    if (!parse_scheduler_policy(policy, out_policy)) {
      std::fprintf(stderr, "unknown --policy=%s\n", policy.c_str());
      return false;
    }
    if (workers < 1 || graph_size < 1) {
      std::fprintf(stderr, "--workers and --graph-size must be at least 1\n");
      return false;
    }
    return true;
  }

  // The CosOptions these flags describe (conflict is the service's to set).
  CosOptions cos_options(CosKind kind) const {
    CosOptions options;
    options.kind = kind;
    options.capacity = graph_size;
    return options;
  }
};

// ---------------------------------------------------------------------------
// Metrics knobs: periodic dump interval and exposition format.
// ---------------------------------------------------------------------------

struct MetricsFlags {
  std::uint64_t dump_ms = 0;     // 0 = off
  std::string format = "json";   // or "prom"

  void register_with(FlagSet* flags) {
    flags->add_uint64("--metrics-dump-ms", &dump_ms);
    flags->add_string("--metrics-format", &format);
  }

  bool validate() const {
    if (format != "json" && format != "prom") {
      std::fprintf(stderr, "--metrics-format must be json or prom\n");
      return false;
    }
    return true;
  }

  bool prometheus() const { return format == "prom"; }
};

}  // namespace psmr::tools
