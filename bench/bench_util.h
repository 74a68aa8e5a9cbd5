// Shared helpers for the experiment benches.
//
// Every bench binary accepts:
//   --quick            scaled-down run (fewer steps, smaller system) for CI
//   --seed=N           RNG seed (default 1)
//   --max-streams=N    override the ramp target
//   --csv              also dump rows as CSV after the table
//   --json=PATH        write machine-readable results to PATH (benches that
//                      support it; see EXPERIMENTS.md for each schema)
//   --threads=N        run on the sharded parallel engine with N worker
//                      threads (benches that support it; 1 = serial engine)
//   --shards=N         pin the shard count for sharded runs (benches that
//                      support it; default: bench-specific, scale_sweep uses
//                      sim_shards=0 auto-tune when --threads > 1)
//   --profile-prefix=P enable the self-profiler and write one
//                      <P><workload>.profile.json per measured system
//                      (benches that support it; see EXPERIMENTS.md E18)
//   --profile-overhead-max=F  fail (exit 1) if the profiled rerun of the
//                      gating workload is more than F (fraction, e.g. 0.05)
//                      slower than the unprofiled run (sim_microbench)
//   --recorder-overhead-max=F  same gate for the flight-recorder rerun
//                      (tracing + recorder ring + checkpoints); also fails if
//                      the recorded rerun allocates per event in a
//                      -DTIGER_COUNT_ALLOCS build (sim_microbench)

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/text_file.h"

namespace tiger {

struct BenchArgs {
  bool quick = false;
  bool csv = false;
  uint64_t seed = 1;
  int max_streams = -1;  // -1: bench default.
  int threads = 1;        // > 1: sharded engine with this many workers.
  int shards = -1;        // -1: bench default; 0: host auto-tune; >= 1: pinned.
  std::string json_path;  // Empty: bench-specific default (may be "no JSON").
  std::string profile_prefix;       // Non-empty: profile + write artifacts.
  double profile_overhead_max = 0;  // > 0: gate profiled rerun slowdown.
  double recorder_overhead_max = 0;  // > 0: gate flight-recorder slowdown.

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--quick") == 0) {
        args.quick = true;
      } else if (std::strcmp(a, "--csv") == 0) {
        args.csv = true;
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        args.seed = std::strtoull(a + 7, nullptr, 10);
      } else if (std::strncmp(a, "--max-streams=", 14) == 0) {
        args.max_streams = std::atoi(a + 14);
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = std::atoi(a + 10);
        if (args.threads < 1) {
          std::fprintf(stderr, "--threads must be >= 1\n");
          std::exit(1);
        }
      } else if (std::strncmp(a, "--shards=", 9) == 0) {
        args.shards = std::atoi(a + 9);
        if (args.shards < 0) {
          std::fprintf(stderr, "--shards must be >= 0 (0 = host auto-tune)\n");
          std::exit(1);
        }
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        args.json_path = a + 7;
      } else if (std::strncmp(a, "--profile-prefix=", 17) == 0) {
        args.profile_prefix = a + 17;
      } else if (std::strncmp(a, "--profile-overhead-max=", 23) == 0) {
        args.profile_overhead_max = std::strtod(a + 23, nullptr);
        if (args.profile_overhead_max <= 0) {
          std::fprintf(stderr, "--profile-overhead-max must be > 0 (a fraction)\n");
          std::exit(1);
        }
      } else if (std::strncmp(a, "--recorder-overhead-max=", 24) == 0) {
        args.recorder_overhead_max = std::strtod(a + 24, nullptr);
        if (args.recorder_overhead_max <= 0) {
          std::fprintf(stderr, "--recorder-overhead-max must be > 0 (a fraction)\n");
          std::exit(1);
        }
      } else if (std::strcmp(a, "--help") == 0) {
        std::fprintf(stderr,
                     "usage: %s [--quick] [--csv] [--seed=N] [--max-streams=N] "
                     "[--threads=N] [--shards=N] [--json=PATH] "
                     "[--profile-prefix=P] [--profile-overhead-max=F] "
                     "[--recorder-overhead-max=F]\n",
                     argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag %s (try --help)\n", a);
        std::exit(1);
      }
    }
    return args;
  }
};

// Minimal streaming JSON writer for machine-readable bench output
// (BENCH_*.json files consumed by CI and by humans diffing runs). Values are
// emitted in call order; the writer tracks commas and nesting so call sites
// stay linear. Keys must be plain identifiers (no escaping is performed on
// keys; string *values* are escaped).
class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Sep();
    out_ += '{';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& EndObject() {
    out_ += '}';
    stack_.pop_back();
    return *this;
  }
  JsonWriter& BeginArray() {
    Sep();
    out_ += '[';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& EndArray() {
    out_ += ']';
    stack_.pop_back();
    return *this;
  }
  JsonWriter& Key(const char* k) {
    Sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }
  JsonWriter& String(const std::string& v) {
    Sep();
    out_ += '"';
    for (char c : v) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
    return *this;
  }
  JsonWriter& Int(int64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Uint(uint64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Double(double v) {
    Sep();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }

  // Convenience: Key() + value in one call.
  JsonWriter& Kv(const char* k, const std::string& v) { return Key(k).String(v); }
  JsonWriter& Kv(const char* k, const char* v) { return Key(k).String(std::string(v)); }
  JsonWriter& Kv(const char* k, int64_t v) { return Key(k).Int(v); }
  JsonWriter& Kv(const char* k, uint64_t v) { return Key(k).Uint(v); }
  JsonWriter& Kv(const char* k, int v) { return Key(k).Int(v); }
  JsonWriter& Kv(const char* k, double v) { return Key(k).Double(v); }
  JsonWriter& Kv(const char* k, bool v) { return Key(k).Bool(v); }

  const std::string& Str() const { return out_; }

  // Writes the accumulated document (plus a trailing newline) to `path`.
  // Returns false (with a note on stderr) on I/O failure.
  bool WriteFile(const std::string& path) const {
    if (!WriteTextFile(path, out_ + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  // Emits a comma when this value follows a sibling at the same nesting
  // level; key-value pairs count as one sibling.
  void Sep() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back()) {
        out_ += ',';
      }
      stack_.back() = true;
    }
  }

  std::string out_;
  std::vector<bool> stack_;
  bool pending_value_ = false;
};

inline void PrintHeader(const char* title, const char* paper_artifact) {
  std::printf("============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_artifact);
  std::printf("============================================================\n");
}

}  // namespace tiger

#endif  // BENCH_BENCH_UTIL_H_
