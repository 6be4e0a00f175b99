// Shared helpers for the paper-reproduction bench harness: fixed-width
// table printing and canonical pipeline setups. Every bench prints the
// measured value next to the paper's reported value so the checked-in
// results (the BENCH_*.json convention, docs/BENCHMARKS.md) can be
// regenerated by running the binaries.
#pragma once

#include <sched.h>
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "datagen/presets.h"
#include "train/model.h"

namespace recd::bench {

/// scripts/check.sh --smoke exports RECD_SMOKE=1: every bench shrinks
/// its workload to seconds so bench bit-rot surfaces in tier-1-adjacent
/// tooling instead of at bench time. Smoke results are not meaningful
/// measurements — never check them in.
[[nodiscard]] inline bool SmokeMode() {
  const char* v = std::getenv("RECD_SMOKE");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

/// `full` normally, `tiny` under RECD_SMOKE (see SmokeMode).
template <typename T>
[[nodiscard]] inline T SmokeOr(T full, T tiny) {
  return SmokeMode() ? tiny : full;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void PrintRule() {
  std::printf("%s\n", std::string(76, '-').c_str());
}

inline const char* RmName(datagen::RmKind kind) {
  switch (kind) {
    case datagen::RmKind::kRm1:
      return "RM1";
    case datagen::RmKind::kRm2:
      return "RM2";
    case datagen::RmKind::kRm3:
      return "RM3";
  }
  return "?";
}

/// This host's CPU model: the first /proc/cpuinfo "model name", else the
/// uname machine (e.g. "aarch64").
[[nodiscard]] inline std::string HostCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(": ");
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  utsname u{};
  return uname(&u) == 0 ? u.machine : "?";
}

/// Collects metric rows and writes the repo's `BENCH_*.json` convention
/// (docs/BENCHMARKS.md). Host cpu, cores and date are read in-process;
/// RECD_BENCH_COMMIT / RECD_BENCH_BUILD_TYPE may pin the rest.
class JsonReport {
 public:
  explicit JsonReport(std::string target) : target_(std::move(target)) {}

  /// Adds one metric row; omit `paper` for metrics the paper has no
  /// value for (e.g. host-dependent scaling numbers).
  void Add(const std::string& key, double measured,
           std::optional<double> paper, const std::string& unit) {
    metrics_.push_back({key, measured, paper, unit});
  }

  /// Starts a section: prints its title and setup and records the setup
  /// in the `setup` block. Later Row keys are recorded as `<name>.<key>`.
  void Section(const std::string& name, const std::string& title,
               const std::string& setup) {
    PrintHeader(title);
    std::printf("setup: %s\n%-46s %14s %12s\n", setup.c_str(), "",
                "measured", "paper");
    PrintRule();
    section_ = name;
    setup_json_ += (setup_json_.empty() ? "{ \"" : ", \"") + Escaped(name) +
                   "\": \"" + Escaped(setup) + "\"";
    SetEmbeddedJson("setup", setup_json_ + " }");
  }

  /// Prints one `key  measured  paper` row (`-` where the paper has no
  /// value) and records it under the current section.
  void Row(const std::string& key, double measured, const std::string& unit,
           std::optional<double> paper = std::nullopt) {
    std::printf("%-46s %12.4g%-2s", key.c_str(), measured, unit.c_str());
    if (paper.has_value()) {
      std::printf(" %12.4g%s\n", *paper, unit.c_str());
    } else {
      std::printf(" %12s\n", "-");
    }
    Add(section_ + "." + key, measured, paper, unit);
  }

  /// Adds a numeric field to the `host` context block (e.g. the
  /// PipelineOptions::num_threads the harness ran with). The block
  /// always carries `hardware_threads` — measured in-process — so
  /// parallel-scaling rows are self-explaining: a `~1x` ReaderPool
  /// speedup next to `"hardware_threads": 1` is the host, not a bug.
  void SetHostField(const std::string& key, long value) {
    for (auto& field : host_fields_) {
      if (field.first == key) {
        field.second = value;
        return;
      }
    }
    host_fields_.emplace_back(key, value);
  }

  /// Embeds a pre-rendered JSON value as a top-level block (e.g.
  /// `"obs_metrics": <obs::MetricsSnapshot::ToJson()>`). The value is
  /// spliced in verbatim — the caller guarantees it is valid JSON.
  void SetEmbeddedJson(const std::string& key, std::string json) {
    for (auto& block : embedded_json_) {
      if (block.first == key) {
        block.second = std::move(json);
        return;
      }
    }
    embedded_json_.emplace_back(key, std::move(json));
  }

  /// Writes the report if `--json <path>` is on the command line.
  /// Returns false (with a message) on a missing path or unopenable
  /// file.
  bool WriteIfRequested(int argc, char** argv) const {
    const char* path = nullptr;
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
          return false;
        }
        path = argv[i + 1];
      }
    }
    if (path == nullptr) return true;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path);
      return false;
    }
    const char* build_type = std::getenv("RECD_BENCH_BUILD_TYPE");
    if (build_type == nullptr || *build_type == '\0') build_type = "Release";
    // Commit resolution: the RECD_BENCH_COMMIT override (scripts/bench.sh)
    // wins, then an in-process `git rev-parse` so directly-run binaries
    // still stamp traceable results, then "unknown" outside a checkout.
    const std::string commit = [] {
      const char* v = std::getenv("RECD_BENCH_COMMIT");
      if (v != nullptr && *v != '\0') return Escaped(v);
      return Escaped(GitCommit());
    }();
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"target\": \"%s\",\n", Escaped(target_).c_str());
    std::fprintf(f, "  \"commit\": \"%s\",\n", commit.c_str());
    char date[16];
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%Y-%m-%d", std::gmtime(&now));
    std::fprintf(f, "  \"date\": \"%s\",\n", date);
    cpu_set_t cpus;  // cores = CPUs this process may run on, as `nproc`
    const long cores = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                           ? CPU_COUNT(&cpus)
                           : std::thread::hardware_concurrency();
    std::fprintf(f,
                 "  \"host\": { \"cpu\": \"%s\", \"cores\": %ld, "
                 "\"hardware_threads\": %lu, \"build_type\": \"%s\"",
                 Escaped(HostCpuModel()).c_str(), cores,
                 static_cast<unsigned long>(
                     std::thread::hardware_concurrency()),
                 Escaped(build_type).c_str());
    // Duplicated into the host block so BENCH_*.json results stay
    // traceable across PRs even when tooling reads only this block.
    std::fprintf(f, ", \"commit\": \"%s\"", commit.c_str());
    for (const auto& [key, value] : host_fields_) {
      std::fprintf(f, ", \"%s\": %ld", Escaped(key).c_str(), value);
    }
    std::fprintf(f, " },\n");
    for (const auto& [key, json] : embedded_json_) {
      std::fprintf(f, "  \"%s\": %s,\n", Escaped(key).c_str(),
                   json.c_str());
    }
    std::fprintf(f, "  \"metrics\": {\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::fprintf(f, "    \"%s\": { \"measured\": %.6g",
                   Escaped(m.key).c_str(), m.measured);
      if (m.paper.has_value()) {
        std::fprintf(f, ", \"paper\": %.6g", *m.paper);
      }
      std::fprintf(f, ", \"unit\": \"%s\" }%s\n", Escaped(m.unit).c_str(),
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", path, metrics_.size());
    return true;
  }

 private:
  /// Short git id of the working tree this binary runs in, with a
  /// "-dirty" suffix when uncommitted changes exist (results measured
  /// from a dirty tree are not reproducible from the bare commit);
  /// "unknown" outside a checkout or where popen is unavailable.
  static std::string GitCommit() {
    std::string out;
#if defined(__unix__) || defined(__APPLE__)
    if (std::FILE* p =
            popen("git describe --always --dirty 2>/dev/null", "r")) {
      char buf[64];
      if (std::fgets(buf, sizeof(buf), p) != nullptr) out = buf;
      pclose(p);
    }
#endif
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    return out.empty() ? "unknown" : out;
  }

  /// JSON string escaping for values read from the environment or the
  /// host (CPU model strings can contain anything).
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  struct Metric {
    std::string key;
    double measured = 0;
    std::optional<double> paper;
    std::string unit;
  };
  std::string target_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, long>> host_fields_;
  std::vector<std::pair<std::string, std::string>> embedded_json_;
  std::string section_;
  std::string setup_json_;  // {section: setup}, built by Section
};

/// Benchmark-scale pipeline for one RM. Batch sizes follow the paper
/// divided by 8 (docs/ARCHITECTURE.md §1: shape, not absolute scale).
/// Tables hold 20,000 rows (2,000 under RECD_SMOKE): the executed
/// trainer allocates them, and the presets' 400k-800k rows would take
/// about 8 GB (RM1) and 18 GB (RM2).
struct RmBench {
  datagen::DatasetSpec spec;
  train::ModelConfig model;
  std::size_t baseline_batch = 256;
  std::size_t recd_batch = 256;

  static RmBench Make(datagen::RmKind kind, double scale = 0.2) {
    RmBench b;
    b.spec = datagen::RmDataset(kind, scale);
    // Interleave comfortably wider than the training batch (so baseline
    // batches coalesce little) while keeping the partition-wide S high —
    // at bench scale the two trade off through the sample budget.
    b.spec.concurrent_sessions = 512;
    b.model = train::RmModel(kind, b.spec);
    b.model.emb_hash_size = SmokeOr<std::size_t>(20'000, 2'000);
    switch (kind) {
      case datagen::RmKind::kRm1:
        b.baseline_batch = 256;  // paper: 2048
        b.recd_batch = 768;      // paper: 6144
        break;
      case datagen::RmKind::kRm2:
        b.baseline_batch = 256;  // paper: 2048 (batch not increased)
        b.recd_batch = 256;
        break;
      case datagen::RmKind::kRm3:
        b.baseline_batch = 144;  // paper: 1152
        b.recd_batch = 256;      // paper: 2048
        break;
    }
    return b;
  }

  /// One landed partition of `num_samples`; each Run steps 11 full
  /// batches (1 warm-up + 10 timed: single steps vary by up to ±30% on
  /// a shared 4-core host, so the median needs several) on
  /// `trainer_ranks` rank threads.
  [[nodiscard]] core::PipelineRunner MakeRunner(
      std::size_t num_samples, std::size_t trainer_ranks = 2) const {
    core::PipelineOptions opts;
    opts.num_samples = num_samples;
    opts.samples_per_partition = num_samples;
    opts.max_trainer_batches = SmokeOr<std::size_t>(11, 2);
    opts.trainer_ranks = trainer_ranks;
    return core::PipelineRunner(spec, model, opts);
  }
};

}  // namespace recd::bench
