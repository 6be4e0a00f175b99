// recd_bench: the end-to-end RecD benchmark (see benchmark/README.md).
//
// Drives the system from outside through each layer's public functions:
//
//   training  datagen traffic -> scribe::ScribeCluster -> etl::JoinLogs /
//             ClusterBySession / PartitionByCount -> storage::LandTable ->
//             reader::ReaderPool::NextBatch -> train::DistributedTrainer::Step
//   serving   serve::QueryGenerator trace -> serve::ServerRunner::Run
//             (paced at 4k and 8k req/s, replayed unpaced at 16k)
//
// One process runs one workload. Inputs come from --seed and are generated
// before anything is timed; the timed part of a run lasts about --seconds
// (training runs whole passes over its table until they have). The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also records a Perfetto trace and the library's
// timing series). --out FILE additionally writes every metric and the
// run's provenance to FILE.
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "obs/obs.h"
#include "reader/reader_pool.h"
#include "scribe/scribe.h"
#include "serve/model_zoo.h"
#include "serve/query_gen.h"
#include "serve/scheduler.h"
#include "serve/server_runner.h"
#include "span_log.h"
#include "storage/table.h"
#include "train/distributed.h"
#include "train/reference.h"

namespace recd::bench {
namespace {

using Clock = std::chrono::steady_clock;
using Span = SpanLog::Span;

// ---- Metric catalogue ------------------------------------------------
// The single list of reported metrics; BENCHMARK.json names the same
// ones (run.sh --smoke checks that the two agree). Every workload
// reports every metric: a per-layer metric of a layer the workload
// bypasses reads 0, which is that workload's prediction for it.

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> EndToEndCatalogue() {
  return {
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
}

constexpr const char* kExchanges[] = {"sdd", "emb", "grad", "allreduce"};
constexpr const char* kRateTags[] = {"r4k", "r8k", "r16k"};

std::vector<MetricDef> LayerCatalogue() {
  std::vector<MetricDef> defs = {
      {"ingest.samples_per_s", "1/s"},
      {"scribe.log_us_per_sample", "us/sample"},
      {"scribe.flush_us_per_sample", "us/sample"},
      {"scribe.drain_us_per_sample", "us/sample"},
      {"scribe.bytes_per_sample", "B/sample"},
      {"scribe.compression_ratio", "x"},
      {"etl.join_us_per_sample", "us/sample"},
      {"etl.cluster_us_per_sample", "us/sample"},
      {"etl.samples_per_session", "count"},
      {"storage.land_us_per_sample", "us/sample"},
      {"storage.compression_ratio", "x"},
      {"storage.stored_bytes_per_sample", "B/sample"},
      {"reader.rows_per_s", "rows/s"},
      {"reader.fill_cpu_us_per_row", "us/row"},
      {"reader.convert_cpu_us_per_row", "us/row"},
      {"reader.process_cpu_us_per_row", "us/row"},
      {"reader.bytes_read_per_row", "B/row"},
      {"reader.bytes_sent_per_row", "B/row"},
      {"reader.dedupe_factor", "x"},
      {"train.steps", "count"},
      {"train.warmup_ms_per_step", "ms/step"},
      {"train.input_wait_ms_per_step", "ms/step"},
      {"train.step_ms_per_step", "ms/step"},
      {"train.exchange_dedupe", "x"},
      {"embstore.hit_rate", "frac"},
      {"embstore.cold_fetches_per_step", "rows/step"},
      {"embstore.bytes_from_cold_per_step", "B/step"},
      {"embstore.evictions_per_step", "rows/step"},
      {"embstore.writebacks_per_step", "rows/step"},
      {"serve.slo_miss_frac.r8k", "frac"},
      {"serve.tail_growth.r8k", "x"},
      {"trace.unattributed_share", "frac"},
  };
  for (const std::string x : kExchanges) {
    defs.push_back({"train.exchange_bytes_per_step." + x, "B/step"});
    defs.push_back({"train.exchange_us_per_step." + x, "us/step"});
    defs.push_back({"train.exchange_wait_us_per_step." + x, "us/step"});
  }
  for (const std::string r : kRateTags) {
    defs.push_back({"serve.achieved_rps." + r, "1/s"});
    defs.push_back({"serve.mean_batch_rows." + r, "rows"});
    defs.push_back({"serve.batches." + r, "count"});
    defs.push_back({"serve.dedupe_factor." + r, "x"});
    defs.push_back({"serve.lookups_per_row." + r, "count/row"});
  }
  // Backlog left when the last request was due; paced rates only.
  defs.push_back({"serve.drain_share.r4k", "frac"});
  defs.push_back({"serve.drain_share.r8k", "frac"});
  return defs;
}

// Metrics that depend only on the seed (the r16k serving run is an
// unpaced replay); compare.py requires them to repeat exactly across
// runs of one seed.
constexpr const char* kDeterministic[] = {
    "scribe.bytes_per_sample",         "scribe.compression_ratio",
    "etl.samples_per_session",         "storage.compression_ratio",
    "storage.stored_bytes_per_sample", "reader.bytes_read_per_row",
    "reader.bytes_sent_per_row",       "reader.dedupe_factor",
    "serve.batches.r16k",              "serve.dedupe_factor.r16k",
};

// ---- Run record ------------------------------------------------------

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  /// Records a failed correctness gate; the run's "correct" turns false.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }

  [[nodiscard]] double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

// ---- Helpers -----------------------------------------------------------

/// Exact nearest-rank percentile of raw samples (q in (0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
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
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---- Provenance --------------------------------------------------------

std::string Trimmed(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' ||
                        s.back() == ' ' || s.back() == '\t')) {
    s.pop_back();
  }
  std::size_t start = 0;
  while (start < s.size() && (s[start] == ' ' || s[start] == '\t')) ++start;
  return s.substr(start);
}

std::string CommandOutput(const char* command) {
  std::string out;
  if (std::FILE* p = popen(command, "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  return Trimmed(out);
}

/// FNV-1a over the paths and contents of the sources the benchmark
/// builds from: identifies the code when no git metadata is at hand.
std::string SourceHash() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files = {"CMakeLists.txt"};
  for (const char* dir : {"src", "benchmark"}) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const auto name = it->path().filename();
      if (it->is_directory() && (name == "build" || name == "results")) {
        it.disable_recursion_pending();
      } else if (it->is_regular_file()) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  for (const auto& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    mix(f.generic_string());
    mix(contents.str());
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    for (const char* key : {"model name", "Hardware", "cpu model"}) {
      if (line.rfind(key, 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
          const auto model = Trimmed(line.substr(colon + 1));
          if (!model.empty()) return model;
        }
      }
    }
  }
  utsname u{};
  if (uname(&u) == 0) return std::string(u.machine) + " (no model name)";
  return "no model name";
}

std::vector<std::pair<std::string, std::string>> Provenance(
    std::uint64_t seed) {
  const std::string source = SourceHash();
  // Ask git about this directory only, never a repository above it.
  std::error_code ec;
  const auto here = std::filesystem::current_path(ec);
  if (!ec) setenv("GIT_CEILING_DIRECTORIES", here.parent_path().c_str(), 1);
  std::string commit =
      CommandOutput("git describe --always --dirty 2>/dev/null");
  if (commit.empty()) commit = "source-" + source;

  char date[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm);

#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "C++ " + std::to_string(__cplusplus);
#endif
  return {
      {"commit", commit},
      {"source_hash", source},
      {"date", date},
      {"cpu", CpuModel()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", RECD_BENCH_BUILD_TYPE},
      {"compiler", Trimmed(compiler)},
      {"seed", std::to_string(seed)},
  };
}

// ---- Command line --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string trace_out;  // Perfetto JSON path (trace mode)
  std::string out;        // full run record path
  bool smoke = false;     // tiny sizes: exercises every check in seconds
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return true;
}

// ---- Training workloads -------------------------------------------------

struct TrainWorkload {
  const char* name;
  datagen::RmKind kind;
  std::size_t concurrent_sessions;
  bool tiered;
  /// Percentile reported as latency_tail_ms: the highest that keeps at
  /// least ten timed steps beyond it at this workload's step rate.
  double tail_q;
};

constexpr TrainWorkload kTrainWorkloads[] = {
    {"train_rm1_dedup", datagen::RmKind::kRm1, 16, false, 0.95},
    {"train_rm3_lowdup", datagen::RmKind::kRm3, 512, false, 0.90},
    {"train_rm1_tiered", datagen::RmKind::kRm1, 16, true, 0.90},
};
constexpr const char* kServeWorkload = "serve_zoo_poisson";

bool KnownWorkload(const std::string& name) {
  for (const auto& w : kTrainWorkloads) {
    if (name == w.name) return true;
  }
  return name == kServeWorkload;
}

void Usage() {
  std::fprintf(stderr,
               "usage: recd_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--out FILE] [--smoke]\n"
               "workloads:");
  for (const auto& w : kTrainWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, " %s\n", kServeWorkload);
}

// The landed table: 32 full batches, re-read pass after pass.
constexpr std::size_t kTableSamples = 8'192;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kCheckedSteps = 4;  // losses checked vs the reference
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kScribeShards = 8;
constexpr std::size_t kRowsPerPartition = 4096;
constexpr std::size_t kIngestThreads = 2;
constexpr std::size_t kDrainWorkers = 2;
constexpr float kLr = 0.05f;
constexpr std::uint64_t kModelSeed = 7;
constexpr reader::ReaderOptions kReaderOptions{.use_ikjt = true};

struct Ingested {
  storage::LandResult landed;
  scribe::ScribeCluster::Totals scribe;
  double samples_per_session = 0;
};

/// Logs the traffic through Scribe, joins, clusters and partitions it,
/// and lands it into `store`. Frees each stage's input once it is used.
Ingested Ingest(const datagen::DatasetSpec& spec,
                datagen::TrafficGenerator::Traffic traffic,
                storage::BlobStore& store, SpanLog& log, Report& report) {
  const std::size_t logged = traffic.features.size();
  Ingested out;
  common::ThreadPool pool(kIngestThreads);
  std::optional<scribe::ScribeCluster> scribe_cluster;
  scribe_cluster.emplace(kScribeShards, scribe::ShardKeyPolicy::kSessionId);
  {
    Span s(log, "scribe.log");
    for (const auto& f : traffic.features) scribe_cluster->LogFeature(f);
    for (const auto& e : traffic.events) scribe_cluster->LogEvent(e);
  }
  {
    Span s(log, "bench.free");
    traffic = {};
  }
  {
    Span s(log, "scribe.flush");
    scribe_cluster->Flush(&pool);
  }
  out.scribe = scribe_cluster->totals();
  std::vector<datagen::FeatureLog> features;
  std::vector<datagen::EventLog> events;
  {
    Span s(log, "scribe.drain");
    features = scribe_cluster->DrainFeatures();
    events = scribe_cluster->DrainEvents();
  }
  {
    Span s(log, "bench.free");
    scribe_cluster.reset();
  }
  std::vector<datagen::Sample> samples;
  {
    Span s(log, "etl.join");
    samples = etl::JoinLogs(features, events);
  }
  {
    Span s(log, "bench.free");
    features = {};
    events = {};
  }
  const std::size_t joined = samples.size();
  {
    Span s(log, "etl.cluster");
    etl::ClusterBySession(samples, &pool);
  }
  {
    Span s(log, "bench.check");
    out.samples_per_session = etl::MeanSamplesPerSession(samples);
  }
  std::vector<std::vector<datagen::Sample>> partitions;
  {
    Span s(log, "etl.partition");
    partitions = etl::PartitionByCount(std::move(samples), kRowsPerPartition);
  }
  {
    Span s(log, "storage.land");
    storage::WriterOptions options;
    options.pool = &pool;
    out.landed = storage::LandTable(store, "train", core::MakePipelineSchema(spec),
                                    partitions, options, &pool);
  }
  {
    Span s(log, "bench.free");
    partitions = {};
  }
  report.Check(joined == logged, "joined samples " + std::to_string(joined) +
                                     " != logged " + std::to_string(logged));
  report.Check(out.landed.rows == joined,
               "landed rows " + std::to_string(out.landed.rows) +
                   " != joined samples " + std::to_string(joined));
  return out;
}

struct Drained {
  std::size_t rows = 0;
  double values_before = 0;  // dedup-group values, before and after dedup
  double values_after = 0;
  reader::StageTimes times;
  reader::ReaderIoStats io;
};

/// Reads the whole landed table once through the parallel ReaderPool.
Drained Drain(storage::BlobStore& store, const storage::Table& table,
              reader::DataLoaderConfig loader, SpanLog& log) {
  Drained out;
  Span s(log, "reader.drain");
  loader.num_workers = kDrainWorkers;
  reader::ReaderPool drain(store, table, loader, kReaderOptions);
  while (auto batch = drain.NextBatch()) {
    out.rows += batch->batch_size;
    for (const auto& g : batch->group_stats) {
      out.values_before += static_cast<double>(g.values_before);
      out.values_after += static_cast<double>(g.values_after);
    }
  }
  out.times = drain.times();
  out.io = drain.io();
  return out;
}

/// Sum over ranks of one comm timing series (`comm.exchange_us` or
/// `comm.wait_us`) for one exchange.
double CommUs(const obs::MetricsSnapshot& snapshot, const std::string& series,
              const std::string& exchange) {
  double total = 0;
  for (const auto& e : snapshot.entries) {
    if (e.name != series) continue;
    for (const auto& [key, value] : e.labels) {
      if (key == "exchange" && value == exchange) {
        total += static_cast<double>(e.value);
      }
    }
  }
  return total;
}

void RunTraining(const Args& args, const TrainWorkload& w, SpanLog& log,
                 Report& report) {
  auto spec = datagen::RmDataset(w.kind, 0.1, args.seed);
  spec.concurrent_sessions = w.concurrent_sessions;
  auto dense_model = train::RmModel(w.kind, spec);
  dense_model.emb_hash_size = args.smoke ? 2'000 : 20'000;
  auto model = dense_model;
  if (w.tiered) {
    model.tiering.enabled = true;
    model.tiering.hot_capacity_rows = model.emb_hash_size / 4;
    model.tiering.rows_per_segment = 128;
  }
  const std::size_t num_samples = args.smoke ? 1'024 : kTableSamples;

  datagen::TrafficGenerator::Traffic traffic;
  {
    Span s(log, "datagen.generate");
    traffic = datagen::TrafficGenerator(spec).Generate(num_samples);
  }
  storage::BlobStore store;
  const auto ingested = Ingest(spec, std::move(traffic), store, log, report);
  const auto& landed = ingested.landed;
  const auto loader = core::MakePipelineLoader(dense_model,
                                               core::RecdConfig::Full(kBatch));
  const auto drained = Drain(store, landed.table, loader, log);
  report.Check(drained.rows == landed.rows,
               "reader drained " + std::to_string(drained.rows) +
                   " rows of " + std::to_string(landed.rows));

  // ---- Trainer set-up, repeated: the median is setup_s. -------------
  train::DistributedConfig config;
  config.num_ranks = 2;
  config.recd = true;
  config.lr = kLr;
  config.seed = kModelSeed;
  std::unique_ptr<train::DistributedTrainer> trainer;
  std::vector<double> setup_samples;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    {
      Span s(log, "bench.free");
      trainer.reset();
    }
    Span s(log, "train.setup");
    trainer = std::make_unique<train::DistributedTrainer>(model, config);
    setup_samples.push_back(s.Stop());
  }

  // ---- Training, in whole passes over the landed table: every pass
  // trains the same batch sequence, so passes are comparable units. One
  // reader worker, so the wait for a batch is the reader's own cost. --
  auto train_loader = loader;
  train_loader.num_workers = 1;
  std::vector<double> iteration_ms;  // NextBatch + Step, timed passes only
  std::vector<double> pass_rates;    // samples/s of each timed pass
  std::vector<double> pass_p50_ms;   // median step of each timed pass
  std::vector<reader::PreprocessedBatch> checked_batches;
  std::vector<float> checked_losses;
  std::size_t nonfinite = 0;
  // One pass; returns its step count. Spans are named per phase because
  // the tracer keeps the name pointers.
  const auto train_pass = [&](bool timed) {
    const char* wait_span = timed ? "train.input_wait" : "warmup.input_wait";
    const char* step_span = timed ? "train.step" : "warmup.step";
    std::optional<reader::ReaderPool> pass_reader;
    const auto pass_start = Clock::now();
    std::size_t steps = 0;
    for (;;) {
      const auto t0 = Clock::now();
      std::optional<reader::PreprocessedBatch> batch;
      {
        Span s(log, wait_span);
        if (!pass_reader) {
          pass_reader.emplace(store, landed.table, train_loader,
                              kReaderOptions);
        }
        batch = pass_reader->NextBatch();
      }
      // A final partial batch would be a different step; skip it.
      if (!batch || batch->batch_size != kBatch) break;
      float loss = 0;
      {
        Span s(log, step_span);
        loss = trainer->Step(*batch);
      }
      if (!std::isfinite(loss)) ++nonfinite;
      ++steps;
      if (timed) {
        iteration_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
      } else if (checked_batches.size() < kCheckedSteps) {
        checked_batches.push_back(std::move(*batch));
        checked_losses.push_back(loss);
      }
    }
    if (steps == 0) throw std::runtime_error("table holds no full batch");
    if (timed) {
      pass_rates.push_back(PerUnit(static_cast<double>(steps * kBatch),
                                   Seconds(pass_start, Clock::now())));
      pass_p50_ms.push_back(Median(std::vector<double>(
          iteration_ms.end() - static_cast<std::ptrdiff_t>(steps),
          iteration_ms.end())));
    }
    return steps;
  };

  // Warm-up: one pass, so the embedding tier and the allocator reach
  // their steady state before anything is timed.
  double warmup_s = 0;
  std::size_t warmup_steps = 0;
  {
    Span s(log, "train.warmup");
    warmup_steps = train_pass(false);
    warmup_s = s.Stop();
  }
  const auto counters_before = trainer->TotalCounters();
  const auto comm_before = trainer->comm_metrics().Snapshot();
  trainer->ResetTierStats();

  {
    Span loop(log, "train.loop");
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    while (Clock::now() < deadline) train_pass(true);
  }
  const double steps = static_cast<double>(iteration_ms.size());
  report.attempted = warmup_steps + iteration_ms.size();
  report.failed = nonfinite;
  report.Check(nonfinite == 0, "a training loss was not finite");
  // The workload's peak, before the reference model below is built.
  report.Set("peak_rss_mb", PeakRssMb());

  auto counters = trainer->TotalCounters();
  const auto comm_after = trainer->comm_metrics().Snapshot();
  const auto tier = trainer->TierStatsTotal();
  {
    Span s(log, "bench.free");
    trainer.reset();
  }

  // ---- Correctness: the first losses equal a fresh dense single-rank
  // reference trained on the same batches, bit for bit. ----------------
  {
    Span s(log, "bench.reference");
    train::ReferenceDlrm reference(dense_model, kModelSeed);
    for (std::size_t i = 0; i < checked_batches.size(); ++i) {
      const float expected = reference.TrainStep(checked_batches[i], kLr);
      report.Check(std::bit_cast<std::uint32_t>(expected) ==
                       std::bit_cast<std::uint32_t>(checked_losses[i]),
                   "step " + std::to_string(i) + " loss " +
                       std::to_string(checked_losses[i]) +
                       " != reference " + std::to_string(expected));
    }
  }

  // ---- Metrics. ------------------------------------------------------
  // Medians over passes: a burst of interference elsewhere on the host,
  // or a first pass still filling the embedding tier, moves one pass
  // rather than the result.
  report.Set("throughput_per_s", Median(pass_rates));
  report.Set("latency_p50_ms", Median(pass_p50_ms));
  report.Set("latency_tail_ms", Percentile(iteration_ms, w.tail_q));
  report.Set("setup_s", Median(setup_samples));

  const auto n = static_cast<double>(num_samples);
  const auto span_s = [&log](const char* name) {
    return log.Get(name).total_s;
  };
  double ingest_s = 0;
  for (const char* name : {"scribe.log", "scribe.flush", "scribe.drain",
                           "etl.join", "etl.cluster", "etl.partition",
                           "storage.land"}) {
    ingest_s += span_s(name);
  }
  report.Set("ingest.samples_per_s", PerUnit(n, ingest_s));
  report.Set("scribe.log_us_per_sample", PerUnit(span_s("scribe.log"), n) * 1e6);
  report.Set("scribe.flush_us_per_sample",
             PerUnit(span_s("scribe.flush"), n) * 1e6);
  report.Set("scribe.drain_us_per_sample",
             PerUnit(span_s("scribe.drain"), n) * 1e6);
  report.Set("scribe.bytes_per_sample",
             PerUnit(static_cast<double>(ingested.scribe.compressed_bytes), n));
  report.Set("scribe.compression_ratio", ingested.scribe.compression_ratio());
  report.Set("etl.join_us_per_sample", PerUnit(span_s("etl.join"), n) * 1e6);
  report.Set("etl.cluster_us_per_sample",
             PerUnit(span_s("etl.cluster"), n) * 1e6);
  report.Set("etl.samples_per_session", ingested.samples_per_session);
  report.Set("storage.land_us_per_sample",
             PerUnit(span_s("storage.land"), n) * 1e6);
  report.Set("storage.compression_ratio", landed.compression_ratio());
  report.Set("storage.stored_bytes_per_sample",
             PerUnit(static_cast<double>(landed.stored_bytes),
                     static_cast<double>(landed.rows)));

  const auto rows = static_cast<double>(drained.rows);
  report.Set("reader.rows_per_s", PerUnit(rows, span_s("reader.drain")));
  report.Set("reader.fill_cpu_us_per_row",
             PerUnit(drained.times.fill_s, rows) * 1e6);
  report.Set("reader.convert_cpu_us_per_row",
             PerUnit(drained.times.convert_s, rows) * 1e6);
  report.Set("reader.process_cpu_us_per_row",
             PerUnit(drained.times.process_s, rows) * 1e6);
  report.Set("reader.bytes_read_per_row",
             PerUnit(static_cast<double>(drained.io.bytes_read), rows));
  report.Set("reader.bytes_sent_per_row",
             PerUnit(static_cast<double>(drained.io.bytes_sent), rows));
  report.Set("reader.dedupe_factor",
             PerUnit(drained.values_before, drained.values_after));

  report.Set("train.steps", steps);
  report.Set("train.warmup_ms_per_step",
             warmup_s * 1e3 / static_cast<double>(warmup_steps));
  report.Set("train.input_wait_ms_per_step",
             PerUnit(span_s("train.input_wait"), steps) * 1e3);
  report.Set("train.step_ms_per_step",
             PerUnit(span_s("train.step"), steps) * 1e3);

  // Exchange counters of the timed steps only (warmup subtracted).
  counters.sdd_bytes -= counters_before.sdd_bytes;
  counters.emb_bytes -= counters_before.emb_bytes;
  counters.grad_bytes -= counters_before.grad_bytes;
  counters.allreduce_bytes -= counters_before.allreduce_bytes;
  counters.values_logical -= counters_before.values_logical;
  counters.values_shipped -= counters_before.values_shipped;
  const std::size_t exchange_bytes[] = {counters.sdd_bytes, counters.emb_bytes,
                                        counters.grad_bytes,
                                        counters.allreduce_bytes};
  report.Set("train.exchange_dedupe", counters.exchange_dedupe_factor());
  // comm.exchange_us / comm.wait_us are recorded only with obs enabled
  // (trace mode); they sum over both ranks.
  for (std::size_t x = 0; x < std::size(kExchanges); ++x) {
    const std::string tag = kExchanges[x];
    report.Set("train.exchange_bytes_per_step." + tag,
               PerUnit(static_cast<double>(exchange_bytes[x]), steps));
    for (const auto& [metric, series] :
         {std::pair{"train.exchange_us_per_step.", "comm.exchange_us"},
          std::pair{"train.exchange_wait_us_per_step.", "comm.wait_us"}}) {
      report.Set(metric + tag, PerUnit(CommUs(comm_after, series, tag) -
                                           CommUs(comm_before, series, tag),
                                       steps));
    }
  }

  report.Set("embstore.hit_rate", tier.hit_rate());
  report.Set("embstore.cold_fetches_per_step",
             PerUnit(static_cast<double>(tier.cold_fetches), steps));
  report.Set("embstore.bytes_from_cold_per_step",
             PerUnit(static_cast<double>(tier.bytes_from_cold), steps));
  report.Set("embstore.evictions_per_step",
             PerUnit(static_cast<double>(tier.evictions), steps));
  report.Set("embstore.writebacks_per_step",
             PerUnit(static_cast<double>(tier.writebacks), steps));

  std::printf("training: %zu samples landed in %zu partitions; %zu timed "
              "steps in %zu passes\n  samples/s per pass:",
              landed.rows, landed.table.partitions.size(),
              iteration_ms.size(), pass_rates.size());
  for (const double r : pass_rates) std::printf(" %.0f", r);
  std::printf("\n  median step ms per pass:");
  for (const double m : pass_p50_ms) std::printf(" %.2f", m);
  std::printf("\n  step ms p50 %.2f, p%.0f %.2f (n=%zu); set-up s:",
              Percentile(iteration_ms, 0.5), w.tail_q * 100,
              Percentile(iteration_ms, w.tail_q), iteration_ms.size());
  for (const double s : setup_samples) std::printf(" %.3f", s);
  std::printf("\n");
}

// ---- Serving workload ----------------------------------------------------

constexpr double kServeRates[] = {4'000, 8'000, 16'000};
constexpr const char* kServeSpans[] = {"serve.run.r4k", "serve.run.r8k",
                                       "serve.run.r16k"};
constexpr std::int64_t kSloUs = 10'000;
constexpr std::size_t kServeRequests = 5'000;
constexpr bool kServePaced[] = {true, true, false};

serve::FleetSpec ServeFleet(const datagen::DatasetSpec& dataset) {
  // The three-model zoo of bench_serve_scale: light RM1/RM2-style lanes
  // and a heavier RM3-style lane, one worker each.
  serve::FleetSpec fleet;
  for (const auto kind : {datagen::RmKind::kRm1, datagen::RmKind::kRm2,
                          datagen::RmKind::kRm3}) {
    auto member = serve::ZooVariant(kind, dataset);
    member.config.emb_hash_size = 10'000;
    if (kind == datagen::RmKind::kRm3) {
      member.config.emb_dim = 32;
      member.config.bottom_mlp_hidden = {64};
      member.config.top_mlp_hidden = {128, 64, 32};
    } else {
      member.config.emb_dim = 16;
      member.config.bottom_mlp_hidden = {32};
      member.config.top_mlp_hidden = {64, 32};
    }
    member.batcher.max_batch_requests = 16;
    member.batcher.max_delay_us = 2'000;
    fleet.models.push_back(std::move(member));
  }
  fleet.default_workers = 1;
  return fleet;
}

bool SameScores(const std::vector<serve::ScoredRequest>& a,
                const std::vector<serve::ScoredRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].request_id != b[i].request_id ||
        a[i].scores.size() != b[i].scores.size()) {
      return false;
    }
    if (!a[i].scores.empty() &&
        std::memcmp(a[i].scores.data(), b[i].scores.data(),
                    a[i].scores.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void RunServing(const Args& args, SpanLog& log, Report& report) {
  auto dataset = datagen::RmDataset(datagen::RmKind::kRm2, 0.08, args.seed);
  dataset.concurrent_sessions = 16;
  dataset.mean_session_size = 40;

  serve::TraceSpec spec;
  spec.dataset = dataset;
  spec.query.num_requests = args.smoke ? 100 : kServeRequests;
  spec.query.candidates = 4;
  spec.query.max_candidates = 32;
  spec.query.qps = kServeRates[0];
  spec.query.arrival = serve::ArrivalShape::kSteady;
  spec.query.poisson_arrivals = true;
  spec.query.size = serve::SizeShape::kHeavyTailed;
  spec.query.num_models = 3;
  const auto fleet = ServeFleet(dataset);

  // One runner per rate, each holding the same trace with arrivals
  // compressed to that rate. Serving one request at the three rates
  // takes about 1/4000 + 1/8000 + 1/12000 s, so 2000 requests per
  // second of --seconds set the number of rounds.
  std::vector<serve::Request> trace;
  {
    Span s(log, "datagen.generate");
    trace = serve::QueryGenerator(spec).Generate();
  }
  std::vector<std::pair<std::int64_t, std::size_t>> expected;  // id, K
  for (const auto& r : trace) {
    expected.emplace_back(r.request_id, r.rows.size());
  }
  std::sort(expected.begin(), expected.end());
  const std::size_t offered = trace.size();
  std::vector<std::optional<serve::ServerRunner>> runners(
      std::size(kServeRates));
  {
    Span s(log, "datagen.scale");
    // Highest rate first, so that the 4k runner can take the original.
    for (std::size_t i = std::size(kServeRates); i-- > 0;) {
      auto run_spec = spec;
      run_spec.query.qps = kServeRates[i];
      runners[i].emplace(run_spec, fleet,
                         i == 0 ? std::move(trace)
                                : serve::ScaleTrace(trace, kServeRates[i] /
                                                               kServeRates[0]));
    }
  }
  const std::size_t num_rounds =
      args.smoke ? 2
                 : std::max<std::size_t>(
                       3, static_cast<std::size_t>(std::llround(
                              args.seconds * 2'000 /
                              static_cast<double>(offered))));

  // Per rate, one value per round; each metric is the median over rounds,
  // and the rates interleave so that a slow episode on the host lands on
  // one round of each rather than on one rate.
  std::map<std::string, std::vector<double>> rounds;
  std::vector<serve::ScoredRequest> reference;
  std::vector<double> setup_samples;
  for (std::size_t round = 0; round < num_rounds; ++round) {
    for (std::size_t i = 0; i < std::size(kServeRates); ++i) {
      const std::string tag = kRateTags[i];
      serve::ServeResult result;
      double run_s = 0;
      {
        Span s(log, kServeSpans[i]);
        auto policy = serve::RunPolicy::Recd();
        policy.pace_arrivals = kServePaced[i];
        result = runners[i]->Run(policy);
        run_s = s.Stop();
      }
      // Set-up: the fleet each Run builds before its clock starts.
      setup_samples.push_back(run_s - result.stats.wall_s);

      // Every request scored exactly once (results come sorted by id),
      // one score per candidate, and bitwise the scores of the first run.
      const auto& scored = result.requests;
      bool exact = scored.size() == expected.size();
      for (std::size_t k = 0; exact && k < scored.size(); ++k) {
        exact = scored[k].request_id == expected[k].first &&
                scored[k].scores.size() == expected[k].second;
      }
      report.Check(exact, tag + ": " + std::to_string(scored.size()) +
                              " requests scored of " +
                              std::to_string(offered) +
                              " offered, not each exactly once");
      report.attempted += offered;
      report.failed += offered - std::min(scored.size(), offered);
      if (reference.empty()) {
        reference = scored;
      } else {
        report.Check(SameScores(reference, scored),
                     tag + ": scores differ from the first run");
      }

      std::vector<double> latency_ms;
      std::map<std::size_t, std::vector<double>> lane_ms;
      std::size_t slo_misses = offered - std::min(scored.size(), offered);
      for (const auto& r : scored) {
        latency_ms.push_back(static_cast<double>(r.latency_us) / 1e3);
        lane_ms[r.model_id].push_back(latency_ms.back());
        if (r.latency_us > kSloUs) ++slo_misses;
      }
      const auto& st = result.stats;
      const auto add = [&](const std::string& name, double value) {
        rounds[name + "." + tag].push_back(value);
      };
      for (const auto& [model_id, ms] : lane_ms) {
        add("lane_p99_ms." + fleet.models[model_id].name,
            Percentile(ms, 0.99));
      }
      add("p50_ms", Percentile(latency_ms, 0.5));
      add("p99_ms", Percentile(latency_ms, 0.99));
      add("slo_miss_frac", PerUnit(static_cast<double>(slo_misses),
                                   static_cast<double>(offered)));
      add("serve.achieved_rps", st.achieved_qps);
      add("serve.mean_batch_rows", st.mean_batch_rows);
      add("serve.batches", static_cast<double>(st.batches));
      add("serve.dedupe_factor", st.request_dedupe_factor);
      add("serve.lookups_per_row",
          PerUnit(st.embedding_lookups, static_cast<double>(st.rows)));
      if (kServePaced[i]) {
        const auto last_due_us =
            static_cast<double>(runners[i]->trace().back().arrival_us);
        add("serve.drain_share",
            PerUnit(st.wall_s * 1e6 - last_due_us, last_due_us));
      }

      std::printf("serve round %zu %-4s %s achieved %8.1f req/s; latency "
                  "p50 %.3f p95 %.3f p99 %.3f ms (n=%zu); batches %zu; "
                  "set-up %.3f s\n",
                  round, tag.c_str(), kServePaced[i] ? "paced " : "replay",
                  st.achieved_qps, Percentile(latency_ms, 0.5),
                  Percentile(latency_ms, 0.95), Percentile(latency_ms, 0.99),
                  latency_ms.size(), st.batches, run_s - st.wall_s);
      Span s(log, "bench.free");
      result = {};
    }
  }
  report.Set("peak_rss_mb", PeakRssMb());
  {
    Span s(log, "bench.free");
    runners.clear();
  }

  for (const auto& [name, values] : rounds) {
    if (name.rfind("serve.", 0) == 0) report.Set(name, Median(values));
  }
  report.Set("latency_p50_ms", Median(rounds["p50_ms.r4k"]));
  report.Set("latency_tail_ms", Median(rounds["p99_ms.r4k"]));
  report.Set("serve.tail_growth.r8k", PerUnit(Median(rounds["p99_ms.r8k"]),
                                              Median(rounds["p99_ms.r4k"])));
  report.Set("throughput_per_s", Median(rounds["serve.achieved_rps.r16k"]));
  report.Set("serve.slo_miss_frac.r8k", Median(rounds["slo_miss_frac.r8k"]));
  report.Set("setup_s", Median(setup_samples));
  std::printf("serving medians over %zu rounds: p50 r4k %.3f ms, p99 r4k "
              "%.3f ms, p99 r8k %.3f ms, replay %.0f req/s\n",
              num_rounds, Median(rounds["p50_ms.r4k"]),
              Median(rounds["p99_ms.r4k"]), Median(rounds["p99_ms.r8k"]),
              Median(rounds["serve.achieved_rps.r16k"]));
  for (const auto& model : fleet.models) {
    std::printf("  lane %-12s p99 r8k %.3f ms\n", model.name.c_str(),
                Median(rounds["lane_p99_ms." + model.name + ".r8k"]));
  }
}

// ---- Output ----------------------------------------------------------------

void PrintSpanTable(const SpanLog& log, double wall_s) {
  std::printf("\n%-24s %7s %10s %10s %7s\n", "span (self = minus children)",
              "calls", "total_s", "self_s", "share");
  double self_sum = 0;
  for (const auto& row : log.rows()) {
    self_sum += row.self_s;
    std::printf("%-24s %7zu %10.4f %10.4f %6.1f%%\n",
                (std::string(2 * row.depth, ' ') + row.name).c_str(),
                row.calls, row.total_s, row.self_s,
                100.0 * PerUnit(row.self_s, wall_s));
  }
  const double unattributed = wall_s - log.top_level_s();
  std::printf("%-24s %7s %10s %10.4f %6.1f%%\n", "unattributed_s", "", "",
              unattributed, 100.0 * PerUnit(unattributed, wall_s));
  std::printf("%-24s %7s %10.4f %10.4f\n\n", "wall_s", "", wall_s,
              self_sum + unattributed);
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const Report& report) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(defs[i].name) + ": {\"value\": " +
           JsonNumber(report.Get(defs[i].name)) +
           ", \"unit\": " + JsonString(defs[i].unit) + "}";
  }
  return out + "}";
}

bool WriteRecord(const Args& args, const Report& report, double wall_s) {
  auto all = EndToEndCatalogue();
  for (auto& def : LayerCatalogue()) all.push_back(std::move(def));
  std::string json = "{\"workload\": " + JsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + JsonNumber(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"smoke\": " + (args.smoke ? "true" : "false") +
                     ", \"wall_s\": " + JsonNumber(wall_s) +
                     ", \"provenance\": {";
  const auto provenance = Provenance(args.seed);
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(provenance[i].first) + ": " +
            JsonString(provenance[i].second);
  }
  json += "}, \"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures().size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(report.failures()[i]);
  }
  json += "], \"attempted\": " + std::to_string(report.attempted) +
          ", \"failed\": " + std::to_string(report.failed) +
          ", \"deterministic\": [";
  for (std::size_t i = 0; i < std::size(kDeterministic); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(kDeterministic[i]);
  }
  json += "], \"metrics\": " + MetricsJson(all, report) + "}\n";
  std::ofstream out(args.out);
  out << json;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args) || !KnownWorkload(args.workload)) {
    Usage();
    return 2;
  }
  if (args.trace) {
    obs::ObsOptions options;
    options.enabled = true;
    options.trace = true;
    options.trace_path = args.trace_out;
    if (!args.trace_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(args.trace_out).parent_path(), ec);
    }
    obs::Configure(options);
  }

  std::printf("recd_bench %s seed %llu seconds %g trace %d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " (smoke)" : "");
  SpanLog log;
  Report report;
  const auto start = Clock::now();
  if (args.workload == kServeWorkload) {
    RunServing(args, log, report);
  } else {
    for (const auto& w : kTrainWorkloads) {
      if (args.workload == w.name) RunTraining(args, w, log, report);
    }
  }
  const double wall_s = Seconds(start, Clock::now());
  report.Set("trace.unattributed_share",
             PerUnit(wall_s - log.top_level_s(), wall_s));

  if (args.trace && !obs::FlushTrace()) {
    report.Check(false, "could not write the trace to " + args.trace_out);
  }
  PrintSpanTable(log, wall_s);
  if (!args.out.empty() && !WriteRecord(args, report, wall_s)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }

  const auto shown = args.trace ? LayerCatalogue() : EndToEndCatalogue();
  for (const auto& def : shown) {
    std::printf("%-40s %16.6g %s\n", def.name.c_str(), report.Get(def.name),
                def.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              report.correct() ? "true" : "false", report.attempted,
              report.failed, MetricsJson(shown, report).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace recd::bench

int main(int argc, char** argv) {
  try {
    return recd::bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "recd_bench: %s\n", e.what());
    return 1;
  }
}
