// Executed hybrid-parallel training: rank sweep x baseline/RecD
// (docs/ARCHITECTURE.md §10).
//
// Where bench_paper times this trainer inside whole pipeline runs, this
// harness sweeps it alone: N rank threads, the
// four collectives executed through train::CollectiveGroup, sharded
// tables, replicated MLPs. Reported per configuration: mean step wall
// time, bytes sent on every exchange, and the sparse-exchange dedupe
// factor — RecD's bytes-on-the-wire claim (paper §5.1) measured on an
// exchange that actually moved the bytes. Losses are asserted equal
// between baseline and RecD (the determinism contract of
// tests/dist_train_test.cpp, sampled here at bench scale).
//
// Host note: ranks are threads; on a single-core host the rank sweep
// measures scheduling overhead, not speedup — the byte counters and
// dedupe factor are the portable results.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "datagen/generator.h"
#include "etl/etl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/distributed.h"
#include "train/reference.h"

int main(int argc, char** argv) {
  using namespace recd;
  bench::JsonReport report("bench_dist_train");
  bench::PrintHeader(
      "Executed hybrid-parallel training: ranks x baseline/RecD (RM1)");

  // `--trace <path>`: record every exchange / train-step span across
  // the whole sweep and write Chrome trace-event JSON (open the file
  // in Perfetto; see README "Capturing a trace").
  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  }
  if (trace_path != nullptr) obs::Tracer::Global().Start();

  const std::size_t batch_size = bench::SmokeOr<std::size_t>(256, 64);
  const int steps = bench::SmokeOr(3, 1);
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1,
                                 bench::SmokeOr(0.1, 0.05));
  spec.concurrent_sessions = 16;  // heavy in-batch duplication
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = bench::SmokeOr<std::size_t>(20'000, 2'000);
  report.SetHostField("batch_size", static_cast<long>(batch_size));
  report.SetHostField("steps", steps);

  // Land one partition and read it back both ways, like the trainer
  // tests: the baseline reader ships KJTs, the RecD reader IKJTs.
  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(batch_size * 2);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed = storage::LandTable(store, "t", schema, {std::move(samples)});
  reader::ReaderPool recd_reader(
      store, landed.table, train::MakeDataLoaderConfig(model, batch_size, true),
      reader::ReaderOptions{.use_ikjt = true});
  reader::ReaderPool base_reader(
      store, landed.table,
      train::MakeDataLoaderConfig(model, batch_size, false),
      reader::ReaderOptions{.use_ikjt = false});
  const auto recd_batch = *recd_reader.NextBatch();
  const auto base_batch = *base_reader.NextBatch();

  std::printf("%-12s %10s %12s %12s %12s %12s %8s\n", "config", "step ms",
              "sdd B", "emb B", "grad B", "allreduce B", "dedupe");
  bench::PrintRule();

  struct Row {
    std::size_t ranks = 0;
    bool recd = false;
    double step_ms = 0;
    train::ExchangeCounters counters;
    float final_loss = 0;
  };
  std::vector<Row> rows;
  // Aggregated over every configuration in the sweep: per-(rank,
  // exchange) byte/timing counters and the per-rank value counters,
  // embedded into the JSON report as the `obs_metrics` block.
  obs::MetricsSnapshot obs_snapshot;
  for (const std::size_t n : {1u, 2u, 4u}) {
    for (const bool recd : {false, true}) {
      train::DistributedConfig config;
      config.num_ranks = n;
      config.recd = recd;
      config.lr = 0.05f;
      config.seed = 7;
      train::DistributedTrainer trainer(model, config);
      const auto& batch = recd ? recd_batch : base_batch;
      common::Stopwatch sw;
      float loss = 0;
      for (int k = 0; k < steps; ++k) {
        common::Stopwatch::Scope scope(sw);
        loss = trainer.Step(batch);
      }
      Row row;
      row.ranks = n;
      row.recd = recd;
      row.step_ms = sw.seconds() * 1e3 / steps;
      row.counters = trainer.TotalCounters();
      row.final_loss = loss;
      obs_snapshot.Merge(trainer.metrics().Snapshot());
      obs_snapshot.Merge(trainer.comm_metrics().Snapshot());
      const std::string name =
          (recd ? "recd" : "base") + std::string(" r") + std::to_string(n);
      std::printf("%-12s %10.1f %12zu %12zu %12zu %12zu %7.2fx\n",
                  name.c_str(), row.step_ms, row.counters.sdd_bytes,
                  row.counters.emb_bytes, row.counters.grad_bytes,
                  row.counters.allreduce_bytes,
                  row.counters.exchange_dedupe_factor());
      rows.push_back(row);

      const std::string prefix =
          (recd ? "recd" : "base") + std::string("_r") + std::to_string(n);
      report.Add(prefix + "_step_ms", row.step_ms, std::nullopt, "ms");
      report.Add(prefix + "_sdd_bytes",
                 static_cast<double>(row.counters.sdd_bytes), std::nullopt,
                 "bytes");
      report.Add(prefix + "_emb_bytes",
                 static_cast<double>(row.counters.emb_bytes), std::nullopt,
                 "bytes");
      report.Add(prefix + "_grad_bytes",
                 static_cast<double>(row.counters.grad_bytes), std::nullopt,
                 "bytes");
      report.Add(prefix + "_allreduce_bytes",
                 static_cast<double>(row.counters.allreduce_bytes),
                 std::nullopt, "bytes");
      report.Add(prefix + "_exchange_dedupe",
                 row.counters.exchange_dedupe_factor(), std::nullopt, "x");
    }
  }

  // The acceptance checks: RecD ships strictly fewer sparse-exchange
  // bytes at every multi-rank count, and baseline/RecD losses agree
  // bitwise (dedup changes bytes, never math).
  bool ok = true;
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const auto& base = rows[i];
    const auto& recd = rows[i + 1];
    if (base.final_loss != recd.final_loss) {
      std::printf("FAIL: base/recd loss mismatch at r%zu (%g vs %g)\n",
                  base.ranks, static_cast<double>(base.final_loss),
                  static_cast<double>(recd.final_loss));
      ok = false;
    }
    if (base.ranks > 1) {
      if (recd.counters.sdd_bytes >= base.counters.sdd_bytes ||
          recd.counters.emb_bytes >= base.counters.emb_bytes) {
        std::printf("FAIL: RecD did not shrink sparse exchange at r%zu\n",
                    base.ranks);
        ok = false;
      }
      report.Add("r" + std::to_string(base.ranks) + "_sdd_savings",
                 static_cast<double>(base.counters.sdd_bytes) /
                     static_cast<double>(recd.counters.sdd_bytes),
                 std::nullopt, "x");
    }
  }
  // ---- Tiered embedding store (docs/ARCHITECTURE.md §13) -------------
  // Same model, batches, and seed, but every shard's tables sit behind
  // the two-tier row store with a hot tier 1/16th of the table. The
  // tier-placement determinism rule says the losses must match the
  // dense r2 rows above bitwise; the tier counters say what that cost.
  bench::PrintHeader("tiered embedding store (r2, hot = table/16)");
  std::printf("%-12s %10s %8s %12s %10s %10s\n", "config", "step ms",
              "hit%", "cold B", "cold rows", "evict");
  bench::PrintRule();
  for (const bool recd : {false, true}) {
    auto tiered_model = model;
    tiered_model.tiering.enabled = true;
    tiered_model.tiering.hot_capacity_rows = model.emb_hash_size / 16;
    tiered_model.tiering.rows_per_segment = 128;
    train::DistributedConfig config;
    config.num_ranks = 2;
    config.recd = recd;
    config.lr = 0.05f;
    config.seed = 7;
    train::DistributedTrainer trainer(tiered_model, config);
    const auto& batch = recd ? recd_batch : base_batch;
    common::Stopwatch sw;
    float loss = 0;
    for (int k = 0; k < steps; ++k) {
      common::Stopwatch::Scope scope(sw);
      loss = trainer.Step(batch);
    }
    const auto tier = trainer.TierStatsTotal();
    obs_snapshot.Merge(trainer.metrics().Snapshot());
    obs_snapshot.Merge(trainer.comm_metrics().Snapshot());
    const double step_ms = sw.seconds() * 1e3 / steps;
    const std::string name =
        (recd ? "recd" : "base") + std::string(" r2 tier");
    std::printf("%-12s %10.1f %7.1f%% %12llu %10llu %10llu\n", name.c_str(),
                step_ms, tier.hit_rate() * 100,
                static_cast<unsigned long long>(tier.bytes_from_cold),
                static_cast<unsigned long long>(tier.cold_fetches),
                static_cast<unsigned long long>(tier.evictions));

    const std::string prefix =
        std::string(recd ? "recd" : "base") + "_r2_tier";
    report.Add(prefix + "_step_ms", step_ms, std::nullopt, "ms");
    report.Add(prefix + "_hit_rate", tier.hit_rate(), std::nullopt, "frac");
    report.Add(prefix + "_hot_hits", static_cast<double>(tier.hot_hits),
               std::nullopt, "rows");
    report.Add(prefix + "_cold_fetches",
               static_cast<double>(tier.cold_fetches), std::nullopt, "rows");
    report.Add(prefix + "_evictions", static_cast<double>(tier.evictions),
               std::nullopt, "rows");
    report.Add(prefix + "_bytes_from_cold",
               static_cast<double>(tier.bytes_from_cold), std::nullopt,
               "bytes");

    for (const auto& row : rows) {
      if (row.ranks == 2 && row.recd == recd &&
          row.final_loss != loss) {
        std::printf("FAIL: tiered r2 loss diverged from dense (%g vs %g)\n",
                    static_cast<double>(loss),
                    static_cast<double>(row.final_loss));
        ok = false;
      }
    }
    if (tier.row_fetches == 0) {
      std::printf("FAIL: tiered trainer reported no row fetches\n");
      ok = false;
    }
  }

  std::printf("\nbase/recd losses %s; sparse exchange %s\n",
              ok ? "bitwise identical" : "MISMATCH",
              ok ? "shrinks under RecD" : "check FAILED");

  if (trace_path != nullptr) {
    auto& tracer = obs::Tracer::Global();
    tracer.Stop();
    if (!tracer.WriteJson(trace_path)) return 1;
    std::printf("wrote %s (%zu trace events, %zu dropped)\n", trace_path,
                tracer.event_count(), tracer.dropped_events());
  }
  report.SetEmbeddedJson("obs_metrics", obs_snapshot.ToJson());
  if (!report.WriteIfRequested(argc, argv)) return 1;
  return ok ? 0 : 1;
}
