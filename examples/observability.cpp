// Observability walkthrough (docs/ARCHITECTURE.md §14).
//
//   1. land a small clustered RM1 dataset and train a few distributed
//      steps with timing metrics and tracing enabled,
//   2. snapshot the trainer's registries and print the Prometheus-style
//      text exposition benches embed into BENCH_*.json,
//   3. write the Chrome trace-event JSON — open it in Perfetto
//      (https://ui.perfetto.dev) to see per-rank `train/step` spans over
//      the four exchange spans,
//   4. re-run the same steps with observability off and check the
//      observability-determinism rule: losses and non-timing counters
//      are bitwise identical either way.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "obs/obs.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/distributed.h"
#include "train/model.h"

int main() {
  using namespace recd;

  // --- 1. A duplication-heavy RecD batch, trained observed. -------------
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.05);
  spec.concurrent_sessions = 16;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 5'000;

  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(128);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed = storage::LandTable(store, "t", schema, {std::move(samples)});
  reader::ReaderPool reader(store, landed.table,
                            train::MakeDataLoaderConfig(model, 64, true),
                            reader::ReaderOptions{.use_ikjt = true});
  const auto batch = *reader.NextBatch();

  obs::ObsOptions on;
  on.enabled = true;  // timing metrics (exchange wait/transfer µs)
  on.trace = true;    // span recording into the global tracer
  obs::Configure(on);

  train::DistributedConfig config;
  config.num_ranks = 2;
  config.recd = true;
  config.seed = 11;
  constexpr int kSteps = 3;
  train::DistributedTrainer observed(model, config);
  std::vector<float> observed_losses;
  for (int k = 0; k < kSteps; ++k) {
    observed_losses.push_back(observed.Step(batch));
  }

  // --- 2. One snapshot captures the whole trainer. ----------------------
  // Every component owns a private registry; Merge rolls them up. The
  // same text renders as JSON via ToJson() — the `obs_metrics` block
  // bench reports embed (docs/BENCHMARKS.md).
  auto snapshot = observed.metrics().Snapshot();
  snapshot.Merge(observed.comm_metrics().Snapshot());
  std::printf("--- metrics after %d observed steps on %zu ranks ---\n%s\n",
              kSteps, config.num_ranks,
              snapshot.ToPrometheusText().c_str());

  // --- 3. The trace, loadable in Perfetto / chrome://tracing. -----------
  auto& tracer = obs::Tracer::Global();
  tracer.Stop();
  const auto trace_path =
      (std::filesystem::temp_directory_path() / "recd_example_trace.json")
          .string();
  if (!tracer.WriteJson(trace_path)) return 1;
  std::printf("wrote %s (%zu trace events) — open it in "
              "https://ui.perfetto.dev\n\n",
              trace_path.c_str(), tracer.event_count());
  obs::Configure(obs::ObsOptions{});  // everything back off
  tracer.Clear();

  // --- 4. The observability-determinism rule, checked. ------------------
  train::DistributedTrainer unobserved(model, config);
  std::vector<float> unobserved_losses;
  for (int k = 0; k < kSteps; ++k) {
    unobserved_losses.push_back(unobserved.Step(batch));
  }
  auto unobserved_snapshot = unobserved.metrics().Snapshot();
  unobserved_snapshot.Merge(unobserved.comm_metrics().Snapshot());

  const bool same_losses = observed_losses == unobserved_losses;
  const bool same_counters =
      snapshot.WithoutTimings().ToPrometheusText() ==
      unobserved_snapshot.WithoutTimings().ToPrometheusText();
  std::printf(
      "losses observed vs unobserved: %s\n"
      "non-timing counters observed vs unobserved: %s\n\n"
      "Metrics and spans only record — no code path reads them to make\n"
      "a decision — so observing a run never changes what it computes.\n",
      same_losses ? "bitwise identical" : "DIFFERENT (BUG!)",
      same_counters ? "identical" : "DIFFERENT (BUG!)");
  return same_losses && same_counters ? 0 : 1;
}
