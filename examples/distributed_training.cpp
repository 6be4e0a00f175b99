// Distributed training walkthrough: the executed hybrid-parallel
// trainer next to the single-rank reference (docs/ARCHITECTURE.md §10).
//
//   1. land a small clustered RM1 dataset and read it back as both
//      baseline (KJT) and RecD (IKJT) batches,
//   2. train the single-rank ReferenceDlrm for a few steps,
//   3. train DistributedTrainers at 1, 2, and 4 ranks, baseline and
//      RecD mode — real threads, real all-to-alls, sharded tables,
//   4. show every configuration lands on the *identical* loss while
//      RecD ships fewer sparse-exchange bytes.
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/distributed.h"
#include "train/model.h"
#include "train/reference.h"

int main() {
  using namespace recd;

  // --- 1. A duplication-heavy batch, both representations. --------------
  const std::size_t batch_size = 128;
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.05);
  spec.concurrent_sessions = 16;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 5'000;

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

  // --- 2. Single-rank gold standard. ------------------------------------
  const float lr = 0.05f;
  const int steps = 3;
  train::ReferenceDlrm reference(model, /*seed=*/7);
  float ref_loss = 0;
  for (int k = 0; k < steps; ++k) {
    ref_loss = reference.TrainStep(base_batch, lr);
  }
  std::printf("ReferenceDlrm, %d steps: loss %.9g\n\n", steps,
              static_cast<double>(ref_loss));

  // --- 3/4. The executed trainer: every config, identical loss. ---------
  std::printf("%-10s %14s %12s %12s %9s %6s\n", "config", "loss", "sdd B",
              "emb B", "dedupe", "match");
  for (const std::size_t n : {1u, 2u, 4u}) {
    for (const bool recd : {false, true}) {
      train::DistributedConfig config;
      config.num_ranks = n;
      config.recd = recd;
      config.lr = lr;
      config.seed = 7;
      train::DistributedTrainer trainer(model, config);
      float loss = 0;
      for (int k = 0; k < steps; ++k) {
        loss = trainer.Step(recd ? recd_batch : base_batch);
      }
      const auto counters = trainer.TotalCounters();
      const std::string name =
          (recd ? "recd" : "base") + std::string(" r") + std::to_string(n);
      std::printf("%-10s %14.9g %12zu %12zu %8.2fx %6s\n", name.c_str(),
                  static_cast<double>(loss), counters.sdd_bytes,
                  counters.emb_bytes, counters.exchange_dedupe_factor(),
                  loss == ref_loss ? "yes" : "NO");
    }
  }
  std::printf(
      "\nEvery rank count and both modes reproduce the reference loss\n"
      "bitwise; RecD mode ships the unique (IKJT) rows only, so the\n"
      "sparse all-to-alls shrink by the exchange dedupe factor.\n");
  return 0;
}
