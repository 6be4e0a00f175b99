// Fault-tolerant elastic training walkthrough (docs/ARCHITECTURE.md §11).
//
//   1. land a small clustered RM1 dataset and build RecD (IKJT) batches,
//   2. run an uninterrupted training run for reference,
//   3. run the same workload under the FaultTolerantRunner with a
//      scripted disaster: rank 1 is killed mid-exchange at step 2 AND
//      the newest checkpoint was corrupted on disk — the runner must
//      reject the damaged file, restore the one before it, reshard from
//      2 ranks down to 1 (elastic restart), and replay,
//   4. show the recovered run's losses are bitwise identical to the
//      uninterrupted run — the restore-determinism rule.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/checkpoint.h"
#include "train/distributed.h"
#include "train/fault.h"
#include "train/model.h"

int main() {
  using namespace recd;

  // --- 1. A duplication-heavy RecD batch. -------------------------------
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
  reader::ReaderPool reader(
      store, landed.table, train::MakeDataLoaderConfig(model, batch_size, true),
      reader::ReaderOptions{.use_ikjt = true});
  const auto batch = *reader.NextBatch();
  const auto batch_provider =
      [&](std::size_t) -> const reader::PreprocessedBatch& { return batch; };

  const auto dir =
      std::filesystem::temp_directory_path() / "recd_example_ckpt";
  std::filesystem::remove_all(dir);

  train::ElasticRunOptions options;
  options.total_steps = 4;
  options.checkpoint_every = 1;  // checkpoint after every step
  options.rank_schedule = {2, 1};  // start on 2 ranks, restart on 1
  options.trainer.recd = true;
  options.trainer.lr = 0.05f;
  options.trainer.seed = 7;

  // --- 2. The uninterrupted run. ----------------------------------------
  options.checkpoint_dir = (dir / "clean").string();
  train::FaultTolerantRunner clean(model, options);
  const auto clean_result = clean.Run(batch_provider);
  std::printf("uninterrupted run:  ");
  for (const float loss : clean_result.losses) {
    std::printf("%.9g  ", static_cast<double>(loss));
  }
  std::printf("\n");

  // --- 3. The same run with a scripted disaster. ------------------------
  train::FaultInjector injector;
  // The checkpoint written after step 1 rots on disk...
  injector.Arm(train::Fault{.kind = train::Fault::Kind::kCorruptCheckpoint,
                            .step = 2});
  // ...and rank 1 dies inside the pooled-row all-to-all of step 2.
  injector.Arm(train::Fault{.kind = train::Fault::Kind::kKillRank,
                            .step = 2,
                            .rank = 1,
                            .exchange = train::Exchange::kEmb});
  options.checkpoint_dir = (dir / "faulty").string();
  train::FaultTolerantRunner survivor(model, options, &injector);
  const auto result = survivor.Run(batch_provider);
  std::printf("recovered run:      ");
  for (const float loss : result.losses) {
    std::printf("%.9g  ", static_cast<double>(loss));
  }
  std::printf(
      "\n\nfailures %zu, corrupt checkpoints skipped %zu, steps replayed "
      "%zu,\nfinished on %zu rank(s) after starting on %zu\n",
      result.failures, result.corrupt_checkpoints_skipped,
      result.steps_replayed, survivor.trainer().config().num_ranks,
      options.rank_schedule.front());

  // --- 4. The restore-determinism rule, checked. ------------------------
  const bool identical = result.losses == clean_result.losses;
  std::printf(
      "\nThe kill hit step 2, the newest checkpoint was corrupt, and the\n"
      "restart ran on a different rank count — yet the recovered losses\n"
      "are %s the uninterrupted run's: checkpoints are bitwise\n"
      "snapshots keyed by table id, so restores reshard exactly and the\n"
      "replayed steps recompute the identical floats.\n",
      identical ? "bitwise identical to" : "DIFFERENT from (BUG!)");
  std::filesystem::remove_all(dir);
  return identical ? 0 : 1;
}
