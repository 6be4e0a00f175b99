// End-to-end integration tests: data integrity through the entire
// pipeline (datagen -> scribe -> etl -> storage -> reader -> trainer),
// plus the clustering-accuracy experiment machinery (§6.2).
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "core/pipeline.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "scribe/scribe.h"
#include "storage/table.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd {
namespace {

TEST(IntegrationTest, DataSurvivesEveryPipelineStage) {
  // Generate -> log through Scribe -> drain -> join -> cluster ->
  // land -> read back: every sample's features must round-trip exactly.
  auto spec = datagen::RmDataset(datagen::RmKind::kRm2, 0.08);
  spec.concurrent_sessions = 24;
  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(1200);

  scribe::ScribeCluster bus(4, scribe::ShardKeyPolicy::kSessionId);
  for (const auto& f : traffic.features) bus.LogFeature(f);
  for (const auto& e : traffic.events) bus.LogEvent(e);
  bus.Flush();
  const auto features = bus.DrainFeatures();
  const auto events = bus.DrainEvents();
  auto samples = etl::JoinLogs(features, events);
  ASSERT_EQ(samples.size(), 1200u);
  etl::ClusterBySession(samples);

  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed = storage::LandTable(store, "t", schema,
                                   etl::PartitionByCount(samples, 500));

  // Read everything back through the reader with full feature set.
  reader::DataLoaderConfig config;
  config.batch_size = 256;
  for (const auto& name : schema.sparse_names) {
    config.sparse_features.push_back(name);
  }
  reader::ReaderPool rdr(store, landed.table, config,
                         reader::ReaderOptions{.use_ikjt = false});
  std::unordered_map<std::int64_t, const datagen::FeatureLog*> originals;
  for (const auto& f : traffic.features) originals[f.request_id] = &f;

  std::size_t row = 0;
  std::size_t rows_checked = 0;
  std::vector<datagen::Sample> read_back;
  while (auto batch = rdr.NextBatch()) {
    for (std::size_t i = 0; i < batch->batch_size; ++i, ++row) {
      // Row order matches the clustered sample order.
      const auto& expect = samples[row];
      EXPECT_EQ(batch->session_ids[i], expect.session_id);
      EXPECT_EQ(batch->labels[i], expect.label);
      ++rows_checked;
    }
    // Feature values must match the original logs exactly.
    for (std::size_t f = 0; f < schema.sparse_names.size(); ++f) {
      const auto& jt = batch->kjt.Get(schema.sparse_names[f]);
      for (std::size_t i = 0; i < batch->batch_size; ++i) {
        const auto& original =
            originals.at(samples[row - batch->batch_size + i].request_id);
        ASSERT_TRUE(jt.RowEquals(i, original->sparse[f]))
            << "feature " << schema.sparse_names[f] << " row " << i;
      }
    }
  }
  EXPECT_EQ(rows_checked, 1200u);
}

TEST(IntegrationTest, TrainingIsIdenticalOnRecdAndBaselineBatches) {
  // Two models with identical seeds, one trained on baseline batches and
  // one on RecD batches of the same data, must end with identical
  // training losses (IKJT changes the encoding, not the math).
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.05);
  spec.concurrent_sessions = 16;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 4000;
  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(512);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed = storage::LandTable(store, "t", schema, {samples});

  reader::ReaderPool recd_reader(
      store, landed.table, train::MakeDataLoaderConfig(model, 128, true),
      reader::ReaderOptions{.use_ikjt = true});
  reader::ReaderPool base_reader(
      store, landed.table, train::MakeDataLoaderConfig(model, 128, false),
      reader::ReaderOptions{.use_ikjt = false});

  train::ReferenceDlrm model_a(model, 1234);
  train::ReferenceDlrm model_b(model, 1234);
  while (true) {
    auto rb = recd_reader.NextBatch();
    auto bb = base_reader.NextBatch();
    ASSERT_EQ(rb.has_value(), bb.has_value());
    if (!rb.has_value()) break;
    const float loss_a = model_a.TrainStep(*rb, 0.05f);
    const float loss_b = model_b.TrainStep(*bb, 0.05f);
    EXPECT_EQ(loss_a, loss_b);
  }
}

TEST(IntegrationTest, ClusteredTrainingGeneralizesAtLeastAsWell) {
  // §6.2 accuracy experiment machinery: train on clustered vs
  // interleaved batch order (same data), evaluate on held-out samples.
  // The paper reports clustering *improves* generalization; at this toy
  // scale we assert the experiment runs and the clustered model is not
  // catastrophically worse (loss within 10%), and record both losses.
  auto spec = datagen::RmDataset(datagen::RmKind::kRm2, 0.05);
  spec.concurrent_sessions = 16;
  auto model = train::RmModel(datagen::RmKind::kRm2, spec);
  model.emb_hash_size = 4000;
  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(1024);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  const std::size_t train_n = 768;
  std::vector<datagen::Sample> train_interleaved(
      samples.begin(), samples.begin() + train_n);
  std::vector<datagen::Sample> eval_set(samples.begin() + train_n,
                                        samples.end());
  auto train_clustered = train_interleaved;
  etl::ClusterBySession(train_clustered);

  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);

  auto run_training = [&](const std::vector<datagen::Sample>& train_set) {
    storage::BlobStore store;
    auto landed = storage::LandTable(store, "t", schema, {train_set});
    reader::ReaderPool rdr(store, landed.table,
                           train::MakeDataLoaderConfig(model, 128, true),
                           reader::ReaderOptions{.use_ikjt = true});
    train::ReferenceDlrm dlrm(model, 4242);
    for (int epoch = 0; epoch < 2; ++epoch) {
      storage::BlobStore epoch_store;
      auto epoch_landed =
          storage::LandTable(epoch_store, "t", schema, {train_set});
      reader::ReaderPool epoch_reader(
          epoch_store, epoch_landed.table,
          train::MakeDataLoaderConfig(model, 128, true),
          reader::ReaderOptions{.use_ikjt = true});
      while (auto batch = epoch_reader.NextBatch()) {
        (void)dlrm.TrainStep(*batch, 0.05f);
      }
    }
    // Evaluate on held-out data.
    storage::BlobStore eval_store;
    auto eval_landed =
        storage::LandTable(eval_store, "e", schema, {eval_set});
    reader::ReaderPool eval_reader(
        eval_store, eval_landed.table,
        train::MakeDataLoaderConfig(model, 128, true),
        reader::ReaderOptions{.use_ikjt = true});
    double total = 0;
    std::size_t n = 0;
    while (auto batch = eval_reader.NextBatch()) {
      total += dlrm.EvalLoss(*batch) * static_cast<double>(batch->batch_size);
      n += batch->batch_size;
    }
    return total / static_cast<double>(n);
  };

  const double loss_interleaved = run_training(train_interleaved);
  const double loss_clustered = run_training(train_clustered);
  RecordProperty("eval_loss_interleaved", std::to_string(loss_interleaved));
  RecordProperty("eval_loss_clustered", std::to_string(loss_clustered));
  EXPECT_LT(loss_clustered, loss_interleaved * 1.10);
}

TEST(IntegrationTest, PipelineRunnerHandlesAllThreeRms) {
  for (const auto kind : {datagen::RmKind::kRm1, datagen::RmKind::kRm2,
                          datagen::RmKind::kRm3}) {
    auto spec = datagen::RmDataset(kind, 0.05);
    spec.concurrent_sessions = 24;
    auto model = train::RmModel(kind, spec);
    // Small tables and layers keep the executed steps cheap under the
    // sanitizers; the counters checked below do not depend on them.
    model.emb_hash_size = 1'000;
    model.emb_dim = 16;
    model.bottom_mlp_hidden = {32};
    model.top_mlp_hidden = {32};
    core::PipelineOptions opts;
    opts.num_samples = 1500;
    opts.max_trainer_batches = 1;
    core::PipelineRunner runner(spec, model, opts);
    const auto base = runner.Run(core::RecdConfig::Baseline(256));
    const auto recd = runner.Run(core::RecdConfig::Full(256));
    // Each RM trains one executed step on both paths; only the dedup
    // path ships fewer sparse values than it trains on.
    const auto& b = base.trainer_exchange;
    const auto& r = recd.trainer_exchange;
    EXPECT_EQ(b.values_shipped, b.values_logical)
        << "RM kind " << static_cast<int>(kind);
    EXPECT_LT(r.values_shipped, r.values_logical)
        << "RM kind " << static_cast<int>(kind);
    EXPECT_LT(r.sdd_bytes, b.sdd_bytes)
        << "RM kind " << static_cast<int>(kind);
    EXPECT_TRUE(std::isfinite(base.trainer_first_loss));
    EXPECT_TRUE(std::isfinite(recd.trainer_first_loss));
    EXPECT_GT(recd.storage_compression_ratio,
              base.storage_compression_ratio);
  }
}

}  // namespace
}  // namespace recd
