// Tests for the trainer: model configs and the reference DLRM's KJT/IKJT
// numerical equivalence — the paper's "IKJTs encode the exact same
// logical data as KJTs" claim, checked in floats. The executed
// distributed trainer has its own suite (dist_train_test.cpp).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/hash.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "nn/dense_matrix.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/model.h"
#include "train/reference.h"
#include "train/step.h"

namespace recd::train {
namespace {

// Shared fixture: a small clustered RM1-style dataset landed in storage,
// read back as both RecD (IKJT) and baseline (KJT) batches.
struct Fixture {
  datagen::DatasetSpec spec;
  ModelConfig model;
  storage::BlobStore store;
  storage::Table table;
  reader::PreprocessedBatch recd_batch;
  reader::PreprocessedBatch base_batch;
};

Fixture MakeFixture(std::size_t batch_size = 128, double scale = 0.08,
                    datagen::RmKind kind = datagen::RmKind::kRm1) {
  Fixture fx;
  fx.spec = datagen::RmDataset(kind, scale);
  fx.spec.concurrent_sessions = 16;  // heavy in-batch duplication
  fx.model = RmModel(kind, fx.spec);
  fx.model.emb_hash_size = 5'000;  // keep reference tables small
  datagen::TrafficGenerator gen(fx.spec);
  const auto traffic = gen.Generate(batch_size * 2);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = fx.spec.num_dense;
  for (const auto& f : fx.spec.sparse) {
    schema.sparse_names.push_back(f.name);
  }
  auto landed = storage::LandTable(fx.store, "t", schema,
                                   {std::move(samples)});
  fx.table = std::move(landed.table);

  reader::ReaderPool recd(fx.store, fx.table,
                          MakeDataLoaderConfig(fx.model, batch_size, true),
                          reader::ReaderOptions{.use_ikjt = true});
  reader::ReaderPool base(fx.store, fx.table,
                          MakeDataLoaderConfig(fx.model, batch_size, false),
                          reader::ReaderOptions{.use_ikjt = false});
  fx.recd_batch = *recd.NextBatch();
  fx.base_batch = *base.NextBatch();
  return fx;
}

// ----------------------------------------------------------- model config --

TEST(ModelConfigTest, RmPresetShapes) {
  const auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.1);
  const auto model = RmModel(datagen::RmKind::kRm1, spec);
  EXPECT_EQ(model.sequence_groups.size(), 5u);
  for (const auto& g : model.sequence_groups) EXPECT_TRUE(g.attention);
  EXPECT_FALSE(model.elementwise_features.empty());
  EXPECT_FALSE(model.plain_features.empty());
  EXPECT_EQ(model.num_tables(), spec.num_sparse());
  const auto bottom = model.BottomMlpDims();
  EXPECT_EQ(bottom.front(), spec.num_dense);
  EXPECT_EQ(bottom.back(), model.emb_dim);
  const auto top = model.TopMlpDims();
  const std::size_t f = model.num_interaction_inputs();
  EXPECT_EQ(top.front(), model.emb_dim + f * (f - 1) / 2);
  EXPECT_EQ(top.back(), 1u);
}

TEST(ModelConfigTest, Rm2UsesNonAttentionSequenceGroup) {
  const auto spec = datagen::RmDataset(datagen::RmKind::kRm2, 0.1);
  const auto model = RmModel(datagen::RmKind::kRm2, spec);
  ASSERT_EQ(model.sequence_groups.size(), 1u);
  EXPECT_FALSE(model.sequence_groups[0].attention);
}

TEST(ModelConfigTest, DataLoaderConfigSplitsFeatures) {
  const auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.1);
  const auto model = RmModel(datagen::RmKind::kRm1, spec);
  const auto recd_cfg = MakeDataLoaderConfig(model, 64, true);
  EXPECT_EQ(recd_cfg.dedup_sparse_features.size(),
            model.sequence_groups.size() +
                model.elementwise_features.size());
  const auto base_cfg = MakeDataLoaderConfig(model, 64, false);
  EXPECT_TRUE(base_cfg.dedup_sparse_features.empty());
  // Baseline keeps every feature, just not deduplicated.
  std::size_t recd_total = recd_cfg.sparse_features.size();
  for (const auto& g : recd_cfg.dedup_sparse_features) {
    recd_total += g.size();
  }
  EXPECT_EQ(base_cfg.sparse_features.size(), recd_total);
}

// --------------------------------------------------------- ReferenceDlrm --

TEST(ReferenceDlrmTest, RecdForwardIsNumericallyIdenticalToBaseline) {
  // The paper's central accuracy claim, tested in real floats including
  // attention pooling: pool-unique-then-expand == expand-then-pool.
  auto fx = MakeFixture(96, 0.05);
  ReferenceDlrm dlrm(fx.model, /*seed=*/77);
  const auto logits_base = dlrm.Forward(fx.recd_batch, /*recd=*/false);
  const auto logits_recd = dlrm.Forward(fx.recd_batch, /*recd=*/true);
  ASSERT_EQ(logits_base.rows(), logits_recd.rows());
  EXPECT_EQ(nn::MaxAbsDiff(logits_base, logits_recd), 0.0f)
      << "IKJT forward must be bit-identical to KJT forward";
}

TEST(ReferenceDlrmTest, BaselineBatchAndRecdBatchAgree) {
  // Baseline path over the KJT batch == baseline path over the IKJT
  // batch (expansion reconstructs identical inputs end-to-end).
  auto fx = MakeFixture(96, 0.05);
  ReferenceDlrm dlrm(fx.model, 77);
  const auto from_base = dlrm.Forward(fx.base_batch, false);
  const auto from_recd = dlrm.Forward(fx.recd_batch, false);
  EXPECT_EQ(nn::MaxAbsDiff(from_base, from_recd), 0.0f);
}

TEST(ReferenceDlrmTest, RecdPathRequiresIkjtBatch) {
  auto fx = MakeFixture(64, 0.05);
  ReferenceDlrm dlrm(fx.model, 77);
  EXPECT_THROW((void)dlrm.Forward(fx.base_batch, /*recd=*/true),
               std::invalid_argument);
  // A well-formed 0-row batch is rejected up front, as
  // DistributedTrainer::Step rejects it: TrainStep used to return NaN
  // (0/0 mean loss) and EvalLoss threw a misleading interaction error.
  reader::PreprocessedBatch empty;
  empty.dense_dim = fx.base_batch.dense_dim;
  for (const auto& key : fx.base_batch.kjt.keys()) {
    empty.kjt.AddFeature(key, tensor::JaggedTensor({}, {0}));
  }
  EXPECT_THROW((void)dlrm.TrainStep(empty, 0.05f), std::invalid_argument);
  EXPECT_THROW((void)dlrm.EvalLoss(empty), std::invalid_argument);
}

TEST(ReferenceDlrmTest, TrainingReducesLoss) {
  auto fx = MakeFixture(128, 0.05);
  ReferenceDlrm dlrm(fx.model, 99);
  const float initial = dlrm.EvalLoss(fx.recd_batch);
  float final_loss = initial;
  for (int i = 0; i < 30; ++i) {
    final_loss = dlrm.TrainStep(fx.recd_batch, 0.05f);
  }
  EXPECT_LT(final_loss, initial);
}

TEST(ReferenceDlrmTest, StatsAccumulateAndReset) {
  auto fx = MakeFixture(64, 0.05);
  ReferenceDlrm dlrm(fx.model, 1);
  (void)dlrm.Forward(fx.recd_batch, true);
  EXPECT_GT(dlrm.Stats().flops, 0u);
  EXPECT_GT(dlrm.Stats().lookups, 0u);
  dlrm.ResetStats();
  EXPECT_EQ(dlrm.Stats().flops, 0u);
}

TEST(ReferenceDlrmTest, ForwardScoresAndColdBytesMatchGolden) {
  // One number for Forward's scores and bytes_from_cold over RM1-RM3 x
  // {base, RecD} x {dense, tiered}: two forwards per cell, so the second
  // runs against the hot tier the first admitted. Recorded before the
  // sum-pooling entry points collapsed into nn::SumPool.
  std::uint64_t h = 0;
  for (const auto kind : {datagen::RmKind::kRm1, datagen::RmKind::kRm2,
                          datagen::RmKind::kRm3}) {
    const auto fx = MakeFixture(64, 0.05, kind);
    for (const bool tiered : {false, true}) {
      for (const bool recd : {false, true}) {
        auto model = fx.model;
        model.tiering.enabled = tiered;
        model.tiering.hot_capacity_rows = 256;
        model.tiering.rows_per_segment = 64;
        ReferenceDlrm dlrm(model, /*seed=*/7);
        for (int k = 0; k < 2; ++k) {
          const auto logits =
              dlrm.Forward(recd ? fx.recd_batch : fx.base_batch, recd);
          for (const float x : logits.data()) {
            h = common::HashCombine(h, std::bit_cast<std::uint32_t>(x));
          }
        }
        h = common::HashCombine(h, dlrm.TierStats().bytes_from_cold);
      }
    }
  }
  constexpr std::uint64_t kForwardGolden = 0xe86ac439b6cd4af2;
  EXPECT_EQ(h, kForwardGolden) << std::hex << h;
}

TEST(ReferenceDlrmTest, ForwardCountsEverySumPooledLookup) {
  // Serving's embedding_lookups reads these counters. Every sum-pooled
  // unit counts its pooled values (RecD: the unique rows' values), the
  // features of a sequence group included; attention-pooled groups are
  // not counted.
  for (const auto kind : {datagen::RmKind::kRm1, datagen::RmKind::kRm2}) {
    const auto fx = MakeFixture(64, 0.05, kind);
    const auto units = ModelPlacementUnits(fx.model);
    ReferenceDlrm dlrm(fx.model, /*seed=*/7);
    std::uint64_t counted[2] = {0, 0};
    for (const bool recd : {false, true}) {
      const auto& batch = recd ? fx.recd_batch : fx.base_batch;
      std::uint64_t want = 0;
      for (std::size_t u = 0; u < units.size(); ++u) {
        const auto& unit = units[u];
        if (unit.kind == PlacementUnit::Kind::kSequenceGroup &&
            fx.model.sequence_groups[u].attention) {
          continue;
        }
        const auto* ikjt =
            recd ? GroupWith(batch, unit.features.front()) : nullptr;
        for (const auto& f : unit.features) {
          want += ikjt != nullptr ? ikjt->Unique(f).total_values()
                                  : ExpandedFeature(batch, f).total_values();
        }
      }
      dlrm.ResetStats();
      (void)dlrm.Forward(batch, recd);
      EXPECT_EQ(dlrm.Stats().lookups, want)
          << "rm " << static_cast<int>(kind) << " recd " << recd;
      counted[recd ? 1 : 0] = dlrm.Stats().lookups;
    }
    EXPECT_GT(counted[1], 0u);
    EXPECT_LT(counted[1], counted[0]) << "rm " << static_cast<int>(kind);
  }
}

TEST(ExpandRowsTest, GathersByInverseLookup) {
  nn::DenseMatrix pooled(2, 2);
  pooled.at(0, 0) = 1;
  pooled.at(0, 1) = 2;
  pooled.at(1, 0) = 3;
  pooled.at(1, 1) = 4;
  const std::vector<std::int64_t> inverse = {1, 0, 1};
  const auto out = ExpandRows(pooled, inverse);
  ASSERT_EQ(out.rows(), 3u);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3);
  EXPECT_FLOAT_EQ(out.at(1, 1), 2);
  EXPECT_FLOAT_EQ(out.at(2, 0), 3);
}

// Equivalence sweep across RM presets and batch sizes.
class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<datagen::RmKind, int>> {};

TEST_P(EquivalenceSweep, ForwardEquivalenceHolds) {
  const auto [kind, batch_size] = GetParam();
  auto fx = MakeFixture(static_cast<std::size_t>(batch_size), 0.05, kind);
  ReferenceDlrm dlrm(fx.model, 7);
  const auto base = dlrm.Forward(fx.recd_batch, false);
  const auto recd = dlrm.Forward(fx.recd_batch, true);
  EXPECT_EQ(nn::MaxAbsDiff(base, recd), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceSweep,
    ::testing::Combine(::testing::Values(datagen::RmKind::kRm1,
                                         datagen::RmKind::kRm2,
                                         datagen::RmKind::kRm3),
                       ::testing::Values(32, 128)));

}  // namespace
}  // namespace recd::train
