// Tests for the trainer: collective cost models, model configs, the
// distributed iteration simulator (O5-O7 resource relations), and the
// reference DLRM's KJT/IKJT numerical equivalence — the paper's "IKJTs
// encode the exact same logical data as KJTs" claim, checked in floats.
#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "nn/dense_matrix.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/collectives.h"
#include "train/model.h"
#include "train/reference.h"
#include "train/trainer_sim.h"

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

// ----------------------------------------------------------- collectives --

TEST(CollectivesTest, ZeroCases) {
  const auto cluster = ZionEx(8);
  EXPECT_DOUBLE_EQ(AllToAllSeconds(cluster, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(AllReduceSeconds(cluster, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(AllToAllSeconds(ZionEx(1), 1e9), 0.0);
}

TEST(CollectivesTest, TimeMonotonicInBytes) {
  const auto cluster = ZionEx(16);
  EXPECT_LT(AllToAllSeconds(cluster, 1e6), AllToAllSeconds(cluster, 1e8));
  EXPECT_LT(AllReduceSeconds(cluster, 1e6), AllReduceSeconds(cluster, 1e8));
}

TEST(CollectivesTest, SingleNodeUsesNvlink) {
  // Same payload is much faster within a node than across RoCE.
  const double intra = AllToAllSeconds(ZionEx(8), 1e9);
  const double inter = AllToAllSeconds(ZionEx(16), 1e9);
  EXPECT_LT(intra, inter);
}

TEST(CollectivesTest, LatencyFloorApplies) {
  const auto cluster = ZionEx(8);
  EXPECT_GE(AllToAllSeconds(cluster, 1.0), cluster.collective_latency_s);
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

// ------------------------------------------------------------ TrainerSim --

TEST(TrainerSimTest, RecdShrinksSddBytes) {
  auto fx = MakeFixture();
  const auto cluster = ZionEx(8);
  TrainerSim base(fx.model, cluster, TrainerFlags::Baseline());
  TrainerSim recd(fx.model, cluster, TrainerFlags::Recd());
  const auto b = base.SimulateIteration(fx.base_batch);
  const auto r = recd.SimulateIteration(fx.recd_batch);
  EXPECT_LT(r.sdd_bytes, b.sdd_bytes);
  EXPECT_LT(r.emb_a2a_bytes, b.emb_a2a_bytes);
  EXPECT_LT(r.lookups, b.lookups);
  EXPECT_LT(r.flops, b.flops);
  EXPECT_LT(r.dynamic_mem_bytes, b.dynamic_mem_bytes);
  EXPECT_GT(r.qps, b.qps);
}

TEST(TrainerSimTest, BaselineFlagsIgnoreIkjtSavings) {
  // Feeding a RecD batch to a baseline-flags trainer must reproduce the
  // baseline counts: flags, not the batch format, decide the savings.
  auto fx = MakeFixture();
  const auto cluster = ZionEx(8);
  TrainerSim base(fx.model, cluster, TrainerFlags::Baseline());
  const auto from_recd_batch = base.SimulateIteration(fx.recd_batch);
  const auto from_base_batch = base.SimulateIteration(fx.base_batch);
  EXPECT_NEAR(from_recd_batch.sdd_bytes, from_base_batch.sdd_bytes,
              1.0);
  EXPECT_NEAR(from_recd_batch.lookups, from_base_batch.lookups, 1.0);
}

TEST(TrainerSimTest, AblationOrderingMatchesPaperFig9) {
  // CT only < +DE+JIS < +DC (throughput strictly improves as trainer
  // optimizations stack, Fig 9).
  auto fx = MakeFixture();
  const auto cluster = ZionEx(8);
  const auto ct = TrainerSim(fx.model, cluster, TrainerFlags::Baseline())
                      .SimulateIteration(fx.base_batch);
  TrainerFlags de_jis;
  de_jis.dedup_emb = true;
  de_jis.jagged_index_select = true;
  de_jis.dedup_compute = false;
  const auto de = TrainerSim(fx.model, cluster, de_jis)
                      .SimulateIteration(fx.recd_batch);
  const auto dc = TrainerSim(fx.model, cluster, TrainerFlags::Recd())
                      .SimulateIteration(fx.recd_batch);
  EXPECT_GT(de.qps, ct.qps);
  EXPECT_GT(dc.qps, de.qps);
}

TEST(TrainerSimTest, JaggedIndexSelectBeatsPadToDense) {
  // O6: with dedup_emb but not dedup_compute, the jagged expansion path
  // must use less memory and be faster than the padded-dense path.
  auto fx = MakeFixture();
  const auto cluster = ZionEx(8);
  TrainerFlags no_jis;
  no_jis.dedup_emb = true;
  no_jis.jagged_index_select = false;
  no_jis.dedup_compute = false;
  TrainerFlags jis = no_jis;
  jis.jagged_index_select = true;
  const auto padded = TrainerSim(fx.model, cluster, no_jis)
                          .SimulateIteration(fx.recd_batch);
  const auto jagged = TrainerSim(fx.model, cluster, jis)
                          .SimulateIteration(fx.recd_batch);
  EXPECT_LT(jagged.dynamic_mem_bytes, padded.dynamic_mem_bytes);
  EXPECT_LE(jagged.total_s(), padded.total_s());
}

TEST(TrainerSimTest, ExposedA2aShrinksWithRecd) {
  auto fx = MakeFixture();
  const auto cluster = ZionEx(48);
  const auto b = TrainerSim(fx.model, cluster, TrainerFlags::Baseline())
                     .SimulateIteration(fx.base_batch);
  const auto r = TrainerSim(fx.model, cluster, TrainerFlags::Recd())
                     .SimulateIteration(fx.recd_batch);
  EXPECT_LT(r.a2a_raw_s, b.a2a_raw_s);
  EXPECT_LE(r.a2a_exposed_s, b.a2a_exposed_s);
}

TEST(TrainerSimTest, MemoryScalesWithBatchSize) {
  auto fx_small = MakeFixture(64);
  auto fx_large = MakeFixture(256);
  const auto cluster = ZionEx(8);
  TrainerSim sim(fx_small.model, cluster, TrainerFlags::Recd());
  const auto small = sim.SimulateIteration(fx_small.recd_batch);
  const auto large = sim.SimulateIteration(fx_large.recd_batch);
  EXPECT_GT(large.dynamic_mem_bytes, small.dynamic_mem_bytes);
}

TEST(TrainerSimTest, SingleNodeStillBenefits) {
  // §6.2 single-node: RecD helps even with NVLink-only communication
  // because compute/memory savings remain.
  auto fx = MakeFixture();
  const auto cluster = ZionEx(8);  // one node
  const auto b = TrainerSim(fx.model, cluster, TrainerFlags::Baseline())
                     .SimulateIteration(fx.base_batch);
  const auto r = TrainerSim(fx.model, cluster, TrainerFlags::Recd())
                     .SimulateIteration(fx.recd_batch);
  EXPECT_GT(r.qps, b.qps);
}

TEST(TrainerSimTest, StaticMemorySplitsTablesAcrossGpus) {
  auto fx = MakeFixture();
  TrainerSim g8(fx.model, ZionEx(8), TrainerFlags::Recd());
  TrainerSim g16(fx.model, ZionEx(16), TrainerFlags::Recd());
  EXPECT_GT(g8.StaticMemoryBytesPerGpu(), g16.StaticMemoryBytesPerGpu());
}

TEST(TrainerSimTest, ShapeScaleMultipliesWork) {
  auto fx = MakeFixture();
  const auto cluster = ZionEx(8);
  TrainerSim unit(fx.model, cluster, TrainerFlags::Recd(), {1.0, 1.0});
  TrainerSim scaled(fx.model, cluster, TrainerFlags::Recd(), {8.0, 4.0});
  const auto a = unit.SimulateIteration(fx.recd_batch);
  const auto b = scaled.SimulateIteration(fx.recd_batch);
  // Rows x8, lengths x4: lookups/values scale x32, batch rows x8.
  EXPECT_NEAR(b.lookups / a.lookups, 32.0, 0.5);
  EXPECT_NEAR(b.global_batch_rows / a.global_batch_rows, 8.0, 1e-9);
  // SDD payload: values scale x32, offsets only x8, so the blend lands
  // between.
  EXPECT_GT(b.sdd_bytes, 8.0 * a.sdd_bytes);
  EXPECT_LE(b.sdd_bytes, 32.0 * a.sdd_bytes);
  EXPECT_GT(b.flops, a.flops);
}

TEST(TrainerSimTest, LogicalFlopsAtLeastExecutedFlops) {
  auto fx = MakeFixture();
  const auto cluster = ZionEx(8);
  const auto recd = TrainerSim(fx.model, cluster, TrainerFlags::Recd())
                        .SimulateIteration(fx.recd_batch);
  EXPECT_GT(recd.flops_logical, recd.flops);
  const auto base = TrainerSim(fx.model, cluster, TrainerFlags::Baseline())
                        .SimulateIteration(fx.base_batch);
  EXPECT_NEAR(base.flops_logical, base.flops, 1.0);
  // Logical efficiency rises with RecD (Table 2's metric).
  EXPECT_GT(recd.logical_flops_per_gpu, base.logical_flops_per_gpu);
}

TEST(CollectivesTest, HierarchicalAllReduceBeatsFlatInterNode) {
  // The hierarchical model shards inter-node traffic across a node's
  // NICs, so doubling node count at fixed payload grows time sublinearly.
  const double t16 = AllReduceSeconds(ZionEx(16), 64e6);
  const double t64 = AllReduceSeconds(ZionEx(64), 64e6);
  EXPECT_LT(t64, 2.0 * t16);
  EXPECT_GT(t64, t16 * 0.99);
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
