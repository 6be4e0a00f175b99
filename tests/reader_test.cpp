// Tests for the reader tier (reader::ReaderPool, at its default one
// worker unless a test says otherwise): Fill/Convert/Process, IKJT
// conversion (O3), deduplicated preprocessing (O4), byte accounting, and
// — critically — logical equivalence between the RecD and baseline
// reader outputs.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "datagen/generator.h"
#include "reader/reader_tier.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd::reader {
namespace {

struct Fixture {
  datagen::DatasetSpec spec;
  storage::BlobStore store;
  storage::Table table;
  std::vector<datagen::Sample> samples;  // clustered order == file order
};

Fixture MakeFixture(std::size_t n, bool clustered, double scale = 0.1,
                    std::size_t concurrent_sessions = 48) {
  Fixture fx;
  fx.spec = datagen::RmDataset(datagen::RmKind::kRm1, scale);
  fx.spec.concurrent_sessions = concurrent_sessions;
  datagen::TrafficGenerator gen(fx.spec);
  const auto traffic = gen.Generate(n);
  fx.samples = etl::JoinLogs(traffic.features, traffic.events);
  if (clustered) etl::ClusterBySession(fx.samples);
  storage::StorageSchema schema;
  schema.num_dense = fx.spec.num_dense;
  for (const auto& f : fx.spec.sparse) {
    schema.sparse_names.push_back(f.name);
  }
  auto partitions = etl::PartitionByCount(fx.samples, n / 2 + 1);
  auto landed = storage::LandTable(fx.store, "tbl", schema, partitions);
  fx.table = std::move(landed.table);
  return fx;
}

DataLoaderConfig SmallConfig(const Fixture& fx, std::size_t batch_size,
                             bool dedup) {
  const auto model =
      train::RmModel(datagen::RmKind::kRm1, fx.spec);
  return train::MakeDataLoaderConfig(model, batch_size, dedup);
}

TEST(ReaderTest, BatchesCoverDatasetExactlyOnce) {
  auto fx = MakeFixture(600, true);
  ReaderPool rdr(fx.store, fx.table, SmallConfig(fx, 128, true));
  std::size_t rows = 0;
  std::size_t batches = 0;
  while (auto batch = rdr.NextBatch()) {
    rows += batch->batch_size;
    ++batches;
    EXPECT_LE(batch->batch_size, 128u);
  }
  EXPECT_EQ(rows, 600u);
  EXPECT_EQ(batches, (600 + 127) / 128);
  EXPECT_EQ(rdr.io().rows_read, 600u);
  EXPECT_EQ(rdr.io().batches_produced, batches);
}

TEST(ReaderTest, ZeroBatchSizeThrows) {
  auto fx = MakeFixture(10, true);
  auto config = SmallConfig(fx, 1, true);
  config.batch_size = 0;
  EXPECT_THROW(ReaderPool(fx.store, fx.table, config), std::invalid_argument);
}

TEST(ReaderTest, UnknownFeatureThrows) {
  auto fx = MakeFixture(10, true);
  auto config = SmallConfig(fx, 4, true);
  config.sparse_features.push_back("not_a_feature");
  EXPECT_THROW(ReaderPool(fx.store, fx.table, config), std::out_of_range);
}

TEST(ReaderTest, BatchCarriesLabelsDenseAndSessions) {
  auto fx = MakeFixture(256, true);
  ReaderPool rdr(fx.store, fx.table, SmallConfig(fx, 64, true));
  auto batch = rdr.NextBatch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->labels.size(), 64u);
  EXPECT_EQ(batch->session_ids.size(), 64u);
  EXPECT_EQ(batch->dense.size(), 64u * fx.spec.num_dense);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(batch->labels[i], fx.samples[i].label);
    EXPECT_EQ(batch->session_ids[i], fx.samples[i].session_id);
  }
}

TEST(ReaderTest, RecdAndBaselineBatchesAreLogicallyIdentical) {
  // The central O3 correctness property: IKJT batches expand to exactly
  // the KJT batches the baseline produces.
  auto fx = MakeFixture(384, true);
  ReaderPool recd(fx.store, fx.table, SmallConfig(fx, 96, true),
                  ReaderOptions{.use_ikjt = true});
  ReaderPool base(fx.store, fx.table, SmallConfig(fx, 96, false),
                  ReaderOptions{.use_ikjt = false});
  while (true) {
    auto rb = recd.NextBatch();
    auto bb = base.NextBatch();
    ASSERT_EQ(rb.has_value(), bb.has_value());
    if (!rb.has_value()) break;
    ASSERT_FALSE(rb->groups.empty());
    EXPECT_TRUE(bb->groups.empty());
    // Every deduplicated feature expands to the baseline column.
    for (const auto& group : rb->groups) {
      for (const auto& key : group.keys()) {
        const auto expanded = train::ExpandedFeature(*rb, key);
        EXPECT_EQ(expanded, bb->kjt.Get(key)) << key;
      }
    }
    // Non-dedup features match directly.
    for (const auto& key : rb->kjt.keys()) {
      EXPECT_EQ(rb->kjt.Get(key), bb->kjt.Get(key));
    }
    EXPECT_EQ(rb->labels, bb->labels);
    EXPECT_EQ(rb->dense, bb->dense);
  }
}

TEST(ReaderTest, DedupStatsReportCompressionOnClusteredData) {
  auto fx = MakeFixture(512, /*clustered=*/true);
  ReaderPool rdr(fx.store, fx.table, SmallConfig(fx, 256, true));
  auto batch = rdr.NextBatch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_FALSE(batch->group_stats.empty());
  double total_before = 0;
  double total_after = 0;
  for (const auto& s : batch->group_stats) {
    total_before += static_cast<double>(s.values_before);
    total_after += static_cast<double>(s.values_after);
  }
  // Clustered sessions + high stay-prob features => real dedup factor.
  EXPECT_GT(total_before / total_after, 1.5);
}

TEST(ReaderTest, InterleavedDataDeduplicatesFarWorseThanClustered) {
  // Fig 3 right / §3: without clustering a batch holds ~1 sample per
  // session, so in-batch dedup finds a fraction of what clustering
  // exposes — the reason trainer-only solutions are insufficient.
  auto interleaved =
      MakeFixture(512, /*clustered=*/false, 0.05, /*concurrent=*/2048);
  auto clustered = MakeFixture(512, /*clustered=*/true, 0.05);
  auto factor_of = [](Fixture& fx) {
    ReaderPool rdr(fx.store, fx.table, SmallConfig(fx, 256, true));
    auto batch = rdr.NextBatch();
    EXPECT_TRUE(batch.has_value());
    double before = 0;
    double after = 0;
    for (const auto& s : batch->group_stats) {
      before += static_cast<double>(s.values_before);
      after += static_cast<double>(s.values_after);
    }
    return before / after;
  };
  const double f_interleaved = factor_of(interleaved);
  const double f_clustered = factor_of(clustered);
  EXPECT_LT(f_interleaved, 0.75 * f_clustered)
      << "interleaved=" << f_interleaved << " clustered=" << f_clustered;
}

TEST(ReaderTest, IkjtOutputShrinksSendBytes) {
  auto fx = MakeFixture(512, true);
  ReaderPool recd(fx.store, fx.table, SmallConfig(fx, 256, true),
                  ReaderOptions{.use_ikjt = true});
  ReaderPool base(fx.store, fx.table, SmallConfig(fx, 256, false),
                  ReaderOptions{.use_ikjt = false});
  while (recd.NextBatch().has_value()) {
  }
  while (base.NextBatch().has_value()) {
  }
  EXPECT_LT(recd.io().bytes_sent, base.io().bytes_sent);
  EXPECT_EQ(recd.io().bytes_read, base.io().bytes_read);
}

TEST(ReaderTest, SparseTransformsProduceIdenticalResultsBothPaths) {
  // O4: the dedup-aware wrapper must be semantically invisible.
  auto fx = MakeFixture(256, true);
  auto config_recd = SmallConfig(fx, 128, true);
  auto config_base = SmallConfig(fx, 128, false);
  const std::string target = config_recd.dedup_sparse_features[0][0];
  const TransformSpec hash_spec{TransformKind::kSparseHash, target, 999983,
                                0};
  config_recd.transforms.push_back(hash_spec);
  config_base.transforms.push_back(hash_spec);
  ReaderPool recd(fx.store, fx.table, config_recd,
                  ReaderOptions{.use_ikjt = true});
  ReaderPool base(fx.store, fx.table, config_base,
                  ReaderOptions{.use_ikjt = false});
  auto rb = recd.NextBatch();
  auto bb = base.NextBatch();
  ASSERT_TRUE(rb.has_value() && bb.has_value());
  EXPECT_EQ(train::ExpandedFeature(*rb, target), bb->kjt.Get(target));
  // And the dedup path touched fewer elements (the compute saving).
  EXPECT_LT(recd.io().sparse_elements_processed,
            base.io().sparse_elements_processed);
}

TEST(ReaderTest, DenseTransformsApply) {
  auto fx = MakeFixture(64, true);
  auto config = SmallConfig(fx, 64, true);
  config.transforms.push_back(
      {TransformKind::kDenseClamp, "", 0.0, 0.0});  // clamp all to 0
  ReaderPool rdr(fx.store, fx.table, config);
  auto batch = rdr.NextBatch();
  ASSERT_TRUE(batch.has_value());
  for (const float v : batch->dense) EXPECT_EQ(v, 0.0f);
}

TEST(ReaderTest, StageTimesAccumulate) {
  auto fx = MakeFixture(300, true);
  ReaderPool rdr(fx.store, fx.table, SmallConfig(fx, 100, true));
  while (rdr.NextBatch().has_value()) {
  }
  EXPECT_GT(rdr.times().fill_s, 0.0);
  EXPECT_GT(rdr.times().convert_s, 0.0);
  EXPECT_GT(rdr.times().total_s(), 0.0);
}

TEST(ReaderTest, ReadsOnlyProjectedColumns) {
  auto fx = MakeFixture(400, true);
  // A config using a single feature should read far fewer bytes than one
  // using all features.
  DataLoaderConfig narrow;
  narrow.batch_size = 200;
  narrow.dense = false;
  narrow.sparse_features = {fx.spec.sparse[0].name};
  ReaderPool narrow_reader(fx.store, fx.table, narrow);
  while (narrow_reader.NextBatch().has_value()) {
  }
  ReaderPool full_reader(fx.store, fx.table, SmallConfig(fx, 200, true));
  while (full_reader.NextBatch().has_value()) {
  }
  EXPECT_LT(narrow_reader.io().bytes_read,
            full_reader.io().bytes_read / 2);
}

// ------------------------------------------------------------ transforms --

TEST(TransformTest, SparseHashDeterministicAndInDomain) {
  std::vector<tensor::Id> values = {1, 2, 3, 1'000'000'007};
  auto copy = values;
  const TransformSpec spec{TransformKind::kSparseHash, "f", 1000, 0};
  ApplySparseTransform(spec, values);
  ApplySparseTransform(spec, copy);
  EXPECT_EQ(values, copy);
  for (const auto v : values) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
  }
}

TEST(TransformTest, ModShiftWrapsNegatives) {
  std::vector<tensor::Id> values = {-5, 0, 7};
  ApplySparseTransform({TransformKind::kSparseModShift, "f", 10, 2},
                       values);
  EXPECT_EQ(values, (std::vector<tensor::Id>{7, 2, 9}));
}

TEST(TransformTest, DenseNormalize) {
  std::vector<float> dense = {2.0f, 4.0f};
  ApplyDenseTransform({TransformKind::kDenseNormalize, "", 2.0, 2.0},
                      dense);
  EXPECT_FLOAT_EQ(dense[0], 0.0f);
  EXPECT_FLOAT_EQ(dense[1], 1.0f);
}

TEST(TransformTest, KindMismatchThrows) {
  std::vector<tensor::Id> sparse = {1};
  std::vector<float> dense = {1.0f};
  EXPECT_THROW(
      ApplySparseTransform({TransformKind::kDenseClamp, "", 0, 1}, sparse),
      std::invalid_argument);
  EXPECT_THROW(
      ApplyDenseTransform({TransformKind::kSparseHash, "f", 10, 0}, dense),
      std::invalid_argument);
}

TEST(TransformTest, InvalidDomainThrows) {
  std::vector<tensor::Id> values = {1};
  EXPECT_THROW(
      ApplySparseTransform({TransformKind::kSparseHash, "f", 0, 0}, values),
      std::invalid_argument);
  std::vector<float> dense = {1.0f};
  EXPECT_THROW(ApplyDenseTransform(
                   {TransformKind::kDenseNormalize, "", 0.0, 0.0}, dense),
               std::invalid_argument);
}

TEST(ReaderTest, PartialDedupFeaturesRoundTrip) {
  // §7 extension: features routed through partial IKJTs reconstruct the
  // baseline column exactly and shrink the wire payload.
  auto fx = MakeFixture(384, true);
  auto config_partial = SmallConfig(fx, 128, true);
  auto config_base = SmallConfig(fx, 128, false);
  // Route one sequence feature through the partial path instead.
  const std::string target = config_partial.dedup_sparse_features[0][0];
  auto& group0 = config_partial.dedup_sparse_features[0];
  group0.erase(group0.begin());
  if (group0.empty()) {
    config_partial.dedup_sparse_features.erase(
        config_partial.dedup_sparse_features.begin());
  }
  config_partial.partial_dedup_features.push_back(target);
  ReaderPool partial_reader(fx.store, fx.table, config_partial,
                            ReaderOptions{.use_ikjt = true});
  ReaderPool base_reader(fx.store, fx.table, config_base,
                         ReaderOptions{.use_ikjt = false});
  while (true) {
    auto pb = partial_reader.NextBatch();
    auto bb = base_reader.NextBatch();
    ASSERT_EQ(pb.has_value(), bb.has_value());
    if (!pb.has_value()) break;
    ASSERT_EQ(pb->partials.size(), 1u);
    EXPECT_EQ(pb->partials[0].key(), target);
    // Exact logical reconstruction.
    EXPECT_EQ(tensor::ExpandPartialIkjt(pb->partials[0]),
              bb->kjt.Get(target));
    EXPECT_EQ(train::ExpandedFeature(*pb, target), bb->kjt.Get(target));
    // Fewer stored values than the expanded column.
    EXPECT_LE(pb->partials[0].values().size(),
              bb->kjt.Get(target).total_values());
  }
}

TEST(ReaderTest, PartialFeaturesFallBackToKjtWhenRecdOff) {
  auto fx = MakeFixture(128, true);
  DataLoaderConfig config;
  config.batch_size = 64;
  const std::string target = fx.spec.sparse[0].name;
  config.partial_dedup_features.push_back(target);
  ReaderPool rdr(fx.store, fx.table, config,
                 ReaderOptions{.use_ikjt = false});
  auto batch = rdr.NextBatch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_TRUE(batch->partials.empty());
  EXPECT_TRUE(batch->kjt.Has(target));
}

TEST(ReaderTierTest, ProvisionsCeilOfDemandOverSupply) {
  const auto p = ProvisionReaders(1000.0, 300.0);
  EXPECT_EQ(p.readers_needed, 4u);
  EXPECT_EQ(ProvisionReaders(900.0, 300.0).readers_needed, 3u);
  EXPECT_EQ(ProvisionReaders(0.0, 300.0).readers_needed, 0u);
  EXPECT_EQ(ProvisionReaders(1000.0, 0.0).readers_needed, 0u);
}

TEST(ReaderTierTest, FasterReadersMeanFewerHosts) {
  // Fig 7: RecD's 1.79x faster readers cut the tier size ~1.79x at equal
  // trainer demand.
  const auto base = ProvisionReaders(100'000.0, 1'000.0);
  const auto recd = ProvisionReaders(100'000.0, 1'790.0);
  EXPECT_EQ(base.readers_needed, 100u);
  EXPECT_EQ(recd.readers_needed, 56u);
}

// Partial-batch cutting on both ReaderPool drivers: inline (1 worker)
// and threaded (4 workers).
struct SweepCase {
  std::size_t batch_size;
  std::size_t workers;
};

// Test names carry the batch size, plus the worker count when it is not
// the default 1 (e.g. Sweep/BatchSizeSweep.AllBatchSizesCoverDataset/13
// and .../13_4workers).
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.batch_size;
  if (c.workers != 1) *os << '_' << c.workers << "workers";
}

std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  for (const std::size_t workers : {1u, 4u}) {
    for (const std::size_t batch_size : {1u, 13u, 100u, 333u, 1000u}) {
      cases.push_back({batch_size, workers});
    }
  }
  return cases;
}

class BatchSizeSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BatchSizeSweep, AllBatchSizesCoverDataset) {
  auto fx = MakeFixture(333, true, 0.05);
  auto config = SmallConfig(fx, GetParam().batch_size, true);
  config.num_workers = GetParam().workers;
  ReaderPool rdr(fx.store, fx.table, config);
  std::size_t rows = 0;
  while (auto batch = rdr.NextBatch()) rows += batch->batch_size;
  EXPECT_EQ(rows, 333u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchSizeSweep,
                         ::testing::ValuesIn(SweepCases()));

}  // namespace
}  // namespace recd::reader
