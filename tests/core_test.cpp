// Tests for the core module: the analytical DedupeFactor model (§4.2),
// the duplication characterization (§3), and the end-to-end pipeline
// runner's cross-system relations.
#include <gtest/gtest.h>

#include "core/characterize.h"
#include "core/dedupe_model.h"
#include "core/pipeline.h"
#include "datagen/presets.h"

namespace recd::core {
namespace {

// ---------------------------------------------------------- DedupeModel --

TEST(DedupeModelTest, PaperWorkedExample) {
  // Paper §4.2: B = S = 3, l(b) = 3, d(b) = 0.5 gives DedupeLen = 6 and
  // DedupeFactor = 1.5.
  EXPECT_DOUBLE_EQ(DedupeModel::DedupeLen(3, 3, 3, 0.5), 6.0);
  EXPECT_DOUBLE_EQ(DedupeModel::DedupeFactor(3, 3, 3, 0.5), 1.5);
}

TEST(DedupeModelTest, NoDuplicationMeansFactorOne) {
  EXPECT_DOUBLE_EQ(DedupeModel::DedupeFactor(10, 100, 16.5, 0.0), 1.0);
}

TEST(DedupeModelTest, FactorGrowsWithSAndD) {
  // The §4.2 observation driving §7's per-session downsampling: factor
  // increases with samples/session and with feature stability.
  const double low_s = DedupeModel::DedupeFactor(10, 4096, 4, 0.9);
  const double high_s = DedupeModel::DedupeFactor(10, 4096, 32, 0.9);
  EXPECT_GT(high_s, low_s);
  const double low_d = DedupeModel::DedupeFactor(10, 4096, 16.5, 0.5);
  const double high_d = DedupeModel::DedupeFactor(10, 4096, 16.5, 0.95);
  EXPECT_GT(high_d, low_d);
}

TEST(DedupeModelTest, PaperRangeFactorsForStableFeatures) {
  // S = 16.5 and d in [0.93, 0.97] lands in the paper's 4-15x range.
  const double lo = DedupeModel::DedupeFactor(100, 2048, 16.5, 0.93);
  const double hi = DedupeModel::DedupeFactor(100, 2048, 16.5, 0.97);
  EXPECT_GT(lo, 4.0);
  EXPECT_LT(hi, 15.0);
}

TEST(DedupeModelTest, InvalidArgsThrow) {
  EXPECT_THROW((void)DedupeModel::DedupeLen(0, 1, 1, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)DedupeModel::DedupeLen(1, 1, 0.5, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)DedupeModel::DedupeLen(1, 1, 1, 1.5),
               std::invalid_argument);
}

// ------------------------------------------------------ characterization --

TEST(CharacterizeTest, HandCraftedPartition) {
  // One session with 3 samples; feature 0 repeats on rows 0/2 (1 exact
  // duplicate of 3 samples = 33.3%); feature 1 never repeats.
  datagen::DatasetSpec spec;
  spec.sparse.resize(2);
  spec.sparse[0].name = "f0";
  spec.sparse[1].name = "f1";
  std::vector<datagen::Sample> partition(3);
  for (std::size_t i = 0; i < 3; ++i) {
    partition[i].session_id = 1;
    partition[i].timestamp = static_cast<std::int64_t>(i);
    partition[i].sparse.resize(2);
  }
  partition[0].sparse[0] = {1, 2};
  partition[1].sparse[0] = {3, 4};
  partition[2].sparse[0] = {1, 2};
  partition[0].sparse[1] = {10};
  partition[1].sparse[1] = {11};
  partition[2].sparse[1] = {12};

  const auto report = AnalyzeDuplication(partition, spec, 4096);
  EXPECT_DOUBLE_EQ(report.mean_samples_per_session, 3.0);
  // Features are sorted by exact pct descending; f0 first.
  ASSERT_EQ(report.features.size(), 2u);
  EXPECT_EQ(report.features[0].name, "f0");
  EXPECT_NEAR(report.features[0].exact_duplicate_pct, 100.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.features[1].exact_duplicate_pct, 0.0);
  // f0 partial: ids {1,2,3,4,1,2}: 6 total, 4 distinct -> 33.3%.
  EXPECT_NEAR(report.features[0].partial_duplicate_pct, 100.0 / 3.0, 1e-9);
  // f1 partial: 3 total, 3 distinct -> 0%.
  EXPECT_DOUBLE_EQ(report.features[1].partial_duplicate_pct, 0.0);
}

TEST(CharacterizeTest, PartialCapturesShiftedLists) {
  // The paper's partial example: two samples, 100-id list shifted by one
  // -> 99/200 = 49.5% partial duplication, 0% exact.
  datagen::DatasetSpec spec;
  spec.sparse.resize(1);
  spec.sparse[0].name = "f";
  std::vector<datagen::Sample> partition(2);
  partition[0].session_id = partition[1].session_id = 5;
  partition[0].sparse.resize(1);
  partition[1].sparse.resize(1);
  for (int i = 0; i < 100; ++i) {
    partition[0].sparse[0].push_back(i);
    partition[1].sparse[0].push_back(i + 1);
  }
  const auto report = AnalyzeDuplication(partition, spec, 4096);
  EXPECT_DOUBLE_EQ(report.features[0].exact_duplicate_pct, 0.0);
  EXPECT_NEAR(report.features[0].partial_duplicate_pct, 49.5, 1e-9);
}

TEST(CharacterizeTest, EmptyPartition) {
  datagen::DatasetSpec spec;
  const auto report = AnalyzeDuplication({}, spec, 128);
  EXPECT_EQ(report.mean_samples_per_session, 0.0);
  EXPECT_TRUE(report.features.empty());
}

TEST(CharacterizeTest, SyntheticDatasetMatchesPaperShape) {
  // The characterization dataset must reproduce the paper's qualitative
  // findings: high mean exact duplication, partial >= exact, user
  // features above item features.
  auto spec = datagen::CharacterizationDataset(16, 0.4);
  spec.mean_session_size = 16.5;
  // Interleave must dwarf the batch for the Fig 3-right effect; S is
  // bounded by samples/(concurrent + retired sessions).
  spec.concurrent_sessions = 1024;
  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(20000);
  std::vector<datagen::Sample> partition;
  for (std::size_t i = 0; i < traffic.features.size(); ++i) {
    datagen::Sample s;
    s.session_id = traffic.features[i].session_id;
    s.sparse = traffic.features[i].sparse;
    partition.push_back(std::move(s));
  }
  const auto report = AnalyzeDuplication(partition, spec, 256);
  EXPECT_GT(report.mean_exact_pct, 50.0);
  EXPECT_GE(report.byte_weighted_partial_pct,
            report.byte_weighted_exact_pct);
  double user_exact = 0;
  double item_exact = 0;
  std::size_t users = 0;
  std::size_t items = 0;
  for (const auto& f : report.features) {
    if (f.klass == datagen::FeatureClass::kUser) {
      user_exact += f.exact_duplicate_pct;
      ++users;
    } else {
      item_exact += f.exact_duplicate_pct;
      ++items;
    }
  }
  EXPECT_GT(user_exact / users, 2.0 * (item_exact / items));
  // Interleaved batches hold ~1 sample per session (Fig 3 right) while
  // the partition-wide S stays much higher.
  EXPECT_LT(report.mean_batch_samples_per_session, 2.5);
  EXPECT_GT(report.mean_samples_per_session,
            2.0 * report.mean_batch_samples_per_session);
}

// -------------------------------------------------------- PipelineRunner --

class PipelineTest : public ::testing::Test {
 protected:
  static PipelineRunner MakeRunner() {
    auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.08);
    // Concurrency above the training batch size so baseline batches are
    // genuinely interleaved, while S stays usefully high.
    spec.concurrent_sessions = 512;
    spec.mean_session_size = 12.0;
    auto model = RmModelForTest(spec);
    PipelineOptions opts;
    opts.num_samples = 6000;
    opts.samples_per_partition = 6000;
    opts.max_trainer_batches = 2;
    return PipelineRunner(spec, model,
                          train::ZionEx(8), opts);
  }
  static train::ModelConfig RmModelForTest(
      const datagen::DatasetSpec& spec) {
    auto model = train::RmModel(datagen::RmKind::kRm1, spec);
    model.emb_hash_size = 10'000;
    return model;
  }
};

TEST_F(PipelineTest, RecdBeatsBaselineAcrossTheBoard) {
  auto runner = MakeRunner();
  const auto base = runner.Run(RecdConfig::Baseline(256));
  const auto recd = runner.Run(RecdConfig::Full(256));
  // O1: session sharding improves Scribe compression.
  EXPECT_GT(recd.scribe_compression_ratio,
            base.scribe_compression_ratio);
  // O2: clustering improves table compression and in-batch coalescing.
  EXPECT_GT(recd.storage_compression_ratio,
            1.2 * base.storage_compression_ratio);
  EXPECT_GT(recd.batch_samples_per_session,
            2.0 * base.batch_samples_per_session);
  // O3: real dedup factor above the worth-it threshold.
  EXPECT_GT(recd.mean_dedupe_factor, DedupeModel::kWorthItThreshold);
  // Readers: fewer bytes read (compression) and sent (IKJT).
  EXPECT_LT(recd.reader_io.bytes_read, base.reader_io.bytes_read);
  EXPECT_LT(recd.reader_io.bytes_sent, base.reader_io.bytes_sent);
  // Trainers: higher throughput.
  EXPECT_GT(recd.trainer_qps, base.trainer_qps);
  EXPECT_LT(recd.trainer.mem_util_max, base.trainer.mem_util_max);
}

TEST_F(PipelineTest, DeterministicAcrossRuns) {
  auto runner = MakeRunner();
  const auto a = runner.Run(RecdConfig::Full(256));
  const auto b = runner.Run(RecdConfig::Full(256));
  EXPECT_DOUBLE_EQ(a.storage_compression_ratio,
                   b.storage_compression_ratio);
  EXPECT_EQ(a.reader_io.bytes_read, b.reader_io.bytes_read);
  EXPECT_DOUBLE_EQ(a.trainer.sdd_bytes, b.trainer.sdd_bytes);
}

TEST_F(PipelineTest, ClusteringAloneDoesNotHelpTrainers) {
  // Fig 9's first bar: a clustered table with KJTs gives ~no trainer
  // gain; IKJTs are required.
  auto runner = MakeRunner();
  RecdConfig ct_only = RecdConfig::Baseline(256);
  ct_only.cluster_by_session = true;
  const auto base = runner.Run(RecdConfig::Baseline(256));
  const auto ct = runner.Run(ct_only);
  EXPECT_NEAR(ct.trainer_qps / base.trainer_qps, 1.0, 0.05);
  // But it *does* help storage.
  EXPECT_GT(ct.storage_compression_ratio,
            base.storage_compression_ratio);
}

TEST_F(PipelineTest, PerSessionDownsamplingPreservesDedupeFactor) {
  // §7: at equal keep-rate, per-session downsampling keeps S (and hence
  // the measured in-batch dedupe factor) far better than per-sample.
  auto runner = MakeRunner();
  auto per_sample = RecdConfig::Full(256);
  per_sample.downsample = etl::DownsampleMode::kPerSample;
  per_sample.downsample_keep_rate = 0.5;
  auto per_session = RecdConfig::Full(256);
  per_session.downsample = etl::DownsampleMode::kPerSession;
  per_session.downsample_keep_rate = 0.5;
  const auto a = runner.Run(per_sample);
  const auto b = runner.Run(per_session);
  EXPECT_GT(b.samples_per_session, 1.5 * a.samples_per_session);
  EXPECT_GT(b.mean_dedupe_factor, a.mean_dedupe_factor);
}

TEST_F(PipelineTest, SamplesPerSessionSurvivesPipeline) {
  auto runner = MakeRunner();
  const auto result = runner.Run(RecdConfig::Full(256));
  EXPECT_GT(result.samples_per_session, 4.0);
}

TEST_F(PipelineTest, RejectsInvalidOptionsAtConstruction) {
  // The documented PipelineOptions invariants: zero-valued sizing knobs
  // throw std::invalid_argument up front instead of failing deep inside
  // Run() or silently misbehaving. The streaming knobs are covered by
  // StreamPipelineTest.RejectsInvalidPipelineOptions.
  const auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.08);
  const auto model = RmModelForTest(spec);
  const auto make = [&](PipelineOptions opts) {
    opts.num_samples = 16;  // keep the would-be construction cheap
    PipelineRunner runner(spec, model, train::ZionEx(8), opts);
  };
  EXPECT_NO_THROW(make({}));
  PipelineOptions opts;
  opts.samples_per_partition = 0;
  EXPECT_THROW(make(opts), std::invalid_argument);
  opts = {};
  opts.rows_per_stripe = 0;
  EXPECT_THROW(make(opts), std::invalid_argument);
  opts = {};
  opts.num_scribe_shards = 0;
  EXPECT_THROW(make(opts), std::invalid_argument);
}

}  // namespace
}  // namespace recd::core
