// Smoke test for the paper's comparability invariant (§6.2): "the
// clustered table contains the same data as the baseline table".
//
// A PipelineRunner generates traffic once; this test replays it through
// the full ETL → storage → reader round trip under both
// core::RecdConfig::Baseline() and the full RecD config, then asserts the
// two deliver exactly the same logical samples. Clustering may reorder
// rows and IKJTs may re-encode them, but nothing may appear, vanish, or
// change value — otherwise every baseline-vs-RecD comparison in bench/
// would be measuring different data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "pipeline_counters.h"
#include "reader/reader_pool.h"
#include "storage/blob_store.h"
#include "storage/table.h"
#include "tensor/ikjt.h"
#include "tensor/partial_ikjt.h"
#include "train/model.h"

namespace recd::core {
namespace {

constexpr std::size_t kBatchSize = 256;
constexpr std::size_t kNumSamples = 3000;

void AppendBits(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

void AppendId(std::string& out, tensor::Id v) {
  AppendBits(out, &v, sizeof(v));
}

/// One sample's logical content as an order-independent fingerprint:
/// session id, label bits, dense bits, then every sparse feature in
/// sorted key order. Bit-exact floats — both configs read the same
/// generated data, so any difference is a pipeline bug, not tolerance.
std::string EncodeRow(std::int64_t session_id, float label,
                      std::span<const float> dense,
                      const std::map<std::string, std::vector<tensor::Id>>&
                          sparse) {
  std::string out;
  AppendId(out, session_id);
  AppendBits(out, &label, sizeof(label));
  AppendBits(out, dense.data(), dense.size() * sizeof(float));
  for (const auto& [name, ids] : sparse) {
    out += name;
    out += '\0';
    AppendId(out, static_cast<tensor::Id>(ids.size()));
    for (const auto id : ids) AppendId(out, id);
  }
  return out;
}

struct RoundTripResult {
  std::vector<std::string> rows;  // sorted fingerprints
  std::size_t batches_with_ikjts = 0;
};

/// The runner's joined, un-clustered sample stream, rebuilt from the
/// same generator the runner replays.
std::vector<datagen::Sample> JoinedSamples(const PipelineRunner& runner) {
  datagen::TrafficGenerator generator(runner.dataset());
  const auto traffic = generator.Generate(kNumSamples);
  return etl::JoinLogs(traffic.features, traffic.events);
}

/// Replays the runner's joined samples through ETL clustering, columnar
/// landing, and the reader under `config`, expanding every IKJT and
/// partial IKJT back to per-row values. Mirrors PipelineRunner::Run's
/// stages minus preprocessing transforms, which would rewrite values.
/// `num_workers` > 1 reads through the parallel ReaderPool.
RoundTripResult RoundTrip(const PipelineRunner& runner,
                          const RecdConfig& config,
                          std::size_t num_workers = 1) {
  auto samples = JoinedSamples(runner);
  if (config.cluster_by_session) etl::ClusterBySession(samples);
  auto partitions = etl::PartitionByCount(std::move(samples), 4096);

  storage::StorageSchema schema;
  schema.num_dense = runner.dataset().num_dense;
  for (const auto& f : runner.dataset().sparse) {
    schema.sparse_names.push_back(f.name);
  }
  storage::BlobStore store;
  const auto landed =
      storage::LandTable(store, "roundtrip", schema, partitions);

  auto loader = train::MakeDataLoaderConfig(runner.model(), kBatchSize,
                                            config.use_ikjt);
  loader.num_workers = num_workers;
  reader::ReaderOptions ropts;
  ropts.use_ikjt = config.use_ikjt;
  reader::ReaderPool rdr(store, landed.table, loader, ropts);

  RoundTripResult result;
  while (auto batch = rdr.NextBatch()) {
    if (!batch->groups.empty()) ++result.batches_with_ikjts;

    // Reassemble every feature the loader consumed into plain per-row
    // form, whichever representation it arrived in.
    std::map<std::string, const tensor::JaggedTensor*> features;
    std::vector<tensor::KeyedJaggedTensor> expanded;
    expanded.reserve(batch->groups.size());
    for (const auto& key : batch->kjt.keys()) {
      features[key] = &batch->kjt.Get(key);
    }
    for (const auto& group : batch->groups) {
      expanded.push_back(tensor::ExpandToKjt(group));
      for (const auto& key : expanded.back().keys()) {
        features[key] = &expanded.back().Get(key);
      }
    }
    std::vector<tensor::JaggedTensor> expanded_partials;
    expanded_partials.reserve(batch->partials.size());
    for (const auto& partial : batch->partials) {
      expanded_partials.push_back(tensor::ExpandPartialIkjt(partial));
      features[partial.key()] = &expanded_partials.back();
    }

    for (std::size_t i = 0; i < batch->batch_size; ++i) {
      std::map<std::string, std::vector<tensor::Id>> sparse;
      for (const auto& [name, jagged] : features) {
        const auto row = jagged->row(i);
        sparse[name].assign(row.begin(), row.end());
      }
      const std::span<const float> dense(
          batch->dense.data() + i * batch->dense_dim, batch->dense_dim);
      result.rows.push_back(EncodeRow(batch->session_ids[i],
                                      batch->labels[i], dense, sparse));
    }
  }
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

PipelineRunner MakeRunner() {
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.08);
  spec.concurrent_sessions = 256;
  spec.mean_session_size = 10.0;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 10'000;
  PipelineOptions opts;
  opts.num_samples = kNumSamples;
  opts.samples_per_partition = 3000;
  return PipelineRunner(spec, model, train::ZionEx(8), opts);
}

TEST(PipelineRoundTripTest, BaselineAndRecdDeliverIdenticalSampleData) {
  const auto runner = MakeRunner();
  const auto baseline =
      RoundTrip(runner, RecdConfig::Baseline(kBatchSize));
  const auto recd = RoundTrip(runner, RecdConfig::Full(kBatchSize));

  // The RecD leg must actually exercise the IKJT path, or this test
  // proves nothing.
  EXPECT_EQ(baseline.batches_with_ikjts, 0u);
  EXPECT_GT(recd.batches_with_ikjts, 0u);

  ASSERT_EQ(baseline.rows.size(), recd.rows.size());
  ASSERT_FALSE(baseline.rows.empty());
  EXPECT_EQ(baseline.rows, recd.rows);
}

TEST(PipelineRoundTripTest, RoundTripPreservesTheGeneratedSamples) {
  // Neither config may lose samples relative to what ETL joined: the
  // reader must return exactly one row per generated sample.
  const auto runner = MakeRunner();
  const auto recd = RoundTrip(runner, RecdConfig::Full(kBatchSize));
  EXPECT_EQ(recd.rows.size(), JoinedSamples(runner).size());
}

TEST(PipelineRoundTripTest, ParallelReadersDeliverIdenticalSampleData) {
  // The §7-concurrency determinism rule: worker count must never change
  // the delivered sample bytes. Fingerprints are compared *unsorted* —
  // same rows in the same order.
  const auto runner = MakeRunner();
  const auto config = RecdConfig::Full(kBatchSize);
  const auto one = RoundTrip(runner, config, /*num_workers=*/1);
  const auto eight = RoundTrip(runner, config, /*num_workers=*/8);
  ASSERT_FALSE(one.rows.empty());
  EXPECT_GT(eight.batches_with_ikjts, 0u);
  EXPECT_EQ(one.rows, eight.rows);
}

TEST(PipelineRoundTripTest, ParallelRunMatchesSingleThreadedCounters) {
  // PipelineRunner::Run with num_threads = 8 must report identical
  // non-timing counters to num_threads = 1: every parallel stage
  // (Scribe flush, ETL cluster/downsample, stripe encode, stripe fetch)
  // reassembles its output in scan order, so only wall-clock fields may
  // differ. Exact floating-point equality is intentional — both runs
  // accumulate the same values in the same order.
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.08);
  spec.concurrent_sessions = 256;
  spec.mean_session_size = 10.0;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 10'000;
  PipelineOptions opts;
  opts.num_samples = 3000;
  opts.samples_per_partition = 1000;  // several partitions land in parallel
  opts.rows_per_stripe = 256;

  opts.num_threads = 1;
  PipelineRunner single(spec, model, train::ZionEx(8), opts);
  opts.num_threads = 8;
  PipelineRunner parallel(spec, model, train::ZionEx(8), opts);

  auto config = RecdConfig::Full(kBatchSize);
  config.downsample = etl::DownsampleMode::kPerSession;
  config.downsample_keep_rate = 0.8;
  const auto a = single.Run(config);
  const auto b = parallel.Run(config);
  testutil::ExpectPipelineCountersEqual(a, b);
}

}  // namespace
}  // namespace recd::core
