// Streaming ingestion subsystem (src/stream/, docs/ARCHITECTURE.md §8).
//
// The two contracts under test:
//  1. Streaming-equals-batch: with one window covering the whole
//     dataset and zero reordering, StreamPipelineRunner delivers the
//     byte-identical batch stream and identical non-timing counters of
//     core::PipelineRunner::Run, for any num_threads.
//  2. Window-boundary dedup loss: a session straddling two ETL windows
//     clusters within each window but not across, the open-session
//     carry-over policy is deterministic (thread count, repetition, and
//     arrival reordering never change landed bytes or counters), and
//     late/unjoined drops are counted, never silent.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "pipeline_counters.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "obs/trace.h"
#include "reader/reader_pool.h"
#include "storage/blob_store.h"
#include "storage/column_file.h"
#include "storage/table.h"
#include "stream/stream_pipeline.h"
#include "stream/traffic_source.h"
#include "stream/windowed_etl.h"
#include "tensor/serialize.h"
#include "train/model.h"

namespace recd::stream {
namespace {

constexpr std::size_t kBatchSize = 256;

// ---- Fingerprinting: a batch's full delivered content. ---------------

template <typename T>
void PutRaw(common::ByteWriter& out, const std::vector<T>& v) {
  out.PutVarint(v.size());
  out.PutBytes(std::as_bytes(std::span<const T>(v)));
}

std::string Fingerprint(const reader::PreprocessedBatch& batch) {
  common::ByteWriter out;
  out.PutVarint(batch.batch_size);
  tensor::SerializeKjt(batch.kjt, out);
  out.PutVarint(batch.groups.size());
  for (const auto& group : batch.groups) tensor::SerializeIkjt(group, out);
  out.PutVarint(batch.dense_dim);
  PutRaw(out, batch.dense);
  PutRaw(out, batch.labels);
  PutRaw(out, batch.session_ids);
  const auto bytes = out.bytes();
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

// ---- Shared fixtures: the pipeline_roundtrip_test dataset shape. -----

datagen::DatasetSpec MakeSpec() {
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.08);
  spec.concurrent_sessions = 256;
  spec.mean_session_size = 10.0;
  return spec;
}

train::ModelConfig MakeModel(const datagen::DatasetSpec& spec) {
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 10'000;
  return model;
}

core::PipelineOptions MakeOptions(std::size_t num_threads) {
  core::PipelineOptions opts;
  opts.num_samples = 3000;
  opts.samples_per_partition = 1000;  // several partitions per window
  opts.rows_per_stripe = 256;
  opts.max_trainer_batches = 2;
  opts.num_threads = num_threads;
  return opts;
}

core::RecdConfig MakeConfig() {
  auto config = core::RecdConfig::Full(kBatchSize);
  config.downsample = etl::DownsampleMode::kPerSession;
  config.downsample_keep_rate = 0.8;
  return config;
}

/// The batch runner's exact data path (datagen → join → downsample →
/// cluster → partition → land → ReaderPool), fingerprinting every
/// delivered batch. Mirrors PipelineRunner::Run minus the trainer.
std::vector<std::string> BatchModeFingerprints(
    const datagen::DatasetSpec& spec, const train::ModelConfig& model,
    const core::PipelineOptions& opts, const core::RecdConfig& config) {
  datagen::TrafficGenerator generator(spec);
  auto traffic = generator.Generate(opts.num_samples);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  if (config.downsample != etl::DownsampleMode::kNone) {
    samples = etl::Downsample(samples, config.downsample,
                              config.downsample_keep_rate, spec.seed);
  }
  if (config.cluster_by_session) etl::ClusterBySession(samples);
  auto partitions =
      etl::PartitionByCount(std::move(samples), opts.samples_per_partition);

  const auto schema = core::MakePipelineSchema(spec);
  storage::BlobStore store;
  storage::WriterOptions wopts;
  wopts.rows_per_stripe = opts.rows_per_stripe;
  const auto landed =
      storage::LandTable(store, "table", schema, partitions, wopts);

  auto loader = core::MakePipelineLoader(model, config);
  reader::ReaderOptions ropts;
  ropts.use_ikjt = config.use_ikjt;
  reader::ReaderPool rdr(store, landed.table, loader, ropts);
  std::vector<std::string> prints;
  while (auto batch = rdr.NextBatch()) prints.push_back(Fingerprint(*batch));
  return prints;
}

StreamResult RunStream(std::size_t num_threads, std::int64_t window_ticks,
                       std::int64_t reorder_ticks,
                       std::vector<std::string>* prints = nullptr) {
  const auto spec = MakeSpec();
  StreamOptions sopts;
  sopts.window_ticks = window_ticks;
  sopts.reorder_ticks = reorder_ticks;
  sopts.scribe_flush_every = 512;  // exercise incremental flushing
  if (prints != nullptr) {
    sopts.batch_observer = [prints](const reader::PreprocessedBatch& b) {
      prints->push_back(Fingerprint(b));
    };
  }
  StreamPipelineRunner runner(spec, MakeModel(spec), train::ZionEx(8),
                              MakeOptions(num_threads), sopts);
  return runner.Run(MakeConfig());
}

using testutil::ExpectPipelineCountersEqual;

// The acceptance test: one whole-dataset window, zero reordering, num
// threads 1 and 8 — byte-identical sample data (full batch
// fingerprints, in order) and identical non-timing counters vs the
// batch PipelineRunner.
TEST(StreamPipelineTest, StreamingEqualsBatchWithWholeDatasetWindow) {
  const auto spec = MakeSpec();
  const auto model = MakeModel(spec);
  const auto config = MakeConfig();
  // Event-time spans options.num_samples ticks; any window >= that
  // covers the whole dataset.
  const std::int64_t whole = 1 << 20;

  core::PipelineRunner batch(spec, model, train::ZionEx(8),
                             MakeOptions(1));
  const auto batch_result = batch.Run(config);
  const auto batch_prints =
      BatchModeFingerprints(spec, model, MakeOptions(1), config);
  ASSERT_FALSE(batch_prints.empty());

  for (const std::size_t num_threads : {std::size_t{1}, std::size_t{8}}) {
    // The streaming runs are traced (the batch side is not): tracing
    // must not change the stream, and the tailing reader emits its
    // batches through the shared reader stage with its spans.
    std::vector<std::string> stream_prints;
    auto& tracer = obs::Tracer::Global();
    tracer.Start();
    const auto stream =
        RunStream(num_threads, whole, /*reorder=*/0, &stream_prints);
    tracer.Stop();
    const std::string trace = tracer.ToJson();
    tracer.Clear();
    EXPECT_NE(trace.find("\"name\":\"reader/convert\""), std::string::npos)
        << "num_threads=" << num_threads;
    EXPECT_NE(trace.find("\"name\":\"reader/process\""), std::string::npos)
        << "num_threads=" << num_threads;
    ExpectPipelineCountersEqual(stream.pipeline, batch_result);
    EXPECT_EQ(stream_prints, batch_prints)
        << "num_threads=" << num_threads;
    EXPECT_EQ(stream.windows_landed, 1u);
    EXPECT_EQ(stream.late_features, 0u);
    EXPECT_EQ(stream.late_events, 0u);
    EXPECT_EQ(stream.unjoined_features, 0u);
    EXPECT_GT(stream.scribe_incremental_flushes, 0u);
  }
}

// Streaming determinism beyond the batch-equal configuration: many
// windows, bounded reordering — results must be a pure function of the
// stream, not of thread count.
TEST(StreamPipelineTest, MultiWindowRunsAreThreadCountInvariant) {
  std::vector<std::string> prints_a;
  std::vector<std::string> prints_b;
  const auto a = RunStream(1, /*window=*/700, /*reorder=*/40, &prints_a);
  const auto b = RunStream(8, /*window=*/700, /*reorder=*/40, &prints_b);

  EXPECT_GT(a.windows_landed, 1u);
  EXPECT_EQ(a.windows_landed, b.windows_landed);
  EXPECT_EQ(a.late_features, b.late_features);
  EXPECT_EQ(a.late_events, b.late_events);
  EXPECT_EQ(a.unjoined_features, b.unjoined_features);
  EXPECT_EQ(a.captured_dedupe_factor, b.captured_dedupe_factor);
  EXPECT_EQ(a.freshness_lag_mean, b.freshness_lag_mean);
  ExpectPipelineCountersEqual(a.pipeline, b.pipeline);
  EXPECT_EQ(prints_a, prints_b);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].samples, b.windows[i].samples);
    EXPECT_EQ(a.windows[i].sessions, b.windows[i].sessions);
    EXPECT_EQ(a.windows[i].dedup_values_before,
              b.windows[i].dedup_values_before);
    EXPECT_EQ(a.windows[i].dedup_values_after,
              b.windows[i].dedup_values_after);
    EXPECT_EQ(a.windows[i].stored_bytes, b.windows[i].stored_bytes);
    EXPECT_EQ(a.windows[i].land_tick, b.windows[i].land_tick);
  }
  // Default lateness matches the reorder bound: nothing may drop.
  EXPECT_EQ(a.late_features, 0u);
  EXPECT_EQ(a.unjoined_features, 0u);
}

// Splitting sessions across windows must cost dedup capture: the same
// data under a smaller window can never capture more.
TEST(StreamPipelineTest, SmallerWindowsCaptureLessDedup) {
  const auto small = RunStream(1, /*window=*/700, /*reorder=*/0);
  const auto whole = RunStream(1, /*window=*/1 << 20, /*reorder=*/0);
  EXPECT_GT(small.windows_landed, 1u);
  EXPECT_LT(small.captured_dedupe_factor, whole.captured_dedupe_factor);
  // Fragmented sessions also show up as double-counted window sessions.
  std::size_t session_fragments = 0;
  for (const auto& w : small.windows) session_fragments += w.sessions;
  std::size_t whole_sessions = 0;
  for (const auto& w : whole.windows) whole_sessions += w.sessions;
  EXPECT_GT(session_fragments, whole_sessions);
  // And the flip side of the trade-off: smaller windows land fresher.
  EXPECT_LT(small.freshness_lag_mean, whole.freshness_lag_mean);
}

// ---- WindowedEtl unit tests: hand-built traffic. ----------------------

StreamMessage FeatureMsg(std::int64_t rid, std::int64_t session,
                         std::int64_t ts, std::vector<tensor::Id> ids,
                         std::int64_t arrival = -1) {
  StreamMessage m;
  m.kind = StreamMessage::Kind::kFeature;
  m.arrival_tick = arrival < 0 ? ts : arrival;
  m.feature.request_id = rid;
  m.feature.session_id = session;
  m.feature.timestamp = ts;
  m.feature.sparse.push_back(std::move(ids));
  return m;
}

StreamMessage EventMsg(std::int64_t rid, std::int64_t session,
                       std::int64_t ts, std::int64_t arrival = -1) {
  StreamMessage m;
  m.kind = StreamMessage::Kind::kEvent;
  m.arrival_tick = arrival < 0 ? ts : arrival;
  m.event.request_id = rid;
  m.event.session_id = session;
  m.event.timestamp = ts;
  m.event.label = 1.0f;
  return m;
}

storage::StorageSchema UnitSchema() {
  storage::StorageSchema schema;
  schema.sparse_names = {"f0"};
  schema.num_dense = 0;
  return schema;
}

WindowedEtlOptions UnitOptions(std::int64_t window_ticks) {
  WindowedEtlOptions opts;
  opts.window_ticks = window_ticks;
  opts.allowed_lateness = 0;
  opts.max_event_delay = 5;
  opts.samples_per_partition = 100;
  opts.dedup_groups = {{0}};
  return opts;
}

/// Two sessions, each with samples in ticks [0,100) and [100,200) and
/// identical sparse rows (pure duplication within a session).
std::vector<StreamMessage> StraddlingTraffic() {
  std::vector<StreamMessage> msgs;
  const auto add = [&](std::int64_t rid, std::int64_t session,
                       std::int64_t ts, std::vector<tensor::Id> ids) {
    msgs.push_back(FeatureMsg(rid, session, ts, std::move(ids)));
    msgs.push_back(EventMsg(rid, session, ts + 1));
  };
  add(1, 1, 10, {1, 2, 3});
  add(2, 2, 15, {7, 8});
  add(3, 1, 20, {1, 2, 3});
  add(4, 1, 110, {1, 2, 3});
  add(5, 2, 115, {7, 8});
  add(6, 1, 120, {1, 2, 3});
  return msgs;
}

struct EtlRun {
  storage::BlobStore store;
  std::vector<LandedWindow> landed;
  std::vector<WindowStats> windows;
  std::size_t late_features = 0;
  std::size_t late_events = 0;
  std::size_t unjoined_features = 0;
  std::vector<std::vector<datagen::Sample>> window_rows;  // read back
};

EtlRun RunEtl(const std::vector<StreamMessage>& msgs,
              std::int64_t window_ticks, common::ThreadPool* pool,
              std::int64_t final_tick = 1000) {
  EtlRun run;
  WindowedEtl etl(UnitOptions(window_ticks), run.store, "t", UnitSchema(),
                  {}, pool, [&run](LandedWindow w) {
                    run.landed.push_back(std::move(w));
                    return true;
                  });
  for (const auto& m : msgs) EXPECT_TRUE(etl.Offer(m));
  EXPECT_TRUE(etl.Finish(final_tick));
  run.windows = etl.windows();
  run.late_features = etl.late_features();
  run.late_events = etl.late_events();
  run.unjoined_features = etl.unjoined_features();
  const auto projection = storage::ReadProjection::All(UnitSchema());
  for (const auto& landed : run.landed) {
    std::vector<datagen::Sample> rows;
    for (const auto& name : landed.files) {
      storage::ColumnFileReader file(run.store, name);
      for (std::size_t s = 0; s < file.num_stripes(); ++s) {
        auto stripe = file.ReadStripe(s, projection);
        for (auto& r : stripe) rows.push_back(std::move(r));
      }
    }
    run.window_rows.push_back(std::move(rows));
  }
  return run;
}

TEST(WindowedEtlTest, SessionSplitAcrossWindowsClustersOnlyWithin) {
  const auto run = RunEtl(StraddlingTraffic(), /*window=*/100, nullptr);
  ASSERT_EQ(run.windows.size(), 2u);
  ASSERT_EQ(run.window_rows.size(), 2u);

  // Both windows hold a fragment of both sessions.
  EXPECT_EQ(run.windows[0].samples, 3u);
  EXPECT_EQ(run.windows[0].sessions, 2u);
  EXPECT_EQ(run.windows[1].samples, 3u);
  EXPECT_EQ(run.windows[1].sessions, 2u);

  // Clustered within each window: session runs are contiguous, ordered
  // by timestamp — but the boundary cuts session 1 in two.
  const auto ids = [](const std::vector<datagen::Sample>& rows) {
    std::vector<std::int64_t> out;
    for (const auto& r : rows) out.push_back(r.session_id);
    return out;
  };
  EXPECT_EQ(ids(run.window_rows[0]),
            (std::vector<std::int64_t>{1, 1, 2}));
  EXPECT_EQ(ids(run.window_rows[1]),
            (std::vector<std::int64_t>{1, 1, 2}));
  EXPECT_EQ(run.window_rows[0][0].timestamp, 10);
  EXPECT_EQ(run.window_rows[0][1].timestamp, 20);
  EXPECT_EQ(run.window_rows[1][0].timestamp, 110);

  // Dedup capture is per window: each window sees 2x for session 1's
  // group (8 values -> 5), not the 4x a whole-dataset window gets.
  EXPECT_EQ(run.windows[0].dedup_values_before, 8u);
  EXPECT_EQ(run.windows[0].dedup_values_after, 5u);

  const auto whole = RunEtl(StraddlingTraffic(), /*window=*/1000, nullptr);
  ASSERT_EQ(whole.windows.size(), 1u);
  EXPECT_EQ(whole.windows[0].dedup_values_before, 16u);
  EXPECT_EQ(whole.windows[0].dedup_values_after, 5u);
  EXPECT_GT(whole.windows[0].captured_dedupe_factor(),
            run.windows[0].captured_dedupe_factor());
}

TEST(WindowedEtlTest, CarryOverPolicyIsDeterministic) {
  // Same stream, repeated, with and without a pool, and with the
  // event-before-feature interleave reordering can produce: identical
  // landed bytes and counters every time.
  auto reordered = StraddlingTraffic();
  // Deliver request 3's outcome before its feature (arrival order is
  // what the stage observes; it must buffer and join identically).
  std::swap(reordered[4], reordered[5]);

  common::ThreadPool pool(4);
  const auto a = RunEtl(StraddlingTraffic(), 100, nullptr);
  const auto b = RunEtl(StraddlingTraffic(), 100, &pool);
  const auto c = RunEtl(reordered, 100, nullptr);
  for (const auto* other : {&b, &c}) {
    ASSERT_EQ(a.window_rows.size(), other->window_rows.size());
    for (std::size_t w = 0; w < a.window_rows.size(); ++w) {
      EXPECT_EQ(a.window_rows[w], other->window_rows[w]);
    }
    EXPECT_EQ(a.late_features, other->late_features);
    EXPECT_EQ(a.late_events, other->late_events);
    EXPECT_EQ(a.unjoined_features, other->unjoined_features);
  }
  EXPECT_EQ(a.late_features, 0u);
  EXPECT_EQ(a.unjoined_features, 0u);
}

TEST(WindowedEtlTest, LateAndUnjoinedDropsAreCountedNotSilent) {
  std::vector<StreamMessage> msgs;
  // A feature whose event never arrives before its window closes.
  msgs.push_back(FeatureMsg(1, 1, 10, {1}));
  // A far-future message closes window 0 (watermark passes 100 + 5).
  msgs.push_back(FeatureMsg(2, 1, 200, {2}, /*arrival=*/200));
  msgs.push_back(EventMsg(2, 1, 201, /*arrival=*/201));
  // Too late: window 0 already closed.
  msgs.push_back(FeatureMsg(3, 1, 50, {3}, /*arrival=*/202));
  // Stale outcome for the unjoined feature; GC must count it.
  msgs.push_back(EventMsg(1, 1, 12, /*arrival=*/203));

  const auto run = RunEtl(msgs, 100, nullptr);
  EXPECT_EQ(run.unjoined_features, 1u);  // request 1
  EXPECT_EQ(run.late_features, 1u);      // request 3
  EXPECT_EQ(run.late_events, 1u);        // request 1's stale outcome
  // Only request 2 landed.
  ASSERT_EQ(run.windows.size(), 1u);
  EXPECT_EQ(run.windows[0].samples, 1u);
  EXPECT_EQ(run.window_rows[0][0].request_id, 2);
}

TEST(TrafficSourceTest, BoundedReorderingIsBoundedAndDeterministic) {
  datagen::TrafficGenerator generator(MakeSpec());
  const auto traffic = generator.Generate(500);
  const TrafficSource a(traffic, /*reorder=*/25, /*seed=*/7);
  const TrafficSource b(traffic, /*reorder=*/25, /*seed=*/7);
  ASSERT_EQ(a.size(), 2 * 500u);
  std::int64_t prev = -1;
  bool displaced = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ma = a.Message(i);
    const auto mb = b.Message(i);
    EXPECT_EQ(ma.arrival_tick, mb.arrival_tick);
    EXPECT_EQ(ma.kind, mb.kind);
    // Arrival order is sorted, and every message arrives within
    // [timestamp, timestamp + reorder].
    EXPECT_GE(ma.arrival_tick, prev);
    prev = ma.arrival_tick;
    const std::int64_t ts = ma.kind == StreamMessage::Kind::kFeature
                                ? ma.feature.timestamp
                                : ma.event.timestamp;
    EXPECT_GE(ma.arrival_tick, ts);
    EXPECT_LE(ma.arrival_tick, ts + 25);
    if (ma.arrival_tick != ts) displaced = true;
  }
  EXPECT_TRUE(displaced);

  const TrafficSource zero(traffic, /*reorder=*/0, /*seed=*/7);
  for (std::size_t i = 0; i < zero.size(); ++i) {
    const auto m = zero.Message(i);
    const std::int64_t ts = m.kind == StreamMessage::Kind::kFeature
                                ? m.feature.timestamp
                                : m.event.timestamp;
    EXPECT_EQ(m.arrival_tick, ts);
  }
}

// The shared PipelineOptions invariants (documented on the struct) are
// enforced at construction by both runners.
TEST(StreamPipelineTest, RejectsInvalidPipelineOptions) {
  const auto spec = MakeSpec();
  const auto model = MakeModel(spec);
  const auto make = [&](core::PipelineOptions opts) {
    StreamOptions sopts;
    sopts.window_ticks = 1 << 20;
    opts.num_samples = 16;
    StreamPipelineRunner runner(spec, model, train::ZionEx(8), opts,
                                sopts);
  };
  core::PipelineOptions opts;
  opts.samples_per_partition = 0;
  EXPECT_THROW(make(opts), std::invalid_argument);
  opts = {};
  opts.rows_per_stripe = 0;
  EXPECT_THROW(make(opts), std::invalid_argument);
  opts = {};
  opts.num_scribe_shards = 0;
  EXPECT_THROW(make(opts), std::invalid_argument);

  StreamOptions bad;
  bad.window_ticks = 0;
  EXPECT_THROW(
      StreamPipelineRunner(spec, model, train::ZionEx(8), {}, bad),
      std::invalid_argument);
  bad = {};
  bad.reorder_ticks = -1;
  EXPECT_THROW(
      StreamPipelineRunner(spec, model, train::ZionEx(8), {}, bad),
      std::invalid_argument);
}

}  // namespace
}  // namespace recd::stream
