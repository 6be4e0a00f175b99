// Tests for the observability layer (docs/ARCHITECTURE.md §14): the
// metrics registry (handle identity, label canonicalization, snapshot
// ordering/merge, exposition formats), the structured tracer (bounded
// buffers, virtual-clock determinism, Stop-straddling spans), the
// snapshot-vs-writers race under TSan, and the observability-
// determinism rule itself — obs on vs off never changes weights,
// losses, scores, or non-timing counters, across rank counts {1, 2, 4}
// and serve worker counts {1, 8}.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "reader/reader_pool.h"
#include "serve/server_runner.h"
#include "storage/table.h"
#include "train/distributed.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd::obs {
namespace {

// ---------------------------------------------------------- registry --

TEST(ObsRegistryTest, CounterGaugeHistogramBasics) {
  Registry reg;
  Counter& c = reg.GetCounter("test.counter");
  c.Add(3);
  c.Increment();
  EXPECT_EQ(c.Value(), 4);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);

  Gauge& g = reg.GetGauge("test.gauge");
  g.Set(7);
  g.Add(-2);
  EXPECT_EQ(g.Value(), 5);

  HistogramMetric& h = reg.GetHistogram("test.hist");
  h.Observe(10);
  h.Observe(0);  // clamps to 1
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total_count(), 2);
  EXPECT_EQ(snap.min(), 1);
  EXPECT_EQ(snap.max(), 10);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(ObsRegistryTest, SameSeriesReturnsSameHandle) {
  Registry reg;
  Counter& a = reg.GetCounter("x", {{"rank", "0"}, {"table", "t"}});
  // Label order must not split the series (canonicalized by key).
  Counter& b = reg.GetCounter("x", {{"table", "t"}, {"rank", "0"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.GetCounter("x", {{"rank", "1"}, {"table", "t"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistryTest, KindMismatchThrows) {
  Registry reg;
  (void)reg.GetCounter("same.name");
  EXPECT_THROW((void)reg.GetGauge("same.name"), std::invalid_argument);
  EXPECT_THROW((void)reg.GetHistogram("same.name"), std::invalid_argument);
}

TEST(ObsRegistryTest, SnapshotIsSortedAndFindable) {
  Registry reg;
  reg.GetCounter("z.last").Add(1);
  reg.GetCounter("a.first").Add(2);
  reg.GetCounter("m.mid", {{"rank", "1"}}).Add(3);
  reg.GetCounter("m.mid", {{"rank", "0"}}).Add(4);
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.entries.size(), 4u);
  EXPECT_EQ(snap.entries[0].name, "a.first");
  EXPECT_EQ(snap.entries[1].name, "m.mid");
  EXPECT_EQ(snap.entries[1].labels,
            (Labels{{"rank", "0"}}));  // label-sorted within a name
  EXPECT_EQ(snap.entries[3].name, "z.last");

  const auto* e = snap.Find("m.mid", {{"rank", "1"}});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 3);
  EXPECT_EQ(snap.Find("m.mid", {{"rank", "9"}}), nullptr);
  EXPECT_EQ(snap.Find("absent"), nullptr);
}

TEST(ObsRegistryTest, ResetValuesKeepsSeriesAndHandles) {
  Registry reg;
  Counter& c = reg.GetCounter("keep.me");
  c.Add(42);
  reg.GetGauge("keep.gauge").Set(9);
  reg.ResetValues();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(c.Value(), 0);  // same handle, zeroed
  EXPECT_EQ(reg.Snapshot().Find("keep.gauge")->value, 0);
}

// ---------------------------------------------------------- snapshot --

TEST(ObsSnapshotTest, MergeSumsCountersOverwritesGaugesMergesHists) {
  Registry a;
  a.GetCounter("c").Add(10);
  a.GetGauge("g").Set(1);
  a.GetHistogram("h").Observe(5);

  Registry b;
  b.GetCounter("c").Add(7);
  b.GetGauge("g").Set(2);
  b.GetHistogram("h").Observe(9);
  b.GetCounter("only.in.b").Add(3);

  auto merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.Find("c")->value, 17);
  EXPECT_EQ(merged.Find("g")->value, 2);  // latest wins
  EXPECT_EQ(merged.Find("h")->histogram.total_count(), 2);
  EXPECT_EQ(merged.Find("h")->histogram.min(), 5);
  EXPECT_EQ(merged.Find("h")->histogram.max(), 9);
  EXPECT_EQ(merged.Find("only.in.b")->value, 3);  // inserted
  ASSERT_EQ(merged.entries.size(), 4u);
  for (std::size_t i = 1; i < merged.entries.size(); ++i) {
    EXPECT_LE(merged.entries[i - 1].name, merged.entries[i].name);
  }
}

TEST(ObsSnapshotTest, WithoutTimingsDropsTimingSuffixedSeries) {
  Registry reg;
  reg.GetCounter("comm.bytes_sent").Add(1);
  reg.GetCounter("comm.wait_us").Add(2);
  reg.GetCounter("etl.window_seconds").Add(3);
  reg.GetCounter("sched.idle_ticks").Add(4);
  reg.GetHistogram("serve.latency_us").Observe(5);
  const auto filtered = reg.Snapshot().WithoutTimings();
  ASSERT_EQ(filtered.entries.size(), 1u);
  EXPECT_EQ(filtered.entries[0].name, "comm.bytes_sent");
}

TEST(ObsSnapshotTest, PrometheusTextAndJsonExposition) {
  Registry reg;
  reg.GetCounter("train.rows", {{"rank", "0"}}).Add(128);
  reg.GetHistogram("serve.latency_us").Observe(50);
  const auto snap = reg.Snapshot();

  const std::string prom = snap.ToPrometheusText();
  EXPECT_NE(prom.find("train.rows{rank=\"0\"} 128"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("serve.latency_us_count 1"), std::string::npos);
  EXPECT_NE(prom.find("serve.latency_us_sum"), std::string::npos);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"series_count\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"train.rows\""), std::string::npos);
  EXPECT_NE(json.find("\"rank\": \"0\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
}

// ------------------------------------------------------------ tracer --

TEST(ObsTracerTest, BoundedBuffersDropLoudly) {
  Tracer& tracer = Tracer::Global();
  TraceOptions options;
  options.virtual_clock = true;
  options.max_events_per_thread = 2;
  tracer.Start(options);
  for (int i = 0; i < 5; ++i) {
    tracer.SetVirtualTimeUs(i);
    RECD_TRACE_SCOPE("test/span");
  }
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped_events(), 3u);
  tracer.Clear();
}

TEST(ObsTracerTest, DisabledScopesRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  ASSERT_FALSE(tracer.enabled());
  {
    RECD_TRACE_SCOPE("test/never");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(ObsTracerTest, SpanStraddlingStopIsDropped) {
  Tracer& tracer = Tracer::Global();
  TraceOptions options;
  options.virtual_clock = true;
  tracer.Start(options);
  {
    RECD_TRACE_SCOPE("test/straddler");
    tracer.Stop();  // span must not be half-recorded
  }
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.Clear();
}

// The tracer-level determinism surface (see obs/trace.h): a fixed
// single-threaded span sequence on the virtual clock renders to
// byte-identical JSON, run after run.
TEST(ObsTracerTest, VirtualClockSequenceRendersByteIdentically) {
  Tracer& tracer = Tracer::Global();
  const auto record_once = [&] {
    TraceOptions options;
    options.virtual_clock = true;
    tracer.Start(options);
    for (int i = 0; i < 4; ++i) {
      tracer.SetVirtualTimeUs(100 * i);
      Tracer::Scope span("test/window", "index", i);
      tracer.SetVirtualTimeUs(100 * i + 25);
    }
    tracer.Stop();
    return tracer.ToJson();
  };
  const std::string first = record_once();
  const std::string second = record_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"name\":\"test/window\""), std::string::npos);
  EXPECT_NE(first.find("\"ts\":300,\"dur\":25"), std::string::npos)
      << first;
  EXPECT_NE(first.find("\"args\":{\"index\":3}"), std::string::npos);
  tracer.Clear();
}

// ------------------------------------------------------------ config --

TEST(ObsConfigTest, ConfigureSetsAndClearsTheEnabledGate) {
  ObsOptions on;
  on.enabled = true;
  Configure(on);
  EXPECT_TRUE(Enabled());
  Configure(ObsOptions{});
  EXPECT_FALSE(Enabled());
}

TEST(ObsConfigTest, FromEnvReadsTheContract) {
  ::setenv("RECD_OBS", "1", 1);
  ::setenv("RECD_OBS_TRACE", "/tmp/recd_obs_test_trace.json", 1);
  const auto options = FromEnv();
  EXPECT_TRUE(options.enabled);
  EXPECT_TRUE(options.trace);
  EXPECT_EQ(options.trace_path, "/tmp/recd_obs_test_trace.json");
  ::unsetenv("RECD_OBS");
  ::unsetenv("RECD_OBS_TRACE");
  const auto off = FromEnv();
  EXPECT_FALSE(off.enabled);
  EXPECT_FALSE(off.trace);
}

// ------------------------------------------------- snapshot-race (TSan) --

// N writer threads hammer one counter, one gauge, and one histogram
// while the main thread snapshots the registry in a loop: the exact
// reader-vs-writers race the registry promises is clean (TSan runs this
// via scripts/check.sh --tsan). Totals are exact once writers quiesce.
TEST(ObsConcurrencyTest, SnapshotsRaceHammeringWriters) {
  Registry reg;
  Counter& counter = reg.GetCounter("hammer.counter");
  Gauge& gauge = reg.GetGauge("hammer.gauge");
  HistogramMetric& hist = reg.GetHistogram("hammer.hist");

  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.Add(1);
        gauge.Set(t);
        if (i % 64 == 0) hist.Observe(i + 1);
      }
      done.fetch_add(1);
    });
  }
  while (done.load() < kThreads) {
    const auto snap = reg.Snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    ASSERT_GE(snap.Find("hammer.counter")->value, 0);
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(counter.Value(), static_cast<std::int64_t>(kThreads) * kIters);
  EXPECT_EQ(hist.snapshot().total_count(),
            static_cast<std::int64_t>(kThreads) * ((kIters + 63) / 64));
  EXPECT_LT(gauge.Value(), kThreads);
}

// --------------------------------------- the observability-determinism --
// rule: obs on (timing metrics + tracing) vs off never changes weights,
// losses, scores, or non-timing counters (docs/ARCHITECTURE.md §14).

struct TrainFixture {
  datagen::DatasetSpec spec;
  train::ModelConfig model;
  storage::BlobStore store;
  storage::Table table;
  reader::PreprocessedBatch batch;
};

TrainFixture MakeTrainFixture() {
  TrainFixture fx;
  fx.spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.05);
  fx.spec.concurrent_sessions = 16;
  fx.model = train::RmModel(datagen::RmKind::kRm1, fx.spec);
  fx.model.emb_hash_size = 5'000;
  datagen::TrafficGenerator gen(fx.spec);
  const auto traffic = gen.Generate(128);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = fx.spec.num_dense;
  for (const auto& f : fx.spec.sparse) {
    schema.sparse_names.push_back(f.name);
  }
  auto landed =
      storage::LandTable(fx.store, "t", schema, {std::move(samples)});
  fx.table = std::move(landed.table);
  reader::ReaderPool rd(fx.store, fx.table,
                        train::MakeDataLoaderConfig(fx.model, 64, true),
                        reader::ReaderOptions{.use_ikjt = true});
  fx.batch = *rd.NextBatch();
  return fx;
}

void ExpectSameMlp(const nn::Mlp& a, const nn::Mlp& b,
                   const std::string& what) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    EXPECT_TRUE(a.layer(l).weights() == b.layer(l).weights())
        << what << ": layer " << l << " weights differ";
  }
}

TEST(ObsDeterminismTest, TrainingIsBitwiseIdenticalWithObsOnOrOff) {
  const auto fx = MakeTrainFixture();
  constexpr int kSteps = 2;
  for (const std::size_t ranks : {1u, 2u, 4u}) {
    train::DistributedConfig config;
    config.num_ranks = ranks;
    config.recd = true;
    config.seed = 11;

    // Pass 1: everything off (the default state).
    Configure(ObsOptions{});
    train::DistributedTrainer off(fx.model, config);
    std::vector<float> off_losses;
    for (int k = 0; k < kSteps; ++k) off_losses.push_back(off.Step(fx.batch));
    const auto off_metrics = [&] {
      auto s = off.metrics().Snapshot();
      s.Merge(off.comm_metrics().Snapshot());
      return s.WithoutTimings().ToPrometheusText();
    }();

    // Pass 2: timing metrics AND tracing on.
    ObsOptions obs_on;
    obs_on.enabled = true;
    obs_on.trace = true;
    Configure(obs_on);
    train::DistributedTrainer on(fx.model, config);
    std::vector<float> on_losses;
    for (int k = 0; k < kSteps; ++k) on_losses.push_back(on.Step(fx.batch));
    // Tracing genuinely ran: exchange spans were recorded, and so was
    // every part of the step between them...
    EXPECT_GT(Tracer::Global().event_count(), 0u);
    const std::string trace = Tracer::Global().ToJson();
    for (const char* span :
         {"train/prep", "train/sdd_build", "train/reassemble",
          "train/grad_alloc", "train/pool", "train/bottom_fwd",
          "train/interaction_fwd", "train/top_fwd", "train/top_bwd",
          "train/interaction_bwd", "train/bottom_bwd", "train/flatten",
          "train/sparse_update", "train/allreduce_sum",
          "train/optimizer"}) {
      EXPECT_NE(trace.find("\"name\":\"" + std::string(span) + "\""),
                std::string::npos)
          << span << " missing at ranks=" << ranks;
    }
    const auto on_metrics = [&] {
      auto s = on.metrics().Snapshot();
      s.Merge(on.comm_metrics().Snapshot());
      return s.WithoutTimings().ToPrometheusText();
    }();
    Configure(ObsOptions{});
    Tracer::Global().Clear();

    // ...and observed training is bitwise-identical to unobserved.
    EXPECT_EQ(off_losses, on_losses) << "ranks=" << ranks;
    ExpectSameMlp(off.bottom_mlp(0), on.bottom_mlp(0), "bottom mlp");
    ExpectSameMlp(off.top_mlp(0), on.top_mlp(0), "top mlp");
    EXPECT_EQ(off_metrics, on_metrics) << "ranks=" << ranks;
  }
}

TEST(ObsDeterminismTest, ServingScoresIdenticalWithObsOnAcrossWorkers) {
  auto spec = datagen::RmDataset(datagen::RmKind::kRm2, 0.08);
  spec.concurrent_sessions = 8;
  auto model = train::RmModel(datagen::RmKind::kRm2, spec);
  model.emb_hash_size = 2'000;
  model.emb_dim = 16;
  model.bottom_mlp_hidden = {32};
  model.top_mlp_hidden = {64, 32};
  serve::TraceSpec trace_spec;
  trace_spec.dataset = spec;
  trace_spec.query.num_requests = 48;
  trace_spec.query.candidates = 4;
  trace_spec.query.qps = 50'000;
  serve::ModelSpec model_spec;
  model_spec.config = model;

  const auto run = [&](std::size_t workers) {
    // Worker counts are a FleetSpec concern; the trace spec is fixed,
    // so every runner replays the identical trace.
    serve::ServerRunner runner(
        trace_spec, serve::FleetSpec::Single(model_spec, workers));
    auto policy = serve::RunPolicy::Recd();
    policy.pace_arrivals = false;
    serve::BatcherOptions batcher;
    batcher.max_batch_requests = 8;
    policy.batcher = batcher;
    return runner.Run(policy);
  };

  Configure(ObsOptions{});
  const auto off = run(1);

  ObsOptions obs_on;
  obs_on.enabled = true;
  obs_on.trace = true;
  obs_on.trace_virtual_clock = true;
  Configure(obs_on);
  for (const std::size_t workers : {1u, 8u}) {
    const auto on = run(workers);
    ASSERT_EQ(on.requests.size(), off.requests.size());
    for (std::size_t i = 0; i < on.requests.size(); ++i) {
      EXPECT_EQ(on.requests[i].request_id, off.requests[i].request_id);
      EXPECT_TRUE(on.requests[i].scores == off.requests[i].scores)
          << "request " << i << " scores diverged (workers=" << workers
          << ")";
    }
    // Non-timing serve counters match too (latency_us is timing-named
    // and excluded; it is identical here anyway — replay-mode latency
    // is the virtual batching delay).
    EXPECT_EQ(on.obs_metrics.WithoutTimings().ToPrometheusText(),
              off.obs_metrics.WithoutTimings().ToPrometheusText());
  }
  EXPECT_GT(Tracer::Global().event_count(), 0u);
  Configure(ObsOptions{});
  Tracer::Global().Clear();
}

}  // namespace
}  // namespace recd::obs
