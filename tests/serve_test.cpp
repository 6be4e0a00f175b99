// Tests for the online serving subsystem (src/serve): deterministic
// query generation across load shapes, batcher flush/SLA edge cases,
// baseline-vs-RecD score parity, multi-model determinism across worker
// counts and zoo compositions, trace load scaling, and clean shutdown
// under load.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "datagen/presets.h"
#include "serve/batcher.h"
#include "serve/model_server.h"
#include "serve/model_zoo.h"
#include "serve/query_gen.h"
#include "serve/scheduler.h"
#include "serve/server_runner.h"
#include "train/model.h"

namespace recd::serve {
namespace {

datagen::DatasetSpec MakeSpec(datagen::RmKind kind = datagen::RmKind::kRm2,
                              double scale = 0.08) {
  auto spec = datagen::RmDataset(kind, scale);
  spec.concurrent_sessions = 8;  // few users => requests revisit users
  spec.mean_session_size = 24;   // long-lived serving sessions
  return spec;
}

train::ModelConfig MakeModel(const datagen::DatasetSpec& spec,
                             datagen::RmKind kind = datagen::RmKind::kRm2) {
  auto model = train::RmModel(kind, spec);
  model.emb_hash_size = 2'000;  // small per-worker replicas
  model.emb_dim = 16;
  model.bottom_mlp_hidden = {32};
  model.top_mlp_hidden = {64, 32};
  return model;
}

QueryGenOptions SmallQuery(std::size_t requests = 48,
                           std::size_t candidates = 4) {
  QueryGenOptions q;
  q.num_requests = requests;
  q.candidates = candidates;
  q.qps = 50'000;  // ~20 µs mean gaps: several requests per window
  return q;
}

TraceSpec MakeTrace(QueryGenOptions query,
                    datagen::RmKind kind = datagen::RmKind::kRm2,
                    double scale = 0.08) {
  TraceSpec t;
  t.dataset = MakeSpec(kind, scale);
  t.query = query;
  return t;
}

/// A test-sized zoo member: real RM-variant architecture over the
/// shared dataset, shrunk so per-worker replicas stay cheap; each model
/// gets its own seed and its own batching defaults (heterogeneity is
/// the point of the zoo).
ModelSpec SmallVariant(const datagen::DatasetSpec& dataset,
                       datagen::RmKind kind, std::uint64_t seed) {
  ModelSpec m;
  m.config = train::RmServeVariant(kind, dataset);
  m.config.emb_hash_size = 2'000;
  m.config.emb_dim = 16;
  m.config.bottom_mlp_hidden = {32};
  m.config.top_mlp_hidden = {64, 32};
  m.name = m.config.name;
  m.seed = seed;
  return m;
}

std::vector<ModelSpec> SmallZoo(const datagen::DatasetSpec& dataset,
                                std::size_t size) {
  constexpr datagen::RmKind kKinds[] = {
      datagen::RmKind::kRm1, datagen::RmKind::kRm2, datagen::RmKind::kRm3};
  std::vector<ModelSpec> zoo;
  for (std::size_t m = 0; m < size; ++m) {
    auto spec = SmallVariant(dataset, kKinds[m % 3], 0x100 + m);
    spec.batcher.max_batch_requests = 2 + m;  // per-model batching
    spec.batcher.max_delay_us = 100 * static_cast<std::int64_t>(m + 1);
    zoo.push_back(std::move(spec));
  }
  return zoo;
}

FleetSpec SingleFleet(const datagen::DatasetSpec& dataset,
                      std::size_t workers = 1) {
  ModelSpec m;
  m.config = MakeModel(dataset);
  return FleetSpec::Single(std::move(m), workers);
}

Request MakeRequest(std::int64_t id, std::size_t rows = 1) {
  Request r;
  r.request_id = id;
  r.user_id = id;
  r.rows.resize(rows);
  return r;
}

RunPolicy ReplayPolicy(bool recd) {
  RunPolicy p = recd ? RunPolicy::Recd() : RunPolicy::Baseline();
  BatcherOptions b;
  b.max_batch_requests = 4;
  b.max_delay_us = 100;
  p.batcher = b;
  p.pace_arrivals = false;
  return p;
}

// ---------------------------------------------------------- query gen --

TEST(QueryGeneratorTest, TraceIsDeterministicAndShaped) {
  const auto trace_spec = MakeTrace(SmallQuery(32, 5));
  auto a = QueryGenerator(trace_spec).Generate();
  auto b = QueryGenerator(trace_spec).Generate();
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request_id, b[i].request_id);
    EXPECT_EQ(a[i].user_id, b[i].user_id);
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].model_id, 0u);  // num_models = 1: all route to 0
    ASSERT_EQ(a[i].rows.size(), 5u);
    for (std::size_t c = 0; c < a[i].rows.size(); ++c) {
      EXPECT_EQ(a[i].rows[c], b[i].rows[c]);
    }
    if (i > 0) {
      EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
    }
  }
}

TEST(QueryGeneratorTest, CandidatesShareUserFeaturesExactly) {
  const auto trace_spec = MakeTrace(SmallQuery(16, 6));
  const auto& spec = trace_spec.dataset;
  const auto trace = QueryGenerator(trace_spec).Generate();
  for (const auto& r : trace) {
    const auto& first = r.rows.front();
    for (const auto& row : r.rows) {
      EXPECT_EQ(row.session_id, r.user_id);
      EXPECT_EQ(row.dense, first.dense);  // dense is user/request state
      for (std::size_t f = 0; f < spec.num_sparse(); ++f) {
        if (spec.sparse[f].klass == datagen::FeatureClass::kUser) {
          EXPECT_EQ(row.sparse[f], first.sparse[f])
              << "user feature diverged across candidates: "
              << spec.sparse[f].name;
        }
      }
    }
  }
}

TEST(QueryGeneratorTest, ShapedTracesAreDeterministicAndOrdered) {
  // Every (arrival, size) shape pair replays byte-identically and keeps
  // arrivals non-decreasing; heavy-tailed sizes stay within bounds and
  // actually produce a tail.
  for (const auto arrival : {ArrivalShape::kSteady, ArrivalShape::kBursty,
                             ArrivalShape::kDiurnal}) {
    for (const auto size : {SizeShape::kFixed, SizeShape::kHeavyTailed}) {
      auto q = SmallQuery(64, 3);
      q.arrival = arrival;
      q.size = size;
      q.max_candidates = 12;
      q.num_models = 3;
      const auto trace_spec = MakeTrace(q);
      const auto a = QueryGenerator(trace_spec).Generate();
      const auto b = QueryGenerator(trace_spec).Generate();
      ASSERT_EQ(a.size(), 64u);
      std::size_t max_rows = 0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
        EXPECT_EQ(a[i].model_id, b[i].model_id);
        EXPECT_EQ(a[i].rows.size(), b[i].rows.size());
        EXPECT_LT(a[i].model_id, 3u);
        if (i > 0) {
          EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
        }
        if (size == SizeShape::kFixed) {
          EXPECT_EQ(a[i].rows.size(), 3u);
        } else {
          EXPECT_GE(a[i].rows.size(), 3u);
          EXPECT_LE(a[i].rows.size(), 12u);
        }
        max_rows = std::max(max_rows, a[i].rows.size());
      }
      if (size == SizeShape::kHeavyTailed) {
        EXPECT_GT(max_rows, 3u) << "no tail drawn in 64 requests";
      }
    }
  }
}

TEST(QueryGeneratorTest, SubTraceForModelPartitionsTheTrace) {
  auto q = SmallQuery(60, 2);
  q.num_models = 3;
  const auto trace = QueryGenerator(MakeTrace(q)).Generate();
  std::size_t total = 0;
  for (std::size_t m = 0; m < 3; ++m) {
    const auto sub = SubTraceForModel(trace, m);
    total += sub.size();
    for (const auto& r : sub) {
      EXPECT_EQ(r.model_id, 0u);  // rebased for single-model serving
    }
  }
  EXPECT_EQ(total, trace.size());
}

TEST(QueryGeneratorTest, RejectsBadOptions) {
  auto make = [](QueryGenOptions q) {
    return QueryGenerator(MakeTrace(q));
  };
  QueryGenOptions q;
  q.num_requests = 0;
  EXPECT_THROW(make(q), std::invalid_argument);
  q = {};
  q.candidates = 0;
  EXPECT_THROW(make(q), std::invalid_argument);
  q = {};
  q.qps = 0;
  EXPECT_THROW(make(q), std::invalid_argument);
  q = {};
  q.num_models = 0;
  EXPECT_THROW(make(q), std::invalid_argument);
  q = {};
  q.size = SizeShape::kHeavyTailed;
  q.candidates = 8;
  q.max_candidates = 4;  // cap below floor
  EXPECT_THROW(make(q), std::invalid_argument);
  q = {};
  q.arrival = ArrivalShape::kBursty;
  q.burst_low_x = 0;
  EXPECT_THROW(make(q), std::invalid_argument);
  q = {};
  q.arrival = ArrivalShape::kDiurnal;
  q.diurnal_trough = 0;
  EXPECT_THROW(make(q), std::invalid_argument);
}

// ------------------------------------------------------------- batcher --

TEST(BatcherTest, SizeFlushOnFullBatch) {
  Batcher b({.max_batch_requests = 3, .max_delay_us = 1'000'000});
  EXPECT_TRUE(b.Add(MakeRequest(1), 10).empty());
  EXPECT_TRUE(b.Add(MakeRequest(2), 20).empty());
  auto out = b.Add(MakeRequest(3), 30);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, FlushReason::kSize);
  EXPECT_EQ(out[0].requests.size(), 3u);
  EXPECT_EQ(out[0].formed_us, 30);
  EXPECT_EQ(b.pending_requests(), 0u);
  EXPECT_EQ(b.stats().size_flushes, 1u);
}

TEST(BatcherTest, DeadlineFlushAtWindowExpiry) {
  Batcher b({.max_batch_requests = 8, .max_delay_us = 100});
  (void)b.Add(MakeRequest(1), 50);
  EXPECT_EQ(b.deadline_us(), 150);
  EXPECT_FALSE(b.PollExpired(149).has_value());  // window still open
  auto batch = b.PollExpired(150);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->reason, FlushReason::kDeadline);
  EXPECT_EQ(batch->requests.size(), 1u);
  EXPECT_FALSE(b.deadline_us().has_value());
}

TEST(BatcherTest, AddFlushesExpiredBatchBeforeAdmitting) {
  Batcher b({.max_batch_requests = 8, .max_delay_us = 100});
  (void)b.Add(MakeRequest(1), 0);
  (void)b.Add(MakeRequest(2), 40);
  // Arrival after the window expired: the forming batch must not wait
  // for the newcomer.
  auto out = b.Add(MakeRequest(3), 500);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, FlushReason::kDeadline);
  ASSERT_EQ(out[0].requests.size(), 2u);
  EXPECT_EQ(out[0].requests[0].request_id, 1);
  EXPECT_EQ(b.pending_requests(), 1u);
  EXPECT_EQ(b.deadline_us(), 600);  // newcomer's own window
}

TEST(BatcherTest, ZeroDelayDegeneratesToNoBatching) {
  Batcher b({.max_batch_requests = 8, .max_delay_us = 0});
  for (int i = 1; i <= 4; ++i) {
    auto out = b.Add(MakeRequest(i), i * 10);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].requests.size(), 1u);
  }
  EXPECT_EQ(b.stats().batches, 4u);
  EXPECT_FALSE(b.Flush(100).has_value());
}

TEST(BatcherTest, FinalFlushAndStats) {
  Batcher b({.max_batch_requests = 2, .max_delay_us = 1'000});
  (void)b.Add(MakeRequest(1, 3), 0);
  (void)b.Add(MakeRequest(2, 3), 1);  // size flush
  (void)b.Add(MakeRequest(3, 2), 2);
  auto fin = b.Flush(10);
  ASSERT_TRUE(fin.has_value());
  EXPECT_EQ(fin->reason, FlushReason::kFinal);
  EXPECT_EQ(fin->rows(), 2u);
  const auto& s = b.stats();
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.rows, 8u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.size_flushes, 1u);
  EXPECT_EQ(s.final_flushes, 1u);
}

TEST(BatcherTest, RejectsBackwardsClockAndBadOptions) {
  EXPECT_THROW(Batcher({.max_batch_requests = 0}), std::invalid_argument);
  EXPECT_THROW(Batcher({.max_batch_requests = 1, .max_delay_us = -1}),
               std::invalid_argument);
  Batcher b({.max_batch_requests = 4, .max_delay_us = 10});
  (void)b.Add(MakeRequest(1), 100);
  EXPECT_THROW((void)b.Add(MakeRequest(2), 99), std::invalid_argument);
}

// -------------------------------------------------- end-to-end serving --

void ExpectSameScores(const std::vector<ScoredRequest>& a,
                      const std::vector<ScoredRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a[i];
    const auto& rb = b[i];
    ASSERT_EQ(ra.request_id, rb.request_id);
    ASSERT_EQ(ra.scores.size(), rb.scores.size());
    for (std::size_t k = 0; k < ra.scores.size(); ++k) {
      EXPECT_EQ(ra.scores[k], rb.scores[k])
          << "request " << ra.request_id << " candidate " << k;
    }
  }
}

void ExpectSameScores(const ServeResult& a, const ServeResult& b) {
  ExpectSameScores(a.requests, b.requests);
}

TEST(ServerRunnerTest, BaselineAndRecdScoresAreBitwiseIdentical) {
  const auto trace_spec = MakeTrace(SmallQuery(48, 4));
  ServerRunner runner(trace_spec, SingleFleet(trace_spec.dataset));
  const auto base = runner.Run(ReplayPolicy(/*recd=*/false));
  const auto recd = runner.Run(ReplayPolicy(/*recd=*/true));
  ASSERT_EQ(base.requests.size(), 48u);
  ExpectSameScores(base, recd);
  // RecD must have deduplicated across candidates/requests and saved
  // embedding lookups doing it. A request's K = 4 candidates share its
  // user rows, so the factor is at least K.
  EXPECT_GE(recd.stats.request_dedupe_factor, 4.0);
  EXPECT_DOUBLE_EQ(base.stats.request_dedupe_factor, 1.0);
  EXPECT_LT(recd.stats.embedding_lookups, base.stats.embedding_lookups);
  EXPECT_LT(recd.stats.flops, base.stats.flops);
}

TEST(ServerRunnerTest, ScoresBitwiseIdenticalAcrossKernelBackends) {
  // Scalar and vectorized kernel backends must replay to identical
  // scores, on both serving paths (the kernel layer's bitwise
  // contract, observed end to end through the worker pool). The
  // backend is a ModelSpec knob now — the trace spec is shared.
  const auto trace_spec = MakeTrace(SmallQuery(48, 4));
  auto scalar_fleet = SingleFleet(trace_spec.dataset);
  scalar_fleet.models[0].backend = kernels::KernelBackend::kScalar;
  auto vec_fleet = SingleFleet(trace_spec.dataset);
  vec_fleet.models[0].backend = kernels::KernelBackend::kVectorized;
  ServerRunner scalar_runner(trace_spec, scalar_fleet);
  ServerRunner vec_runner(trace_spec, vec_fleet);
  for (const bool recd : {false, true}) {
    const auto a = scalar_runner.Run(ReplayPolicy(recd));
    const auto b = vec_runner.Run(ReplayPolicy(recd));
    ExpectSameScores(a, b);
  }
}

TEST(ServerRunnerTest, ParityHoldsWithAttentionPooling) {
  // RM1 pools sequence groups with self-attention: O7 at inference.
  const auto trace_spec =
      MakeTrace(SmallQuery(24, 4), datagen::RmKind::kRm1, 0.05);
  ModelSpec m;
  m.config = MakeModel(trace_spec.dataset, datagen::RmKind::kRm1);
  ServerRunner runner(trace_spec, FleetSpec::Single(std::move(m)));
  const auto base = runner.Run(ReplayPolicy(false));
  const auto recd = runner.Run(ReplayPolicy(true));
  ExpectSameScores(base, recd);
  EXPECT_GT(recd.stats.request_dedupe_factor, 1.0);
}

TEST(ServerRunnerTest, PerRequestOutputsIdenticalForAnyWorkerCount) {
  const auto trace_spec = MakeTrace(SmallQuery(64, 4));
  ServerRunner one_runner(trace_spec, SingleFleet(trace_spec.dataset, 1));
  ServerRunner four_runner(trace_spec, SingleFleet(trace_spec.dataset, 4));
  const auto one = one_runner.Run(ReplayPolicy(true));
  const auto four = four_runner.Run(ReplayPolicy(true));
  ExpectSameScores(one, four);
  // Replay mode fixes batch composition, so latency (batching delay),
  // dedupe, and op counters are worker-count invariant too.
  ASSERT_EQ(one.requests.size(), four.requests.size());
  for (std::size_t i = 0; i < one.requests.size(); ++i) {
    EXPECT_EQ(one.requests[i].latency_us, four.requests[i].latency_us);
    // Replay latency is the exact batching delay, which the SLA bounds
    // (deadline flushes are stamped at the deadline itself).
    EXPECT_LE(one.requests[i].latency_us, 100);
  }
  EXPECT_EQ(one.stats.batches, four.stats.batches);
  EXPECT_DOUBLE_EQ(one.stats.request_dedupe_factor,
                   four.stats.request_dedupe_factor);
  EXPECT_DOUBLE_EQ(one.stats.embedding_lookups,
                   four.stats.embedding_lookups);
  EXPECT_DOUBLE_EQ(one.stats.flops, four.stats.flops);
  const auto ba = one.stats.latency_us.buckets();
  const auto bb = four.stats.latency_us.buckets();
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].lo, bb[i].lo);
    EXPECT_EQ(ba[i].count, bb[i].count);
  }
}

TEST(ServerRunnerTest, ReplayRunsAreReproducible) {
  const auto trace_spec = MakeTrace(SmallQuery(32, 3));
  ServerRunner runner(trace_spec, SingleFleet(trace_spec.dataset, 2));
  const auto a = runner.Run(ReplayPolicy(true));
  const auto b = runner.Run(ReplayPolicy(true));
  ExpectSameScores(a, b);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].latency_us, b.requests[i].latency_us);
    EXPECT_EQ(a.requests[i].completion_us, b.requests[i].completion_us);
  }
}

TEST(ServerRunnerTest, PacedModeServesEveryRequestWithSameScores) {
  auto q = SmallQuery(24, 3);
  q.qps = 20'000;  // finishes in ~a millisecond of pacing
  const auto trace_spec = MakeTrace(q);
  ServerRunner runner(trace_spec, SingleFleet(trace_spec.dataset, 2));
  const auto replay = runner.Run(ReplayPolicy(true));
  auto paced = ReplayPolicy(true);
  paced.pace_arrivals = true;
  const auto paced_result = runner.Run(paced);
  // Batch composition differs (wall clock), but scores are row-local:
  // the batcher determinism rule.
  ExpectSameScores(replay, paced_result);
  EXPECT_EQ(paced_result.stats.requests, 24u);
  for (const auto& r : paced_result.requests) {
    EXPECT_GE(r.latency_us, 1);
    EXPECT_GE(r.completion_us, r.arrival_us);
  }
  EXPECT_GT(paced_result.stats.achieved_qps, 0.0);
}

TEST(ServerRunnerTest, BatchSizeSweepNeverLosesRequests) {
  const auto trace_spec = MakeTrace(SmallQuery(40, 2));
  ServerRunner runner(trace_spec, SingleFleet(trace_spec.dataset, 2));
  for (const std::size_t max_requests : {1u, 3u, 40u, 64u}) {
    auto policy = ReplayPolicy(true);
    policy.batcher->max_batch_requests = max_requests;
    const auto r = runner.Run(policy);
    EXPECT_EQ(r.stats.requests, 40u) << "max_requests=" << max_requests;
    EXPECT_EQ(r.requests.size(), 40u);
    EXPECT_EQ(r.stats.rows, 80u);
    if (max_requests == 1) {
      // No coalescing: one scored batch per request.
      EXPECT_EQ(r.stats.batches, 40u);
      EXPECT_DOUBLE_EQ(r.stats.mean_batch_requests, 1.0);
    }
  }
}

TEST(ServerRunnerTest, ZeroCandidateRequestsCompleteWithEmptyScores) {
  // A retrieval stage can emit an empty candidate set; the request must
  // still flow through batching and complete with zero scores, without
  // perturbing its batchmates.
  const auto trace_spec = MakeTrace(SmallQuery(12, 2));
  auto trace = QueryGenerator(trace_spec).Generate();
  trace[3].rows.clear();
  trace[7].rows.clear();
  ServerRunner runner(trace_spec, SingleFleet(trace_spec.dataset, 2), trace);
  for (const bool recd : {false, true}) {
    const auto r = runner.Run(ReplayPolicy(recd));
    ASSERT_EQ(r.requests.size(), 12u);
    EXPECT_EQ(r.stats.requests, 12u);
    EXPECT_EQ(r.stats.rows, 20u);  // two requests contributed nothing
    for (const auto& sr : r.requests) {
      const bool emptied = sr.request_id == 4 || sr.request_id == 8;
      EXPECT_EQ(sr.scores.size(), emptied ? 0u : 2u)
          << "request " << sr.request_id;
      EXPECT_GE(sr.latency_us, 1);
    }
  }
}

TEST(ServerRunnerTest, RejectsTraceRoutedOutsideTheFleet) {
  auto q = SmallQuery(16, 2);
  q.num_models = 3;  // trace routes across 3 models...
  const auto trace_spec = MakeTrace(q);
  // ...but the fleet has one. Both constructors must reject it.
  EXPECT_THROW(ServerRunner(trace_spec, SingleFleet(trace_spec.dataset)),
               std::invalid_argument);
  const auto trace = QueryGenerator(trace_spec).Generate();
  EXPECT_THROW(
      ServerRunner(trace_spec, SingleFleet(trace_spec.dataset), trace),
      std::invalid_argument);
}

// ------------------------------------------------- multi-model serving --

TEST(MultiModelServingTest, ScoresIdenticalAcrossWorkerCounts) {
  // The determinism rule at fleet scale: scores and replay latencies
  // are bitwise invariant to per-lane worker counts, for zoo sizes 1
  // and 3, on both serving paths.
  for (const std::size_t zoo_size : {1u, 3u}) {
    auto q = SmallQuery(72, 3);
    q.num_models = zoo_size;
    const auto trace_spec = MakeTrace(q);
    FleetSpec narrow;
    narrow.models = SmallZoo(trace_spec.dataset, zoo_size);
    narrow.default_workers = 1;
    FleetSpec wide = narrow;
    wide.default_workers = 8;
    ServerRunner narrow_runner(trace_spec, narrow);
    ServerRunner wide_runner(trace_spec, wide);
    for (const bool recd : {false, true}) {
      RunPolicy policy = recd ? RunPolicy::Recd() : RunPolicy::Baseline();
      const auto a = narrow_runner.Run(policy);
      const auto b = wide_runner.Run(policy);
      ExpectSameScores(a, b);
      ASSERT_EQ(a.model_stats.size(), zoo_size);
      for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].latency_us, b.requests[i].latency_us);
        EXPECT_EQ(a.requests[i].model_id, b.requests[i].model_id);
      }
      for (std::size_t m = 0; m < zoo_size; ++m) {
        EXPECT_EQ(a.model_stats[m].batches, b.model_stats[m].batches);
        EXPECT_DOUBLE_EQ(a.model_stats[m].embedding_lookups,
                         b.model_stats[m].embedding_lookups);
      }
    }
  }
}

TEST(MultiModelServingTest, ZooServingMatchesSingleModelSubTraces) {
  // Serving the full trace through a 3-model zoo must score each
  // model's sub-trace bitwise identically — scores AND replay
  // latencies — to serving that sub-trace alone through a single-model
  // fleet (zoo composition cannot leak into results).
  auto q = SmallQuery(72, 3);
  q.num_models = 3;
  const auto trace_spec = MakeTrace(q);
  const auto zoo = SmallZoo(trace_spec.dataset, 3);
  FleetSpec fleet;
  fleet.models = zoo;
  fleet.default_workers = 2;
  ServerRunner zoo_runner(trace_spec, fleet);
  const auto full = zoo_runner.Run(RunPolicy::Recd());

  for (std::size_t m = 0; m < 3; ++m) {
    const auto sub = SubTraceForModel(zoo_runner.trace(), m);
    ASSERT_FALSE(sub.empty());
    ServerRunner solo(trace_spec, FleetSpec::Single(zoo[m]), sub);
    const auto alone = solo.Run(RunPolicy::Recd());

    std::vector<ScoredRequest> from_zoo;
    for (const auto& sr : full.requests) {
      if (sr.model_id == m) from_zoo.push_back(sr);
    }
    ExpectSameScores(from_zoo, alone.requests);
    ASSERT_EQ(from_zoo.size(), alone.requests.size());
    for (std::size_t i = 0; i < from_zoo.size(); ++i) {
      EXPECT_EQ(from_zoo[i].latency_us, alone.requests[i].latency_us)
          << "request " << from_zoo[i].request_id;
    }
    EXPECT_EQ(full.model_stats[m].batches, alone.stats.batches);
    EXPECT_DOUBLE_EQ(full.model_stats[m].embedding_lookups,
                     alone.stats.embedding_lookups);
    EXPECT_DOUBLE_EQ(full.model_stats[m].flops, alone.stats.flops);
  }
}

TEST(MultiModelServingTest, PerModelBatcherOverridesApply) {
  auto q = SmallQuery(48, 2);
  q.num_models = 2;
  const auto trace_spec = MakeTrace(q);
  FleetSpec fleet;
  fleet.models = SmallZoo(trace_spec.dataset, 2);
  ServerRunner runner(trace_spec, fleet);
  RunPolicy policy = RunPolicy::Recd();
  BatcherOptions solo;
  solo.max_batch_requests = 1;  // model 1: no coalescing at all
  solo.max_delay_us = 0;
  policy.batcher_overrides[1] = solo;
  const auto r = runner.Run(policy);
  ASSERT_EQ(r.model_stats.size(), 2u);
  // Model 1 scored one batch per request; model 0 kept its defaults.
  EXPECT_EQ(r.model_stats[1].batches, r.model_stats[1].requests);
  EXPECT_LT(r.model_stats[0].batches, r.model_stats[0].requests);
  EXPECT_EQ(r.stats.requests, 48u);
}

// ------------------------------------------------------ trace scaling --

TEST(SchedulerTest, ScaleTraceCompressesArrivalsOnly) {
  auto q = SmallQuery(32, 3);
  q.qps = 5'000;
  const auto trace = QueryGenerator(MakeTrace(q)).Generate();
  const auto hot = ScaleTrace(trace, 2.0);
  ASSERT_EQ(hot.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(hot[i].request_id, trace[i].request_id);
    EXPECT_EQ(hot[i].rows.size(), trace[i].rows.size());
    EXPECT_LE(hot[i].arrival_us, trace[i].arrival_us);
    if (i > 0) {
      EXPECT_GE(hot[i].arrival_us, hot[i - 1].arrival_us);
    }
  }
  EXPECT_THROW(ScaleTrace(trace, 0.0), std::invalid_argument);
}

// ----------------------------------------------------- model server --

TEST(ModelServerTest, CleanShutdownUnderConcurrentLoad) {
  const auto spec = MakeSpec();
  const auto schema = core::MakePipelineSchema(spec);
  ModelSpec model;
  model.config = MakeModel(spec);
  auto fleet = FleetSpec::Single(std::move(model), /*num_workers=*/3);
  fleet.batch_channel_capacity = 2;  // force producer backpressure
  const std::vector<reader::DataLoaderConfig> loaders = {
      core::MakePipelineLoader(fleet.models[0].config,
                               core::RecdConfig::Full(16))};
  TraceSpec trace_spec;
  trace_spec.dataset = spec;
  trace_spec.query = SmallQuery(96, 2);
  const auto trace = QueryGenerator(trace_spec).Generate();

  ModelServer::Options mopts;
  mopts.recd = true;
  ModelServer server(fleet, schema, loaders, mopts);
  server.Start();

  // Two producers race batches in; Shutdown lands while work is queued.
  std::atomic<std::size_t> accepted{0};
  auto produce = [&](std::size_t begin) {
    for (std::size_t i = begin; i < trace.size(); i += 2) {
      Batch b;
      b.requests.push_back(trace[i]);
      b.formed_us = trace[i].arrival_us;
      if (server.Submit(0, std::move(b))) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread p1(produce, 0);
  std::thread p2(produce, 1);
  p1.join();
  p2.join();
  server.Shutdown();

  // Every accepted batch was scored exactly once, none lost.
  auto scored = server.TakeScored();
  EXPECT_EQ(scored.size(), accepted.load());
  EXPECT_EQ(server.work_stats().requests, accepted.load());
  for (std::size_t i = 1; i < scored.size(); ++i) {
    EXPECT_LT(scored[i - 1].request_id, scored[i].request_id);
  }
  server.Shutdown();  // idempotent
}

TEST(ModelServerTest, SubmitAfterShutdownIsRejected) {
  const auto spec = MakeSpec();
  const auto schema = core::MakePipelineSchema(spec);
  ModelSpec model;
  model.config = MakeModel(spec);
  const auto fleet = FleetSpec::Single(std::move(model));
  const std::vector<reader::DataLoaderConfig> loaders = {
      core::MakePipelineLoader(fleet.models[0].config,
                               core::RecdConfig::Full(16))};
  ModelServer server(fleet, schema, loaders, {});
  server.Start();
  server.Shutdown();
  Batch b;
  b.requests.push_back(MakeRequest(1));
  EXPECT_FALSE(server.Submit(0, std::move(b)));
}

TEST(ModelServerTest, RejectsMismatchedLoaders) {
  const auto spec = MakeSpec();
  const auto schema = core::MakePipelineSchema(spec);
  ModelSpec model;
  model.config = MakeModel(spec);
  const auto fleet = FleetSpec::Single(std::move(model));
  const std::vector<reader::DataLoaderConfig> none;
  EXPECT_THROW(ModelServer(fleet, schema, none, {}), std::invalid_argument);
}

}  // namespace
}  // namespace recd::serve
