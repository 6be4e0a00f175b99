// Tests for the executed hybrid-parallel trainer: the Barrier /
// CollectiveGroup primitives (order-deterministic all-reduce for any
// rank count), embedding shard views (out-of-shard rejection), the
// IKJT slice/rebase helpers, and the headline determinism contract —
// after K steps, rank counts {1, 2, 4} produce bitwise-identical
// weights and losses to single-rank ReferenceDlrm::TrainStep, baseline
// and RecD mode alike, while RecD ships strictly fewer sparse bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "nn/embedding_shard.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "tensor/ikjt.h"
#include "tensor/jagged_ops.h"
#include "train/checkpoint.h"
#include "train/collective_group.h"
#include "train/distributed.h"
#include "train/fault.h"
#include "train/model.h"
#include "train/reference.h"

#include "reference_digest.h"

namespace recd::train {
namespace {

// ---------------------------------------------------------------- Barrier --

TEST(BarrierTest, ReleasesAllPartiesAcrossRounds) {
  common::Barrier barrier(4);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        before.fetch_add(1);
        barrier.Arrive();
        after.fetch_add(1);
        barrier.Arrive();  // second barrier so rounds cannot overlap
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(before.load(), 200);
  EXPECT_EQ(after.load(), 200);
}

TEST(BarrierTest, ZeroPartiesThrows) {
  EXPECT_THROW(common::Barrier(0), std::invalid_argument);
}

TEST(BarrierTest, ArriveForTimesOutAndWithdrawsTheArrival) {
  common::Barrier barrier(2);
  // Alone at the barrier: the deadline passes and the arrival is
  // withdrawn, so the barrier's count stays consistent...
  EXPECT_FALSE(barrier.ArriveFor(std::chrono::milliseconds(20)));
  // ...and a later full round still needs both parties and completes.
  std::thread peer([&] { barrier.Arrive(); });
  EXPECT_TRUE(barrier.ArriveFor(std::chrono::seconds(10)));
  peer.join();
}

// -------------------------------------------------------- CollectiveGroup --

TEST(CollectiveGroupTest, AllToAllDeliversBySourceRank) {
  const std::size_t n = 3;
  CollectiveGroup group(n);
  std::vector<std::vector<std::vector<std::int64_t>>> got(n);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      std::vector<std::vector<std::int64_t>> send(n);
      for (std::size_t p = 0; p < n; ++p) {
        send[p] = {static_cast<std::int64_t>(100 * r + p)};
      }
      got[r] = group.AllToAll<std::int64_t>(r, std::move(send),
                                           Exchange::kSdd);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = 0; p < n; ++p) {
      // Rank r's entry p is what p sent to r.
      ASSERT_EQ(got[r][p].size(), 1u);
      EXPECT_EQ(got[r][p][0], static_cast<std::int64_t>(100 * p + r));
    }
  }
}

TEST(CollectiveGroupTest, BytesCountOffRankPayloadOnly) {
  CollectiveGroup group(2);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::vector<std::vector<float>> send(2);
      send[0] = {1.0f, 2.0f};       // 8 bytes
      send[1] = {1.0f, 2.0f, 3.0f}; // 12 bytes
      (void)group.AllToAll<float>(r, std::move(send), Exchange::kEmb);
    });
  }
  for (auto& t : threads) t.join();
  // Rank 0's off-rank payload went to rank 1 (12 bytes) and vice versa.
  EXPECT_EQ(group.bytes_sent(0), 12u);
  EXPECT_EQ(group.bytes_sent(1), 8u);
  group.ResetBytes();
  EXPECT_EQ(group.bytes_sent(0), 0u);
}

TEST(CollectiveGroupTest, AllToAllMovesPayloadsWithoutCopying) {
  // Ranks share one address space, so a payload changes hands by move:
  // the receiver holds the very buffer the sender moved in, for the
  // self-send and the peer send alike.
  CollectiveGroup group(2);
  // sent[r][p]: the buffer rank r moved in for peer p.
  std::vector<std::vector<const float*>> sent(
      2, std::vector<const float*>(2, nullptr));
  std::vector<std::vector<std::vector<float>>> got(2);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::vector<std::vector<float>> send(2, {1.0f, 2.0f, 3.0f});
      for (std::size_t p = 0; p < 2; ++p) sent[r][p] = send[p].data();
      got[r] = group.AllToAll<float>(r, std::move(send), Exchange::kEmb);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t p = 0; p < 2; ++p) {
      EXPECT_EQ(got[r][p].data(), sent[p][r])
          << (p == r ? "self-send" : "peer send") << " to rank " << r;
    }
  }
}

// The seed/state regression the satellite asks for: the all-reduce
// must produce the same bits for every rank count and for repeated
// runs, because it reduces labeled chunks in ascending chunk order
// from zeros — never in arrival order.
TEST(CollectiveGroupTest, AllReduceSumOrderDeterministicForAnyRankCount) {
  // Chunk values chosen so float addition order matters: summing these
  // in a different order changes the low bits.
  const std::size_t chunks = 4;
  const std::size_t width = 3;
  std::vector<std::vector<float>> data = {
      {1e8f, 1.0f, 0.25f},
      {-1.0f, 1e-8f, 3.0f},
      {-1e8f, 7.5f, -0.125f},
      {3.0f, -2.5f, 1e8f},
  };
  // The canonical result: zeros, then += chunk 0..3.
  std::vector<float> expected(width, 0.0f);
  for (const auto& chunk : data) {
    for (std::size_t i = 0; i < width; ++i) expected[i] += chunk[i];
  }

  for (const std::size_t n : {1u, 2u, 4u}) {
    CollectiveGroup group(n);
    std::vector<std::vector<float>> results(n);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < n; ++r) {
      threads.emplace_back([&, r] {
        // Rank r contributes its contiguous share of the chunks — and
        // pushes them in *reverse* order to prove arrival order is
        // irrelevant.
        std::vector<std::pair<std::size_t, std::vector<float>>> mine;
        const std::size_t per = chunks / n;
        for (std::size_t c = (r + 1) * per; c-- > r * per;) {
          mine.emplace_back(c, data[c]);
        }
        results[r] = group.AllReduceSum<float>(r, mine, width,
                                               Exchange::kAllReduce);
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(results[r].size(), width);
      for (std::size_t i = 0; i < width; ++i) {
        EXPECT_EQ(results[r][i], expected[i])
            << "rank " << r << " of " << n << ", element " << i;
      }
    }
  }
}

TEST(CollectiveGroupTest, AllReduceRejectsDuplicateChunkIds) {
  CollectiveGroup group(1);
  std::vector<std::pair<std::size_t, std::vector<float>>> chunks = {
      {0, {1.0f}}, {0, {2.0f}}};
  EXPECT_THROW((void)group.AllReduceSum<float>(0, chunks, 1,
                                               Exchange::kAllReduce),
               std::invalid_argument);
}

TEST(CollectiveGroupTest, AllReduceRejectsChunksOfAnotherWidth) {
  // Ranks disagreeing on the width: each receives a chunk whose count
  // is not its own width and must throw rather than read past it or
  // drop values.
  CollectiveGroup group(2);
  std::vector<int> threw(2, 0);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      const std::size_t width = 2 + r;
      const std::vector<std::pair<std::size_t, std::vector<float>>> mine = {
          {r, std::vector<float>(width, 1.0f)}};
      try {
        (void)group.AllReduceSum<float>(r, mine, width,
                                        Exchange::kAllReduce);
      } catch (const std::runtime_error&) {
        threw[r] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(threw[0], 1);
  EXPECT_EQ(threw[1], 1);
}

TEST(CollectiveGroupTest, ZeroRanksThrows) {
  EXPECT_THROW(CollectiveGroup(0), std::invalid_argument);
}

TEST(CollectiveGroupTest, AbortUnblocksAStrandedRank) {
  // Rank 0 enters an all-to-all whose peer never shows up; Abort must
  // make it throw instead of waiting at the barrier forever.
  CollectiveGroup group(2);
  std::thread t([&] {
    std::vector<std::vector<float>> send(2);
    EXPECT_THROW(
        (void)group.AllToAll<float>(0, std::move(send), Exchange::kEmb),
        std::runtime_error);
  });
  group.Abort();
  t.join();
  // The group stays poisoned: later collectives fail fast.
  std::vector<std::vector<float>> send(2);
  EXPECT_THROW(
      (void)group.AllToAll<float>(1, std::move(send), Exchange::kEmb),
      std::runtime_error);
}

TEST(CollectiveGroupTest, DeadPeerRaisesRankFailureInsteadOfHanging) {
  // Regression: before the peer deadline existed this scenario hung
  // forever — rank 0 waited at the exchange barrier for a peer that
  // never arrives (a dead rank with nobody calling Abort).
  CollectiveGroup group(
      2, CollectiveOptions{.peer_timeout = std::chrono::milliseconds(200)});
  std::vector<std::vector<float>> send(2);
  send[1] = {1.0f};
  EXPECT_THROW(
      (void)group.AllToAll<float>(0, std::move(send), Exchange::kEmb),
      RankFailure);
  // The deadline aborted the group, so a late peer fails fast instead
  // of waiting for a partner that already gave up.
  std::vector<std::vector<float>> late(2);
  EXPECT_THROW(
      (void)group.AllToAll<float>(1, std::move(late), Exchange::kEmb),
      std::runtime_error);
}

// ------------------------------------------------------ EmbeddingShardView --

TEST(EmbeddingShardViewTest, OwnsExactlyTheAddedTables) {
  common::Rng rng(1);
  nn::EmbeddingShardView shard;
  shard.AddTable(3, nn::EmbeddingTable(16, 4, rng));
  shard.AddTable(7, nn::EmbeddingTable(16, 4, rng));
  EXPECT_TRUE(shard.Owns(3));
  EXPECT_TRUE(shard.Owns(7));
  EXPECT_FALSE(shard.Owns(0));
  EXPECT_EQ(shard.num_tables(), 2u);
  EXPECT_EQ(shard.table_ids(), (std::vector<std::size_t>{3, 7}));
  EXPECT_EQ(shard.param_bytes(), 2u * 16 * 4 * sizeof(float));
  EXPECT_EQ(shard.Table(3).dim(), 4u);
}

TEST(EmbeddingShardViewTest, OutOfShardIdRejected) {
  common::Rng rng(1);
  nn::EmbeddingShardView shard;
  shard.AddTable(2, nn::EmbeddingTable(16, 4, rng));
  EXPECT_THROW((void)shard.Table(5), std::out_of_range);
  const auto& const_shard = shard;
  EXPECT_THROW((void)const_shard.Table(5), std::out_of_range);
}

TEST(EmbeddingShardViewTest, DuplicateTableIdRejected) {
  common::Rng rng(1);
  nn::EmbeddingShardView shard;
  shard.AddTable(2, nn::EmbeddingTable(16, 4, rng));
  EXPECT_THROW(shard.AddTable(2, nn::EmbeddingTable(16, 4, rng)),
               std::invalid_argument);
}

// ------------------------------------------------------------- IKJT slice --

TEST(IkjtSliceTest, SliceJaggedRowsRebasesOffsets) {
  const auto jt = tensor::JaggedTensor::FromRows({{1, 2}, {}, {3}, {4, 5}});
  const auto sliced = tensor::SliceJaggedRows(jt, 1, 4);
  ASSERT_EQ(sliced.num_rows(), 3u);
  EXPECT_TRUE(sliced.row(0).empty());
  EXPECT_EQ(sliced.row(1)[0], 3);
  EXPECT_EQ(sliced.row(2)[1], 5);
  EXPECT_THROW((void)tensor::SliceJaggedRows(jt, 3, 2), std::out_of_range);
  EXPECT_THROW((void)tensor::SliceJaggedRows(jt, 0, 5), std::out_of_range);
}

TEST(IkjtSliceTest, SliceMatchesFromScratchDeduplication) {
  // Batch with duplicated rows straddling the slice boundary.
  tensor::KeyedJaggedTensor kjt;
  kjt.AddFeature("a", tensor::JaggedTensor::FromRows(
                          {{1, 2}, {1, 2}, {3}, {3}, {1, 2}, {9}}));
  kjt.AddFeature("b", tensor::JaggedTensor::FromRows(
                          {{5}, {5}, {6, 7}, {6, 7}, {5}, {}}));
  const std::vector<std::string> keys = {"a", "b"};
  const auto full = tensor::DeduplicateGroup(kjt, keys);

  const std::size_t lo = 2;
  const std::size_t hi = 6;
  const auto sliced = tensor::SliceIkjt(full, lo, hi);

  // Re-deduplicate the sliced expanded rows from scratch.
  tensor::KeyedJaggedTensor sliced_kjt;
  sliced_kjt.AddFeature("a",
                        tensor::SliceJaggedRows(kjt.Get("a"), lo, hi));
  sliced_kjt.AddFeature("b",
                        tensor::SliceJaggedRows(kjt.Get("b"), lo, hi));
  const auto fresh = tensor::DeduplicateGroup(sliced_kjt, keys);

  ASSERT_EQ(sliced.batch_size(), fresh.batch_size());
  ASSERT_EQ(sliced.unique_rows(), fresh.unique_rows());
  for (const auto& key : keys) {
    EXPECT_TRUE(sliced.Unique(key) == fresh.Unique(key));
  }
  for (std::size_t i = 0; i < sliced.batch_size(); ++i) {
    EXPECT_EQ(sliced.inverse_lookup()[i], fresh.inverse_lookup()[i]);
  }
  EXPECT_THROW((void)tensor::SliceIkjt(full, 0, 7), std::out_of_range);
}

// ---------------------------------------------------- DistributedTrainer --

struct Fixture {
  datagen::DatasetSpec spec;
  ModelConfig model;
  storage::BlobStore store;
  storage::Table table;
  reader::PreprocessedBatch recd_batch;
  reader::PreprocessedBatch base_batch;
};

Fixture MakeFixture(std::size_t batch_size = 128, double scale = 0.05,
                    datagen::RmKind kind = datagen::RmKind::kRm1) {
  Fixture fx;
  fx.spec = datagen::RmDataset(kind, scale);
  fx.spec.concurrent_sessions = 16;  // heavy in-batch duplication
  fx.model = RmModel(kind, fx.spec);
  fx.model.emb_hash_size = 5'000;  // keep tables small
  datagen::TrafficGenerator gen(fx.spec);
  const auto traffic = gen.Generate(batch_size * 2);
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

void ExpectSameMlp(const nn::Mlp& a, const nn::Mlp& b,
                   const std::string& what) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    EXPECT_TRUE(a.layer(l).weights() == b.layer(l).weights())
        << what << ": layer " << l << " weights differ";
    const auto ba = a.layer(l).bias();
    const auto bb = b.layer(l).bias();
    ASSERT_EQ(ba.size(), bb.size());
    EXPECT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin()))
        << what << ": layer " << l << " bias differs";
  }
}

void ExpectMatchesReference(const DistributedTrainer& dist,
                            const ReferenceDlrm& ref,
                            const std::string& what) {
  for (std::size_t r = 0; r < dist.config().num_ranks; ++r) {
    ExpectSameMlp(dist.bottom_mlp(r), ref.bottom_mlp(),
                  what + " bottom rank " + std::to_string(r));
    ExpectSameMlp(dist.top_mlp(r), ref.top_mlp(),
                  what + " top rank " + std::to_string(r));
  }
  const auto order = ModelTableOrder(dist.model());
  for (std::size_t t = 0; t < order.size(); ++t) {
    EXPECT_TRUE(dist.table(t).weights() == ref.table(order[t]).weights())
        << what << ": table " << order[t] << " differs";
  }
}

constexpr float kLr = 0.05f;
constexpr int kSteps = 3;

TEST(DistributedTrainerTest, BitwiseMatchesReferenceForEveryRankCount) {
  auto fx = MakeFixture();
  ReferenceDlrm ref(fx.model, /*seed=*/42);
  std::vector<float> ref_losses;
  for (int k = 0; k < kSteps; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }
  // The reference's losses and weights, recorded before ReferenceDlrm
  // and DistributedTrainer shared one step: the shared math still
  // reproduces the independently written reference.
  constexpr std::uint64_t kReferenceGolden = 0xb364ebb73547239e;
  EXPECT_EQ(testutil::ReferenceDigest(ref, ref_losses), kReferenceGolden);

  for (const std::size_t n : {1u, 2u, 4u}) {
    for (const bool recd : {false, true}) {
      DistributedConfig config;
      config.num_ranks = n;
      config.recd = recd;
      config.lr = kLr;
      config.seed = 42;
      DistributedTrainer dist(fx.model, config);
      const auto& batch = recd ? fx.recd_batch : fx.base_batch;
      const std::string what = (recd ? "recd" : "base") + std::string("/") +
                               std::to_string(n) + " ranks";
      for (int k = 0; k < kSteps; ++k) {
        const float loss = dist.Step(batch);
        EXPECT_EQ(loss, ref_losses[static_cast<std::size_t>(k)])
            << what << ": loss differs at step " << k;
      }
      ExpectMatchesReference(dist, ref, what);
    }
  }
}

TEST(DistributedTrainerTest, VectorizedBackendBitwiseMatchesScalarReference) {
  // The determinism matrix crossed with the kernel layer: a *scalar*
  // single-rank reference against *vectorized* distributed runs at
  // every rank count, both batch forms. Bitwise-equal losses and
  // weights prove the SIMD kernels honor the reduction-order contract
  // through the all-reduce and the sharded sparse updates.
  auto fx = MakeFixture();
  ReferenceDlrm ref(fx.model, /*seed=*/42);
  ref.SetKernelBackend(kernels::KernelBackend::kScalar);
  std::vector<float> ref_losses;
  for (int k = 0; k < kSteps; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }

  for (const std::size_t n : {1u, 2u, 4u}) {
    for (const bool recd : {false, true}) {
      DistributedConfig config;
      config.num_ranks = n;
      config.recd = recd;
      config.lr = kLr;
      config.seed = 42;
      config.backend = kernels::KernelBackend::kVectorized;
      DistributedTrainer dist(fx.model, config);
      const auto& batch = recd ? fx.recd_batch : fx.base_batch;
      const std::string what = std::string("vectorized ") +
                               (recd ? "recd" : "base") + "/" +
                               std::to_string(n) + " ranks";
      for (int k = 0; k < kSteps; ++k) {
        const float loss = dist.Step(batch);
        EXPECT_EQ(loss, ref_losses[static_cast<std::size_t>(k)])
            << what << ": loss differs at step " << k;
      }
      ExpectMatchesReference(dist, ref, what);
    }
  }
}

// Every counter after one step, recorded when the exchanges still
// shipped byte frames: the typed payloads must count the same bytes.
struct CounterPin {
  std::size_t ranks;
  bool recd;
  ExchangeCounters want;
};
constexpr CounterPin kCounterPins[] = {
    {2, false, {102624, 688128, 688128, 5650608, 20188, 20188}},
    {2, true, {38584, 262656, 688128, 5650608, 20188, 4993}},
    {4, false, {156568, 1032192, 1032192, 16951824, 20188, 20188}},
    {4, true, {61128, 408576, 1032192, 16951824, 20188, 5225}},
};

void ExpectCountersPinned(const ExchangeCounters& got, std::size_t ranks,
                          bool recd) {
  for (const auto& pin : kCounterPins) {
    if (pin.ranks != ranks || pin.recd != recd) continue;
    const std::string what = std::string(recd ? "recd" : "base") + "/" +
                             std::to_string(ranks) + " ranks";
    EXPECT_EQ(got.sdd_bytes, pin.want.sdd_bytes) << what;
    EXPECT_EQ(got.emb_bytes, pin.want.emb_bytes) << what;
    EXPECT_EQ(got.grad_bytes, pin.want.grad_bytes) << what;
    EXPECT_EQ(got.allreduce_bytes, pin.want.allreduce_bytes) << what;
    EXPECT_EQ(got.values_logical, pin.want.values_logical) << what;
    EXPECT_EQ(got.values_shipped, pin.want.values_shipped) << what;
    return;
  }
  ADD_FAILURE() << "no counter pin for " << ranks << " ranks";
}

TEST(DistributedTrainerTest, RecdShipsStrictlyFewerSparseBytes) {
  auto fx = MakeFixture();
  for (const std::size_t n : {2u, 4u}) {
    DistributedConfig base_config;
    base_config.num_ranks = n;
    base_config.recd = false;
    DistributedConfig recd_config = base_config;
    recd_config.recd = true;

    DistributedTrainer base(fx.model, base_config);
    DistributedTrainer recd(fx.model, recd_config);
    (void)base.Step(fx.base_batch);
    (void)recd.Step(fx.recd_batch);

    const auto b = base.TotalCounters();
    const auto r = recd.TotalCounters();
    ExpectCountersPinned(b, n, false);
    ExpectCountersPinned(r, n, true);
    EXPECT_LT(r.sdd_bytes, b.sdd_bytes) << n << " ranks";
    EXPECT_LT(r.emb_bytes, b.emb_bytes) << n << " ranks";
    EXPECT_GT(r.exchange_dedupe_factor(), 1.1) << n << " ranks";
    EXPECT_DOUBLE_EQ(b.exchange_dedupe_factor(), 1.0);
    // The mirror gradient all-to-all and the MLP all-reduce ship
    // per-row grads / replicated dense grads — mode-independent.
    EXPECT_EQ(r.grad_bytes, b.grad_bytes);
    EXPECT_EQ(r.allreduce_bytes, b.allreduce_bytes);
    // Every comm series is one of the four executed exchanges: three
    // families x n ranks x 4 tags, and no untagged "none" series.
    const auto comm = recd.comm_metrics().Snapshot();
    EXPECT_EQ(comm.entries.size(), 3 * n * 4) << n << " ranks";
    for (const auto& entry : comm.entries) {
      for (const auto& [key, value] : entry.labels) {
        if (key != "exchange") continue;
        EXPECT_TRUE(value == "sdd" || value == "emb" || value == "grad" ||
                    value == "allreduce")
            << entry.SeriesName();
      }
    }
  }
}

TEST(DistributedTrainerTest, SingleRankSendsNoWireBytes) {
  auto fx = MakeFixture(64);
  DistributedConfig config;
  config.num_ranks = 1;
  DistributedTrainer dist(fx.model, config);
  (void)dist.Step(fx.base_batch);
  EXPECT_EQ(dist.TotalCounters().total_bytes(), 0u);
}

TEST(DistributedTrainerTest, ShardPartitionCoversEveryTableOnce) {
  auto fx = MakeFixture(64);
  DistributedConfig config;
  config.num_ranks = 4;
  DistributedTrainer dist(fx.model, config);
  const auto units = ModelPlacementUnits(fx.model);
  std::vector<bool> seen(fx.model.num_tables(), false);
  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::size_t owner = dist.OwnerOfTable(units[u].table_ids[0]);
    EXPECT_LT(owner, 4u);
    for (const auto tid : units[u].table_ids) {
      // A group's tables stay together (the shared inverse is local).
      EXPECT_EQ(dist.OwnerOfTable(tid), owner);
      EXPECT_FALSE(seen[tid]);
      seen[tid] = true;
      (void)dist.table(tid);  // reachable through its owner
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](bool s) { return s; }));
}

TEST(DistributedTrainerTest, InvalidConfigurationsThrow) {
  auto fx = MakeFixture(64);
  DistributedConfig three;
  three.num_ranks = 3;  // does not divide kGradChunks
  EXPECT_THROW(DistributedTrainer(fx.model, three), std::invalid_argument);
  DistributedConfig zero;
  zero.num_ranks = 0;
  EXPECT_THROW(DistributedTrainer(fx.model, zero), std::invalid_argument);

  DistributedConfig recd_config;
  recd_config.num_ranks = 2;
  recd_config.recd = true;
  DistributedTrainer dist(fx.model, recd_config);
  // RecD mode needs IKJT groups in the batch.
  EXPECT_THROW((void)dist.Step(fx.base_batch), std::invalid_argument);

  DistributedConfig base_config;
  base_config.num_ranks = 2;
  DistributedTrainer base(fx.model, base_config);
  reader::PreprocessedBatch empty;
  EXPECT_THROW((void)base.Step(empty), std::invalid_argument);
}

// ------------------------------------------------------ fault tolerance --

// Tiny model variant for the fault/recovery matrix: dozens of runner
// incarnations each write checkpoint files, so shrink the tables and
// MLPs (batches are id-level and unaffected — tables hash ids by
// modulo at lookup).
Fixture MakeTinyFixture() {
  auto fx = MakeFixture(64);
  fx.model.emb_hash_size = 500;
  fx.model.emb_dim = 32;
  fx.model.bottom_mlp_hidden = {64};
  fx.model.top_mlp_hidden = {64, 32};
  return fx;
}

TEST(DistributedTrainerTest, StragglerDelayChangesTimingNotResults) {
  auto fx = MakeTinyFixture();
  ReferenceDlrm ref(fx.model, /*seed=*/42);
  std::vector<float> ref_losses;
  for (int k = 0; k < kSteps; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }

  FaultInjector injector;
  injector.Arm(Fault{.kind = Fault::Kind::kDelayRank,
                     .step = 1,
                     .rank = 1,
                     .exchange = Exchange::kEmb,
                     .delay = std::chrono::milliseconds(100)});
  DistributedConfig config;
  config.num_ranks = 2;
  config.lr = kLr;
  config.seed = 42;
  // Generous deadline: a straggler is slow, not dead — the run must
  // absorb the delay without declaring a failure.
  config.peer_timeout = std::chrono::seconds(60);
  config.injector = &injector;
  DistributedTrainer dist(fx.model, config);
  for (int k = 0; k < kSteps; ++k) {
    injector.BeginStep(static_cast<std::size_t>(k));
    EXPECT_EQ(dist.Step(fx.base_batch),
              ref_losses[static_cast<std::size_t>(k)])
        << "straggler: loss differs at step " << k;
  }
  EXPECT_EQ(injector.faults_fired(), 1u);
  ExpectMatchesReference(dist, ref, "straggler");
}

// The recovery-determinism matrix: kill any rank at any of the four
// exchanges of step 1, restore at any valid rank count, base and RecD
// mode alike — the recovered run's losses and final weights must be
// bitwise identical to an uninterrupted reference run.
TEST(FaultToleranceTest, KillRestoreMatrixIsBitwiseDeterministic) {
  auto fx = MakeTinyFixture();
  ReferenceDlrm ref(fx.model, /*seed=*/42);
  std::vector<float> ref_losses;
  for (int k = 0; k < kSteps; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }

  const Exchange kExchanges[] = {Exchange::kSdd, Exchange::kEmb,
                                 Exchange::kGrad, Exchange::kAllReduce};
  int combo = 0;
  for (const bool recd : {false, true}) {
    for (const std::size_t kill_rank : {0u, 1u}) {
      for (const Exchange exchange : kExchanges) {
        for (const std::size_t restore_ranks : {1u, 2u, 4u}) {
          const std::string what =
              std::string(recd ? "recd" : "base") + ": kill rank " +
              std::to_string(kill_rank) + " at " + ExchangeName(exchange) +
              ", restore at " + std::to_string(restore_ranks) + " ranks";
          FaultInjector injector;
          injector.Arm(Fault{.kind = Fault::Kind::kKillRank,
                             .step = 1,
                             .rank = kill_rank,
                             .exchange = exchange});
          ElasticRunOptions options;
          options.total_steps = static_cast<std::size_t>(kSteps);
          options.checkpoint_every = 1;
          options.checkpoint_dir = ::testing::TempDir() + "/recd_matrix_" +
                                   std::to_string(::getpid()) + "_" +
                                   std::to_string(combo++);
          std::filesystem::remove_all(options.checkpoint_dir);
          options.rank_schedule = {2, restore_ranks};
          options.trainer.lr = kLr;
          options.trainer.seed = 42;
          options.trainer.recd = recd;
          FaultTolerantRunner runner(fx.model, options, &injector);
          const auto result = runner.Run(
              [&](std::size_t) -> const reader::PreprocessedBatch& {
                return recd ? fx.recd_batch : fx.base_batch;
              });
          EXPECT_EQ(result.failures, 1u) << what;
          EXPECT_EQ(injector.faults_fired(), 1u) << what;
          EXPECT_EQ(runner.trainer().config().num_ranks, restore_ranks)
              << what;
          ASSERT_EQ(result.losses.size(), ref_losses.size()) << what;
          for (std::size_t k = 0; k < ref_losses.size(); ++k) {
            EXPECT_EQ(result.losses[k], ref_losses[k])
                << what << ": loss differs at step " << k;
          }
          ExpectMatchesReference(runner.trainer(), ref, what);
          std::filesystem::remove_all(options.checkpoint_dir);
        }
      }
    }
  }
}

}  // namespace
}  // namespace recd::train
