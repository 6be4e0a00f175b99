// Tests for deterministic checkpoint/restore: the checksummed file
// envelope (damage is rejected, never partially decoded), bitwise
// round trips through CaptureCheckpoint/Serialize/Save/Load, the
// reshard-restore rule (a checkpoint taken at rank count R restores at
// any R' in {1, 2, 4} and the continued run stays bitwise identical to
// an uninterrupted one), and the FaultTolerantRunner's recovery
// ladder: newest checkpoint, older checkpoint when the newest is
// corrupt, and fresh-from-seed when nothing loads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum_file.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/checkpoint.h"
#include "train/distributed.h"
#include "train/fault.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd::train {
namespace {

// ------------------------------------------------------- checksum_file --

std::string TempPath(const std::string& tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "/recd_cksum_" + tag + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

std::vector<std::byte> Payload(std::initializer_list<int> values) {
  std::vector<std::byte> p;
  for (const int v : values) p.push_back(static_cast<std::byte>(v));
  return p;
}

TEST(ChecksumFileTest, RoundTripsPayload) {
  const auto path = TempPath("roundtrip");
  const auto payload = Payload({1, 2, 3, 250, 0, 7});
  common::WriteChecksummedFile(path, 0xABCD1234u, 3, payload);
  EXPECT_EQ(common::ReadChecksummedFile(path, 0xABCD1234u, 3), payload);
  // A higher reader ceiling still accepts version 3.
  EXPECT_EQ(common::ReadChecksummedFile(path, 0xABCD1234u, 9), payload);
  std::remove(path.c_str());
}

TEST(ChecksumFileTest, EmptyPayloadRoundTrips) {
  const auto path = TempPath("empty");
  common::WriteChecksummedFile(path, 1u, 1, {});
  EXPECT_TRUE(common::ReadChecksummedFile(path, 1u, 1).empty());
  std::remove(path.c_str());
}

TEST(ChecksumFileTest, WrongMagicRejected) {
  const auto path = TempPath("magic");
  common::WriteChecksummedFile(path, 0xAAAAAAAAu, 1, Payload({1}));
  EXPECT_THROW((void)common::ReadChecksummedFile(path, 0xBBBBBBBBu, 1),
               common::ChecksumError);
  std::remove(path.c_str());
}

TEST(ChecksumFileTest, NewerVersionRejected) {
  const auto path = TempPath("version");
  common::WriteChecksummedFile(path, 1u, 5, Payload({1}));
  EXPECT_THROW((void)common::ReadChecksummedFile(path, 1u, 4),
               common::ChecksumError);
  std::remove(path.c_str());
}

TEST(ChecksumFileTest, MissingFileRejected) {
  EXPECT_THROW(
      (void)common::ReadChecksummedFile(TempPath("missing"), 1u, 1),
      common::ChecksumError);
}

TEST(ChecksumFileTest, TruncationAtAnyPointRejected) {
  const auto path = TempPath("trunc");
  common::WriteChecksummedFile(path, 1u, 1, Payload({9, 8, 7, 6}));
  const auto full_size = std::filesystem::file_size(path);
  // Chop the file at every prefix length: header cuts, payload cuts,
  // and a missing checksum must all be rejected.
  for (std::uintmax_t keep = 0; keep < full_size; ++keep) {
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW((void)common::ReadChecksummedFile(path, 1u, 1),
                 common::ChecksumError)
        << "accepted a file truncated to " << keep << " bytes";
    // Rewrite for the next iteration (resize_file only shrinks).
    common::WriteChecksummedFile(path, 1u, 1, Payload({9, 8, 7, 6}));
  }
  std::remove(path.c_str());
}

TEST(ChecksumFileTest, TrailingBytesRejected) {
  const auto path = TempPath("trailing");
  common::WriteChecksummedFile(path, 1u, 1, Payload({1, 2}));
  std::ofstream(path, std::ios::binary | std::ios::app) << 'x';
  EXPECT_THROW((void)common::ReadChecksummedFile(path, 1u, 1),
               common::ChecksumError);
  std::remove(path.c_str());
}

TEST(ChecksumFileTest, FlippedPayloadByteRejected) {
  const auto path = TempPath("corrupt");
  const auto payload = Payload({1, 2, 3, 4, 5});
  common::WriteChecksummedFile(path, 1u, 1, payload);
  common::CorruptChecksummedFile(path, /*payload_offset=*/2);
  EXPECT_THROW((void)common::ReadChecksummedFile(path, 1u, 1),
               common::ChecksumError);
  std::remove(path.c_str());
}

TEST(ChecksumFileTest, CorruptHelperNeedsAPayload) {
  const auto path = TempPath("nopayload");
  common::WriteChecksummedFile(path, 1u, 1, {});
  EXPECT_THROW(common::CorruptChecksummedFile(path, 0),
               common::ChecksumError);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- checkpoint --

struct Fixture {
  datagen::DatasetSpec spec;
  ModelConfig model;
  storage::BlobStore store;
  storage::Table table;
  reader::PreprocessedBatch recd_batch;
  reader::PreprocessedBatch base_batch;
};

// Small model so the many runner incarnations (each writing multiple
// checkpoint files) stay fast: a few dozen 500x32 tables.
Fixture MakeFixture(std::size_t batch_size = 64) {
  Fixture fx;
  fx.spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.05);
  fx.spec.concurrent_sessions = 16;  // heavy in-batch duplication
  fx.model = RmModel(datagen::RmKind::kRm1, fx.spec);
  fx.model.emb_hash_size = 500;
  fx.model.emb_dim = 32;
  fx.model.bottom_mlp_hidden = {64};
  fx.model.top_mlp_hidden = {64, 32};
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
constexpr std::uint64_t kSeed = 42;

std::string CheckpointDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const auto dir = ::testing::TempDir() + "/recd_ckpt_" + tag + "_" +
                   std::to_string(::getpid()) + "_" +
                   std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

DistributedConfig TrainerConfig(std::size_t num_ranks) {
  DistributedConfig config;
  config.num_ranks = num_ranks;
  config.lr = kLr;
  config.seed = kSeed;
  return config;
}

TEST(CheckpointTest, CaptureRoundTripsBitwiseThroughBytesAndFile) {
  auto fx = MakeFixture();
  DistributedTrainer trainer(fx.model, TrainerConfig(2));
  (void)trainer.Step(fx.base_batch);
  (void)trainer.Step(fx.base_batch);

  const TrainerCheckpoint ck = CaptureCheckpoint(trainer, /*next_step=*/2);
  EXPECT_EQ(ck.next_step, 2u);
  EXPECT_EQ(ck.seed, kSeed);
  EXPECT_EQ(ck.lr, kLr);
  EXPECT_EQ(ck.tables.size(), fx.model.num_tables());
  EXPECT_GT(ck.StateBytes(), 0u);

  // Memory round trip is exact.
  const auto bytes = SerializeCheckpoint(ck);
  const TrainerCheckpoint back = DeserializeCheckpoint(bytes);
  EXPECT_EQ(back.next_step, ck.next_step);
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.lr, ck.lr);
  EXPECT_EQ(back.bottom_dims, ck.bottom_dims);
  EXPECT_EQ(back.top_dims, ck.top_dims);
  ASSERT_EQ(back.tables.size(), ck.tables.size());
  for (std::size_t t = 0; t < ck.tables.size(); ++t) {
    EXPECT_TRUE(back.tables[t] == ck.tables[t]) << "table " << t;
  }
  EXPECT_EQ(back.bottom_w, ck.bottom_w);
  EXPECT_EQ(back.bottom_b, ck.bottom_b);
  EXPECT_EQ(back.top_w, ck.top_w);
  EXPECT_EQ(back.top_b, ck.top_b);

  // File round trip re-serializes to the identical bytes.
  const auto dir = CheckpointDir("roundtrip");
  std::filesystem::create_directories(dir);
  const auto path = dir + "/ck.rckp";
  SaveCheckpoint(ck, path);
  EXPECT_EQ(SerializeCheckpoint(LoadCheckpoint(path)), bytes);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, SerializationIsRankCountInvariant) {
  auto fx = MakeFixture();
  std::vector<std::vector<std::byte>> images;
  for (const std::size_t n : {1u, 2u, 4u}) {
    DistributedTrainer trainer(fx.model, TrainerConfig(n));
    (void)trainer.Step(fx.base_batch);
    (void)trainer.Step(fx.base_batch);
    images.push_back(
        SerializeCheckpoint(CaptureCheckpoint(trainer, /*next_step=*/2)));
  }
  // The same training state checkpoints to the same bytes regardless
  // of how it was sharded — the precondition for elastic restore.
  EXPECT_EQ(images[0], images[1]);
  EXPECT_EQ(images[0], images[2]);
}

TEST(CheckpointTest, RestoreAtAnyRankCountContinuesBitwiseIdentically) {
  auto fx = MakeFixture();
  constexpr int kTotalSteps = 3;
  constexpr int kCheckpointStep = 1;
  ReferenceDlrm ref(fx.model, kSeed);
  std::vector<float> ref_losses;
  for (int k = 0; k < kTotalSteps; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }

  // Checkpoint a 2-rank run after one step...
  DistributedTrainer source(fx.model, TrainerConfig(2));
  ASSERT_EQ(source.Step(fx.base_batch), ref_losses[0]);
  const TrainerCheckpoint ck = CaptureCheckpoint(source, kCheckpointStep);

  // ...and continue it at every valid rank count: the reshard-restore
  // plus the remaining steps must land exactly on the uninterrupted run.
  for (const std::size_t restore_ranks : {1u, 2u, 4u}) {
    const std::string what =
        "restore at " + std::to_string(restore_ranks) + " ranks";
    DistributedTrainer resumed(fx.model, TrainerConfig(restore_ranks));
    resumed.LoadState(ck);
    for (int k = kCheckpointStep; k < kTotalSteps; ++k) {
      EXPECT_EQ(resumed.Step(fx.base_batch),
                ref_losses[static_cast<std::size_t>(k)])
          << what << ": loss differs at step " << k;
    }
    ExpectMatchesReference(resumed, ref, what);
  }
}

TEST(CheckpointTest, DamagedFilesAreRejectedNeverPartiallyRestored) {
  auto fx = MakeFixture();
  DistributedTrainer trainer(fx.model, TrainerConfig(1));
  (void)trainer.Step(fx.base_batch);
  const auto dir = CheckpointDir("damage");
  std::filesystem::create_directories(dir);
  const auto path = dir + "/ck.rckp";
  SaveCheckpoint(CaptureCheckpoint(trainer, 1), path);

  // Truncation: cut mid-payload.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_THROW((void)LoadCheckpoint(path), CheckpointError);

  // Bit rot: flip one payload byte under a valid-looking envelope.
  SaveCheckpoint(CaptureCheckpoint(trainer, 1), path);
  common::CorruptChecksummedFile(path, /*payload_offset=*/1234);
  EXPECT_THROW((void)LoadCheckpoint(path), CheckpointError);

  // Wrong file type: a valid checksummed file with a foreign magic.
  common::WriteChecksummedFile(path, 0x4E4F5045u, 1, Payload({1, 2, 3}));
  EXPECT_THROW((void)LoadCheckpoint(path), CheckpointError);

  // Future format version under the correct magic ("RCKP").
  common::WriteChecksummedFile(path, 0x52434B50u, 999, Payload({1, 2, 3}));
  EXPECT_THROW((void)LoadCheckpoint(path), CheckpointError);

  // Valid envelope, garbage payload.
  common::WriteChecksummedFile(path, 0x52434B50u, 1, Payload({1, 2, 3}));
  EXPECT_THROW((void)LoadCheckpoint(path), CheckpointError);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, FingerprintMismatchRejected) {
  auto fx = MakeFixture();
  DistributedTrainer trainer(fx.model, TrainerConfig(2));
  (void)trainer.Step(fx.base_batch);
  const TrainerCheckpoint ck = CaptureCheckpoint(trainer, 1);

  // Same model, different seed lineage.
  DistributedConfig other_seed = TrainerConfig(2);
  other_seed.seed = kSeed + 1;
  DistributedTrainer wrong_seed(fx.model, other_seed);
  EXPECT_THROW(wrong_seed.LoadState(ck), CheckpointError);

  // Different table shape.
  ModelConfig other_model = fx.model;
  other_model.emb_hash_size = 499;
  DistributedTrainer wrong_model(other_model, TrainerConfig(2));
  EXPECT_THROW(wrong_model.LoadState(ck), CheckpointError);

  // Different MLP architecture.
  ModelConfig other_mlp = fx.model;
  other_mlp.top_mlp_hidden = {32};
  DistributedTrainer wrong_mlp(other_mlp, TrainerConfig(2));
  EXPECT_THROW(wrong_mlp.LoadState(ck), CheckpointError);
}

// ------------------------------------------------- FaultTolerantRunner --

ElasticRunOptions RunnerOptions(const std::string& dir,
                                std::vector<std::size_t> schedule,
                                bool recd = false) {
  ElasticRunOptions options;
  options.total_steps = 3;
  options.checkpoint_every = 1;
  options.checkpoint_dir = dir;
  options.rank_schedule = std::move(schedule);
  options.trainer = TrainerConfig(1);  // num_ranks comes from the schedule
  options.trainer.recd = recd;
  return options;
}

TEST(FaultTolerantRunnerTest, CleanRunMatchesUninterruptedTraining) {
  auto fx = MakeFixture();
  ReferenceDlrm ref(fx.model, kSeed);
  std::vector<float> ref_losses;
  for (int k = 0; k < 3; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }

  const auto dir = CheckpointDir("clean");
  FaultTolerantRunner runner(fx.model, RunnerOptions(dir, {2}));
  const auto result = runner.Run(
      [&](std::size_t) -> const reader::PreprocessedBatch& {
        return fx.base_batch;
      });
  EXPECT_EQ(result.losses, ref_losses);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.steps_replayed, 0u);
  EXPECT_EQ(result.checkpoints_written, 3u);  // steps 0, 1, 2
  EXPECT_EQ(result.corrupt_checkpoints_skipped, 0u);
  EXPECT_EQ(result.seed_restores, 0u);
  ExpectMatchesReference(runner.trainer(), ref, "clean run");
  EXPECT_TRUE(std::filesystem::exists(runner.CheckpointPath(0)));
  std::filesystem::remove_all(dir);
}

TEST(FaultTolerantRunnerTest, SkipsCorruptCheckpointAndReplaysFurtherBack) {
  auto fx = MakeFixture();
  ReferenceDlrm ref(fx.model, kSeed);
  std::vector<float> ref_losses;
  for (int k = 0; k < 3; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }

  // The checkpoint at step 2 is corrupted as it is written; the kill at
  // step 2 then forces a restore that must *reject* it and fall back to
  // the intact step-1 checkpoint, replaying one extra step.
  FaultInjector injector;
  injector.Arm(Fault{.kind = Fault::Kind::kCorruptCheckpoint, .step = 2});
  injector.Arm(Fault{.kind = Fault::Kind::kKillRank,
                     .step = 2,
                     .rank = 0,
                     .exchange = Exchange::kEmb});
  const auto dir = CheckpointDir("skipcorrupt");
  FaultTolerantRunner runner(fx.model, RunnerOptions(dir, {2}), &injector);
  const auto result = runner.Run(
      [&](std::size_t) -> const reader::PreprocessedBatch& {
        return fx.base_batch;
      });
  EXPECT_EQ(result.losses, ref_losses);
  EXPECT_EQ(result.failures, 1u);
  EXPECT_EQ(result.corrupt_checkpoints_skipped, 1u);
  EXPECT_EQ(result.steps_replayed, 1u);  // step 1 ran twice
  EXPECT_EQ(result.seed_restores, 0u);
  EXPECT_EQ(injector.faults_fired(), 2u);
  ExpectMatchesReference(runner.trainer(), ref, "corrupt-skip run");
  std::filesystem::remove_all(dir);
}

TEST(FaultTolerantRunnerTest, FallsBackToSeedWhenEveryCheckpointIsCorrupt) {
  auto fx = MakeFixture();
  ReferenceDlrm ref(fx.model, kSeed);
  std::vector<float> ref_losses;
  for (int k = 0; k < 3; ++k) {
    ref_losses.push_back(ref.TrainStep(fx.base_batch, kLr));
  }

  FaultInjector injector;
  for (const std::size_t step : {0u, 1u, 2u}) {
    injector.Arm(
        Fault{.kind = Fault::Kind::kCorruptCheckpoint, .step = step});
  }
  injector.Arm(Fault{.kind = Fault::Kind::kKillRank,
                     .step = 2,
                     .rank = 1,
                     .exchange = Exchange::kGrad});
  const auto dir = CheckpointDir("seedrestore");
  FaultTolerantRunner runner(fx.model, RunnerOptions(dir, {2}), &injector);
  const auto result = runner.Run(
      [&](std::size_t) -> const reader::PreprocessedBatch& {
        return fx.base_batch;
      });
  EXPECT_EQ(result.losses, ref_losses);
  EXPECT_EQ(result.failures, 1u);
  EXPECT_EQ(result.corrupt_checkpoints_skipped, 3u);
  EXPECT_EQ(result.seed_restores, 1u);
  EXPECT_EQ(result.steps_replayed, 2u);  // steps 0 and 1 ran twice
  ExpectMatchesReference(runner.trainer(), ref, "seed-restore run");
  std::filesystem::remove_all(dir);
}

TEST(FaultTolerantRunnerTest, GivesUpAfterMaxFailures) {
  auto fx = MakeFixture();
  FaultInjector injector;
  injector.Arm(Fault{.kind = Fault::Kind::kKillRank,
                     .step = 0,
                     .rank = 0,
                     .exchange = Exchange::kSdd});
  const auto dir = CheckpointDir("giveup");
  auto options = RunnerOptions(dir, {2});
  options.max_failures = 0;
  FaultTolerantRunner runner(fx.model, options, &injector);
  EXPECT_THROW(runner.Run([&](std::size_t) -> const reader::PreprocessedBatch& {
                 return fx.base_batch;
               }),
               RankFailure);
  std::filesystem::remove_all(dir);
}

TEST(FaultTolerantRunnerTest, InvalidOptionsThrow) {
  auto fx = MakeFixture();
  const auto dir = CheckpointDir("invalid");
  auto no_steps = RunnerOptions(dir, {2});
  no_steps.total_steps = 0;
  EXPECT_THROW(FaultTolerantRunner(fx.model, no_steps),
               std::invalid_argument);
  auto no_cadence = RunnerOptions(dir, {2});
  no_cadence.checkpoint_every = 0;
  EXPECT_THROW(FaultTolerantRunner(fx.model, no_cadence),
               std::invalid_argument);
  EXPECT_THROW(FaultTolerantRunner(fx.model, RunnerOptions(dir, {})),
               std::invalid_argument);
  EXPECT_THROW(FaultTolerantRunner(fx.model, RunnerOptions(dir, {3})),
               std::invalid_argument);
  auto no_dir = RunnerOptions(dir, {2});
  no_dir.checkpoint_dir.clear();
  EXPECT_THROW(FaultTolerantRunner(fx.model, no_dir),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace recd::train
