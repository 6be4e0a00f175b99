// Checkpoint/restore cost of the executed hybrid-parallel trainer
// (docs/ARCHITECTURE.md §11).
//
// Measures the fault-tolerance tax: checkpoint serialize/write and
// read/restore throughput (MB/s through the checksummed envelope),
// the state size baseline vs RecD mode (identical by construction —
// dedup changes what moves on the wire, never the model), and the
// recovery drill itself: a run that is killed mid-step, reshard-
// restored, and replayed, timed against the same run uninterrupted.
// The replay overhead divided by the checkpoint interval is the
// back-of-envelope for picking a production checkpoint cadence.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "datagen/generator.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/checkpoint.h"
#include "train/distributed.h"
#include "train/fault.h"

int main(int argc, char** argv) {
  using namespace recd;
  bench::JsonReport report("bench_checkpoint");
  bench::PrintHeader(
      "Trainer checkpoint/restore: throughput and recovery overhead (RM1)");

  const std::size_t batch_size = bench::SmokeOr<std::size_t>(256, 64);
  const int reps = bench::SmokeOr(5, 1);
  const std::size_t total_steps = bench::SmokeOr<std::size_t>(4, 3);
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1,
                                 bench::SmokeOr(0.1, 0.05));
  spec.concurrent_sessions = 16;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = bench::SmokeOr<std::size_t>(20'000, 2'000);
  report.SetHostField("batch_size", static_cast<long>(batch_size));
  report.SetHostField("reps", reps);

  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(batch_size * 2);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed = storage::LandTable(store, "t", schema, {std::move(samples)});
  reader::ReaderPool recd_reader(
      store, landed.table, train::MakeDataLoaderConfig(model, batch_size, true),
      reader::ReaderOptions{.use_ikjt = true});
  reader::ReaderPool base_reader(
      store, landed.table,
      train::MakeDataLoaderConfig(model, batch_size, false),
      reader::ReaderOptions{.use_ikjt = false});
  const auto recd_batch = *recd_reader.NextBatch();
  const auto base_batch = *base_reader.NextBatch();

  const auto dir = std::filesystem::temp_directory_path() / "recd_bench_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "ck.rckp").string();

  train::DistributedConfig config;
  config.num_ranks = 2;
  config.lr = 0.05f;
  config.seed = 7;

  // ---- state size, baseline vs RecD mode --------------------------------
  train::DistributedTrainer base_trainer(model, config);
  (void)base_trainer.Step(base_batch);
  auto recd_config = config;
  recd_config.recd = true;
  train::DistributedTrainer recd_trainer(model, recd_config);
  (void)recd_trainer.Step(recd_batch);
  const auto base_ck = train::CaptureCheckpoint(base_trainer, 1);
  const auto recd_ck = train::CaptureCheckpoint(recd_trainer, 1);
  const double mb = 1.0 / (1024.0 * 1024.0);
  const double base_state_mb = static_cast<double>(base_ck.StateBytes()) * mb;
  const double recd_state_mb = static_cast<double>(recd_ck.StateBytes()) * mb;
  std::printf("state size: base %.1f MB, recd %.1f MB (identical model)\n",
              base_state_mb, recd_state_mb);
  report.Add("base_state_mb", base_state_mb, std::nullopt, "MB");
  report.Add("recd_state_mb", recd_state_mb, std::nullopt, "MB");

  // ---- serialize / write / load / apply throughput ----------------------
  common::Stopwatch serialize_sw;
  common::Stopwatch write_sw;
  common::Stopwatch load_sw;
  common::Stopwatch apply_sw;
  std::size_t payload_bytes = 0;
  for (int i = 0; i < reps; ++i) {
    {
      common::Stopwatch::Scope scope(serialize_sw);
      payload_bytes = train::SerializeCheckpoint(base_ck).size();
    }
    {
      common::Stopwatch::Scope scope(write_sw);
      train::SaveCheckpoint(base_ck, path);
    }
    train::TrainerCheckpoint loaded;
    {
      common::Stopwatch::Scope scope(load_sw);
      loaded = train::LoadCheckpoint(path);
    }
    train::DistributedTrainer target(model, config);
    {
      common::Stopwatch::Scope scope(apply_sw);
      target.LoadState(loaded);
    }
  }
  const double payload_mb = static_cast<double>(payload_bytes) * mb;
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(path)) * mb;
  const auto mbps = [&](const common::Stopwatch& sw) {
    return payload_mb * reps / sw.seconds();
  };
  std::printf("payload %.1f MB (file %.1f MB, %.3f%% envelope overhead)\n",
              payload_mb, file_mb, (file_mb / payload_mb - 1.0) * 100.0);
  std::printf("serialize %8.0f MB/s\nwrite     %8.0f MB/s\n"
              "load      %8.0f MB/s\napply     %8.0f MB/s\n",
              mbps(serialize_sw), mbps(write_sw), mbps(load_sw),
              mbps(apply_sw));
  report.Add("payload_mb", payload_mb, std::nullopt, "MB");
  report.Add("serialize_mb_s", mbps(serialize_sw), std::nullopt, "MB/s");
  report.Add("write_mb_s", mbps(write_sw), std::nullopt, "MB/s");
  report.Add("load_mb_s", mbps(load_sw), std::nullopt, "MB/s");
  report.Add("apply_mb_s", mbps(apply_sw), std::nullopt, "MB/s");

  // ---- recovery drill vs uninterrupted run ------------------------------
  const auto batch_provider =
      [&](std::size_t) -> const reader::PreprocessedBatch& {
    return base_batch;
  };
  train::ElasticRunOptions run_options;
  run_options.total_steps = total_steps;
  run_options.checkpoint_every = 1;
  run_options.checkpoint_dir = (dir / "run").string();
  run_options.rank_schedule = {2};
  run_options.trainer = config;

  common::Stopwatch clean_sw;
  float clean_loss = 0.0f;
  {
    common::Stopwatch::Scope scope(clean_sw);
    train::FaultTolerantRunner runner(model, run_options);
    clean_loss = runner.Run(batch_provider).losses.back();
  }

  train::FaultInjector injector;
  injector.Arm(train::Fault{.kind = train::Fault::Kind::kKillRank,
                            .step = total_steps - 1,
                            .rank = 0,
                            .exchange = train::Exchange::kEmb});
  run_options.checkpoint_dir = (dir / "drill").string();
  common::Stopwatch drill_sw;
  float drill_loss = 0.0f;
  std::size_t replayed = 0;
  {
    common::Stopwatch::Scope scope(drill_sw);
    train::FaultTolerantRunner runner(model, run_options, &injector);
    const auto result = runner.Run(batch_provider);
    drill_loss = result.losses.back();
    replayed = result.steps_replayed;
  }
  const double clean_ms = clean_sw.seconds() * 1e3;
  const double drill_ms = drill_sw.seconds() * 1e3;
  const double step_ms =
      clean_ms / static_cast<double>(total_steps);
  std::printf("\nuninterrupted %zu-step run %8.1f ms (%.1f ms/step)\n",
              total_steps, clean_ms, step_ms);
  std::printf("kill+restore+replay run   %8.1f ms (%+.1f ms, %zu replayed)\n",
              drill_ms, drill_ms - clean_ms, replayed);
  report.Add("uninterrupted_run_ms", clean_ms, std::nullopt, "ms");
  report.Add("recovery_run_ms", drill_ms, std::nullopt, "ms");
  report.Add("recovery_overhead_ms", drill_ms - clean_ms, std::nullopt, "ms");
  report.Add("step_ms", step_ms, std::nullopt, "ms");

  // Recovery must land on the uninterrupted run's numbers exactly —
  // the restore-determinism contract, sampled at bench scale.
  const bool ok = clean_loss == drill_loss;
  std::printf("\nrecovered losses %s the uninterrupted run\n",
              ok ? "bitwise match" : "MISMATCH");
  std::filesystem::remove_all(dir);
  if (!report.WriteIfRequested(argc, argv)) return 1;
  return ok ? 0 : 1;
}
