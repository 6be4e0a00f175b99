// The paper's Figs 7-9, Tables 2-4 and §6.2 single-node results. Figs 7-9
// and Tables 3-4 read one set of runs (one RmBench setup per RM, each
// distinct RecdConfig run once); Table 2 and single_node are separate
// experiments. Each row prints beside the paper's value and lands in
// BENCH_paper.json under its section's setup. Trainer rows time executed
// train::DistributedTrainer steps (PipelineResult::trainer_*); the last
// section times ReferenceDlrm TrainSteps per kernel backend.
#include <cstdio>
#include <string>
#include <utility>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "datagen/generator.h"
#include "etl/etl.h"
#include "kernels/backend.h"
#include "obs/obs.h"
#include "reader/reader_pool.h"
#include "reader/reader_tier.h"
#include "storage/table.h"
#include "train/reference.h"

namespace {

using namespace recd;
using core::PipelineResult;
using core::RecdConfig;

/// One RM's runs, shared by Figs 7 and 8.
struct RmRuns {
  PipelineResult base;        // Baseline at the baseline batch
  PipelineResult recd;        // full RecD at the raised batch
  PipelineResult same_batch;  // full RecD at the baseline batch (Fig 8)
};

RmRuns RunRm(const bench::RmBench& b, core::PipelineRunner& runner) {
  RmRuns runs{runner.Run(RecdConfig::Baseline(b.baseline_batch)),
              runner.Run(RecdConfig::Full(b.recd_batch)), {}};
  runs.same_batch = b.recd_batch == b.baseline_batch
                        ? runs.recd
                        : runner.Run(RecdConfig::Full(b.baseline_batch));
  return runs;
}

/// RM1's further configurations (Fig 9, Tables 3 and 4). O1+O2+O3 at
/// B256 is Full(256), RM1's same-batch run.
struct Rm1Ablation {
  PipelineResult o1;       // O1: session-sharded Scribe, batch 256
  PipelineResult o1_o2;    // +O2 clustered table, KJTs (Fig 9's CT)
  PipelineResult full512;  // Full(512)
};

Rm1Ablation RunRm1Ablation(core::PipelineRunner& runner) {
  auto o1 = RecdConfig::Baseline(256);
  o1.shard_by_session = true;
  auto o2 = o1;
  o2.cluster_by_session = true;
  return {runner.Run(o1), runner.Run(o2), runner.Run(RecdConfig::Full(512))};
}

/// Figs 7-9 and Tables 3-4, all read from the shared runs.
void SharedSections(bench::JsonReport& out, const RmRuns (&rms)[3],
                    const Rm1Ablation& ab, std::size_t samples) {
  out.Section("fig7", "Figure 7: end-to-end RecD gains vs baseline",
              "RM1/RM2/RM3, " + std::to_string(samples) +
                  " samples, RmBench::MakeRunner (2 trainer ranks, median "
                  "of the timed steps); Baseline B256/256/144 vs full RecD "
                  "B768/256/256 (paper batches / 8)");
  const double paper[3][3] = {
      {2.48, 1.79, 3.71}, {1.25, 1.38, 3.71}, {1.43, 1.36, 2.06}};
  for (int i = 0; i < 3; ++i) {
    const auto& base = rms[i].base;
    const auto& recd = rms[i].recd;
    const std::string rm = "rm" + std::to_string(i + 1) + "_";
    out.Row(rm + "trainer_speedup", recd.trainer_qps / base.trainer_qps,
            "x", paper[i][0]);
    out.Row(rm + "reader_speedup",
            recd.reader_rows_per_second / base.reader_rows_per_second, "x",
            paper[i][1]);
    out.Row(rm + "storage_compression_gain",
            recd.storage_compression_ratio / base.storage_compression_ratio,
            "x", paper[i][2]);
    out.Row(rm + "dedupe_factor", recd.mean_dedupe_factor, "x");
    out.Row(rm + "samples_per_session", recd.samples_per_session, "");
    // §2.1: the reader tier is provisioned to the trainers' ingest rate,
    // so at equal demand faster readers mean fewer reader hosts.
    for (const auto& [name, r] :
         {std::pair{"baseline", &base}, std::pair{"recd", &recd}}) {
      const auto plan = reader::ProvisionReaders(base.trainer_qps,
                                                 r->reader_rows_per_second);
      out.Row(rm + "readers_needed_" + name, 1.0 * plan.readers_needed, "");
    }
  }

  out.Section("fig8", "Figure 8: iteration time and exchange share",
              "fig7's runs; full RecD at each RM's baseline batch; shares "
              "of the baseline step time; exchange = wall time per rank "
              "of the SDD, embedding and gradient all-to-alls plus the "
              "MLP all-reduce");
  for (int i = 0; i < 3; ++i) {
    const auto& base = rms[i].base;
    const auto& recd = rms[i].same_batch;
    const std::string rm = "rm" + std::to_string(i + 1) + "_";
    const double pct = 100 / base.trainer_step_s;
    for (const auto& [config, r] :
         {std::pair{"baseline_", &base}, std::pair{"recd_", &recd}}) {
      out.Row(rm + config + "exchange_pct", 1e-6 * r->trainer_exchange_us * pct,
              "%");
      out.Row(rm + config + "total_pct", r->trainer_step_s * pct, "%");
    }
    out.Row(rm + "exchange_time_ratio",
            recd.trainer_exchange_us / base.trainer_exchange_us, "x", 0.5);
    out.Row(rm + "exchange_bytes_ratio",
            1.0 * recd.trainer_exchange.total_bytes() /
                base.trainer_exchange.total_bytes(),
            "x");
    out.Row(rm + "iteration_time_ratio",
            recd.trainer_step_s / base.trainer_step_s, "x");
  }

  const auto& rm1 = rms[0];
  const auto& base = rm1.base;
  const auto& o1_o2_o3 = rm1.same_batch;
  out.Section("fig9", "Figure 9: RM1 ablation (normalized throughput)",
              "fig7's RM1 runs; CT = Baseline(256) + O1 + O2; normalized "
              "to CT");
  const double ct = ab.o1_o2.trainer_qps;
  out.Row("ct", 1.0, "x", 1.0);
  out.Row("dedup_compute_b512", ab.full512.trainer_qps / ct, "x", 2.42);
  out.Row("b768", rm1.recd.trainer_qps / ct, "x", 2.48);

  out.Section("table3", "Table 3: reader ingest/egress bytes",
              "fig7's RM1 runs: reader bytes over the whole table at B256");
  const auto& io = base.reader_io;
  for (const auto& [name, r] :
       {std::pair{"baseline_", &io}, std::pair{"o1_o2_", &ab.o1_o2.reader_io},
        std::pair{"o1_o2_o3_", &o1_o2_o3.reader_io}}) {
    out.Row(std::string(name) + "read_mb", r->bytes_read / 1e6, "MB");
    out.Row(std::string(name) + "send_mb", r->bytes_sent / 1e6, "MB");
  }
  out.Row("read_ratio_baseline_over_clustered",
          1.0 * io.bytes_read / ab.o1_o2.reader_io.bytes_read, "x",
          538.0 / 179.0);
  out.Row("send_ratio_baseline_over_ikjt",
          1.0 * io.bytes_sent / o1_o2_o3.reader_io.bytes_sent, "x",
          837.0 / 713.0);

  out.Section("table4", "Table 4: per-optimization impact summary (RM1)",
              "fig7's RM1 runs; O7 = Full(768)");
  const auto change = [](double now, double before) {
    return 100 * (now / before - 1);
  };
  const auto& t2 = ab.o1_o2.reader_times;
  const auto& t3 = o1_o2_o3.reader_times;
  out.Row("o1_scribe_compression", ab.o1.scribe_compression_ratio, "x", 2.25);
  out.Row("baseline_scribe_compression", base.scribe_compression_ratio, "x",
          1.50);
  out.Row("o2_storage_compression_gain",
          ab.o1_o2.storage_compression_ratio /
              base.storage_compression_ratio,
          "x", 3.71);
  out.Row("o2_fill_change", change(t2.fill_s, base.reader_times.fill_s),
          "%", -50);
  out.Row("o3_convert_change", change(t3.convert_s, t2.convert_s), "%", 21);
  out.Row("o4_process_change", change(t3.process_s, t2.process_s), "%", -13);
  out.Row("o7_trainer_speedup_b768", rm1.recd.trainer_qps / base.trainer_qps,
          "x", 2.48);
}

/// Table 2 and single_node: separate experiments with their own runners.
void OwnSetups(bench::JsonReport& out) {
  const auto b = bench::RmBench::Make(datagen::RmKind::kRm1);
  const std::size_t table2_samples =
      bench::SmokeOr<std::size_t>(10'000, 2'000);
  auto runner = b.MakeRunner(table2_samples);
  auto d2x = RecdConfig::Full(256);
  d2x.emb_dim_override = b.model.emb_dim * 2;
  const PipelineResult rows[4] = {
      runner.Run(RecdConfig::Baseline(256)), runner.Run(RecdConfig::Full(256)),
      runner.Run(d2x), runner.Run(RecdConfig::Full(768))};
  out.Section("table2", "Table 2: RM1 trainer throughput",
              "RM1, " + std::to_string(table2_samples) +
                  " samples, RmBench::MakeRunner (2 trainer ranks); QPS "
                  "normalized to Baseline(256)");
  const struct {
    const char* key;
    double qps;
  } paper[4] = {{"baseline_", 1.00},
                {"recd_", 1.89},
                {"recd_emb_d2x_", 1.55},
                {"recd_b768_", 2.26}};
  for (int i = 0; i < 4; ++i) {
    out.Row(std::string(paper[i].key) + "norm_qps",
            rows[i].trainer_qps / rows[0].trainer_qps, "x", paper[i].qps);
  }

  const auto node = bench::RmBench::Make(datagen::RmKind::kRm1);
  const std::size_t samples = bench::SmokeOr<std::size_t>(7'000, 1'500);
  auto node_runner = node.MakeRunner(samples, /*trainer_ranks=*/1);
  const auto base1 = node_runner.Run(RecdConfig::Baseline(256));
  const auto recd1 = node_runner.Run(RecdConfig::Full(512));
  out.Section("single_node", "Single-node training (RM1, one rank)",
              "RM1 on one trainer rank, " + std::to_string(samples) +
                  " samples, RmBench::MakeRunner; Baseline(256) vs "
                  "Full(512)");
  out.Row("trainer_speedup", recd1.trainer_qps / base1.trainer_qps, "x",
          2.18);
  out.Row("sparse_dedupe_factor",
          recd1.trainer_exchange.exchange_dedupe_factor(), "x");
}

/// Fig 8's measured companion: real TrainSteps on this host, scalar vs
/// vectorized kernels (§12); false if the two backends' losses differ.
bool MeasuredTrainStep(bench::JsonReport& out) {
  auto spec =
      datagen::RmDataset(datagen::RmKind::kRm1, bench::SmokeOr(0.2, 0.05));
  spec.concurrent_sessions = 64;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = bench::SmokeOr<std::size_t>(20'000, 2'000);
  const std::size_t samples = bench::SmokeOr<std::size_t>(2'048, 128);
  const auto traffic = datagen::TrafficGenerator(spec).Generate(samples);
  auto rows = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(rows);
  storage::BlobStore store;
  const auto landed = storage::LandTable(
      store, "fig8", core::MakePipelineSchema(spec), {std::move(rows)});

  const std::size_t batch_size = bench::SmokeOr<std::size_t>(512, 64);
  const int steps = bench::SmokeOr(8, 1);
  // Mean seconds per TrainStep on a fresh model; `loss` gets the last.
  const auto time_steps = [&](const reader::PreprocessedBatch& batch,
                              kernels::KernelBackend backend, float& loss) {
    train::ReferenceDlrm dlrm(model, /*seed=*/42);
    dlrm.SetKernelBackend(backend);
    common::Stopwatch sw;
    sw.Start();
    for (int s = 0; s < steps; ++s) loss = dlrm.TrainStep(batch, 0.05f);
    sw.Stop();
    return sw.seconds() / steps;
  };
  out.Section("fig8.train_step", "Measured TrainStep: scalar vs vectorized",
              "ReferenceDlrm RM1, hash " +
                  std::to_string(model.emb_hash_size) + ", first batch of " +
                  std::to_string(batch_size) + " clustered rows, " +
                  std::to_string(steps) + " steps per backend");
  for (const bool use_ikjt : {false, true}) {
    reader::ReaderPool reader(
        store, landed.table,
        train::MakeDataLoaderConfig(model, batch_size, use_ikjt),
        reader::ReaderOptions{.use_ikjt = use_ikjt});
    const auto batch = *reader.NextBatch();
    float loss_scalar = 0;
    float loss_vec = 0;
    const double scalar_s =
        time_steps(batch, kernels::KernelBackend::kScalar, loss_scalar);
    const double vec_s =
        time_steps(batch, kernels::KernelBackend::kVectorized, loss_vec);
    if (loss_scalar != loss_vec) {
      std::fprintf(stderr, "scalar/vectorized TrainStep losses diverged "
                   "(%.9g vs %.9g)\n", loss_scalar, loss_vec);
      return false;
    }
    const std::string key = use_ikjt ? "recd_" : "baseline_";
    out.Row(key + "scalar_ms", scalar_s * 1e3, "ms");
    out.Row(key + "vectorized_ms", vec_s * 1e3, "ms");
    out.Row(key + "kernel_speedup", scalar_s / vec_s, "x");
  }
  std::printf("losses bitwise-identical across backends on both forms\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("bench_paper");
  // RmBench::MakeRunner leaves PipelineOptions::num_threads at 1.
  report.SetHostField("num_threads", 1);
  // Which kernel backend the measured paths dispatched to (§12).
  report.SetHostField("avx2", kernels::VectorizedAvailable() ? 1 : 0);
  // Fig 8 reads the trainers' exchange wall time, which is recorded only
  // with obs timing on; every counter is the same either way.
  obs::ObsOptions obs_options;
  obs_options.enabled = true;
  obs::Configure(obs_options);

  // Runs go one after another: a run's timed trainer steps must not
  // share the cores with another run's stages or steps. The first
  // trainer in a process steps slower than the next ones (cold
  // allocator, page faults), so one discarded RM1 Baseline(256) run
  // goes first and Table 2's baseline is not it.
  {
    const auto warm = bench::RmBench::Make(datagen::RmKind::kRm1);
    (void)warm.MakeRunner(bench::SmokeOr<std::size_t>(10'000, 2'000))
        .Run(RecdConfig::Baseline(256));
  }
  OwnSetups(report);
  const std::size_t samples = bench::SmokeOr<std::size_t>(24'000, 2'000);
  const datagen::RmKind kinds[3] = {datagen::RmKind::kRm1,
                                    datagen::RmKind::kRm2,
                                    datagen::RmKind::kRm3};
  RmRuns rms[3];
  Rm1Ablation ablation;
  for (int i = 0; i < 3; ++i) {
    const auto b = bench::RmBench::Make(kinds[i]);
    auto runner = b.MakeRunner(samples);
    rms[i] = RunRm(b, runner);
    if (i == 0) ablation = RunRm1Ablation(runner);
  }
  SharedSections(report, rms, ablation, samples);
  if (!MeasuredTrainStep(report)) return 1;
  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}
