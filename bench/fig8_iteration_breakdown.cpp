// Figure 8: trainer iteration latency breakdown (EMB lookup, GEMM,
// exposed all-to-all, other), RecD normalized to each RM's baseline at
// the SAME batch size.
//
// Paper: exposed A2A roughly halves on every RM; RM1 additionally drops
// GEMM time ~12% (transformer compute deduplicated); RM2/RM3 GEMM up
// slightly; EMB improves 1-2%; overall iteration time -44%/-23%/-xx%.
//
// The modeled table uses the analytic TrainerSim. The final section
// instead *measures* real ReferenceDlrm::TrainStep wall time, scalar
// kernel backend vs vectorized (docs/ARCHITECTURE.md §12), asserting
// the two produce bitwise-identical losses while they are timed.
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "datagen/generator.h"
#include "etl/etl.h"
#include "kernels/backend.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/reference.h"

namespace {

/// Wall time of `steps` TrainSteps on a fresh model pinned to `backend`.
/// The loss of the final step is returned through `loss_out` so the
/// caller can assert scalar/vectorized parity on the timed path.
double MeasureTrainSteps(const recd::train::ModelConfig& model,
                         const recd::reader::PreprocessedBatch& batch,
                         recd::kernels::KernelBackend backend, int steps,
                         float* loss_out) {
  recd::train::ReferenceDlrm dlrm(model, /*seed=*/42);
  dlrm.SetKernelBackend(backend);
  recd::common::Stopwatch sw;
  sw.Start();
  float loss = 0;
  for (int s = 0; s < steps; ++s) loss = dlrm.TrainStep(batch, 0.05f);
  sw.Stop();
  *loss_out = loss;
  return sw.seconds() / steps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recd;
  bench::PrintHeader(
      "Figure 8: iteration latency breakdown (same batch size)");
  std::printf("%-4s %-10s %8s %8s %8s %8s %8s\n", "RM", "config", "EMB",
              "GEMM", "A2A", "other", "total");
  bench::PrintRule();

  bench::JsonReport report("bench_fig8_iteration_breakdown");
  report.SetHostField("avx2", kernels::VectorizedAvailable() ? 1 : 0);

  const datagen::RmKind kinds[3] = {datagen::RmKind::kRm1,
                                    datagen::RmKind::kRm2,
                                    datagen::RmKind::kRm3};
  const std::size_t gpus[3] = {48, 48, 64};
  for (int i = 0; i < 3; ++i) {
    auto b = bench::RmBench::Make(kinds[i], gpus[i]);
    auto runner = b.MakeRunner(bench::SmokeOr<std::size_t>(4'000, 1'000));
    // Same batch size in both configs (the Fig 8 protocol).
    const auto base =
        runner.Run(core::RecdConfig::Baseline(b.baseline_batch));
    auto recd_cfg = core::RecdConfig::Full(b.baseline_batch);
    const auto recd = runner.Run(recd_cfg);

    const double norm = base.trainer.total_s();
    auto row = [&](const char* config,
                   const train::IterationBreakdown& it) {
      std::printf("%-4s %-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
                  bench::RmName(kinds[i]), config, 100 * it.emb_s / norm,
                  100 * it.gemm_s / norm, 100 * it.a2a_exposed_s / norm,
                  100 * it.other_s / norm, 100 * it.total_s() / norm);
    };
    row("baseline", base.trainer);
    row("RecD", recd.trainer);
    std::printf(
        "%-4s exposed A2A change: %.2fx (paper: ~0.5x);"
        " iteration time: %.0f%% of baseline\n",
        bench::RmName(kinds[i]),
        recd.trainer.a2a_exposed_s / base.trainer.a2a_exposed_s,
        100 * recd.trainer.total_s() / base.trainer.total_s());
    bench::PrintRule();
    const std::string rm = bench::RmName(kinds[i]);
    report.Add(rm + "_a2a_exposed_ratio",
               recd.trainer.a2a_exposed_s / base.trainer.a2a_exposed_s,
               0.5, "x");
    report.Add(rm + "_iteration_time_ratio",
               recd.trainer.total_s() / base.trainer.total_s(),
               std::nullopt, "x");
  }

  // ---- Measured: real TrainStep, scalar vs vectorized backend --------
  // The modeled rows above capture the paper's cluster-scale shape; this
  // section measures what the kernel layer changes on *this* host: the
  // wall time of an actual forward+backward+step, identical float-op
  // sequence on both backends (losses asserted equal while timing).
  bench::PrintHeader("Measured TrainStep: scalar vs vectorized kernels");
  {
    auto spec = datagen::RmDataset(datagen::RmKind::kRm1,
                                   bench::SmokeOr(0.2, 0.05));
    spec.concurrent_sessions = 64;
    auto model = train::RmModel(datagen::RmKind::kRm1, spec);
    model.emb_hash_size = 20'000;
    datagen::TrafficGenerator gen(spec);
    const auto traffic =
        gen.Generate(bench::SmokeOr<std::size_t>(2'048, 128));
    auto samples = etl::JoinLogs(traffic.features, traffic.events);
    etl::ClusterBySession(samples);
    storage::StorageSchema schema;
    schema.num_dense = spec.num_dense;
    for (const auto& f : spec.sparse) {
      schema.sparse_names.push_back(f.name);
    }
    storage::BlobStore store;
    auto landed =
        storage::LandTable(store, "fig8", schema, {std::move(samples)});

    const std::size_t batch_size = bench::SmokeOr<std::size_t>(512, 64);
    const int steps = bench::SmokeOr(8, 1);
    std::printf("%-22s %12s %12s %9s\n", "batch form", "scalar ms/it",
                "vec ms/it", "speedup");
    bench::PrintRule();
    for (const bool use_ikjt : {false, true}) {
      reader::ReaderPool reader(
          store, landed.table,
          train::MakeDataLoaderConfig(model, batch_size, use_ikjt),
          reader::ReaderOptions{.use_ikjt = use_ikjt});
      const auto batch = *reader.NextBatch();
      float loss_scalar = 0;
      float loss_vec = 0;
      const double scalar_s =
          MeasureTrainSteps(model, batch, kernels::KernelBackend::kScalar,
                            steps, &loss_scalar);
      const double vec_s = MeasureTrainSteps(
          model, batch, kernels::KernelBackend::kVectorized, steps,
          &loss_vec);
      if (loss_scalar != loss_vec) {
        std::fprintf(stderr,
                     "fig8: scalar/vectorized TrainStep losses diverged "
                     "(%.9g vs %.9g)\n",
                     loss_scalar, loss_vec);
        return 1;
      }
      const char* form = use_ikjt ? "RecD (IKJT)" : "baseline (KJT)";
      std::printf("%-22s %12.2f %12.2f %8.2fx\n", form, scalar_s * 1e3,
                  vec_s * 1e3, scalar_s / vec_s);
      const std::string key =
          use_ikjt ? "train_step_recd" : "train_step_baseline";
      report.Add(key + "_scalar_ms", scalar_s * 1e3, std::nullopt, "ms");
      report.Add(key + "_vectorized_ms", vec_s * 1e3, std::nullopt, "ms");
      report.Add(key + "_kernel_speedup", scalar_s / vec_s, std::nullopt,
                 "x");
    }
    bench::PrintRule();
    std::printf("losses bitwise-identical across backends on both forms\n");
  }

  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}
