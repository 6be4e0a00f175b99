// Figure 10: reader CPU time per sample, broken into Fill / Convert /
// Process, RecD normalized to each RM's baseline. Wall-clock measured on
// the real reader implementation.
//
// Paper: fill time -50%/-33%/-46%; convert +21%/+37%/+11% (tiny in
// absolute terms); process -13%/-11%/+3%; conversion overhead overall
// ~1% and swamped by fill savings.
#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"

namespace {

struct Breakdown {
  double fill = 0, convert = 0, process = 0;
  [[nodiscard]] double total() const { return fill + convert + process; }
};

Breakdown RunReader(recd::storage::BlobStore& store,
                    const recd::storage::Table& table,
                    const recd::train::ModelConfig& model, bool use_ikjt) {
  using namespace recd;
  auto loader = train::MakeDataLoaderConfig(model, 512, use_ikjt);
  // Representative preprocessing: hash every dedup-able feature group +
  // normalize dense (paper: normalization and hashing transforms).
  for (const auto& g : model.sequence_groups) {
    loader.transforms.push_back({reader::TransformKind::kSparseHash,
                                 g.features.front(), 1'000'003, 0});
  }
  for (const auto& f : model.elementwise_features) {
    loader.transforms.push_back(
        {reader::TransformKind::kSparseHash, f, 1'000'003, 0});
  }
  loader.transforms.push_back(
      {reader::TransformKind::kDenseNormalize, "", 0.0, 1.0});
  reader::ReaderPool rdr(store, table, loader,
                         reader::ReaderOptions{.use_ikjt = use_ikjt});
  while (rdr.NextBatch().has_value()) {
  }
  return {rdr.times().fill_s, rdr.times().convert_s,
          rdr.times().process_s};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recd;
  bench::JsonReport report("bench_fig10_reader_breakdown");
  // The breakdown section reads single-threaded; the scaling section
  // sweeps num_workers 1..8 (keys carry the worker count).
  report.SetHostField("num_threads", 1);
  bench::PrintHeader("Figure 10: reader CPU time breakdown per sample");
  std::printf("%-4s %-10s %8s %9s %9s %8s\n", "RM", "config", "fill",
              "convert", "process", "total");
  bench::PrintRule();

  const datagen::RmKind kinds[3] = {datagen::RmKind::kRm1,
                                    datagen::RmKind::kRm2,
                                    datagen::RmKind::kRm3};
  for (int i = 0; i < 3; ++i) {
    auto b = bench::RmBench::Make(kinds[i], 8);
    datagen::TrafficGenerator gen(b.spec);
    const auto traffic = gen.Generate(bench::SmokeOr<std::size_t>(16'000, 1'500));
    auto samples = etl::JoinLogs(traffic.features, traffic.events);

    storage::StorageSchema schema;
    schema.num_dense = b.spec.num_dense;
    for (const auto& f : b.spec.sparse) {
      schema.sparse_names.push_back(f.name);
    }
    // Baseline table: inference order. RecD table: clustered.
    storage::BlobStore store;
    auto base_landed = storage::LandTable(store, "base", schema, {samples});
    auto clustered = samples;
    etl::ClusterBySession(clustered);
    auto recd_landed =
        storage::LandTable(store, "recd", schema, {clustered});

    const auto base = RunReader(store, base_landed.table, b.model, false);
    const auto recd = RunReader(store, recd_landed.table, b.model, true);

    const double norm = base.total();
    auto row = [&](const char* config, const Breakdown& t) {
      std::printf("%-4s %-10s %7.1f%% %8.1f%% %8.1f%% %7.1f%%\n",
                  bench::RmName(kinds[i]), config, 100 * t.fill / norm,
                  100 * t.convert / norm, 100 * t.process / norm,
                  100 * t.total() / norm);
    };
    row("baseline", base);
    row("RecD", recd);
    std::printf(
        "%-4s fill %+.0f%% (paper -50/-33/-46), convert %+.0f%% "
        "(paper +21/+37/+11), process %+.0f%% (paper -13/-11/+3)\n",
        bench::RmName(kinds[i]), 100 * (recd.fill / base.fill - 1),
        100 * (recd.convert / base.convert - 1),
        100 * (recd.process / base.process - 1));
    bench::PrintRule();

    const double paper_fill[3] = {-50, -33, -46};
    const double paper_convert[3] = {21, 37, 11};
    const double paper_process[3] = {-13, -11, 3};
    const std::string rm = "rm" + std::to_string(i + 1);
    report.Add(rm + "_fill_delta", 100 * (recd.fill / base.fill - 1),
               paper_fill[i], "%");
    report.Add(rm + "_convert_delta",
               100 * (recd.convert / base.convert - 1), paper_convert[i],
               "%");
    report.Add(rm + "_process_delta",
               100 * (recd.process / base.process - 1), paper_process[i],
               "%");
  }

  // ---- ReaderPool scaling: DPP-style reader fleet on one host. -------
  // The paper's readers scale out as a tier (§2.1); here N workers scan
  // the RM1 RecD table and wall-clock rows/s is measured per N. The
  // batch stream is byte-identical for every N (ordered reassembly), so
  // this isolates pure parallel speedup.
  bench::PrintHeader("ReaderPool scaling (RM1, RecD table, wall clock)");
  std::printf("%-8s %14s %10s\n", "workers", "rows/s", "speedup");
  bench::PrintRule();
  {
    auto b = bench::RmBench::Make(datagen::RmKind::kRm1, 8);
    datagen::TrafficGenerator gen(b.spec);
    const auto traffic = gen.Generate(bench::SmokeOr<std::size_t>(16'000, 1'500));
    auto samples = etl::JoinLogs(traffic.features, traffic.events);
    etl::ClusterBySession(samples);
    storage::StorageSchema schema;
    schema.num_dense = b.spec.num_dense;
    for (const auto& f : b.spec.sparse) {
      schema.sparse_names.push_back(f.name);
    }
    storage::BlobStore store;
    const auto landed =
        storage::LandTable(store, "scale", schema, {samples});

    double base_rate = 0;
    for (const std::size_t workers : {1, 2, 4, 8}) {
      auto loader = train::MakeDataLoaderConfig(b.model, 512, true);
      loader.num_workers = workers;
      reader::ReaderPool pool(store, landed.table, loader,
                              reader::ReaderOptions{.use_ikjt = true});
      common::Stopwatch wall;
      wall.Start();
      std::size_t rows = 0;
      while (auto batch = pool.NextBatch()) rows += batch->batch_size;
      wall.Stop();
      const double rate = static_cast<double>(rows) / wall.seconds();
      if (workers == 1) base_rate = rate;
      std::printf("%-8zu %14.0f %9.2fx\n", workers, rate,
                  rate / base_rate);
      report.Add("reader_pool_rows_per_s_w" + std::to_string(workers),
                 rate, std::nullopt, "rows/s");
      report.Add("reader_pool_speedup_w" + std::to_string(workers),
                 rate / base_rate, std::nullopt, "x");
    }
  }
  bench::PrintRule();
  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}
