// Table 3: reader ingest and egress bytes for a fixed number of samples.
//
// Paper:                      Read bytes     Send bytes
//   Baseline                    538 GB          837 GB
//   with Cluster (O2)           179 GB          837 GB
//   with IKJT (O3/O4)           179 GB          713 GB
// i.e. clustering cuts reads ~3x and IKJTs cut sends ~1.17x.
#include <cstdio>

#include "bench_util.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"

int main() {
  using namespace recd;
  bench::PrintHeader("Table 3: reader ingest/egress bytes, fixed samples");

  auto b = bench::RmBench::Make(datagen::RmKind::kRm1, 8);
  datagen::TrafficGenerator gen(b.spec);
  const auto traffic = gen.Generate(bench::SmokeOr<std::size_t>(16'000, 1'500));
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  storage::StorageSchema schema;
  schema.num_dense = b.spec.num_dense;
  for (const auto& f : b.spec.sparse) schema.sparse_names.push_back(f.name);

  storage::BlobStore store;
  auto baseline_landed =
      storage::LandTable(store, "base", schema, {samples});
  auto clustered = samples;
  etl::ClusterBySession(clustered);
  auto clustered_landed =
      storage::LandTable(store, "clustered", schema, {clustered});

  auto run = [&](const storage::Table& table, bool use_ikjt) {
    auto loader = train::MakeDataLoaderConfig(b.model, 512, use_ikjt);
    reader::ReaderPool rdr(store, table, loader,
                           reader::ReaderOptions{.use_ikjt = use_ikjt});
    while (rdr.NextBatch().has_value()) {
    }
    return rdr.io();
  };

  const auto base_io = run(baseline_landed.table, false);
  const auto cluster_io = run(clustered_landed.table, false);
  const auto ikjt_io = run(clustered_landed.table, true);

  std::printf("%-18s %14s %14s\n", "experiment", "read MB", "send MB");
  bench::PrintRule();
  auto mb = [](std::size_t bytes) { return bytes / 1e6; };
  std::printf("%-18s %14.1f %14.1f\n", "Baseline", mb(base_io.bytes_read),
              mb(base_io.bytes_sent));
  std::printf("%-18s %14.1f %14.1f\n", "with Cluster",
              mb(cluster_io.bytes_read), mb(cluster_io.bytes_sent));
  std::printf("%-18s %14.1f %14.1f\n", "with IKJT",
              mb(ikjt_io.bytes_read), mb(ikjt_io.bytes_sent));
  bench::PrintRule();
  std::printf("%-34s %10s %12s\n", "ratio", "measured", "paper");
  bench::PrintRatioRow(
      "read: baseline / clustered",
      static_cast<double>(base_io.bytes_read) /
          static_cast<double>(cluster_io.bytes_read),
      538.0 / 179.0);
  bench::PrintRatioRow(
      "send: baseline / IKJT",
      static_cast<double>(base_io.bytes_sent) /
          static_cast<double>(ikjt_io.bytes_sent),
      837.0 / 713.0);
  return 0;
}
