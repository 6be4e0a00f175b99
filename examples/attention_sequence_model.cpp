// Long-sequence attention model (the paper's RM1 pattern): user-history
// sequence features pooled by self-attention, grouped into one IKJT so
// the transformer runs once per *unique* row (O7). Uses real math and
// prints measured flop/lookup savings plus the exactness check.
#include <cstdio>

#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/model.h"
#include "train/reference.h"

int main() {
  using namespace recd;

  // RM1-flavoured dataset: long sequences, strong in-session stability.
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.15);
  spec.concurrent_sessions = 32;  // deep sessions inside one batch
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 20'000;

  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(512);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);

  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed = storage::LandTable(store, "t", schema, {samples});

  reader::ReaderPool rdr(store, landed.table,
                         train::MakeDataLoaderConfig(model, 256, true),
                         reader::ReaderOptions{.use_ikjt = true});
  const auto batch = rdr.NextBatch();
  if (!batch.has_value()) {
    std::printf("no batch produced\n");
    return 1;
  }

  std::printf("=== attention sequence model: KJT vs grouped-IKJT ===\n\n");
  std::printf("batch: %zu rows, %zu dedup groups\n", batch->batch_size,
              batch->groups.size());
  for (std::size_t g = 0; g < batch->group_stats.size() && g < 5; ++g) {
    const auto& s = batch->group_stats[g];
    std::printf("  group %zu: %zu -> %zu unique rows, factor %.2f\n", g,
                s.batch_size, s.unique_rows, s.dedupe_factor());
  }

  train::ReferenceDlrm dlrm(model, 7);
  dlrm.ResetStats();
  const auto logits_baseline = dlrm.Forward(*batch, /*recd=*/false);
  const auto baseline_stats = dlrm.Stats();
  dlrm.ResetStats();
  const auto logits_recd = dlrm.Forward(*batch, /*recd=*/true);
  const auto recd_stats = dlrm.Stats();

  std::printf("\n%-28s %14s %14s %8s\n", "", "baseline", "RecD", "ratio");
  std::printf("%-28s %14llu %14llu %7.2fx\n", "forward flops",
              (unsigned long long)baseline_stats.flops,
              (unsigned long long)recd_stats.flops,
              static_cast<double>(baseline_stats.flops) /
                  static_cast<double>(recd_stats.flops));
  std::printf("%-28s %14llu %14llu %7.2fx\n", "embedding lookups",
              (unsigned long long)baseline_stats.lookups,
              (unsigned long long)recd_stats.lookups,
              static_cast<double>(baseline_stats.lookups) /
                  static_cast<double>(recd_stats.lookups));

  const float diff = nn::MaxAbsDiff(logits_baseline, logits_recd);
  std::printf("\nmax |logit difference| = %g (must be 0)\n", diff);
  return diff == 0.0f ? 0 : 1;
}
