// The §6.2 accuracy experiment: does clustering samples by session (O2)
// hurt or help model quality?
//
// The paper argues clustering *helps* generalization: without it, a
// session's duplicate feature values are spread across many batches, so
// the model applies repeated sparse updates to the same rows over many
// iterations and overfits tail values. This example trains the same
// model (identical seeds) on the same samples in interleaved vs
// clustered order, evaluates on held-out data, and also verifies the
// IKJT-vs-KJT training-loss identity.
#include <cstdio>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "train/model.h"
#include "train/reference.h"

namespace {

using namespace recd;

double TrainAndEval(const datagen::DatasetSpec& spec,
                    const train::ModelConfig& model,
                    const std::vector<datagen::Sample>& train_set,
                    const std::vector<datagen::Sample>& eval_set,
                    int epochs) {
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  train::ReferenceDlrm dlrm(model, 777);
  for (int e = 0; e < epochs; ++e) {
    storage::BlobStore store;
    auto landed = storage::LandTable(store, "t", schema, {train_set});
    reader::ReaderPool rdr(store, landed.table,
                           train::MakeDataLoaderConfig(model, 128, true),
                           reader::ReaderOptions{.use_ikjt = true});
    while (auto batch = rdr.NextBatch()) {
      (void)dlrm.TrainStep(*batch, 0.03f);
    }
  }
  storage::BlobStore store;
  auto landed = storage::LandTable(store, "e", schema, {eval_set});
  reader::ReaderPool rdr(store, landed.table,
                         train::MakeDataLoaderConfig(model, 128, true),
                         reader::ReaderOptions{.use_ikjt = true});
  double total = 0;
  std::size_t n = 0;
  while (auto batch = rdr.NextBatch()) {
    total += dlrm.EvalLoss(*batch) * static_cast<double>(batch->batch_size);
    n += batch->batch_size;
  }
  return total / static_cast<double>(n);
}

}  // namespace

int main() {
  using namespace recd;
  auto spec = datagen::RmDataset(datagen::RmKind::kRm2, 0.05);
  spec.concurrent_sessions = 24;
  auto model = train::RmModel(datagen::RmKind::kRm2, spec);
  model.emb_hash_size = 3000;  // small tables: tail values collide often

  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(2048);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  const std::size_t train_n = 1536;
  std::vector<datagen::Sample> interleaved(samples.begin(),
                                           samples.begin() + train_n);
  std::vector<datagen::Sample> eval_set(samples.begin() + train_n,
                                        samples.end());
  auto clustered = interleaved;
  etl::ClusterBySession(clustered);

  std::printf("=== clustering-accuracy experiment (paper Section 6.2) ===\n");
  std::printf("training %zu samples, evaluating %zu held-out samples\n\n",
              train_n, eval_set.size());
  const double loss_interleaved =
      TrainAndEval(spec, model, interleaved, eval_set, 3);
  const double loss_clustered =
      TrainAndEval(spec, model, clustered, eval_set, 3);
  std::printf("eval BCE loss, interleaved batches: %.5f\n",
              loss_interleaved);
  std::printf("eval BCE loss, clustered batches:   %.5f\n", loss_clustered);
  std::printf("clustered / interleaved = %.4f %s\n",
              loss_clustered / loss_interleaved,
              loss_clustered <= loss_interleaved
                  ? "(clustering helped, as the paper reports)"
                  : "(no improvement at this toy scale)");
  std::printf("\nNote: the paper's effect concerns tail-value overfitting at\n"
              "production scale; at toy scale the direction can vary run to\n"
              "run, while the IKJT-vs-KJT identity below is exact.\n");

  // IKJT == KJT training identity (the accuracy-neutrality claim).
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed = storage::LandTable(store, "t", schema, {clustered});
  reader::ReaderPool recd_rdr(store, landed.table,
                              train::MakeDataLoaderConfig(model, 128, true),
                              reader::ReaderOptions{.use_ikjt = true});
  reader::ReaderPool base_rdr(store, landed.table,
                              train::MakeDataLoaderConfig(model, 128, false),
                              reader::ReaderOptions{.use_ikjt = false});
  train::ReferenceDlrm a(model, 5);
  train::ReferenceDlrm b(model, 5);
  bool identical = true;
  while (true) {
    auto rb = recd_rdr.NextBatch();
    auto bb = base_rdr.NextBatch();
    if (!rb.has_value() || !bb.has_value()) break;
    identical = identical && a.TrainStep(*rb, 0.03f) == b.TrainStep(*bb, 0.03f);
  }
  std::printf("\nIKJT training losses identical to KJT training: %s\n",
              identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 1;
}
