// End-to-end e-commerce scenario (the paper's motivating example): a
// shopper's session generates many impressions whose cart features
// rarely change. The example runs the full pipeline — traffic, Scribe,
// ETL, columnar storage, readers, executed trainer — once as the
// baseline and once with every RecD optimization, and prints the
// end-to-end savings.
#include <cstdio>

#include "core/pipeline.h"
#include "datagen/schema.h"
#include "train/model.h"

int main() {
  using namespace recd;

  // --- Schema: cart sequences (item id + seller id move in lockstep),  --
  // --- a browse-history sequence, and per-impression item features.    --
  datagen::DatasetSpec spec;
  spec.seed = 2024;
  spec.num_dense = 8;
  spec.mean_session_size = 16.5;
  spec.concurrent_sessions = 256;
  auto add = [&](const std::string& name, datagen::FeatureClass klass,
                 datagen::UpdateKind update, double len, double stay,
                 int group) {
    datagen::SparseFeatureSpec f;
    f.name = name;
    f.klass = klass;
    f.update = update;
    f.mean_length = len;
    f.stay_prob = stay;
    f.id_domain = 500'000;
    f.sync_group = group;
    spec.sparse.push_back(std::move(f));
  };
  // Cart item-ids and seller-ids update together when an item is added.
  add("cart_item_ids", datagen::FeatureClass::kUser,
      datagen::UpdateKind::kShiftAppend, 24, 0.95, 0);
  add("cart_seller_ids", datagen::FeatureClass::kUser,
      datagen::UpdateKind::kShiftAppend, 24, 0.95, 0);
  add("browse_history", datagen::FeatureClass::kUser,
      datagen::UpdateKind::kShiftAppend, 48, 0.90, -1);
  add("user_categories", datagen::FeatureClass::kUser,
      datagen::UpdateKind::kRedraw, 12, 0.97, -1);
  add("candidate_item", datagen::FeatureClass::kItem,
      datagen::UpdateKind::kRedraw, 2, 0.05, -1);

  // --- Model: attention over the browse history, sum-pooling elsewhere. -
  train::ModelConfig model;
  model.name = "ecommerce";
  model.emb_dim = 64;
  model.emb_hash_size = 50'000;
  model.dense_dim = spec.num_dense;
  model.sequence_groups.push_back({{"cart_item_ids", "cart_seller_ids"},
                                   /*attention=*/true});
  model.sequence_groups.push_back({{"browse_history"}, /*attention=*/true});
  model.elementwise_features = {"user_categories"};
  model.plain_features = {"candidate_item"};

  core::PipelineOptions opts;
  opts.num_samples = 12'000;
  opts.samples_per_partition = 12'000;
  core::PipelineRunner runner(spec, model, opts);

  const auto base = runner.Run(core::RecdConfig::Baseline(256));
  const auto recd = runner.Run(core::RecdConfig::Full(256));

  std::printf("=== e-commerce session pipeline: baseline vs RecD ===\n\n");
  std::printf("%-38s %12s %12s\n", "", "baseline", "RecD");
  std::printf("%-38s %12.2f %12.2f\n", "scribe compression ratio",
              base.scribe_compression_ratio, recd.scribe_compression_ratio);
  std::printf("%-38s %12.2f %12.2f\n", "storage compression ratio",
              base.storage_compression_ratio,
              recd.storage_compression_ratio);
  std::printf("%-38s %12.2f %12.2f\n", "samples/session inside a batch",
              base.batch_samples_per_session,
              recd.batch_samples_per_session);
  std::printf("%-38s %12.1f %12.1f\n", "reader MB read",
              base.reader_io.bytes_read / 1e6,
              recd.reader_io.bytes_read / 1e6);
  std::printf("%-38s %12.1f %12.1f\n", "reader MB sent to trainers",
              base.reader_io.bytes_sent / 1e6,
              recd.reader_io.bytes_sent / 1e6);
  std::printf("%-38s %12.0f %12.0f\n", "trainer samples/s (executed)",
              base.trainer_qps, recd.trainer_qps);
  std::printf("%-38s %12s %12.2f\n", "measured dedupe factor", "-",
              recd.mean_dedupe_factor);
  std::printf("\nRecD end-to-end: %.2fx trainer, %.2fx fewer bytes read, "
              "%.2fx fewer bytes sent\n",
              recd.trainer_qps / base.trainer_qps,
              static_cast<double>(base.reader_io.bytes_read) /
                  recd.reader_io.bytes_read,
              static_cast<double>(base.reader_io.bytes_sent) /
                  recd.reader_io.bytes_sent);
  return 0;
}
