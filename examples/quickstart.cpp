// Quickstart: build a KJT batch, deduplicate it into IKJTs, and verify
// that a model sees exactly the same data either way.
//
// This walks the paper's Fig 5 example end to end:
//   1. three training rows with features a..d,
//   2. KJT conversion for feature a,
//   3. IKJT conversion for feature b and for the grouped pair (c, d),
//   4. pooled-embedding forward over both representations,
//   5. identical results, fewer lookups.
#include <cstdio>

#include "common/rng.h"
#include "nn/embedding.h"
#include "tensor/ikjt.h"
#include "tensor/jagged.h"
#include "tensor/serialize.h"
#include "train/reference.h"

int main() {
  using namespace recd;
  using tensor::Id;

  // --- 1. The paper's batch of three samples (Fig 5). -------------------
  tensor::KeyedJaggedTensor kjt;
  kjt.AddFeature("feature_a",
                 tensor::JaggedTensor::FromRows({{1, 2}, {}, {1, 2}}));
  kjt.AddFeature("feature_b", tensor::JaggedTensor::FromRows(
                                  {{3, 4, 5}, {4, 5, 6}, {3, 4, 5}}));
  kjt.AddFeature("feature_c",
                 tensor::JaggedTensor::FromRows({{7, 8}, {7, 8}, {10}}));
  kjt.AddFeature("feature_d",
                 tensor::JaggedTensor::FromRows({{9}, {9}, {11}}));

  // --- 2. Deduplicate feature b, and (c, d) as a group. -----------------
  tensor::DedupStats stats_b;
  const std::vector<std::string> group_b = {"feature_b"};
  const auto ikjt_b = tensor::DeduplicateGroup(kjt, group_b, &stats_b);
  const std::vector<std::string> group_cd = {"feature_c", "feature_d"};
  tensor::DedupStats stats_cd;
  const auto ikjt_cd = tensor::DeduplicateGroup(kjt, group_cd, &stats_cd);

  std::printf("feature_b:   %zu rows -> %zu unique, DedupeFactor %.2f\n",
              stats_b.batch_size, stats_b.unique_rows,
              stats_b.dedupe_factor());
  std::printf("feature_c,d: %zu rows -> %zu unique (shared lookup)\n",
              stats_cd.batch_size, stats_cd.unique_rows);
  std::printf("inverse_lookup(b) = [");
  for (const auto v : ikjt_b.inverse_lookup()) std::printf(" %lld", (long long)v);
  std::printf(" ]   (paper: [0, 1, 0])\n");

  // --- 3. Wire sizes: IKJTs strictly shrink tensor payloads. -----------
  std::printf("wire bytes: KJT(b)=%zu  IKJT(b)=%zu\n",
              tensor::KjtWireBytes(kjt) / 4,  // just feature b's share
              tensor::IkjtWireBytes(ikjt_b, true));

  // --- 4. Pooled embedding over both representations. -------------------
  common::Rng rng(42);
  nn::EmbeddingTable table(1000, 8, rng);
  const auto pooled_kjt = nn::SumPool({&table}, {&kjt.Get("feature_b")});
  auto pooled_unique = nn::SumPool({&table}, {&ikjt_b.Unique("feature_b")});
  const auto pooled_ikjt =
      train::ExpandRows(pooled_unique, ikjt_b.inverse_lookup());

  const float diff = nn::MaxAbsDiff(pooled_kjt, pooled_ikjt);
  std::printf("max |KJT - IKJT| after pooling+expansion: %g\n", diff);
  std::printf("lookups: KJT %zu vs IKJT %zu\n",
              kjt.Get("feature_b").total_values(),
              ikjt_b.Unique("feature_b").total_values());
  if (diff != 0.0f) {
    std::printf("ERROR: representations disagree!\n");
    return 1;
  }
  std::printf("OK: IKJTs encode exactly the same logical data as KJTs.\n");
  return 0;
}
