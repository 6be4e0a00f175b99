// Reference DLRM with real math on a single device.
//
// Two purposes (docs/ARCHITECTURE.md §4): (1) prove the paper's claim that "IKJTs
// encode the exact same logical data as KJTs" — the RecD forward path
// (pool unique rows, expand through inverse_lookup) must produce results
// identical to the baseline path (expand first, pool everything); and
// (2) run the §6.2 accuracy experiment (clustered vs interleaved batches)
// with genuine gradient updates.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/backend.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/interaction.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "reader/batch.h"
#include "train/model.h"

namespace recd::train {

/// The canonical accumulation granularity of training-step reductions
/// (per-layer dW/db sums and the batch loss sum). Both
/// ReferenceDlrm::TrainStep and the executed distributed trainer
/// compute per-chunk partials (chunk c covers batch rows
/// [floor(c*B/K), floor((c+1)*B/K))) and combine them from zeros in
/// ascending chunk order, so any rank count that divides kGradChunks
/// produces bitwise-identical weights and losses (float sums are not
/// associative; a fixed reduction tree makes the split invisible).
inline constexpr std::size_t kGradChunks = 4;

/// Row boundaries of the canonical chunks: kGradChunks + 1 entries,
/// bounds[c] = floor(c * batch_size / kGradChunks).
[[nodiscard]] std::vector<std::size_t> GradChunkBounds(
    std::size_t batch_size);

/// Looks up the expanded (batch-rows) jagged tensor of `feature` in a
/// batch, reconstructing from an IKJT when the feature was deduplicated.
[[nodiscard]] tensor::JaggedTensor ExpandedFeature(
    const reader::PreprocessedBatch& batch, const std::string& feature);

/// Gathers rows: out(i, :) = pooled(inverse[i], :). The RecD post-pooling
/// expansion (dense index-select through the local inverse_lookup).
[[nodiscard]] nn::DenseMatrix ExpandRows(
    const nn::DenseMatrix& pooled, std::span<const std::int64_t> inverse);

/// Sum-pools the concatenation of a sequence group's per-feature
/// sequences: out(r, :) = sum of every looked-up embedding of row r
/// across the group's features, in concatenation order. The TrainStep
/// pooling path for sequence groups (attention backward is out of
/// scope), shared with the distributed trainer so the sharded owner
/// runs the identical float-op sequence. `jts` and `tables` pair up
/// per feature and must all have the same row count and dim.
[[nodiscard]] nn::DenseMatrix SumPoolConcatGroup(
    const std::vector<const tensor::JaggedTensor*>& jts,
    const std::vector<const nn::EmbeddingTable*>& tables);

/// Backend-pinned variant (the overload above uses
/// kernels::DefaultBackend()); bitwise-identical across backends.
[[nodiscard]] nn::DenseMatrix SumPoolConcatGroup(
    kernels::KernelBackend backend,
    const std::vector<const tensor::JaggedTensor*>& jts,
    const std::vector<const nn::EmbeddingTable*>& tables);

class ReferenceDlrm {
 public:
  ReferenceDlrm(ModelConfig model, std::uint64_t seed);

  /// Forward to logits (batch_size x 1). `recd` selects the deduplicated
  /// compute path; it requires the batch to carry IKJT groups. The
  /// baseline path accepts either batch form (IKJTs are expanded first).
  [[nodiscard]] nn::DenseMatrix Forward(
      const reader::PreprocessedBatch& batch, bool recd);

  /// One SGD step (forward, BCE loss, backward, update). Uses sum
  /// pooling for sequence groups regardless of the attention flag
  /// (attention backward is out of scope). Gradient and loss sums
  /// accumulate per canonical chunk (kGradChunks) and combine in fixed
  /// chunk order — the single-rank gold standard the distributed
  /// trainer must match bitwise. Returns the batch loss. Throws
  /// std::invalid_argument on an empty batch.
  float TrainStep(const reader::PreprocessedBatch& batch, float lr);

  /// Mean BCE loss without updating parameters. Throws
  /// std::invalid_argument on an empty batch.
  [[nodiscard]] float EvalLoss(const reader::PreprocessedBatch& batch);

  [[nodiscard]] const ModelConfig& model() const { return model_; }

  /// Parameter access for the distributed bitwise-equality tests.
  [[nodiscard]] const nn::Mlp& bottom_mlp() const { return bottom_mlp_; }
  [[nodiscard]] const nn::Mlp& top_mlp() const { return top_mlp_; }
  [[nodiscard]] const nn::EmbeddingTable& table(
      const std::string& feature) const;

  /// Aggregate op counters since the last reset (drives micro-benches).
  [[nodiscard]] nn::OpStats Stats() const;
  void ResetStats();

  /// Sum of embedding-tier counters across tables — all-zero unless the
  /// model config enabled embedding tiering (docs/ARCHITECTURE.md §13).
  [[nodiscard]] embstore::TierStats TierStats() const;
  void ResetTierStats();

  /// Pins the kernel backend for every MLP layer, embedding table, and
  /// loss/pooling call of this model (default: the process-wide
  /// kernels::DefaultBackend()). Both backends are bitwise-identical;
  /// the parity tests compare them explicitly.
  void SetKernelBackend(kernels::KernelBackend b);
  [[nodiscard]] kernels::KernelBackend kernel_backend() const {
    return backend_;
  }

 private:
  struct PooledInputs {
    std::vector<nn::DenseMatrix> matrices;
    std::vector<const nn::DenseMatrix*> pointers;  // bottom + pooled
  };
  [[nodiscard]] PooledInputs PoolSparse(
      const reader::PreprocessedBatch& batch, bool recd, bool attention_ok);
  [[nodiscard]] nn::DenseMatrix BottomForward(
      const reader::PreprocessedBatch& batch);

  ModelConfig model_;
  kernels::KernelBackend backend_ = kernels::DefaultBackend();
  nn::Mlp bottom_mlp_;
  nn::Mlp top_mlp_;
  nn::FeatureInteraction interaction_;
  nn::SelfAttentionPooling attention_;
  std::vector<std::string> table_order_;
  std::vector<nn::EmbeddingTable> tables_;

  [[nodiscard]] nn::EmbeddingTable& Table(const std::string& feature);
};

}  // namespace recd::train
