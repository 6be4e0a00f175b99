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
#include "nn/embedding_shard.h"
#include "nn/mlp.h"
#include "reader/batch.h"
#include "train/model.h"
#include "train/step.h"

namespace recd::train {

class ReferenceDlrm {
 public:
  ReferenceDlrm(ModelConfig model, std::uint64_t seed);

  /// Forward to logits (batch_size x 1). `recd` selects the deduplicated
  /// compute path; it requires the batch to carry IKJT groups. The
  /// baseline path accepts either batch form (IKJTs are expanded first).
  [[nodiscard]] nn::DenseMatrix Forward(
      const reader::PreprocessedBatch& batch, bool recd);

  /// One SGD step: train/step.h's step at one rank, on expanded rows,
  /// with no exchanges. Sum-pools sequence groups regardless of the
  /// attention flag (attention backward is out of scope). The result the
  /// distributed trainer must match bitwise. Returns the batch loss.
  /// Throws std::invalid_argument on a batch CheckTrainBatch rejects.
  float TrainStep(const reader::PreprocessedBatch& batch, float lr);

  /// Mean BCE loss without updating parameters, pooled as in TrainStep.
  /// Throws like TrainStep.
  [[nodiscard]] float EvalLoss(const reader::PreprocessedBatch& batch);

  [[nodiscard]] const ModelConfig& model() const { return model_; }

  /// Parameter access for the distributed bitwise-equality tests.
  [[nodiscard]] const nn::Mlp& bottom_mlp() const { return dense_.bottom; }
  [[nodiscard]] const nn::Mlp& top_mlp() const { return dense_.top; }
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
    return dense_.backend;
  }

 private:
  /// The forward's pooling, one matrix per unit in unit order:
  /// attention for groups that ask for it, nn::SumPool otherwise; with
  /// `recd`, on unique IKJT rows expanded through the inverse.
  [[nodiscard]] std::vector<nn::DenseMatrix> PoolSparse(
      const reader::PreprocessedBatch& batch, bool recd);
  /// PoolUnit over every unit's expanded features (the reference never
  /// pools unique rows): the training-path pooling.
  [[nodiscard]] std::vector<nn::DenseMatrix> PoolExpanded(
      const std::vector<std::vector<tensor::JaggedTensor>>& ids);
  /// Bottom MLP, interaction over {bottom, pooled...}, top MLP.
  [[nodiscard]] nn::DenseMatrix Logits(
      const reader::PreprocessedBatch& batch,
      const std::vector<nn::DenseMatrix>& pooled);

  ModelConfig model_;
  DenseReplica dense_;
  nn::SelfAttentionPooling attention_;
  std::vector<PlacementUnit> units_;
  nn::EmbeddingShardView tables_;  // every table, by ModelTableOrder id

  [[nodiscard]] std::size_t TableId(const std::string& feature) const;
};

}  // namespace recd::train
