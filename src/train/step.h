// One DLRM training step, shared by ReferenceDlrm::TrainStep (the whole
// batch at one rank) and DistributedTrainer::RunRank (a rank's rows
// between the four exchanges), so the float-op order the determinism
// contract rests on is written once (docs/ARCHITECTURE.md §4, §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kernels/backend.h"
#include "nn/embedding.h"
#include "nn/embedding_shard.h"
#include "nn/interaction.h"
#include "nn/mlp.h"
#include "reader/batch.h"
#include "train/model.h"

namespace recd::train {

/// The canonical accumulation granularity of training-step reductions
/// (per-layer dW/db sums and the batch loss sum): per-chunk partials
/// (chunk c covers batch rows [floor(c*B/K), floor((c+1)*B/K))) combine
/// from zeros in ascending chunk order, so any rank count that divides
/// kGradChunks produces bitwise-identical weights and losses.
inline constexpr std::size_t kGradChunks = 4;

/// Row boundaries of the canonical chunks: kGradChunks + 1 entries,
/// bounds[c] = floor(c * batch_size / kGradChunks).
[[nodiscard]] std::vector<std::size_t> GradChunkBounds(
    std::size_t batch_size);

/// The batch's IKJT group that holds `feature`, or nullptr.
[[nodiscard]] const tensor::InverseKeyedJaggedTensor* GroupWith(
    const reader::PreprocessedBatch& batch, const std::string& feature);

/// Looks up the expanded (batch-rows) jagged tensor of `feature` in a
/// batch, reconstructing from an IKJT when the feature was deduplicated.
[[nodiscard]] tensor::JaggedTensor ExpandedFeature(
    const reader::PreprocessedBatch& batch, const std::string& feature);

/// Gathers rows: out(i, :) = pooled(inverse[i], :). The RecD post-pooling
/// expansion (dense index-select through the local inverse_lookup).
[[nodiscard]] nn::DenseMatrix ExpandRows(
    const nn::DenseMatrix& pooled, std::span<const std::int64_t> inverse);

/// The dense model, one per rank: bottom MLP (seeded from `seed`), top
/// MLP (`seed + 1`), interaction, and the kernel backend of the step.
struct DenseReplica {
  DenseReplica(const ModelConfig& model, std::uint64_t seed,
               kernels::KernelBackend backend);

  void SetBackend(kernels::KernelBackend b);
  /// Length of the flattened MLP gradient (see ChunkGradients).
  [[nodiscard]] std::size_t grad_width() const {
    return bottom.num_params() + top.num_params();
  }

  nn::Mlp bottom;
  nn::Mlp top;
  nn::FeatureInteraction interaction;
  kernels::KernelBackend backend;
};

/// Throws std::invalid_argument, prefixed with `who`, on an empty batch
/// or when the dense features or labels do not match batch_size.
void CheckTrainBatch(const reader::PreprocessedBatch& batch,
                     std::size_t dense_dim, const char* who);

/// Each unit's features expanded to batch rows, in unit order; with
/// `skip_dedup`, deduplicated units stay empty (RecD ships IKJTs).
[[nodiscard]] std::vector<std::vector<tensor::JaggedTensor>> ExpandUnits(
    const reader::PreprocessedBatch& batch,
    const std::vector<PlacementUnit>& units, bool skip_dedup);

/// Sum-pools one unit over `jts` (one jagged tensor per feature: batch,
/// rank or unique IKJT rows) through nn::SumPool at the jagged rows.
[[nodiscard]] nn::DenseMatrix PoolUnit(
    const PlacementUnit& unit, const std::vector<tensor::JaggedTensor>& jts,
    nn::EmbeddingShardView& tables);

/// A chunk's loss partial and MLP gradients, flattened (bottom then top,
/// per layer dW then db): the all-reduce payload.
struct ChunkGradients {
  double loss_sum = 0.0;
  std::vector<float> mlp;
};

/// Forward and backward over batch rows [lo, hi), one canonical chunk;
/// the BCE gradient is a mean over the whole batch. `pooled[u]` and
/// `unit_grads[u]` hold unit u's rows from batch row `base`; the chunk's
/// pooled-input gradients land in `unit_grads`.
[[nodiscard]] ChunkGradients DenseChunkStep(
    DenseReplica& dense, const reader::PreprocessedBatch& batch,
    std::size_t lo, std::size_t hi, std::size_t base,
    const std::vector<nn::DenseMatrix>& pooled,
    std::vector<nn::DenseMatrix>& unit_grads);

/// Sparse SGD for one unit: ApplyPooledGradient of `grads` on each
/// feature's table, in row order. Given an `inverse` (unique RecD rows),
/// the ids are first expanded through JaggedIndexSelect, so the float
/// updates run per expanded row exactly as in the baseline.
void ApplyUnitGradient(const PlacementUnit& unit,
                       const std::vector<tensor::JaggedTensor>& jts,
                       const std::vector<std::int64_t>* inverse,
                       const nn::DenseMatrix& grads, float lr,
                       nn::EmbeddingShardView& tables);

/// Unflattens the chunk-combined MLP gradients and steps both MLPs.
void ApplyDenseGradients(DenseReplica& dense, std::span<const float> mlp,
                         float lr);

}  // namespace recd::train
