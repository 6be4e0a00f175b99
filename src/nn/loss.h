// Binary cross-entropy with logits (the CTR objective).
#pragma once

#include <span>
#include <vector>

#include "nn/dense_matrix.h"

namespace recd::nn {

/// Numerically-stable sigmoid.
[[nodiscard]] float Sigmoid(float x);

/// Mean BCE-with-logits loss over a batch. `logits` is rows x 1.
[[nodiscard]] float BceWithLogitsLoss(const DenseMatrix& logits,
                                      std::span<const float> labels);

/// Sum (not mean) of the per-row stable BCE terms, accumulated in
/// double: the chunk partial of the deterministic blocked loss
/// reduction (train::kGradChunks) in train::DenseChunkStep.
[[nodiscard]] double BceWithLogitsLossSum(const DenseMatrix& logits,
                                          std::span<const float> labels);

/// dL/dlogits for the mean BCE loss: (sigmoid(z) - y) / N, rows x 1.
[[nodiscard]] DenseMatrix BceWithLogitsGrad(const DenseMatrix& logits,
                                            std::span<const float> labels);

/// Same, but the mean is taken over `denom` rows — the *global* batch
/// size when `logits` covers only one rank's or one chunk's rows.
[[nodiscard]] DenseMatrix BceWithLogitsGrad(const DenseMatrix& logits,
                                            std::span<const float> labels,
                                            std::size_t denom);

}  // namespace recd::nn
