#include "nn/loss.h"

#include <cmath>
#include <stdexcept>

#include "kernels/kernels.h"

namespace recd::nn {

float Sigmoid(float x) {
  if (x >= 0.0f) {
    return 1.0f / (1.0f + std::exp(-x));
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

double BceWithLogitsLossSum(const DenseMatrix& logits,
                            std::span<const float> labels) {
  if (logits.rows() != labels.size() || logits.cols() != 1) {
    throw std::invalid_argument("BceWithLogitsLossSum: shape mismatch");
  }
  // loss term = max(z,0) - z*y + log(1 + exp(-|z|)) (stable form).
  return kernels::BceLossSum(logits.data().data(), labels.data(),
                             labels.size());
}

float BceWithLogitsLoss(const DenseMatrix& logits,
                        std::span<const float> labels) {
  return static_cast<float>(BceWithLogitsLossSum(logits, labels) /
                            static_cast<double>(logits.rows()));
}

DenseMatrix BceWithLogitsGrad(const DenseMatrix& logits,
                              std::span<const float> labels,
                              std::size_t denom) {
  if (logits.rows() != labels.size() || logits.cols() != 1) {
    throw std::invalid_argument("BceWithLogitsGrad: shape mismatch");
  }
  if (denom == 0) {
    throw std::invalid_argument("BceWithLogitsGrad: zero denominator");
  }
  DenseMatrix grad(logits.rows(), 1);
  const float inv_n = 1.0f / static_cast<float>(denom);
  kernels::BceGrad(logits.data().data(), labels.data(), labels.size(),
                   inv_n, grad.data().data());
  return grad;
}

DenseMatrix BceWithLogitsGrad(const DenseMatrix& logits,
                              std::span<const float> labels) {
  return BceWithLogitsGrad(logits, labels, logits.rows());
}

}  // namespace recd::nn
