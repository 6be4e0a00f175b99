// Internal split of the kernel layer: `detail` holds the scalar
// reference implementations (kernels.cpp — the bitwise oracle), `simd`
// the AVX2 implementations (kernels_simd.cpp). The public dispatchers in
// kernels.cpp pick one per call; nothing outside src/kernels/ includes
// this header. The scalar-only kernels (kernels.h: BCE, SgdUpdate,
// AddInPlace, DenseNormalize, DenseClamp) live in kernels.cpp alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kernels/kernels.h"

namespace recd::kernels::detail {

void SumPoolGroup(std::span<const GroupFeature> group, std::size_t dim,
                  float* out);
void FusedPooledLookup(std::span<const GroupFeature> group,
                       std::span<const std::int64_t> inverse,
                       std::size_t dim, float* out);
void ScatterSgdUpdate(const tensor::JaggedTensor& batch, const float* grad,
                      float lr, float* weights, std::size_t hash_size,
                      std::size_t dim);
void MatmulABt(const float* a, std::size_t m, std::size_t k, const float* b,
               std::size_t n, float* c);
void MatmulAB(const float* a, std::size_t m, std::size_t k, const float* b,
              std::size_t n, float* c);
void AccumulateOuter(const float* g, std::size_t rows, std::size_t out_dim,
                     const float* x, std::size_t in_dim, float* grad_w,
                     float* grad_b);
void InteractionForward(std::span<const float* const> inputs,
                        std::size_t rows, std::size_t d, float* out);
void InteractionBackward(const float* grad_out,
                         std::span<const float* const> inputs,
                         std::size_t rows, std::size_t d,
                         std::span<float* const> grads);
void AddRowBias(float* y, std::size_t rows, std::size_t cols,
                const float* bias);
void ReluInPlace(float* v, std::size_t n);
void ReluMask(float* g, const float* pre, std::size_t n);

/// Slot buckets of an inverse lookup: slots[offsets[u] .. offsets[u+1])
/// lists the batch slots mapping to unique row u, in ascending slot
/// order. Integer-only prep shared by both fused implementations.
struct InverseBuckets {
  std::vector<std::int64_t> slots;
  std::vector<std::size_t> offsets;  // unique_rows + 1 entries
};
[[nodiscard]] InverseBuckets BucketInverse(
    std::span<const std::int64_t> inverse, std::size_t unique_rows);

}  // namespace recd::kernels::detail

namespace recd::kernels::simd {

// Same contracts as the detail:: functions; bitwise-identical results.
// On platforms without AVX2 these are thin wrappers over detail:: (the
// dispatcher never selects them there, but they must link).
void SumPoolGroup(std::span<const GroupFeature> group, std::size_t dim,
                  float* out);
void FusedPooledLookup(std::span<const GroupFeature> group,
                       std::span<const std::int64_t> inverse,
                       std::size_t dim, float* out);
void ScatterSgdUpdate(const tensor::JaggedTensor& batch, const float* grad,
                      float lr, float* weights, std::size_t hash_size,
                      std::size_t dim);
void MatmulABt(const float* a, std::size_t m, std::size_t k, const float* b,
               std::size_t n, float* c);
void MatmulAB(const float* a, std::size_t m, std::size_t k, const float* b,
              std::size_t n, float* c);
void AccumulateOuter(const float* g, std::size_t rows, std::size_t out_dim,
                     const float* x, std::size_t in_dim, float* grad_w,
                     float* grad_b);
void InteractionForward(std::span<const float* const> inputs,
                        std::size_t rows, std::size_t d, float* out);
void InteractionBackward(const float* grad_out,
                         std::span<const float* const> inputs,
                         std::size_t rows, std::size_t d,
                         std::span<float* const> grads);
void AddRowBias(float* y, std::size_t rows, std::size_t cols,
                const float* bias);
void ReluInPlace(float* v, std::size_t n);
void ReluMask(float* g, const float* pre, std::size_t n);

}  // namespace recd::kernels::simd
