// The fused/vectorized kernel layer (docs/ARCHITECTURE.md §12).
//
// Every kernel with an AVX2 version takes an explicit KernelBackend.
// kernels.cpp holds the scalar reference loops (the bitwise oracle) and
// kernels_simd.cpp the AVX2 implementations, selected at runtime. The
// bitwise contract — vectorized output identical to scalar output, bit
// for bit — holds because SIMD is applied only along non-reduction
// axes: pooling and SGD vectorize across the embedding-dim axis while
// ids are still visited in row order; the GEMMs run register tiles of
// 4 rows x 16 output columns in which every c(i,j) stays one scalar
// chain in ascending-k order; the pairwise interaction vectorizes
// across pairs (forward) and across dim (backward), each dot still one
// ascending-d chain; and elementwise ops have no cross-lane dependence
// at all.
// Nothing here reassociates a float sum, and the build compiles with
// -ffp-contract=off so no path can fuse a*b+c into an FMA the other
// path did not.
//
// Kernels whose AVX2 version measured below 1.2x over the scalar loop
// keep only the scalar loop and take no backend (4-core Xeon, Release):
// BceLossSum, BceGrad and SgdUpdate (1.10x, 0.98x, 1.04x), AddInPlace
// (0.93-1.04x from 8K to 2M floats), DenseClamp (0.86-0.97x) and
// DenseNormalize (1.17-1.19x at the reader's 4,096 floats, ~0.05 us a
// batch).
//
// Callers (nn::EmbeddingTable, nn::Linear, nn::FeatureInteraction,
// loss, transforms) own all shape validation and OpStats accounting;
// kernels trust their arguments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "kernels/backend.h"
#include "tensor/jagged.h"

namespace recd::kernels {

/// Table row for id under the modulo hash-trick shared by every caller.
[[nodiscard]] inline std::size_t TableRow(tensor::Id id,
                                          std::size_t hash_size) {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(id) %
                                  hash_size);
}

// ---------------------------------------------------------------------------
// Sum-pooled embedding lookup (nn::SumPool)
// ---------------------------------------------------------------------------

/// One feature of a synchronized group: a (possibly deduplicated) jagged
/// tensor plus the embedding table it looks up into. All features of a
/// group share `dim` and row count.
struct GroupFeature {
  const tensor::JaggedTensor* jt = nullptr;
  const float* weights = nullptr;
  std::size_t hash_size = 0;
};

/// Concatenated-group sum pooling at the jagged rows:
/// out(r, :) = sum over features k, then ids of jt_k row r, of the
/// looked-up embedding (a single feature is a group of one). out is
/// rows x dim, zero-filled first, so empty rows pool to zero. Ids
/// accumulate in row order; lanes run across dim.
void SumPoolGroup(KernelBackend backend,
                  std::span<const GroupFeature> group, std::size_t dim,
                  float* out);

/// Fused dedup-aware pooled lookup (RecD O5+O6 in one pass): pools each
/// *unique* row exactly once — features' ids in concatenation order,
/// identical to SumPoolGroup on the expanded rows — then writes the
/// pooled vector into every batch slot i with inverse[i] == u. The
/// expanded KJT is never materialized and no unique row is pooled
/// twice. `group` features are the IKJT's unique tensors; out is
/// inverse.size() x dim. Every inverse entry must be in
/// [0, unique rows).
void FusedPooledLookup(KernelBackend backend,
                       std::span<const GroupFeature> group,
                       std::span<const std::int64_t> inverse,
                       std::size_t dim, float* out);

/// Sparse SGD scatter-update for sum pooling: for each batch row r (in
/// order) and each id of the row (in order),
/// weights[row(id)] -= lr * grad(r, :) — the float-op sequence of
/// EmbeddingTable::ApplyPooledGradient.
void ScatterSgdUpdate(KernelBackend backend,
                      const tensor::JaggedTensor& batch, const float* grad,
                      float lr, float* weights, std::size_t hash_size,
                      std::size_t dim);

/// out(i, :) = src(index[i], :) — the RecD post-pooling expansion and
/// checkpoint gather. Pure row copies (no float arithmetic), so both
/// backends share one implementation.
void GatherRows(KernelBackend backend, const float* src, std::size_t dim,
                std::span<const std::int64_t> index, float* out);

// ---------------------------------------------------------------------------
// GEMM (the MLP forward/backward shapes)
// ---------------------------------------------------------------------------

/// c = a * b^T (a: m x k, b: n x k, c: m x n) — Linear::Forward. Each
/// c(i,j) is one scalar chain over ascending k starting from +0; the
/// vectorized path packs 16-column panels of b k-major and runs a
/// 4-row x 16-column register tile (8 independent chains), preserving
/// each chain's order exactly.
void MatmulABt(KernelBackend backend, const float* a, std::size_t m,
               std::size_t k, const float* b, std::size_t n, float* c);

/// c = a * b (a: m x k, b: k x n, c: m x n), c zero-filled first —
/// Linear::Backward's dX. The scalar path skips a(i,k)==0. When every
/// b value is finite the skip cannot change a bit (c starts at +0 and a
/// sum that starts at +0 never becomes -0, so adding the skipped ±0
/// products is a no-op under round-to-nearest without flush-to-zero),
/// and the vectorized path runs the MatmulABt register tile without
/// it; otherwise it skips exactly as the scalar path does. The choice
/// is made per call from the input.
void MatmulAB(KernelBackend backend, const float* a, std::size_t m,
              std::size_t k, const float* b, std::size_t n, float* c);

/// Linear::Backward's accumulation: for each batch row r in order,
/// grad_w(o, :) += g(r, o) * x(r, :) and grad_b[o] += g(r, o), with the
/// scalar path's g(r,o)==0 skip. g is rows x out_dim, x is rows x
/// in_dim, grad_w is out_dim x in_dim.
void AccumulateOuter(KernelBackend backend, const float* g,
                     std::size_t rows, std::size_t out_dim, const float* x,
                     std::size_t in_dim, float* grad_w, float* grad_b);

// ---------------------------------------------------------------------------
// Pairwise feature interaction (nn::FeatureInteraction)
// ---------------------------------------------------------------------------

/// DLRM dot interaction over f = inputs.size() row-major rows x d
/// matrices: out(r, :) = [x_0(r, :) | <x_i(r, :), x_j(r, :)> for i < j],
/// out is rows x (d + f(f-1)/2). Each dot is one chain over ascending
/// d starting from +0; the vectorized path runs several pairs per lane
/// set out of a per-row transposed copy of the inputs.
void InteractionForward(KernelBackend backend,
                        std::span<const float* const> inputs,
                        std::size_t rows, std::size_t d, float* out);

/// Backward of InteractionForward, accumulated into grads (f matrices
/// of rows x d): per row, grads[0](r, :) += grad_out(r, 0..d), then for
/// each pair (i, j), i < j, in output order with gd = its grad_out
/// entry, skipping gd == 0: grads[i](r, :) += gd * x_j(r, :) and
/// grads[j](r, :) += gd * x_i(r, :). Lanes run across d.
void InteractionBackward(KernelBackend backend, const float* grad_out,
                         std::span<const float* const> inputs,
                         std::size_t rows, std::size_t d,
                         std::span<float* const> grads);

// ---------------------------------------------------------------------------
// Loss
// ---------------------------------------------------------------------------

/// Sum over rows of the stable BCE-with-logits term
/// max(z,0) - z*y + log1p(exp(-|z|)), accumulated into double in row
/// order.
[[nodiscard]] double BceLossSum(const float* logits, const float* labels,
                                std::size_t n);

/// grad[r] = (sigmoid(logits[r]) - labels[r]) * inv_denom, with the
/// branchy numerically-stable sigmoid.
void BceGrad(const float* logits, const float* labels, std::size_t n,
             float inv_denom, float* grad);

// ---------------------------------------------------------------------------
// Elementwise (SGD step, gradient combine, MLP epilogues, transforms)
// ---------------------------------------------------------------------------

/// w[i] -= lr * g[i] — the dense SGD row update (Linear::Step).
void SgdUpdate(float* w, const float* g, std::size_t n, float lr);

/// dst[i] += src[i] — gradient accumulation / the chunk combine.
void AddInPlace(float* dst, const float* src, std::size_t n);

/// y(r, :) += bias — the Linear::Forward bias epilogue.
void AddRowBias(KernelBackend backend, float* y, std::size_t rows,
                std::size_t cols, const float* bias);

/// v = (v < 0) ? 0 : v, preserving the scalar branch exactly
/// (-0 and NaN pass through unchanged).
void ReluInPlace(KernelBackend backend, float* v, std::size_t n);

/// g[i] = 0 where pre[i] <= 0 — the ReLU backward mask.
void ReluMask(KernelBackend backend, float* g, const float* pre,
              std::size_t n);

/// x = (x - mean) * inv_scale — reader kDenseNormalize.
void DenseNormalize(float* x, std::size_t n, float mean, float inv_scale);

/// x = clamp(x, lo, hi) with std::clamp's exact comparison order
/// (x < lo ? lo : hi < x ? hi : x): NaN and -0 pass through.
void DenseClamp(float* x, std::size_t n, float lo, float hi);

}  // namespace recd::kernels
