// AVX2 implementations of the kernel layer.
//
// Bitwise contract with the scalar oracle (kernels.cpp): SIMD lanes run
// only across non-reduction axes, so every output element sees exactly
// the scalar path's float-op sequence —
//   * pooling / SGD scatter / elementwise ops: 8 dim-columns per lane
//     set, ids and rows still visited in scalar order;
//   * MatmulABt: 16-column panels of b packed k-major, then a register
//     tile of 4 a-rows x 2 lane sets — 8 independent accumulators, each
//     lane the scalar `acc += a*b` chain in ascending k from +0;
//   * MatmulAB: when b is all finite, the same tile over panels of b's
//     rows with no zero skip (the skip cannot change bits then, see
//     kernels.h); otherwise, and in AccumulateOuter, 8 j-columns per
//     lane set with the scalar zero-skip applied per (i,k) before
//     broadcasting;
//   * the interaction forward: per batch row a transposed copy of the
//     inputs (d x f), then up to 32 pairs (i, j..j+31) per call of the
//     dot tile, each lane one ascending-d chain; the backward: 8
//     d-columns per lane set, pairs in output order with the gd == 0
//     skip;
//   * comparisons (max pooling, ReLU, clamp) use cmp+blend/andnot
//     sequences chosen to reproduce the scalar branch bit-for-bit,
//     including -0.0 and NaN behavior (documented per helper).
// Separate mul/add intrinsics (never FMA) pair with the tree-wide
// -ffp-contract=off so neither path contracts where the other does not.
//
// Tails (dim % 8, n % 8) fall back to the scalar loop over the exact
// remaining elements — per-element order unchanged. In a column-tail
// panel the lanes past the valid columns hold leftover values from the
// previous panel; they are computed and never stored.
//
// Everything is compiled for the baseline target; the AVX2 functions
// carry a per-function target attribute and are only reached when
// VectorizedAvailable() said the CPU can run them.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/impl.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define RECD_KERNELS_AVX2 1
#include <immintrin.h>
#endif

namespace recd::kernels::simd {

#if defined(RECD_KERNELS_AVX2)

#define RECD_AVX2 __attribute__((target("avx2")))

namespace {

constexpr std::size_t kLanes = 8;

// dst[0..d) += src[0..d)
RECD_AVX2 inline void AddRows(float* dst, const float* src,
                              std::size_t d) {
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    _mm256_storeu_ps(dst + c,
                     _mm256_add_ps(_mm256_loadu_ps(dst + c),
                                   _mm256_loadu_ps(src + c)));
  }
  for (; c < d; ++c) dst[c] += src[c];
}

// dst[0..d) = max(dst, src) with std::max(a,b) = (a<b)?b:a semantics:
// blendv picks src only where dst < src (ordered, quiet), so NaN in
// either operand and ±0 ties resolve exactly like the scalar branch.
RECD_AVX2 inline void MaxRows(float* dst, const float* src,
                              std::size_t d) {
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    const __m256 a = _mm256_loadu_ps(dst + c);
    const __m256 b = _mm256_loadu_ps(src + c);
    const __m256 lt = _mm256_cmp_ps(a, b, _CMP_LT_OQ);
    _mm256_storeu_ps(dst + c, _mm256_blendv_ps(a, b, lt));
  }
  for (; c < d; ++c) dst[c] = std::max(dst[c], src[c]);
}

// dst[0..d) *= s
RECD_AVX2 inline void ScaleRow(float* dst, float s, std::size_t d) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    _mm256_storeu_ps(dst + c,
                     _mm256_mul_ps(_mm256_loadu_ps(dst + c), sv));
  }
  for (; c < d; ++c) dst[c] *= s;
}

// dst[0..d) -= s * src[0..d)  (mul then sub, like the scalar update)
RECD_AVX2 inline void SubScaledRow(float* dst, const float* src, float s,
                                   std::size_t d) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    _mm256_storeu_ps(
        dst + c,
        _mm256_sub_ps(_mm256_loadu_ps(dst + c),
                      _mm256_mul_ps(sv, _mm256_loadu_ps(src + c))));
  }
  for (; c < d; ++c) dst[c] -= s * src[c];
}

// dst[0..d) += s * src[0..d)
RECD_AVX2 inline void AddScaledRow(float* dst, const float* src, float s,
                                   std::size_t d) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    _mm256_storeu_ps(
        dst + c,
        _mm256_add_ps(_mm256_loadu_ps(dst + c),
                      _mm256_mul_ps(sv, _mm256_loadu_ps(src + c))));
  }
  for (; c < d; ++c) dst[c] += s * src[c];
}

// GEMM register tile: kTileRows rows of a against a kPanel-column panel
// of b packed k-major (panel[kk * kPanel + jj]).
constexpr std::size_t kPanel = 2 * kLanes;
constexpr std::size_t kTileRows = 4;

// c(0..R, 0..width) = rows 0..R of a (row stride k) times the panel: 2R
// accumulators, each lane one ascending-k `acc += a*b` chain from +0.
template <std::size_t R>
RECD_AVX2 inline void PanelTile(const float* a, std::size_t k,
                                const float* panel, float* c,
                                std::size_t ldc, std::size_t width) {
  __m256 lo[R];
  __m256 hi[R];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    lo[r] = _mm256_setzero_ps();
    hi[r] = _mm256_setzero_ps();
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(panel + kk * kPanel);
    const __m256 b1 = _mm256_loadu_ps(panel + kk * kPanel + kLanes);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * k + kk);
      lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b0));
      hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b1));
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* cr = c + r * ldc;
    if (width == kPanel) {
      _mm256_storeu_ps(cr, lo[r]);
      _mm256_storeu_ps(cr + kLanes, hi[r]);
    } else {
      alignas(32) float tmp[kPanel];
      _mm256_store_ps(tmp, lo[r]);
      _mm256_store_ps(tmp + kLanes, hi[r]);
      std::memcpy(cr, tmp, width * sizeof(float));
    }
  }
}

// c (m x n) = a (m x k) times a b handed over one panel at a time:
// pack(j0, jw, panel) writes columns [j0, j0 + jw) of b k-major into
// panel[kk * kPanel + jj]. Lanes past jw (the last panel only) are
// computed and never stored.
template <typename Pack>
RECD_AVX2 inline void PanelGemm(const float* a, std::size_t m,
                                std::size_t k, std::size_t n, float* c,
                                Pack&& pack) {
  std::vector<float> panel(k * kPanel, 0.0f);
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t jw = std::min(kPanel, n - j0);
    pack(j0, jw, panel.data());
    std::size_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      PanelTile<kTileRows>(a + i * k, k, panel.data(), c + i * n + j0, n,
                           jw);
    }
    switch (m - i) {
      case 3:
        PanelTile<3>(a + i * k, k, panel.data(), c + i * n + j0, n, jw);
        break;
      case 2:
        PanelTile<2>(a + i * k, k, panel.data(), c + i * n + j0, n, jw);
        break;
      case 1:
        PanelTile<1>(a + i * k, k, panel.data(), c + i * n + j0, n, jw);
        break;
      default:
        break;
    }
  }
}

// True when no x[0..n) is Inf or NaN (exponent bits all ones).
RECD_AVX2 inline bool AllFinite(const float* x, std::size_t n) {
  const __m256i exp = _mm256_set1_epi32(0x7f800000);
  __m256i bad = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    bad = _mm256_or_si256(
        bad, _mm256_cmpeq_epi32(_mm256_and_si256(v, exp), exp));
  }
  bool finite = _mm256_testz_si256(bad, bad) != 0;
  for (; i < n; ++i) finite = finite && std::isfinite(x[i]);
  return finite;
}

// Pairs per call of the interaction dot tile.
constexpr std::size_t kPairTile = 4 * kLanes;

// dst[q] = <x_i, x_{j+q}> for q < count, out of one batch row's
// transposed inputs t (t[c * stride + i] = x_i[c]): NV lane sets, each
// lane one ascending-d `dot += xi*xj` chain from +0.
template <std::size_t NV>
RECD_AVX2 inline void PairDots(const float* t, std::size_t stride,
                               std::size_t d, std::size_t i, std::size_t j,
                               float* dst, std::size_t count) {
  __m256 acc[NV];
#pragma GCC unroll 4
  for (std::size_t v = 0; v < NV; ++v) acc[v] = _mm256_setzero_ps();
  for (std::size_t c = 0; c < d; ++c) {
    const float* tc = t + c * stride;
    const __m256 xi = _mm256_broadcast_ss(tc + i);
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_ps(
          acc[v], _mm256_mul_ps(xi, _mm256_loadu_ps(tc + j + v * kLanes)));
    }
  }
  alignas(32) float tmp[NV * kLanes];
  for (std::size_t v = 0; v < NV; ++v) {
    _mm256_store_ps(tmp + v * kLanes, acc[v]);
  }
  std::memcpy(dst, tmp, count * sizeof(float));
}

}  // namespace

RECD_AVX2 void PooledLookup(const tensor::JaggedTensor& batch,
                            const float* weights, std::size_t hash_size,
                            std::size_t dim, Pool pool, float* out) {
  const std::size_t rows = batch.num_rows();
  std::memset(out, 0, rows * dim * sizeof(float));
  for (std::size_t r = 0; r < rows; ++r) {
    const auto ids = batch.row(r);
    if (ids.empty()) continue;
    float* orow = out + r * dim;
    switch (pool) {
      case Pool::kSum:
      case Pool::kMean: {
        for (const auto id : ids) {
          AddRows(orow, weights + TableRow(id, hash_size) * dim, dim);
        }
        if (pool == Pool::kMean) {
          ScaleRow(orow, 1.0f / static_cast<float>(ids.size()), dim);
        }
        break;
      }
      case Pool::kMax: {
        std::memcpy(orow, weights + TableRow(ids[0], hash_size) * dim,
                    dim * sizeof(float));
        for (std::size_t i = 1; i < ids.size(); ++i) {
          MaxRows(orow, weights + TableRow(ids[i], hash_size) * dim, dim);
        }
        break;
      }
    }
  }
}

RECD_AVX2 void SumPoolGroup(std::span<const GroupFeature> group,
                            std::size_t dim, float* out) {
  const std::size_t rows = group.front().jt->num_rows();
  std::memset(out, 0, rows * dim * sizeof(float));
  for (std::size_t r = 0; r < rows; ++r) {
    float* orow = out + r * dim;
    for (const auto& f : group) {
      for (const auto id : f.jt->row(r)) {
        AddRows(orow, f.weights + TableRow(id, f.hash_size) * dim, dim);
      }
    }
  }
}

RECD_AVX2 void FusedPooledLookup(std::span<const GroupFeature> group,
                                 std::span<const std::int64_t> inverse,
                                 std::size_t dim, float* out) {
  const std::size_t unique_rows = group.front().jt->num_rows();
  const detail::InverseBuckets buckets =
      detail::BucketInverse(inverse, unique_rows);
  std::vector<float> buf(dim);
  for (std::size_t u = 0; u < unique_rows; ++u) {
    std::memset(buf.data(), 0, dim * sizeof(float));
    for (const auto& f : group) {
      for (const auto id : f.jt->row(u)) {
        AddRows(buf.data(), f.weights + TableRow(id, f.hash_size) * dim,
                dim);
      }
    }
    for (std::size_t s = buckets.offsets[u]; s < buckets.offsets[u + 1];
         ++s) {
      std::memcpy(out + static_cast<std::size_t>(buckets.slots[s]) * dim,
                  buf.data(), dim * sizeof(float));
    }
  }
}

RECD_AVX2 void ScatterSgdUpdate(const tensor::JaggedTensor& batch,
                                const float* grad, Pool pool, float lr,
                                float* weights, std::size_t hash_size,
                                std::size_t dim) {
  const std::size_t rows = batch.num_rows();
  for (std::size_t r = 0; r < rows; ++r) {
    const auto ids = batch.row(r);
    if (ids.empty()) continue;
    const float* g = grad + r * dim;
    const float scale = pool == Pool::kMean
                            ? lr / static_cast<float>(ids.size())
                            : lr;
    for (const auto id : ids) {
      SubScaledRow(weights + TableRow(id, hash_size) * dim, g, scale, dim);
    }
  }
}

RECD_AVX2 void MatmulABt(const float* a, std::size_t m, std::size_t k,
                         const float* b, std::size_t n, float* c) {
  PanelGemm(a, m, k, n, c,
            [&](std::size_t j0, std::size_t jw, float* panel) {
              for (std::size_t kk = 0; kk < k; ++kk) {
                for (std::size_t jj = 0; jj < jw; ++jj) {
                  panel[kk * kPanel + jj] = b[(j0 + jj) * k + kk];
                }
              }
            });
}

RECD_AVX2 void MatmulAB(const float* a, std::size_t m, std::size_t k,
                        const float* b, std::size_t n, float* c) {
  if (AllFinite(b, k * n)) {
    PanelGemm(a, m, k, n, c,
              [&](std::size_t j0, std::size_t jw, float* panel) {
                for (std::size_t kk = 0; kk < k; ++kk) {
                  std::memcpy(panel + kk * kPanel, b + kk * n + j0,
                              jw * sizeof(float));
                }
              });
    return;
  }
  std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    const float* ar = a + i * k;
    float* cr = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = ar[kk];
      if (av == 0.0f) continue;
      AddScaledRow(cr, b + kk * n, av, n);
    }
  }
}

RECD_AVX2 void AccumulateOuter(const float* g, std::size_t rows,
                               std::size_t out_dim, const float* x,
                               std::size_t in_dim, float* grad_w,
                               float* grad_b) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* gr = g + r * out_dim;
    const float* xr = x + r * in_dim;
    for (std::size_t o = 0; o < out_dim; ++o) {
      const float gv = gr[o];
      if (gv == 0.0f) continue;
      AddScaledRow(grad_w + o * in_dim, xr, gv, in_dim);
      grad_b[o] += gv;
    }
  }
}

RECD_AVX2 void InteractionForward(std::span<const float* const> inputs,
                                  std::size_t rows, std::size_t d,
                                  float* out) {
  const std::size_t f = inputs.size();
  const std::size_t width = d + f * (f - 1) / 2;
  // t(c, i) = x_i(r, c), with kLanes - 1 zero columns of padding so a
  // lane set starting at any j < f stays inside the row.
  const std::size_t stride = f + kLanes - 1;
  std::vector<float> t(d * stride, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < f; ++i) {
      const float* xi = inputs[i] + r * d;
      for (std::size_t c = 0; c < d; ++c) t[c * stride + i] = xi[c];
    }
    float* orow = out + r * width;
    std::memcpy(orow, inputs[0] + r * d, d * sizeof(float));
    float* dots = orow + d;
    for (std::size_t i = 0; i + 1 < f; ++i) {
      for (std::size_t j = i + 1; j < f; j += kPairTile) {
        const std::size_t count = std::min(kPairTile, f - j);
        switch ((count + kLanes - 1) / kLanes) {
          case 1:
            PairDots<1>(t.data(), stride, d, i, j, dots, count);
            break;
          case 2:
            PairDots<2>(t.data(), stride, d, i, j, dots, count);
            break;
          case 3:
            PairDots<3>(t.data(), stride, d, i, j, dots, count);
            break;
          default:
            PairDots<4>(t.data(), stride, d, i, j, dots, count);
            break;
        }
        dots += count;
      }
    }
  }
}

RECD_AVX2 void InteractionBackward(const float* grad_out,
                                   std::span<const float* const> inputs,
                                   std::size_t rows, std::size_t d,
                                   std::span<float* const> grads) {
  const std::size_t f = inputs.size();
  const std::size_t width = d + f * (f - 1) / 2;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* g = grad_out + r * width;
    const std::size_t off = r * d;
    AddRows(grads[0] + off, g, d);
    std::size_t k = d;
    for (std::size_t i = 0; i < f; ++i) {
      for (std::size_t j = i + 1; j < f; ++j) {
        const float gd = g[k++];
        if (gd == 0.0f) continue;
        AddScaledRow(grads[i] + off, inputs[j] + off, gd, d);
        AddScaledRow(grads[j] + off, inputs[i] + off, gd, d);
      }
    }
  }
}

RECD_AVX2 void AddInPlace(float* dst, const float* src, std::size_t n) {
  AddRows(dst, src, n);
}

RECD_AVX2 void AddRowBias(float* y, std::size_t rows, std::size_t cols,
                          const float* bias) {
  for (std::size_t r = 0; r < rows; ++r) {
    AddRows(y + r * cols, bias, cols);
  }
}

RECD_AVX2 void ReluInPlace(float* v, std::size_t n) {
  // Zero exactly where v < 0 (ordered: NaN stays, -0 stays) — the
  // scalar branch, lane-parallel.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 neg = _mm256_cmp_ps(x, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(v + i, _mm256_andnot_ps(neg, x));
  }
  for (; i < n; ++i) {
    if (v[i] < 0.0f) v[i] = 0.0f;
  }
}

RECD_AVX2 void ReluMask(float* g, const float* pre, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 p = _mm256_loadu_ps(pre + i);
    const __m256 off = _mm256_cmp_ps(p, zero, _CMP_LE_OQ);
    _mm256_storeu_ps(g + i,
                     _mm256_andnot_ps(off, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    if (pre[i] <= 0.0f) g[i] = 0.0f;
  }
}

RECD_AVX2 void DenseNormalize(float* x, std::size_t n, float mean,
                              float inv_scale) {
  const __m256 mv = _mm256_set1_ps(mean);
  const __m256 iv = _mm256_set1_ps(inv_scale);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        x + i,
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), mv), iv));
  }
  for (; i < n; ++i) x[i] = (x[i] - mean) * inv_scale;
}

RECD_AVX2 void DenseClamp(float* x, std::size_t n, float lo, float hi) {
  // std::clamp is (v < lo) ? lo : (hi < v) ? hi : v — apply the hi
  // replacement first, then lo, so lo has the same priority as the
  // nested ternary; NaN fails both ordered compares and passes through.
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 gt = _mm256_cmp_ps(hiv, v, _CMP_LT_OQ);
    const __m256 lt = _mm256_cmp_ps(v, lov, _CMP_LT_OQ);
    __m256 r = _mm256_blendv_ps(v, hiv, gt);
    r = _mm256_blendv_ps(r, lov, lt);
    _mm256_storeu_ps(x + i, r);
  }
  for (; i < n; ++i) x[i] = std::clamp(x[i], lo, hi);
}

#undef RECD_AVX2

#else  // !RECD_KERNELS_AVX2

// Non-x86 (or non-GNU) builds: the dispatcher never selects simd::
// (VectorizedAvailable() is false), but the symbols must exist.
void PooledLookup(const tensor::JaggedTensor& batch, const float* weights,
                  std::size_t hash_size, std::size_t dim, Pool pool,
                  float* out) {
  detail::PooledLookup(batch, weights, hash_size, dim, pool, out);
}
void SumPoolGroup(std::span<const GroupFeature> group, std::size_t dim,
                  float* out) {
  detail::SumPoolGroup(group, dim, out);
}
void FusedPooledLookup(std::span<const GroupFeature> group,
                       std::span<const std::int64_t> inverse,
                       std::size_t dim, float* out) {
  detail::FusedPooledLookup(group, inverse, dim, out);
}
void ScatterSgdUpdate(const tensor::JaggedTensor& batch, const float* grad,
                      Pool pool, float lr, float* weights,
                      std::size_t hash_size, std::size_t dim) {
  detail::ScatterSgdUpdate(batch, grad, pool, lr, weights, hash_size, dim);
}
void MatmulABt(const float* a, std::size_t m, std::size_t k, const float* b,
               std::size_t n, float* c) {
  detail::MatmulABt(a, m, k, b, n, c);
}
void MatmulAB(const float* a, std::size_t m, std::size_t k, const float* b,
              std::size_t n, float* c) {
  detail::MatmulAB(a, m, k, b, n, c);
}
void AccumulateOuter(const float* g, std::size_t rows, std::size_t out_dim,
                     const float* x, std::size_t in_dim, float* grad_w,
                     float* grad_b) {
  detail::AccumulateOuter(g, rows, out_dim, x, in_dim, grad_w, grad_b);
}
void InteractionForward(std::span<const float* const> inputs,
                        std::size_t rows, std::size_t d, float* out) {
  detail::InteractionForward(inputs, rows, d, out);
}
void InteractionBackward(const float* grad_out,
                         std::span<const float* const> inputs,
                         std::size_t rows, std::size_t d,
                         std::span<float* const> grads) {
  detail::InteractionBackward(grad_out, inputs, rows, d, grads);
}
void AddInPlace(float* dst, const float* src, std::size_t n) {
  detail::AddInPlace(dst, src, n);
}
void AddRowBias(float* y, std::size_t rows, std::size_t cols,
                const float* bias) {
  detail::AddRowBias(y, rows, cols, bias);
}
void ReluInPlace(float* v, std::size_t n) { detail::ReluInPlace(v, n); }
void ReluMask(float* g, const float* pre, std::size_t n) {
  detail::ReluMask(g, pre, n);
}
void DenseNormalize(float* x, std::size_t n, float mean, float inv_scale) {
  detail::DenseNormalize(x, n, mean, inv_scale);
}
void DenseClamp(float* x, std::size_t n, float lo, float hi) {
  detail::DenseClamp(x, n, lo, hi);
}

#endif  // RECD_KERNELS_AVX2

}  // namespace recd::kernels::simd
