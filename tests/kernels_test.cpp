// Bitwise parity suite for the kernel layer (src/kernels/): every
// vectorized kernel must produce output bit-identical to the scalar
// oracle — memcmp-level equality, not tolerance — across awkward shapes
// (odd dims, tail lanes shorter than the vector width, empty rows,
// single-id pools, unaligned slices) and the exact-semantics hazards
// (signed zeros, the zero-skip GEMM branches, NaN pass-through).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "kernels/backend.h"
#include "kernels/kernels.h"
#include "nn/embedding.h"
#include "nn/interaction.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "reader/reader.h"
#include "storage/table.h"
#include "tensor/jagged_ops.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd::kernels {
namespace {

using tensor::JaggedTensor;

constexpr KernelBackend kS = KernelBackend::kScalar;
constexpr KernelBackend kV = KernelBackend::kVectorized;

// Sizes straddling the 8-lane AVX2 width: below, exact, above, and
// odd/prime tails.
const std::vector<std::size_t> kDims = {1, 3, 7, 8, 9, 16, 17, 31, 33, 64};

std::vector<float> RandVec(std::size_t n, common::Rng& rng) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
    if (i % 7 == 3) v[i] = 0.0f;    // exercise zero-skip branches
    if (i % 11 == 5) v[i] = -0.0f;  // signed-zero hazard
  }
  return v;
}

::testing::AssertionResult BitwiseEq(std::span<const float> a,
                                     std::span<const float> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first diff at " << i << ": " << a[i] << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Rows cover: empty, single id, duplicate ids, long (> 8) sequences.
JaggedTensor AwkwardBatch() {
  return JaggedTensor::FromRows(
      {{}, {5}, {1, 2, 3}, {7, 7, 7, 7}, {0}, {},
       {9, 11, 13, 2, 4, 6, 8, 10, 12, 14, 16}, {3, 3}});
}

// -------------------------------------------------------------- backend --

TEST(KernelBackendTest, ParseAndName) {
  EXPECT_EQ(ParseBackend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(ParseBackend("vectorized"), KernelBackend::kVectorized);
  EXPECT_STREQ(BackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(KernelBackend::kVectorized), "vectorized");
  EXPECT_THROW((void)ParseBackend("avx9000"), std::invalid_argument);
  EXPECT_THROW((void)ParseBackend(""), std::invalid_argument);
}

TEST(KernelBackendTest, DefaultBackendIsStable) {
  // Whatever it resolves to (env-dependent), it must not change between
  // calls — layer objects cache it at construction.
  EXPECT_EQ(DefaultBackend(), DefaultBackend());
}

// ------------------------------------------------------- pooled lookups --

TEST(KernelParityTest, PooledLookupAllPoolingsAndDims) {
  common::Rng rng(7);
  const auto batch = AwkwardBatch();
  const std::size_t hash_size = 17;
  for (const auto dim : kDims) {
    const auto weights = RandVec(hash_size * dim, rng);
    for (const auto pool : {Pool::kSum, Pool::kMean, Pool::kMax}) {
      std::vector<float> a(batch.num_rows() * dim, -1.0f);
      std::vector<float> b(batch.num_rows() * dim, 1.0f);
      PooledLookup(kS, batch, weights.data(), hash_size, dim, pool,
                   a.data());
      PooledLookup(kV, batch, weights.data(), hash_size, dim, pool,
                   b.data());
      EXPECT_TRUE(BitwiseEq(a, b)) << "dim " << dim << " pool "
                                   << static_cast<int>(pool);
    }
  }
}

TEST(KernelParityTest, PooledLookupUnalignedWeights) {
  // Offset the weights base pointer off the allocation start so SIMD
  // loads cross cachelines; loadu semantics must not care.
  common::Rng rng(11);
  const std::size_t dim = 16;
  const std::size_t hash_size = 13;
  const auto storage = RandVec(hash_size * dim + 3, rng);
  const float* weights = storage.data() + 3;
  const auto batch = AwkwardBatch();
  std::vector<float> a(batch.num_rows() * dim);
  std::vector<float> b(batch.num_rows() * dim);
  PooledLookup(kS, batch, weights, hash_size, dim, Pool::kSum, a.data());
  PooledLookup(kV, batch, weights, hash_size, dim, Pool::kSum, b.data());
  EXPECT_TRUE(BitwiseEq(a, b));
}

TEST(KernelParityTest, SumPoolGroupAndFusedLookup) {
  common::Rng rng(13);
  const auto jt1 = AwkwardBatch();
  const auto jt2 = JaggedTensor::FromRows(
      {{2, 4}, {}, {6}, {1, 1, 1}, {8, 16, 24}, {5}, {}, {0}});
  for (const auto dim : kDims) {
    const auto w1 = RandVec(17 * dim, rng);
    const auto w2 = RandVec(23 * dim, rng);
    const GroupFeature group[] = {{&jt1, w1.data(), 17},
                                  {&jt2, w2.data(), 23}};
    const std::size_t unique_rows = jt1.num_rows();
    std::vector<float> pa(unique_rows * dim), pb(unique_rows * dim);
    SumPoolGroup(kS, group, dim, pa.data());
    SumPoolGroup(kV, group, dim, pb.data());
    EXPECT_TRUE(BitwiseEq(pa, pb)) << "SumPoolGroup dim " << dim;

    // Inverse with duplicate, out-of-order, and never-referenced slots.
    const std::vector<std::int64_t> inverse = {3, 0, 0, 7, 5, 2, 2, 2,
                                               1, 6, 3, 0};
    std::vector<float> fa(inverse.size() * dim), fb(inverse.size() * dim);
    FusedPooledLookup(kS, group, inverse, dim, fa.data());
    FusedPooledLookup(kV, group, inverse, dim, fb.data());
    EXPECT_TRUE(BitwiseEq(fa, fb)) << "Fused dim " << dim;

    // Fused == pool-unique-then-gather, bit for bit.
    std::vector<float> gathered(inverse.size() * dim);
    GatherRows(kS, pa.data(), dim, inverse, gathered.data());
    EXPECT_TRUE(BitwiseEq(fa, gathered)) << "Fused vs gather dim " << dim;
  }
}

TEST(KernelParityTest, ScatterSgdUpdate) {
  common::Rng rng(17);
  const auto batch = AwkwardBatch();
  const std::size_t hash_size = 17;
  for (const auto dim : kDims) {
    for (const auto pool : {Pool::kSum, Pool::kMean}) {
      auto wa = RandVec(hash_size * dim, rng);
      auto wb = wa;
      const auto grad = RandVec(batch.num_rows() * dim, rng);
      ScatterSgdUpdate(kS, batch, grad.data(), pool, 0.05f, wa.data(),
                       hash_size, dim);
      ScatterSgdUpdate(kV, batch, grad.data(), pool, 0.05f, wb.data(),
                       hash_size, dim);
      EXPECT_TRUE(BitwiseEq(wa, wb)) << "dim " << dim;
    }
  }
}

// ----------------------------------------------------------------- GEMM --

// Row counts straddling the 4-row register tile (below, exact, one over,
// two tiles, two tiles + 1, the trainer's 64-row chunk).
const std::vector<std::size_t> kTileRowCounts = {1, 3, 4, 5, 8, 9, 64};

// (k, n) pairs at the trainer's shapes: the RM1 top MLP's 359 -> 512 ->
// 256 in both GEMM orientations, and a wide dim against a lane tail.
const std::vector<std::pair<std::size_t, std::size_t>> kWideShapes = {
    {359, 512}, {512, 359}, {512, 256}, {359, 17}, {17, 512}};

// c = MatmulABt or MatmulAB on both backends from differently poisoned
// outputs (both kernels overwrite every element).
::testing::AssertionResult GemmParity(bool abt, const std::vector<float>& a,
                                      std::size_t m, std::size_t k,
                                      const std::vector<float>& b,
                                      std::size_t n) {
  std::vector<float> ca(m * n, -2.0f), cb(m * n, 2.0f);
  if (abt) {
    MatmulABt(kS, a.data(), m, k, b.data(), n, ca.data());
    MatmulABt(kV, a.data(), m, k, b.data(), n, cb.data());
  } else {
    MatmulAB(kS, a.data(), m, k, b.data(), n, ca.data());
    MatmulAB(kV, a.data(), m, k, b.data(), n, cb.data());
  }
  return BitwiseEq(ca, cb) << " m=" << m << " k=" << k << " n=" << n;
}

TEST(KernelParityTest, MatmulABt) {
  common::Rng rng(19);
  for (const auto m : kTileRowCounts) {
    for (const auto k : kDims) {
      for (const auto n : kDims) {
        EXPECT_TRUE(GemmParity(true, RandVec(m * k, rng), m, k,
                               RandVec(n * k, rng), n));
      }
    }
    for (const auto& [k, n] : kWideShapes) {
      EXPECT_TRUE(GemmParity(true, RandVec(m * k, rng), m, k,
                             RandVec(n * k, rng), n));
    }
  }
}

TEST(KernelParityTest, MatmulABWithZeroSkips) {
  // Finite b: the vectorized path runs the tile without the zero skip.
  common::Rng rng(23);
  for (const auto m : kTileRowCounts) {
    for (const auto k : kDims) {
      for (const auto n : kDims) {
        EXPECT_TRUE(GemmParity(false, RandVec(m * k, rng), m, k,
                               RandVec(k * n, rng), n));
      }
    }
    for (const auto& [k, n] : kWideShapes) {
      EXPECT_TRUE(GemmParity(false, RandVec(m * k, rng), m, k,
                             RandVec(k * n, rng), n));
    }
  }
}

TEST(KernelParityTest, MatmulABZeroRowsStayPositiveZero) {
  // An all-±0 row of a over a b full of -0 and negatives: the skipped
  // scalar row stays +0, and so must the tile that adds every product.
  common::Rng rng(24);
  const std::size_t m = 5, k = 9, n = 17;
  auto a = RandVec(m * k, rng);
  for (std::size_t kk = 0; kk < k; ++kk) a[2 * k + kk] = kk % 2 ? -0.0f : 0.0f;
  auto b = RandVec(k * n, rng);
  for (std::size_t i = 0; i < b.size(); i += 3) b[i] = -0.0f;
  std::vector<float> c(m * n, 1.0f);
  MatmulAB(kV, a.data(), m, k, b.data(), n, c.data());
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(c[2 * n + j], 0.0f);
    EXPECT_FALSE(std::signbit(c[2 * n + j])) << "j=" << j;
  }
  EXPECT_TRUE(GemmParity(false, a, m, k, b, n));
}

TEST(KernelParityTest, MatmulABNonFiniteBKeepsTheSkip) {
  // Inf and NaN in b, zeros in a on exactly those k rows: the scalar
  // path never forms 0 * Inf, so the vectorized path must skip too.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  common::Rng rng(25);
  for (const auto m : kTileRowCounts) {
    for (const auto& [k, n] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {9, 17}, {33, 16}, {64, 7}}) {
      auto a = RandVec(m * k, rng);
      auto b = RandVec(k * n, rng);
      b[1 * n + n / 2] = inf;
      b[2 * n] = -inf;
      b[(k - 1) * n + n - 1] = nan;
      for (std::size_t i = 0; i < m; ++i) {
        a[i * k + 1] = i % 2 ? -0.0f : 0.0f;
        a[i * k + 2] = 0.0f;
        a[i * k + k - 1] = i == m / 2 ? 1.0f : 0.0f;  // one row meets the NaN
      }
      EXPECT_TRUE(GemmParity(false, a, m, k, b, n));
      std::vector<float> c(m * n);
      MatmulAB(kV, a.data(), m, k, b.data(), n, c.data());
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(std::isnan(c[i * n + n - 1]), i == m / 2) << "i=" << i;
      }
    }
  }
}

TEST(KernelParityTest, AccumulateOuter) {
  common::Rng rng(29);
  for (const auto rows : {1u, 6u}) {
    for (const auto out_dim : {1u, 7u, 9u}) {
      for (const auto in_dim : kDims) {
        const auto g = RandVec(rows * out_dim, rng);  // has exact zeros
        const auto x = RandVec(rows * in_dim, rng);
        auto gwa = RandVec(out_dim * in_dim, rng);
        auto gwb = gwa;
        auto gba = RandVec(out_dim, rng);
        auto gbb = gba;
        AccumulateOuter(kS, g.data(), rows, out_dim, x.data(), in_dim,
                        gwa.data(), gba.data());
        AccumulateOuter(kV, g.data(), rows, out_dim, x.data(), in_dim,
                        gwb.data(), gbb.data());
        EXPECT_TRUE(BitwiseEq(gwa, gwb));
        EXPECT_TRUE(BitwiseEq(gba, gbb));
      }
    }
  }
}

TEST(KernelParityTest, AccumulateOuterKeepsNegativeZeroGradW) {
  // grad_w starting at -0: -0 + (+0) is +0, so the g == 0 skip is what
  // keeps an untouched output row at -0 — both paths must keep it.
  common::Rng rng(30);
  const std::size_t rows = 4, out_dim = 9, in_dim = 33;
  auto g = RandVec(rows * out_dim, rng);
  for (std::size_t r = 0; r < rows; ++r) g[r * out_dim + 3] = 0.0f;
  const auto x = RandVec(rows * in_dim, rng);
  std::vector<float> gwa(out_dim * in_dim, -0.0f), gba(out_dim, -0.0f);
  auto gwb = gwa;
  auto gbb = gba;
  AccumulateOuter(kS, g.data(), rows, out_dim, x.data(), in_dim,
                  gwa.data(), gba.data());
  AccumulateOuter(kV, g.data(), rows, out_dim, x.data(), in_dim,
                  gwb.data(), gbb.data());
  EXPECT_TRUE(BitwiseEq(gwa, gwb));
  EXPECT_TRUE(BitwiseEq(gba, gbb));
  for (std::size_t i = 0; i < in_dim; ++i) {
    EXPECT_TRUE(std::signbit(gwb[3 * in_dim + i])) << "i=" << i;
  }
}

// ---------------------------------------------------------- interaction --

// f inputs of rows x d, with RandVec's zeros and signed zeros, and NaN
// planted in input 1 when there is one.
std::vector<std::vector<float>> InteractionInputs(std::size_t f,
                                                  std::size_t rows,
                                                  std::size_t d,
                                                  common::Rng& rng) {
  std::vector<std::vector<float>> x(f);
  for (auto& v : x) v = RandVec(rows * d, rng);
  if (f > 1) {
    x[1][(rows - 1) * d + d / 2] = std::numeric_limits<float>::quiet_NaN();
  }
  return x;
}

std::vector<const float*> Pointers(const std::vector<std::vector<float>>& x) {
  std::vector<const float*> p;
  for (const auto& v : x) p.push_back(v.data());
  return p;
}

TEST(KernelParityTest, InteractionForwardAndBackward) {
  common::Rng rng(71);
  const std::size_t rows = 5;
  for (const std::size_t f : {1u, 2u, 3u, 22u}) {
    for (const auto d : kDims) {
      const auto x = InteractionInputs(f, rows, d, rng);
      const auto xp = Pointers(x);
      const std::size_t width = d + f * (f - 1) / 2;
      std::vector<float> oa(rows * width, -2.0f), ob(rows * width, 2.0f);
      InteractionForward(kS, xp, rows, d, oa.data());
      InteractionForward(kV, xp, rows, d, ob.data());
      EXPECT_TRUE(BitwiseEq(oa, ob)) << "forward f=" << f << " d=" << d;

      // Pair gradients with exact zeros (skipped), -0 (skipped too) and
      // a NaN; accumulated into grads that already hold values.
      auto go = RandVec(rows * width, rng);
      if (width > d + 1) go[d + 1] = std::numeric_limits<float>::quiet_NaN();
      std::vector<std::vector<float>> ga(f), gb;
      for (auto& v : ga) v = RandVec(rows * d, rng);
      gb = ga;
      std::vector<float*> pa, pb;
      for (std::size_t t = 0; t < f; ++t) {
        pa.push_back(ga[t].data());
        pb.push_back(gb[t].data());
      }
      InteractionBackward(kS, go.data(), xp, rows, d, pa);
      InteractionBackward(kV, go.data(), xp, rows, d, pb);
      for (std::size_t t = 0; t < f; ++t) {
        EXPECT_TRUE(BitwiseEq(ga[t], gb[t]))
            << "backward f=" << f << " d=" << d << " input " << t;
      }
    }
  }
}

TEST(KernelParityTest, InteractionAllZeroPairGradientsOnlyPassThrough) {
  // Every pair gradient ±0: only grads[0] changes (by the pass-through
  // block), on both paths.
  common::Rng rng(73);
  const std::size_t rows = 3, f = 22, d = 17;
  const std::size_t width = d + f * (f - 1) / 2;
  const auto x = InteractionInputs(f, rows, d, rng);
  std::vector<float> go(rows * width, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < d; ++c) go[r * width + c] = 1.5f;
    go[r * width + d + r] = -0.0f;
  }
  for (const auto backend : {kS, kV}) {
    std::vector<std::vector<float>> g(f, std::vector<float>(rows * d));
    std::vector<float*> gp;
    for (auto& v : g) gp.push_back(v.data());
    InteractionBackward(backend, go.data(), Pointers(x), rows, d, gp);
    EXPECT_TRUE(BitwiseEq(g[0], std::vector<float>(rows * d, 1.5f)));
    for (std::size_t t = 1; t < f; ++t) {
      EXPECT_TRUE(BitwiseEq(g[t], std::vector<float>(rows * d, 0.0f)))
          << BackendName(backend) << " input " << t;
    }
  }
}

// nn::FeatureInteraction's loops as they were before they moved into the
// kernel layer, kept verbatim as the oracle's oracle.
nn::DenseMatrix FrozenInteractionForward(
    const std::vector<const nn::DenseMatrix*>& inputs) {
  const std::size_t rows = inputs[0]->rows();
  const std::size_t d = inputs[0]->cols();
  const std::size_t f = inputs.size();
  nn::DenseMatrix out(rows, nn::FeatureInteraction::OutputDim(f, d));
  for (std::size_t r = 0; r < rows; ++r) {
    auto orow = out.row(r);
    const auto base = inputs[0]->row(r);
    std::copy(base.begin(), base.end(), orow.begin());
    std::size_t k = d;
    for (std::size_t i = 0; i < f; ++i) {
      const auto xi = inputs[i]->row(r);
      for (std::size_t j = i + 1; j < f; ++j) {
        const auto xj = inputs[j]->row(r);
        float dot = 0.0f;
        for (std::size_t c = 0; c < d; ++c) dot += xi[c] * xj[c];
        orow[k++] = dot;
      }
    }
  }
  return out;
}

std::vector<nn::DenseMatrix> FrozenInteractionBackward(
    const nn::DenseMatrix& grad_out,
    const std::vector<const nn::DenseMatrix*>& inputs) {
  const std::size_t rows = inputs[0]->rows();
  const std::size_t d = inputs[0]->cols();
  const std::size_t f = inputs.size();
  std::vector<nn::DenseMatrix> grad_inputs(f, nn::DenseMatrix(rows, d));
  for (std::size_t r = 0; r < rows; ++r) {
    const auto g = grad_out.row(r);
    auto g0 = grad_inputs[0].row(r);
    for (std::size_t c = 0; c < d; ++c) g0[c] += g[c];
    std::size_t k = d;
    for (std::size_t i = 0; i < f; ++i) {
      const auto xi = inputs[i]->row(r);
      auto gi = grad_inputs[i].row(r);
      for (std::size_t j = i + 1; j < f; ++j) {
        const auto xj = inputs[j]->row(r);
        auto gj = grad_inputs[j].row(r);
        const float gd = g[k++];
        if (gd == 0.0f) continue;
        for (std::size_t c = 0; c < d; ++c) {
          gi[c] += gd * xj[c];
          gj[c] += gd * xi[c];
        }
      }
    }
  }
  return grad_inputs;
}

nn::DenseMatrix ToMatrix(const std::vector<float>& v, std::size_t rows,
                         std::size_t cols) {
  nn::DenseMatrix m(rows, cols);
  std::copy(v.begin(), v.end(), m.data().begin());
  return m;
}

TEST(KernelLayerParityTest, FeatureInteractionMatchesFrozenLoops) {
  common::Rng rng(79);
  const std::size_t rows = 7;
  for (const std::size_t f : {1u, 2u, 3u, 22u}) {
    for (const std::size_t d : {1u, 8u, 17u, 128u}) {
      std::vector<nn::DenseMatrix> mats;
      for (const auto& v : InteractionInputs(f, rows, d, rng)) {
        mats.push_back(ToMatrix(v, rows, d));
      }
      std::vector<const nn::DenseMatrix*> ptrs;
      for (const auto& m : mats) ptrs.push_back(&m);
      const std::size_t width = nn::FeatureInteraction::OutputDim(f, d);
      const auto grad_out = ToMatrix(RandVec(rows * width, rng), rows, width);
      const auto want_out = FrozenInteractionForward(ptrs);
      const auto want_grads = FrozenInteractionBackward(grad_out, ptrs);
      for (const auto backend : {kS, kV}) {
        nn::FeatureInteraction inter;
        inter.set_backend(backend);
        const auto out = inter.Forward(ptrs);
        EXPECT_TRUE(BitwiseEq(out.data(), want_out.data()))
            << BackendName(backend) << " f=" << f << " d=" << d;
        std::vector<nn::DenseMatrix> grads;
        inter.Backward(grad_out, ptrs, grads);
        ASSERT_EQ(grads.size(), f);
        for (std::size_t t = 0; t < f; ++t) {
          EXPECT_TRUE(BitwiseEq(grads[t].data(), want_grads[t].data()))
              << BackendName(backend) << " f=" << f << " d=" << d
              << " input " << t;
        }
      }
    }
  }
}

// ----------------------------------------------------------------- loss --

// BceLossSum, BceGrad and SgdUpdate have one (scalar) implementation;
// these check it against the formula evaluated here.

TEST(KernelParityTest, BceLossSumAcrossBlockBoundaries) {
  common::Rng rng(31);
  for (const auto n : {1u, 7u, 8u, 9u, 255u, 256u, 257u, 1000u}) {
    std::vector<float> logits(n), labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      logits[i] = static_cast<float>((rng.UniformReal() * 2.0 - 1.0) * 20);
      labels[i] = rng.UniformReal() < 0.5 ? 0.0f : 1.0f;
    }
    logits[0] = 0.0f;
    if (n > 2) logits[2] = -0.0f;
    double want = 0.0;  // row order, double accumulation
    for (std::size_t i = 0; i < n; ++i) {
      const float z = logits[i];
      want += std::max(z, 0.0f) - z * labels[i] +
              std::log1p(std::exp(-std::abs(z)));
    }
    EXPECT_EQ(BceLossSum(logits.data(), labels.data(), n), want)
        << "n=" << n;  // exact double equality
  }
}

TEST(KernelParityTest, BceGrad) {
  common::Rng rng(37);
  for (const auto n : {1u, 8u, 9u, 300u}) {
    std::vector<float> logits(n), labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      logits[i] = static_cast<float>((rng.UniformReal() * 2.0 - 1.0) * 10);
      labels[i] = rng.UniformReal() < 0.5 ? 0.0f : 1.0f;
    }
    std::vector<float> got(n), want(n);
    BceGrad(logits.data(), labels.data(), n, 1.0f / 64.0f, got.data());
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = (nn::Sigmoid(logits[i]) - labels[i]) * (1.0f / 64.0f);
    }
    EXPECT_TRUE(BitwiseEq(got, want)) << "n=" << n;
  }
}

// ----------------------------------------------------------- elementwise --

TEST(KernelParityTest, ElementwiseKernels) {
  common::Rng rng(41);
  for (const auto n : kDims) {
    const auto src = RandVec(n, rng);
    auto da = RandVec(n, rng);
    auto db = da;

    SgdUpdate(da.data(), src.data(), n, 0.05f);
    for (std::size_t i = 0; i < n; ++i) db[i] -= 0.05f * src[i];
    EXPECT_TRUE(BitwiseEq(da, db)) << "SgdUpdate n=" << n;

    AddInPlace(kS, da.data(), src.data(), n);
    AddInPlace(kV, db.data(), src.data(), n);
    EXPECT_TRUE(BitwiseEq(da, db)) << "AddInPlace n=" << n;

    DenseNormalize(kS, da.data(), n, 0.25f, 1.5f);
    DenseNormalize(kV, db.data(), n, 0.25f, 1.5f);
    EXPECT_TRUE(BitwiseEq(da, db)) << "DenseNormalize n=" << n;

    DenseClamp(kS, da.data(), n, -0.5f, 0.5f);
    DenseClamp(kV, db.data(), n, -0.5f, 0.5f);
    EXPECT_TRUE(BitwiseEq(da, db)) << "DenseClamp n=" << n;
  }
}

TEST(KernelParityTest, AddRowBias) {
  common::Rng rng(43);
  for (const auto cols : kDims) {
    const std::size_t rows = 5;
    const auto bias = RandVec(cols, rng);
    auto ya = RandVec(rows * cols, rng);
    auto yb = ya;
    AddRowBias(kS, ya.data(), rows, cols, bias.data());
    AddRowBias(kV, yb.data(), rows, cols, bias.data());
    EXPECT_TRUE(BitwiseEq(ya, yb)) << "cols=" << cols;
  }
}

TEST(KernelParityTest, ReluPreservesSignedZeroAndNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  common::Rng rng(47);
  for (const auto n : {3u, 8u, 11u}) {
    std::vector<float> va(n, 0.0f);
    va[0] = -0.0f;
    va[1] = -1.5f;
    if (n > 2) va[2] = nan;
    if (n > 9) va[9] = 2.5f;
    auto vb = va;
    auto pre = va;
    ReluInPlace(kS, va.data(), n);
    ReluInPlace(kV, vb.data(), n);
    EXPECT_TRUE(BitwiseEq(va, vb)) << "ReluInPlace n=" << n;
    // The scalar branch keeps -0 (since -0 < 0 is false) and NaN.
    EXPECT_TRUE(std::signbit(va[0]));
    if (n > 2) {
      EXPECT_TRUE(std::isnan(va[2]));
    }

    auto ga = RandVec(n, rng);
    auto gb = ga;
    ReluMask(kS, ga.data(), pre.data(), n);
    ReluMask(kV, gb.data(), pre.data(), n);
    EXPECT_TRUE(BitwiseEq(ga, gb)) << "ReluMask n=" << n;
  }
}

TEST(KernelParityTest, DenseClampPassesNaNThrough) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> va = {nan, -5.0f, 5.0f, 0.1f, -0.0f, nan, 0.5f,
                           -0.5f, 3.0f};
  auto vb = va;
  DenseClamp(kS, va.data(), va.size(), -0.5f, 0.5f);
  DenseClamp(kV, vb.data(), vb.size(), -0.5f, 0.5f);
  EXPECT_TRUE(BitwiseEq(va, vb));
  EXPECT_TRUE(std::isnan(va[0]));  // std::clamp leaves NaN in place
  EXPECT_EQ(va[1], -0.5f);
  EXPECT_EQ(va[2], 0.5f);
}

// ------------------------------------------------- layer-level parity --

TEST(KernelLayerParityTest, EmbeddingTableTrainLoop) {
  common::Rng rng_a(51);
  common::Rng rng_b(51);
  nn::EmbeddingTable ta(29, 17, rng_a);
  nn::EmbeddingTable tb(29, 17, rng_b);
  ta.set_backend(kS);
  tb.set_backend(kV);
  const auto batch = AwkwardBatch();
  common::Rng grad_rng(53);
  for (int step = 0; step < 4; ++step) {
    const auto fa = ta.PooledForward(batch, nn::PoolingKind::kSum);
    const auto fb = tb.PooledForward(batch, nn::PoolingKind::kSum);
    EXPECT_TRUE(fa == fb) << "forward step " << step;
    nn::DenseMatrix grad(batch.num_rows(), 17);
    const auto g = RandVec(grad.size(), grad_rng);
    std::copy(g.begin(), g.end(), grad.data().begin());
    ta.ApplyPooledGradient(batch, grad, nn::PoolingKind::kSum, 0.05f);
    tb.ApplyPooledGradient(batch, grad, nn::PoolingKind::kSum, 0.05f);
    EXPECT_TRUE(ta.weights() == tb.weights()) << "weights step " << step;
  }
}

TEST(KernelLayerParityTest, EmbeddingFusedMatchesPoolThenGather) {
  common::Rng rng_a(57);
  common::Rng rng_b(57);
  nn::EmbeddingTable ta(31, 9, rng_a);
  nn::EmbeddingTable tb(31, 9, rng_b);
  ta.set_backend(kS);
  tb.set_backend(kV);
  const auto unique = AwkwardBatch();
  const std::vector<std::int64_t> inverse = {1, 1, 4, 0, 7, 3, 3, 2, 6,
                                             5, 0, 0, 7};
  const auto fused_a = ta.FusedPooledForward(unique, inverse);
  const auto fused_b = tb.FusedPooledForward(unique, inverse);
  EXPECT_TRUE(fused_a == fused_b);
  const auto two_step = train::ExpandRows(
      ta.PooledForward(unique, nn::PoolingKind::kSum), inverse);
  EXPECT_TRUE(fused_a == two_step);
}

TEST(KernelLayerParityTest, MlpTrainLoop) {
  common::Rng rng_a(61);
  common::Rng rng_b(61);
  nn::Mlp ma({7, 9, 5, 1}, rng_a);
  nn::Mlp mb({7, 9, 5, 1}, rng_b);
  ma.set_backend(kS);
  mb.set_backend(kV);
  common::Rng data_rng(63);
  for (int step = 0; step < 4; ++step) {
    nn::DenseMatrix x(6, 7);
    const auto xv = RandVec(x.size(), data_rng);
    std::copy(xv.begin(), xv.end(), x.data().begin());
    const auto ya = ma.Forward(x);
    const auto yb = mb.Forward(x);
    EXPECT_TRUE(ya == yb) << "forward step " << step;
    nn::DenseMatrix grad(6, 1);
    const auto gv = RandVec(grad.size(), data_rng);
    std::copy(gv.begin(), gv.end(), grad.data().begin());
    const auto gxa = ma.Backward(grad);
    const auto gxb = mb.Backward(grad);
    EXPECT_TRUE(gxa == gxb) << "backward step " << step;
    ma.Step(0.05f);
    mb.Step(0.05f);
    for (std::size_t l = 0; l < ma.num_layers(); ++l) {
      EXPECT_TRUE(ma.layer(l).weights() == mb.layer(l).weights())
          << "layer " << l << " step " << step;
    }
  }
}

TEST(KernelLayerParityTest, LossOverloadsMatch) {
  common::Rng rng(67);
  nn::DenseMatrix logits(33, 1);
  std::vector<float> labels(33);
  const auto lv = RandVec(logits.size(), rng);
  std::copy(lv.begin(), lv.end(), logits.data().begin());
  for (auto& y : labels) y = rng.UniformReal() < 0.5 ? 0.0f : 1.0f;
  const double sum = nn::BceWithLogitsLossSum(logits, labels);
  EXPECT_EQ(sum, BceLossSum(logits.data().data(), labels.data(), 33));
  EXPECT_EQ(nn::BceWithLogitsLoss(logits, labels),
            static_cast<float>(sum / 33.0));
  EXPECT_TRUE(nn::BceWithLogitsGrad(logits, labels) ==
              nn::BceWithLogitsGrad(logits, labels, 33));
}

// --------------------------------------------- end-to-end model parity --

TEST(KernelModelParityTest, ReferenceDlrmTrainStepsBitwiseAcrossBackends) {
  // Full model, both batch forms: scalar and vectorized replicas start
  // from identical seeds and must stay bitwise-equal through real
  // TrainSteps — losses and every parameter.
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.05);
  spec.concurrent_sessions = 8;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 2'000;
  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(96);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed =
      storage::LandTable(store, "t", schema, {std::move(samples)});

  for (const bool use_ikjt : {false, true}) {
    reader::Reader reader(
        store, landed.table,
        train::MakeDataLoaderConfig(model, 48, use_ikjt),
        reader::ReaderOptions{.use_ikjt = use_ikjt});
    const auto batch = *reader.NextBatch();

    train::ReferenceDlrm scalar(model, /*seed=*/42);
    train::ReferenceDlrm vectorized(model, /*seed=*/42);
    scalar.SetKernelBackend(kS);
    vectorized.SetKernelBackend(kV);
    for (int step = 0; step < 3; ++step) {
      const float la = scalar.TrainStep(batch, 0.05f);
      const float lb = vectorized.TrainStep(batch, 0.05f);
      EXPECT_EQ(la, lb) << "loss step " << step << " ikjt " << use_ikjt;
    }
    for (std::size_t l = 0; l < scalar.bottom_mlp().num_layers(); ++l) {
      EXPECT_TRUE(scalar.bottom_mlp().layer(l).weights() ==
                  vectorized.bottom_mlp().layer(l).weights());
    }
    for (std::size_t l = 0; l < scalar.top_mlp().num_layers(); ++l) {
      EXPECT_TRUE(scalar.top_mlp().layer(l).weights() ==
                  vectorized.top_mlp().layer(l).weights());
    }
    for (const auto& f : train::ModelTableOrder(model)) {
      EXPECT_TRUE(scalar.table(f).weights() ==
                  vectorized.table(f).weights())
          << "table " << f << " ikjt " << use_ikjt;
    }
    // The recd forward equivalence must also hold cross-backend:
    // vectorized recd forward == scalar baseline forward.
    if (use_ikjt) {
      const auto fa = scalar.Forward(batch, /*recd=*/true);
      const auto fb = vectorized.Forward(batch, /*recd=*/false);
      EXPECT_TRUE(fa == fb);
    }
  }
}

}  // namespace
}  // namespace recd::kernels
