// Property tests over seeded random shapes, in the style of FBGEMM's
// jagged-op tests: each case draws a unit of 1-4 features (row counts
// including 0-row batches, lengths including zero-length rows, dims that
// are mostly not a multiple of the 8-lane width, dense or tiered tables
// with a random hot capacity) and checks the one sum-pooling path
// against a naive loop, bit for bit, under both kernel backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "embstore/tier_config.h"
#include "kernels/backend.h"
#include "nn/dense_matrix.h"
#include "nn/embedding.h"
#include "tensor/jagged.h"
#include "tensor/jagged_ops.h"
#include "train/step.h"

namespace recd {
namespace {

using kernels::KernelBackend;
using tensor::JaggedTensor;

constexpr int kCases = 150;

::testing::AssertionResult BitwiseEq(std::span<const float> a,
                                     std::span<const float> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first diff at " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// One random unit: per feature a table and its dense weights (the naive
// loops' source of truth), the unique rows, and the batch expanded
// through a shared inverse.
struct Case {
  std::size_t dim = 0;
  std::size_t rows = 0;
  bool tiered = false;
  std::vector<std::unique_ptr<nn::EmbeddingTable>> tables;
  std::vector<nn::DenseMatrix> weights;
  std::vector<JaggedTensor> unique;
  std::vector<JaggedTensor> expanded;
  std::vector<std::int64_t> inverse;

  [[nodiscard]] std::vector<nn::EmbeddingTable*> table_ptrs() const {
    std::vector<nn::EmbeddingTable*> out;
    for (const auto& t : tables) out.push_back(t.get());
    return out;
  }
  [[nodiscard]] static std::vector<const JaggedTensor*> Ptrs(
      const std::vector<JaggedTensor>& jts) {
    std::vector<const JaggedTensor*> out;
    for (const auto& jt : jts) out.push_back(&jt);
    return out;
  }
};

JaggedTensor RandomJagged(common::Rng& rng, std::size_t rows,
                          std::size_t id_domain) {
  std::vector<std::vector<tensor::Id>> ids(rows);
  for (auto& row : ids) {
    // About a quarter of the rows are empty.
    const auto len = rng.Bernoulli(0.25) ? 0 : rng.Uniform(1, 6);
    for (std::int64_t i = 0; i < len; ++i) {
      row.push_back(rng.Uniform(0, static_cast<std::int64_t>(id_domain)));
    }
  }
  return JaggedTensor::FromRows(ids);
}

Case DrawCase(std::uint64_t seed, KernelBackend backend) {
  common::Rng rng(seed);
  Case c;
  c.dim = static_cast<std::size_t>(rng.Uniform(1, 40));
  c.rows = rng.Bernoulli(0.1) ? 0 : static_cast<std::size_t>(
                                        rng.Uniform(1, 12));
  const auto unique_rows =
      c.rows == 0 ? 0
                  : static_cast<std::size_t>(
                        rng.Uniform(1, static_cast<std::int64_t>(c.rows)));
  c.tiered = rng.Bernoulli(0.5);
  const auto features = static_cast<std::size_t>(rng.Uniform(1, 4));
  for (std::size_t i = 0; i < c.rows; ++i) {
    c.inverse.push_back(
        rng.Uniform(0, static_cast<std::int64_t>(unique_rows) - 1));
  }
  for (std::size_t k = 0; k < features; ++k) {
    const auto hash = static_cast<std::size_t>(rng.Uniform(5, 40));
    common::Rng table_rng(seed * 31 + k);
    auto table = std::make_unique<nn::EmbeddingTable>(hash, c.dim, table_rng);
    table->set_backend(backend);
    c.weights.push_back(table->weights());
    if (c.tiered) {
      embstore::TierConfig tier;
      tier.enabled = true;
      tier.hot_capacity_rows = static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(hash)));
      tier.rows_per_segment = static_cast<std::size_t>(rng.Uniform(1, 8));
      table->UseTieredStore(tier);
    }
    c.tables.push_back(std::move(table));
    // Ids range past the table so the modulo hash-trick is exercised.
    c.unique.push_back(RandomJagged(rng, unique_rows, 3 * hash));
    c.expanded.push_back(tensor::JaggedIndexSelect(c.unique.back(), c.inverse));
  }
  return c;
}

std::string Describe(const Case& c, std::uint64_t seed,
                     KernelBackend backend) {
  return "seed " + std::to_string(seed) + " backend " +
         kernels::BackendName(backend) + " features " +
         std::to_string(c.tables.size()) + " rows " + std::to_string(c.rows) +
         " dim " + std::to_string(c.dim) + (c.tiered ? " tiered" : " dense");
}

// out(r, :) = sum over features, then ids of row r, of the dense row.
nn::DenseMatrix NaiveSumPool(const Case& c,
                             const std::vector<JaggedTensor>& jts) {
  const std::size_t rows = jts.front().num_rows();
  nn::DenseMatrix out(rows, c.dim);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < jts.size(); ++k) {
      for (const auto id : jts[k].row(r)) {
        const auto w = c.weights[k].row(
            static_cast<std::uint64_t>(id) % c.weights[k].rows());
        for (std::size_t col = 0; col < c.dim; ++col) {
          out.at(r, col) += w[col];
        }
      }
    }
  }
  return out;
}

const KernelBackend kBackends[] = {KernelBackend::kScalar,
                                   KernelBackend::kVectorized};

TEST(PropertyTest, GeneratorCoversEveryShapeClass) {
  // A generator change that stops drawing a shape class would quietly
  // shrink every property below; pin that the seed budget reaches each.
  bool features_seen[5] = {};
  bool zero_rows = false, zero_length_row = false, unaligned_dim = false;
  bool dense = false, tiered = false;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const auto c = DrawCase(seed, KernelBackend::kScalar);
    features_seen[c.tables.size()] = true;
    zero_rows = zero_rows || c.rows == 0;
    unaligned_dim = unaligned_dim || c.dim % 8 != 0;
    (c.tiered ? tiered : dense) = true;
    for (const auto& jt : c.expanded) {
      for (std::size_t r = 0; r < jt.num_rows(); ++r) {
        zero_length_row = zero_length_row || jt.row(r).empty();
      }
    }
  }
  for (std::size_t f = 1; f <= 4; ++f) EXPECT_TRUE(features_seen[f]) << f;
  EXPECT_TRUE(zero_rows);
  EXPECT_TRUE(zero_length_row);
  EXPECT_TRUE(unaligned_dim);
  EXPECT_TRUE(dense);
  EXPECT_TRUE(tiered);
}

TEST(PropertyTest, SumPoolEqualsNaivePerRowLoop) {
  for (const auto backend : kBackends) {
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
      const auto c = DrawCase(seed, backend);
      const auto pooled = nn::SumPool(c.table_ptrs(), Case::Ptrs(c.expanded));
      EXPECT_TRUE(BitwiseEq(pooled.data(), NaiveSumPool(c, c.expanded).data()))
          << Describe(c, seed, backend);
    }
  }
}

TEST(PropertyTest, InverseSumPoolEqualsUniquePoolThenExpand) {
  for (const auto backend : kBackends) {
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
      const auto c = DrawCase(seed, backend);
      const auto fused =
          nn::SumPool(c.table_ptrs(), Case::Ptrs(c.unique), c.inverse);
      const auto two_step = train::ExpandRows(
          nn::SumPool(c.table_ptrs(), Case::Ptrs(c.unique)), c.inverse);
      EXPECT_EQ(fused.rows(), c.rows) << Describe(c, seed, backend);
      EXPECT_TRUE(BitwiseEq(fused.data(), two_step.data()))
          << Describe(c, seed, backend);
      // ... and both equal the baseline: expand the ids, then pool.
      EXPECT_TRUE(
          BitwiseEq(fused.data(), NaiveSumPool(c, c.expanded).data()))
          << Describe(c, seed, backend);
    }
  }
}

TEST(PropertyTest, ScatterSgdUpdateEqualsNaiveLoop) {
  constexpr float kLr = 0.05f;
  for (const auto backend : kBackends) {
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
      auto c = DrawCase(seed, backend);
      common::Rng grad_rng(seed ^ 0x5eed);
      nn::DenseMatrix grad(c.rows, c.dim);
      for (auto& g : grad.data()) {
        g = static_cast<float>(grad_rng.UniformReal() * 2.0 - 1.0);
      }
      for (std::size_t k = 0; k < c.tables.size(); ++k) {
        c.tables[k]->ApplyPooledGradient(c.expanded[k], grad, kLr);
        // Rows, then ids, in order: duplicate ids chain their updates.
        auto want = c.weights[k];
        for (std::size_t r = 0; r < c.rows; ++r) {
          for (const auto id : c.expanded[k].row(r)) {
            auto w = want.row(static_cast<std::uint64_t>(id) % want.rows());
            for (std::size_t col = 0; col < c.dim; ++col) {
              w[col] -= kLr * grad.at(r, col);
            }
          }
        }
        EXPECT_TRUE(BitwiseEq(c.tables[k]->weights().data(), want.data()))
            << Describe(c, seed, backend) << " feature " << k;
      }
    }
  }
}

}  // namespace
}  // namespace recd
