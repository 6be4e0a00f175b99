// Row-major float matrix: the dense tensor type for all real math in the
// trainer (MLPs, pooled embeddings, interactions).
#pragma once

#include <cstddef>
#include <span>

#include "common/aligned.h"
#include "common/rng.h"

namespace recd::nn {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] static DenseMatrix Xavier(std::size_t rows, std::size_t cols,
                                          common::Rng& rng);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t byte_size() const {
    return data_.size() * sizeof(float);
  }

  [[nodiscard]] float& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<float> row(std::size_t r) {
    return std::span<float>(data_).subspan(r * cols_, cols_);
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    return std::span<const float>(data_).subspan(r * cols_, cols_);
  }
  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  [[nodiscard]] bool operator==(const DenseMatrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  common::AlignedVector<float> data_;
};

/// C = A * B^T  (A: m x k, B: n x k, C: m x n). The GEMM shape used by
/// Linear layers (weights stored out x in).
void MatmulABt(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c);

/// C = A * B  (A: m x k, B: k x n, C: m x n).
void MatmulAB(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c);

/// Maximum absolute elementwise difference (test helper).
[[nodiscard]] float MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

/// Rows [lo, hi) of `m` as a new matrix — the canonical-chunk row
/// split of train::DenseChunkStep. Throws std::out_of_range unless
/// lo <= hi <= m.rows().
[[nodiscard]] DenseMatrix SliceRows(const DenseMatrix& m, std::size_t lo,
                                    std::size_t hi);

}  // namespace recd::nn
