// Preprocessing transform modules (paper §2.1 "Data Reading and
// Preprocessing", §4.3 "Preprocessing over IKJTs").
//
// Users provide TorchScript-like modules applied by readers after feature
// conversion. RecD wraps sparse transforms so they transparently run over
// an IKJT's deduplicated values/offsets slices instead of the expanded
// batch — same logical result, DedupeFactor(f) less compute (O4).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/ikjt.h"
#include "tensor/kjt.h"

namespace recd::reader {

enum class TransformKind : std::uint8_t {
  kSparseHash,      // id -> mix64(id) % a  (vocabulary hashing)
  kSparseModShift,  // id -> (id + b) % a   (cheap remap, deterministic)
  kDenseNormalize,  // x  -> (x - a) / b
  kDenseClamp,      // x  -> clamp(x, a, b)
};

struct TransformSpec {
  TransformKind kind = TransformKind::kSparseHash;
  /// Target sparse feature key (ignored by dense transforms, which apply
  /// to the whole dense vector).
  std::string feature;
  double a = 1;
  double b = 0;
};

/// Applies a sparse transform to raw values in place. Exposed so the
/// dedup-aware wrapper and tests can call the same kernel.
void ApplySparseTransform(const TransformSpec& spec,
                          std::span<tensor::Id> values);

/// Applies a dense transform to a row-major dense block in place.
void ApplyDenseTransform(const TransformSpec& spec, std::span<float> dense);

/// Counts the sparse elements a transform would touch — the O4 metric
/// (deduplicated inputs shrink this by DedupeFactor).
[[nodiscard]] std::size_t SparseElementsTouched(
    const TransformSpec& spec, const tensor::KeyedJaggedTensor& kjt);

}  // namespace recd::reader
