// Kernel backend selection for the vectorized kernel layer
// (docs/ARCHITECTURE.md §12).
//
// Every kernel that measured >= 1.2x vectorized (sum pooling and the
// SGD scatter, the MLP GEMMs, the pairwise interaction, the bias and
// ReLU epilogues) exists twice: a scalar reference implementation — the
// bitwise oracle — and a SIMD implementation that vectorizes only
// non-reduction axes, so the two produce bit-identical floats. The rest
// have only the scalar loop and take no backend: BCE and the dense SGD
// update (0.98-1.10x), AddInPlace (0.93-1.04x), DenseClamp
// (0.86-0.97x) and DenseNormalize (1.17-1.19x); kernels.h lists each
// ratio. kVectorized is therefore safe to use as the process default:
// it changes wall-clock, never results. Hosts without AVX2 silently run
// the scalar path under either selector.
#pragma once

#include <cstdint>
#include <string_view>

namespace recd::kernels {

enum class KernelBackend : std::uint8_t {
  kScalar,      // reference loops; the determinism oracle
  kVectorized,  // runtime-dispatched SIMD (AVX2 today); bitwise == scalar
};

/// True when the running CPU can execute the SIMD implementations
/// (x86-64 with AVX2). When false, kVectorized falls back to scalar.
[[nodiscard]] bool VectorizedAvailable();

/// Parses "scalar" / "vectorized"; throws std::invalid_argument on
/// anything else.
[[nodiscard]] KernelBackend ParseBackend(std::string_view name);

[[nodiscard]] const char* BackendName(KernelBackend backend);

/// Process-wide default: RECD_KERNEL_BACKEND=scalar|vectorized when set
/// (read once, first call), otherwise kVectorized (which self-falls-back
/// on hosts without SIMD support). Every layer object (EmbeddingTable,
/// Linear, ReferenceDlrm, ...) captures this at construction and can be
/// overridden per instance for parity tests.
[[nodiscard]] KernelBackend DefaultBackend();

}  // namespace recd::kernels
