// Kernel backend selection for the vectorized kernel layer
// (docs/ARCHITECTURE.md §12).
//
// Every hot-path kernel (pooled embedding lookup, the MLP GEMMs, the
// pairwise interaction, dense transforms) exists twice: a scalar
// reference implementation — the bitwise oracle — and a SIMD
// implementation that vectorizes only non-reduction axes, so the two
// produce bit-identical floats. BCE and the dense SGD update have only
// the scalar loop, run under either backend. kVectorized is therefore safe to use as the process default:
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
