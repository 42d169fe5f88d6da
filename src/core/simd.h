// Runtime SIMD backend selection for the allocator hot path.
//
// The h-table build has two implementations: a portable scalar kernel
// (always compiled, the reference) and an AVX2 kernel (compiled only
// when the toolchain accepts -mavx2, picked only when the CPU reports
// AVX2 at runtime). Both kernels perform the SAME IEEE-754 operations
// in the SAME association order per element, and no kernel is
// compiled with FP contraction (-ffp-contract=off is set
// project-wide), so their outputs are bit-identical — pinned by
// the core.htable_simd_matches_scalar property and tests/simd_test.cpp.
// See docs/vectorization.md for the full contract.
//
// Selection order (resolved once, on first use):
//   1. CVR_FORCE_SCALAR=1 in the environment  -> kScalar (CI fallback leg)
//   2. AVX2 kernel compiled in AND CPU has AVX2 -> kAvx2
//   3. otherwise                                -> kScalar
// Tests may override with set_backend_for_testing() to compare the two
// kernels inside one process.
#pragma once

#include <cstddef>

namespace cvr::core::simd {

/// Doubles per AVX2 vector. The SoA tables pad their user dimension to
/// a multiple of this so the vector kernels never touch unowned memory;
/// scalar and vector kernels both process the padded tail (pad lanes
/// carry inert values and are never read back).
inline constexpr std::size_t kLanes = 4;

/// Rounds a user count up to the padded SoA stride.
constexpr std::size_t padded(std::size_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

enum class Backend { kScalar, kAvx2 };

/// True when the AVX2 kernels were compiled into this binary
/// (toolchain supported -mavx2 on an x86-64 target).
bool avx2_compiled();

/// True when AVX2 kernels are both compiled in and supported by the
/// CPU this process runs on — i.e. kAvx2 is selectable.
bool avx2_available();

/// The backend every dispatching call site uses. Resolved once from
/// the environment/CPU (see file comment); later calls return the
/// cached decision unless a test overrode it.
Backend active_backend();

/// Human-readable backend name ("scalar" / "avx2") for logs and docs.
const char* backend_name(Backend backend);

/// Test hook: force the backend for subsequent active_backend() calls.
/// Throws std::invalid_argument when kAvx2 is requested but
/// avx2_available() is false. Not thread-safe — call from test setup
/// only, never while allocators run on other threads.
void set_backend_for_testing(Backend backend);

}  // namespace cvr::core::simd
