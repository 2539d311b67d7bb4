// Runtime SIMD backend selection for the data-parallel analysis kernels.
//
// Every kernel in this module ships in (at least) two variants: a scalar
// fallback compiled for the baseline ISA, and an AVX2 variant compiled in its
// own translation unit with -mavx2. Which variant runs is decided once at
// startup from CPUID (__builtin_cpu_supports), overridable via the
// FEDCONS_FORCE_BACKEND environment variable ("scalar" or "avx2") or
// programmatically via force_backend() (tests and per-kernel benchmarks).
//
// The dispatch contract (DESIGN.md §13): a kernel's output is a pure function
// of its inputs, independent of the backend that computed it. The
// floating-point DBF* kernel specifies one canonical per-lane IEEE-754
// operation sequence (no FMA contraction, no cross-lane reduction) that the
// scalar variant executes literally and the AVX2 variant executes
// lane-parallel with the same ops — vaddpd/vmulpd/vandpd round
// identically to their scalar counterparts, so classifications are
// bit-identical. Verdicts additionally never depend on rounding at all: the
// FP kernels only *classify* with a certified error margin, and every
// uncertain lane is re-decided in exact rational arithmetic (dbf_kernel.h).
#pragma once

#include <optional>

namespace fedcons::simd {

enum class SimdBackend {
  kScalar,  ///< always available; the canonical op-sequence reference
  kAvx2,    ///< AVX2 lane-parallel variants (x86-64 with AVX2 only)
};

[[nodiscard]] const char* to_string(SimdBackend b) noexcept;

/// The backend all kernels currently dispatch to. Resolved on first use:
/// FEDCONS_FORCE_BACKEND if set (an unsupported forced "avx2" logs a warning
/// and falls back to scalar; unrecognized values are ignored), else the best
/// CPUID-supported backend. Cached; O(1) afterwards.
[[nodiscard]] SimdBackend active_backend() noexcept;

/// True when the running CPU can execute the given backend's kernels.
[[nodiscard]] bool backend_supported(SimdBackend b) noexcept;

/// Test/benchmark hook: pin the active backend (ignoring env + CPUID), or
/// pass nullopt to drop the pin and re-resolve from env + CPUID on next use.
/// Forcing an unsupported backend is a contract violation.
void force_backend(std::optional<SimdBackend> b);

}  // namespace fedcons::simd
