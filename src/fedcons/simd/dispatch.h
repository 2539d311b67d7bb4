// dbf_scan has one scalar implementation, so the backend is always "scalar".
// This header exists only because perfbench/ still names these symbols;
// delete it together with Dag::add_vertex when perfbench moves off both.
#pragma once

#include <optional>

namespace fedcons::simd {

enum class SimdBackend { kScalar };

inline const char* to_string(SimdBackend) noexcept { return "scalar"; }
inline SimdBackend active_backend() noexcept { return SimdBackend::kScalar; }
inline void force_backend(std::optional<SimdBackend>) noexcept {}

}  // namespace fedcons::simd
