// Stable wire names for the sim-config enums, used by the pinned-artifact
// writer and parser (conform/artifact.cpp). Lives in the sim module — not
// with the generic JSON helpers in util — because the names are part of the
// simulator's configuration surface, not of the JSON dialect.
#pragma once

#include <string>

#include "fedcons/sim/sim_config.h"

namespace fedcons {

/// Stable wire names ("periodic"/"sporadic", "wcet"/"uniform"), and their
/// inverses. Parsers throw ParseError on an unknown name.
[[nodiscard]] const char* release_model_name(ReleaseModel m) noexcept;
[[nodiscard]] const char* exec_model_name(ExecModel m) noexcept;
[[nodiscard]] ReleaseModel parse_release_model(const std::string& name);
[[nodiscard]] ExecModel parse_exec_model(const std::string& name);

}  // namespace fedcons
