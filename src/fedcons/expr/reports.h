// Table and structured-JSON rendering shared by the bench binaries.
#pragma once

#include <iosfwd>

#include "fedcons/expr/acceptance.h"
#include "fedcons/expr/speedup_experiment.h"
#include "fedcons/util/table.h"

namespace fedcons {

/// Acceptance sweep → table with one row per U_sum/m point and one column
/// per algorithm (plus the necessary-condition upper bound). With `with_ci`
/// each ratio is annotated with its 95% binomial confidence half-width
/// ("0.620±0.078") so readers can judge which separations are significant
/// at the configured trial count.
[[nodiscard]] Table acceptance_table(
    const std::vector<AcceptancePoint>& points,
    const std::vector<Algorithm>& algorithms, bool with_ci = false);

/// Speedup experiment → distribution summary rows (mean/percentiles/max vs
/// the theoretical 3 − 1/m bound).
[[nodiscard]] Table speedup_table(const SpeedupExperimentResult& result,
                                  int m);

/// Print a table with a caption; adds a CSV block when `also_csv` is set
/// (used by bench binaries under --csv).
void print_report(std::ostream& os, const std::string& caption,
                  const Table& table, bool also_csv = false);

/// One labelled sweep inside a JSON report (e.g. one platform size of E3).
struct SweepSection {
  std::string label;
  int m = 0;
  std::vector<AcceptancePoint> points;
};

/// Machine-readable results document for an acceptance experiment. Emits
/// per-point acceptance counts for every algorithm plus the engine's
/// observability counters (LS invocations, MINPROCS scan iterations, DBF*
/// evaluations). The rendering is fully deterministic — fixed key order,
/// fixed number formatting — so byte-identical inputs yield byte-identical
/// documents regardless of how many threads produced them.
[[nodiscard]] std::string sweep_report_json(
    const std::string& experiment, std::uint64_t seed,
    const std::vector<Algorithm>& algorithms,
    const std::vector<SweepSection>& sections);

/// Machine-readable results for the speedup experiment (E4).
[[nodiscard]] std::string speedup_report_json(
    const std::string& experiment, const SpeedupExperimentConfig& config,
    const SpeedupExperimentResult& result);

}  // namespace fedcons
