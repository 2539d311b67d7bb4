#include "fedcons/engine/algorithms.h"

#include <algorithm>
#include <cctype>

#include "fedcons/baselines/global_edf.h"
#include "fedcons/baselines/partitioned_dm.h"
#include "fedcons/baselines/partitioned_seq.h"
#include "fedcons/federated/arbitrary.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/federated_implicit.h"
#include "fedcons/util/check.h"

namespace fedcons {

bool Algorithm::supports(const TaskSystem& system) const noexcept {
  // DeadlineClass enumerates the classes in containment order.
  return system.deadline_class() <= max_deadline_class;
}

std::span<const Algorithm> builtin_algorithms() {
  static const Algorithm kTable[] = {
      {"ARBFED",
       "arbitrary-deadline federated scheduling, pipelined strategy",
       DeadlineClass::kArbitrary,
       [](const TaskSystem& s, int m) {
         return arbitrary_federated_schedulable(s, m,
                                                ArbitraryStrategy::kPipelined);
       }},
      {"ARBFED-clamp",
       "arbitrary-deadline federated scheduling, clamp-to-period strategy",
       DeadlineClass::kArbitrary,
       [](const TaskSystem& s, int m) {
         return arbitrary_federated_schedulable(
             s, m, ArbitraryStrategy::kClampToPeriod);
       }},
      {"FED-LI-adapt",
       "Li et al. closed-form federated scheduling, constrained-deadline "
       "adaptation (D replaces T; density-bounded bins)",
       DeadlineClass::kConstrained,
       [](const TaskSystem& s, int m) {
         return li_federated_constrained_adaptation(s, m).success;
       }},
      {"FED-LI-implicit",
       "Li et al. (ECRTS'14) closed-form federated scheduling "
       "(implicit deadlines only)",
       DeadlineClass::kImplicit,
       [](const TaskSystem& s, int m) {
         return li_federated_implicit(s, m).success;
       }},
      {"FEDCONS",
       "the paper's algorithm: MINPROCS clusters + full Baruah-Fisher "
       "PARTITION (constrained deadlines)",
       DeadlineClass::kConstrained,
       [](const TaskSystem& s, int m) { return fedcons_schedulable(s, m); }},
      {"FEDCONS-lit",
       "FEDCONS with the paper-literal Fig. 4 PARTITION (demand check only)",
       DeadlineClass::kConstrained,
       [](const TaskSystem& s, int m) {
         FedconsOptions literal;
         literal.partition.variant = PartitionVariant::kPaperLiteral;
         return fedcons_schedulable(s, m, literal);
       }},
      {"GEDF-density",
       "analytical global-EDF sufficient test (Goossens-Funk-Baruah density "
       "bound on the sequentialized system)",
       DeadlineClass::kConstrained, gedf_dag_density_test},
      {"P-DM",
       "fully-partitioned deadline-monotonic fixed-priority with exact RTA",
       DeadlineClass::kConstrained, partitioned_dm_schedulable},
      {"P-SEQ",
       "fully-partitioned EDF with every task sequentialized (no federation)",
       DeadlineClass::kArbitrary,
       [](const TaskSystem& s, int m) {
         return partitioned_sequential_schedulable(s, m);
       }},
  };
  return kTable;
}

const Algorithm& find_algorithm(const std::string& name) {
  const auto same = [&](const Algorithm& a) {
    return std::equal(a.name.begin(), a.name.end(), name.begin(), name.end(),
                      [](unsigned char x, unsigned char y) {
                        return std::tolower(x) == std::tolower(y);
                      });
  };
  const auto table = builtin_algorithms();
  const auto it = std::find_if(table.begin(), table.end(), same);
  FEDCONS_EXPECTS_MSG(it != table.end(),
                      "unknown schedulability test: " + name);
  return *it;
}

}  // namespace fedcons
