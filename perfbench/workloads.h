// The benchmark's workloads. Each takes its seed from RunOptions; the seed
// drives the query order, the isomorphic relabelings and the update
// batches, and the program sees only the generated inputs.
//
//   cold_short    one client, closed loop of fresh RunMatching calls on
//                 short queries: per-run set-up dominates.
//   heavy_dfs     one client, closed loop of fresh RunMatching calls on
//                 long queries: the DFS kernel dominates.
//   service_mixed one MatchService on the youtube analog; 3 query clients
//                 (Submit + future.get) and 1 update client (ApplyUpdate
//                 on registered continuous queries), all closed loops.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"

namespace perfbench {

const std::vector<QuerySpec>& ColdShortQueries();
const std::vector<QuerySpec>& HeavyDfsQueries();
/// Patterns the service_mixed query clients submit (on youtube), and the
/// ones its update client keeps registered as continuous queries.
const std::vector<QuerySpec>& ServiceQueries();
const std::vector<QuerySpec>& ContinuousQueries();

/// cold_short / heavy_dfs: rounds over `queries` in a seeded order.
RunReport RunDirectWorkload(const RunOptions& options,
                            const std::vector<QuerySpec>& queries);

/// service_mixed.
RunReport RunServiceWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
