// Hybrid BFS-DFS matching engine — the paper's future-work design
// (Section V): "explore using BFS subgraph extension initially when the
// extended subgraphs fit in the device memory, and switch to DFS
// processing when the next level of subgraphs cannot fit".
//
// Levels are extended breadth-first (coalesced, like EGSM's BFS phase)
// while the *estimated* next level fits the device-memory budget; once it
// would not — or only the last position remains — every materialized
// partial match becomes a fine-grained DFS task processed by the warp
// pool. Because the BFS phase already produced many more tasks than warps,
// no stealing is needed in the DFS phase.

#ifndef TDFS_CORE_HYBRID_ENGINE_H_
#define TDFS_CORE_HYBRID_ENGINE_H_

#include "core/config.h"
#include "core/result.h"
#include "graph/graph.h"
#include "query/plan.h"
#include "query/query_graph.h"

namespace tdfs {

/// Runs hybrid matching on a compiled plan (compile it with use_reuse =
/// false: BFS rows carry no per-path stacks). Uses
/// config.bfs_memory_budget_bytes as the device budget for materialized
/// levels. counters.bfs_batches records the number of breadth-first levels
/// taken before switching.
RunResult RunHybridEngine(const Graph& graph, const MatchPlan& plan,
                          const EngineConfig& config);

/// Hybrid matching on a query through the matcher pipeline (defined in
/// core/matcher.cc with the other query-taking entry points): prefilter,
/// plan with reuse disabled, then RunHybridEngine.
RunResult RunMatchingHybrid(const Graph& graph, const QueryGraph& query,
                            const EngineConfig& config = TdfsConfig());

}  // namespace tdfs

#endif  // TDFS_CORE_HYBRID_ENGINE_H_
