// Public entry point: subgraph matching with a chosen engine configuration.
//
// Typical use:
//
//   tdfs::Graph g = tdfs::GenerateBarabasiAlbert(10000, 4, /*seed=*/1);
//   tdfs::QueryGraph q = tdfs::Pattern(2);  // 4-clique
//   tdfs::RunResult r = tdfs::RunMatching(g, q, tdfs::TdfsConfig());
//   if (r.status.ok()) std::cout << r.match_count << "\n";
//
// Every query-taking entry point (RunMatching, RunMatchingCollect,
// RunMatchingBfs, RunMatchingHybrid) runs one pipeline:
//
//   Prepare  build the candidate-induced view when PrefilterApplies;
//   Plan     compile the MatchPlan (PlanForConfig) against the original
//            graph's stats plus the exact candidate counts; an empty
//            candidate set short-circuits to zero matches;
//   Execute  hand (graph, plan, config) to the engine: RunMatchingPlanned
//            for the warp-DFS strategies, the BFS (PBE) or hybrid engine;
//   Merge    multi-device jobs run one slice per device (RunMatchingDevice,
//            under config.retry) and merge them with MergeSlices (Fig. 12).
//
// Engines take plans; only this layer takes queries. The service layer
// (service/match_service.h) enters at Execute with cached plans and
// filtered views, and merges its concurrent slices with the same
// MergeSlices.

#ifndef TDFS_CORE_MATCHER_H_
#define TDFS_CORE_MATCHER_H_

#include <functional>

#include "core/bfs_engine.h"
#include "core/config.h"
#include "core/dfs_engine.h"
#include "core/ref_engine.h"
#include "core/result.h"
#include "graph/graph.h"
#include "query/plan.h"
#include "query/query_graph.h"

namespace tdfs {

class FilteredGraph;  // query/candidate_filter.h

/// True when the config's prefilter request is sound for this run shape.
/// Induced matching needs negative adjacency checks that dropped edges
/// would falsify; initial_edges / delta_edges index the ORIGINAL graph's
/// edge space. All fall back to unfiltered execution (never an error).
bool PrefilterApplies(const EngineConfig& config);

/// Stamps a filtered view's build stats into a result's counters (pass
/// build_ms = 0 when the view came prebuilt from a cache).
void RecordPrefilterStats(const FilteredGraph& fg, double build_ms,
                          RunCounters* counters);

/// The PlanOptions every plan compiled for `config` shares (symmetry
/// breaking, reuse, induced, planner, bitmap threshold). Callers add the
/// prefilter, stats and delta fields that depend on the run.
PlanOptions PlanOptionsFor(const EngineConfig& config);

/// Compiles the plan implied by `config` for this query. When
/// config.planner == kCost, GraphStats are computed from `graph` on the
/// fly (one O(n) pass); with a null graph the cost planner degrades to
/// greedy.
Result<MatchPlan> PlanForConfig(const QueryGraph& query,
                                const EngineConfig& config,
                                const Graph* graph = nullptr);

/// Depth-first matching (T-DFS and the DFS baselines).
RunResult RunMatching(const Graph& graph, const QueryGraph& query,
                      const EngineConfig& config = TdfsConfig());

/// RunMatching on an already-compiled plan. The plan must have been
/// compiled with options matching `config` (PlanForConfig) for a query
/// isomorphic to the one being counted — the service layer's plan cache
/// feeds this to skip recompilation on repeated queries.
RunResult RunMatchingPlanned(const Graph& graph, const MatchPlan& plan,
                             const EngineConfig& config);

/// One device's slice of a counting job: the unit the service layer
/// schedules. A multi-device job is NumDeviceSlices(config) independent
/// calls with device_id in [0, config.num_devices). When ShardingApplies,
/// the single slice is the whole sharded job (the shard runner owns the
/// worker fan-out). Otherwise the DFS engine runs the device's edge slice
/// under config.retry: failed attempts are discarded and re-run,
/// escalating per the ladder (see RetryPolicy). An unsharded graph larger
/// than config.graph_budget_bytes fails with kResourceExhausted. total_ms
/// covers all attempts and backoff.
RunResult RunMatchingDevice(const Graph& graph, const MatchPlan& plan,
                            const EngineConfig& config, int device_id);

/// Device slices a job under `config` runs as: 1 when sharding applies,
/// else max(num_devices, 1).
int NumDeviceSlices(const EngineConfig& config);

/// Runs `attempt` under config.retry. A failed attempt is discarded
/// wholesale (its counts never leak into the result, so a retry can never
/// change the reported match count) and re-run with the next rung of the
/// escalation ladder applied to its config, after the policy's backoff.
/// Fault-observability counters of failed attempts carry into the
/// returned result; attempts and total_ms cover every attempt.
RunResult RunWithRetry(
    const EngineConfig& config,
    const std::function<RunResult(const EngineConfig&)>& attempt);

/// Depth-first matching that additionally collects matches into `sink`
/// (in query-vertex order, original vertex ids) until the sink's capacity
/// is reached. The returned match_count is still exact even when the sink
/// fills early. Collection ignores config.retry (a replayed attempt would
/// duplicate rows already emitted) and config.prefilter / sharding (the
/// filtered CSR renumbers vertices; the shard runner has no sink).
RunResult RunMatchingCollect(const Graph& graph, const QueryGraph& query,
                             const EngineConfig& config, MatchSink* sink);

/// Breadth-first matching (the PBE baseline).
RunResult RunMatchingBfs(const Graph& graph, const QueryGraph& query,
                         const EngineConfig& config = PbeConfig());

/// Serial oracle on the same plan (slow; for validation and enumeration).
RunResult RunMatchingRef(const Graph& graph, const QueryGraph& query,
                         const EngineConfig& config = TdfsConfig(),
                         const MatchVisitor& visitor = nullptr);

}  // namespace tdfs

#endif  // TDFS_CORE_MATCHER_H_
