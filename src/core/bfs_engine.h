// Breadth-first (level-synchronous) matching engine — the PBE baseline [29].
//
// Partial matches are materialized one query position at a time. Before
// extending, the engine estimates an upper bound on the next level's size
// (the smallest backward neighbor list per row) and cuts the current level
// into batches that fit the device-memory budget; each batch is then
// extended with PBE's two-pass scheme — a counting pass for exact
// allocation followed by a fill pass that recomputes the same candidates —
// which is the redundant-computation overhead the paper describes in
// Section II. All prior levels are kept resident (PBE's prefix tree), so
// peak memory is the sum of level footprints.

#ifndef TDFS_CORE_BFS_ENGINE_H_
#define TDFS_CORE_BFS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/result.h"
#include "graph/graph.h"
#include "query/plan.h"

namespace tdfs {

namespace obs {
class WarpTracer;
}  // namespace obs

/// Runs BFS matching. The plan must have reuse disabled (PBE has no
/// per-path stack to reuse from); CompilePlan with use_reuse = false.
RunResult RunBfsEngine(const Graph& graph, const MatchPlan& plan,
                       const EngineConfig& config);

// Level-synchronous building blocks, shared with the hybrid engine's BFS
// phase (core/hybrid_engine.cc).
namespace bfs {

/// One level of materialized partial matches: row-major, `width` vertices
/// per row.
struct Level {
  int width = 0;
  std::vector<VertexId> rows;

  int64_t NumRows() const {
    return width == 0 ? 0 : static_cast<int64_t>(rows.size()) / width;
  }
  int64_t Bytes() const {
    return static_cast<int64_t>(rows.size()) * sizeof(VertexId);
  }
  const VertexId* Row(int64_t r) const { return rows.data() + r * width; }
};

/// Level 2: every directed edge that passes the plan's edge filter and the
/// prefilter. Meters edges_scanned and initial_tasks into `counters`.
Level InitialEdges(const Graph& graph, const MatchPlan& plan,
                   const EngineConfig& config, RunCounters* counters);

/// Upper bound of a row's fanout at `pos`: its smallest backward neighbor
/// list (the pre-intersection estimate PBE batches with).
int64_t RowBound(const Graph& graph, const MatchPlan& plan, int pos,
                 const VertexId* row);

/// config.bfs_memory_budget_bytes derated by governor pressure (other runs
/// filling the device); a derated budget is traced as kMemPressure.
int64_t EffectiveBudget(const EngineConfig& config,
                        obs::WarpTracer* tracer);

/// Runs fn(warp_id, row) over [begin, end) with num_warps workers. Stops
/// early (leaving rows unprocessed) once the deadline passes; the caller
/// reports kDeadlineExceeded, so partial work is never mistaken for a
/// result.
void ParallelRows(int num_warps, int64_t begin, int64_t end,
                  int64_t deadline_ns,
                  const std::function<void(int, int64_t)>& fn);

}  // namespace bfs

}  // namespace tdfs

#endif  // TDFS_CORE_BFS_ENGINE_H_
