// Incremental match maintenance over edge-delta batches.
//
// Given a query Q, a batch D = (D+, D-) applied to graph G yielding G',
// the exact new count is
//
//     count(G') = count(G) - lost + gained
//
// where `lost` is the number of embeddings of Q in G that use at least
// one D- edge (counted on the PRE-update graph) and `gained` is the
// number of embeddings of Q in G' that use at least one D+ edge (counted
// on the POST-update graph). Embeddings of G that avoid D- are exactly
// the embeddings of G' that avoid D+ (the two graphs agree outside the
// delta), which is what makes the mixed-batch subtraction exact.
//
// Each side is counted by the first-delta-edge partition: enumerate the
// query's edges in canonical order (lexicographic (a, b), a < b) and, for
// each rank j, run a delta plan (PlanOptions::delta_edge_rank = j) that
//   * seeds the engine with ONLY the delta data edges (both orientations)
//     as initial tasks — query edge j is pinned onto a delta edge, and
//   * forbids every query edge of rank < j from landing on a delta edge
//     (MatchPlan::delta_forbidden, checked at consume time).
// An embedding that uses delta edges is counted by exactly one rank: the
// smallest rank its delta edges give to a query edge. Summing over ranks
// is therefore exact and duplicate-free.
//
// Delta plans run with symmetry breaking OFF (each rank must see every
// automorphic image, or an image could be dropped by a restriction that
// the seeded orientation violates); when the caller's config uses
// symmetry breaking, the raw sums are divided by |Aut(Q)| — the
// automorphism group acts freely on embeddings, so the division is exact
// (a runtime check fails loudly if not). Induced matching is rejected:
// deleting an edge can CREATE induced embeddings elsewhere, which the
// delta seeding cannot see.

#ifndef TDFS_DYN_INCREMENTAL_H_
#define TDFS_DYN_INCREMENTAL_H_

#include <functional>
#include <memory>

#include "core/config.h"
#include "core/result.h"
#include "dyn/graph_delta.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/plan.h"
#include "query/query_graph.h"
#include "util/status.h"

namespace tdfs::dyn {

/// Plan source for delta plans: the service layer passes its PlanCache
/// (so per-rank delta plans are compiled once per registered query); null
/// compiles fresh plans per call.
using PlanProvider = std::function<Result<std::shared_ptr<const MatchPlan>>(
    const QueryGraph&, const PlanOptions&)>;

struct IncrementalOptions {
  /// Null = compile per call.
  PlanProvider plan_provider;

  /// Borrowed warm engine resources (the service's update pair) reused
  /// across the per-rank runs. Null = allocate per run.
  const EngineResources* resources = nullptr;

  /// dyn.* counters (dyn.delta_plans_run, dyn.seed_edges). Null disables.
  obs::MetricsRegistry* metrics = nullptr;

  /// Per-side kDeltaBatch trace events (arg = seed-edge count). Null
  /// disables.
  obs::TraceSession* trace = nullptr;
};

/// One side's (insertions or deletions) incremental count breakdown plus
/// the combined report CountDeltaMatches returns.
struct DeltaCountReport {
  /// Embeddings destroyed by the batch's deletions (counted on `pre`).
  uint64_t lost = 0;

  /// Embeddings created by the batch's insertions (counted on `post`).
  uint64_t gained = 0;

  /// Delta-plan engine runs executed (<= 2 * query edges; empty-seed
  /// ranks are skipped).
  int64_t delta_plans_run = 0;

  /// Total seeded initial edges across runs (post edge filter, both
  /// orientations).
  int64_t seed_edges = 0;

  /// Merged engine counters across every delta-plan run.
  RunCounters counters;

  double total_ms = 0.0;

  /// new_count = old_count - lost + gained.
  uint64_t ApplyTo(uint64_t old_count) const {
    return old_count - lost + gained;
  }
};

/// Counts the embeddings lost to `delta`'s deletions on `pre` and gained
/// from its insertions on `post`. `pre` must be the graph before the
/// batch, `post` the graph after (DynamicGraph::Apply's result); the
/// counts follow config's matching semantics (labels, symmetry breaking,
/// degree filter). Fails on induced configs and on queries the delta
/// machinery cannot maintain (see file comment).
Result<DeltaCountReport> CountDeltaMatches(
    const Graph& pre, const Graph& post, const QueryGraph& query,
    const GraphDelta& delta, const EngineConfig& config,
    const IncrementalOptions& options = IncrementalOptions{});

}  // namespace tdfs::dyn

#endif  // TDFS_DYN_INCREMENTAL_H_
