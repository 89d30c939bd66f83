#include "core/hybrid_engine.h"

#include <algorithm>
#include <vector>

#include "core/bfs_engine.h"
#include "core/candidates.h"
#include "query/candidate_filter.h"
#include "graph/hub_bitmap.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace tdfs {

namespace {

// Per-warp working state for both phases.
struct WarpScratch {
  CandidateScratch scratch;
  std::vector<VertexId> cand;
  std::vector<VertexId> match;
  WorkCounter work;
  uint64_t matches = 0;
};

// Depth-first completion of one materialized prefix.
void DfsFromRow(const Graph& graph, const MatchPlan& plan,
                const EngineConfig& config, const StepDispatchTable& steps,
                WarpScratch* ws, int pos) {
  ws->cand.clear();
  std::vector<VertexId> candidates;
  ComputeCandidates(
      graph, nullptr, plan, ws->match.data(), pos, steps.At(pos),
      &ws->scratch, &candidates, &ws->work);
  const bool last = pos == plan.num_vertices - 1;
  for (VertexId v : candidates) {
    ws->work.Add(1);
    if (!PrefilterAdmits(config.prefiltered, plan.order[pos], v) ||
        !PassesConsumeChecks(plan, graph, ws->match.data(), pos, v,
                             config.use_degree_filter)) {
      continue;
    }
    if (last) {
      ++ws->matches;
    } else {
      ws->match[pos] = v;
      DfsFromRow(graph, plan, config, steps, ws, pos + 1);
      ws->match[pos] = -1;
    }
  }
}

}  // namespace

RunResult RunHybridEngine(const Graph& graph, const MatchPlan& plan,
                          const EngineConfig& config) {
  RunResult result;
  const int k = plan.num_vertices;

  Timer total_timer;
  const int64_t deadline_ns =
      config.max_run_ms > 0
          ? Timer::Now() + static_cast<int64_t>(config.max_run_ms * 1e6)
          : 0;
  RunCounters counters;

  // Phase 1: BFS levels while the estimated next level fits the budget.
  bfs::Level current = bfs::InitialEdges(graph, plan, config, &counters);
  if (k == 2) {
    result.match_count = static_cast<uint64_t>(current.NumRows());
    result.match_ms = total_timer.ElapsedMillis();
    result.total_ms = result.match_ms;
    result.counters = counters;
    return result;
  }

  std::vector<WarpScratch> warps(config.num_warps);
  for (WarpScratch& ws : warps) {
    ws.match.assign(k, -1);
  }

  // Intersection backend (plain CSR rows; full-adjacency bitmaps).
  HubBitmapIndex bitmaps;
  if (UsesHubBitmaps(config.intersect)) {
    bitmaps = HubBitmapIndex::Build(graph, nullptr, config.bitmap_min_degree);
  }
  const StepDispatchTable steps(plan, config.intersect, &bitmaps);

  // Single track for the host-driven BFS phase (one kBfsBatch per level),
  // clocked by the job's cumulative work at batch ends.
  WorkCounter hybrid_clock;
  obs::WarpTracer tracer;
  obs::Histogram* h_batch_rows = nullptr;
  if (config.trace != nullptr) {
    tracer = obs::WarpTracer(config.trace, 0, "hybrid-bfs", &hybrid_clock);
    h_batch_rows =
        config.trace->metrics()->GetHistogram("hybrid.batch_rows");
  }
  auto obs_batch = [&](int64_t batch_rows) {
    if (tracer.enabled()) {
      uint64_t total = 0;
      for (const WarpScratch& ws : warps) {
        total += ws.work.units;
      }
      hybrid_clock.Add(total - hybrid_clock.units);
      tracer.Event(obs::TraceEvent::kBfsBatch, batch_rows);
    }
    obs::Observe(h_batch_rows, batch_rows);
  };
  auto deadline_exceeded = [&]() {
    return deadline_ns > 0 && Timer::Now() > deadline_ns;
  };

  int pos = 2;
  int64_t peak_bytes = current.Bytes();
  while (pos < k - 1) {
    // Estimated next-level footprint: per-row minimum backward list size.
    int64_t estimate = 0;
    for (int64_t r = 0; r < current.NumRows(); ++r) {
      estimate += bfs::RowBound(graph, plan, pos, current.Row(r));
    }
    const int64_t next_bytes =
        estimate * (pos + 1) * static_cast<int64_t>(sizeof(VertexId));
    // Governor pressure derates the materialization budget before each
    // BFS level, switching to DFS earlier when the device is contended —
    // exact either way (DFS enumerates the same matches).
    if (current.Bytes() + next_bytes > bfs::EffectiveBudget(config, &tracer)) {
      break;  // next level may not fit: switch to DFS
    }
    // Extend breadth-first (single pass; per-warp staging buffers merged
    // after the parallel section).
    ++counters.bfs_batches;
    std::vector<std::vector<VertexId>> staged(config.num_warps);
    bfs::ParallelRows(config.num_warps, 0, current.NumRows(), deadline_ns,
                    [&](int w, int64_t r) {
      WarpScratch& ws = warps[w];
      const VertexId* prefix = current.Row(r);
      std::copy(prefix, prefix + pos, ws.match.begin());
      std::vector<VertexId> candidates;
      ComputeCandidates(
          graph, nullptr, plan, ws.match.data(), pos, steps.At(pos),
          &ws.scratch, &candidates, &ws.work);
      for (VertexId v : candidates) {
        ws.work.Add(1);
        if (!PrefilterAdmits(config.prefiltered, plan.order[pos], v) ||
            !PassesConsumeChecks(plan, graph, ws.match.data(), pos, v,
                                 config.use_degree_filter)) {
          continue;
        }
        staged[w].insert(staged[w].end(), prefix, prefix + pos);
        staged[w].push_back(v);
      }
    });
    if (deadline_exceeded()) {
      result.status = Status::DeadlineExceeded("hybrid matching aborted");
      result.counters = counters;
      return result;
    }
    bfs::Level next;
    next.width = pos + 1;
    for (const auto& part : staged) {
      next.rows.insert(next.rows.end(), part.begin(), part.end());
    }
    peak_bytes = std::max(peak_bytes, current.Bytes() + next.Bytes());
    obs_batch(current.NumRows());
    current = std::move(next);
    ++pos;
  }

  // Phase 2: DFS from every materialized row.
  const int switch_pos = pos;
  bfs::ParallelRows(config.num_warps, 0, current.NumRows(), deadline_ns,
                    [&](int w, int64_t r) {
    WarpScratch& ws = warps[w];
    const VertexId* prefix = current.Row(r);
    std::copy(prefix, prefix + switch_pos, ws.match.begin());
    DfsFromRow(graph, plan, config, steps, &ws, switch_pos);
  });
  if (deadline_exceeded()) {
    result.status = Status::DeadlineExceeded("hybrid matching aborted");
    result.counters = counters;
    return result;
  }

  for (const WarpScratch& ws : warps) {
    result.match_count += ws.matches;
    counters.work_units += ws.work.units;
    counters.max_warp_work_units =
        std::max(counters.max_warp_work_units, ws.work.units);
  }
  counters.bfs_peak_bytes = peak_bytes;
  result.counters = counters;
  result.match_ms = total_timer.ElapsedMillis();
  result.total_ms = result.match_ms;
  return result;
}

}  // namespace tdfs
