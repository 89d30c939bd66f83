#include "core/bfs_engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/candidates.h"
#include "query/candidate_filter.h"
#include "graph/hub_bitmap.h"
#include "mem/memory_governor.h"
#include "obs/trace.h"
#include "util/timer.h"
#include "vgpu/scheduler.h"

namespace tdfs {

namespace bfs {

// Rows processed per parallel grab.
constexpr int64_t kRowBlock = 256;

Level InitialEdges(const Graph& graph, const MatchPlan& plan,
                   const EngineConfig& config, RunCounters* counters) {
  Level level;
  level.width = 2;
  for (int64_t e = 0; e < graph.NumDirectedEdges(); ++e) {
    const VertexId v0 = graph.EdgeSource(e);
    const VertexId v1 = graph.EdgeTarget(e);
    ++counters->edges_scanned;
    if (PassesEdgeFilter(plan, graph, v0, v1, config.use_degree_filter) &&
        PrefilterAdmitsEdge(config.prefiltered, plan.order[0], plan.order[1],
                            v0, v1)) {
      level.rows.push_back(v0);
      level.rows.push_back(v1);
      ++counters->initial_tasks;
    }
  }
  return level;
}

int64_t RowBound(const Graph& graph, const MatchPlan& plan, int pos,
                 const VertexId* row) {
  int64_t bound = std::numeric_limits<int64_t>::max();
  for (int b : plan.backward[pos]) {
    bound = std::min(bound, graph.Degree(row[b]));
  }
  return bound;
}

int64_t EffectiveBudget(const EngineConfig& config,
                        obs::WarpTracer* tracer) {
  MemoryGovernor* governor = MemoryGovernor::Resolve(config.governor);
  const int64_t budget =
      governor->DeratedBudget(config.bfs_memory_budget_bytes);
  if (budget != config.bfs_memory_budget_bytes && tracer->enabled()) {
    tracer->Event(obs::TraceEvent::kMemPressure,
                  static_cast<int64_t>(governor->Pressure()));
  }
  return budget;
}

void ParallelRows(int num_warps, int64_t begin, int64_t end,
                  int64_t deadline_ns,
                  const std::function<void(int, int64_t)>& fn) {
  std::atomic<int64_t> cursor{begin};
  vgpu::LaunchKernel(num_warps, [&](int warp_id) {
    while (true) {
      if (deadline_ns > 0 && Timer::Now() > deadline_ns) {
        return;
      }
      const int64_t b = cursor.fetch_add(kRowBlock);
      if (b >= end) {
        return;
      }
      const int64_t e = std::min(b + kRowBlock, end);
      for (int64_t r = b; r < e; ++r) {
        fn(warp_id, r);
      }
    }
  });
}

}  // namespace bfs

using bfs::Level;
using bfs::ParallelRows;

RunResult RunBfsEngine(const Graph& graph, const MatchPlan& plan,
                       const EngineConfig& config) {
  RunResult result;
  for (int pos = 0; pos < plan.num_vertices; ++pos) {
    TDFS_CHECK_MSG(plan.reuse_source[pos] < 0,
                   "BFS engine requires a plan compiled without reuse");
  }
  Timer total_timer;
  const int64_t deadline_ns =
      config.max_run_ms > 0
          ? Timer::Now() + static_cast<int64_t>(config.max_run_ms * 1e6)
          : 0;
  const int k = plan.num_vertices;
  RunCounters counters;

  // Level 2: the filtered initial edges.
  std::vector<std::unique_ptr<Level>> levels;
  levels.push_back(std::make_unique<Level>(
      bfs::InitialEdges(graph, plan, config, &counters)));

  if (k == 2) {
    result.match_count =
        static_cast<uint64_t>(levels.back()->NumRows());
    result.match_ms = total_timer.ElapsedMillis();
    result.total_ms = result.match_ms;
    result.counters = counters;
    return result;
  }

  std::atomic<uint64_t> matches{0};
  int64_t peak_bytes = levels.back()->Bytes();
  int64_t batches = 0;

  // Intersection backend (BFS fetches plain CSR rows, so bitmaps are keyed
  // by full adjacency — no label index here).
  HubBitmapIndex bitmaps;
  if (UsesHubBitmaps(config.intersect)) {
    bitmaps = HubBitmapIndex::Build(graph, nullptr, config.bitmap_min_degree);
  }
  const StepDispatchTable steps(plan, config.intersect, &bitmaps);

  // Per-warp scratch (ComputeCandidates ping-pong buffers, prefix copies,
  // and work meters).
  std::vector<CandidateScratch> scratch(config.num_warps);
  std::vector<std::vector<VertexId>> cand(config.num_warps);
  std::vector<std::vector<VertexId>> match_buf(
      config.num_warps, std::vector<VertexId>(k, -1));
  std::vector<WorkCounter> work_buf(config.num_warps);
  auto row_match = [&](int w) -> std::vector<VertexId>& {
    return match_buf[w];
  };
  auto work = [&](int w) -> WorkCounter& { return work_buf[w]; };

  // One trace track for the whole BFS pipeline (the batching loop is
  // host-driven; per-warp timelines would only show the row cursor). The
  // track's clock is the job's cumulative work, advanced at batch ends.
  WorkCounter bfs_clock;
  obs::WarpTracer tracer;
  obs::Histogram* h_batch_rows = nullptr;
  if (config.trace != nullptr) {
    tracer = obs::WarpTracer(config.trace, 0, "bfs", &bfs_clock);
    h_batch_rows = config.trace->metrics()->GetHistogram("bfs.batch_rows");
  }

  auto resident_bytes = [&levels]() {
    int64_t bytes = 0;
    for (const auto& level : levels) {
      bytes += level->Bytes();
    }
    return bytes;
  };

  for (int pos = 2; pos < k; ++pos) {
    const Level& cur = *levels.back();
    const int64_t num_rows = cur.NumRows();
    const bool last = pos == k - 1;
    auto next = std::make_unique<Level>();
    next->width = pos + 1;

    auto deadline_exceeded = [&]() {
      if (deadline_ns == 0 || Timer::Now() <= deadline_ns) {
        return false;
      }
      result.status = Status::DeadlineExceeded(
          "BFS matching aborted after " + std::to_string(config.max_run_ms) +
          " ms; partial count");
      result.match_count = matches.load(std::memory_order_relaxed);
      result.match_ms = total_timer.ElapsedMillis();
      result.total_ms = result.match_ms;
      result.counters = counters;
      return true;
    };

    int64_t row = 0;
    while (row < num_rows) {
      if (deadline_exceeded()) {
        return result;
      }
      // Cut a batch whose *estimated* extension fits the remaining budget.
      // Governor pressure derates the budget before each batch — exact,
      // just more and smaller batches.
      const int64_t budget_left = std::max<int64_t>(
          bfs::EffectiveBudget(config, &tracer) - resident_bytes() -
              next->Bytes(),
          0);
      int64_t batch_end = row;
      int64_t est_bytes = 0;
      while (batch_end < num_rows) {
        const int64_t add =
            bfs::RowBound(graph, plan, pos, cur.Row(batch_end)) *
            next->width * static_cast<int64_t>(sizeof(VertexId));
        if (batch_end > row && est_bytes + add > budget_left) {
          break;
        }
        est_bytes += add;
        ++batch_end;
      }
      ++batches;

      // Pass 1 (count): exact number of valid extensions per row.
      std::vector<int64_t> counts(batch_end - row, 0);
      ParallelRows(config.num_warps, row, batch_end, deadline_ns,
                   [&](int w, int64_t r) {
        const VertexId* prefix = cur.Row(r);
        std::copy(prefix, prefix + cur.width, row_match(w).begin());
        ComputeCandidates(
            graph, nullptr, plan, row_match(w).data(), pos, steps.At(pos),
            &scratch[w], &cand[w], &work(w));
        int64_t n = 0;
        for (VertexId v : cand[w]) {
          work(w).Add(1);
          if (PrefilterAdmits(config.prefiltered, plan.order[pos], v) &&
              PassesConsumeChecks(plan, graph, row_match(w).data(), pos, v,
                                  config.use_degree_filter)) {
            ++n;
          }
        }
        counts[r - row] = n;
      });

      if (last) {
        uint64_t found = 0;
        for (int64_t c : counts) {
          found += static_cast<uint64_t>(c);
        }
        matches.fetch_add(found, std::memory_order_relaxed);
      } else {
        // Exact allocation, then pass 2 (fill): recompute and write — the
        // deliberate redundant pass of PBE's tight-allocation scheme.
        std::vector<int64_t> offsets(counts.size() + 1, 0);
        std::partial_sum(counts.begin(), counts.end(), offsets.begin() + 1);
        const int64_t base_row = next->NumRows();
        next->rows.resize((base_row + offsets.back()) * next->width);
        ParallelRows(
            config.num_warps, row, batch_end, deadline_ns,
            [&](int w, int64_t r) {
              const VertexId* prefix = cur.Row(r);
              std::copy(prefix, prefix + cur.width, row_match(w).begin());
              ComputeCandidates(
                  graph, nullptr, plan, row_match(w).data(), pos, steps.At(pos),
                  &scratch[w], &cand[w], &work(w));
              int64_t out = (base_row + offsets[r - row]) * next->width;
              for (VertexId v : cand[w]) {
                work(w).Add(1);
                if (!PrefilterAdmits(config.prefiltered, plan.order[pos], v) ||
                    !PassesConsumeChecks(plan, graph, row_match(w).data(),
                                         pos, v,
                                         config.use_degree_filter)) {
                  continue;
                }
                for (int p = 0; p < cur.width; ++p) {
                  next->rows[out + p] = prefix[p];
                }
                next->rows[out + cur.width] = v;
                out += next->width;
              }
            });
      }
      peak_bytes = std::max(peak_bytes, resident_bytes() + next->Bytes());
      if (tracer.enabled()) {
        uint64_t total = 0;
        for (const WorkCounter& w : work_buf) {
          total += w.units;
        }
        bfs_clock.Add(total - bfs_clock.units);
        tracer.Event(obs::TraceEvent::kBfsBatch, batch_end - row);
      }
      obs::Observe(h_batch_rows, batch_end - row);
      row = batch_end;
    }
    if (deadline_exceeded()) {  // a ParallelRows pass may have aborted
      return result;
    }
    if (!last) {
      levels.push_back(std::move(next));
    }
  }

  result.match_count = matches.load(std::memory_order_relaxed);
  result.match_ms = total_timer.ElapsedMillis();
  result.total_ms = result.match_ms;
  counters.bfs_batches = batches;
  counters.bfs_peak_bytes = peak_bytes;
  for (const WorkCounter& w : work_buf) {
    counters.work_units += w.units;
    counters.max_warp_work_units =
        std::max(counters.max_warp_work_units, w.units);
  }
  result.counters = counters;
  return result;
}

}  // namespace tdfs
