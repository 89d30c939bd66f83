#include "core/matcher.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/hybrid_engine.h"
#include "obs/trace.h"
#include "query/candidate_filter.h"
#include "query/cost_planner.h"
#include "shard/shard_runner.h"
#include "util/timer.h"

namespace tdfs {

bool PrefilterApplies(const EngineConfig& config) {
  return config.prefilter != PrefilterKind::kOff && !config.induced &&
         config.initial_edges == nullptr && config.delta_edges == nullptr;
}

void RecordPrefilterStats(const FilteredGraph& fg, double build_ms,
                          RunCounters* counters) {
  counters->prefilter_ms = build_ms;
  counters->prefilter_original_vertices = fg.stats().original_vertices;
  counters->prefilter_original_edges = fg.stats().original_edges;
  counters->prefilter_kept_vertices = fg.stats().kept_vertices;
  counters->prefilter_kept_edges = fg.stats().kept_edges;
}

PlanOptions PlanOptionsFor(const EngineConfig& config) {
  PlanOptions options;
  options.use_symmetry_breaking = config.use_symmetry_breaking;
  options.use_reuse = config.use_reuse;
  options.induced = config.induced;
  options.planner = config.planner;
  options.planner_bitmap_min_degree = config.bitmap_min_degree;
  return options;
}

Result<MatchPlan> PlanForConfig(const QueryGraph& query,
                                const EngineConfig& config,
                                const Graph* graph) {
  PlanOptions options = PlanOptionsFor(config);
  if (PrefilterApplies(config)) {
    options.prefilter = config.prefilter;
    if (config.prefiltered != nullptr) {
      options.candidate_counts = &config.prefiltered->candidate_counts();
    }
  }
  GraphStats local_stats;
  if (config.planner == PlannerKind::kCost && graph != nullptr) {
    local_stats = GraphStats::Compute(*graph);
    options.stats = &local_stats;
  }
  // Cost planning without a graph falls back to the greedy order.
  return CompilePlan(query, options);
}

int NumDeviceSlices(const EngineConfig& config) {
  return shard::ShardingApplies(config) ? 1
                                        : std::max(config.num_devices, 1);
}

RunResult RunWithRetry(
    const EngineConfig& config,
    const std::function<RunResult(const EngineConfig&)>& attempt) {
  Timer job_timer;
  EngineConfig attempt_config = config;
  RunCounters carry;
  double backoff_ms = config.retry.backoff_ms;
  if (config.retry.max_backoff_ms > 0) {
    backoff_ms = std::min(backoff_ms, config.retry.max_backoff_ms);
  }
  const int max_attempts = std::max(config.retry.max_attempts, 1);
  for (int n = 1;; ++n) {
    RunResult r = attempt(attempt_config);
    r.counters.attempts = n;
    r.counters.failpoint_fires += carry.failpoint_fires;
    r.counters.pressure_retries += carry.pressure_retries;
    r.counters.pressure_pages_released += carry.pressure_pages_released;
    r.counters.deferred_tasks += carry.deferred_tasks;
    if (n > 1) {
      r.counters.degraded_mode = true;
    }
    if (r.status.ok() || n >= max_attempts || !RetryableFailure(r.status)) {
      // Whole-job wall time: failed attempts and backoff sleeps are real
      // elapsed time; reporting only the last attempt's total_ms would
      // under-state what the caller actually waited.
      r.total_ms = job_timer.ElapsedMillis();
      return r;
    }
    carry.failpoint_fires = r.counters.failpoint_fires;
    carry.pressure_retries = r.counters.pressure_retries;
    carry.pressure_pages_released = r.counters.pressure_pages_released;
    carry.deferred_tasks = r.counters.deferred_tasks;
    ApplyRetryEscalation(&attempt_config, n + 1, r.status);
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_ms *= 2;
      if (config.retry.max_backoff_ms > 0) {
        backoff_ms = std::min(backoff_ms, config.retry.max_backoff_ms);
      }
    }
  }
}

namespace {

using PlannedEngine = std::function<RunResult(
    const Graph&, const MatchPlan&, const EngineConfig&)>;

RunResult Failed(Status status) {
  RunResult result;
  result.status = std::move(status);
  return result;
}

// Prepare and Plan: the only place a query becomes a plan. When the
// prefilter applies, the candidate-induced view is built first; the plan
// is compiled against the ORIGINAL graph's statistics plus the exact
// candidate cardinalities, and the engine runs on fg.graph() with O(1)
// membership checks layered on via config.prefiltered. An empty candidate
// set proves zero matches without running an engine.
RunResult RunPipeline(const Graph& graph, const QueryGraph& query,
                      const EngineConfig& config,
                      const PlannedEngine& engine) {
  if (!PrefilterApplies(config) || config.prefiltered != nullptr) {
    Result<MatchPlan> plan = PlanForConfig(query, config, &graph);
    if (!plan.ok()) {
      return Failed(plan.status());
    }
    return engine(graph, plan.value(), config);
  }
  Timer total_timer;
  Timer build_timer;
  const FilteredGraph fg = BuildFilteredGraph(graph, query, config.prefilter);
  const double build_ms = build_timer.ElapsedMillis();
  EngineConfig filtered_config = config;
  filtered_config.prefiltered = &fg;
  Result<MatchPlan> plan = PlanForConfig(query, filtered_config, &graph);
  if (!plan.ok()) {
    return Failed(plan.status());
  }
  RunResult result;
  if (!fg.AnyCandidateSetEmpty()) {
    result = engine(fg.graph(), plan.value(), filtered_config);
  }
  RecordPrefilterStats(fg, build_ms, &result.counters);
  result.total_ms = total_timer.ElapsedMillis();
  return result;
}

// Execute, one device slice: the shard runner when sharding applies,
// otherwise the DFS engine under config.retry.
RunResult RunSlice(const Graph& graph, const MatchPlan& plan,
                   const EngineConfig& config, int device_id,
                   MatchSink* sink) {
  if (shard::ShardingApplies(config)) {
    return shard::RunMatchingSharded(graph, plan, config);
  }
  // Unsharded: every worker reads the full CSR, so a per-worker graph
  // budget fails the job outright — sharding is the way out.
  if (config.graph_budget_bytes > 0 &&
      graph.CsrBytes() > config.graph_budget_bytes) {
    return Failed(Status(
        StatusCode::kResourceExhausted,
        "graph CSR exceeds per-worker graph_budget_bytes; shard the graph "
        "(EngineConfig::sharding) to split it across workers"));
  }
  // One engine_run span per device job, covering every retry attempt
  // (failed attempts are part of what the caller waited for). Parent and
  // track come from the submitter via the config (service slice track, or
  // the defaults for standalone runs).
  obs::SpanLedger::Span run_span;
  if (config.trace != nullptr) {
    run_span = config.trace->spans()->Begin("engine_run", config.span_track,
                                            config.span_parent, device_id);
  }
  return RunWithRetry(config, [&](const EngineConfig& attempt_config) {
    return RunDfsEngine(graph, plan, attempt_config, device_id, sink);
  });
}

// Execute and Merge: devices run back-to-back on this host (round-robin
// edge ownership); a failed device stops the loop. Each slice runs under
// the retry policy, so a lost device is recovered by re-executing exactly
// that device's edge slice.
RunResult RunSlices(const Graph& graph, const MatchPlan& plan,
                    const EngineConfig& config, MatchSink* sink) {
  const int num_slices = NumDeviceSlices(config);
  if (num_slices == 1) {
    return RunSlice(graph, plan, config, 0, sink);
  }
  Timer total_timer;
  std::vector<RunResult> slices;
  for (int d = 0; d < num_slices; ++d) {
    slices.push_back(RunSlice(graph, plan, config, d, sink));
    if (!slices.back().status.ok()) {
      break;
    }
  }
  RunResult result = MergeSlices(std::move(slices));
  result.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace

RunResult RunMatchingDevice(const Graph& graph, const MatchPlan& plan,
                            const EngineConfig& config, int device_id) {
  return RunSlice(graph, plan, config, device_id, /*sink=*/nullptr);
}

RunResult RunMatchingPlanned(const Graph& graph, const MatchPlan& plan,
                             const EngineConfig& config) {
  return RunSlices(graph, plan, config, /*sink=*/nullptr);
}

RunResult RunMatching(const Graph& graph, const QueryGraph& query,
                      const EngineConfig& config) {
  return RunPipeline(graph, query, config, RunMatchingPlanned);
}

RunResult RunMatchingCollect(const Graph& graph, const QueryGraph& query,
                             const EngineConfig& config, MatchSink* sink) {
  TDFS_CHECK(sink != nullptr);
  // Collection keeps two restrictions. No retry: a failed attempt may
  // already have emitted rows, and replaying it would duplicate them. No
  // prefilter or sharding: the filtered CSR renumbers vertices, and the
  // shard runner has no sink.
  EngineConfig collect_config = config;
  collect_config.retry.max_attempts = 1;
  collect_config.prefilter = PrefilterKind::kOff;
  collect_config.prefiltered = nullptr;
  collect_config.sharding = ShardingKind::kOff;
  return RunPipeline(graph, query, collect_config,
                     [sink](const Graph& g, const MatchPlan& plan,
                            const EngineConfig& cfg) {
                       return RunSlices(g, plan, cfg, sink);
                     });
}

RunResult RunMatchingBfs(const Graph& graph, const QueryGraph& query,
                         const EngineConfig& config) {
  EngineConfig bfs_config = config;
  bfs_config.use_reuse = false;  // BFS has no per-path stack to reuse from
  return RunPipeline(graph, query, bfs_config,
                     [](const Graph& g, const MatchPlan& plan,
                        const EngineConfig& cfg) {
                       return shard::ShardingApplies(cfg)
                                  ? shard::RunBfsSharded(g, plan, cfg)
                                  : RunBfsEngine(g, plan, cfg);
                     });
}

RunResult RunMatchingHybrid(const Graph& graph, const QueryGraph& query,
                            const EngineConfig& config) {
  EngineConfig hybrid_config = config;
  hybrid_config.use_reuse = false;  // the hybrid DFS phase has no reuse stack
  return RunPipeline(graph, query, hybrid_config, RunHybridEngine);
}

RunResult RunMatchingRef(const Graph& graph, const QueryGraph& query,
                         const EngineConfig& config,
                         const MatchVisitor& visitor) {
  Result<MatchPlan> plan = PlanForConfig(query, config, &graph);
  if (!plan.ok()) {
    return Failed(plan.status());
  }
  return RunRefEngine(graph, plan.value(), config.use_degree_filter,
                      visitor, config.trace);
}

}  // namespace tdfs
