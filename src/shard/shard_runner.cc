#include "shard/shard_runner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bfs_engine.h"
#include "core/dfs_engine.h"
#include "core/matcher.h"
#include "graph/partition.h"
#include "mem/page_allocator.h"
#include "obs/trace.h"
#include "query/candidate_filter.h"
#include "queue/task_queue.h"
#include "shard/exchange.h"
#include "util/timer.h"

namespace tdfs::shard {

namespace {

// Snapshot of one shard's adjacency-fetch meters, for per-run deltas: the
// partition may be borrowed (config.partition) and shared across runs, so
// absolute values would accumulate history.
struct FetchSnapshot {
  int64_t local_rows = 0;
  int64_t local_items = 0;
  int64_t halo_rows = 0;
  int64_t halo_items = 0;
  int64_t remote_rows = 0;
  int64_t remote_items = 0;

  static FetchSnapshot Take(const ShardFetchStats& s) {
    FetchSnapshot snap;
    snap.local_rows = s.local_rows.load(std::memory_order_relaxed);
    snap.local_items = s.local_items.load(std::memory_order_relaxed);
    snap.halo_rows = s.halo_rows.load(std::memory_order_relaxed);
    snap.halo_items = s.halo_items.load(std::memory_order_relaxed);
    snap.remote_rows = s.remote_rows.load(std::memory_order_relaxed);
    snap.remote_items = s.remote_items.load(std::memory_order_relaxed);
    return snap;
  }
};

// True when a prebuilt partition can stand in for the one this config
// would build over this graph.
bool PartitionMatches(const GraphPartition& part, const Graph& graph,
                      const EngineConfig& config, int num_shards) {
  return part.spec().kind == config.sharding &&
         part.num_shards() == num_shards &&
         part.spec().halo_max_degree == config.shard_halo_max_degree &&
         part.TotalVertices() == graph.NumVertices() &&
         part.TotalDirectedEdges() == graph.NumDirectedEdges();
}

// Per-shard resident footprint vs the per-worker budget. The whole point
// of sharding a too-big graph: each worker only has to hold its slice.
Status AdmitShards(const GraphPartition& part, int64_t budget_bytes) {
  if (budget_bytes <= 0) {
    return Status::OK();
  }
  for (int s = 0; s < part.num_shards(); ++s) {
    if (part.ResidentBytes(s) > budget_bytes) {
      return Status::ResourceExhausted(
          "shard " + std::to_string(s) + " resident footprint (" +
          std::to_string(part.ResidentBytes(s)) +
          " bytes) exceeds graph_budget_bytes (" +
          std::to_string(budget_bytes) +
          "); raise the budget, add shards, or lower the halo cap");
    }
  }
  return Status::OK();
}

int NumaNodeFor(const EngineConfig& config, int s) {
  if (config.numa_nodes.empty()) {
    return -1;
  }
  return config.numa_nodes[static_cast<size_t>(s) %
                           config.numa_nodes.size()];
}

// Per-shard summary of one engine run on shard `s`; `before` is the
// shard's fetch meters taken when the run started. Routing and the
// simulated share are filled by the caller.
ShardRunStats ShardStatsFor(const GraphPartition& part,
                            const EngineConfig& config, int s,
                            const FetchSnapshot& before, const RunResult& r) {
  const FetchSnapshot now = FetchSnapshot::Take(part.Stats(s));
  ShardRunStats stats;
  stats.shard_id = s;
  stats.numa_node = NumaNodeFor(config, s);
  stats.owned_rows = part.OwnedRows(s);
  stats.halo_rows = part.HaloRows(s);
  stats.owned_edges = part.OwnedDirectedEdges(s);
  stats.resident_bytes = part.ResidentBytes(s);
  stats.local_rows = now.local_rows - before.local_rows;
  stats.local_items = now.local_items - before.local_items;
  stats.halo_rows_fetched = now.halo_rows - before.halo_rows;
  stats.halo_items = now.halo_items - before.halo_items;
  stats.remote_rows = now.remote_rows - before.remote_rows;
  stats.remote_items = now.remote_items - before.remote_items;
  stats.work_units = r.counters.work_units;
  stats.max_warp_work_units = r.counters.max_warp_work_units;
  return stats;
}

// Appends the per-shard stats to `merged`, surfacing the fetch tiers the
// graph layer meters into the partition as run counters (engines never
// see the tier split).
void AddShardStats(std::vector<ShardRunStats> per_shard, RunResult* merged) {
  for (const ShardRunStats& stats : per_shard) {
    merged->counters.shard_halo_hits += stats.halo_rows_fetched;
    merged->counters.shard_remote_reads += stats.remote_rows;
  }
  merged->per_shard = std::move(per_shard);
}

// One execution of the whole sharded job (every shard, one attempt).
// RunMatchingSharded re-invokes this under RunWithRetry with escalated
// configs; all per-shard resources are rebuilt per attempt so an escalated
// geometry (bigger pool, different stack kind) never meets a stale arena.
RunResult RunShardedAttempt(const MatchPlan& plan,
                            const EngineConfig& config,
                            const GraphPartition& part) {
  const int num_shards = part.num_shards();
  RunResult merged;
  Timer attempt_timer;

  std::vector<FetchSnapshot> before(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    before[static_cast<size_t>(s)] = FetchSnapshot::Take(part.Stats(s));
  }

  // ---- per-shard resources (exact config geometry, so the engines adopt
  // them instead of allocating their own — mandatory for the queues: the
  // routing pass below pre-seeds them) ----
  const size_t n = static_cast<size_t>(num_shards);
  std::vector<std::unique_ptr<PageAllocator>> allocators(n);
  std::vector<std::unique_ptr<TaskQueue>> queues(n);
  std::vector<EngineResources> resources(n);
  ShardExchange exchange;
  const bool use_exchange = config.steal == StealStrategy::kTimeout;
  exchange.num_shards = use_exchange ? num_shards : 0;
  for (size_t s = 0; s < n; ++s) {
    if (config.stack == StackKind::kPaged) {
      allocators[s] = MakePageAllocator(config);
      allocators[s]->SetNumaNode(NumaNodeFor(config, static_cast<int>(s)));
      resources[s].allocator = allocators[s].get();
    }
    if (use_exchange) {
      queues[s] = std::make_unique<TaskQueue>(config.queue_capacity_ints);
      resources[s].queue = queues[s].get();
      exchange.queues.push_back(queues[s].get());
    }
  }

  // ---- seeding / routing pass ----
  // With routing on, the host walks every shard's owned edges once,
  // applies the same edge filter the warps would, and splits survivors
  // into a kept-local list (handed to the engine via initial_edges) and
  // routed tasks enqueued on the owner shard's queue. Counter bookkeeping
  // reproduces the unsharded totals exactly: the engine counts one
  // edges_scanned + initial_tasks per kept seed, so the host adds the
  // rejected edges' edges_scanned (unless a host-side filter would have
  // hidden them anyway) and the routed edges' full share. Routed tasks are
  // plain two-vertex tasks, processed by the receiving warp exactly like
  // an inline initial edge — identical work units.
  //
  // Two-vertex queue tasks index plan arrays at level 2, so routing is
  // gated on plans with at least three vertices; an edge-counting query
  // keeps every seed local.
  const bool route = use_exchange && config.shard_route_initial &&
                     plan.num_vertices >= 3;
  RunCounters seed;
  std::vector<std::vector<int64_t>> kept(static_cast<size_t>(num_shards));
  std::vector<int64_t> routed_out(static_cast<size_t>(num_shards), 0);
  std::vector<int64_t> routed_in(static_cast<size_t>(num_shards), 0);
  Timer seed_timer;
  if (route) {
    for (int s = 0; s < num_shards; ++s) {
      const Graph& view = part.ShardView(s);
      const int64_t num_edges = view.NumDirectedEdges();
      std::vector<int64_t>& keep = kept[static_cast<size_t>(s)];
      for (int64_t e = 0; e < num_edges; ++e) {
        const VertexId v0 = view.EdgeSource(e);
        const VertexId v1 = view.EdgeTarget(e);
        const bool pass =
            PassesEdgeFilter(plan, view, v0, v1,
                             config.use_degree_filter) &&
            PrefilterAdmitsEdge(config.prefiltered, plan.order[0],
                                plan.order[1], v0, v1);
        if (!pass) {
          if (!config.host_side_edge_filter) {
            // A warp would have scanned and rejected this edge; a
            // host-side filter (STMatch) would have dropped it silently.
            ++seed.edges_scanned;
          }
          continue;
        }
        if (!view.ShardLocalRow(v1)) {
          // v1's adjacency is neither owned nor halo-cached here: hand
          // the task to v1's owner, where the very next extension is a
          // local row. Token before the task becomes visible, as
          // everywhere else.
          const int owner = part.Owner(v1);
          exchange.work_items.fetch_add(1, std::memory_order_acq_rel);
          if (exchange.queues[static_cast<size_t>(owner)]->Enqueue(
                  Task{v0, v1, kNoThirdVertex})) {
            ++seed.edges_scanned;
            ++seed.initial_tasks;
            ++seed.tasks_enqueued;
            ++seed.shard_cross_msgs;
            ++routed_out[static_cast<size_t>(s)];
            ++routed_in[static_cast<size_t>(owner)];
            continue;
          }
          // Destination queue full: keep the edge local (remote fetches
          // make it slower, never wrong).
          exchange.work_items.fetch_sub(1, std::memory_order_acq_rel);
          ++seed.queue_full_failures;
        }
        keep.push_back(e);
      }
    }
  }
  seed.preprocess_ms = seed_timer.ElapsedMillis();

  // ---- per-shard configs and engine launch ----
  std::vector<EngineConfig> cfgs(static_cast<size_t>(num_shards), config);
  for (int s = 0; s < num_shards; ++s) {
    EngineConfig& cfg = cfgs[static_cast<size_t>(s)];
    cfg.num_devices = 1;
    cfg.sharding = ShardingKind::kOff;  // this level IS the shard runner
    cfg.partition = nullptr;
    cfg.shard_id = s;
    cfg.shard_exchange = use_exchange ? &exchange : nullptr;
    cfg.resources = &resources[static_cast<size_t>(s)];
    cfg.initial_edges = route ? &kept[static_cast<size_t>(s)] : nullptr;
  }

  std::vector<obs::SpanLedger::Span> spans;
  if (config.trace != nullptr) {
    spans.reserve(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      spans.push_back(config.trace->spans()->Begin(
          "shard_run", config.span_track, config.span_parent, s));
    }
  }

  Timer match_timer;
  std::vector<RunResult> shard_results(static_cast<size_t>(num_shards));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    workers.emplace_back([&, s]() {
      RunResult r = RunDfsEngine(part.ShardView(s), plan,
                                 cfgs[static_cast<size_t>(s)], s);
      if (!r.status.ok() && use_exchange) {
        // A dead shard can strand pre-routed tokens in its queue forever;
        // expire the job so sibling warps unwind instead of spinning on a
        // work count that will never drain.
        exchange.expired.store(true, std::memory_order_release);
      }
      shard_results[static_cast<size_t>(s)] = std::move(r);
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  const double match_wall_ms = match_timer.ElapsedMillis();
  for (obs::SpanLedger::Span& span : spans) {
    span.End();
  }

  // ---- merge ----
  // Failure precedence: a retryable failure first (so the job-level retry
  // ladder sees it — a failed shard expires its siblings into
  // DeadlineExceeded, which must not mask the root cause), then any other
  // failure.
  Status failure = Status::OK();
  for (const RunResult& r : shard_results) {
    if (!r.status.ok() &&
        (failure.ok() ||
         (RetryableFailure(r.status) && !RetryableFailure(failure)))) {
      failure = r.status;
    }
  }

  uint64_t total_work = 0;
  for (int s = 0; s < num_shards; ++s) {
    const RunResult& r = shard_results[static_cast<size_t>(s)];
    merged.match_count += r.match_count;
    merged.counters.MergeFrom(r.counters);
    merged.attribution.MergeFrom(r.attribution);
    total_work += r.counters.work_units;
  }
  merged.counters.MergeFrom(seed);
  merged.status = failure;

  // Per-shard simulated kernel time: the attempt's parallel wall time
  // apportioned by each shard's busiest warp — the same
  // busiest-warp-share construction as SimulatedGpuMs, but against the
  // job-wide work total so the entries are comparable across shards (the
  // shards really ran concurrently on this host).
  for (int s = 0; s < num_shards; ++s) {
    const RunResult& r = shard_results[static_cast<size_t>(s)];
    double simulated = match_wall_ms;
    if (total_work > 0) {
      simulated = match_wall_ms *
                  static_cast<double>(r.counters.max_warp_work_units) /
                  static_cast<double>(total_work);
    }
    merged.per_device_ms.push_back(simulated);
  }
  merged.match_ms = merged.SimulatedParallelMs();

  // ---- per-shard stats + fetch-tier deltas ----
  std::vector<ShardRunStats> per_shard;
  for (int s = 0; s < num_shards; ++s) {
    ShardRunStats stats =
        ShardStatsFor(part, config, s, before[static_cast<size_t>(s)],
                      shard_results[static_cast<size_t>(s)]);
    stats.routed_out = routed_out[static_cast<size_t>(s)];
    stats.routed_in = routed_in[static_cast<size_t>(s)];
    stats.simulated_ms = merged.per_device_ms[static_cast<size_t>(s)];
    per_shard.push_back(stats);
  }
  AddShardStats(std::move(per_shard), &merged);

  // ---- per-shard observability (gauges; Prometheus names tdfs_mem_*) --
  if (config.trace != nullptr) {
    obs::MetricsRegistry* metrics = config.trace->metrics();
    for (int s = 0; s < num_shards; ++s) {
      const std::string prefix = "mem.shard" + std::to_string(s) + ".";
      PageAllocator* alloc = allocators[static_cast<size_t>(s)].get();
      if (alloc != nullptr) {
        metrics->GetGauge(prefix + "arena_pages_peak")
            ->Set(alloc->PeakPagesInUse());
        metrics->GetGauge(prefix + "arena_pages")
            ->Set(alloc->num_pages());
        metrics->GetGauge(prefix + "spill_pages_peak")
            ->Set(alloc->SpillPagesPeak());
      }
      metrics->GetGauge(prefix + "resident_bytes")
          ->Set(part.ResidentBytes(s));
      TaskQueue* queue = queues[static_cast<size_t>(s)].get();
      if (queue != nullptr) {
        metrics
            ->GetGauge("queue.shard" + std::to_string(s) + ".peak_tasks")
            ->Set(queue->PeakSizeInts() / 3);
      }
    }
  }

  merged.total_ms = attempt_timer.ElapsedMillis();
  return merged;
}

// Adopts config.partition when its geometry matches, else partitions on
// the fly (preprocessing, like the other host-side passes); admits every
// shard against graph_budget_bytes, then runs `body` on the partition.
// The partition time is charged to preprocess_ms, and total_ms covers the
// whole job.
RunResult RunOnPartition(
    const Graph& graph, const EngineConfig& config,
    const std::function<RunResult(const GraphPartition&)>& body) {
  Timer total_timer;
  const int num_shards = EffectiveShards(config);
  const GraphPartition* part = config.partition;
  std::unique_ptr<GraphPartition> owned_part;
  if (part == nullptr ||
      !PartitionMatches(*part, graph, config, num_shards)) {
    PartitionSpec spec;
    spec.kind = config.sharding;
    spec.num_shards = num_shards;
    spec.halo_max_degree = config.shard_halo_max_degree;
    owned_part = GraphPartition::Build(graph, spec);
    part = owned_part.get();
  }
  const double partition_ms = total_timer.ElapsedMillis();
  RunResult result;
  if (Status admit = AdmitShards(*part, config.graph_budget_bytes);
      !admit.ok()) {
    result.status = admit;
  } else {
    result = body(*part);
  }
  result.counters.preprocess_ms += partition_ms;
  result.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace

int EffectiveShards(const EngineConfig& config) {
  return config.num_shards > 0 ? config.num_shards : config.num_devices;
}

bool ShardingApplies(const EngineConfig& config) {
  return config.sharding != ShardingKind::kOff &&
         EffectiveShards(config) > 1 && config.initial_edges == nullptr &&
         config.delta_edges == nullptr;
}

RunResult RunMatchingSharded(const Graph& graph, const MatchPlan& plan,
                             const EngineConfig& config) {
  return RunOnPartition(graph, config, [&](const GraphPartition& part) {
    // Whole-job retry, like the unsharded device jobs: per-shard resources
    // are rebuilt per attempt, so an escalated geometry never meets a
    // stale arena.
    return RunWithRetry(config, [&](const EngineConfig& attempt_config) {
      return RunShardedAttempt(plan, attempt_config, part);
    });
  });
}

RunResult RunBfsSharded(const Graph& graph, const MatchPlan& plan,
                        const EngineConfig& config) {
  return RunOnPartition(graph, config, [&](const GraphPartition& part) {
    // Level-synchronous extension has no queue to route through and no
    // straggler to steal from: shard views alone give each worker its
    // disjoint slice of the directed-edge space, and non-resident
    // adjacency resolves through the halo / remote tiers. Shards run
    // back-to-back and merge exactly like the unsharded multi-device path.
    std::vector<RunResult> slices;
    std::vector<ShardRunStats> per_shard;
    for (int s = 0; s < part.num_shards(); ++s) {
      EngineConfig cfg = config;
      cfg.num_devices = 1;
      cfg.sharding = ShardingKind::kOff;
      cfg.partition = nullptr;
      cfg.shard_id = s;
      const FetchSnapshot before = FetchSnapshot::Take(part.Stats(s));
      slices.push_back(RunBfsEngine(part.ShardView(s), plan, cfg));
      const RunResult& r = slices.back();
      if (!r.status.ok()) {
        break;
      }
      per_shard.push_back(ShardStatsFor(part, config, s, before, r));
      per_shard.back().simulated_ms = r.SimulatedGpuMs();
    }
    RunResult merged = MergeSlices(std::move(slices));
    if (merged.status.ok()) {
      AddShardStats(std::move(per_shard), &merged);
    }
    return merged;
  });
}

}  // namespace tdfs::shard
