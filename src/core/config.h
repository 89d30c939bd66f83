// Engine configuration.
//
// One config struct drives every engine so that the benchmark harness can
// vary exactly one knob at a time (Section IV-C/D ablations). Presets
// reproduce the four systems the paper compares:
//
//   TdfsConfig()    — timeout stealing, paged stacks, symmetry breaking,
//                     reuse, warp-parallel edge filtering (this paper).
//   StmatchConfig() — half stealing with stack locks, fixed-capacity array
//                     stacks, host-side single-core edge filtering,
//                     set-difference vertex removal [47].
//   EgsmConfig()    — new-kernel load balancing, label-index (CT-index
//                     stand-in) neighbor access, NO automorphism-based
//                     symmetry breaking [43].
//   PbeConfig()     — BFS extension with a device-memory budget, pipelined
//                     batches, two-pass (count+fill) sizing [29].

#ifndef TDFS_CORE_CONFIG_H_
#define TDFS_CORE_CONFIG_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "graph/sharding_kind.h"
#include "query/planner_kind.h"
#include "query/prefilter_kind.h"
#include "queue/task_queue.h"
#include "util/intersect.h"
#include "util/status.h"

namespace tdfs::obs {
class TraceSession;
}  // namespace tdfs::obs

namespace tdfs::shard {
struct ShardExchange;  // shard/exchange.h
}  // namespace tdfs::shard

namespace tdfs {

class DeltaEdgeSet;    // query/plan.h
class FilteredGraph;   // query/candidate_filter.h
class GraphPartition;  // graph/partition.h

/// Load-balancing strategy for the warp-DFS engines (Fig. 11).
enum class StealStrategy {
  kTimeout,    // T-DFS: decompose stragglers into Q_task
  kHalfSteal,  // STMatch: lock a victim's stack, take half a level
  kNewKernel,  // EGSM: spawn a child kernel for hot subtrees
  kNone,       // no balancing beyond initial chunked distribution
};

/// Stack backend (Tables V-VIII).
enum class StackKind {
  kPaged,           // dynamic pages (this paper)
  kArrayMaxDegree,  // d_max-capacity arrays: correct but wasteful
  kArrayFixed,      // hardcoded capacity (STMatch's 4096): may truncate
};

/// Timeout clock. Wall matches the paper; virtual (work-unit driven) makes
/// decomposition deterministic for tests.
enum class ClockKind { kWall, kVirtual };

const char* StealStrategyName(StealStrategy s);
const char* StackKindName(StackKind s);

/// Whole-job retry and escalation for RunMatching. A failed attempt
/// (kResourceExhausted from an undersized page pool, kInternal from a lost
/// kernel/device) is re-executed from scratch — counts from failed
/// attempts are discarded, so retries never change the reported result.
/// Attempts escalate through a ladder of increasingly heavy-handed
/// fallbacks for resource exhaustion:
///
///   attempt 2: enable the page-release heuristic (release_stack_pages)
///   attempt 3: grow page_pool_pages by pool_growth_factor
///   attempt 4+: fall back to StackKind::kArrayMaxDegree (always fits)
///
/// Plain failures (device loss) retry without escalating. The default
/// max_attempts = 1 preserves fail-fast semantics; services opt in.
struct RetryPolicy {
  /// Total attempts per device job, including the first. 1 = no retry.
  int max_attempts = 1;

  /// Sleep between attempts (doubling), host-side.
  double backoff_ms = 0.0;

  /// Ceiling for the doubling backoff. With high max_attempts an uncapped
  /// doubling sleeps for minutes; services configure deep retry ladders
  /// and must not stall a worker that long. <= 0 disables the cap.
  double max_backoff_ms = 1000.0;

  /// Walk the resource-exhaustion escalation ladder above. When false,
  /// retries re-run with the original config unchanged.
  bool escalate = true;

  /// Pool growth per escalation-ladder step 3.
  int pool_growth_factor = 4;
};

class MemoryGovernor;
class PageAllocator;

/// Borrowed per-run resources for engine reuse (each MatchService worker
/// lends its own pair to every run it executes; the shard runner pre-seeds
/// per-shard queues through them). When EngineConfig::resources is set, the
/// engine adopts each resource *iff* its geometry matches the config
/// (allocator: page count and page size; queue: capacity in ints) and
/// falls back to fresh allocation otherwise — the retry escalation ladder
/// grows page_pool_pages mid-job, and a stale-sized pool must never be
/// reused. Adopted resources have their stats reset at the start of the
/// run (per-run peaks stay per-run) and their observability sink rebound
/// to the run's trace session (or detached when tracing is off).
///
/// The caller must guarantee the resources are idle — no other run is
/// using them — and outlive the run. The engine returns every page before
/// completing (stacks release on destruction), but a deadline-aborted or
/// failed run can leave tasks in the queue; recyclers must drain it
/// (TaskQueue::DrainForReuse) before the next run.
struct EngineResources {
  PageAllocator* allocator = nullptr;  // used when StackKind::kPaged
  TaskQueue* queue = nullptr;          // used when StealStrategy::kTimeout
};

struct EngineConfig {
  // ---- execution shape ----
  int num_warps = 8;
  int num_devices = 1;

  /// Initial tasks handed to a warp per fetch (paper default: 8).
  int chunk_size = 8;

  // ---- load balancing ----
  StealStrategy steal = StealStrategy::kTimeout;

  ClockKind clock = ClockKind::kWall;

  /// tau for ClockKind::kWall, in milliseconds (paper default: 10 ms).
  /// +infinity disables decomposition (the "No Steal" row of Fig. 11 is
  /// steal == kNone, which skips the clock entirely).
  double timeout_ms = 10.0;

  /// tau for ClockKind::kVirtual, in work units.
  uint64_t timeout_work_units = 1 << 18;

  /// Q_task capacity in ints (multiple of 3; paper default 3M). Reserved;
  /// committed on first touch, so a run pays only for the ring it reaches.
  int32_t queue_capacity_ints = TaskQueue::kDefaultCapacityInts;

  /// Maximum matched vertices in a decomposed task (paper: 3, following
  /// STMatch's StopLevel).
  int stop_level = 3;

  /// Idle warps prefer Q_task over new initial chunks (Section III: this
  /// keeps Q_task small). false reverses the priority — the ablation knob
  /// for that design choice.
  bool queue_first = true;

  // ---- stacks ----
  StackKind stack = StackKind::kPaged;

  /// Level capacity for StackKind::kArrayFixed (STMatch default: 4096).
  int64_t fixed_stack_capacity = 4096;

  /// Page pool size for StackKind::kPaged.
  int32_t page_pool_pages = 4096;
  int64_t page_bytes = 8192;

  /// The paper's optional page-release heuristic (free half a level's
  /// pages when at most a quarter are used). Off by default — the paper
  /// found releasing unnecessary because paged footprints stay tiny.
  bool release_stack_pages = false;

  // ---- spill-to-host tier (out-of-core matching) ----
  /// When the page pool is dry, overflow into host-backed spill pages
  /// (exact, slower) instead of failing or degrading — see
  /// mem/memory_governor.h. Off by default: the paper's engine is
  /// arena-only, and the pressure ladder below stays the first response.
  bool spill_to_host = false;

  /// Cap on concurrently live spill pages; 0 = allocator default
  /// (32x page_pool_pages). The governor's byte ceiling applies on top.
  int32_t max_spill_pages = 0;

  /// Budget authority for spill grants, pressure levels, and admission
  /// reservations. Null (the default) uses the process-global governor,
  /// which is inert until given a budget (CLI --mem-budget). Not owned;
  /// must outlive every run.
  MemoryGovernor* governor = nullptr;

  // ---- graceful degradation under page-pool pressure ----
  /// When a paged-stack write finds the pool dry, the warp first releases
  /// its own dead pages (levels deeper than its position, sparse tails),
  /// then retries the write up to this many times with doubling backoff
  /// while other warps free pages. 0 disables in-run retries.
  int pressure_max_retries = 10;

  /// Initial retry backoff; doubles per retry, capped at 64x.
  int64_t pressure_backoff_ns = 20'000;

  /// After retries fail at the *root* of a task (nothing consumed yet),
  /// the task is re-enqueued to Q_task for later instead of poisoning the
  /// job — bounded by this many deferrals per run to rule out livelock
  /// when the pool never recovers. 0 disables deferral.
  int64_t pressure_max_deferrals = 1024;

  /// Whole-job retry/escalation policy (applied per device by
  /// RunMatching; see RetryPolicy).
  RetryPolicy retry;

  // ---- plan / algorithm options ----
  bool use_symmetry_breaking = true;
  bool use_reuse = true;

  /// Vertex-induced matching (matched vertices must be non-adjacent where
  /// the query vertices are). Default false: the paper counts non-induced
  /// embeddings, as is standard for subgraph matching.
  bool induced = false;

  /// Degree-based pruning of initial edges and candidates ("edge
  /// filtering"). Label checks are always applied (correctness).
  bool use_degree_filter = true;

  /// STMatch: run the edge filter on the host with one core before the
  /// kernel, charged as preprocessing time.
  bool host_side_edge_filter = false;

  /// STMatch: remove already-matched vertices with an independent
  /// set-difference pass instead of folding the check into consumption.
  bool separate_vertex_removal = false;

  /// EGSM: fetch neighbors through the label index (CT-index stand-in).
  bool use_label_index = false;

  // ---- intersection backend ----
  /// Kernel backend for candidate intersections (util/intersect.h):
  /// kAuto = best detected SIMD kernels plus the hub bitmap index;
  /// kScalar = reference scalar kernels; kSimd / kBitmapOff = SIMD kernels
  /// without bitmaps. Results and work_units are identical across modes —
  /// only wall time changes.
  IntersectMode intersect = IntersectMode::kAuto;

  /// Adjacency lists at least this long get a bitmap in the hub index
  /// (per label bucket under use_label_index). Only read when the mode
  /// uses bitmaps.
  int64_t bitmap_min_degree = 256;

  // ---- query planner ----
  /// Matching-order planner (query/planner_kind.h): kGreedy = the paper's
  /// static max-degree heuristic; kCost = data-graph-statistics-driven
  /// order search with per-position backend choices. Counts are identical
  /// either way — only the enumeration order (and hence wall time / work)
  /// changes.
  PlannerKind planner = PlannerKind::kGreedy;

  // ---- candidate prefiltering ----
  /// Candidate-prefiltering pipeline (query/prefilter_kind.h): before
  /// matching, per-query-vertex candidate sets are computed (LDF seeding,
  /// optionally neighborhood-safety refined) and the engines run on the
  /// candidate-induced CSR. Counts are bit-identical to kOff. Ignored
  /// (treated as kOff) for induced matching, delta plans, initial_edges
  /// runs and the ref engine — see query/candidate_filter.h for why.
  PrefilterKind prefilter = PrefilterKind::kOff;

  /// Borrowed prebuilt filtered view matching `prefilter` for the run's
  /// graph + query (the service layer's cache hands these out; RunMatching
  /// builds one on the fly when null and prefilter != kOff). When set, the
  /// engine's graph argument must already be prefiltered->graph(), and the
  /// engines add O(1) candidate-membership checks on top of their plan
  /// checks. Not owned; must outlive the run.
  const FilteredGraph* prefiltered = nullptr;

  // ---- new-kernel strategy ----
  int newkernel_fanout_threshold = 256;
  int newkernel_child_warps = 4;
  /// Global budget of child kernels per job (prevents explosion; beyond it
  /// subtrees are processed in place).
  int newkernel_max_kernels = 512;
  /// Emulated launch + per-kernel stack-allocation latency.
  int64_t newkernel_launch_overhead_ns = 200'000;

  // ---- BFS (PBE) engine ----
  /// Device-memory budget for materialized partial matches.
  int64_t bfs_memory_budget_bytes = int64_t{64} << 20;

  // ---- run deadline ----
  /// Abort the job (status kDeadlineExceeded, partial count) once this many
  /// milliseconds of kernel time have elapsed; 0 = unlimited. The paper
  /// uses the same device: runs beyond 1000 s are reported as 'T' in
  /// Fig. 11. The benchmark harness uses a smaller cap.
  double max_run_ms = 0.0;

  // ---- observability ----
  /// When set, engines register one trace track per warp, record task-
  /// lifecycle events, and populate the session's metrics registry
  /// (obs/trace.h). Null (the default) disables all recording; the hooks
  /// left in the hot paths then cost a pointer test. Not owned; must
  /// outlive the run.
  obs::TraceSession* trace = nullptr;

  /// Span parenting for the session's span ledger (obs/span.h): when
  /// `trace` is set, the per-device engine_run span is recorded on this
  /// ledger track under this parent span id. Defaults place it as a root
  /// span on track 0; the service layer points these at the owning job's
  /// slice track so engine time nests inside the job tree.
  int64_t span_track = 0;
  uint64_t span_parent = 0;

  // ---- resource reuse (service workers, shard runner) ----
  /// Borrowed page pool / task queue to run on instead of allocating
  /// fresh ones (see EngineResources above for the adoption rules). Null
  /// (the default) allocates per run. Not owned; must outlive the run.
  const EngineResources* resources = nullptr;

  // ---- incremental maintenance (dyn layer) ----
  /// When set, the warp-DFS engine enumerates ONLY these directed edges as
  /// initial tasks (round-robin across devices) instead of every edge of
  /// the graph. The caller pre-applies PassesEdgeFilter; per-edge filtering
  /// is skipped like the host-prefilter path. Indices must be valid for
  /// the run's graph. Not owned; must outlive the run.
  const std::vector<int64_t>* initial_edges = nullptr;

  /// Delta-edge membership for delta plans (MatchPlan::delta_forbidden
  /// consume checks). Null for ordinary runs. Not owned; must outlive the
  /// run.
  const DeltaEdgeSet* delta_edges = nullptr;

  // ---- EGSM OOM model (Table IV) ----
  /// If > 0, fail with ResourceExhausted when the label index plus the
  /// materialized candidate-edge set exceeds this many bytes.
  int64_t device_memory_budget_bytes = 0;

  // ---- shard-parallel execution (src/shard/) ----
  /// kOff (default) keeps the shared-CSR multi-device path. kHash/kGreedy
  /// partition the data graph (graph/partition.h) and run one worker per
  /// shard: its own shard CSR, page arena, and task queue, with
  /// cross-shard initial edges routed as fixed-width task messages to the
  /// owner shard's queue and cross-shard steals only after a shard's own
  /// work drains. Counts and work_units are bit-identical to kOff.
  ShardingKind sharding = ShardingKind::kOff;

  /// Worker count for sharded runs; 0 (default) uses num_devices.
  int num_shards = 0;

  /// Halo cap: boundary vertices whose global degree is at most this get
  /// their adjacency replicated into every neighboring shard, so the
  /// common cross-shard lookup never leaves the shard. 0 disables halos.
  int64_t shard_halo_max_degree = 256;

  /// Route each shard's cross-boundary initial edges (target owned
  /// elsewhere, above the halo cap) to the owner shard's queue at seeding
  /// time. Only effective with StealStrategy::kTimeout (the only strategy
  /// with a queue); false keeps every owned edge local.
  bool shard_route_initial = true;

  /// If > 0, per-worker resident-graph budget in bytes: an unsharded run
  /// fails with kResourceExhausted when the full CSR exceeds it (every
  /// worker must hold the whole graph); a sharded run admits each shard
  /// against its own resident footprint — the mechanism that lets graphs
  /// larger than one worker's budget complete when sharded.
  int64_t graph_budget_bytes = 0;

  /// NUMA placement hints: shard s's arena is tagged with
  /// numa_nodes[s % size]. Advisory (recorded on the allocator and
  /// exported per shard); page placement itself relies on first-touch by
  /// the owning worker thread. Empty = no hints.
  std::vector<int> numa_nodes;

  /// Prebuilt partition to run on (borrowed; must outlive the run and
  /// match this config's sharding/num_shards/halo geometry for the run's
  /// graph). Null (the default) partitions on the fly, charged to
  /// preprocess_ms like the other host-side preprocessing.
  const GraphPartition* partition = nullptr;

  // -- internal: set by the shard runner on per-shard engine configs --
  /// Cross-shard coordination state (shared queues, global work tokens,
  /// job expiry). Not owned; null for ordinary runs.
  shard::ShardExchange* shard_exchange = nullptr;

  /// This engine's shard id within the exchange; -1 for ordinary runs.
  int shard_id = -1;
};

/// Failures worth re-executing under RetryPolicy: an undersized page pool
/// (the escalation ladder can fix it) or a lost kernel/device (a fresh
/// execution can simply succeed). Bad input, deadlines, and corruption are
/// not retryable.
bool RetryableFailure(const Status& status);

/// Walks one step of the RetryPolicy escalation ladder (see RetryPolicy)
/// before attempt number `next_attempt`. Only resource exhaustion
/// escalates; device loss retries with the config unchanged.
void ApplyRetryEscalation(EngineConfig* cfg, int next_attempt,
                          const Status& failure);

/// A page pool at `config`'s geometry (page_pool_pages x page_bytes) with
/// its spill tier (spill_to_host, max_spill_pages) accounted to
/// config.governor — the pool the engine would allocate for this run, so
/// a pool built here is adopted through EngineConfig::resources.
std::unique_ptr<PageAllocator> MakePageAllocator(const EngineConfig& config);

/// Presets (see file comment).
EngineConfig TdfsConfig();
EngineConfig StmatchConfig();
EngineConfig EgsmConfig();
EngineConfig PbeConfig();

}  // namespace tdfs

#endif  // TDFS_CORE_CONFIG_H_
