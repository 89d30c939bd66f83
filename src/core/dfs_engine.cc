#include "core/dfs_engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/candidates.h"
#include "query/candidate_filter.h"
#include "graph/hub_bitmap.h"
#include "graph/label_index.h"
#include "mem/page_allocator.h"
#include "mem/warp_stack.h"
#include "obs/trace.h"
#include "queue/task_queue.h"
#include "shard/exchange.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/prng.h"
#include "util/time_attr.h"
#include "util/timer.h"
#include "vgpu/atomics.h"
#include "vgpu/scheduler.h"

namespace tdfs {

namespace {

// Idle-warp backoff: spin (yielding the core) for this many polls after
// running dry, then park with a doubling sleep. Work usually reappears
// within a few polls (a neighbor finishing a chunk, a timeout split), so
// the spin phase keeps adoption latency near zero; the park phase keeps a
// starved tail of warps from burning the cores the busy warps need.
constexpr int kIdleSpinPolls = 16;
constexpr int64_t kIdleParkMinNanos = 2'000;
constexpr int64_t kIdleParkMaxNanos = 64'000;

// ---------------------------------------------------------------------------
// Shared per-job state
// ---------------------------------------------------------------------------

template <typename Stack>
class WarpRunner;

template <typename Stack>
struct SharedState {
  const Graph* graph = nullptr;
  const MatchPlan* plan = nullptr;
  const EngineConfig* config = nullptr;
  int device_id = 0;

  // EGSM neighbor access path (null unless use_label_index).
  std::unique_ptr<LabelIndex> index;

  // Intersection backend for this run: kernel table resolved from
  // config.intersect plus the hub bitmap index (empty unless the mode uses
  // bitmaps), fanned out per order position when the cost planner pinned
  // step backends (plan.step_backend). Built during preprocessing,
  // read-only afterwards.
  HubBitmapIndex bitmaps;
  StepDispatchTable steps;

  // Paged-stack page pool (null unless StackKind::kPaged) and T-DFS task
  // queue (null unless StealStrategy::kTimeout). The raw pointers are what
  // warps use; they target either the run-owned instances below or
  // borrowed resources (config.resources) when those match the
  // config's geometry — see EngineResources in core/config.h.
  PageAllocator* allocator = nullptr;
  TaskQueue* queue = nullptr;
  std::unique_ptr<PageAllocator> owned_allocator;
  std::unique_ptr<TaskQueue> owned_queue;

  // Cursor over this device's owned directed edges (or over the
  // host-prefiltered edge list when STMatch-style preprocessing is on).
  // Ownership of global edge j is edge_offset + j * edge_stride: device
  // round-robin for the shared-CSR path, offset 0 / stride 1 for shard
  // views (a shard's CSR already holds exactly its owned edges).
  std::atomic<int64_t> edge_cursor{0};
  int64_t num_owned_edges = 0;
  int64_t edge_offset = 0;
  int64_t edge_stride = 1;
  std::vector<int64_t> host_filtered_edges;  // empty unless host filter

  // Outstanding work tokens: +1 per chunk in flight, +1 per queued task,
  // +1 per pending child kernel. Warps exit when the cursor is exhausted
  // and this reaches zero — a token is always created before the work item
  // becomes visible, so zero means globally done. Sharded runs point this
  // at the job-global counter in the ShardExchange (tokens span shards, so
  // a warp parks until EVERY shard's work is done and a routed task can
  // never strand its token); ordinary runs use the private counter.
  std::atomic<int64_t>* work_items = &own_work_items;
  std::atomic<int64_t> own_work_items{0};

  // Cross-shard coordination (null for ordinary runs) and this engine's
  // shard id within it.
  shard::ShardExchange* exchange = nullptr;
  int shard_id = -1;

  // Observability handles, resolved once per job (null when tracing is
  // off; the recording helpers no-op on null).
  obs::Histogram* h_task_work = nullptr;     // work units per adopted task
  obs::Histogram* h_split_depth = nullptr;   // level at each timeout split
  obs::Histogram* h_isect_size = nullptr;    // candidates per extension
  obs::Counter* c_idle_polls = nullptr;      // dry polls across all warps
  obs::Counter* c_steal_probes = nullptr;    // victim stacks inspected
  std::atomic<int32_t> child_track_seq{0};   // child-warp track naming

  // New-kernel strategy bookkeeping.
  std::atomic<int32_t> kernel_budget{0};
  std::atomic<int32_t> kernels_active{0};
  vgpu::LaunchStats launch_stats;
  std::mutex child_threads_mu;
  std::vector<std::thread> child_threads;

  // Half-steal: the resident warp contexts, probe-able by thieves.
  std::vector<std::unique_ptr<WarpRunner<Stack>>> warps;

  // Run deadline (0 = unlimited). Once any warp observes it passing, the
  // sticky flag makes every warp unwind; the job reports
  // kDeadlineExceeded with a partial count (the paper's 'T' entries).
  int64_t deadline_ns = 0;
  std::atomic<bool> expired{false};

  bool Expired() const {
    if (expired.load(std::memory_order_relaxed)) {
      return true;
    }
    // One shard hitting the deadline (or dying) unwinds the whole job:
    // with a shared work-token count, a lone surviving shard would
    // otherwise park forever on the dead shards' stranded tokens.
    return exchange != nullptr &&
           exchange->expired.load(std::memory_order_relaxed);
  }

  // Optional match collection (query-vertex order).
  MatchSink* sink = nullptr;

  // Result aggregation.
  std::atomic<uint64_t> matches{0};
  std::mutex counters_mu;
  RunCounters counters;
  // Wall-time attribution, merged from per-warp sinks under counters_mu.
  // Only populated when the job runs with a trace session.
  TimeAttributionSink attr;
  std::atomic<int64_t> stack_bytes_total{0};
  std::atomic<bool> stack_overflow{false};

  // Degradation state. pressure_mode flips on the first pool-dry write and
  // turns on the paper's page-release heuristic for every warp;
  // pool_failure records that a write stayed dry through retries (so the
  // final error can say "pool pressure", not just "overflow"); degraded
  // records any in-run fallback (pressure measures, a lost child kernel
  // re-run inline). deferrals bounds pressure re-enqueues per run.
  std::atomic<bool> pressure_mode{false};
  std::atomic<bool> pool_failure{false};
  std::atomic<bool> degraded{false};
  std::atomic<int64_t> deferrals{0};

  int64_t OwnedEdgeIndex(int64_t j) const {
    return edge_offset + j * edge_stride;
  }
};

// ---------------------------------------------------------------------------
// Warp context + DFS loop
// ---------------------------------------------------------------------------

template <typename Stack>
class WarpRunner {
 public:
  WarpRunner(SharedState<Stack>* shared, Stack stack)
      : shared_(shared),
        graph_(*shared->graph),
        plan_(*shared->plan),
        config_(*shared->config),
        k_(shared->plan->num_vertices),
        stack_(std::move(stack)),
        size_(k_, 0),
        limit_(k_, 0),
        iter_(k_, 0),
        match_(k_, -1),
        leaf_scan_(LeafNeedsScan(*shared)) {}

  // Registers this warp's trace track (one timeline row per warp) and
  // routes the stack's page events through it. Called after construction,
  // once the warp's identity (resident index / child lane) is known; a
  // no-op when the job runs without a trace session.
  void InitObs(const std::string& track_name) {
    tracer_ = obs::WarpTracer(config_.trace, shared_->device_id, track_name,
                              &work_);
    // Tracing also turns on sampled wall-time attribution: intersection
    // dispatch charges (cell, arm) through the WorkCounter's sink.
    work_.attr = config_.trace != nullptr ? &attr_ : nullptr;
    if constexpr (std::is_same_v<Stack, PagedWarpStack>) {
      if (tracer_.enabled()) {
        stack_.SetTracer(&tracer_);
      }
    }
  }

  // Main resident-warp loop: drain the queue first, then initial chunks,
  // then steal (strategy-dependent), until the job is globally done.
  void ResidentLoop() {
    int idle_polls = 0;
    while (true) {
      bool did_work = false;
      // Queue-first scheduling keeps Q_task small (Section III); the
      // reversed priority is an ablation (bench/abl_queue_first).
      for (int attempt = 0; attempt < 2 && !did_work; ++attempt) {
        const bool try_queue = (attempt == 0) == config_.queue_first;
        if (try_queue) {
          if (config_.steal != StealStrategy::kTimeout) {
            continue;
          }
          Task task;
          if (shared_->queue->Dequeue(&task)) {
            ++local_.tasks_dequeued;
            tracer_.Event(obs::TraceEvent::kDequeue,
                          shared_->queue->ApproxSize());
            ObsAdopt(task.HasThird() ? 3 : 2);
            ProcessQueueTask(task);
            ObsTaskDone();
            shared_->work_items->fetch_sub(1, std::memory_order_acq_rel);
            did_work = true;
          }
        } else {
          int64_t begin = 0;
          int64_t end = 0;
          if (TakeChunk(&begin, &end)) {
            ObsAdopt(end - begin);
            ProcessChunk(begin, end);
            ObsTaskDone();
            shared_->work_items->fetch_sub(1, std::memory_order_acq_rel);
            did_work = true;
          }
        }
      }
      if (did_work) {
        idle_polls = 0;
        MaybePromoteSpilled();
        continue;
      }
      if (config_.steal == StealStrategy::kHalfSteal && TrySteal()) {
        idle_polls = 0;
        continue;
      }
      // Cross-shard steal tier: only once this shard's own queue and
      // cursor gave nothing this round does a warp pull from a sibling
      // shard's queue.
      if (shared_->exchange != nullptr &&
          config_.steal == StealStrategy::kTimeout &&
          TryCrossShardDequeue()) {
        idle_polls = 0;
        MaybePromoteSpilled();
        continue;
      }
      // An idle warp reads the clock itself: if every warp is waiting on
      // tokens no task will return, no DFS step is left to notice the
      // deadline for them.
      if (shared_->work_items->load(std::memory_order_acquire) == 0 ||
          DeadlinePassed()) {
        break;
      }
      // Spin-then-park adaptive backoff (see kIdleSpinPolls).
      if (shared_->c_idle_polls != nullptr) {
        lc_idle_polls_.Add();
      }
      if (idle_polls < kIdleSpinPolls) {
        ++idle_polls;
        std::this_thread::yield();
      } else {
        const int64_t park_ns =
            std::min(kIdleParkMaxNanos,
                     kIdleParkMinNanos << (idle_polls - kIdleSpinPolls));
        if (park_ns < kIdleParkMaxNanos) {
          ++idle_polls;
        }
        vgpu::Nanosleep(park_ns);
      }
    }
    Finish();
  }

  // Eager spill promotion (between tasks only, so a task always sees a
  // stable page mapping): migrate held spill pages back into arena pages
  // as other warps release them. Contents are copied, so live data — even
  // reuse sources — survives; work_units are untouched, keeping spilled
  // runs bit-identical to oversized-arena runs. Under Half Steal a thief
  // may be reading this stack, so promotion takes the same lock.
  void MaybePromoteSpilled() {
    if constexpr (std::is_same_v<Stack, PagedWarpStack>) {
      if (!config_.spill_to_host || stack_.SpillPagesHeld() == 0) {
        return;
      }
      if (config_.steal == StealStrategy::kHalfSteal) {
        std::lock_guard<std::mutex> lock(steal_mu_);
        stack_.PromoteSpilled();
      } else {
        stack_.PromoteSpilled();
      }
    }
  }

  // Child-kernel warp entry (New Kernel strategy): process a strided slice
  // of `candidates` at `level` below the prefix already in match_.
  void ChildSlice(int level, const std::vector<VertexId>& candidates,
                  int lane, int stride) {
    // Rebuild every reuse source up to and *including* `level`: positions
    // deeper than `level` may reuse stack[level] itself, which this warp
    // never extended (it iterates the handed-over candidate vector).
    // Child warps have no Q_task hand-off, so a dry pool here can only
    // poison the job (the escalation ladder in RunMatching recovers).
    const StackWrite sources = PopulateReuseSources(level + 1);
    const bool sources_ok = sources == StackWrite::kOk;
    if (!sources_ok) {
      MarkWriteFailure(sources);
    }
    ObsAdopt(static_cast<int64_t>(candidates.size()));
    SetBusy(2, level);
    for (size_t i = lane; sources_ok && i < candidates.size();
         i += static_cast<size_t>(stride)) {
      if (DeadlineHit()) {
        break;
      }
      const VertexId v = candidates[i];
      if (!Valid(level, v)) {
        continue;
      }
      LockedAssign(&match_[level], v);
      if (level + 1 == k_) {
        ++matches_;
      } else {
        ProcessSubtree(level + 1, /*extend_first=*/true,
                       /*decomposable=*/false);
      }
    }
    ClearBusy();
    ObsTaskDone();
    // Charge this ephemeral warp's dedicated stack to the job's footprint —
    // the per-kernel allocation cost of the New Kernel strategy.
    shared_->stack_bytes_total.fetch_add(StackMemoryBytes(),
                                         std::memory_order_relaxed);
    Finish();
  }

  // Thief entry: state already installed by StealFrom.
  void RunStolen(int base_level) {
    reuse_cache_valid_ = false;  // stolen state overwrote the stack
    tracer_.Event(obs::TraceEvent::kSteal, base_level);
    ObsAdopt(base_level);
    SetBusy(base_level, base_level);
    ProcessSubtree(base_level, /*extend_first=*/false,
                   /*decomposable=*/false);
    ClearBusy();
    ObsTaskDone();
    shared_->work_items->fetch_sub(1, std::memory_order_acq_rel);
    ++local_.steal_successes;
  }

  int64_t StackMemoryBytes() const { return stack_.MemoryBytes(); }

 private:
  // ---- observability ----

  // Brackets one adopted unit of work (chunk / queue task / child slice /
  // stolen slice): records the adopt event and, at ObsTaskDone, the work
  // units the task consumed into the task-duration histogram.
  void ObsAdopt(int64_t arg) {
    tracer_.Event(obs::TraceEvent::kAdopt, arg);
    adopt_work_ = work_.units;
  }

  void ObsTaskDone() {
    if (shared_->h_task_work != nullptr) {
      lh_task_work_.Observe(static_cast<int64_t>(work_.units - adopt_work_));
    }
  }

  // ---- clock ----

  void ResetClock() {
    if (config_.clock == ClockKind::kWall) {
      t0_ns_ = Timer::Now();
    } else {
      t0_work_ = work_.units;
    }
  }

  bool TimedOut() const {
    if (config_.clock == ClockKind::kWall) {
      return Timer::Now() - t0_ns_ >
             static_cast<int64_t>(config_.timeout_ms * 1e6);
    }
    return work_.units - t0_work_ > config_.timeout_work_units;
  }

  // ---- initial tasks ----

  bool TakeChunk(int64_t* begin, int64_t* end) {
    // Token first, so work_items can never read 0 while a chunk exists.
    shared_->work_items->fetch_add(1, std::memory_order_acq_rel);
    const int64_t total = shared_->num_owned_edges;
    const int64_t b =
        shared_->edge_cursor.fetch_add(config_.chunk_size,
                                       std::memory_order_acq_rel);
    if (b >= total) {
      shared_->work_items->fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    *begin = b;
    *end = std::min<int64_t>(b + config_.chunk_size, total);
    return true;
  }

  // Resolves the j-th owned initial task to a data edge.
  void OwnedEdge(int64_t j, VertexId* v0, VertexId* v1) const {
    int64_t edge_index;
    if (!shared_->host_filtered_edges.empty()) {
      edge_index = shared_->host_filtered_edges[j];
    } else {
      edge_index = shared_->OwnedEdgeIndex(j);
    }
    *v0 = graph_.EdgeSource(edge_index);
    *v1 = graph_.EdgeTarget(edge_index);
  }

  void ProcessChunk(int64_t begin, int64_t end) {
    SetBusy(2, 2);
    reuse_cache_valid_ = false;  // chunk processing overwrites stack[2]
    ResetClock();
    for (int64_t j = begin; j < end; ++j) {
      VertexId v0;
      VertexId v1;
      OwnedEdge(j, &v0, &v1);
      ++local_.edges_scanned;
      if (shared_->host_filtered_edges.empty() &&
          !PassesEdgeFilter(plan_, graph_, v0, v1,
                            config_.use_degree_filter)) {
        continue;
      }
      if (!PrefilterAdmitsEdge(config_.prefiltered, plan_.order[0],
                               plan_.order[1], v0, v1)) {
        continue;
      }
      ++local_.initial_tasks;
      if (k_ == 2) {
        ++matches_;
        if (shared_->sink != nullptr && !shared_->sink->Full()) {
          LockedAssign(&match_[0], v0);
          EmitMatch(v1);
        }
        continue;
      }
      LockedAssign(&match_[0], v0);
      LockedAssign(&match_[1], v1);
      const bool decomposable =
          config_.steal == StealStrategy::kTimeout && config_.stop_level >= 3;
      const SubtreeExit exit = ProcessSubtree(2, /*extend_first=*/true,
                                              decomposable, CanDefer());
      if (exit == SubtreeExit::kStackPressure) {
        // Pool dry before any candidate was consumed: hand the whole task
        // back to Q_task so another warp (or this one, later, after pages
        // have been freed) replays it from scratch. Exact because nothing
        // of this subtree was counted yet.
        if (!DeferTask(Task{v0, v1, kNoThirdVertex})) {
          MarkWriteFailure(StackWrite::kPoolExhausted);
        }
        continue;
      }
      if (exit == SubtreeExit::kDecomposed ||
          (config_.steal == StealStrategy::kTimeout && j + 1 < end &&
           TimedOut())) {
        // Timeout fired: flush the rest of this chunk into Q_task as
        // two-vertex tasks instead of processing it (Fig. 5). This is also
        // the only decomposition path when stop_level == 2.
        j = FlushChunkRemainder(j + 1, end);
      }
    }
    ClearBusy();
  }

  // Enqueues edges [from, end) as <v0, v1, -2> tasks. Returns the index of
  // the last edge handled (so the caller's loop resumes correctly if the
  // queue filled up and some edges must be processed in place).
  int64_t FlushChunkRemainder(int64_t from, int64_t end) {
    for (int64_t j = from; j < end; ++j) {
      VertexId v0;
      VertexId v1;
      OwnedEdge(j, &v0, &v1);
      ++local_.edges_scanned;
      if (shared_->host_filtered_edges.empty() &&
          !PassesEdgeFilter(plan_, graph_, v0, v1,
                            config_.use_degree_filter)) {
        continue;
      }
      if (!PrefilterAdmitsEdge(config_.prefiltered, plan_.order[0],
                               plan_.order[1], v0, v1)) {
        continue;
      }
      ++local_.initial_tasks;
      shared_->work_items->fetch_add(1, std::memory_order_acq_rel);
      if (!shared_->queue->Enqueue(Task{v0, v1, kNoThirdVertex})) {
        shared_->work_items->fetch_sub(1, std::memory_order_acq_rel);
        ++local_.queue_full_failures;
        // Queue full: process this edge in place with a fresh clock
        // (Alg. 4 lines 17-20) and let the loop continue enqueue attempts
        // on later timeouts.
        ResetClock();
        LockedAssign(&match_[0], v0);
        LockedAssign(&match_[1], v1);
        const SubtreeExit exit = ProcessSubtree(2, /*extend_first=*/true,
                                                config_.stop_level >= 3,
                                                CanDefer());
        if (exit == SubtreeExit::kStackPressure) {
          if (!DeferTask(Task{v0, v1, kNoThirdVertex})) {
            MarkWriteFailure(StackWrite::kPoolExhausted);
          }
          continue;
        }
        if (exit == SubtreeExit::kDecomposed) {
          continue;  // decomposed again; keep flushing the rest
        }
      } else {
        ++local_.tasks_enqueued;
        tracer_.Event(obs::TraceEvent::kEnqueue,
                      shared_->queue->ApproxSize());
      }
    }
    return end;
  }

  void ProcessQueueTask(const Task& task) {
    SetBusy(2, 2);
    ResetClock();
    LockedAssign(&match_[0], task.v1);
    LockedAssign(&match_[1], task.v2);
    if (!task.HasThird()) {
      reuse_cache_valid_ = false;  // this path overwrites stack[2]
      const bool decomposable =
          config_.steal == StealStrategy::kTimeout && config_.stop_level >= 3;
      if (ProcessSubtree(2, /*extend_first=*/true, decomposable,
                         CanDefer()) == SubtreeExit::kStackPressure) {
        if (!DeferTask(task)) {
          MarkWriteFailure(StackWrite::kPoolExhausted);
        }
      }
      ClearBusy();
      return;
    }
    // Three matched vertices: not decomposable any further (the StopLevel
    // rule). The task's v3 is a raw candidate for position 2; re-apply the
    // consume checks, and rebuild any level-2 reuse source it bypassed.
    // Decomposed siblings share (v1, v2) and FIFO order keeps them mostly
    // contiguous per warp, so the rebuild is memoized on that pair —
    // without this, a straggler split into thousands of tasks recomputes
    // the same (possibly hub-sized) intersection thousands of times. The
    // memo saves wall time only: a hit charges the units the rebuild
    // charged, so work_units do not depend on which warp adopted which
    // sibling.
    TDFS_CHECK(k_ > 3);
    if (reuse_cache_valid_ && reuse_cache_v0_ == task.v1 &&
        reuse_cache_v1_ == task.v2) {
      work_.Add(reuse_cache_units_);
    } else {
      reuse_cache_valid_ = false;  // rebuild in flight: don't trust on retry
      const uint64_t units_before = work_.units;
      if (const StackWrite w = PopulateReuseSources(3);
          w != StackWrite::kOk) {
        // The rebuild itself ran dry. Nothing of this task was consumed
        // yet, so it can be deferred whole.
        if (!(w == StackWrite::kPoolExhausted && DeferTask(task))) {
          MarkWriteFailure(w);
        }
        ClearBusy();
        return;
      }
      reuse_cache_valid_ = true;
      reuse_cache_v0_ = task.v1;
      reuse_cache_v1_ = task.v2;
      reuse_cache_units_ = work_.units - units_before;
    }
    if (Valid(2, task.v3)) {
      LockedAssign(&match_[2], task.v3);
      if (ProcessSubtree(3, /*extend_first=*/true, /*decomposable=*/false,
                         CanDefer()) == SubtreeExit::kStackPressure) {
        if (!DeferTask(task)) {
          MarkWriteFailure(StackWrite::kPoolExhausted);
        }
      }
    }
    ClearBusy();
  }

  // ---- DFS core ----

  // kStackPressure: the base extension found the page pool dry before any
  // candidate was consumed; the caller may defer the task instead of
  // poisoning the job (only returned when `deferrable`).
  enum class SubtreeExit { kDone, kDecomposed, kStackPressure };

  // Slow path of match collection: reorder the completed match from plan
  // positions to query-vertex order and hand it to the sink.
  void EmitMatch(VertexId last) {
    std::vector<VertexId> by_query_vertex(k_);
    for (int p = 0; p < k_ - 1; ++p) {
      by_query_vertex[plan_.order[p]] = match_[p];
    }
    by_query_vertex[plan_.order[k_ - 1]] = last;
    shared_->sink->Add(std::span<const VertexId>(by_query_vertex));
  }

  // Deadline probe: a relaxed flag read per call, an actual clock read
  // every 1024 calls. Returns true once the job's time budget is gone.
  bool DeadlineHit() {
    if (shared_->deadline_ns == 0) {
      return false;
    }
    if ((++deadline_probe_ & 0x3FF) == 0) {
      return DeadlinePassed();
    }
    return shared_->Expired();
  }

  // Reads the clock; once the deadline has passed, raises the sticky job
  // (and exchange) flags so every warp unwinds. Returns Expired().
  bool DeadlinePassed() {
    if (shared_->deadline_ns != 0 && Timer::Now() > shared_->deadline_ns) {
      if (!shared_->Expired()) {
        tracer_.Event(obs::TraceEvent::kDeadlineFire);
      }
      shared_->expired.store(true, std::memory_order_relaxed);
      if (shared_->exchange != nullptr) {
        shared_->exchange->expired.store(true, std::memory_order_relaxed);
      }
    }
    return shared_->Expired();
  }

  // Consume-time candidate checks (injectivity, symmetry restrictions,
  // degree filter). One work unit per check, matching the single scan a
  // warp lane performs.
  bool Valid(int pos, VertexId v) {
    work_.Add(1);
    return Admits(pos, v);
  }

  bool Admits(int pos, VertexId v) const {
    return PrefilterAdmits(config_.prefiltered, plan_.order[pos], v) &&
           PassesConsumeChecks(plan_, graph_, match_.data(), pos, v,
                               config_.use_degree_filter,
                               config_.delta_edges);
  }

  // True when the last position needs a per-candidate check: matches are
  // emitted one by one, or some check depends on more than a candidate's
  // id. Degree is implied when min_degree <= |backward|: every candidate
  // lies in the adjacency of each (distinct) backward match.
  static bool LeafNeedsScan(const SharedState<Stack>& shared) {
    const MatchPlan& plan = *shared.plan;
    const EngineConfig& config = *shared.config;
    const int last = plan.num_vertices - 1;
    return shared.sink != nullptr || config.prefiltered != nullptr ||
           plan.induced ||
           (config.delta_edges != nullptr && !plan.delta_forbidden.empty() &&
            !plan.delta_forbidden[last].empty()) ||
           (config.use_degree_filter &&
            plan.min_degree[last] >
                static_cast<int>(plan.backward[last].size()));
  }

  // Counts (and, with a sink, emits) the valid candidates among the first
  // `limit` stored at the last position. Charges one unit per candidate,
  // as a Valid() scan does, but reads the sorted level as one span: the
  // symmetry restrictions cut it to a window by binary search, and
  // injectivity removes the matched vertices found in that window (at
  // most k-1, each distinct). Only the checks listed in LeafNeedsScan
  // visit candidates one by one, and then only inside the window.
  uint64_t CountLeaf(int64_t limit) {
    const int pos = k_ - 1;
    work_.Add(static_cast<uint64_t>(limit));
    const VertexSpan cands = stack_.StoredLevel(pos, limit, &scratch_.base);
    auto first = cands.begin();
    auto last = cands.end();
    for (int j : plan_.greater_than[pos]) {
      first = std::upper_bound(first, last, match_[j]);
    }
    for (int j : plan_.smaller_than[pos]) {
      last = std::lower_bound(first, last, match_[j]);
    }
    if (leaf_scan_) {
      uint64_t found = 0;
      for (auto it = first; it != last; ++it) {
        if (Admits(pos, *it)) {
          ++found;
          if (shared_->sink != nullptr && !shared_->sink->Full()) {
            EmitMatch(*it);
          }
        }
      }
      return found;
    }
    uint64_t found = static_cast<uint64_t>(last - first);
    for (int j = 0; j < pos && found > 0; ++j) {
      found -= std::binary_search(first, last, match_[j]);
    }
    return found;
  }

  // Computes candidates of `level` into stack_[level]. Returns kOk, or the
  // write failure after pressure recovery (release + bounded retries) was
  // exhausted; the *caller* decides whether a failure poisons the job
  // (MarkWriteFailure) or the task can be deferred instead.
  StackWrite ExtendLevel(int level) {
    // Sampled per-cell wall time: count every extension, time 1 in 64.
    // attr_cell stays set for the whole extension so nested dispatch
    // calls charge their arm time to this cell.
    TimeAttributionSink* const attr = work_.attr;
    int64_t attr_t0 = 0;
    bool attr_sampled = false;
    if (attr != nullptr) {
      work_.attr_cell = level;
      ++attr->cell_calls[TimeAttributionSink::CellSlot(level)];
      attr_sampled =
          (attr->cell_tick++ & TimeAttributionSink::kSampleMask) == 0;
      if (attr_sampled) {
        attr_t0 = Timer::Now();
      }
    }
    cand_.clear();
    const int src = plan_.reuse_source[level];
    if (src >= 0) {
      tracer_.Event(obs::TraceEvent::kReuseHit, level);
      // Fig. 7 reuse: start from the stored candidates of `src`, read as a
      // span — in place within one page, gathered (unmetered) across
      // pages — rather than copied out element by element.
      const std::vector<int>& rest = plan_.reuse_rest[level];
      const VertexSpan stored =
          stack_.StoredLevel(src, size_[src], &scratch_.base);
      if (rest.empty()) {
        // Identical backward sets: the result *is* the stored level.
        cand_.assign(stored.begin(), stored.end());
        work_.Add(stored.size());
      } else {
        auto rest_list = [this, level](int backward_pos) {
          return BackwardNeighborList(graph_, shared_->index.get(),
                                      match_[backward_pos],
                                      plan_.label_filter[level], &work_);
        };
        // Bitmaps are keyed the way the spans are fetched: per label
        // bucket behind the index, full CSR rows otherwise.
        const Label lookup_label = shared_->index != nullptr
                                       ? plan_.label_filter[level]
                                       : kNoLabel;
        const IntersectDispatch& isect = shared_->steps.At(level);
        IntersectStoredBase(isect, stored, rest_list(rest[0]),
                            match_[rest[0]], lookup_label, &cand_, &work_);
        for (size_t l = 1; l < rest.size(); ++l) {
          scratch_.b.clear();
          isect.Auto(VertexSpan(cand_), rest_list(rest[l]),
                     match_[rest[l]], lookup_label, &scratch_.b,
                     &work_);
          std::swap(cand_, scratch_.b);
          if (cand_.empty()) {
            break;
          }
        }
      }
      // Stored levels are already label-filtered; intersecting keeps that.
    } else {
      ComputeCandidates(graph_, shared_->index.get(), plan_, match_.data(),
                        level, shared_->steps.At(level), &scratch_, &cand_,
                        &work_);
    }
    const std::vector<VertexId>* final_cands = &cand_;
    if (config_.separate_vertex_removal) {
      // STMatch's extra pass: remove already-matched vertices with an
      // independent set-difference (Section IV-B calls this out as the
      // costly implementation choice).
      removal_scratch_.assign(match_.begin(), match_.begin() + level);
      std::sort(removal_scratch_.begin(), removal_scratch_.end());
      diff_scratch_.clear();
      DifferenceMerge(VertexSpan(cand_), VertexSpan(removal_scratch_),
                      &diff_scratch_, &work_);
      final_cands = &diff_scratch_;
    }
    // Publish content, size, and a reset iterator in one critical section:
    // with Half Steal a thief must never observe a size that disagrees with
    // the stored content (this per-extension lock hold is the very
    // contention the strategy comparison measures).
    std::unique_lock<std::mutex> lock(steal_mu_, std::defer_lock);
    if (config_.steal == StealStrategy::kHalfSteal) {
      lock.lock();
    }
    // Page runs: one copy per page. A dry pool can only stop a run at a
    // page's first element (held pages never fail), so recovery runs at
    // most once per page; its retry stores that element, and the run
    // resumes after it. A failure truncates the level at `n`.
    const VertexSpan values(*final_cands);
    int64_t n = 0;
    StackWrite failure = StackWrite::kOk;
    while (true) {
      const LevelWrite run = stack_.WriteLevel(level, values.subspan(n), n);
      n += run.written;
      StackWrite w = run.status;
      if (w == StackWrite::kOk) {
        break;
      }
      if (w == StackWrite::kPoolExhausted) {
        w = RecoverPoolExhaustion(level, n, values[n]);
      }
      if (w != StackWrite::kOk) {
        failure = w;
        break;
      }
      ++n;
    }
    size_[level] = n;
    limit_[level] = n;
    iter_[level] = 0;
    work_.Add(static_cast<uint64_t>(n));
    if (shared_->h_isect_size != nullptr) {
      lh_isect_size_.Observe(n);
    }
    if constexpr (std::is_same_v<Stack, PagedWarpStack>) {
      if (config_.release_stack_pages ||
          shared_->pressure_mode.load(std::memory_order_relaxed)) {
        stack_.MaybeShrinkLevel(level, n);
      }
    }
    if (attr != nullptr) {
      const int slot = TimeAttributionSink::CellSlot(level);
      if (attr_sampled) {
        attr->cell_ns[slot] += static_cast<uint64_t>(Timer::Now() - attr_t0);
        ++attr->cell_sampled[slot];
      }
      work_.attr_cell = -1;
    }
    return failure;
  }

  // A paged-stack write found the shared pool dry. Degrade instead of
  // giving up: flip the job into pressure mode (which switches on the
  // paper's page-release heuristic everywhere), return this warp's own
  // dead pages — levels deeper than the one being extended hold stale
  // candidates that the next descent recomputes anyway, and live levels
  // may have sparse tails — then retry the write with doubling backoff
  // while other warps release pages. Called from ExtendLevel's publication
  // section, so under Half Steal the victim lock is already held.
  StackWrite RecoverPoolExhaustion(int level, int64_t pos, VertexId v) {
    shared_->pressure_mode.store(true, std::memory_order_relaxed);
    shared_->degraded.store(true, std::memory_order_relaxed);
    if (shared_->stack_overflow.load(std::memory_order_relaxed)) {
      // The job is already poisoned; recovery cannot un-poison it, so
      // don't burn backoff time on every subsequent write.
      return StackWrite::kPoolExhausted;
    }
    if constexpr (std::is_same_v<Stack, PagedWarpStack>) {
      int64_t released = 0;
      for (int s = level + 1; s < k_; ++s) {
        released += stack_.ReleaseLevel(s);
      }
      for (int s = 2; s < level; ++s) {
        released += stack_.MaybeShrinkLevel(s, size_[s]);
      }
      local_.pressure_pages_released += released;
      int64_t backoff = config_.pressure_backoff_ns;
      for (int attempt = 0; attempt < config_.pressure_max_retries;
           ++attempt) {
        ++local_.pressure_retries;
        const StackWrite w = stack_.TrySet(level, pos, v);
        if (w != StackWrite::kPoolExhausted) {
          return w;
        }
        if (DeadlineHit()) {
          break;
        }
        vgpu::Nanosleep(backoff);
        if (backoff < config_.pressure_backoff_ns * 64) {
          backoff *= 2;
        }
      }
    }
    return StackWrite::kPoolExhausted;
  }

  // A stack write failed for good: poison the job (sticky), recording
  // whether the cause was pool pressure so the final status says so.
  void MarkWriteFailure(StackWrite why) {
    shared_->stack_overflow.store(true, std::memory_order_relaxed);
    if (why == StackWrite::kPoolExhausted) {
      shared_->pool_failure.store(true, std::memory_order_relaxed);
    }
  }

  // True when stack-pressure task deferral is available at all.
  bool CanDefer() const {
    return config_.steal == StealStrategy::kTimeout &&
           shared_->queue != nullptr && config_.pressure_max_deferrals > 0;
  }

  // Re-enqueues a task whose root extension found the pool dry (nothing
  // of the task has been consumed, so replaying it later is exact).
  // Returns false when deferral is unavailable, over budget, or the queue
  // is full — the caller then poisons the job as before.
  bool DeferTask(const Task& task) {
    if (!CanDefer()) {
      return false;
    }
    if (shared_->deferrals.fetch_add(1, std::memory_order_acq_rel) >=
        config_.pressure_max_deferrals) {
      return false;
    }
    shared_->work_items->fetch_add(1, std::memory_order_acq_rel);
    if (!shared_->queue->Enqueue(task)) {
      shared_->work_items->fetch_sub(1, std::memory_order_acq_rel);
      ++local_.queue_full_failures;
      return false;
    }
    ++local_.tasks_enqueued;  // keeps enqueued == dequeued at job end
    ++local_.deferred_tasks;
    tracer_.Event(obs::TraceEvent::kEnqueue, shared_->queue->ApproxSize());
    return true;
  }

  // Iterative backtracking from `base` (Alg. 2 with the Alg. 4 additions).
  // Precondition: match_[0..base) set; when !extend_first, stack_[base]
  // already holds candidates with iter_[base] positioned.
  SubtreeExit ProcessSubtree(int base, bool extend_first, bool decomposable,
                             bool deferrable = false) {
    int level = base;
    if (extend_first) {
      const StackWrite w = ExtendLevel(level);  // also resets iter_[level]
      if (w != StackWrite::kOk) {
        if (w == StackWrite::kPoolExhausted && deferrable) {
          // Nothing of this subtree has been consumed yet; hand the whole
          // task back to the caller for deferral.
          return SubtreeExit::kStackPressure;
        }
        // Keep the seed semantics: process the truncated level (the job is
        // poisoned, so the partial count is discarded either way).
        MarkWriteFailure(w);
      }
    }
    LockedAssign(&current_level_, level);
    while (true) {
      if (DeadlineHit()) {
        return SubtreeExit::kDone;  // abandon; job reports the deadline
      }
      if (level == k_ - 1) {
        // Last position: count valid candidates without descending.
        // (Thieves never window the last level — high caps at k-2 — so
        // one locked read of the bound suffices.)
        matches_ += CountLeaf(LockedReadLimit(level));
        --level;
        if (level < base) {
          return SubtreeExit::kDone;
        }
        LockedAssign(&current_level_, level);
        LockedIncrement(&iter_[level]);
        continue;
      }
      if (iter_[level] >= LockedReadLimit(level)) {
        --level;
        if (level < base) {
          return SubtreeExit::kDone;
        }
        LockedAssign(&current_level_, level);
        LockedIncrement(&iter_[level]);
        continue;
      }
      const VertexId v = stack_.Get(level, iter_[level]);
      if (!Valid(level, v)) {
        LockedIncrement(&iter_[level]);
        continue;
      }
      if (decomposable && level == 2 && TimedOut()) {
        if (EnqueueRemainingLevel2()) {
          ++local_.timeout_splits;
          tracer_.Event(obs::TraceEvent::kTimeoutSplit, level);
          obs::Observe(shared_->h_split_depth, level);
          return SubtreeExit::kDecomposed;
        }
        // Queue full: the failed candidate is back under iter_[2]; restore
        // regular backtracking with a fresh clock (Alg. 4 lines 17-20) and
        // re-enter the loop so it is processed in place.
        ResetClock();
        continue;
      }
      LockedAssign(&match_[level], v);
      ++level;
      // Mid-subtree, candidates above have been consumed already, so a
      // failed extension cannot be deferred — truncate and poison.
      if (const StackWrite w = ExtendLevel(level); w != StackWrite::kOk) {
        MarkWriteFailure(w);
      }
      LockedAssign(&current_level_, level);
      if (config_.steal == StealStrategy::kNewKernel && level < k_ - 1 &&
          size_[level] >= config_.newkernel_fanout_threshold) {
        if (SpawnChildKernel(level)) {
          // The child kernel owns every candidate of this level; backtrack.
          LockedAssign(&iter_[level], size_[level]);
        }
      }
    }
  }

  // Turns the remaining level-2 candidates (iter_[2] onward) into
  // <v0, v1, c> tasks. Returns false if the queue filled up (caller
  // resumes in-place processing).
  bool EnqueueRemainingLevel2() {
    while (iter_[2] < LockedReadLimit(2)) {
      const VertexId c = stack_.Get(2, iter_[2]);
      LockedIncrement(&iter_[2]);
      if (!Valid(2, c)) {
        continue;
      }
      shared_->work_items->fetch_add(1, std::memory_order_acq_rel);
      if (!shared_->queue->Enqueue(Task{match_[0], match_[1], c})) {
        shared_->work_items->fetch_sub(1, std::memory_order_acq_rel);
        ++local_.queue_full_failures;
        // Undo the advance so the caller processes c in place.
        LockedAssign(&iter_[2], iter_[2] - 1);
        return false;
      }
      ++local_.tasks_enqueued;
      tracer_.Event(obs::TraceEvent::kEnqueue, shared_->queue->ApproxSize());
    }
    return true;
  }

  // Recomputes stack levels in [2, upto) that later positions reuse
  // (needed when a warp starts from a prefix it did not extend itself:
  // dequeued 3-vertex tasks, child-kernel slices). Ascending order and a
  // "reused by anyone deeper" condition make the population transitive:
  // a reuse source whose own extension reuses an earlier level finds that
  // level already rebuilt. Stops at the first failed rebuild — a stale
  // reuse source must never be intersected against.
  StackWrite PopulateReuseSources(int upto) {
    for (int s = 2; s < upto; ++s) {
      bool needed = false;
      for (int j = s + 1; j < k_ && !needed; ++j) {
        needed = plan_.reuse_source[j] == s;
      }
      if (needed) {
        if (const StackWrite w = ExtendLevel(s); w != StackWrite::kOk) {
          return w;
        }
      }
    }
    return StackWrite::kOk;
  }

  // ---- New Kernel strategy ----

  // Resident child kernels per job; beyond it subtrees are processed in
  // place.
  static constexpr int kMaxConcurrentChildKernels = 16;

  bool SpawnChildKernel(int level) {
    if (shared_->kernel_budget.fetch_sub(1, std::memory_order_acq_rel) <=
        0) {
      shared_->kernel_budget.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Bound *resident* kernels as the device would; this also keeps the
    // ephemeral child stacks from draining the shared page pool.
    if (shared_->kernels_active.fetch_add(1, std::memory_order_acq_rel) >=
        kMaxConcurrentChildKernels) {
      shared_->kernels_active.fetch_sub(1, std::memory_order_relaxed);
      shared_->kernel_budget.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    shared_->work_items->fetch_add(1, std::memory_order_acq_rel);
    auto prefix = std::make_shared<std::vector<VertexId>>(
        match_.begin(), match_.begin() + level);
    const VertexSpan stored =
        stack_.StoredLevel(level, size_[level], &scratch_.base);
    auto candidates =
        std::make_shared<std::vector<VertexId>>(stored.begin(), stored.end());
    ++local_.kernels_launched;
    local_.child_warps_launched += config_.newkernel_child_warps;
    SharedState<Stack>* shared = shared_;
    const int child_warps = config_.newkernel_child_warps;
    const int64_t overhead = config_.newkernel_launch_overhead_ns;
    const int32_t child_seq =
        shared_->child_track_seq.fetch_add(1, std::memory_order_relaxed);
    std::thread t([shared, prefix, candidates, level, child_warps,
                   overhead, child_seq] {
      const bool launched = vgpu::LaunchKernel(
          child_warps,
          [shared, prefix, candidates, level, child_warps,
           child_seq](int lane) {
            // Every child warp allocates a fresh stack — the per-kernel
            // memory cost the paper charges this strategy with.
            WarpRunner<Stack> child(shared, MakeStack(*shared));
            child.InitObs("child" + std::to_string(child_seq) + "-w" +
                          std::to_string(lane));
            std::copy(prefix->begin(), prefix->end(), child.match_.begin());
            child.ChildSlice(level, *candidates, lane, child_warps);
          },
          &shared->launch_stats, overhead, shared->config->trace,
          shared->device_id);
      if (!launched) {
        // Launch failure (injected device fault). The subtree was already
        // handed off, so losing it would lose counts — run it inline with
        // a single recovery warp instead. Slower, never wrong.
        shared->degraded.store(true, std::memory_order_relaxed);
        WarpRunner<Stack> solo(shared, MakeStack(*shared));
        solo.InitObs("recover" + std::to_string(child_seq));
        std::copy(prefix->begin(), prefix->end(), solo.match_.begin());
        solo.ChildSlice(level, *candidates, 0, 1);
      }
      shared->kernels_active.fetch_sub(1, std::memory_order_acq_rel);
      shared->work_items->fetch_sub(1, std::memory_order_acq_rel);
    });
    std::lock_guard<std::mutex> lock(shared_->child_threads_mu);
    shared_->child_threads.push_back(std::move(t));
    return true;
  }

  // ---- Half Steal strategy ----

  // Per-warp steal randomness, lazily seeded from the warp's identity
  // (self_index_ is assigned after construction). Only steal-victim
  // selection consumes it, so counts stay exact regardless of order.
  uint64_t NextStealRand() {
    if (steal_rng_state_ == 0) {
      steal_rng_state_ =
          0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(self_index_) + 1) +
          static_cast<uint64_t>(shared_->device_id) + 1;
    }
    SplitMix64 mix(steal_rng_state_);
    const uint64_t r = mix();
    steal_rng_state_ = r | 1;  // keep the lazy-seed sentinel unreachable
    return r;
  }

  // Thieves probe victims from a randomized start. A fixed linear scan
  // from self_index_+1 makes every idle thief converge on the same victim
  // (convoying: all locks pile onto warp 0's successor); the random start
  // spreads probe traffic across the pool.
  bool TrySteal() {
    ++local_.steal_attempts;
    const int n = static_cast<int>(shared_->warps.size());
    if (n <= 1) {
      return false;
    }
    const int start =
        static_cast<int>(NextStealRand() % static_cast<uint64_t>(n));
    for (int offset = 0; offset < n; ++offset) {
      WarpRunner<Stack>* victim = shared_->warps[(start + offset) % n].get();
      if (victim == this) {
        continue;
      }
      ++local_.steal_probes;
      lc_steal_probes_.Add();
      if (StealFrom(victim)) {
        return true;
      }
    }
    return false;
  }

  // ---- cross-shard steal tier (sharded runs only) ----

  // Pulls one task from a sibling shard's queue, randomized scan start.
  // The adopted task runs against THIS shard's view (non-local adjacency
  // resolves through the halo or a remote fetch, so the subtree's work is
  // identical to the owner processing it), and any tasks it spawns —
  // timeout splits, pressure deferrals — go to this shard's own queue.
  // Tokens are conserved because the work-token count spans all shards.
  bool TryCrossShardDequeue() {
    auto* ex = shared_->exchange;
    const int num = ex->num_shards;
    if (num <= 1) {
      return false;
    }
    const int start =
        static_cast<int>(NextStealRand() % static_cast<uint64_t>(num));
    for (int k = 0; k < num; ++k) {
      const int s = (start + k) % num;
      if (s == shared_->shard_id) {
        continue;
      }
      TaskQueue* queue = ex->queues[static_cast<size_t>(s)];
      if (queue == nullptr) {
        continue;
      }
      Task task;
      if (queue->Dequeue(&task)) {
        ++local_.tasks_dequeued;
        ++local_.shard_cross_steals;
        tracer_.Event(obs::TraceEvent::kDequeue, queue->ApproxSize());
        ObsAdopt(task.HasThird() ? 3 : 2);
        ProcessQueueTask(task);
        ObsTaskDone();
        shared_->work_items->fetch_sub(1, std::memory_order_acq_rel);
        return true;
      }
    }
    return false;
  }

  bool StealFrom(WarpRunner<Stack>* victim) {
    std::unique_lock<std::mutex> lock(victim->steal_mu_);
    if (!victim->busy_) {
      return false;
    }
    const int low = std::max(victim->busy_base_, 2);
    const int high = std::min(victim->current_level_, k_ - 2);
    for (int level = low; level <= high; ++level) {
      const int64_t remaining =
          victim->limit_[level] - victim->iter_[level] - 1;
      if (remaining < 1) {
        continue;
      }
      const int64_t take = (remaining + 1) / 2;
      const int64_t mid = victim->limit_[level] - take;
      // Copy the path prefix and the stack levels up to and including the
      // stolen one *in full* (deeper positions may reuse any of them as an
      // intersection base), then window the stolen level to its tail via
      // iter/limit. This copy — performed while holding the victim's lock,
      // with the victim blocked on its own stack — is the cost the paper
      // attributes to Half Steal. A copy the thief's pool cannot hold
      // abandons the steal before any window moves: the victim keeps all
      // of its work.
      for (int s = 2; s <= level; ++s) {
        const VertexSpan stored =
            victim->stack_.StoredLevel(s, victim->size_[s], &scratch_.base);
        if (stack_.WriteLevel(s, stored).status != StackWrite::kOk) {
          return false;
        }
      }
      std::copy(victim->match_.begin(), victim->match_.begin() + level,
                match_.begin());
      for (int s = 2; s <= level; ++s) {
        size_[s] = victim->size_[s];
        work_.Add(static_cast<uint64_t>(victim->size_[s]));
      }
      iter_[level] = mid;                     // thief takes [mid, limit)
      limit_[level] = victim->limit_[level];
      victim->limit_[level] = mid;            // victim keeps [iter, mid)
      lock.unlock();
      shared_->work_items->fetch_add(1, std::memory_order_acq_rel);
      RunStolen(level);
      return true;
    }
    return false;
  }

  // Victim-side mutation guards: with Half Steal enabled every touch of
  // iter_/size_/match_/current_level_ locks the warp's own stack mutex —
  // the overhead STMatch pays on every DFS step (Section II, Fig. 2).
  template <typename T>
  void LockedAssign(T* slot, T value) {
    if (config_.steal == StealStrategy::kHalfSteal) {
      std::lock_guard<std::mutex> lock(steal_mu_);
      *slot = value;
    } else {
      *slot = value;
    }
  }

  void LockedIncrement(int64_t* slot) {
    if (config_.steal == StealStrategy::kHalfSteal) {
      std::lock_guard<std::mutex> lock(steal_mu_);
      ++*slot;
    } else {
      ++*slot;
    }
  }

  // The one field a thief *writes* into a victim is limit_; the victim
  // must therefore read it under its own lock (everything else is either
  // self-written or only read by thieves).
  int64_t LockedReadLimit(int level) {
    if (config_.steal == StealStrategy::kHalfSteal) {
      std::lock_guard<std::mutex> lock(steal_mu_);
      return limit_[level];
    }
    return limit_[level];
  }

  void SetBusy(int base, int level) {
    if (config_.steal != StealStrategy::kHalfSteal) {
      busy_ = true;
      busy_base_ = base;
      current_level_ = level;
      return;
    }
    std::lock_guard<std::mutex> lock(steal_mu_);
    busy_ = true;
    busy_base_ = base;
    current_level_ = level;
  }

  void ClearBusy() {
    if (config_.steal != StealStrategy::kHalfSteal) {
      busy_ = false;
      return;
    }
    std::lock_guard<std::mutex> lock(steal_mu_);
    busy_ = false;
  }

  // ---- teardown ----

  void Finish() {
    // Release stack pages before the clock below is folded away and
    // zeroed, so the page_release trace event carries the warp's final
    // timestamp instead of 0 from the destructor (which would break the
    // per-track monotonicity the exporter guarantees).
    if constexpr (std::is_same_v<Stack, PagedWarpStack>) {
      if (tracer_.enabled()) {
        stack_.ReleaseAll();
        stack_.SetTracer(nullptr);
      }
    }
    shared_->matches.fetch_add(matches_, std::memory_order_relaxed);
    matches_ = 0;
    local_.work_units += work_.units;
    work_.units = 0;
    // Each warp context finishes exactly once, so its lifetime total is
    // the per-warp figure the makespan metric maximizes over.
    local_.max_warp_work_units = local_.work_units;
    std::lock_guard<std::mutex> lock(shared_->counters_mu);
    shared_->counters.MergeFrom(local_);
    local_ = RunCounters{};
    if (work_.attr != nullptr) {
      shared_->attr.MergeFrom(attr_);
      attr_ = TimeAttributionSink{};
      work_.attr = nullptr;
    }
    // Warp-local metric buffers drain into the shared handles exactly
    // once: per-event recording stays free of cross-warp cache traffic.
    lh_task_work_.FlushTo(shared_->h_task_work);
    lh_isect_size_.FlushTo(shared_->h_isect_size);
    lc_idle_polls_.FlushTo(shared_->c_idle_polls);
    lc_steal_probes_.FlushTo(shared_->c_steal_probes);
  }

 public:
  static Stack MakeStack(SharedState<Stack>& shared);

  int self_index_ = 0;

 private:
  SharedState<Stack>* shared_;
  const Graph& graph_;
  const MatchPlan& plan_;
  const EngineConfig& config_;
  const int k_;

  Stack stack_;
  // size_ = stored candidate count (the content, used as a reuse base);
  // limit_ = iteration bound (window end). They differ only when a thief
  // has taken the tail [limit_, size_-original) of a level: stealing moves
  // the window but must never truncate the content, because deeper
  // positions intersect against the full set (Fig. 7 reuse).
  std::vector<int64_t> size_;
  std::vector<int64_t> limit_;
  std::vector<int64_t> iter_;
  std::vector<VertexId> match_;
  // The last position needs per-candidate checks (see LeafNeedsScan).
  const bool leaf_scan_;

  CandidateScratch scratch_;
  std::vector<VertexId> cand_;
  std::vector<VertexId> removal_scratch_;
  std::vector<VertexId> diff_scratch_;

  WorkCounter work_;
  uint64_t matches_ = 0;
  RunCounters local_;
  TimeAttributionSink attr_;  // referenced by work_.attr when tracing

  obs::WarpTracer tracer_;   // disabled unless InitObs ran with a session
  uint64_t adopt_work_ = 0;  // work_.units at the last ObsAdopt
  // Warp-local mirrors of the shared trace metrics (see Finish).
  obs::LocalHistogram lh_task_work_;
  obs::LocalHistogram lh_isect_size_;
  obs::LocalCounter lc_idle_polls_;
  obs::LocalCounter lc_steal_probes_;

  // Steal-victim randomization state; 0 = not yet seeded (NextStealRand).
  uint64_t steal_rng_state_ = 0;

  int64_t t0_ns_ = 0;
  uint64_t t0_work_ = 0;
  uint32_t deadline_probe_ = 0;

  // Memo for the level-2 reuse-source rebuild of 3-vertex queue tasks.
  bool reuse_cache_valid_ = false;
  VertexId reuse_cache_v0_ = -1;
  VertexId reuse_cache_v1_ = -1;
  uint64_t reuse_cache_units_ = 0;  // work the memoized rebuild charged

  // Half-steal visibility.
  std::mutex steal_mu_;
  bool busy_ = false;
  int busy_base_ = 2;
  int current_level_ = 2;
};

template <>
PagedWarpStack WarpRunner<PagedWarpStack>::MakeStack(
    SharedState<PagedWarpStack>& shared) {
  return PagedWarpStack(shared.allocator, shared.plan->num_vertices);
}

template <>
ArrayWarpStack WarpRunner<ArrayWarpStack>::MakeStack(
    SharedState<ArrayWarpStack>& shared) {
  const int64_t capacity =
      shared.config->stack == StackKind::kArrayFixed
          ? shared.config->fixed_stack_capacity
          : std::max<int64_t>(shared.graph->MaxDegree(), 1);
  return ArrayWarpStack(shared.plan->num_vertices, capacity);
}

// ---------------------------------------------------------------------------
// Job driver
// ---------------------------------------------------------------------------

template <typename Stack>
RunResult RunDfsEngineT(const Graph& graph, const MatchPlan& plan,
                        const EngineConfig& config, int device_id,
                        MatchSink* sink) {
  RunResult result;
  if (TDFS_INJECT_FAILURE("device_run")) {
    // Whole-device fault (the model for a device falling off the bus or a
    // kernel aborting): fail before any work so RunMatching's failover can
    // re-execute this edge slice elsewhere.
    result.status = Status::Internal("injected device failure (device " +
                                     std::to_string(device_id) + ")");
    result.counters.failpoint_fires = 1;  // fired before the run's snapshot
    return result;
  }
  const int64_t failpoint_fires_before = fail::TotalFires();
  SharedState<Stack> shared;
  shared.graph = &graph;
  shared.plan = &plan;
  shared.config = &config;
  shared.device_id = device_id;
  shared.sink = sink;
  if (config.shard_id >= 0) {
    // Sharded run: this engine owns shard_id's view, whose CSR already
    // holds exactly the shard's owned edges (offset 0 / stride 1 covers
    // them all; device_id only names spans and trace tracks). Work tokens
    // live on the job-global exchange counter so routed tasks and
    // cross-shard steals keep the termination protocol exact.
    shared.shard_id = config.shard_id;
    shared.edge_offset = 0;
    shared.edge_stride = 1;
    if (config.shard_exchange != nullptr) {
      shared.exchange = config.shard_exchange;
      shared.work_items = &config.shard_exchange->work_items;
    }
  } else {
    shared.edge_offset = device_id;
    shared.edge_stride = config.num_devices;
  }
  if (sink != nullptr) {
    TDFS_CHECK_MSG(sink->num_vertices() == plan.num_vertices,
                   "sink width does not match the query");
  }
  shared.kernel_budget.store(config.newkernel_max_kernels,
                             std::memory_order_relaxed);
  if (config.trace != nullptr) {
    obs::MetricsRegistry* metrics = config.trace->metrics();
    shared.h_task_work = metrics->GetHistogram("dfs.task_work_units");
    shared.h_split_depth = metrics->GetHistogram("dfs.split_depth");
    shared.h_isect_size = metrics->GetHistogram("dfs.intersection_size");
    shared.c_idle_polls = metrics->GetCounter("dfs.idle_polls");
    shared.c_steal_probes = metrics->GetCounter("dfs.steal_probes");
  }

  Timer total_timer;
  if (config.max_run_ms > 0) {
    // The deadline bounds the *whole* run, preprocessing included: a
    // host-side edge filter or OOM-model scan over a huge graph must not
    // consume a budget the kernel then never sees.
    shared.deadline_ns =
        Timer::Now() + static_cast<int64_t>(config.max_run_ms * 1e6);
  }
  const auto preprocess_deadline_hit = [&shared](int64_t iteration) {
    return shared.deadline_ns != 0 && (iteration & 0xFFF) == 0 &&
           Timer::Now() > shared.deadline_ns;
  };

  // ---- preprocessing (charged separately, Section IV-B) ----
  Timer preprocess_timer;
  if (config.use_label_index) {
    // The label index can only answer "neighbors with label L" queries; an
    // unlabeled query position on a labeled graph needs the full list, so
    // the index is skipped (plain CSR) in that mixed case.
    bool every_position_labeled = true;
    for (Label l : plan.label_filter) {
      every_position_labeled = every_position_labeled && l != kNoLabel;
    }
    // Shard views also skip the index: it buckets every global vertex's
    // adjacency, which a shard neither holds nor should replicate. The
    // engine falls back to plain CSR access — counts are unchanged (the
    // index is an access-path optimization).
    if ((!graph.IsLabeled() || every_position_labeled) &&
        !graph.IsShardView()) {
      shared.index = std::make_unique<LabelIndex>(graph);
    }
  }
  // Intersection backend: resolve the kernel table and (mode permitting)
  // build the hub bitmap index — per label bucket when the index is in
  // play, so label-filtered spans never meet a full-row bitmap. Charged as
  // preprocessing, like the label index.
  if (UsesHubBitmaps(config.intersect)) {
    shared.bitmaps = HubBitmapIndex::Build(graph, shared.index.get(),
                                           config.bitmap_min_degree);
  }
  shared.steps = StepDispatchTable(plan, config.intersect, &shared.bitmaps);
  const int64_t num_directed = graph.NumDirectedEdges();
  int64_t owned = 0;
  for (int64_t e = shared.edge_offset; e < num_directed;
       e += shared.edge_stride) {
    ++owned;
  }
  if (config.initial_edges != nullptr) {
    // Incremental-maintenance seeding: enumerate only the caller-supplied
    // directed edges (round-robin across devices), reusing the
    // host-prefilter slot so warps skip the per-edge filter — the dyn
    // layer already applied PassesEdgeFilter when building the seed list.
    // The shard runner uses the same slot for a shard's kept-local seeds
    // (offset 0 / stride 1: the list is already per-shard).
    const std::vector<int64_t>& seeds = *config.initial_edges;
    for (int64_t j = shared.edge_offset;
         j < static_cast<int64_t>(seeds.size()); j += shared.edge_stride) {
      const int64_t e = seeds[j];
      if (e < 0 || e >= num_directed) {
        result.total_ms = total_timer.ElapsedMillis();
        result.status = Status::InvalidArgument(
            "initial_edges[" + std::to_string(j) + "] = " +
            std::to_string(e) + " is not a directed-edge index of the " +
            "graph (expected [0, " + std::to_string(num_directed) + "))");
        return result;
      }
      shared.host_filtered_edges.push_back(e);
    }
    shared.num_owned_edges =
        static_cast<int64_t>(shared.host_filtered_edges.size());
  } else if (config.host_side_edge_filter) {
    // STMatch-style single-core host prefilter over this device's edges.
    for (int64_t j = 0; j < owned; ++j) {
      if (preprocess_deadline_hit(j)) {
        result.counters.preprocess_ms = preprocess_timer.ElapsedMillis();
        result.total_ms = total_timer.ElapsedMillis();
        result.status = Status::DeadlineExceeded(
            "matching aborted during preprocessing after " +
            std::to_string(config.max_run_ms) + " ms");
        return result;
      }
      const int64_t e = shared.OwnedEdgeIndex(j);
      const VertexId v0 = graph.EdgeSource(e);
      const VertexId v1 = graph.EdgeTarget(e);
      if (PassesEdgeFilter(plan, graph, v0, v1, config.use_degree_filter) &&
          PrefilterAdmitsEdge(config.prefiltered, plan.order[0],
                              plan.order[1], v0, v1)) {
        shared.host_filtered_edges.push_back(e);
      }
    }
    shared.num_owned_edges =
        static_cast<int64_t>(shared.host_filtered_edges.size());
  } else {
    shared.num_owned_edges = owned;
  }
  result.counters.preprocess_ms = preprocess_timer.ElapsedMillis();

  // EGSM OOM model (Table IV): the CT-index materializes compact candidate
  // sets per query edge (three ints per candidate across its cuc/off/nbr
  // levels). At low label selectivity nearly every data edge is a
  // candidate for every query edge, which is what blows past device memory
  // in the paper; higher |L| shrinks this superlinearly.
  if (config.device_memory_budget_bytes > 0 && shared.index != nullptr) {
    int64_t candidate_edges = 0;
    for (int64_t e = 0; e < num_directed; ++e) {
      if (preprocess_deadline_hit(e)) {
        result.total_ms = total_timer.ElapsedMillis();
        result.status = Status::DeadlineExceeded(
            "matching aborted during preprocessing after " +
            std::to_string(config.max_run_ms) + " ms");
        return result;
      }
      if (PassesEdgeFilter(plan, graph, graph.EdgeSource(e),
                           graph.EdgeTarget(e), config.use_degree_filter) &&
          PrefilterAdmitsEdge(config.prefiltered, plan.order[0],
                              plan.order[1], graph.EdgeSource(e),
                              graph.EdgeTarget(e))) {
        ++candidate_edges;
      }
    }
    int64_t query_edges = 0;
    for (const auto& backward : plan.backward) {
      query_edges += static_cast<int64_t>(backward.size());
    }
    const int64_t needed = candidate_edges * query_edges * 12;
    if (needed > config.device_memory_budget_bytes) {
      result.status = Status::ResourceExhausted(
          "CT-index candidate materialization needs " +
          std::to_string(needed) + " bytes > budget " +
          std::to_string(config.device_memory_budget_bytes));
      return result;
    }
  }

  // ---- shared structures ----
  // Borrowed resources are adopted only when their geometry matches
  // the config — the retry escalation ladder grows page_pool_pages, and a
  // stale-sized borrowed pool must never shadow that. Adopted resources
  // get their stats reset (per-run peaks) and their observability sink
  // rebound to this run's trace session (or detached when tracing is off:
  // a previous traced run may have left a dangling histogram attached).
  if (config.stack == StackKind::kPaged) {
    PageAllocator* borrowed =
        config.resources != nullptr ? config.resources->allocator : nullptr;
    if (borrowed != nullptr && borrowed->num_pages() == config.page_pool_pages &&
        borrowed->page_bytes() == config.page_bytes &&
        borrowed->spill_enabled() == config.spill_to_host) {
      if (borrowed->PagesInUse() != 0) {
        // An idle pool has zero pages out; nonzero means a previous
        // borrower leaked. ResetStats would rebaseline the peak to the
        // leak and hide it, so refuse the resources instead — loudly and
        // non-retryably (the same pool would fail every attempt).
        result.counters.adoption_rejects = 1;
        result.total_ms = total_timer.ElapsedMillis();
        result.status = Status::FailedPrecondition(
            "borrowed page allocator has " +
            std::to_string(borrowed->PagesInUse()) +
            " pages still in use; refusing adoption (leaked by a previous "
            "borrower)");
        return result;
      }
      borrowed->ResetStats();
      shared.allocator = borrowed;
    } else {
      shared.owned_allocator = MakePageAllocator(config);
      shared.allocator = shared.owned_allocator.get();
    }
    shared.allocator->AttachObs(
        config.trace != nullptr
            ? config.trace->metrics()->GetHistogram("mem.page_pool_occupancy")
            : nullptr);
  }
  if (config.steal == StealStrategy::kTimeout) {
    TaskQueue* borrowed =
        config.resources != nullptr ? config.resources->queue : nullptr;
    if (borrowed != nullptr &&
        borrowed->capacity_ints() == config.queue_capacity_ints) {
      borrowed->ResetStats();
      shared.queue = borrowed;
    } else {
      shared.owned_queue =
          std::make_unique<TaskQueue>(config.queue_capacity_ints);
      shared.queue = shared.owned_queue.get();
    }
    shared.queue->AttachObs(
        config.trace != nullptr
            ? config.trace->metrics()->GetHistogram("queue.occupancy_tasks")
            : nullptr);
  }

  Timer match_timer;
  shared.warps.reserve(config.num_warps);
  for (int w = 0; w < config.num_warps; ++w) {
    auto runner = std::make_unique<WarpRunner<Stack>>(
        &shared, WarpRunner<Stack>::MakeStack(shared));
    runner->self_index_ = w;
    runner->InitObs("warp" + std::to_string(w));
    shared.warps.push_back(std::move(runner));
  }

  if (!vgpu::LaunchKernel(
          config.num_warps,
          [&shared](int warp_id) { shared.warps[warp_id]->ResidentLoop(); },
          &shared.launch_stats, /*launch_overhead_ns=*/0, config.trace,
          device_id)) {
    // Main kernel never ran: no partial state to reconcile. Report an
    // internal (retryable) failure; RunMatching's policy decides whether
    // to re-execute this device's slice.
    result.counters.failpoint_fires =
        fail::TotalFires() - failpoint_fires_before;
    result.total_ms = total_timer.ElapsedMillis();
    result.status = Status::Internal(
        "kernel launch failed on device " + std::to_string(device_id));
    return result;
  }

  // Child kernels may still be registered after warps exit (they hold work
  // tokens, so warps waited for their completion; join the threads).
  {
    std::lock_guard<std::mutex> lock(shared.child_threads_mu);
    for (auto& t : shared.child_threads) {
      t.join();
    }
    shared.child_threads.clear();
  }
  result.match_ms = match_timer.ElapsedMillis();

  // ---- collect ----
  result.match_count = shared.matches.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shared.counters_mu);
    RunCounters merged = shared.counters;
    merged.preprocess_ms += result.counters.preprocess_ms;
    result.counters = merged;
    if (config.trace != nullptr && !shared.attr.Empty()) {
      result.attribution = TimeAttribution::FromSink(shared.attr);
    }
  }
  int64_t stack_bytes =
      shared.stack_bytes_total.load(std::memory_order_relaxed);
  for (const auto& warp : shared.warps) {
    stack_bytes += warp->StackMemoryBytes();
  }
  result.counters.stack_bytes_peak = stack_bytes;
  if (shared.allocator != nullptr) {
    result.counters.pages_peak = shared.allocator->PeakPagesInUse();
    result.counters.alloc_misses = shared.allocator->AllocMisses();
    result.counters.spill_allocs = shared.allocator->TotalSpillAllocs();
    result.counters.spill_pages_peak = shared.allocator->SpillPagesPeak();
    result.counters.spill_promotions = shared.allocator->SpillPromotions();
    // Peak pool usage is the honest device footprint for the paged design.
    result.counters.stack_bytes_peak =
        shared.allocator->PeakPagesInUse() * shared.allocator->page_bytes() +
        static_cast<int64_t>(config.num_warps) * plan.num_vertices *
            PagedWarpStack::kDefaultPageTableCapacity *
            static_cast<int64_t>(sizeof(PageId));
  }
  result.counters.stack_overflow =
      shared.stack_overflow.load(std::memory_order_relaxed);
  result.counters.failpoint_fires =
      fail::TotalFires() - failpoint_fires_before;
  result.counters.degraded_mode =
      shared.pressure_mode.load(std::memory_order_relaxed) ||
      shared.degraded.load(std::memory_order_relaxed);
  if (shared.queue != nullptr) {
    result.counters.queue_peak_tasks = shared.queue->PeakSizeInts() / 3;
  }
  if (shared.Expired()) {
    result.status = Status::DeadlineExceeded(
        "matching aborted after " + std::to_string(config.max_run_ms) +
        " ms; partial count");
    result.total_ms = total_timer.ElapsedMillis();
    return result;
  }
  if (result.counters.stack_overflow &&
      config.stack != StackKind::kArrayFixed) {
    // Truncation is expected (and reported) for the hardcoded-capacity
    // baseline; for the paged backend it means the pool is undersized.
    if (shared.pool_failure.load(std::memory_order_relaxed)) {
      result.status = Status::ResourceExhausted(
          "page pool exhausted despite pressure release/retries"
          " (retries=" +
          std::to_string(result.counters.pressure_retries) +
          ", deferred=" + std::to_string(result.counters.deferred_tasks) +
          "); grow page_pool_pages or enable retry escalation");
    } else {
      result.status = Status::ResourceExhausted(
          "stack overflow: page pool or capacity too small for this job");
    }
  }
  result.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace

RunResult RunDfsEngine(const Graph& graph, const MatchPlan& plan,
                       const EngineConfig& config, int device_id,
                       MatchSink* sink) {
  if (config.stack == StackKind::kPaged) {
    return RunDfsEngineT<PagedWarpStack>(graph, plan, config, device_id,
                                         sink);
  }
  return RunDfsEngineT<ArrayWarpStack>(graph, plan, config, device_id,
                                       sink);
}

}  // namespace tdfs
