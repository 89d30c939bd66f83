// Asynchronous batch matching: the one-shot matcher as a throughput engine.
//
// A MatchService owns a worker pool and a PlanCache, and serves counting
// jobs against one data graph:
//
//   tdfs::MatchService service(graph, tdfs::TdfsConfig());
//   std::future<tdfs::RunResult> f = service.Submit(query);
//   tdfs::RunResult r = f.get();
//
// Concurrency model. Submit compiles (or cache-hits) the plan on the
// caller's thread and enqueues one work item per device slice — a
// multi-device job is decomposed into NumDeviceSlices(config) independent
// items that share a JobState. Workers pull items and run RunMatchingDevice
// (the per-slice retry/escalation unit, or the whole sharded job) on the
// page pool and task queue each worker owns for its lifetime, as each GPU
// in the paper reuses its own pool and Q_task for every kernel; the worker
// that finishes a job's last slice merges them with MergeSlices, the merge
// RunMatchingPlanned uses, and fulfills the promise. No worker ever waits
// on another job's completion or on another worker's resources, so the
// pool cannot deadlock; slices of different jobs (and of the same job) run
// concurrently instead of back-to-back.
//
// Admission control bounds jobs in flight (queued + running): Submit
// returns an already-failed future (kResourceExhausted) beyond the bound
// rather than queueing without limit. Per-job deadlines map onto
// EngineConfig::max_run_ms, and failures retry per the config's
// RetryPolicy, both enforced inside the device slice.
//
// Destruction drains: queued jobs still execute, their futures complete,
// then workers join. Submit after shutdown begins is rejected.
//
// Batch-dynamic updates. The service owns a dyn::DynamicGraph; every job
// captures the current snapshot at Submit, so in-flight jobs are never
// exposed to a half-applied (or later) batch. ApplyUpdate(delta)
// publishes the next graph version and incrementally maintains the
// counts of all registered continuous queries (dyn/incremental.h),
// reusing the plan cache for per-rank delta plans and the service's own
// update pool and queue — this is the warm path BENCH_dynamic measures
// against full recounts. If incremental maintenance fails for a query
// (e.g. an engine deadline), that query falls back to a full recount on
// the new snapshot, so registered counts never go stale silently.

#ifndef TDFS_SERVICE_MATCH_SERVICE_H_
#define TDFS_SERVICE_MATCH_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/matcher.h"
#include "dyn/dynamic_graph.h"
#include "mem/memory_governor.h"
#include "mem/page_allocator.h"
#include "dyn/graph_delta.h"
#include "dyn/incremental.h"
#include "query/candidate_filter.h"
#include "obs/prometheus.h"
#include "obs/span.h"
#include "queue/task_queue.h"
#include "service/plan_cache.h"
#include "util/timer.h"

namespace tdfs {

struct ServiceOptions {
  /// Worker threads executing device slices. Each owns one page pool and
  /// task queue at the config's geometry for its whole lifetime.
  int num_workers = 4;

  /// Jobs admitted but not yet completed. Submissions beyond this are
  /// rejected with kResourceExhausted instead of queueing unboundedly.
  int max_pending_jobs = 256;

  int64_t plan_cache_capacity = 64;

  /// Deadline applied to jobs that do not set their own (and whose config
  /// has max_run_ms == 0). 0 = unlimited.
  double default_deadline_ms = 0.0;

  /// Budget authority for memory admission control and the workers' spill
  /// accounting. Null falls back to EngineConfig::governor, then the
  /// process-global governor (inert unless given a budget).
  MemoryGovernor* governor = nullptr;

  /// How long a device slice waits for its memory reservation when the
  /// governor is under pressure, before failing the job with
  /// kResourceExhausted — the waiters queue that replaces immediate
  /// rejection. Capped by the job's own deadline. <= 0: non-blocking.
  double reserve_timeout_ms = 250.0;

  /// Jobs whose end-to-end latency (submit to future fulfillment) meets
  /// this threshold are logged at WARNING with a per-stage breakdown,
  /// the plan fingerprint, pages_peak, and spill counters — enough to
  /// attribute a latency outlier without a trace session attached.
  /// <= 0 disables the slow-query log.
  double slow_query_ms = 0.0;
};

struct JobOptions {
  /// Kernel-time deadline for this job (EngineConfig::max_run_ms
  /// semantics: abort with kDeadlineExceeded and a partial count).
  /// Negative = use the service default.
  double deadline_ms = -1.0;
};

class MatchService {
 public:
  /// `graph` must outlive the service. `config` is the template for every
  /// job (engine, devices, retry policy); per-job options override the
  /// deadline only.
  MatchService(const Graph& graph, const EngineConfig& config,
               const ServiceOptions& options = ServiceOptions{});
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// Schedules a counting job. The future always becomes ready: with a
  /// result, a per-job failure status, or a rejection
  /// (kResourceExhausted from admission control, kFailedPrecondition
  /// after shutdown).
  std::future<RunResult> Submit(const QueryGraph& query,
                                const JobOptions& job = JobOptions{});

  /// Lifecycle stages a job passes through. Every stage is timed into an
  /// always-on latency histogram (see Stats::stages) and, when the
  /// service config carries a TraceSession, recorded as a span on the
  /// job's timeline. kDeltaApply covers ApplyUpdate batches, not jobs.
  enum class Stage : int {
    kAdmission = 0,  // capacity check in Submit
    kPlanCache,      // plan lookup (+ compile on miss)
    kSnapshot,       // graph snapshot + demand projection
    kQueueWait,      // device slice queued for a worker
    kMemReserve,     // governor admission reservation
    kEngineRun,      // RunMatchingDevice (incl. retries)
    kMerge,          // device-slice merge
    kFinalize,       // demand record + promise fulfillment
    kDeltaApply,     // one ApplyUpdate batch
  };
  static constexpr int kNumStages = 9;
  static const char* StageName(Stage stage);

  struct Stats {
    int64_t submitted = 0;  // admitted jobs
    int64_t rejected = 0;   // admission-control rejections
    int64_t completed = 0;  // futures fulfilled (any status)
    int64_t plan_cache_hits = 0;
    int64_t plan_cache_misses = 0;
    int64_t batches_applied = 0;      // ApplyUpdate successes
    int64_t continuous_queries = 0;   // currently registered
    /// Device slices whose memory reservation timed out (job failed with
    /// kResourceExhausted after waiting, distinct from `rejected`).
    int64_t reservation_timeouts = 0;

    /// Per-stage latency distribution (microseconds) since construction.
    /// Percentiles are log2-bucket approximations (obs::Histogram);
    /// stages that never ran are omitted.
    struct StageStats {
      std::string stage;
      int64_t count = 0;
      int64_t p50_us = 0;
      int64_t p95_us = 0;
      int64_t p99_us = 0;
      int64_t max_us = 0;
    };
    std::vector<StageStats> stages;
  };
  Stats GetStats() const;

  // ---- Prometheus scrape endpoint ----

  /// Starts an HTTP scrape endpoint (GET /metrics, exposition format
  /// 0.0.4) on `port` (0 = ephemeral; see metrics_port()). Uses the
  /// registry from AttachMetrics when one is attached; otherwise attaches
  /// an internal registry so the endpoint works out of the box. Fails if
  /// already running or the port cannot be bound. Not thread-safe against
  /// itself or AttachMetrics.
  Status StartMetricsServer(int port);

  /// Stops the scrape endpoint. Idempotent; also runs at destruction.
  void StopMetricsServer();

  /// Bound scrape port; 0 when the endpoint is not running.
  int metrics_port() const { return metrics_server_.port(); }

  /// Blocking convenience for CLI serving: StartMetricsServer(port), then
  /// sleep until `duration_ms` elapses (forever when negative) or
  /// StopMetricsServer is called from another thread.
  Status ServeMetrics(int port, double duration_ms = -1.0);

  // ---- batch-dynamic updates ----

  /// One registered query's count change across a batch.
  struct QueryDelta {
    int64_t id = 0;
    uint64_t old_count = 0;
    uint64_t lost = 0;
    uint64_t gained = 0;
    uint64_t new_count = 0;
    /// True when incremental maintenance failed and the count came from a
    /// full recount instead (lost/gained are then 0/0 placeholders).
    bool recounted = false;
  };

  struct BatchUpdateReport {
    int64_t version = 0;  // graph version after the batch
    int64_t edges_inserted = 0;
    int64_t edges_deleted = 0;
    std::vector<QueryDelta> queries;
    int64_t delta_plans_run = 0;
    int64_t seed_edges = 0;
    double total_ms = 0.0;  // whole batch: apply + all query maintenance
  };

  /// Registers `query` for incremental maintenance: counts it on the
  /// current snapshot (through the normal job path) and returns a handle
  /// for ContinuousQueryCount. Fails on queries the incremental layer
  /// cannot maintain (induced configs) and on count failures.
  Result<int64_t> RegisterContinuousQuery(const QueryGraph& query);

  /// Removes a registered query. Unknown handles fail.
  Status UnregisterContinuousQuery(int64_t id);

  /// The maintained count of a registered query on the current graph
  /// version.
  Result<uint64_t> ContinuousQueryCount(int64_t id) const;

  /// Applies one validated edge batch: publishes the next graph version
  /// (jobs submitted afterwards see it; in-flight jobs keep their
  /// snapshot) and updates every registered query's count incrementally.
  /// Batches are serialized; concurrent Submits are never blocked.
  Result<BatchUpdateReport> ApplyUpdate(const dyn::GraphDelta& delta);

  /// Current graph snapshot / number of applied batches.
  std::shared_ptr<const Graph> Snapshot() const;
  int64_t GraphVersion() const;

  PlanCache* plan_cache() { return &plan_cache_; }

  /// Mirrors service and cache counters into `metrics`
  /// (service.jobs_{submitted,rejected,completed} plus the cache counter
  /// family).
  void AttachMetrics(obs::MetricsRegistry* metrics);

 private:
  struct JobState {
    int64_t job_id = 0;
    /// PlanCacheFingerprint of the job's canonical query (slow-query log
    /// grouping key).
    uint64_t fingerprint = 0;
    EngineConfig config;
    std::shared_ptr<const MatchPlan> plan;
    /// Plan-cache demand history handle (peak pages over past runs of the
    /// same canonical query); refined with this job's pages_peak at
    /// finalize. Null when the cache had no handle.
    std::shared_ptr<std::atomic<int64_t>> demand_history;
    /// Plan-cache observed-work handle; refined with this job's
    /// work_units at finalize so drifting cost plans trigger a calibrated
    /// replan on a later hit.
    std::shared_ptr<std::atomic<int64_t>> work_history;
    /// Projected page demand for admission (history, else heuristic).
    int64_t projected_pages = 0;
    /// Graph version captured at Submit; the whole job runs against it
    /// even if ApplyUpdate publishes newer versions meanwhile.
    std::shared_ptr<const Graph> snapshot;
    /// Candidate-filtered view of the snapshot for this exact query
    /// instance (service FilteredGraph cache). Null when prefiltering is
    /// off or does not apply to this config; when set, device slices run
    /// on filtered->graph() with EngineConfig::prefiltered wired up.
    std::shared_ptr<const FilteredGraph> filtered;
    std::promise<RunResult> promise;
    Timer timer;

    /// Service control-plane timeline row + root span for this job (both
    /// zero/inert without a TraceSession). Ended at finalize.
    int64_t span_track = 0;
    uint64_t root_span_id = 0;
    obs::SpanLedger::Span root_span;

    std::mutex mu;
    std::vector<RunResult> device_results;
    int devices_remaining = 0;
    /// Per-stage latency attribution for THIS job (milliseconds). Submit-
    /// side stages are written once before enqueue; slice stages take the
    /// max across device slices under `mu` (a critical-path
    /// approximation: concurrent slices overlap, so summing them would
    /// overshoot wall time).
    double stage_ms[kNumStages] = {};
  };

  struct DeviceItem {
    std::shared_ptr<JobState> job;
    int device_id = 0;
    /// Slice timeline row (0 without a TraceSession).
    int64_t track = 0;
    /// Open while the slice sits in the worker queue.
    obs::SpanLedger::Span queue_span;
    /// Queue-wait clock, started at enqueue.
    Timer queued;
  };

  /// One page pool + task queue at the service config's geometry (each
  /// null when the config's engine does not use it). Every worker owns one
  /// for its lifetime and ApplyUpdate owns another; runs borrow it through
  /// EngineConfig::resources.
  struct WorkerResources {
    explicit WorkerResources(const EngineConfig& config);

    /// Readies the pair for the next run: drains the tasks a
    /// deadline-aborted or failed run left in the queue, and rebuilds a
    /// pool that still has pages checked out rather than reuse it.
    void Scrub(const EngineConfig& config);

    std::unique_ptr<PageAllocator> allocator;
    std::unique_ptr<TaskQueue> queue;
    EngineResources view;
  };

  void WorkerLoop();
  void RunDeviceItem(DeviceItem& item, const EngineResources* resources);
  void FinalizeJob(JobState* job);

  /// Observes one stage duration into the always-on histogram (and the
  /// attached registry mirror, when any).
  void RecordStage(Stage stage, double ms);

  /// The governor admission control runs against (never null).
  MemoryGovernor* governor() const;

  /// GraphStats for `graph` (a snapshot of dynamic_graph_), computed on
  /// first use per graph version and cached — the cost planner's
  /// once-per-graph sampling. Only called when config_.planner == kCost.
  std::shared_ptr<const GraphStats> StatsFor(
      const std::shared_ptr<const Graph>& graph);

  /// Candidate-filtered view of `snapshot` for this exact query instance
  /// (raw key, not canonical: candidate sets are indexed by concrete
  /// query-vertex ids). Served from filtered_cache_ when the snapshot is
  /// still current; built (and cached, memory charged to the governor)
  /// otherwise. Never fails — an uncacheable build is returned uncached.
  std::shared_ptr<const FilteredGraph> FilteredFor(
      const std::shared_ptr<const Graph>& snapshot, const QueryGraph& query);

  /// Admission math: projected page demand for one job. Uses the plan
  /// cache's recorded peak when the query has run before; otherwise a
  /// query-depth x tau x warp-count heuristic (deeper plans, more warps,
  /// and longer timeouts all grow concurrent stack footprint).
  int64_t ProjectedDemandPages(const JobState& job) const;

  struct ContinuousQuery {
    QueryGraph query;
    uint64_t count = 0;
  };

  dyn::DynamicGraph dynamic_graph_;
  /// The job template, naming ServiceOptions::governor when it names no
  /// governor itself, so spill accounting and admission share one
  /// authority.
  const EngineConfig config_;
  const ServiceOptions options_;

  /// Cost-planner statistics cache, keyed by snapshot identity (a new
  /// graph version computes fresh stats; the stats fingerprint then
  /// changes the plan-cache key, invalidating cached orders). The graph
  /// key is deliberately a weak_ptr: holding the snapshot shared would
  /// pin a RETIRED graph version (plus its adjacency arrays) in memory
  /// for the whole service lifetime after ApplyUpdate publishes a newer
  /// one. Identity is still exact — weak_ptr::lock compares control
  /// blocks, so a recycled allocation can never false-hit.
  mutable std::mutex stats_mu_;
  std::weak_ptr<const Graph> stats_graph_;
  std::shared_ptr<const GraphStats> stats_;

  /// FilteredGraph cache: one entry per (current snapshot, raw query key).
  /// Entries carry a governor reservation charging their memory; the whole
  /// cache is dropped when ApplyUpdate retires the snapshot (weak_ptr, as
  /// above — a retired version's filtered views must not stay pinned).
  struct FilteredEntry {
    std::shared_ptr<const FilteredGraph> filtered;
    MemoryGovernor::Reservation reservation;
  };
  static constexpr int64_t kMaxFilteredEntries = 16;
  mutable std::mutex filtered_mu_;
  std::weak_ptr<const Graph> filtered_snapshot_;
  std::map<std::string, FilteredEntry> filtered_cache_;

  PlanCache plan_cache_;

  /// Serializes ApplyUpdate and RegisterContinuousQuery (a registration's
  /// initial count must not interleave with a batch).
  mutable std::mutex update_mu_;
  WorkerResources update_resources_;               // guarded by update_mu_
  std::map<int64_t, ContinuousQuery> continuous_;  // guarded by update_mu_
  int64_t next_query_id_ = 1;                      // guarded by update_mu_
  int64_t delta_track_ = 0;                        // guarded by update_mu_
  std::atomic<int64_t> batches_applied_{0};
  obs::MetricsRegistry* metrics_ = nullptr;  // guarded by mu_

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<DeviceItem> items_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  std::atomic<int64_t> inflight_jobs_{0};
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> reservation_timeouts_{0};
  std::atomic<int64_t> next_job_id_{1};

  obs::Counter* obs_submitted_ = nullptr;
  obs::Counter* obs_rejected_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;

  /// Always-on per-stage latency histograms (microseconds) — the source
  /// for Stats::stages. The atomic mirrors point into the attached
  /// registry ("service.stage_us.<stage>") and are observed from worker
  /// threads, hence not guarded by mu_.
  obs::Histogram stage_hist_[kNumStages];
  std::atomic<obs::Histogram*> obs_stage_[kNumStages] = {};

  /// Prometheus scrape endpoint + the registry it serves when the
  /// embedder never attached one.
  obs::MetricsHttpServer metrics_server_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
};

}  // namespace tdfs

#endif  // TDFS_SERVICE_MATCH_SERVICE_H_
