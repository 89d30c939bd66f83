#include "service/match_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "query/cost_planner.h"
#include "util/logging.h"

namespace tdfs {

namespace {

std::future<RunResult> ImmediateFailure(Status status) {
  std::promise<RunResult> promise;
  RunResult result;
  result.status = std::move(status);
  promise.set_value(std::move(result));
  return promise.get_future();
}

EngineConfig WithGovernor(EngineConfig config, MemoryGovernor* governor) {
  if (config.governor == nullptr) {
    config.governor = governor;
  }
  return config;
}

}  // namespace

MatchService::WorkerResources::WorkerResources(const EngineConfig& config) {
  if (config.stack == StackKind::kPaged) {
    allocator = MakePageAllocator(config);
    view.allocator = allocator.get();
  }
  if (config.steal == StealStrategy::kTimeout) {
    queue = std::make_unique<TaskQueue>(config.queue_capacity_ints);
    view.queue = queue.get();
  }
}

void MatchService::WorkerResources::Scrub(const EngineConfig& config) {
  // The run is over, so the pair is quiescent. A deadline-aborted or
  // failed run can leave admitted tasks in the queue; the next run must
  // start from empty or its work-token accounting would see ghost tasks.
  if (queue != nullptr) {
    queue->DrainForReuse();
  }
  // The engine returns every page before completing (stacks release on
  // destruction). If that invariant is ever broken, rebuild the pool
  // rather than hand the next run a partially checked-out one.
  if (allocator != nullptr && allocator->PagesInUse() != 0) {
    TDFS_LOG(Warning) << "match service pool scrubbed with "
                      << allocator->PagesInUse()
                      << " pages in use; rebuilding it";
    allocator = MakePageAllocator(config);
    view.allocator = allocator.get();
  }
}

MatchService::MatchService(const Graph& graph, const EngineConfig& config,
                           const ServiceOptions& options)
    : dynamic_graph_(graph),
      config_(WithGovernor(config, options.governor)),
      options_(options),
      plan_cache_(options.plan_cache_capacity),
      update_resources_(config_) {
  const int workers = std::max(options_.num_workers, 1);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MatchService::~MatchService() {
  StopMetricsServer();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void MatchService::AttachMetrics(obs::MetricsRegistry* metrics) {
  plan_cache_.AttachMetrics(metrics);
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics == nullptr) {
    obs_submitted_ = obs_rejected_ = obs_completed_ = nullptr;
    for (int s = 0; s < kNumStages; ++s) {
      obs_stage_[s].store(nullptr, std::memory_order_relaxed);
    }
    metrics_ = nullptr;
    return;
  }
  obs_submitted_ = metrics->GetCounter("service.jobs_submitted");
  obs_rejected_ = metrics->GetCounter("service.jobs_rejected");
  obs_completed_ = metrics->GetCounter("service.jobs_completed");
  for (int s = 0; s < kNumStages; ++s) {
    obs_stage_[s].store(
        metrics->GetHistogram(std::string("service.stage_us.") +
                              StageName(static_cast<Stage>(s))),
        std::memory_order_relaxed);
  }
  metrics_ = metrics;
}

const char* MatchService::StageName(Stage stage) {
  switch (stage) {
    case Stage::kAdmission:
      return "admission";
    case Stage::kPlanCache:
      return "plan_cache";
    case Stage::kSnapshot:
      return "snapshot";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kMemReserve:
      return "mem_reserve";
    case Stage::kEngineRun:
      return "engine_run";
    case Stage::kMerge:
      return "merge";
    case Stage::kFinalize:
      return "finalize";
    case Stage::kDeltaApply:
      return "delta_apply";
  }
  return "unknown";
}

void MatchService::RecordStage(Stage stage, double ms) {
  const int64_t us = static_cast<int64_t>(ms * 1000.0);
  const int i = static_cast<int>(stage);
  stage_hist_[i].Observe(us);
  obs::Observe(obs_stage_[i].load(std::memory_order_relaxed), us);
}

std::future<RunResult> MatchService::Submit(const QueryGraph& query,
                                            const JobOptions& job) {
  // One timeline row + root span per job. Children (submit-side stages,
  // slice spans, merge/finalize) all parent under the root so the whole
  // lifecycle reconstructs as one tree in the Chrome-trace export.
  obs::SpanLedger* ledger =
      config_.trace != nullptr ? config_.trace->spans() : nullptr;
  const int64_t job_id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  int64_t track = 0;
  obs::SpanLedger::Span root;
  if (ledger != nullptr) {
    track = ledger->NewTrackId("job" + std::to_string(job_id));
    root = ledger->Begin("job", track, 0, job_id);
  }
  const obs::SpanContext ctx{ledger, track, root.id()};

  // Admission control: bound jobs in flight before doing any work.
  Timer stage_timer;
  obs::SpanLedger::Span admission_span = ctx.Begin("admission");
  const int64_t limit = std::max(options_.max_pending_jobs, 1);
  if (inflight_jobs_.fetch_add(1, std::memory_order_relaxed) >= limit) {
    inflight_jobs_.fetch_sub(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::Add(obs_rejected_);
    RecordStage(Stage::kAdmission, stage_timer.ElapsedMillis());
    return ImmediateFailure(Status::ResourceExhausted(
        "match service over capacity (" + std::to_string(limit) +
        " jobs in flight)"));
  }
  admission_span.End();
  const double admission_ms = stage_timer.ElapsedMillis();
  RecordStage(Stage::kAdmission, admission_ms);

  // Resolve the plan on the caller's thread (cache hit: O(|q|!) worst-case
  // canonicalization of a <= 16-vertex graph; in practice microseconds).
  // The snapshot is captured first so cost planning sees the same graph
  // version the job will run against.
  stage_timer.Reset();
  const std::shared_ptr<const Graph> snapshot = dynamic_graph_.Snapshot();
  std::shared_ptr<const GraphStats> stats;
  PlanOptions plan_options = PlanOptionsFor(config_);
  if (config_.planner == PlannerKind::kCost) {
    stats = StatsFor(snapshot);
    plan_options.stats = stats.get();
  }
  // Candidate prefiltering: resolve (or build) the filtered view of this
  // snapshot before planning, so the cost planner sees exact candidate
  // cardinalities and the cached plan is keyed to them. Stats stay those
  // of the ORIGINAL snapshot — same convention as the standalone matcher.
  std::shared_ptr<const FilteredGraph> filtered;
  if (PrefilterApplies(config_)) {
    filtered = FilteredFor(snapshot, query);
    plan_options.prefilter = config_.prefilter;
    plan_options.candidate_counts = &filtered->candidate_counts();
  }
  Result<PlanCache::PlanInfo> plan =
      plan_cache_.GetWithDemand(query, plan_options, ctx);
  const double plan_ms = stage_timer.ElapsedMillis();
  RecordStage(Stage::kPlanCache, plan_ms);
  if (!plan.ok()) {
    inflight_jobs_.fetch_sub(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::Add(obs_rejected_);
    return ImmediateFailure(plan.status());
  }

  stage_timer.Reset();
  obs::SpanLedger::Span snapshot_span = ctx.Begin("snapshot");
  auto state = std::make_shared<JobState>();
  state->job_id = job_id;
  state->fingerprint = plan.value().fingerprint;
  state->config = config_;
  state->plan = plan.value().plan;
  state->demand_history = plan.value().demand_pages;
  state->work_history = plan.value().observed_work;
  state->snapshot = snapshot;
  state->filtered = std::move(filtered);
  state->projected_pages = ProjectedDemandPages(*state);
  if (job.deadline_ms >= 0) {
    state->config.max_run_ms = job.deadline_ms;
  } else if (state->config.max_run_ms == 0 &&
             options_.default_deadline_ms > 0) {
    state->config.max_run_ms = options_.default_deadline_ms;
  }
  // A sharded job is one slice: the shard runner owns the worker fan-out
  // (per-shard arenas, queues, and threads), so splitting it across
  // service device slices would run the whole sharded job once per slice.
  const int num_devices = NumDeviceSlices(state->config);
  state->devices_remaining = num_devices;
  state->device_results.resize(num_devices);
  state->span_track = track;
  state->root_span_id = root.id();
  state->root_span = std::move(root);
  state->stage_ms[static_cast<int>(Stage::kAdmission)] = admission_ms;
  state->stage_ms[static_cast<int>(Stage::kPlanCache)] = plan_ms;
  std::future<RunResult> future = state->promise.get_future();
  snapshot_span.End();
  const double snapshot_ms = stage_timer.ElapsedMillis();
  RecordStage(Stage::kSnapshot, snapshot_ms);
  state->stage_ms[static_cast<int>(Stage::kSnapshot)] = snapshot_ms;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      inflight_jobs_.fetch_sub(1, std::memory_order_relaxed);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs::Add(obs_rejected_);
      return ImmediateFailure(
          Status::FailedPrecondition("match service is shutting down"));
    }
    for (int d = 0; d < num_devices; ++d) {
      DeviceItem item;
      item.job = state;
      item.device_id = d;
      if (ledger != nullptr) {
        // Each slice gets its own timeline row: concurrent slices must
        // not interleave begin/end pairs on one row.
        item.track = ledger->NewTrackId("job" + std::to_string(job_id) +
                                        "/dev" + std::to_string(d));
        item.queue_span = ledger->Begin("queue_wait", item.track,
                                        state->root_span_id, d);
      }
      items_.push_back(std::move(item));
    }
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::Add(obs_submitted_);
  if (num_devices > 1) {
    cv_.notify_all();
  } else {
    cv_.notify_one();
  }
  return future;
}

void MatchService::WorkerLoop() {
  WorkerResources resources(config_);
  for (;;) {
    DeviceItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !items_.empty(); });
      if (items_.empty()) {
        return;  // shutdown with the queue drained
      }
      item = std::move(items_.front());
      items_.pop_front();
    }
    RunDeviceItem(item, &resources.view);
    resources.Scrub(config_);
  }
}

std::shared_ptr<const GraphStats> MatchService::StatsFor(
    const std::shared_ptr<const Graph>& graph) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (stats_ != nullptr && stats_graph_.lock() == graph) {
      return stats_;
    }
  }
  // Compute outside the lock (one O(n) pass); concurrent submits against
  // a fresh version may duplicate the pass, and the last writer wins —
  // the stats are identical either way.
  auto stats =
      std::make_shared<const GraphStats>(GraphStats::Compute(*graph));
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_graph_ = graph;
  stats_ = stats;
  return stats;
}

std::shared_ptr<const FilteredGraph> MatchService::FilteredFor(
    const std::shared_ptr<const Graph>& snapshot, const QueryGraph& query) {
  const std::string key = RawQueryKey(query);
  {
    std::lock_guard<std::mutex> lock(filtered_mu_);
    if (filtered_snapshot_.lock() == snapshot) {
      auto it = filtered_cache_.find(key);
      if (it != filtered_cache_.end()) {
        return it->second.filtered;
      }
    }
  }
  // Build outside the lock (a neighborhood refinement over a large
  // snapshot is far too slow to serialize submits behind). Concurrent
  // submits of the same query may duplicate the build; the first insert
  // wins and the loser's copy just serves its own job.
  auto filtered = std::make_shared<const FilteredGraph>(
      BuildFilteredGraph(*snapshot, query, config_.prefilter));
  MemoryGovernor::Reservation reservation =
      governor()->TryReserve(filtered->MemoryBytes());
  if (!reservation) {
    // No budget to hold a cached copy: serve this job uncached (the view
    // dies with the job instead of occupying governed memory).
    return filtered;
  }
  std::lock_guard<std::mutex> lock(filtered_mu_);
  if (filtered_snapshot_.lock() != snapshot) {
    // ApplyUpdate retired the snapshot the cache was keyed by (or this is
    // the first fill): every cached view describes a dead version.
    filtered_cache_.clear();
    filtered_snapshot_ = snapshot;
  }
  auto it = filtered_cache_.find(key);
  if (it != filtered_cache_.end()) {
    return it->second.filtered;  // lost the build race
  }
  if (static_cast<int64_t>(filtered_cache_.size()) >= kMaxFilteredEntries) {
    // Bounded footprint for adversarial query streams; evicting an
    // arbitrary entry is fine (a popular query re-enters on next submit).
    filtered_cache_.erase(filtered_cache_.begin());
  }
  filtered_cache_.emplace(key,
                          FilteredEntry{filtered, std::move(reservation)});
  return filtered;
}

MemoryGovernor* MatchService::governor() const {
  return MemoryGovernor::Resolve(options_.governor != nullptr
                                     ? options_.governor
                                     : config_.governor);
}

int64_t MatchService::ProjectedDemandPages(const JobState& job) const {
  const EngineConfig& config = job.config;
  if (config.stack != StackKind::kPaged) {
    return 0;  // array stacks never touch the page pool
  }
  if (job.demand_history != nullptr) {
    const int64_t history =
        job.demand_history->load(std::memory_order_relaxed);
    if (history > 0) {
      return history;  // exact peak from a completed run of this query
    }
  }
  // Cold query: depth x tau x warp count. Every concurrent warp can hold
  // a stack of one page-run per level; longer timeouts let a warp grow
  // deeper before decomposition relieves it, shorter ones cap it.
  double tau_scale = 1.0;
  if (config.steal == StealStrategy::kTimeout) {
    const double tau_ms =
        config.clock == ClockKind::kWall
            ? config.timeout_ms
            : 10.0 * static_cast<double>(config.timeout_work_units) /
                  static_cast<double>(uint64_t{1} << 18);
    tau_scale = std::clamp(tau_ms / 10.0, 0.5, 4.0);
  }
  const int64_t levels = job.plan->num_vertices;
  const int64_t warps = std::max(config.num_warps, 1);
  return std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(levels * warps * 2) *
                              tau_scale));
}

void MatchService::RunDeviceItem(DeviceItem& item,
                                 const EngineResources* resources) {
  JobState& job = *item.job;
  const double queue_ms = item.queued.ElapsedMillis();
  item.queue_span.End();
  RecordStage(Stage::kQueueWait, queue_ms);
  obs::SpanLedger* ledger =
      job.config.trace != nullptr ? job.config.trace->spans() : nullptr;
  // Slice-level calls hang their spans on the slice's own row, parented
  // under the job root (not the queue_wait span, which is already over).
  const obs::SpanContext ctx{ledger, item.track, job.root_span_id};
  RunResult result;
  // Memory admission: secure this slice's share of the job's projected
  // demand before running the engine. Under pressure the worker
  // joins the governor's waiters queue up to the reserve timeout (capped
  // by the job's own deadline) instead of failing immediately; only an
  // expired wait fails the slice.
  const int num_devices =
      std::max<int>(static_cast<int>(job.device_results.size()), 1);
  const int64_t slice_bytes =
      job.projected_pages * job.config.page_bytes / num_devices;
  // An empty candidate set proves zero matches for the whole query: skip
  // the reservation and the engine outright (the filtered counters still
  // land so the caller sees why).
  const bool prefilter_empty =
      job.filtered != nullptr && job.filtered->AnyCandidateSetEmpty();
  MemoryGovernor::Reservation reservation;
  Timer stage_timer;
  double reserve_ms = 0.0;
  if (slice_bytes > 0 && !prefilter_empty) {
    double wait_ms = options_.reserve_timeout_ms;
    if (job.config.max_run_ms > 0 &&
        (wait_ms <= 0 || job.config.max_run_ms < wait_ms)) {
      wait_ms = job.config.max_run_ms;
    }
    MemoryGovernor* gov = governor();
    reservation = gov->ReserveBytes(slice_bytes, wait_ms, ctx);
    reserve_ms = stage_timer.ElapsedMillis();
    RecordStage(Stage::kMemReserve, reserve_ms);
    if (!reservation) {
      reservation_timeouts_.fetch_add(1, std::memory_order_relaxed);
      result.status = Status::ResourceExhausted(
          "memory reservation of " + std::to_string(slice_bytes) +
          " bytes timed out after " + std::to_string(wait_ms) +
          " ms (governor pressure: " +
          std::string(MemPressureName(gov->Pressure())) + ")");
    }
  }
  double engine_ms = 0.0;
  if (result.status.ok() && !prefilter_empty) {
    // The engine runs on the worker's own pool and queue, and falls back
    // to fresh allocation when their geometry no longer matches (e.g.
    // after retry escalation grew the pool).
    EngineConfig device_config = job.config;
    device_config.resources = resources;
    device_config.span_track = item.track;
    device_config.span_parent = job.root_span_id;
    // A prefiltered job runs over the candidate-induced CSR and consults
    // the membership bitsets through config.prefiltered. (A sharded job's
    // single slice builds its own per-shard arenas; the worker's pair
    // goes unused.)
    device_config.prefiltered = job.filtered.get();
    const Graph& data =
        job.filtered != nullptr ? job.filtered->graph() : *job.snapshot;
    stage_timer.Reset();
    result =
        RunMatchingDevice(data, *job.plan, device_config, item.device_id);
    engine_ms = stage_timer.ElapsedMillis();
    RecordStage(Stage::kEngineRun, engine_ms);
  }
  if (job.filtered != nullptr && result.status.ok()) {
    // build_ms = 0: the view came from the service cache (or at least was
    // built once in Submit, outside this slice's engine time).
    RecordPrefilterStats(*job.filtered, /*build_ms=*/0.0, &result.counters);
  }
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.device_results[item.device_id] = std::move(result);
    // Critical-path approximation: concurrent slices overlap in time, so
    // the job's breakdown takes the slowest slice per stage.
    auto note = [&job](Stage s, double ms) {
      double& slot = job.stage_ms[static_cast<int>(s)];
      slot = std::max(slot, ms);
    };
    note(Stage::kQueueWait, queue_ms);
    note(Stage::kMemReserve, reserve_ms);
    note(Stage::kEngineRun, engine_ms);
    last = --job.devices_remaining == 0;
  }
  if (last) {
    FinalizeJob(&job);
  }
}

void MatchService::FinalizeJob(JobState* job) {
  obs::SpanLedger* ledger =
      job->config.trace != nullptr ? job->config.trace->spans() : nullptr;
  const obs::SpanContext ctx{ledger, job->span_track, job->root_span_id};
  // Merge device slices with the same MergeSlices as RunMatchingPlanned,
  // so a service job and a direct RunMatching call report identical
  // results for the same config. No lock needed: every slice is done.
  Timer stage_timer;
  obs::SpanLedger::Span merge_span = ctx.Begin("merge");
  const size_t num_devices = job->device_results.size();
  RunResult final_result = MergeSlices(std::move(job->device_results));
  merge_span.End();
  const double merge_ms = stage_timer.ElapsedMillis();
  RecordStage(Stage::kMerge, merge_ms);
  job->stage_ms[static_cast<int>(Stage::kMerge)] = merge_ms;

  stage_timer.Reset();
  obs::SpanLedger::Span finalize_span =
      ctx.Begin("finalize", static_cast<int64_t>(final_result.match_count));
  // Service-level latency: queue wait + all slices (+ retries/backoff).
  final_result.total_ms = job->timer.ElapsedMillis();
  // Refine the plan cache's demand predictor with the observed peak, so
  // the next submission of this canonical query reserves what it really
  // needs instead of the cold heuristic.
  if (final_result.status.ok()) {
    PlanCache::RecordDemand(job->demand_history,
                            final_result.counters.pages_peak);
    // Same feedback idea for the cost planner: the observed work joins
    // the plan's history, and a large gap against the planner's estimate
    // replans the cached order with the drift calibrated in.
    PlanCache::RecordWork(job->work_history,
                          static_cast<int64_t>(
                              final_result.counters.work_units));
  }
  const double finalize_ms = stage_timer.ElapsedMillis();
  RecordStage(Stage::kFinalize, finalize_ms);
  job->stage_ms[static_cast<int>(Stage::kFinalize)] = finalize_ms;

  if (options_.slow_query_ms > 0 &&
      final_result.total_ms >= options_.slow_query_ms) {
    // One line, grep-able key=value pairs: enough to attribute the
    // latency without a trace attached. The breakdown sums (to within
    // scheduling noise) to total_ms for single-device jobs; multi-device
    // breakdowns are per-stage critical paths.
    std::ostringstream line;
    line << "slow query: job=" << job->job_id << " fingerprint=0x"
         << std::hex << job->fingerprint << std::dec
         << " status=" << (final_result.status.ok() ? "ok" : "error")
         << " total_ms=" << final_result.total_ms << " stages_ms={";
    for (int s = 0; s <= static_cast<int>(Stage::kFinalize); ++s) {
      if (s > 0) {
        line << " ";
      }
      line << StageName(static_cast<Stage>(s)) << ":" << job->stage_ms[s];
    }
    line << "} devices=" << num_devices
         << " matches=" << final_result.match_count
         << " pages_peak=" << final_result.counters.pages_peak
         << " spill_allocs=" << final_result.counters.spill_allocs
         << " spill_promotions=" << final_result.counters.spill_promotions
         << " attempts=" << final_result.counters.attempts;
    TDFS_LOG(Warning) << line.str();
  }

  finalize_span.End();
  job->root_span.SetArg(static_cast<int64_t>(final_result.match_count));
  job->root_span.End();
  inflight_jobs_.fetch_sub(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  obs::Add(obs_completed_);
  job->promise.set_value(std::move(final_result));
}

std::shared_ptr<const Graph> MatchService::Snapshot() const {
  return dynamic_graph_.Snapshot();
}

int64_t MatchService::GraphVersion() const { return dynamic_graph_.Version(); }

Result<int64_t> MatchService::RegisterContinuousQuery(const QueryGraph& query) {
  if (config_.induced) {
    return Status::InvalidArgument(
        "continuous queries require non-induced matching (the incremental "
        "layer cannot maintain induced counts across deletions)");
  }
  // Holding update_mu_ across the initial count pins the graph version:
  // no batch can slip between the count and the registration. Workers
  // never take update_mu_, so waiting on the future here cannot deadlock.
  std::lock_guard<std::mutex> update_lock(update_mu_);
  RunResult initial = Submit(query).get();
  if (!initial.status.ok()) {
    return initial.status;
  }
  const int64_t id = next_query_id_++;
  continuous_.emplace(id, ContinuousQuery{query, initial.match_count});
  return id;
}

Status MatchService::UnregisterContinuousQuery(int64_t id) {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  if (continuous_.erase(id) == 0) {
    return Status::InvalidArgument("unknown continuous query id " +
                                   std::to_string(id));
  }
  return Status::OK();
}

Result<uint64_t> MatchService::ContinuousQueryCount(int64_t id) const {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  const auto it = continuous_.find(id);
  if (it == continuous_.end()) {
    return Status::InvalidArgument("unknown continuous query id " +
                                   std::to_string(id));
  }
  return it->second.count;
}

Result<MatchService::BatchUpdateReport> MatchService::ApplyUpdate(
    const dyn::GraphDelta& delta) {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  Timer timer;

  // Batches are serialized by update_mu_, so one "updates" timeline row
  // keeps its spans balanced.
  obs::SpanLedger* ledger =
      config_.trace != nullptr ? config_.trace->spans() : nullptr;
  obs::SpanLedger::Span batch_span;
  if (ledger != nullptr) {
    if (delta_track_ == 0) {
      delta_track_ = ledger->NewTrackId("updates");
    }
    batch_span = ledger->Begin("delta_apply", delta_track_);
  }

  const std::shared_ptr<const Graph> pre = dynamic_graph_.Snapshot();
  Result<std::shared_ptr<const Graph>> post = dynamic_graph_.Apply(delta);
  if (!post.ok()) {
    return post.status();
  }

  obs::MetricsRegistry* metrics;
  obs::TraceSession* trace = config_.trace;
  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics = metrics_;
  }

  BatchUpdateReport report;
  report.version = dynamic_graph_.Version();
  report.edges_inserted = static_cast<int64_t>(delta.insertions().size());
  report.edges_deleted = static_cast<int64_t>(delta.deletions().size());

  // The service's update pair and the shared plan cache serve every
  // query's maintenance in this batch — the repeated-batch path pays
  // neither allocation nor plan compilation. The pair is scrubbed after
  // each query's runs, as a worker scrubs its own after each slice.
  dyn::IncrementalOptions inc_options;
  inc_options.plan_provider = [this](const QueryGraph& q,
                                     const PlanOptions& po) {
    return plan_cache_.Get(q, po);
  };
  inc_options.resources = &update_resources_.view;
  inc_options.metrics = metrics;
  inc_options.trace = trace;

  uint64_t total_lost = 0;
  uint64_t total_gained = 0;
  for (auto& [id, cq] : continuous_) {
    QueryDelta qd;
    qd.id = id;
    qd.old_count = cq.count;
    Result<dyn::DeltaCountReport> inc = dyn::CountDeltaMatches(
        *pre, *post.value(), cq.query, delta, config_, inc_options);
    update_resources_.Scrub(config_);
    if (inc.ok()) {
      qd.lost = inc.value().lost;
      qd.gained = inc.value().gained;
      qd.new_count = inc.value().ApplyTo(cq.count);
      report.delta_plans_run += inc.value().delta_plans_run;
      report.seed_edges += inc.value().seed_edges;
    } else {
      // Fall back to a full recount so the registered count never goes
      // stale; only a recount failure aborts the batch (the graph is
      // already published, so surface the error loudly).
      qd.recounted = true;
      PlanOptions plan_options = PlanOptionsFor(config_);
      std::shared_ptr<const GraphStats> recount_stats;
      if (config_.planner == PlannerKind::kCost) {
        recount_stats = StatsFor(post.value());
        plan_options.stats = recount_stats.get();
      }
      Result<std::shared_ptr<const MatchPlan>> plan =
          plan_cache_.Get(cq.query, plan_options);
      if (!plan.ok()) {
        return plan.status();
      }
      EngineConfig recount_config = config_;
      recount_config.resources = &update_resources_.view;
      const RunResult full =
          RunMatchingPlanned(*post.value(), *plan.value(), recount_config);
      update_resources_.Scrub(config_);
      if (!full.status.ok()) {
        return full.status;
      }
      qd.new_count = full.match_count;
    }
    total_lost += qd.lost;
    total_gained += qd.gained;
    cq.count = qd.new_count;
    report.queries.push_back(qd);
  }

  batches_applied_.fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    obs::Add(metrics->GetCounter("dyn.batches_applied"));
    obs::Add(metrics->GetCounter("dyn.edges_inserted"), report.edges_inserted);
    obs::Add(metrics->GetCounter("dyn.edges_deleted"), report.edges_deleted);
    obs::Add(metrics->GetCounter("dyn.matches_lost"),
             static_cast<int64_t>(total_lost));
    obs::Add(metrics->GetCounter("dyn.matches_gained"),
             static_cast<int64_t>(total_gained));
  }
  if (trace != nullptr) {
    trace->RecordGlobal(0, obs::TraceEvent::kDeltaBatch, report.version);
  }
  batch_span.SetArg(report.version);
  batch_span.End();
  report.total_ms = timer.ElapsedMillis();
  RecordStage(Stage::kDeltaApply, report.total_ms);
  return report;
}

MatchService::Stats MatchService::GetStats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.plan_cache_hits = plan_cache_.hits();
  stats.plan_cache_misses = plan_cache_.misses();
  stats.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  stats.reservation_timeouts =
      reservation_timeouts_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    stats.continuous_queries = static_cast<int64_t>(continuous_.size());
  }
  for (int s = 0; s < kNumStages; ++s) {
    const obs::Histogram& h = stage_hist_[s];
    if (h.Count() == 0) {
      continue;
    }
    Stats::StageStats stage;
    stage.stage = StageName(static_cast<Stage>(s));
    stage.count = h.Count();
    stage.p50_us = h.ApproxPercentile(0.5);
    stage.p95_us = h.ApproxPercentile(0.95);
    stage.p99_us = h.ApproxPercentile(0.99);
    stage.max_us = h.Max();
    stats.stages.push_back(std::move(stage));
  }
  return stats;
}

Status MatchService::StartMetricsServer(int port) {
  const obs::MetricsRegistry* registry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (metrics_server_.running()) {
      return Status::FailedPrecondition("metrics server already running");
    }
    registry = metrics_;
  }
  if (registry == nullptr) {
    // No registry attached: serve an internal one so `tdfs serve` works
    // without the embedder wiring up observability first.
    if (owned_metrics_ == nullptr) {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    }
    AttachMetrics(owned_metrics_.get());
    registry = owned_metrics_.get();
  }
  return metrics_server_.Start(registry, port);
}

void MatchService::StopMetricsServer() { metrics_server_.Stop(); }

Status MatchService::ServeMetrics(int port, double duration_ms) {
  Status status = StartMetricsServer(port);
  if (!status.ok()) {
    return status;
  }
  Timer timer;
  while (metrics_server_.running() &&
         (duration_ms < 0 || timer.ElapsedMillis() < duration_ms)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  StopMetricsServer();
  return Status::OK();
}

}  // namespace tdfs
