#include "service/match_service.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/matcher.h"
#include "dyn/graph_delta.h"
#include "graph/generators.h"
#include "query/patterns.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/prng.h"

namespace tdfs {
namespace {

class MatchServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::DisarmAll();
    graph_ = std::make_unique<Graph>(GenerateBarabasiAlbert(500, 4, 12));
    config_ = TdfsConfig();
    config_.num_warps = 4;
    config_.page_pool_pages = 256;
    config_.page_bytes = 1024;
    config_.queue_capacity_ints = 3 * 1024;
  }
  void TearDown() override { fail::DisarmAll(); }

  std::unique_ptr<Graph> graph_;
  EngineConfig config_;
};

TEST_F(MatchServiceTest, AsyncResultsMatchOneShotRuns) {
  std::vector<uint64_t> expected;
  for (int pattern : {1, 2, 5}) {
    RunResult r = RunMatching(*graph_, Pattern(pattern), config_);
    ASSERT_TRUE(r.status.ok()) << r.status;
    expected.push_back(r.match_count);
  }

  ServiceOptions options;
  options.num_workers = 2;
  MatchService service(*graph_, config_, options);
  std::vector<std::future<RunResult>> futures;
  for (int round = 0; round < 3; ++round) {
    for (int pattern : {1, 2, 5}) {
      futures.push_back(service.Submit(Pattern(pattern)));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    RunResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.match_count, expected[i % 3]) << "job " << i;
  }
  const MatchService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.submitted, 9);
  EXPECT_EQ(stats.completed, 9);
  EXPECT_EQ(stats.plan_cache_misses, 3);
  EXPECT_EQ(stats.plan_cache_hits, 6);
}

TEST_F(MatchServiceTest, MultiDeviceJobsMergeLikeTheSyncPath) {
  // One warp on the virtual clock makes every counter replayable, so the
  // service's concurrent slice merge must reproduce the direct run's
  // sequential merge field for field. Both runs are traced so the
  // attribution merge is exercised too.
  config_.num_devices = 3;
  config_.num_warps = 1;
  config_.clock = ClockKind::kVirtual;
  obs::TraceSession sync_trace;
  EngineConfig sync_config = config_;
  sync_config.trace = &sync_trace;
  RunResult sync = RunMatching(*graph_, Pattern(2), sync_config);
  ASSERT_TRUE(sync.status.ok()) << sync.status;

  obs::TraceSession service_trace;
  EngineConfig service_config = config_;
  service_config.trace = &service_trace;
  MatchService service(*graph_, service_config);
  RunResult r = service.Submit(Pattern(2)).get();
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.match_count, sync.match_count);
  EXPECT_EQ(r.per_device_ms.size(), 3u);
  EXPECT_EQ(r.per_device_ms.size(), sync.per_device_ms.size());
  // Every counter except the wall-clock *_ms fields.
#define TDFS_FIELD_EXPECT(name)                                            \
  if constexpr (!std::is_floating_point_v<decltype(RunCounters::name)>) { \
    EXPECT_EQ(r.counters.name, sync.counters.name) << #name;              \
  }
  TDFS_RUN_COUNTER_FIELDS(TDFS_FIELD_EXPECT)
#undef TDFS_FIELD_EXPECT
  // Attribution: same buckets with the same call counts (the sampled ns
  // are wall time).
  ASSERT_FALSE(sync.attribution.Empty());
  ASSERT_EQ(r.attribution.cells.size(), sync.attribution.cells.size());
  for (size_t i = 0; i < sync.attribution.cells.size(); ++i) {
    EXPECT_EQ(r.attribution.cells[i].name, sync.attribution.cells[i].name);
    EXPECT_EQ(r.attribution.cells[i].calls, sync.attribution.cells[i].calls)
        << sync.attribution.cells[i].name;
  }
  ASSERT_EQ(r.attribution.arms.size(), sync.attribution.arms.size());
  for (size_t i = 0; i < sync.attribution.arms.size(); ++i) {
    EXPECT_EQ(r.attribution.arms[i].arm, sync.attribution.arms[i].arm);
    EXPECT_EQ(r.attribution.arms[i].calls, sync.attribution.arms[i].calls)
        << sync.attribution.arms[i].cell << "/" << sync.attribution.arms[i].arm;
  }
}

TEST_F(MatchServiceTest, ShardedJobsRunAsOneSliceAndMatchTheOracle) {
  // Sharded configs must not be split across service device slices: the
  // shard runner owns the fan-out, and the service schedules the job as a
  // single slice that dispatches through RunMatchingPlanned.
  config_.num_devices = 2;
  config_.sharding = ShardingKind::kGreedy;
  config_.num_shards = 3;
  RunResult ref = RunMatchingRef(*graph_, Pattern(2), config_);
  ASSERT_TRUE(ref.status.ok()) << ref.status;

  MatchService service(*graph_, config_);
  RunResult r = service.Submit(Pattern(2)).get();
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.match_count, ref.match_count);
  // Per-shard stats prove the job actually went through the shard
  // runner rather than the per-device slice path.
  EXPECT_EQ(r.per_shard.size(), 3u);
}

TEST_F(MatchServiceTest, AdmissionControlRejectsBeyondBound) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_pending_jobs = 2;
  MatchService service(*graph_, config_, options);
  std::vector<std::future<RunResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(service.Submit(Pattern(8)));
  }
  int rejected = 0;
  for (auto& f : futures) {
    RunResult r = f.get();
    if (r.status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    } else {
      EXPECT_TRUE(r.status.ok()) << r.status;
    }
  }
  EXPECT_GT(rejected, 0) << "no submission hit the admission bound";
  EXPECT_EQ(service.GetStats().rejected, rejected);
}

TEST_F(MatchServiceTest, PerJobDeadlineAborts) {
  // An effectively-zero kernel deadline must abort the job with
  // kDeadlineExceeded while leaving other jobs untouched.
  config_.clock = ClockKind::kVirtual;
  MatchService service(*graph_, config_);
  JobOptions strangled;
  strangled.deadline_ms = 1e-9;
  RunResult aborted = service.Submit(Pattern(8), strangled).get();
  EXPECT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded);

  RunResult fine = service.Submit(Pattern(1)).get();
  EXPECT_TRUE(fine.status.ok()) << fine.status;
}

TEST_F(MatchServiceTest, AbortedJobLeavesNoTasksForTheNextJob) {
  // One worker, so both jobs run on the same page pool and task queue.
  // The first job decomposes into queue tasks (tiny virtual tau) that its
  // warps cannot dequeue (failpoint), and its deadline ends it with them
  // still queued; the worker's scrub must hand the next job an empty
  // queue, or it would run the ghost tasks. One warp on the virtual clock
  // makes work_units replayable against a direct run.
  config_.num_warps = 1;
  config_.clock = ClockKind::kVirtual;
  config_.timeout_work_units = 16;
  const RunResult direct = RunMatching(*graph_, Pattern(2), config_);
  ASSERT_TRUE(direct.status.ok()) << direct.status;

  ServiceOptions options;
  options.num_workers = 1;
  MatchService service(*graph_, config_, options);
  JobOptions strangled;
  strangled.deadline_ms = 1e-9;
  fail::Arm("queue_dequeue", fail::Trigger::Always());
  const RunResult aborted = service.Submit(Pattern(8), strangled).get();
  fail::DisarmAll();
  ASSERT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_GT(aborted.counters.tasks_enqueued, aborted.counters.tasks_dequeued)
      << "the aborted job left no queued tasks behind";

  // (Without the scrub this run does not finish.)
  const RunResult next = service.Submit(Pattern(2)).get();
  ASSERT_TRUE(next.status.ok()) << next.status;
  EXPECT_EQ(next.match_count, direct.match_count);
  EXPECT_EQ(next.counters.work_units, direct.counters.work_units);
}

TEST_F(MatchServiceTest, UnpooledConfigJobsMatchDirectRuns) {
  // Under an array stack with no stealing a worker holds neither a page
  // pool nor a task queue; its jobs must run on the engine's own
  // allocation and still equal direct runs, job after job.
  config_.stack = StackKind::kArrayMaxDegree;
  config_.steal = StealStrategy::kNone;
  std::vector<uint64_t> expected;
  for (int pattern : {1, 2, 5}) {
    const RunResult r = RunMatching(*graph_, Pattern(pattern), config_);
    ASSERT_TRUE(r.status.ok()) << r.status;
    expected.push_back(r.match_count);
  }

  ServiceOptions options;
  options.num_workers = 1;
  MatchService service(*graph_, config_, options);
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < expected.size(); ++i) {
      const int pattern = i == 0 ? 1 : (i == 1 ? 2 : 5);
      const RunResult r = service.Submit(Pattern(pattern)).get();
      ASSERT_TRUE(r.status.ok()) << r.status;
      EXPECT_EQ(r.match_count, expected[i])
          << PatternName(pattern) << " round " << round;
      EXPECT_EQ(r.counters.tasks_enqueued, 0);
    }
  }
}

TEST_F(MatchServiceTest, PerJobFailuresDoNotPoisonTheService) {
  config_.retry.max_attempts = 1;
  MatchService service(*graph_, config_);
  // The 2nd device_run call dies; only the job running then fails.
  fail::Arm("device_run", fail::Trigger::Nth(2));
  std::vector<std::future<RunResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.Submit(Pattern(1)));
  }
  int failed = 0;
  int ok = 0;
  for (auto& f : futures) {
    RunResult r = f.get();
    r.status.ok() ? ++ok : ++failed;
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(ok, 3);
}

TEST_F(MatchServiceTest, DestructionDrainsQueuedJobs) {
  std::vector<std::future<RunResult>> futures;
  {
    ServiceOptions options;
    options.num_workers = 1;
    MatchService service(*graph_, config_, options);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(service.Submit(Pattern(2)));
    }
    // Destructor runs with most jobs still queued.
  }
  for (auto& f : futures) {
    RunResult r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status;
  }
}

TEST_F(MatchServiceTest, StatsAndMetricsAgree) {
  obs::MetricsRegistry metrics;
  MatchService service(*graph_, config_);
  service.AttachMetrics(&metrics);
  ASSERT_TRUE(service.Submit(Pattern(1)).get().status.ok());
  ASSERT_TRUE(service.Submit(Pattern(1)).get().status.ok());
  EXPECT_EQ(metrics.GetCounter("service.jobs_submitted")->Value(), 2);
  EXPECT_EQ(metrics.GetCounter("service.jobs_completed")->Value(), 2);
  EXPECT_EQ(metrics.GetCounter("service.plan_cache_hits")->Value(), 1);
}

// Samples a valid delta against `g`: existing edges for deletions,
// absent pairs for insertions.
dyn::GraphDelta ServiceTestDelta(const Graph& g, int num_ins, int num_del,
                                 uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<dyn::EdgePair> deletions;
  while (static_cast<int>(deletions.size()) < num_del) {
    const int64_t e = rng.Range(0, g.NumDirectedEdges() - 1);
    const VertexId u = g.EdgeSource(e);
    const VertexId v = g.EdgeTarget(e);
    deletions.emplace_back(u, v);
  }
  std::vector<dyn::EdgePair> insertions;
  while (static_cast<int>(insertions.size()) < num_ins) {
    const VertexId u =
        static_cast<VertexId>(rng.Range(0, g.NumVertices() - 1));
    const VertexId v =
        static_cast<VertexId>(rng.Range(0, g.NumVertices() - 1));
    if (u == v || g.HasEdge(u, v)) {
      continue;
    }
    insertions.emplace_back(u, v);
  }
  return dyn::GraphDelta::Build(std::move(insertions), std::move(deletions))
      .value();
}

TEST_F(MatchServiceTest, ContinuousQueriesTrackBatchUpdates) {
  obs::MetricsRegistry metrics;
  MatchService service(*graph_, config_);
  service.AttachMetrics(&metrics);

  Result<int64_t> id1 = service.RegisterContinuousQuery(Pattern(1));
  Result<int64_t> id2 = service.RegisterContinuousQuery(Pattern(2));
  ASSERT_TRUE(id1.ok()) << id1.status();
  ASSERT_TRUE(id2.ok()) << id2.status();
  EXPECT_EQ(service.GetStats().continuous_queries, 2);

  for (int batch = 0; batch < 3; ++batch) {
    const dyn::GraphDelta delta =
        ServiceTestDelta(*service.Snapshot(), 4, 3, 100 + batch);
    Result<MatchService::BatchUpdateReport> report =
        service.ApplyUpdate(delta);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report.value().version, batch + 1);
    ASSERT_EQ(report.value().queries.size(), 2u);

    // Maintained counts must equal a full recount on the new snapshot.
    for (int pattern : {1, 2}) {
      const int64_t id = pattern == 1 ? id1.value() : id2.value();
      const RunResult full =
          RunMatching(*service.Snapshot(), Pattern(pattern), config_);
      ASSERT_TRUE(full.status.ok());
      Result<uint64_t> maintained = service.ContinuousQueryCount(id);
      ASSERT_TRUE(maintained.ok());
      EXPECT_EQ(maintained.value(), full.match_count)
          << "pattern " << pattern << " after batch " << batch;
    }
  }
  EXPECT_EQ(service.GraphVersion(), 3);
  EXPECT_EQ(service.GetStats().batches_applied, 3);
  EXPECT_EQ(metrics.GetCounter("dyn.batches_applied")->Value(), 3);
  EXPECT_EQ(metrics.GetCounter("dyn.edges_inserted")->Value(), 12);
  EXPECT_EQ(metrics.GetCounter("dyn.edges_deleted")->Value(), 9);
  EXPECT_GT(metrics.GetCounter("dyn.delta_plans_run")->Value(), 0);
}

TEST_F(MatchServiceTest, InFlightJobsKeepTheirSnapshot) {
  MatchService service(*graph_, config_);
  // Submit against version 0, then immediately apply a batch. The job
  // captured its snapshot at Submit, so its count is the version-0 count
  // regardless of which side of the engine run the update lands on.
  const RunResult before = RunMatching(*graph_, Pattern(2), config_);
  ASSERT_TRUE(before.status.ok());

  std::future<RunResult> f = service.Submit(Pattern(2));
  const dyn::GraphDelta delta = ServiceTestDelta(*graph_, 6, 4, 7);
  ASSERT_TRUE(service.ApplyUpdate(delta).ok());

  const RunResult r = f.get();
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, before.match_count);

  // A job submitted after the batch sees the new graph.
  const RunResult after =
      RunMatching(*service.Snapshot(), Pattern(2), config_);
  ASSERT_TRUE(after.status.ok());
  const RunResult r2 = service.Submit(Pattern(2)).get();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.match_count, after.match_count);
}

TEST_F(MatchServiceTest, UpdatesAndJobsRunConcurrentlyOnOneWorker) {
  // ApplyUpdate runs on the service's own pool and queue, never on a
  // worker's, so batches and jobs interleave freely even with a single
  // worker. Every job must count one of the versions it could have
  // snapshotted, and the maintained count must match a full recount.
  ServiceOptions options;
  options.num_workers = 1;
  MatchService service(*graph_, config_, options);
  Result<int64_t> id = service.RegisterContinuousQuery(Pattern(2));
  ASSERT_TRUE(id.ok()) << id.status();

  constexpr int kBatches = 3;
  std::vector<std::shared_ptr<const Graph>> versions = {service.Snapshot()};
  Status update_status;
  std::thread updater([&] {
    for (int batch = 0; batch < kBatches; ++batch) {
      const dyn::GraphDelta delta =
          ServiceTestDelta(*service.Snapshot(), 4, 3, 300 + batch);
      Result<MatchService::BatchUpdateReport> report =
          service.ApplyUpdate(delta);
      if (!report.ok()) {
        update_status = report.status();
        return;
      }
      versions.push_back(service.Snapshot());
    }
  });
  std::vector<std::future<RunResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.Submit(Pattern(2)));
  }
  std::vector<RunResult> results;
  for (auto& f : futures) {
    results.push_back(f.get());
  }
  updater.join();
  ASSERT_TRUE(update_status.ok()) << update_status;
  ASSERT_EQ(versions.size(), static_cast<size_t>(kBatches + 1));
  EXPECT_EQ(service.GraphVersion(), kBatches);

  std::vector<uint64_t> version_counts;
  for (const auto& g : versions) {
    const RunResult r = RunMatching(*g, Pattern(2), config_);
    ASSERT_TRUE(r.status.ok()) << r.status;
    version_counts.push_back(r.match_count);
  }
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "job " << i << ": "
                                        << results[i].status;
    EXPECT_NE(std::find(version_counts.begin(), version_counts.end(),
                        results[i].match_count),
              version_counts.end())
        << "job " << i << " counted " << results[i].match_count;
  }
  Result<uint64_t> maintained = service.ContinuousQueryCount(id.value());
  ASSERT_TRUE(maintained.ok()) << maintained.status();
  EXPECT_EQ(maintained.value(), version_counts.back());
}

TEST_F(MatchServiceTest, ApplyUpdateRejectsInvalidBatches) {
  MatchService service(*graph_, config_);
  // Re-inserting an edge the graph already has is invalid.
  const dyn::GraphDelta bad =
      dyn::GraphDelta::Build(
          {{graph_->EdgeSource(0), graph_->EdgeTarget(0)}}, {})
          .value();
  Result<MatchService::BatchUpdateReport> report = service.ApplyUpdate(bad);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(service.GraphVersion(), 0);
}

TEST_F(MatchServiceTest, ContinuousQueryHandlesAreValidated) {
  MatchService service(*graph_, config_);
  EXPECT_FALSE(service.ContinuousQueryCount(42).ok());
  EXPECT_FALSE(service.UnregisterContinuousQuery(42).ok());
  Result<int64_t> id = service.RegisterContinuousQuery(Pattern(1));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(service.UnregisterContinuousQuery(id.value()).ok());
  EXPECT_FALSE(service.ContinuousQueryCount(id.value()).ok());
  EXPECT_EQ(service.GetStats().continuous_queries, 0);
}

// ---- governor admission control ----

// A concurrent Submit storm against a tiny governor budget: every future
// must complete — served immediately, queued on the governor's waiters
// list and served as memory frees, or failed after its reservation
// deadline — and the stats must account for every submission exactly. No
// job may be silently dropped.
TEST_F(MatchServiceTest, SubmitStormUnderTinyGovernorBudget) {
  MemoryGovernor::Options gov_options;
  // Room for roughly two concurrent slice reservations of the heuristic
  // demand (~24 pages x 1 KiB); the rest of the storm has to wait.
  gov_options.budget_bytes = 64 * 1024;
  MemoryGovernor governor(gov_options);

  ServiceOptions options;
  options.num_workers = 4;
  options.max_pending_jobs = 1024;  // admission never rejects here
  options.governor = &governor;
  options.reserve_timeout_ms = 2000.0;  // generous: jobs are ms-scale
  constexpr int kJobs = 32;
  int ok_jobs = 0;
  int exhausted = 0;
  MatchService::Stats stats;
  {
    MatchService service(*graph_, config_, options);
    std::vector<std::future<RunResult>> futures;
    futures.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      futures.push_back(service.Submit(Pattern(1 + (i % 2))));
    }
    for (auto& future : futures) {
      RunResult r = future.get();  // every future must become ready
      if (r.status.ok()) {
        ++ok_jobs;
      } else if (r.status.code() == StatusCode::kResourceExhausted) {
        ++exhausted;
      } else {
        FAIL() << "unexpected job status: " << r.status;
      }
    }
    stats = service.GetStats();
  }  // workers joined: the last reservation holder has unwound
  EXPECT_EQ(ok_jobs + exhausted, kJobs);

  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.completed, kJobs);
  // Single-device jobs: one slice each, so every kResourceExhausted
  // future is exactly one recorded reservation timeout.
  EXPECT_EQ(stats.reservation_timeouts, exhausted);
  // All reservations released; nothing leaked into the governor.
  EXPECT_EQ(governor.reserved_bytes(), 0);
}

// Budget below a single slice's reservation: every admitted job waits its
// full deadline, fails kResourceExhausted, and is counted — the waiters
// queue degrades into deterministic deadline-expiry, never a hang.
TEST_F(MatchServiceTest, BudgetBelowOneSliceExpiresEveryJob) {
  MemoryGovernor::Options gov_options;
  gov_options.budget_bytes = 512;  // less than one 1 KiB page
  MemoryGovernor governor(gov_options);

  ServiceOptions options;
  options.num_workers = 2;
  options.governor = &governor;
  options.reserve_timeout_ms = 10.0;
  MatchService service(*graph_, config_, options);

  constexpr int kJobs = 6;
  std::vector<std::future<RunResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(service.Submit(Pattern(1)));
  }
  for (auto& future : futures) {
    RunResult r = future.get();
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status.ToString().find("reservation"), std::string::npos);
  }
  const MatchService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.completed, kJobs);
  EXPECT_EQ(stats.reservation_timeouts, kJobs);
  EXPECT_EQ(governor.reserved_bytes(), 0);
  EXPECT_EQ(governor.GetSnapshot().reserve_timeouts, kJobs);
}

// ---- per-stage latency attribution ----

TEST_F(MatchServiceTest, StatsCarryStageLatencyPercentiles) {
  MatchService service(*graph_, config_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Submit(Pattern(2)).get().status.ok());
  }
  const MatchService::Stats stats = service.GetStats();
  ASSERT_FALSE(stats.stages.empty());
  std::vector<std::string> seen;
  for (const MatchService::Stats::StageStats& stage : stats.stages) {
    seen.push_back(stage.stage);
    EXPECT_EQ(stage.count, 5) << stage.stage;
    EXPECT_LE(stage.p50_us, stage.p95_us) << stage.stage;
    EXPECT_LE(stage.p95_us, stage.p99_us) << stage.stage;
    EXPECT_GE(stage.max_us, 0) << stage.stage;
  }
  // Every submit-to-finalize stage ran for every job.
  for (const char* name :
       {"admission", "plan_cache", "snapshot", "queue_wait", "mem_reserve",
        "engine_run", "merge", "finalize"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), name), seen.end())
        << "missing stage " << name;
  }
  // No update was applied, so delta_apply has no samples.
  EXPECT_EQ(std::find(seen.begin(), seen.end(), "delta_apply"), seen.end());
}

TEST_F(MatchServiceTest, StageHistogramsExportViaMetrics) {
  obs::MetricsRegistry metrics;
  MatchService service(*graph_, config_);
  service.AttachMetrics(&metrics);
  ASSERT_TRUE(service.Submit(Pattern(1)).get().status.ok());
  EXPECT_EQ(metrics.GetHistogram("service.stage_us.engine_run")->Count(), 1);
  EXPECT_EQ(metrics.GetHistogram("service.stage_us.admission")->Count(), 1);
  EXPECT_EQ(metrics.GetHistogram("service.stage_us.finalize")->Count(), 1);
}

// Captures log lines emitted through the global sink for one scope.
class CapturedLog {
 public:
  CapturedLog() {
    previous_ = SetLogSink([this](LogLevel, const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    });
  }
  ~CapturedLog() { SetLogSink(previous_); }

  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
  LogSink previous_;
};

TEST_F(MatchServiceTest, SlowQueryLogBreaksDownJobLatency) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slow_query_ms = 1e-6;  // everything is slow
  CapturedLog captured;
  MatchService service(*graph_, config_, options);
  const RunResult r = service.Submit(Pattern(5)).get();
  ASSERT_TRUE(r.status.ok()) << r.status;

  std::string line;
  for (const std::string& candidate : captured.lines()) {
    if (candidate.find("slow query:") != std::string::npos) {
      line = candidate;
      break;
    }
  }
  ASSERT_FALSE(line.empty()) << "no slow-query line logged";
  EXPECT_NE(line.find("job="), std::string::npos);
  EXPECT_NE(line.find("fingerprint=0x"), std::string::npos);
  EXPECT_NE(line.find("status=ok"), std::string::npos);
  EXPECT_NE(line.find("devices=1"), std::string::npos);
  EXPECT_NE(line.find("pages_peak="), std::string::npos);
  EXPECT_NE(line.find("attempts="), std::string::npos);

  // Parse total_ms and the stages_ms breakdown; for a single-device job
  // the per-stage times must account for the job wall time.
  const auto number_after = [&line](const std::string& key) {
    const size_t at = line.find(key);
    EXPECT_NE(at, std::string::npos) << key << " missing: " << line;
    return at == std::string::npos ? 0.0
                                   : std::stod(line.substr(at + key.size()));
  };
  const double total_ms = number_after("total_ms=");
  double stage_sum = 0.0;
  for (const char* stage :
       {"admission:", "plan_cache:", "snapshot:", "queue_wait:",
        "mem_reserve:", "engine_run:", "merge:", "finalize:"}) {
    stage_sum += number_after(stage);
  }
  EXPECT_GT(total_ms, 0.0);
  // Within 5% of wall (plus a small absolute floor for sub-ms jobs where
  // scheduler noise dominates the percentage).
  EXPECT_LE(std::abs(stage_sum - total_ms),
            std::max(0.05 * total_ms, 0.5))
      << "stages " << stage_sum << " vs total " << total_ms << ": " << line;
}

TEST_F(MatchServiceTest, FastJobsAreNotLoggedAsSlow) {
  ServiceOptions options;
  options.slow_query_ms = 60000.0;  // nothing is slow
  CapturedLog captured;
  MatchService service(*graph_, config_, options);
  ASSERT_TRUE(service.Submit(Pattern(1)).get().status.ok());
  for (const std::string& line : captured.lines()) {
    EXPECT_EQ(line.find("slow query:"), std::string::npos) << line;
  }
}

// ---- Prometheus scrape endpoint ----

std::string ServiceHttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(MatchServiceTest, MetricsServerScrapesLiveService) {
  // No AttachMetrics call: the service provisions its own registry.
  MatchService service(*graph_, config_);
  ASSERT_TRUE(service.StartMetricsServer(0).ok());
  ASSERT_GT(service.metrics_port(), 0);
  ASSERT_TRUE(service.Submit(Pattern(1)).get().status.ok());

  const std::string response =
      ServiceHttpGet(service.metrics_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(
      response.find(
          "tdfs_service_jobs_completed{name=\"service.jobs_completed\"} 1"),
      std::string::npos);
  EXPECT_NE(response.find("tdfs_service_stage_us_engine_run_count"),
            std::string::npos);

  EXPECT_FALSE(service.StartMetricsServer(0).ok()) << "double start";
  service.StopMetricsServer();
  EXPECT_EQ(service.metrics_port(), 0);
  service.StopMetricsServer();  // idempotent
}

TEST_F(MatchServiceTest, MetricsServerUsesAttachedRegistry) {
  obs::MetricsRegistry metrics;
  MatchService service(*graph_, config_);
  service.AttachMetrics(&metrics);
  metrics.GetCounter("custom.marker")->Add(41);
  ASSERT_TRUE(service.StartMetricsServer(0).ok());
  const std::string response =
      ServiceHttpGet(service.metrics_port(), "/metrics");
  EXPECT_NE(response.find("tdfs_custom_marker{name=\"custom.marker\"} 41"),
            std::string::npos);
  service.StopMetricsServer();
}

// ---- span ledger integration ----

TEST_F(MatchServiceTest, JobsRecordSpanTreesOnTheTrace) {
  obs::TraceSession trace;
  config_.trace = &trace;
  config_.num_devices = 2;
  MatchService service(*graph_, config_);
  ASSERT_TRUE(service.Submit(Pattern(2)).get().status.ok());

  obs::SpanLedger* ledger = trace.spans();
  ASSERT_NE(ledger, nullptr);
  const std::vector<obs::SpanLedger::Record> records = ledger->Records();
  uint64_t root_id = 0;
  for (const obs::SpanLedger::Record& r : records) {
    if (r.name == "job") {
      root_id = r.id;
    }
  }
  ASSERT_NE(root_id, 0u) << "no job root span";
  std::vector<std::string> children;
  int engine_runs = 0;
  for (const obs::SpanLedger::Record& r : records) {
    EXPECT_GE(r.end_ns, r.start_ns) << r.name << " left open";
    if (r.parent == root_id) {
      children.push_back(r.name);
      if (r.name == "engine_run") {
        ++engine_runs;
      }
    }
  }
  for (const char* name :
       {"admission", "snapshot", "queue_wait", "merge", "finalize"}) {
    EXPECT_NE(std::find(children.begin(), children.end(), name),
              children.end())
        << "span " << name << " not under the job root";
  }
  EXPECT_EQ(engine_runs, 2) << "one engine_run span per device slice";
}

TEST_F(MatchServiceTest, ApplyUpdateRecordsDeltaSpanAndStage) {
  obs::TraceSession trace;
  config_.trace = &trace;
  MatchService service(*graph_, config_);
  ASSERT_TRUE(service.RegisterContinuousQuery(Pattern(1)).ok());
  const dyn::GraphDelta delta = ServiceTestDelta(*graph_, 3, 2, 5);
  ASSERT_TRUE(service.ApplyUpdate(delta).ok());

  bool found = false;
  for (const obs::SpanLedger::Record& r : trace.spans()->Records()) {
    if (r.name == "delta_apply") {
      found = true;
      EXPECT_GE(r.end_ns, r.start_ns);
      EXPECT_EQ(r.arg, 1) << "span arg carries the new graph version";
    }
  }
  EXPECT_TRUE(found);
  for (const MatchService::Stats::StageStats& stage :
       service.GetStats().stages) {
    if (stage.stage == "delta_apply") {
      EXPECT_EQ(stage.count, 1);
      return;
    }
  }
  FAIL() << "delta_apply stage missing from stats";
}

}  // namespace
}  // namespace tdfs
