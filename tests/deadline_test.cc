#include <gtest/gtest.h>

#include "core/matcher.h"
#include "graph/generators.h"
#include "query/patterns.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace tdfs {
namespace {

// The run-deadline mechanism (the paper's 'T' truncation): jobs past
// max_run_ms must abort with kDeadlineExceeded quickly and never silently
// report a partial count as a success.

Graph HeavyGraph() { return GenerateBarabasiAlbert(20000, 8, 1); }

TEST(DeadlineTest, DfsEngineAborts) {
  Graph g = HeavyGraph();
  EngineConfig config = TdfsConfig();
  config.max_run_ms = 50;
  Timer timer;
  RunResult r = RunMatching(g, Pattern(8), config);  // hexagon: huge job
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  // Must stop reasonably promptly (deadline + probe granularity + teardown).
  EXPECT_LT(timer.ElapsedMillis(), 2000.0);
}

TEST(DeadlineTest, HalfStealAborts) {
  Graph g = HeavyGraph();
  EngineConfig config = TdfsConfig();
  config.steal = StealStrategy::kHalfSteal;
  config.max_run_ms = 50;
  RunResult r = RunMatching(g, Pattern(8), config);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, NewKernelAborts) {
  Graph g = HeavyGraph();
  EngineConfig config = TdfsConfig();
  config.steal = StealStrategy::kNewKernel;
  config.newkernel_fanout_threshold = 16;
  config.newkernel_launch_overhead_ns = 0;
  config.max_run_ms = 50;
  Timer timer;
  RunResult r = RunMatching(g, Pattern(8), config);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(timer.ElapsedMillis(), 3000.0);
}

TEST(DeadlineTest, BfsEngineAborts) {
  Graph g = HeavyGraph();
  EngineConfig config = PbeConfig();
  config.max_run_ms = 50;
  Timer timer;
  RunResult r = RunMatchingBfs(g, Pattern(8), config);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(timer.ElapsedMillis(), 2000.0);
}

TEST(DeadlineTest, IdleWarpsHonourDeadline) {
  // A tiny virtual tau splits every chunk into queue tasks, but every
  // dequeue reports an empty queue: once the chunks are done, all warps
  // idle on work tokens that no task will return, and no DFS step is left
  // to probe the clock. The idle warps must read it themselves.
  Graph g = GenerateBarabasiAlbert(2000, 4, 3);
  EngineConfig config = TdfsConfig();
  config.clock = ClockKind::kVirtual;
  config.timeout_work_units = 64;
  config.max_run_ms = 200;
  fail::Arm("queue_dequeue", fail::Trigger::Always());
  Timer timer;
  RunResult r = RunMatching(g, Pattern(1), config);
  fail::DisarmAll();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status;
  EXPECT_GT(r.counters.tasks_enqueued, 0) << "no task was ever queued";
  EXPECT_EQ(r.counters.tasks_dequeued, 0);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
}

TEST(DeadlineTest, GenerousDeadlineDoesNotTrip) {
  Graph g = GenerateErdosRenyi(100, 400, 2);
  EngineConfig config = TdfsConfig();
  config.max_run_ms = 60'000;
  RunResult r = RunMatching(g, Pattern(2), config);
  EXPECT_TRUE(r.status.ok()) << r.status;
  RunResult oracle = RunMatchingRef(g, Pattern(2), config);
  EXPECT_EQ(r.match_count, oracle.match_count);
}

TEST(DeadlineTest, HostEdgeFilterPreprocessingRespectsDeadline) {
  // Regression: the deadline used to start only at kernel launch, so a
  // slow host-side prefilter could overrun max_run_ms unboundedly.
  Graph g = HeavyGraph();
  EngineConfig config = StmatchConfig();  // host_side_edge_filter = true
  config.max_run_ms = 0.01;  // expired before the filter loop finishes
  Timer timer;
  RunResult r = RunMatching(g, Pattern(8), config);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status.ToString().find("preprocessing"), std::string::npos)
      << r.status;
  EXPECT_LT(timer.ElapsedMillis(), 2000.0);
}

TEST(DeadlineTest, OomModelScanRespectsDeadline) {
  Graph g = HeavyGraph();
  EngineConfig config = EgsmConfig();  // builds the label index
  config.device_memory_budget_bytes = int64_t{1} << 40;  // scan, don't trip
  config.max_run_ms = 0.01;
  Timer timer;
  RunResult r = RunMatching(g, Pattern(8), config);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(timer.ElapsedMillis(), 2000.0);
}

TEST(DeadlineTest, GenerousDeadlineAllowsPreprocessing) {
  Graph g = GenerateErdosRenyi(100, 400, 2);
  EngineConfig config = StmatchConfig();
  config.max_run_ms = 60'000;
  RunResult r = RunMatching(g, Pattern(2), config);
  ASSERT_TRUE(r.status.ok()) << r.status;
  RunResult oracle = RunMatchingRef(g, Pattern(2), config);
  EXPECT_EQ(r.match_count, oracle.match_count);
}

TEST(DeadlineTest, ZeroMeansUnlimited) {
  Graph g = GenerateErdosRenyi(80, 250, 3);
  EngineConfig config = TdfsConfig();
  config.max_run_ms = 0.0;
  RunResult r = RunMatching(g, Pattern(3), config);
  EXPECT_TRUE(r.status.ok());
}

}  // namespace
}  // namespace tdfs
