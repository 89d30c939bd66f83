#include "core/dfs_engine.h"

#include <gtest/gtest.h>

#include "core/match_sink.h"
#include "core/matcher.h"
#include "graph/generators.h"
#include "mem/page_allocator.h"
#include "query/automorphism.h"
#include "query/patterns.h"

namespace tdfs {
namespace {

// The tests in this file target the T-DFS engine specifically (timeout
// strategy, both stack backends, queue edge cases); cross-strategy and
// cross-engine equivalence lives in strategies_test.cc and
// engine_property_test.cc.

uint64_t Oracle(const Graph& g, const QueryGraph& q,
                const EngineConfig& config) {
  RunResult r = RunMatchingRef(g, q, config);
  EXPECT_TRUE(r.status.ok());
  return r.match_count;
}

TEST(TdfsEngineTest, MatchesOracleOnRandomGraph) {
  Graph g = GenerateErdosRenyi(150, 600, 11);
  EngineConfig config = TdfsConfig();
  config.num_warps = 4;
  for (int i : {1, 2, 3, 4, 8}) {
    RunResult r = RunMatching(g, Pattern(i), config);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.match_count, Oracle(g, Pattern(i), config))
        << PatternName(i);
  }
}

TEST(TdfsEngineTest, SingleWarpStillCorrect) {
  Graph g = GenerateBarabasiAlbert(120, 3, 2);
  EngineConfig config = TdfsConfig();
  config.num_warps = 1;
  RunResult r = RunMatching(g, Pattern(3), config);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, Oracle(g, Pattern(3), config));
}

TEST(TdfsEngineTest, EdgePatternCountsEdges) {
  Graph g = GenerateErdosRenyi(80, 200, 5);
  QueryGraph edge(2, {{0, 1}});
  RunResult r = RunMatching(g, edge, TdfsConfig());
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, 200u);
}

TEST(TdfsEngineTest, TrianglePatternOnLabeledGraph) {
  Graph g = GenerateErdosRenyi(150, 900, 8);
  g.AssignUniformLabels(3, 4);
  QueryGraph q(3, {{0, 1}, {1, 2}, {2, 0}});
  q.SetVertexLabel(0, 0);
  q.SetVertexLabel(1, 1);
  q.SetVertexLabel(2, 2);
  EngineConfig config = TdfsConfig();
  RunResult r = RunMatching(g, q, config);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, Oracle(g, q, config));
  EXPECT_GT(r.match_count, 0u);  // parameters chosen to be non-trivial
}

TEST(TdfsEngineTest, ArrayStackBackendsAgreeWithPaged) {
  Graph g = GenerateBarabasiAlbert(200, 4, 6);
  for (int i : {1, 2, 4}) {
    EngineConfig paged = TdfsConfig();
    EngineConfig array = TdfsConfig();
    array.stack = StackKind::kArrayMaxDegree;
    RunResult rp = RunMatching(g, Pattern(i), paged);
    RunResult ra = RunMatching(g, Pattern(i), array);
    ASSERT_TRUE(rp.status.ok());
    ASSERT_TRUE(ra.status.ok());
    EXPECT_EQ(rp.match_count, ra.match_count) << PatternName(i);
    EXPECT_FALSE(ra.counters.stack_overflow);
  }
}

TEST(TdfsEngineTest, UndersizedFixedStackTruncatesAndReportsOverflow) {
  // The STMatch 4096-capacity pitfall, shrunk: a fixed capacity far below
  // the real candidate set sizes must flag overflow (and the paper shows
  // the resulting counts are wrong).
  Graph g = GenerateBarabasiAlbert(300, 5, 9);
  EngineConfig config = TdfsConfig();
  config.stack = StackKind::kArrayFixed;
  config.fixed_stack_capacity = 4;
  RunResult r = RunMatching(g, Pattern(1), config);
  ASSERT_TRUE(r.status.ok());  // fixed-capacity mode reports, not fails
  EXPECT_TRUE(r.counters.stack_overflow);
  EXPECT_LT(r.match_count, Oracle(g, Pattern(1), config));
}

TEST(TdfsEngineTest, GenerousFixedStackIsCorrect) {
  Graph g = GenerateErdosRenyi(100, 400, 3);
  EngineConfig config = TdfsConfig();
  config.stack = StackKind::kArrayFixed;
  config.fixed_stack_capacity = 4096;
  RunResult r = RunMatching(g, Pattern(2), config);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.counters.stack_overflow);
  EXPECT_EQ(r.match_count, Oracle(g, Pattern(2), config));
}

TEST(TdfsEngineTest, ExhaustedPagePoolFailsLoudly) {
  Graph g = GenerateErdosRenyi(200, 1500, 4);
  EngineConfig config = TdfsConfig();
  config.page_pool_pages = 1;  // nowhere near enough
  config.page_bytes = 64;
  RunResult r = RunMatching(g, Pattern(2), config);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
}

TEST(TdfsEngineTest, TinyVirtualTimeoutForcesDecompositionAndStaysCorrect) {
  Graph g = GenerateBarabasiAlbert(250, 4, 12);
  EngineConfig config = TdfsConfig();
  config.clock = ClockKind::kVirtual;
  config.timeout_work_units = 64;  // fire constantly
  config.num_warps = 4;
  for (int i : {1, 3, 8}) {
    RunResult r = RunMatching(g, Pattern(i), config);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.match_count, Oracle(g, Pattern(i), config))
        << PatternName(i);
    EXPECT_GT(r.counters.tasks_enqueued, 0) << PatternName(i);
    EXPECT_EQ(r.counters.tasks_enqueued, r.counters.tasks_dequeued)
        << PatternName(i);
  }
}

TEST(TdfsEngineTest, TinyQueueTriggersFullPathAndStaysCorrect) {
  Graph g = GenerateBarabasiAlbert(250, 4, 12);
  EngineConfig config = TdfsConfig();
  config.clock = ClockKind::kVirtual;
  config.timeout_work_units = 64;
  config.queue_capacity_ints = 6;  // 2 tasks: constant full-queue rejections
  config.num_warps = 4;
  RunResult r = RunMatching(g, Pattern(8), config);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, Oracle(g, Pattern(8), config));
  EXPECT_GT(r.counters.queue_full_failures, 0);
}

TEST(TdfsEngineTest, StopLevelTwoOnlyMakesEdgeTasks) {
  Graph g = GenerateBarabasiAlbert(250, 4, 12);
  EngineConfig config = TdfsConfig();
  config.clock = ClockKind::kVirtual;
  config.timeout_work_units = 64;
  config.stop_level = 2;
  RunResult r = RunMatching(g, Pattern(3), config);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, Oracle(g, Pattern(3), config));
}

TEST(TdfsEngineTest, ReuseOnAndOffAgree) {
  Graph g = GenerateErdosRenyi(150, 700, 13);
  for (int i : {2, 6, 7, 10}) {  // dense patterns where reuse kicks in
    EngineConfig with = TdfsConfig();
    EngineConfig without = TdfsConfig();
    without.use_reuse = false;
    RunResult rw = RunMatching(g, Pattern(i), with);
    RunResult ro = RunMatching(g, Pattern(i), without);
    ASSERT_TRUE(rw.status.ok());
    ASSERT_TRUE(ro.status.ok());
    EXPECT_EQ(rw.match_count, ro.match_count) << PatternName(i);
  }
}

TEST(TdfsEngineTest, ReuseReducesIntersectionWork) {
  Graph g = GenerateErdosRenyi(400, 4000, 14);
  EngineConfig with = TdfsConfig();
  EngineConfig without = TdfsConfig();
  without.use_reuse = false;
  // 5-clique: every level >= 3 reuses the previous level's candidates.
  RunResult rw = RunMatching(g, Pattern(7), with);
  RunResult ro = RunMatching(g, Pattern(7), without);
  ASSERT_TRUE(rw.status.ok());
  ASSERT_TRUE(ro.status.ok());
  ASSERT_EQ(rw.match_count, ro.match_count);
  EXPECT_LT(rw.counters.work_units, ro.counters.work_units);
}

TEST(TdfsEngineTest, PageReleasingStaysCorrect) {
  Graph g = GenerateBarabasiAlbert(250, 4, 15);
  EngineConfig config = TdfsConfig();
  config.release_stack_pages = true;
  config.page_bytes = 64;  // small pages so the heuristic actually fires
  config.page_pool_pages = 65536;
  RunResult r = RunMatching(g, Pattern(3), config);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, Oracle(g, Pattern(3), config));
}

TEST(TdfsEngineTest, DegreeFilterOffStillCorrect) {
  Graph g = GenerateBarabasiAlbert(150, 3, 3);
  EngineConfig config = TdfsConfig();
  config.use_degree_filter = false;
  RunResult r = RunMatching(g, Pattern(2), config);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, Oracle(g, Pattern(2), config));
}

TEST(TdfsEngineTest, NoSymmetryBreakingMultipliesCounts) {
  Graph g = GenerateErdosRenyi(100, 400, 17);
  EngineConfig sym = TdfsConfig();
  EngineConfig nosym = TdfsConfig();
  nosym.use_symmetry_breaking = false;
  for (int i : {1, 2, 4}) {
    RunResult rs = RunMatching(g, Pattern(i), sym);
    RunResult rn = RunMatching(g, Pattern(i), nosym);
    ASSERT_TRUE(rs.status.ok());
    ASSERT_TRUE(rn.status.ok());
    EXPECT_EQ(rn.match_count,
              rs.match_count * AutomorphismCount(Pattern(i)))
        << PatternName(i);
  }
}

TEST(TdfsEngineTest, CountersReportInitialTasksAndEdges) {
  Graph g = GenerateErdosRenyi(100, 300, 19);
  RunResult r = RunMatching(g, Pattern(2), TdfsConfig());
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.counters.edges_scanned, g.NumDirectedEdges());
  EXPECT_GT(r.counters.initial_tasks, 0);
  EXPECT_LE(r.counters.initial_tasks, r.counters.edges_scanned);
  EXPECT_GT(r.counters.work_units, 0u);
}

TEST(TdfsEngineTest, PagedStackReportsPagePeak) {
  Graph g = GenerateBarabasiAlbert(200, 4, 21);
  RunResult r = RunMatching(g, Pattern(2), TdfsConfig());
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.counters.pages_peak, 0);
  EXPECT_GT(r.counters.stack_bytes_peak, 0);
}

TEST(TdfsEngineTest, HostSideEdgeFilterMatchesWarpSideFilter) {
  Graph g = GenerateBarabasiAlbert(150, 3, 23);
  EngineConfig warp_side = TdfsConfig();
  EngineConfig host_side = TdfsConfig();
  host_side.host_side_edge_filter = true;
  RunResult rw = RunMatching(g, Pattern(3), warp_side);
  RunResult rh = RunMatching(g, Pattern(3), host_side);
  ASSERT_TRUE(rw.status.ok());
  ASSERT_TRUE(rh.status.ok());
  EXPECT_EQ(rw.match_count, rh.match_count);
}

TEST(TdfsEngineTest, SeparateVertexRemovalMatches) {
  Graph g = GenerateErdosRenyi(120, 500, 29);
  EngineConfig config = TdfsConfig();
  config.separate_vertex_removal = true;
  RunResult r = RunMatching(g, Pattern(2), config);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, Oracle(g, Pattern(2), TdfsConfig()));
}

TEST(TdfsEngineTest, DisconnectedQueryRejected) {
  Graph g = GenerateErdosRenyi(50, 100, 1);
  QueryGraph q(4, {{0, 1}, {2, 3}});
  RunResult r = RunMatching(g, q, TdfsConfig());
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

// ---- kernel paths ----
// The leaf count, the page-run stack writes and the reuse base read as a
// span each have a closed-form or one-copy fast path; these pin them to
// the per-candidate behaviour: counts and work_units must not move.

// Random labeled graphs: a hub-heavy power law (leaf and reuse sets of a
// few hundred candidates) and a flat Erdős–Rényi graph.
std::vector<Graph> KernelPathGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(GenerateHubbedPowerLaw(400, 3, 3, 120, 21));
  graphs.push_back(GenerateErdosRenyi(300, 1800, 22));
  for (Graph& g : graphs) {
    g.AssignUniformLabels(4, 23);
  }
  return graphs;
}

// Virtual clock with a small tau, so queue tasks (and the level-2 reuse
// rebuild of 3-vertex tasks) run as well; work_units replay exactly.
EngineConfig KernelPathConfig() {
  EngineConfig config = TdfsConfig();
  config.num_warps = 2;
  config.clock = ClockKind::kVirtual;
  config.timeout_work_units = 512;
  return config;
}

TEST(KernelPathTest, LeafEmissionMatchesClosedFormCount) {
  // A sink switches the leaf to its per-candidate emission scan; without
  // one the leaf is counted in closed form. Both charge the same units,
  // and a full sink keeps emitting nothing while the count stays exact.
  constexpr int64_t kSinkCapacity = 1 << 16;
  const EngineConfig config = KernelPathConfig();
  for (const Graph& g : KernelPathGraphs()) {
    // P1-P11 (with and without symmetry restrictions) and their labeled
    // twins P12-P22.
    for (int i : AllPatternIndices()) {
      const QueryGraph q = Pattern(i);
      const RunResult counted = RunMatching(g, q, config);
      ASSERT_TRUE(counted.status.ok()) << counted.status;
      MatchSink sink(q.NumVertices(), kSinkCapacity);
      const RunResult emitted = RunMatchingCollect(g, q, config, &sink);
      ASSERT_TRUE(emitted.status.ok()) << emitted.status;
      EXPECT_EQ(emitted.match_count, counted.match_count) << PatternName(i);
      EXPECT_EQ(emitted.counters.work_units, counted.counters.work_units)
          << PatternName(i);
      EXPECT_EQ(sink.NumMatches(),
                std::min<int64_t>(static_cast<int64_t>(counted.match_count),
                                  kSinkCapacity))
          << PatternName(i);
      EXPECT_EQ(counted.match_count, Oracle(g, q, config)) << PatternName(i);
    }
  }
}

TEST(KernelPathTest, MultiPageLevelsMatchSinglePageRun) {
  // 64-byte pages (16 ids): nearly every stored level spans pages, so each
  // reuse base and leaf is gathered and each write is split into page
  // runs. Counts and work_units must equal the default-page run.
  for (const Graph& g : KernelPathGraphs()) {
    for (int i : AllPatternIndices()) {
      const EngineConfig config = KernelPathConfig();
      EngineConfig small_pages = config;
      small_pages.page_bytes = 64;
      small_pages.page_pool_pages = 65536;
      const RunResult want = RunMatching(g, Pattern(i), config);
      const RunResult got = RunMatching(g, Pattern(i), small_pages);
      ASSERT_TRUE(want.status.ok()) << want.status;
      ASSERT_TRUE(got.status.ok()) << got.status;
      EXPECT_EQ(got.match_count, want.match_count) << PatternName(i);
      EXPECT_EQ(got.counters.work_units, want.counters.work_units)
          << PatternName(i);
      EXPECT_FALSE(got.counters.stack_overflow) << PatternName(i);
    }
  }
}

// The wrong count of the run below with element-by-element stack writes.
constexpr uint64_t kStmatchTruncatedCount = 17379311;

TEST(KernelPathTest, StmatchFixedArrayStillTruncates) {
  // STMatch's hardcoded 4096-slot levels on a graph whose two hubs have
  // about 6600 neighbours each. The wedge extends its last position from
  // one backward neighbour, so a hub's whole adjacency overflows the
  // level. The run write must truncate exactly where the per-element
  // writes stopped, so the wrong count stays the same.
  const Graph g = GenerateHubbedPowerLaw(20000, 2, 2, 8000, 31);
  const QueryGraph wedge(3, {{0, 1}, {1, 2}});
  EngineConfig config = StmatchConfig();
  config.stack = StackKind::kArrayFixed;
  config.fixed_stack_capacity = 4096;
  config.num_warps = 2;
  const RunResult r = RunMatching(g, wedge, config);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_TRUE(r.counters.stack_overflow);
  EXPECT_LT(r.match_count, Oracle(g, wedge, config));
  EXPECT_EQ(r.match_count, kStmatchTruncatedCount);
}

// ---- borrowed resources (EngineConfig::resources) ----
// A MatchService worker lends its own page pool and task queue to every
// run; these pin the engine's adoption rules that make that safe.

EngineConfig SmallPoolConfig() {
  EngineConfig config = TdfsConfig();
  config.num_warps = 4;
  config.page_pool_pages = 256;
  config.page_bytes = 1024;
  config.queue_capacity_ints = 3 * 1024;
  return config;
}

// An owned pool + queue at `config`'s geometry, as a service worker holds.
struct OwnedPair {
  explicit OwnedPair(const EngineConfig& config)
      : allocator(MakePageAllocator(config)),
        queue(std::make_unique<TaskQueue>(config.queue_capacity_ints)),
        view{allocator.get(), queue.get()} {}
  std::unique_ptr<PageAllocator> allocator;
  std::unique_ptr<TaskQueue> queue;
  EngineResources view;
};

TEST(EngineResourcesTest, WarmRunsMatchColdRunsExactly) {
  // One warp on the virtual clock: work_units replay exactly, so reuse
  // must leave both the count and the work bit-identical, run after run.
  Graph g = GenerateBarabasiAlbert(500, 4, 12);
  EngineConfig config = SmallPoolConfig();
  config.num_warps = 1;
  config.clock = ClockKind::kVirtual;
  config.timeout_work_units = 256;  // decompose, so the queue is used
  OwnedPair pair(config);
  EngineConfig warm = config;
  warm.resources = &pair.view;
  for (int pattern : {1, 2, 5}) {
    const RunResult cold = RunMatching(g, Pattern(pattern), config);
    ASSERT_TRUE(cold.status.ok()) << cold.status;
    for (int round = 0; round < 2; ++round) {
      const RunResult r = RunMatching(g, Pattern(pattern), warm);
      ASSERT_TRUE(r.status.ok()) << r.status;
      EXPECT_EQ(r.match_count, cold.match_count) << PatternName(pattern);
      EXPECT_EQ(r.counters.work_units, cold.counters.work_units)
          << PatternName(pattern);
      pair.queue->DrainForReuse();
    }
  }
}

TEST(EngineResourcesTest, AdoptedStatsResetBetweenRuns) {
  // Per-run peak counters must not leak from an earlier, heavier run into
  // a later, lighter one on the same pool. The exact peak is
  // timing-dependent (it counts warps concurrently holding pages), so the
  // leak detector is an inequality: without the reset at adoption the
  // light run would report at least the heavy run's peak.
  Graph g = GenerateBarabasiAlbert(500, 4, 12);
  EngineConfig config = SmallPoolConfig();
  const RunResult cold_light = RunMatching(g, Pattern(1), config);
  ASSERT_TRUE(cold_light.status.ok()) << cold_light.status;

  OwnedPair pair(config);
  EngineConfig warm = config;
  warm.resources = &pair.view;
  const RunResult heavy = RunMatching(g, Pattern(8), warm);
  ASSERT_TRUE(heavy.status.ok()) << heavy.status;
  ASSERT_GT(heavy.counters.pages_peak, cold_light.counters.pages_peak)
      << "workload mix no longer separates heavy from light";
  pair.queue->DrainForReuse();
  const RunResult light = RunMatching(g, Pattern(1), warm);
  ASSERT_TRUE(light.status.ok()) << light.status;
  EXPECT_LT(light.counters.pages_peak, heavy.counters.pages_peak)
      << "peak stat leaked from the previous run";
}

TEST(EngineResourcesTest, GeometryMismatchFallsBackToFreshAllocation) {
  Graph g = GenerateBarabasiAlbert(500, 4, 12);
  EngineConfig config = SmallPoolConfig();
  const RunResult cold = RunMatching(g, Pattern(2), config);
  ASSERT_TRUE(cold.status.ok()) << cold.status;

  // Resources sized for a DIFFERENT geometry: the engine must leave them
  // untouched and still count exactly.
  EngineConfig other = config;
  other.page_pool_pages = config.page_pool_pages * 2;
  other.queue_capacity_ints = config.queue_capacity_ints * 2;
  OwnedPair pair(other);
  EngineConfig warm = config;
  warm.resources = &pair.view;
  const RunResult r = RunMatching(g, Pattern(2), warm);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.match_count, cold.match_count);
  EXPECT_EQ(pair.allocator->PeakPagesInUse(), 0);
  EXPECT_EQ(pair.queue->BackTicket(), 0);
}

TEST(EngineResourcesTest, AdoptionRejectsLeakedPagesLoudly) {
  Graph g = GenerateBarabasiAlbert(200, 4, 12);
  EngineConfig config = SmallPoolConfig();
  OwnedPair pair(config);
  // Simulate a leaky previous borrower: a page is still out when the next
  // run tries to adopt. ResetStats would silently rebaseline the peak to
  // this leak; the engine must instead refuse the resources.
  const PageId leaked = pair.allocator->AllocPage();
  ASSERT_NE(leaked, kNullPage);
  EngineConfig warm = config;
  warm.resources = &pair.view;
  const RunResult r = RunMatching(g, Pattern(1), warm);
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition) << r.status;
  EXPECT_EQ(r.counters.adoption_rejects, 1);
  // With the leak repaired the same pool works again.
  pair.allocator->FreePage(leaked);
  const RunResult ok = RunMatching(g, Pattern(1), warm);
  EXPECT_TRUE(ok.status.ok()) << ok.status;
}

TEST(EngineResourcesTest, ScrubRewindsQueueTicketsToOrigin) {
  // A warm run leaves the borrowed queue's tickets mid-ring. The owner's
  // scrub (DrainForReuse) must rewind them, so the next run's traffic
  // lands on the same slots as on a cold queue: one warp on the virtual
  // clock replays the ticket trace exactly.
  Graph g = GenerateBarabasiAlbert(500, 4, 12);
  EngineConfig config = SmallPoolConfig();
  config.num_warps = 1;
  config.clock = ClockKind::kVirtual;
  config.timeout_work_units = 256;
  OwnedPair pair(config);
  EngineConfig warm = config;
  warm.resources = &pair.view;

  const RunResult first = RunMatching(g, Pattern(2), warm);
  ASSERT_TRUE(first.status.ok()) << first.status;
  const int64_t back_after_first = pair.queue->BackTicket();
  ASSERT_GT(back_after_first, 0) << "the run never used the queue";
  EXPECT_EQ(pair.queue->DrainForReuse(), 0) << "a clean run left tasks";
  EXPECT_EQ(pair.queue->FrontTicket(), 0);
  EXPECT_EQ(pair.queue->BackTicket(), 0);
  EXPECT_EQ(pair.queue->ApproxSize(), 0);

  const RunResult second = RunMatching(g, Pattern(2), warm);
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_EQ(pair.queue->BackTicket(), back_after_first);
  EXPECT_EQ(second.match_count, first.match_count);
}

TEST(EngineResourcesTest, NullMembersFallBackToFreshAllocation) {
  // A view may lend only one of the pair (a worker under an array-stack or
  // no-steal config holds none of the other). The engine must adopt what
  // is lent and allocate the rest itself. The virtual clock makes the
  // run decompose into queue tasks deterministically.
  Graph g = GenerateBarabasiAlbert(500, 4, 12);
  EngineConfig config = SmallPoolConfig();
  config.clock = ClockKind::kVirtual;
  config.timeout_work_units = 256;
  const RunResult cold = RunMatching(g, Pattern(2), config);
  ASSERT_TRUE(cold.status.ok()) << cold.status;

  OwnedPair pair(config);
  EngineResources pool_only{pair.allocator.get(), nullptr};
  EngineConfig warm = config;
  warm.resources = &pool_only;
  const RunResult r1 = RunMatching(g, Pattern(2), warm);
  ASSERT_TRUE(r1.status.ok()) << r1.status;
  EXPECT_EQ(r1.match_count, cold.match_count);
  EXPECT_GT(pair.allocator->PeakPagesInUse(), 0) << "lent pool not adopted";
  EXPECT_EQ(pair.queue->BackTicket(), 0) << "unlent queue was touched";

  EngineResources queue_only{nullptr, pair.queue.get()};
  warm.resources = &queue_only;
  pair.allocator->ResetStats();
  const RunResult r2 = RunMatching(g, Pattern(2), warm);
  ASSERT_TRUE(r2.status.ok()) << r2.status;
  EXPECT_EQ(r2.match_count, cold.match_count);
  EXPECT_EQ(pair.allocator->PeakPagesInUse(), 0) << "unlent pool was touched";
  EXPECT_GT(pair.queue->BackTicket(), 0) << "lent queue not adopted";
}

}  // namespace
}  // namespace tdfs
