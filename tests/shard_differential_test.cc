// Sharded-execution exactness sweep (src/shard/).
//
// Contract under test: sharding is a pure execution-layout change. Every
// engine preset (tdfs / stmatch / egsm / pbe) on every partitioner (hash /
// greedy) must produce the reference oracle's match count, and in
// deterministic configurations the sharded run must reproduce the
// unsharded run's work_units / edges_scanned / initial_tasks exactly —
// the bit-identical-work guarantee that makes the speedup comparisons in
// BENCH_shard.json honest.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/matcher.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "obs/trace.h"
#include "query/candidate_filter.h"
#include "query/patterns.h"
#include "shard/shard_runner.h"

namespace tdfs {
namespace {

Graph Unlabeled() { return GenerateErdosRenyi(160, 900, 9001); }
Graph Labeled() {
  Graph g = GenerateBarabasiAlbert(200, 4, 9002);
  g.AssignZipfLabels(6, 1.4, 9003);
  return g;
}

enum class EngineUnderTest { kDfs, kBfs };

struct EngineCase {
  const char* name;
  EngineUnderTest engine;
  EngineConfig (*make)();
};

EngineConfig CfgTdfs() {
  EngineConfig c = TdfsConfig();
  c.num_warps = 3;
  return c;
}
EngineConfig CfgStmatch() {
  EngineConfig c = StmatchConfig();
  c.num_warps = 3;
  return c;
}
EngineConfig CfgEgsm() {
  EngineConfig c = EgsmConfig();
  c.num_warps = 3;
  c.newkernel_launch_overhead_ns = 0;
  return c;
}
EngineConfig CfgPbe() {
  EngineConfig c = PbeConfig();
  c.bfs_memory_budget_bytes = 1 << 16;
  return c;
}

using SweepParam =
    std::tuple<const char*, EngineCase, ShardingKind, int, PrefilterKind>;

class ShardDifferentialTest : public ::testing::TestWithParam<SweepParam> {
};

TEST_P(ShardDifferentialTest, ShardedCountEqualsOracle) {
  const auto& [graph_name, engine_case, kind, pattern_index, prefilter] =
      GetParam();
  Graph g =
      std::string(graph_name) == "labeled" ? Labeled() : Unlabeled();
  QueryGraph q = Pattern(pattern_index);
  if (q.IsLabeled() && !g.IsLabeled()) {
    GTEST_SKIP() << "labeled query on unlabeled graph has no matches";
  }
  EngineConfig config = engine_case.make();
  RunResult oracle = RunMatchingRef(g, q, config);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status;
  config.sharding = kind;
  config.num_shards = 3;
  config.shard_halo_max_degree = 8;
  // Prefilter x sharding: the shard runner partitions the
  // candidate-induced CSR (RunMatchingSharded / RunBfsSharded on
  // fg.graph()).
  config.prefilter = prefilter;
  RunResult r = engine_case.engine == EngineUnderTest::kBfs
                    ? RunMatchingBfs(g, q, config)
                    : RunMatching(g, q, config);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.match_count, oracle.match_count)
      << graph_name << " / " << engine_case.name << " / "
      << ShardingKindName(kind) << " / " << PatternName(pattern_index)
      << " / " << PrefilterKindName(prefilter);
  int64_t sharded_edges = g.NumDirectedEdges();
  if (prefilter != PrefilterKind::kOff) {
    ASSERT_GT(r.counters.prefilter_original_vertices, 0);
    if (BuildFilteredGraph(g, q, prefilter).AnyCandidateSetEmpty()) {
      EXPECT_TRUE(r.per_shard.empty());  // zero matches, no engine ran
      return;
    }
    sharded_edges = 2 * r.counters.prefilter_kept_edges;
  }
  // Sharding actually engaged.
  ASSERT_EQ(r.per_shard.size(), 3u);
  int64_t owned = 0;
  for (const ShardRunStats& s : r.per_shard) {
    owned += s.owned_edges;
  }
  EXPECT_EQ(owned, sharded_edges);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& [graph_name, engine_case, kind, pattern_index, prefilter] =
      info.param;
  return std::string(graph_name) + "_" + engine_case.name + "_" +
         ShardingKindName(kind) + "_" + PatternName(pattern_index) +
         (prefilter == PrefilterKind::kOff
              ? ""
              : std::string("_") + PrefilterKindName(prefilter));
}

INSTANTIATE_TEST_SUITE_P(
    EngineSweep, ShardDifferentialTest,
    ::testing::Combine(
        ::testing::Values("unlabeled", "labeled"),
        ::testing::Values(
            EngineCase{"tdfs", EngineUnderTest::kDfs, CfgTdfs},
            EngineCase{"stmatch", EngineUnderTest::kDfs, CfgStmatch},
            EngineCase{"egsm", EngineUnderTest::kDfs, CfgEgsm},
            EngineCase{"pbe", EngineUnderTest::kBfs, CfgPbe}),
        ::testing::Values(ShardingKind::kHash, ShardingKind::kGreedy),
        ::testing::Values(1, 4, 7, 10),
        ::testing::Values(PrefilterKind::kOff, PrefilterKind::kNeighborhood)),
    SweepName);

// ---------------------------------------------------------------------------
// Exact work parity: in configurations whose total work is independent of
// scheduling (no decomposition, no child kernels, label index off), the
// sharded run must match the unsharded run's aggregate counters bit for
// bit, not just the count.
// ---------------------------------------------------------------------------

EngineConfig DetTimeout() {
  EngineConfig c = TdfsConfig();
  c.num_warps = 2;
  c.clock = ClockKind::kVirtual;
  c.timeout_work_units = ~uint64_t{0} >> 1;  // never decompose
  return c;
}
EngineConfig DetTimeoutNoRoute() {
  EngineConfig c = DetTimeout();
  c.shard_route_initial = false;
  return c;
}
EngineConfig DetNone() {
  EngineConfig c = TdfsConfig();
  c.num_warps = 2;
  c.steal = StealStrategy::kNone;
  return c;
}
EngineConfig DetHalfSteal() {
  EngineConfig c = StmatchConfig();
  c.num_warps = 1;  // no victims: no steal nondeterminism
  return c;
}
EngineConfig DetNewKernel() {
  EngineConfig c = EgsmConfig();
  c.num_warps = 2;
  c.use_label_index = false;  // shard views skip the index; align arms
  c.newkernel_fanout_threshold = 1 << 30;  // never spawn children
  return c;
}

struct DetCase {
  const char* name;
  EngineConfig (*make)();
};

using ParityParam = std::tuple<DetCase, ShardingKind>;

class ShardWorkParityTest : public ::testing::TestWithParam<ParityParam> {};

TEST_P(ShardWorkParityTest, ShardedWorkMatchesUnshardedBitForBit) {
  const auto& [det_case, kind] = GetParam();
  Graph g = Unlabeled();
  QueryGraph q = Pattern(4);
  EngineConfig base = det_case.make();
  RunResult unsharded = RunMatching(g, q, base);
  ASSERT_TRUE(unsharded.status.ok()) << unsharded.status;
  EngineConfig sharded_cfg = base;
  sharded_cfg.sharding = kind;
  sharded_cfg.num_shards = 3;
  RunResult sharded = RunMatching(g, q, sharded_cfg);
  ASSERT_TRUE(sharded.status.ok()) << sharded.status;
  EXPECT_EQ(sharded.match_count, unsharded.match_count);
  EXPECT_EQ(sharded.counters.work_units, unsharded.counters.work_units);
  EXPECT_EQ(sharded.counters.edges_scanned,
            unsharded.counters.edges_scanned);
  EXPECT_EQ(sharded.counters.initial_tasks,
            unsharded.counters.initial_tasks);
}

INSTANTIATE_TEST_SUITE_P(
    DeterministicConfigs, ShardWorkParityTest,
    ::testing::Combine(
        ::testing::Values(DetCase{"timeout", DetTimeout},
                          DetCase{"timeout_noroute", DetTimeoutNoRoute},
                          DetCase{"nosteal", DetNone},
                          DetCase{"halfsteal", DetHalfSteal},
                          DetCase{"newkernel", DetNewKernel}),
        ::testing::Values(ShardingKind::kHash, ShardingKind::kGreedy)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             ShardingKindName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Structural and capacity properties
// ---------------------------------------------------------------------------

TEST(ShardRunnerTest, ShardingAppliesRules) {
  EngineConfig c = TdfsConfig();
  EXPECT_FALSE(shard::ShardingApplies(c));  // kOff
  c.sharding = ShardingKind::kHash;
  EXPECT_FALSE(shard::ShardingApplies(c));  // 1 effective shard
  c.num_shards = 4;
  EXPECT_TRUE(shard::ShardingApplies(c));
  const std::vector<int64_t> seeds = {0, 1};
  c.initial_edges = &seeds;
  EXPECT_FALSE(shard::ShardingApplies(c));  // caller-supplied edge space
  c.initial_edges = nullptr;
  c.num_shards = 0;
  c.num_devices = 4;
  EXPECT_TRUE(shard::ShardingApplies(c));  // falls back to num_devices
}

TEST(ShardRunnerTest, RoutingRecordsCrossShardTraffic) {
  Graph g = Unlabeled();
  QueryGraph q = Pattern(4);
  EngineConfig c = DetTimeout();
  c.sharding = ShardingKind::kHash;
  c.num_shards = 3;
  c.shard_halo_max_degree = 0;  // no halo: every boundary edge routes
  RunResult r = RunMatching(g, q, c);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_GT(r.counters.shard_cross_msgs, 0);
  int64_t routed_out = 0;
  int64_t routed_in = 0;
  for (const ShardRunStats& s : r.per_shard) {
    routed_out += s.routed_out;
    routed_in += s.routed_in;
  }
  EXPECT_EQ(routed_out, r.counters.shard_cross_msgs);
  EXPECT_EQ(routed_in, routed_out);
  // Remote reads only below the (absent) halo: the fetch meters must have
  // seen the cross-shard adjacency traffic.
  EXPECT_GT(r.counters.shard_remote_reads, 0);
  EXPECT_EQ(r.counters.shard_halo_hits, 0);
}

TEST(ShardRunnerTest, HaloAbsorbsRemoteReads) {
  Graph g = Unlabeled();
  // 4-clique: every plan position extends from position 0, so every row
  // the engine intersects belongs to a neighbor of an owned vertex — all
  // 1-hop boundary, exactly what an uncapped halo caches. (Patterns with
  // non-adjacent roots reach 2-hop rows, which no halo covers.)
  QueryGraph q = Pattern(2);
  EngineConfig c = DetTimeout();
  c.sharding = ShardingKind::kHash;
  c.num_shards = 3;
  c.shard_halo_max_degree = g.MaxDegree();  // every boundary row cached
  RunResult r = RunMatching(g, q, c);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.counters.shard_remote_reads, 0);
  EXPECT_GT(r.counters.shard_halo_hits, 0);
  // With the full halo nothing is non-resident, so nothing routes.
  EXPECT_EQ(r.counters.shard_cross_msgs, 0);
}

TEST(ShardRunnerTest, GraphOverBudgetCompletesOnlySharded) {
  // The capacity story: a per-worker graph budget that the full CSR
  // exceeds but each shard's resident slice fits. Unsharded multi-device
  // must refuse; sharded across 4 workers must complete exactly.
  Graph g = GenerateErdosRenyi(400, 6000, 11);
  QueryGraph q = Pattern(1);
  PartitionSpec spec;
  spec.kind = ShardingKind::kGreedy;
  spec.num_shards = 4;
  spec.halo_max_degree = 8;
  auto part = GraphPartition::Build(g, spec);
  int64_t max_resident = 0;
  for (int s = 0; s < 4; ++s) {
    max_resident = std::max(max_resident, part->ResidentBytes(s));
  }
  ASSERT_LT(max_resident, g.CsrBytes())
      << "graph too small for the capacity scenario";

  EngineConfig c = TdfsConfig();
  c.num_warps = 2;
  c.graph_budget_bytes = max_resident;

  EngineConfig unsharded = c;
  unsharded.num_devices = 4;
  RunResult refused = RunMatching(g, q, unsharded);
  EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted)
      << refused.status;

  RunResult oracle = RunMatchingRef(g, q, TdfsConfig());
  ASSERT_TRUE(oracle.status.ok());

  EngineConfig sharded = c;
  sharded.sharding = ShardingKind::kGreedy;
  sharded.num_shards = 4;
  sharded.shard_halo_max_degree = 8;
  sharded.partition = part.get();  // exercises prebuilt-partition adoption
  RunResult r = RunMatching(g, q, sharded);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.match_count, oracle.match_count);

  // A budget below even one shard's footprint refuses sharded too.
  sharded.graph_budget_bytes = 1024;
  RunResult too_small = RunMatching(g, q, sharded);
  EXPECT_EQ(too_small.status.code(), StatusCode::kResourceExhausted);
}

TEST(ShardRunnerTest, NumaHintsAndPerShardStatsExported) {
  Graph g = Unlabeled();
  QueryGraph q = Pattern(4);
  EngineConfig c = DetTimeout();
  c.sharding = ShardingKind::kGreedy;
  c.num_shards = 4;
  c.numa_nodes = {0, 1};
  RunResult r = RunMatching(g, q, c);
  ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_EQ(r.per_shard.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(r.per_shard[s].shard_id, s);
    EXPECT_EQ(r.per_shard[s].numa_node, s % 2);
    EXPECT_GT(r.per_shard[s].resident_bytes, 0);
  }
  // Per-shard stats survive the JSON export.
  const std::string json = r.ToJsonString();
  EXPECT_NE(json.find("\"per_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"numa_node\""), std::string::npos);
}

TEST(ShardRunnerTest, TracedRunExportsShardGauges) {
  Graph g = Unlabeled();
  QueryGraph q = Pattern(4);
  obs::TraceSession trace;
  EngineConfig c = DetTimeout();
  c.sharding = ShardingKind::kHash;
  c.num_shards = 3;
  c.trace = &trace;
  RunResult r = RunMatching(g, q, c);
  ASSERT_TRUE(r.status.ok()) << r.status;
  const std::string json = r.ToJsonString(trace.metrics());
  EXPECT_NE(json.find("mem.shard0.arena_pages_peak"), std::string::npos);
  EXPECT_NE(json.find("mem.shard2.resident_bytes"), std::string::npos);
  EXPECT_NE(json.find("dfs.steal_probes"), std::string::npos);
}

TEST(ShardRunnerTest, StealProbesMeteredUnderHalfSteal) {
  // Satellite: randomized victim scans are counted. Probes bound
  // successes from above (every success required a probe).
  Graph g = Unlabeled();
  QueryGraph q = Pattern(4);
  EngineConfig c = StmatchConfig();
  c.num_warps = 4;
  RunResult r = RunMatching(g, q, c);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_GE(r.counters.steal_probes, r.counters.steal_successes);
  if (r.counters.steal_attempts > 0) {
    EXPECT_GT(r.counters.steal_probes, 0);
  }
}

}  // namespace
}  // namespace tdfs
