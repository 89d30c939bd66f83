#include "core/match_sink.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/matcher.h"
#include "graph/generators.h"
#include "query/patterns.h"

namespace tdfs {
namespace {

TEST(MatchSinkTest, StoresUpToCapacity) {
  MatchSink sink(3, 2);
  VertexId a[3] = {1, 2, 3};
  VertexId b[3] = {4, 5, 6};
  VertexId c[3] = {7, 8, 9};
  EXPECT_TRUE(sink.Add(std::span<const VertexId>(a)));
  EXPECT_TRUE(sink.Add(std::span<const VertexId>(b)));
  EXPECT_FALSE(sink.Add(std::span<const VertexId>(c)));
  EXPECT_TRUE(sink.Full());
  ASSERT_EQ(sink.NumMatches(), 2);
  EXPECT_EQ(sink.Match(0)[0], 1);
  EXPECT_EQ(sink.Match(1)[2], 6);
}

TEST(MatchSinkTest, ZeroCapacityAlwaysFull) {
  MatchSink sink(2, 0);
  EXPECT_TRUE(sink.Full());
  VertexId a[2] = {1, 2};
  EXPECT_FALSE(sink.Add(std::span<const VertexId>(a)));
}

TEST(MatchSinkTest, ConcurrentAddsNeverExceedCapacity) {
  MatchSink sink(1, 1000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sink] {
      VertexId v[1] = {7};
      for (int i = 0; i < 1000; ++i) {
        sink.Add(std::span<const VertexId>(v));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(sink.NumMatches(), 1000);
}

// Regression: admission used to be check-then-act (an unsynchronized
// Full() pre-check followed by the counter bump), which let racing
// appenders all pass the check near the cap. Admission is now a single
// CAS: exactly `capacity` Adds may succeed, no matter how the threads
// interleave. Every thread writes a distinct payload so the test can
// also verify that no stored row is torn or duplicated.
TEST(MatchSinkTest, ConcurrentAdmissionIsExactAtCapacity) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  constexpr int64_t kCapacity = 3001;  // deliberately < kThreads*kPerThread
  MatchSink sink(2, kCapacity);
  std::atomic<int64_t> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, &admitted, t] {
      for (int i = 0; i < kPerThread; ++i) {
        VertexId v[2] = {static_cast<VertexId>(t),
                         static_cast<VertexId>(i)};
        if (sink.Add(std::span<const VertexId>(v))) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Exactness both ways: the sink holds exactly kCapacity rows, and
  // exactly kCapacity callers were told their Add succeeded.
  EXPECT_EQ(sink.NumMatches(), kCapacity);
  EXPECT_EQ(admitted.load(), kCapacity);
  std::set<std::pair<VertexId, VertexId>> rows;
  for (int64_t i = 0; i < sink.NumMatches(); ++i) {
    auto m = sink.Match(i);
    EXPECT_GE(m[0], 0);
    EXPECT_LT(m[0], kThreads);
    EXPECT_GE(m[1], 0);
    EXPECT_LT(m[1], kPerThread);
    rows.emplace(m[0], m[1]);
  }
  // Distinct payloads per (thread, iteration): duplicates would mean a
  // torn or double-copied row.
  EXPECT_EQ(rows.size(), static_cast<size_t>(kCapacity));
}

TEST(MatchSinkCollectTest, CollectsValidTriangles) {
  Graph g = GenerateErdosRenyi(100, 500, 91);
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  MatchSink sink(3, 1 << 20);
  RunResult r = RunMatchingCollect(g, triangle, TdfsConfig(), &sink);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(static_cast<uint64_t>(sink.NumMatches()), r.match_count);
  std::set<std::vector<VertexId>> distinct;
  for (int64_t i = 0; i < sink.NumMatches(); ++i) {
    auto m = sink.Match(i);
    EXPECT_TRUE(g.HasEdge(m[0], m[1]));
    EXPECT_TRUE(g.HasEdge(m[1], m[2]));
    EXPECT_TRUE(g.HasEdge(m[2], m[0]));
    distinct.insert(std::vector<VertexId>(m.begin(), m.end()));
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(sink.NumMatches()));
}

TEST(MatchSinkCollectTest, CountStaysExactWhenSinkFills) {
  Graph g = GenerateErdosRenyi(100, 500, 93);
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  RunResult full = RunMatching(g, triangle, TdfsConfig());
  ASSERT_TRUE(full.status.ok());
  ASSERT_GT(full.match_count, 5u);
  MatchSink sink(3, 5);
  RunResult r = RunMatchingCollect(g, triangle, TdfsConfig(), &sink);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.match_count, full.match_count);
  EXPECT_EQ(sink.NumMatches(), 5);
}

TEST(MatchSinkCollectTest, MatchesAgreeWithRefEnumeration) {
  Graph g = GenerateErdosRenyi(60, 250, 95);
  QueryGraph q = Pattern(1);  // diamond
  MatchSink sink(4, 1 << 20);
  RunResult r = RunMatchingCollect(g, q, TdfsConfig(), &sink);
  ASSERT_TRUE(r.status.ok());
  std::set<std::vector<VertexId>> from_engine;
  for (int64_t i = 0; i < sink.NumMatches(); ++i) {
    auto m = sink.Match(i);
    from_engine.insert(std::vector<VertexId>(m.begin(), m.end()));
  }
  std::set<std::vector<VertexId>> from_ref;
  RunResult ref = RunMatchingRef(
      g, q, TdfsConfig(), [&](std::span<const VertexId> m) {
        from_ref.insert(std::vector<VertexId>(m.begin(), m.end()));
      });
  ASSERT_TRUE(ref.status.ok());
  EXPECT_EQ(from_engine, from_ref);
}

TEST(MatchSinkCollectTest, EdgePatternCollection) {
  Graph g = GenerateErdosRenyi(40, 80, 97);
  QueryGraph edge(2, {{0, 1}});
  MatchSink sink(2, 1 << 20);
  RunResult r = RunMatchingCollect(g, edge, TdfsConfig(), &sink);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(static_cast<uint64_t>(sink.NumMatches()), r.match_count);
  for (int64_t i = 0; i < sink.NumMatches(); ++i) {
    auto m = sink.Match(i);
    EXPECT_TRUE(g.HasEdge(m[0], m[1]));
  }
}

TEST(MatchSinkCollectTest, MultiDeviceCollection) {
  Graph g = GenerateErdosRenyi(80, 350, 99);
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  EngineConfig config = TdfsConfig();
  config.num_devices = 2;
  MatchSink sink(3, 1 << 20);
  RunResult r = RunMatchingCollect(g, triangle, config, &sink);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(static_cast<uint64_t>(sink.NumMatches()), r.match_count);
}

// Regression: the counting and collection paths must agree on attempt
// accounting. The multi-device collect loop used to leave `attempts` at
// whatever the struct default was instead of deriving it from the device
// results like the counting path does; both paths (and their JSON
// exports) must report a consistent attempts >= 1.
TEST(MatchSinkCollectTest, AttemptsReportedConsistentlyWithCounting) {
  Graph g = GenerateErdosRenyi(80, 350, 99);
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  EngineConfig config = TdfsConfig();
  config.num_devices = 2;

  RunResult counted = RunMatching(g, triangle, config);
  ASSERT_TRUE(counted.status.ok());
  MatchSink sink(3, 1 << 20);
  RunResult collected = RunMatchingCollect(g, triangle, config, &sink);
  ASSERT_TRUE(collected.status.ok());

  EXPECT_GE(collected.counters.attempts, 1);
  EXPECT_EQ(collected.counters.attempts, counted.counters.attempts);
  EXPECT_NE(collected.ToJsonString().find("\"attempts\": 1"),
            std::string::npos);
}

std::set<std::vector<VertexId>> CollectRows(const Graph& g,
                                            const QueryGraph& q,
                                            const EngineConfig& config,
                                            RunResult* result) {
  MatchSink sink(q.NumVertices(), 1 << 20);
  *result = RunMatchingCollect(g, q, config, &sink);
  std::set<std::vector<VertexId>> rows;
  for (int64_t i = 0; i < sink.NumMatches(); ++i) {
    auto m = sink.Match(i);
    rows.insert(std::vector<VertexId>(m.begin(), m.end()));
  }
  return rows;
}

// Collection under a prefiltered, sharded config: the filtered CSR
// renumbers vertices and the shard runner has no sink, so collection runs
// unfiltered and unsharded — rows come out in original vertex ids, equal
// to the rows collected with both knobs off.
TEST(MatchSinkCollectTest, PrefilterAndShardingKeepOriginalIds) {
  Graph g = GenerateBarabasiAlbert(150, 4, 101);
  QueryGraph q = Pattern(1);  // diamond
  EngineConfig plain = TdfsConfig();
  plain.num_warps = 2;
  EngineConfig knobs = plain;
  knobs.prefilter = PrefilterKind::kNeighborhood;
  knobs.sharding = ShardingKind::kHash;
  knobs.num_shards = 3;

  RunResult plain_result;
  const auto plain_rows = CollectRows(g, q, plain, &plain_result);
  ASSERT_TRUE(plain_result.status.ok()) << plain_result.status;
  RunResult knobs_result;
  const auto knobs_rows = CollectRows(g, q, knobs, &knobs_result);
  ASSERT_TRUE(knobs_result.status.ok()) << knobs_result.status;

  RunResult ref = RunMatchingRef(g, q, plain);
  ASSERT_TRUE(ref.status.ok());
  EXPECT_EQ(knobs_result.match_count, ref.match_count);
  EXPECT_EQ(knobs_rows.size(), static_cast<size_t>(ref.match_count));
  EXPECT_EQ(knobs_rows, plain_rows);
  for (const auto& m : knobs_rows) {
    for (int u = 0; u < q.NumVertices(); ++u) {
      for (int v = u + 1; v < q.NumVertices(); ++v) {
        if (q.HasEdge(u, v)) {
          EXPECT_TRUE(g.HasEdge(m[u], m[v]));
        }
      }
    }
  }
  EXPECT_TRUE(knobs_result.per_shard.empty());
  EXPECT_EQ(knobs_result.counters.prefilter_original_vertices, 0);
}

// The per-worker graph budget gates collection exactly as it gates
// counting: an unsharded graph over budget fails before any row lands.
TEST(MatchSinkCollectTest, GraphBudgetGatesCollectionLikeCounting) {
  Graph g = GenerateErdosRenyi(80, 350, 99);
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  EngineConfig config = TdfsConfig();
  config.graph_budget_bytes = g.CsrBytes() - 1;
  for (int devices : {1, 2}) {
    config.num_devices = devices;
    RunResult counted = RunMatching(g, triangle, config);
    MatchSink sink(3, 1 << 20);
    RunResult collected = RunMatchingCollect(g, triangle, config, &sink);
    EXPECT_EQ(counted.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(collected.status.code(), counted.status.code());
    EXPECT_EQ(sink.NumMatches(), 0);
  }
  config.graph_budget_bytes = g.CsrBytes();
  MatchSink sink(3, 1 << 20);
  RunResult fits = RunMatchingCollect(g, triangle, config, &sink);
  ASSERT_TRUE(fits.status.ok()) << fits.status;
  EXPECT_EQ(static_cast<uint64_t>(sink.NumMatches()), fits.match_count);
}

}  // namespace
}  // namespace tdfs
