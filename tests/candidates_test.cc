#include "core/candidates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/matcher.h"
#include "graph/generators.h"
#include "query/patterns.h"
#include "util/prng.h"

namespace tdfs {
namespace {

// Direct unit tests of the shared candidate computation: the reuse path,
// label filtering, and the index-vs-CSR equivalence that all engines rely
// on.

MatchPlan CompileOrDie(const QueryGraph& q, PlanOptions opts = {}) {
  auto plan = CompilePlan(q, opts);
  TDFS_CHECK(plan.ok());
  return std::move(plan).value();
}

std::vector<VertexId> Candidates(const Graph& g, const MatchPlan& plan,
                                 const std::vector<VertexId>& match,
                                 int pos, const LabelIndex* index = nullptr) {
  CandidateScratch scratch;
  std::vector<VertexId> out;
  ComputeCandidates(g, index, plan, match.data(), pos, &scratch, &out,
                    nullptr);
  return out;
}

TEST(CandidatesTest, SingleBackwardNeighborCopiesAdjacency) {
  Graph g = GenerateErdosRenyi(50, 150, 1);
  QueryGraph path(3, {{0, 1}, {1, 2}});
  PlanOptions opts;
  opts.forced_order = {1, 0, 2};  // pos2 (query vertex 2) backward = {0}
  opts.use_symmetry_breaking = false;
  MatchPlan plan = CompileOrDie(path, opts);
  ASSERT_EQ(plan.backward[2], std::vector<int>{0});
  std::vector<VertexId> match = {7, 3, -1};
  std::vector<VertexId> cands = Candidates(g, plan, match, 2);
  VertexSpan expected = g.Neighbors(7);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), cands.begin(),
                         cands.end()));
}

TEST(CandidatesTest, TwoBackwardNeighborsIntersect) {
  Graph g = GenerateErdosRenyi(60, 400, 2);
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  PlanOptions opts;
  opts.use_symmetry_breaking = false;
  MatchPlan plan = CompileOrDie(triangle, opts);
  std::vector<VertexId> match = {5, 9, -1};
  std::vector<VertexId> cands = Candidates(g, plan, match, 2);
  std::vector<VertexId> expected;
  IntersectMerge(g.Neighbors(5), g.Neighbors(9), &expected);
  EXPECT_EQ(cands, expected);
}

TEST(CandidatesTest, LabelFilterApplied) {
  Graph g = GenerateErdosRenyi(80, 600, 3);
  g.AssignUniformLabels(3, 4);
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  triangle.SetVertexLabel(0, 0);
  triangle.SetVertexLabel(1, 1);
  triangle.SetVertexLabel(2, 2);
  PlanOptions opts;
  MatchPlan plan = CompileOrDie(triangle, opts);
  std::vector<VertexId> match = {11, 17, -1};
  std::vector<VertexId> cands = Candidates(g, plan, match, 2);
  const Label wanted = plan.label_filter[2];
  ASSERT_NE(wanted, kNoLabel);
  for (VertexId v : cands) {
    EXPECT_EQ(g.VertexLabel(v), wanted);
  }
  // And nothing with the right label was dropped.
  std::vector<VertexId> expected;
  IntersectMerge(g.Neighbors(match[0]), g.Neighbors(match[1]), &expected);
  size_t with_label = 0;
  for (VertexId v : expected) {
    with_label += g.VertexLabel(v) == wanted ? 1 : 0;
  }
  EXPECT_EQ(cands.size(), with_label);
}

TEST(CandidatesTest, IndexAndCsrPathsAgree) {
  Graph g = GenerateErdosRenyi(100, 900, 5);
  g.AssignUniformLabels(4, 6);
  LabelIndex index(g);
  QueryGraph q = Pattern(13);  // labeled 4-clique
  MatchPlan plan = CompileOrDie(q);
  // Position 2 has two backward neighbors; compare both access paths over
  // several prefixes.
  for (VertexId a = 0; a < 20; ++a) {
    for (VertexId b : g.Neighbors(a)) {
      std::vector<VertexId> match = {a, b, -1, -1};
      std::vector<VertexId> via_csr = Candidates(g, plan, match, 2);
      std::vector<VertexId> via_index =
          Candidates(g, plan, match, 2, &index);
      EXPECT_EQ(via_csr, via_index) << "prefix (" << a << "," << b << ")";
    }
  }
}

TEST(IntersectStoredBaseTest, MatchesStdIntersectionAcrossRatios) {
  Xoshiro256ss rng(777);
  for (int trial = 0; trial < 120; ++trial) {
    // Vary sizes across the three kernel branches (list-small, base-small,
    // comparable).
    const size_t base_n = 1 + rng.Below(trial % 3 == 0 ? 2000 : 60);
    const size_t list_n = 1 + rng.Below(trial % 3 == 1 ? 2000 : 60);
    std::set<VertexId> sb;
    std::set<VertexId> sl;
    for (size_t i = 0; i < base_n; ++i) {
      sb.insert(static_cast<VertexId>(rng.Below(3000)));
    }
    for (size_t i = 0; i < list_n; ++i) {
      sl.insert(static_cast<VertexId>(rng.Below(3000)));
    }
    std::vector<VertexId> base(sb.begin(), sb.end());
    std::vector<VertexId> list(sl.begin(), sl.end());
    std::vector<VertexId> expected;
    std::set_intersection(base.begin(), base.end(), list.begin(),
                          list.end(), std::back_inserter(expected));
    std::vector<VertexId> out;
    WorkCounter work;
    IntersectStoredBase(VertexSpan(base), VertexSpan(list), &out, &work);
    EXPECT_EQ(out, expected) << "trial " << trial;
    EXPECT_GT(work.units, 0u);
  }
}

TEST(IntersectStoredBaseTest, EmptyInputs) {
  std::vector<VertexId> base = {1, 2, 3};
  std::vector<VertexId> out;
  IntersectStoredBase(VertexSpan(), VertexSpan(base), &out, nullptr);
  EXPECT_TRUE(out.empty());
  IntersectStoredBase(VertexSpan(base), VertexSpan(), &out, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(CandidatesTest, EngineReusePathMatchesNoReuseEngine) {
  // End-to-end check of the in-place reuse chain (IntersectStoredBase
  // inside the warp engine) against the reuse-free computation.
  Graph g = GenerateErdosRenyi(80, 700, 7);
  for (int pattern : {2, 6, 7, 10}) {
    EngineConfig with = TdfsConfig();
    EngineConfig without = TdfsConfig();
    without.use_reuse = false;
    RunResult rw = RunMatching(g, Pattern(pattern), with);
    RunResult ro = RunMatching(g, Pattern(pattern), without);
    ASSERT_TRUE(rw.status.ok());
    ASSERT_TRUE(ro.status.ok());
    EXPECT_EQ(rw.match_count, ro.match_count) << PatternName(pattern);
  }
}

TEST(CandidatesTest, EmptyPrefixNeighborhoodsYieldEmpty) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 3);
  Graph g = builder.Build();
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  PlanOptions opts;
  opts.use_symmetry_breaking = false;
  MatchPlan plan = CompileOrDie(triangle, opts);
  std::vector<VertexId> match = {0, 1, -1};  // N(0) ∩ N(1) = {} here
  EXPECT_TRUE(Candidates(g, plan, match, 2).empty());
}

TEST(CandidatesTest, WorkIsMetered) {
  Graph g = GenerateErdosRenyi(100, 1000, 9);
  QueryGraph triangle(3, {{0, 1}, {1, 2}, {2, 0}});
  PlanOptions opts;
  opts.use_symmetry_breaking = false;
  MatchPlan plan = CompileOrDie(triangle, opts);
  CandidateScratch scratch;
  std::vector<VertexId> out;
  WorkCounter work;
  std::vector<VertexId> match = {1, 2, -1};
  ComputeCandidates(g, nullptr, plan, match.data(), 2, &scratch, &out,
                    &work);
  EXPECT_GT(work.units, 0u);
}

}  // namespace
}  // namespace tdfs
