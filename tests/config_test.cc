#include "core/config.h"

#include <gtest/gtest.h>

#include "core/result.h"
#include "mem/warp_stack.h"

namespace tdfs {
namespace {

TEST(ConfigTest, TdfsDefaultsMatchPaper) {
  EngineConfig c = TdfsConfig();
  EXPECT_EQ(c.steal, StealStrategy::kTimeout);
  EXPECT_EQ(c.stack, StackKind::kPaged);
  EXPECT_DOUBLE_EQ(c.timeout_ms, 10.0);         // Section IV default tau
  EXPECT_EQ(c.chunk_size, 8);                   // default chunk size
  EXPECT_EQ(c.queue_capacity_ints, 3'000'000);  // N = 3M ints (12 MB)
  EXPECT_EQ(c.stop_level, 3);                   // StopLevel
  EXPECT_EQ(c.page_bytes, 8192);                // 8 KiB pages
  EXPECT_EQ(PagedWarpStack::kDefaultPageTableCapacity,
            40);                                // 40 addresses per level
  EXPECT_TRUE(c.use_symmetry_breaking);
  EXPECT_TRUE(c.use_reuse);
  EXPECT_TRUE(c.use_degree_filter);
  EXPECT_TRUE(c.queue_first);
  EXPECT_FALSE(c.host_side_edge_filter);
}

TEST(ConfigTest, StmatchPreset) {
  EngineConfig c = StmatchConfig();
  EXPECT_EQ(c.steal, StealStrategy::kHalfSteal);
  EXPECT_EQ(c.stack, StackKind::kArrayMaxDegree);
  EXPECT_TRUE(c.host_side_edge_filter);
  EXPECT_TRUE(c.separate_vertex_removal);
  EXPECT_FALSE(c.use_reuse);
  EXPECT_TRUE(c.use_symmetry_breaking);  // STMatch does break symmetry
}

TEST(ConfigTest, EgsmPreset) {
  EngineConfig c = EgsmConfig();
  EXPECT_EQ(c.steal, StealStrategy::kNewKernel);
  EXPECT_FALSE(c.use_symmetry_breaking);  // the paper's key EGSM weakness
  EXPECT_TRUE(c.use_label_index);
}

TEST(ConfigTest, PbePreset) {
  EngineConfig c = PbeConfig();
  EXPECT_EQ(c.steal, StealStrategy::kNone);
  EXPECT_GT(c.bfs_memory_budget_bytes, 0);
}

TEST(ConfigTest, EnumNames) {
  EXPECT_STREQ(StealStrategyName(StealStrategy::kTimeout), "timeout");
  EXPECT_STREQ(StealStrategyName(StealStrategy::kHalfSteal), "half-steal");
  EXPECT_STREQ(StealStrategyName(StealStrategy::kNewKernel), "new-kernel");
  EXPECT_STREQ(StealStrategyName(StealStrategy::kNone), "none");
  EXPECT_STREQ(StackKindName(StackKind::kPaged), "paged");
  EXPECT_STREQ(StackKindName(StackKind::kArrayMaxDegree), "array-dmax");
  EXPECT_STREQ(StackKindName(StackKind::kArrayFixed), "array-fixed");
}

TEST(ResultTest, MergeAddsAndMaxes) {
  RunCounters a;
  a.work_units = 10;
  a.tasks_enqueued = 3;
  a.queue_peak_tasks = 5;
  a.pages_peak = 7;
  a.stack_overflow = false;
  RunCounters b;
  b.work_units = 20;
  b.tasks_enqueued = 4;
  b.queue_peak_tasks = 2;
  b.pages_peak = 9;
  b.stack_overflow = true;
  a.MergeFrom(b);
  EXPECT_EQ(a.work_units, 30u);
  EXPECT_EQ(a.tasks_enqueued, 7);
  EXPECT_EQ(a.queue_peak_tasks, 5);  // max
  EXPECT_EQ(a.pages_peak, 9);        // max
  EXPECT_TRUE(a.stack_overflow);     // sticky
}

TEST(ResultTest, SummaryFlagsOverflowAndErrors) {
  RunResult ok;
  ok.match_count = 42;
  ok.match_ms = 1.5;
  EXPECT_NE(ok.Summary().find("matches=42"), std::string::npos);

  RunResult overflowed;
  overflowed.counters.stack_overflow = true;
  EXPECT_NE(overflowed.Summary().find("OVERFLOW"), std::string::npos);

  RunResult failed;
  failed.status = Status::ResourceExhausted("oom");
  EXPECT_NE(failed.Summary().find("ResourceExhausted"), std::string::npos);
}

}  // namespace
}  // namespace tdfs
