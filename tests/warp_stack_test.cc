#include "mem/warp_stack.h"

#include <gtest/gtest.h>

#include <vector>

namespace tdfs {
namespace {

TEST(PagedWarpStackTest, SetGetWithinOnePage) {
  PageAllocator alloc(8, 128);  // 32 ints per page
  PagedWarpStack stack(&alloc, 3);
  for (int64_t i = 0; i < 32; ++i) {
    ASSERT_EQ(stack.TrySet(0, i, static_cast<VertexId>(i * 7)),
              StackWrite::kOk);
  }
  for (int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(stack.Get(0, i), i * 7);
  }
  EXPECT_EQ(stack.PagesHeld(), 1);
}

TEST(PagedWarpStackTest, CrossPageBoundaryWrites) {
  PageAllocator alloc(8, 128);  // 32 ints per page
  PagedWarpStack stack(&alloc, 2);
  // Positions 16..47 straddle pages 0 and 1 — the Fig. 6 scenario.
  for (int64_t i = 16; i < 48; ++i) {
    ASSERT_EQ(stack.TrySet(1, i, static_cast<VertexId>(1000 + i)),
              StackWrite::kOk);
  }
  for (int64_t i = 16; i < 48; ++i) {
    EXPECT_EQ(stack.Get(1, i), 1000 + i);
  }
  EXPECT_EQ(stack.PagesHeld(), 2);
}

TEST(PagedWarpStackTest, LevelsAreIndependent) {
  PageAllocator alloc(8, 128);
  PagedWarpStack stack(&alloc, 4);
  for (int level = 0; level < 4; ++level) {
    ASSERT_EQ(stack.TrySet(level, 5, 100 + level), StackWrite::kOk);
  }
  for (int level = 0; level < 4; ++level) {
    EXPECT_EQ(stack.Get(level, 5), 100 + level);
  }
  EXPECT_EQ(stack.PagesHeld(), 4);
}

TEST(PagedWarpStackTest, PagesAllocatedLazily) {
  PageAllocator alloc(8, 128);
  PagedWarpStack stack(&alloc, 4);
  EXPECT_EQ(stack.PagesHeld(), 0);
  EXPECT_EQ(alloc.PagesInUse(), 0);
  stack.TrySet(2, 0, 1);
  EXPECT_EQ(stack.PagesHeld(), 1);
  EXPECT_EQ(alloc.PagesInUse(), 1);
}

TEST(PagedWarpStackTest, OverflowWhenPoolExhausted) {
  PageAllocator alloc(1, 128);
  PagedWarpStack stack(&alloc, 2);
  EXPECT_EQ(stack.TrySet(0, 0, 1), StackWrite::kOk);
  // Second level needs a second page; the pool has none.
  EXPECT_EQ(stack.TrySet(1, 0, 2), StackWrite::kPoolExhausted);
}

TEST(PagedWarpStackTest, OverflowWhenPageTableSpanExceeded) {
  PageAllocator alloc(8, 128);  // 32 ints/page
  PagedWarpStack stack(&alloc, 1, /*page_table_capacity=*/2);
  EXPECT_EQ(stack.LevelCapacity(), 64);
  EXPECT_EQ(stack.TrySet(0, 63, 9), StackWrite::kOk);
  EXPECT_EQ(stack.TrySet(0, 64, 9), StackWrite::kCapacityExceeded);
}

TEST(PagedWarpStackTest, ReleaseAllReturnsPages) {
  PageAllocator alloc(8, 128);
  {
    PagedWarpStack stack(&alloc, 3);
    stack.TrySet(0, 0, 1);
    stack.TrySet(1, 0, 2);
    EXPECT_EQ(alloc.PagesInUse(), 2);
    stack.ReleaseAll();
    EXPECT_EQ(alloc.PagesInUse(), 0);
    EXPECT_EQ(stack.PagesHeld(), 0);
    // Stack remains usable after release.
    EXPECT_EQ(stack.TrySet(0, 0, 3), StackWrite::kOk);
    EXPECT_EQ(alloc.PagesInUse(), 1);
  }
  // Destructor releases too.
  EXPECT_EQ(alloc.PagesInUse(), 0);
}

TEST(PagedWarpStackTest, MemoryBytesCountsPagesAndTables) {
  PageAllocator alloc(8, 128);
  PagedWarpStack stack(&alloc, 2, 4);
  const int64_t tables = 2 * 4 * static_cast<int64_t>(sizeof(PageId));
  EXPECT_EQ(stack.MemoryBytes(), tables);
  stack.TrySet(0, 0, 1);
  EXPECT_EQ(stack.MemoryBytes(), 128 + tables);
}

TEST(PagedWarpStackTest, MoveTransfersOwnership) {
  PageAllocator alloc(8, 128);
  PagedWarpStack a(&alloc, 2);
  a.TrySet(0, 3, 42);
  PagedWarpStack b(std::move(a));
  EXPECT_EQ(b.Get(0, 3), 42);
  EXPECT_EQ(b.PagesHeld(), 1);
  EXPECT_EQ(alloc.PagesInUse(), 1);  // not double-freed by a's destructor
}

TEST(PagedWarpStackDeathTest, ReadOfUnallocatedPageAborts) {
  PageAllocator alloc(8, 128);
  PagedWarpStack stack(&alloc, 2);
  EXPECT_DEATH(stack.Get(0, 0), "unallocated");
}

std::vector<VertexId> Iota(int64_t n, VertexId first) {
  std::vector<VertexId> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[i] = first + static_cast<VertexId>(i);
  }
  return v;
}

TEST(PagedWarpStackTest, WriteLevelFillsPageRuns) {
  PageAllocator alloc(8, 128);  // 32 ints per page
  PagedWarpStack stack(&alloc, 2);
  const std::vector<VertexId> values = Iota(80, 500);
  // Starts mid-page: runs of 22, 32 and 26 over pages 0..2.
  const LevelWrite w = stack.WriteLevel(1, VertexSpan(values), 10);
  EXPECT_EQ(w.status, StackWrite::kOk);
  EXPECT_EQ(w.written, 80);
  for (int64_t i = 0; i < 80; ++i) {
    EXPECT_EQ(stack.Get(1, 10 + i), 500 + i);
  }
  EXPECT_EQ(stack.PagesHeld(), 3);
}

TEST(PagedWarpStackTest, WriteLevelStopsAtFirstUnmappablePage) {
  PageAllocator alloc(2, 128);  // two pages of 32 ints
  PagedWarpStack stack(&alloc, 1);
  const std::vector<VertexId> values = Iota(100, 0);
  const LevelWrite w = stack.WriteLevel(0, VertexSpan(values));
  EXPECT_EQ(w.status, StackWrite::kPoolExhausted);
  EXPECT_EQ(w.written, 64);  // every element before the dry page
  // Span limit: a one-entry page table addresses 32 ids.
  PageAllocator roomy(8, 128);
  PagedWarpStack narrow(&roomy, 1, /*page_table_capacity=*/1);
  const LevelWrite c = narrow.WriteLevel(0, VertexSpan(values));
  EXPECT_EQ(c.status, StackWrite::kCapacityExceeded);
  EXPECT_EQ(c.written, 32);
}

TEST(PagedWarpStackTest, StoredLevelInPlaceOrGathered) {
  PageAllocator alloc(8, 128);  // 32 ints per page
  PagedWarpStack stack(&alloc, 2);
  const std::vector<VertexId> values = Iota(70, 9);
  ASSERT_EQ(stack.WriteLevel(0, VertexSpan(values)).status, StackWrite::kOk);
  std::vector<VertexId> scratch;
  // One page: the span points into the page itself, no copy.
  const VertexSpan one = stack.StoredLevel(0, 32, &scratch);
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(std::vector<VertexId>(one.begin(), one.end()),
            std::vector<VertexId>(values.begin(), values.begin() + 32));
  // Three pages: gathered into the scratch, in order.
  const VertexSpan all = stack.StoredLevel(0, 70, &scratch);
  EXPECT_EQ(all.data(), scratch.data());
  EXPECT_EQ(std::vector<VertexId>(all.begin(), all.end()), values);
  EXPECT_TRUE(stack.StoredLevel(1, 0, &scratch).empty());
}

TEST(ArrayWarpStackTest, WriteLevelTruncatesAtCapacity) {
  ArrayWarpStack stack(2, 8);
  const std::vector<VertexId> values = Iota(12, 40);
  const LevelWrite w = stack.WriteLevel(1, VertexSpan(values));
  EXPECT_EQ(w.status, StackWrite::kCapacityExceeded);
  EXPECT_EQ(w.written, 8);
  std::vector<VertexId> scratch;
  const VertexSpan stored = stack.StoredLevel(1, w.written, &scratch);
  EXPECT_EQ(std::vector<VertexId>(stored.begin(), stored.end()),
            std::vector<VertexId>(values.begin(), values.begin() + 8));
}

TEST(ArrayWarpStackTest, SetGetRoundTrip) {
  ArrayWarpStack stack(3, 100);
  for (int level = 0; level < 3; ++level) {
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_EQ(
          stack.TrySet(level, i, static_cast<VertexId>(level * 1000 + i)),
          StackWrite::kOk);
    }
  }
  for (int level = 0; level < 3; ++level) {
    for (int64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(stack.Get(level, i), level * 1000 + i);
    }
  }
}

TEST(ArrayWarpStackTest, OverflowBeyondCapacity) {
  // The STMatch failure mode: hardcoded capacity silently truncates (the
  // engine records stack_overflow and the paper shows the wrong counts).
  ArrayWarpStack stack(2, 8);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(stack.TrySet(0, i, 1), StackWrite::kOk);
  }
  EXPECT_EQ(stack.TrySet(0, 8, 1), StackWrite::kCapacityExceeded);
}

TEST(ArrayWarpStackTest, MemoryBytesIsFullAllocation) {
  ArrayWarpStack stack(5, 4096);
  EXPECT_EQ(stack.MemoryBytes(),
            5 * 4096 * static_cast<int64_t>(sizeof(VertexId)));
}

TEST(ArrayWarpStackTest, LevelCapacity) {
  ArrayWarpStack stack(2, 77);
  EXPECT_EQ(stack.LevelCapacity(), 77);
}

TEST(PagedWarpStackTest, MaybeShrinkFreesTailPagesWhenSparselyUsed) {
  PageAllocator alloc(64, 128);  // 32 ints per page
  PagedWarpStack stack(&alloc, 2);
  // Fill 8 pages of level 0.
  for (int64_t i = 0; i < 8 * 32; ++i) {
    ASSERT_EQ(stack.TrySet(0, i, 1), StackWrite::kOk);
  }
  ASSERT_EQ(stack.PagesInLevel(0), 8);
  // A new extension uses only 40 elements = 2 pages <= 8/4: tail half
  // (4 pages) becomes releasable.
  const int64_t freed = stack.MaybeShrinkLevel(0, 40);
  EXPECT_EQ(freed, 4);
  EXPECT_EQ(stack.PagesInLevel(0), 4);
  // The kept pages still hold the live data.
  for (int64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(stack.Get(0, i), 1);
  }
}

TEST(PagedWarpStackTest, MaybeShrinkNoOpWhenWellUsed) {
  PageAllocator alloc(64, 128);
  PagedWarpStack stack(&alloc, 1);
  for (int64_t i = 0; i < 4 * 32; ++i) {
    ASSERT_EQ(stack.TrySet(0, i, 1), StackWrite::kOk);
  }
  // 3 of 4 pages used: above the quarter threshold.
  EXPECT_EQ(stack.MaybeShrinkLevel(0, 3 * 32), 0);
  EXPECT_EQ(stack.PagesInLevel(0), 4);
  // Fewer than 4 pages held: heuristic never fires.
  PagedWarpStack small(&alloc, 1);
  small.TrySet(0, 0, 1);
  EXPECT_EQ(small.MaybeShrinkLevel(0, 0), 0);
}

TEST(WarpStackComparisonTest, PagedUsesLessMemoryThanDmaxArrays) {
  // A graph with d_max = 8192 but small actual candidate sets: the paged
  // stack touches one page per level; the array stack preallocates d_max
  // per level (Tables V/VII).
  PageAllocator alloc(64, 8192);
  PagedWarpStack paged(&alloc, 5);
  ArrayWarpStack array(5, 8192);
  for (int level = 0; level < 5; ++level) {
    for (int64_t i = 0; i < 50; ++i) {
      paged.TrySet(level, i, 1);
      array.TrySet(level, i, 1);
    }
  }
  EXPECT_LT(paged.MemoryBytes(), array.MemoryBytes() / 3);
}

}  // namespace
}  // namespace tdfs
