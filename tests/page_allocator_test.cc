#include "mem/page_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "rss_probe.h"
#include "util/prng.h"

namespace tdfs {
namespace {

TEST(PageAllocatorTest, Construction) {
  PageAllocator alloc(16);
  EXPECT_EQ(alloc.num_pages(), 16);
  EXPECT_EQ(alloc.page_bytes(), PageAllocator::kDefaultPageBytes);
  EXPECT_EQ(alloc.page_ints(), 2048);
  EXPECT_EQ(alloc.PagesInUse(), 0);
}

TEST(PageAllocatorTest, AllocReturnsDistinctPages) {
  PageAllocator alloc(8);
  std::set<PageId> pages;
  for (int i = 0; i < 8; ++i) {
    PageId p = alloc.AllocPage();
    ASSERT_NE(p, kNullPage);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 8);
    EXPECT_TRUE(pages.insert(p).second) << "duplicate page " << p;
  }
  EXPECT_EQ(alloc.PagesInUse(), 8);
}

TEST(PageAllocatorTest, ExhaustionReturnsNull) {
  PageAllocator alloc(2);
  EXPECT_NE(alloc.AllocPage(), kNullPage);
  EXPECT_NE(alloc.AllocPage(), kNullPage);
  EXPECT_EQ(alloc.AllocPage(), kNullPage);
  EXPECT_EQ(alloc.AllocPage(), kNullPage);  // stays exhausted
}

TEST(PageAllocatorTest, FreeMakesPageReusable) {
  PageAllocator alloc(1);
  PageId p = alloc.AllocPage();
  ASSERT_NE(p, kNullPage);
  EXPECT_EQ(alloc.AllocPage(), kNullPage);
  alloc.FreePage(p);
  EXPECT_EQ(alloc.PagesInUse(), 0);
  EXPECT_EQ(alloc.AllocPage(), p);
}

TEST(PageAllocatorTest, PageDataIsWritableAndDistinct) {
  PageAllocator alloc(4, 64);  // 16 ints per page
  PageId a = alloc.AllocPage();
  PageId b = alloc.AllocPage();
  for (int i = 0; i < 16; ++i) {
    alloc.PageData(a)[i] = 100 + i;
    alloc.PageData(b)[i] = 200 + i;
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(alloc.PageData(a)[i], 100 + i);
    EXPECT_EQ(alloc.PageData(b)[i], 200 + i);
  }
}

TEST(PageAllocatorTest, StatsTrackPeakAndTotal) {
  PageAllocator alloc(4);
  PageId a = alloc.AllocPage();
  PageId b = alloc.AllocPage();
  alloc.FreePage(a);
  PageId c = alloc.AllocPage();
  EXPECT_EQ(alloc.PagesInUse(), 2);
  EXPECT_EQ(alloc.PeakPagesInUse(), 2);
  EXPECT_EQ(alloc.TotalAllocs(), 3);
  alloc.FreePage(b);
  alloc.FreePage(c);
  EXPECT_EQ(alloc.PeakPagesInUse(), 2);  // peak persists
  alloc.ResetStats();
  EXPECT_EQ(alloc.TotalAllocs(), 0);
  EXPECT_EQ(alloc.PeakPagesInUse(), 0);
}

TEST(PageAllocatorTest, CustomPageSize) {
  PageAllocator alloc(2, 1024);
  EXPECT_EQ(alloc.page_bytes(), 1024);
  EXPECT_EQ(alloc.page_ints(), 256);
}

TEST(PageAllocatorTest, ConcurrentAllocFreeConservesPages) {
  // 64 pages never run dry (8 threads hold at most 4 each); 16 pages run
  // dry while never-used pages are still being handed out, so the hand-
  // over from the bump pointer to returned pages races with frees.
  for (const int32_t num_pages : {64, 16}) {
    SCOPED_TRACE(num_pages);
    PageAllocator alloc(num_pages);
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&alloc, &failed] {
        std::vector<PageId> held;
        for (int i = 0; i < kIters; ++i) {
          if (held.size() < 4) {
            PageId p = alloc.AllocPage();
            if (p != kNullPage) {
              // Stamp the page; a double-allocated page would be stomped by
              // its other owner.
              alloc.PageData(p)[0] = p;
              held.push_back(p);
            }
          } else {
            PageId p = held.back();
            held.pop_back();
            if (alloc.PageData(p)[0] != p) {
              failed.store(true);
            }
            alloc.FreePage(p);
          }
        }
        for (PageId p : held) {
          if (alloc.PageData(p)[0] != p) {
            failed.store(true);
          }
          alloc.FreePage(p);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    EXPECT_FALSE(failed.load()) << "page double-allocation detected";
    EXPECT_EQ(alloc.PagesInUse(), 0);
    // All pages recoverable afterwards.
    int recovered = 0;
    while (alloc.AllocPage() != kNullPage) {
      ++recovered;
    }
    EXPECT_EQ(recovered, num_pages);
  }
}

TEST(PageAllocatorDeathTest, BadPageSizeAborts) {
  EXPECT_DEATH(PageAllocator(4, 10), "multiple of 4");
  EXPECT_DEATH(PageAllocator(0), "TDFS_CHECK");
}

TEST(PageAllocatorDeathTest, FreeOutOfRangeAborts) {
  PageAllocator alloc(4);
  EXPECT_DEATH(alloc.FreePage(99), "out of range");
  EXPECT_DEATH(alloc.FreePage(-1), "out of range");
}

TEST(PageAllocatorDeathTest, DoubleFreeAborts) {
  PageAllocator alloc(4);
  PageId p = alloc.AllocPage();
  ASSERT_NE(p, kNullPage);
  alloc.FreePage(p);
  EXPECT_DEATH(alloc.FreePage(p), "double free");
}

TEST(PageAllocatorDeathTest, FreeingNeverAllocatedPageAborts) {
  PageAllocator alloc(4);
  // Page 0 is in range but still owned by the free list.
  EXPECT_DEATH(alloc.FreePage(0), "double free");
}

TEST(PageAllocatorTest, FreeAfterReallocIsAccepted) {
  // The double-free guard must not reject the legitimate
  // alloc/free/alloc/free cycle of the same page id.
  PageAllocator alloc(1);
  for (int i = 0; i < 3; ++i) {
    PageId p = alloc.AllocPage();
    ASSERT_NE(p, kNullPage);
    alloc.FreePage(p);
  }
  EXPECT_EQ(alloc.PagesInUse(), 0);
}

TEST(PageAllocatorTest, PageIdSequenceMatchesPreLinkedFreeList) {
  // Model of a free list pre-linked 0,1,2,... with LIFO reuse: the front
  // is the top of the stack.
  constexpr int32_t kPages = 16;
  PageAllocator alloc(kPages, 64);
  std::vector<PageId> model;
  for (PageId p = kPages - 1; p >= 0; --p) {
    model.push_back(p);
  }
  std::vector<PageId> held;
  SplitMix64 rng(7);
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || rng() % 5 < 3) {
      const PageId expected = model.empty() ? kNullPage : model.back();
      if (!model.empty()) {
        model.pop_back();
      }
      const PageId got = alloc.AllocPage();
      ASSERT_EQ(got, expected) << "step " << step;
      if (got != kNullPage) {
        held.push_back(got);
      }
    } else {
      const size_t i = rng() % held.size();
      const PageId page = held[i];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      alloc.FreePage(page);
      model.push_back(page);
    }
  }
}

TEST(PageAllocatorTest, FreshPagesReadAllZero) {
  PageAllocator alloc(8, 64);
  for (int i = 0; i < 8; ++i) {
    const PageId p = alloc.AllocPage();
    ASSERT_NE(p, kNullPage);
    for (int64_t j = 0; j < alloc.page_ints(); ++j) {
      ASSERT_EQ(alloc.PageData(p)[j], 0) << "page " << p << " int " << j;
    }
  }
}

TEST(PageAllocatorTest, ArenaIsCommittedOnFirstTouchOnly) {
  if (!testing::RssTracksCommits()) {
    GTEST_SKIP() << "sanitizer shadow memory makes RSS meaningless here";
  }
  constexpr int64_t kMiB = int64_t{1} << 20;
  const int64_t before = testing::ResidentBytes();
  PageAllocator alloc(4096);  // default geometry: 32 MiB reserved
  const int64_t constructed = testing::ResidentBytes();
  EXPECT_LT(constructed - before, 2 * kMiB)
      << "constructing the arena committed it";

  constexpr int kTouched = 512;  // 4 MiB of 8 KiB pages
  std::vector<PageId> pages;
  for (int i = 0; i < kTouched; ++i) {
    const PageId p = alloc.AllocPage();
    ASSERT_NE(p, kNullPage);
    std::memset(alloc.PageData(p), 0xab, alloc.page_bytes());
    pages.push_back(p);
  }
  const int64_t grown = testing::ResidentBytes() - constructed;
  const int64_t touched_bytes = kTouched * alloc.page_bytes();
  EXPECT_GE(grown, touched_bytes * 3 / 4);
  EXPECT_LE(grown, touched_bytes + 2 * kMiB);
  for (PageId p : pages) {
    alloc.FreePage(p);
  }
}

}  // namespace
}  // namespace tdfs
