#include "mem/page_allocator.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "util/failpoint.h"

namespace tdfs {

PageAllocator::PageAllocator(int32_t num_pages, int64_t page_bytes,
                             const SpillOptions& spill)
    : num_pages_(num_pages), page_ints_(page_bytes / 4) {
  TDFS_CHECK(num_pages >= 1);
  TDFS_CHECK_MSG(page_bytes >= 4 && page_bytes % 4 == 0,
                 "page_bytes must be a positive multiple of 4");
  arena_ = LazyRegion<int32_t>(static_cast<size_t>(num_pages) * page_ints_);
  next_ = LazyRegion<PageId>(num_pages);
  allocated_ = LazyRegion<uint8_t>(num_pages);
  head_.store(PackHead(kNullPage, 0), std::memory_order_relaxed);

  spill_enabled_ = spill.enabled;
  governor_ =
      spill.governor != nullptr ? spill.governor : MemoryGovernor::Global();
  if (spill_enabled_) {
    spill_capacity_ = spill.max_spill_pages > 0
                          ? spill.max_spill_pages
                          : std::min<int64_t>(
                                int64_t{num_pages} * 32,
                                std::numeric_limits<int32_t>::max() -
                                    int64_t{num_pages});
    spill_slots_ = LazyRegion<int32_t*>(spill_capacity_);
  }
  governor_->RegisterCommitted(static_cast<int64_t>(num_pages_) *
                               this->page_bytes());
}

PageAllocator::~PageAllocator() {
  // Defensively release any spill extents still live (a leaked stack);
  // arena storage is unmapped with its region either way. Slots at or past
  // spill_next_ were never used.
  for (int32_t i = 0; i < spill_next_; ++i) {
    int32_t* storage = std::exchange(spill_slots_[i], nullptr);
    if (storage != nullptr) {
      delete[] storage;
      governor_->ReleaseSpill(page_bytes());
    }
  }
  governor_->UnregisterCommitted(static_cast<int64_t>(num_pages_) *
                                 page_bytes());
}

PageId PageAllocator::TakeArenaPage() {
  PageId page = PopFreeList();
  if (page == kNullPage) {
    int32_t fresh = fresh_.load(std::memory_order_relaxed);
    while (fresh < num_pages_ &&
           !fresh_.compare_exchange_weak(fresh, fresh + 1,
                                         std::memory_order_relaxed)) {
    }
    // The never-used pages ran out while we looked: a page returned
    // meanwhile is the only one left, so look at the stack once more.
    page = fresh < num_pages_ ? fresh : PopFreeList();
  }
  if (page != kNullPage) {
    Allocated(page).store(1, std::memory_order_relaxed);
  }
  return page;
}

PageId PageAllocator::PopFreeList() {
  uint64_t head = head_.load(std::memory_order_acquire);
  while (true) {
    PageId top = HeadTop(head);
    if (top == kNullPage) {
      return kNullPage;
    }
    PageId next = Next(top).load(std::memory_order_relaxed);
    uint64_t desired = PackHead(next, HeadTag(head) + 1);
    if (head_.compare_exchange_weak(head, desired,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      return top;
    }
  }
}

void PageAllocator::PushFreeList(PageId page) {
  uint64_t head = head_.load(std::memory_order_acquire);
  while (true) {
    Next(page).store(HeadTop(head), std::memory_order_relaxed);
    uint64_t desired = PackHead(page, HeadTag(head) + 1);
    if (head_.compare_exchange_weak(head, desired,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      return;
    }
  }
}

PageId PageAllocator::AllocPage() {
  PageId page = kNullPage;
  if (!TDFS_INJECT_FAILURE("page_alloc")) {
    page = TakeArenaPage();
  }
  if (page == kNullPage && spill_enabled_) {
    page = AllocSpillPage();
  }
  if (page == kNullPage) {
    alloc_misses_.fetch_add(1, std::memory_order_relaxed);
    return kNullPage;
  }
  int32_t in_use = in_use_.fetch_add(1, std::memory_order_relaxed) + 1;
  int32_t peak = peak_in_use_.load(std::memory_order_relaxed);
  while (in_use > peak &&
         !peak_in_use_.compare_exchange_weak(
             peak, in_use, std::memory_order_relaxed)) {
  }
  const int64_t alloc_index =
      total_allocs_.fetch_add(1, std::memory_order_relaxed);
  if (!IsSpillPage(page)) {
    governor_->NoteInUse(page_bytes());
  }
  // Sampled: occupancy is a distribution over time, and the histogram is
  // shared across warps (see kObsSampleEvery).
  if (obs_occupancy_ != nullptr &&
      (alloc_index & (kObsSampleEvery - 1)) == 0) {
    obs_occupancy_->Observe(in_use);
  }
  return page;
}

PageId PageAllocator::AllocSpillPage() {
  if (TDFS_INJECT_FAILURE("page_spill")) {
    return kNullPage;  // injected host-tier exhaustion
  }
  std::lock_guard<std::mutex> lock(spill_mu_);
  int32_t slot;
  if (!spill_free_.empty()) {
    slot = spill_free_.back();
    spill_free_.pop_back();
  } else if (spill_next_ < spill_capacity_) {
    slot = spill_next_++;
  } else {
    return kNullPage;  // spill tier at max_spill_pages
  }
  if (!governor_->TryGrantSpill(page_bytes())) {
    spill_free_.push_back(slot);
    return kNullPage;  // host byte ceiling reached
  }
  int32_t* storage = new int32_t[page_ints_];
  std::atomic_ref<int32_t*>(spill_slots_[slot])
      .store(storage, std::memory_order_release);
  const int32_t live = spill_in_use_.fetch_add(1,
                                               std::memory_order_relaxed) + 1;
  int32_t peak = spill_peak_.load(std::memory_order_relaxed);
  while (live > peak &&
         !spill_peak_.compare_exchange_weak(peak, live,
                                            std::memory_order_relaxed)) {
  }
  spill_allocs_.fetch_add(1, std::memory_order_relaxed);
  return num_pages_ + slot;
}

void PageAllocator::ReleaseSpillSlot(PageId page) {
  const int32_t slot = page - num_pages_;
  std::lock_guard<std::mutex> lock(spill_mu_);
  int32_t* storage = std::atomic_ref<int32_t*>(spill_slots_[slot])
                         .exchange(nullptr, std::memory_order_acq_rel);
  TDFS_CHECK_MSG(storage != nullptr,
                 "FreePage(" << page << ") spill double free");
  delete[] storage;
  spill_free_.push_back(slot);
  spill_in_use_.fetch_sub(1, std::memory_order_relaxed);
  governor_->ReleaseSpill(page_bytes());
}

void PageAllocator::FreePage(PageId page) {
  if (IsSpillPage(page)) {
    TDFS_CHECK_MSG(page < num_pages_ + spill_capacity_,
                   "FreePage(" << page << ") out of range");
    ReleaseSpillSlot(page);
    in_use_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  TDFS_CHECK_MSG(page >= 0, "FreePage(" << page << ") out of range");
  TDFS_CHECK_MSG(
      Allocated(page).exchange(0, std::memory_order_relaxed) == 1,
      "FreePage(" << page << ") double free");
  PushFreeList(page);
  in_use_.fetch_sub(1, std::memory_order_relaxed);
  governor_->NoteInUse(-page_bytes());
}

PageId PageAllocator::TryPromote(PageId page) {
  TDFS_CHECK_MSG(IsSpillPage(page) && page < num_pages_ + spill_capacity_,
                 "TryPromote(" << page << ") is not a spill page");
  if (TDFS_INJECT_FAILURE("spill_promote")) {
    return kNullPage;
  }
  const PageId arena_page = TakeArenaPage();
  if (arena_page == kNullPage) {
    return kNullPage;  // arena still full; keep the spill page
  }
  const int32_t* src = PageData(page);
  TDFS_CHECK_MSG(src != nullptr,
                 "TryPromote(" << page << ") of a free spill page");
  std::memcpy(PageData(arena_page), src,
              static_cast<size_t>(page_ints_) * sizeof(int32_t));
  ReleaseSpillSlot(page);
  // Net pages-in-use is unchanged (arena +1, spill -1), so in_use_ /
  // peak_in_use_ / total_allocs_ stay put; only the tier accounting moves.
  governor_->NoteInUse(page_bytes());
  spill_promotions_.fetch_add(1, std::memory_order_relaxed);
  return arena_page;
}

void PageAllocator::ResetStats() {
  peak_in_use_.store(in_use_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  total_allocs_.store(0, std::memory_order_relaxed);
  alloc_misses_.store(0, std::memory_order_relaxed);
  spill_peak_.store(spill_in_use_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  spill_allocs_.store(0, std::memory_order_relaxed);
  spill_promotions_.store(0, std::memory_order_relaxed);
}

}  // namespace tdfs
