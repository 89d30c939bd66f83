// Lock-free page allocator (the Ouroboros [48] stand-in).
//
// A large arena is reserved at construction, committed on first touch
// (see mem/lazy_region.h), and cut into fixed-size pages (8 KiB by default,
// matching the paper). Warps request and release pages concurrently: a
// bump pointer hands out never-used pages in id order, and returned pages
// go on a Treiber stack over page indices with an ABA tag packed into the
// head word, which is popped first. Single-threaded, the page-id sequence
// is that of a free list pre-linked 0,1,2,... with LIFO reuse. Allocation
// never touches the system allocator after construction — the property
// that makes dynamic stack growth affordable on a GPU — and a short run
// commits only the pages it uses.
//
// Spill-to-host tier (optional). When constructed with SpillOptions
// {enabled}, a dry arena no longer means failure: AllocPage falls back
// to host-backed overflow extents living behind the SAME PageId space
// (spill ids start at num_pages()), and PageData routes transparently, so
// warp stacks keep growing past the device arena at degraded-but-exact
// speed. Every spill extent is accounted with the MemoryGovernor (host
// byte ceiling) and bounded by max_spill_pages. TryPromote moves a spill
// page's contents back into the arena once device pages free up — the
// eager promotion the engines run between tasks as pressure drops. The
// spill path takes a mutex; it is the slow lane by design, entered only
// when the lock-free arena is exhausted.

#ifndef TDFS_MEM_PAGE_ALLOCATOR_H_
#define TDFS_MEM_PAGE_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "mem/lazy_region.h"
#include "mem/memory_governor.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace tdfs {

/// Index of a page within the arena. kNullPage marks "no page".
using PageId = int32_t;
inline constexpr PageId kNullPage = -1;

/// Spill-tier configuration for PageAllocator.
struct SpillOptions {
  /// Enables host-backed overflow pages when the arena is dry.
  bool enabled = false;

  /// Hard cap on concurrently live spill pages; 0 picks a default of
  /// 32x num_pages (enough for an arena 10x+ undersized). The governor's
  /// byte ceiling applies on top.
  int32_t max_spill_pages = 0;

  /// Budget authority accounting the spill bytes. Null uses
  /// MemoryGovernor::Global().
  MemoryGovernor* governor = nullptr;
};

class PageAllocator {
 public:
  /// Default page size from the paper: 8 KiB == 2048 vertex ids.
  static constexpr int64_t kDefaultPageBytes = 8192;

  /// Reserves `num_pages` pages of `page_bytes` each (page_bytes must be a
  /// positive multiple of 4); each OS page is committed on first touch, and
  /// a never-used page reads all-zero. The full arena bytes are registered
  /// with the spill governor (Global() by default) for pressure accounting.
  PageAllocator(int32_t num_pages, int64_t page_bytes = kDefaultPageBytes,
                const SpillOptions& spill = SpillOptions{});
  ~PageAllocator();

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  /// Takes a returned page, else a never-used one; when the arena is dry
  /// and spill is enabled, falls back to a host-backed spill page
  /// (id >= num_pages()).
  /// Returns kNullPage only when both tiers fail (or the "page_alloc" /
  /// "page_spill" failpoints fire) — counted in AllocMisses(). Thread-safe;
  /// lock-free on the arena path, mutex-guarded on the spill path.
  PageId AllocPage();

  /// Pushes a page back (either tier). Aborts on out-of-range ids and on
  /// double-frees — both corrupt the free list silently otherwise (a
  /// double-freed page gets handed to two warps at once).
  void FreePage(PageId page);

  /// Copies spill page `page` into a freshly taken arena page, frees the
  /// spill extent, and returns the arena id — or kNullPage when the arena
  /// is still full (or the "spill_promote" failpoint fires), leaving the
  /// spill page untouched. Net PagesInUse is unchanged on success.
  PageId TryPromote(PageId page);

  /// Raw storage of a page (page_ints() int32 slots). Spill ids route to
  /// their host extent.
  int32_t* PageData(PageId page) {
    if (page < num_pages_) {
      return arena_.data() + static_cast<int64_t>(page) * page_ints_;
    }
    return std::atomic_ref<int32_t*>(spill_slots_[page - num_pages_])
        .load(std::memory_order_acquire);
  }
  const int32_t* PageData(PageId page) const {
    if (page < num_pages_) {
      return arena_.data() + static_cast<int64_t>(page) * page_ints_;
    }
    return std::atomic_ref<int32_t*>(spill_slots_[page - num_pages_])
        .load(std::memory_order_acquire);
  }

  int32_t num_pages() const { return num_pages_; }
  int64_t page_bytes() const { return page_ints_ * 4; }
  /// int32 slots per page.
  int64_t page_ints() const { return page_ints_; }

  /// True iff `page` currently lives in the spill tier.
  bool IsSpillPage(PageId page) const { return page >= num_pages_; }

  bool spill_enabled() const { return spill_enabled_; }
  int32_t max_spill_pages() const { return spill_capacity_; }

  /// Pages currently allocated across BOTH tiers (so pages_peak measures
  /// true demand, not arena size).
  int32_t PagesInUse() const {
    return in_use_.load(std::memory_order_relaxed);
  }

  /// High-water mark of PagesInUse() since construction or ResetStats().
  int32_t PeakPagesInUse() const {
    return peak_in_use_.load(std::memory_order_relaxed);
  }

  /// Total successful allocations since construction or ResetStats().
  int64_t TotalAllocs() const {
    return total_allocs_.load(std::memory_order_relaxed);
  }

  /// AllocPage calls that returned kNullPage (both tiers dry, spill
  /// disabled, or failpoint-injected) since construction or ResetStats().
  int64_t AllocMisses() const {
    return alloc_misses_.load(std::memory_order_relaxed);
  }

  /// Spill pages live right now / high-water mark / total spill
  /// allocations / promotions back into the arena.
  int32_t SpillPagesInUse() const {
    return spill_in_use_.load(std::memory_order_relaxed);
  }
  int32_t SpillPagesPeak() const {
    return spill_peak_.load(std::memory_order_relaxed);
  }
  int64_t TotalSpillAllocs() const {
    return spill_allocs_.load(std::memory_order_relaxed);
  }
  int64_t SpillPromotions() const {
    return spill_promotions_.load(std::memory_order_relaxed);
  }

  void ResetStats();

  /// NUMA placement hint for this arena (shard runner: shard s gets
  /// numa_nodes[s % size]). Advisory and observational only — the arena is
  /// one reserved mapping committed on first touch, so each OS page lands
  /// where the OS first-touch policy puts the worker thread that first
  /// writes it. -1 = none.
  void SetNumaNode(int node) { numa_node_ = node; }
  int numa_node() const { return numa_node_; }

  /// Samples pool occupancy (pages in use) into `occupancy` on 1 in
  /// kObsSampleEvery successful allocations. Null (the default) disables
  /// sampling.
  void AttachObs(obs::Histogram* occupancy) { obs_occupancy_ = occupancy; }

  /// Occupancy sampling period (power of two): the histogram is shared by
  /// every allocating warp, so per-alloc observation would ping-pong its
  /// cache lines across cores.
  static constexpr int64_t kObsSampleEvery = 64;

 private:
  // Head word layout: low 32 bits = top page index (or 0xffffffff for
  // empty), high 32 bits = ABA tag.
  static uint64_t PackHead(PageId top, uint32_t tag) {
    return (static_cast<uint64_t>(tag) << 32) |
           static_cast<uint32_t>(top);
  }
  static PageId HeadTop(uint64_t head) {
    return static_cast<PageId>(static_cast<int32_t>(head & 0xffffffffu));
  }
  static uint32_t HeadTag(uint64_t head) {
    return static_cast<uint32_t>(head >> 32);
  }

  /// Takes an arena page — a returned one first, else the next never-used
  /// one — and marks it allocated, without touching the in-use stats
  /// (shared by AllocPage and TryPromote). kNullPage when the arena is dry.
  PageId TakeArenaPage();

  /// Pops a returned page off the Treiber stack. kNullPage when empty.
  PageId PopFreeList();

  /// Pushes a returned arena page; stats are the caller's business.
  void PushFreeList(PageId page);

  std::atomic_ref<PageId> Next(PageId page) {
    return std::atomic_ref<PageId>(next_[page]);
  }
  std::atomic_ref<uint8_t> Allocated(PageId page) {
    return std::atomic_ref<uint8_t>(allocated_[page]);
  }

  /// Allocates a spill extent (governor-accounted). kNullPage on denial.
  PageId AllocSpillPage();

  /// Releases spill extent storage + accounting; the id becomes reusable.
  void ReleaseSpillSlot(PageId page);

  MemoryGovernor* governor() const { return governor_; }

  int32_t num_pages_;
  int64_t page_ints_;
  LazyRegion<int32_t> arena_;
  // Free-list links, read and written through Next(). Only returned pages
  // are ever linked, so the links need no initial value.
  LazyRegion<PageId> next_;
  // 1 iff the page is currently allocated, through Allocated(). Maintained
  // so FreePage can reject double-frees; ordered by the free-list CAS
  // (cleared before a page is pushed, set after it is taken). Zero — the
  // mapping's initial state — is right for every never-used page.
  LazyRegion<uint8_t> allocated_;
  std::atomic<uint64_t> head_;
  // First never-used page; pages [fresh_, num_pages_) are untouched.
  std::atomic<int32_t> fresh_{0};
  std::atomic<int32_t> in_use_{0};
  std::atomic<int32_t> peak_in_use_{0};
  std::atomic<int64_t> total_allocs_{0};
  std::atomic<int64_t> alloc_misses_{0};
  obs::Histogram* obs_occupancy_ = nullptr;
  int numa_node_ = -1;

  // ---- spill tier ----
  bool spill_enabled_ = false;
  int32_t spill_capacity_ = 0;
  MemoryGovernor* governor_ = nullptr;
  // Slot i backs PageId num_pages_ + i; null when the slot is free. The
  // pointer array is reserved once at construction (accessed through
  // std::atomic_ref) so PageData can read it without the spill mutex.
  LazyRegion<int32_t*> spill_slots_;
  std::mutex spill_mu_;
  std::vector<PageId> spill_free_;  // reusable slot indices; guarded
  int32_t spill_next_ = 0;          // first never-used slot; guarded
  std::atomic<int32_t> spill_in_use_{0};
  std::atomic<int32_t> spill_peak_{0};
  std::atomic<int64_t> spill_allocs_{0};
  std::atomic<int64_t> spill_promotions_{0};
};

}  // namespace tdfs

#endif  // TDFS_MEM_PAGE_ALLOCATOR_H_
