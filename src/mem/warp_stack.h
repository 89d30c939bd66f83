// Per-warp backtracking stacks.
//
// Each warp owns a stack with one candidate array per query position
// (Fig. 3). Two interchangeable backends implement the paper's comparison:
//
//  * PagedWarpStack — each level is a page table over pages requested on
//    demand from the PageAllocator (Fig. 6 / Alg. 5). Bounded only by the
//    page pool; memory proportional to what is actually used.
//  * ArrayWarpStack — each level is a fixed-capacity array (d_max for
//    guaranteed correctness, or STMatch's hardcoded 4096, which the paper
//    shows silently truncates candidates and yields wrong counts on skewed
//    graphs). A write past a level's capacity reports kCapacityExceeded;
//    the engine records it as RunCounters::stack_overflow.
//
// The engines are templated over the backend, so the hot loop compiles to
// direct array access for ArrayWarpStack and to a page-table indirection
// for PagedWarpStack — mirroring the coalesced-vs-paged access cost the
// paper measures in Tables VI/VIII. Whole levels move as page runs
// (WriteLevel, StoredLevel): one table lookup and one copy per page.

#ifndef TDFS_MEM_WARP_STACK_H_
#define TDFS_MEM_WARP_STACK_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mem/page_allocator.h"
#include "obs/trace.h"
#include "util/intersect.h"
#include "util/status.h"

namespace tdfs {

/// Outcome of a single stack write. Distinguishes the retriable failure
/// (the shared pool is dry *right now* — another warp may release pages)
/// from the structural one (the position is beyond what the level's page
/// table can ever address), so the engine's pressure-handling can retry
/// the former and escalate the latter.
enum class StackWrite {
  kOk,
  kPoolExhausted,   // AllocPage returned kNullPage; retriable
  kCapacityExceeded,  // beyond the page-table span / array capacity
};

/// Outcome of a run write (WriteLevel): how many leading elements were
/// stored, and kOk or the failure that stopped the run at element
/// `written`.
struct LevelWrite {
  int64_t written = 0;
  StackWrite status = StackWrite::kOk;
};

/// Paged backend. Not thread-safe: a stack belongs to exactly one warp
/// (page *allocation* underneath is lock-free and shared).
class PagedWarpStack {
 public:
  /// Page-table capacity default from the paper: 40 addresses per level
  /// (40 x 8 KiB = 320 KiB = 81,920 vertex ids per level).
  static constexpr int32_t kDefaultPageTableCapacity = 40;

  PagedWarpStack(PageAllocator* allocator, int num_levels,
                 int32_t page_table_capacity = kDefaultPageTableCapacity);
  ~PagedWarpStack();

  PagedWarpStack(const PagedWarpStack&) = delete;
  PagedWarpStack& operator=(const PagedWarpStack&) = delete;

  /// Move transfers page ownership; the source ends up empty.
  PagedWarpStack(PagedWarpStack&& other) noexcept
      : allocator_(other.allocator_),
        num_levels_(other.num_levels_),
        page_table_capacity_(other.page_table_capacity_),
        page_shift_(other.page_shift_),
        page_mask_(other.page_mask_),
        tables_(std::move(other.tables_)),
        pages_held_(other.pages_held_),
        spill_pages_held_(other.spill_pages_held_),
        tracer_(other.tracer_) {
    other.tables_.clear();
    other.pages_held_ = 0;
    other.spill_pages_held_ = 0;
    other.tracer_ = nullptr;
  }

  /// Routes page acquire/release events to the owning warp's tracer (arg =
  /// level). Null (the default) disables tracing. Not owned; must outlive
  /// the stack's page traffic.
  void SetTracer(obs::WarpTracer* tracer) { tracer_ = tracer; }

  /// Writes stack[level][pos], requesting a page on first touch. The
  /// engine's pressure path retries pool-exhausted writes after releasing
  /// pages and backing off.
  StackWrite TrySet(int level, int64_t pos, VertexId v) {
    const int64_t page_index = pos >> page_shift_;
    if (page_index >= page_table_capacity_) {
      return StackWrite::kCapacityExceeded;
    }
    const PageId page = TouchPage(level, page_index);
    if (page == kNullPage) {
      return StackWrite::kPoolExhausted;
    }
    allocator_->PageData(page)[pos & page_mask_] = v;
    return StackWrite::kOk;
  }

  /// Writes `values` to stack[level][from, from + |values|) one page run at
  /// a time: each page is mapped once (requested on first touch) and filled
  /// with a single copy, the way a warp stores a whole run (Alg. 5). Stops
  /// at the first page that cannot be mapped; the elements before it are
  /// stored, and the result says how many and why.
  LevelWrite WriteLevel(int level, VertexSpan values, int64_t from = 0) {
    LevelWrite result;
    const int64_t total = static_cast<int64_t>(values.size());
    const int64_t page_ints = page_mask_ + 1;
    while (result.written < total) {
      const int64_t pos = from + result.written;
      const int64_t page_index = pos >> page_shift_;
      if (page_index >= page_table_capacity_) {
        result.status = StackWrite::kCapacityExceeded;
        break;
      }
      const PageId page = TouchPage(level, page_index);
      if (page == kNullPage) {
        result.status = StackWrite::kPoolExhausted;
        break;
      }
      const int64_t offset = pos & page_mask_;
      const int64_t run = std::min(total - result.written, page_ints - offset);
      std::memcpy(allocator_->PageData(page) + offset,
                  values.data() + result.written,
                  static_cast<size_t>(run) * sizeof(VertexId));
      result.written += run;
    }
    return result;
  }

  /// Reads stack[level][pos]; the position must have been written.
  VertexId Get(int level, int64_t pos) const {
    const int64_t page_index = pos >> page_shift_;
    const int64_t offset = pos & page_mask_;
    const PageId entry = tables_[level * page_table_capacity_ + page_index];
    TDFS_CHECK_MSG(entry != kNullPage, "read of unallocated stack page");
    return allocator_->PageData(entry)[offset];
  }

  /// The first `size` elements of a level as one contiguous span. A level
  /// within one page is returned in place (no copy — the GPU reads the
  /// page where it lies); a longer one is gathered page by page into
  /// `scratch`, and the span then aliases it until its next use. The
  /// positions must have been written.
  VertexSpan StoredLevel(int level, int64_t size,
                         std::vector<VertexId>* scratch) const {
    if (size == 0) {
      return {};
    }
    const PageId* table = &tables_[level * page_table_capacity_];
    const int64_t page_ints = page_mask_ + 1;
    if (size <= page_ints) {
      TDFS_CHECK_MSG(table[0] != kNullPage, "read of unallocated stack page");
      return VertexSpan(allocator_->PageData(table[0]),
                        static_cast<size_t>(size));
    }
    scratch->resize(static_cast<size_t>(size));
    for (int64_t pos = 0; pos < size; pos += page_ints) {
      const PageId page = table[pos >> page_shift_];
      TDFS_CHECK_MSG(page != kNullPage, "read of unallocated stack page");
      std::memcpy(scratch->data() + pos, allocator_->PageData(page),
                  static_cast<size_t>(std::min(page_ints, size - pos)) *
                      sizeof(VertexId));
    }
    return VertexSpan(*scratch);
  }

  /// Maximum elements a level can hold (page-table span).
  int64_t LevelCapacity() const {
    return static_cast<int64_t>(page_table_capacity_)
           << page_shift_;
  }

  /// Pages currently held across all levels (held pages are reused across
  /// tasks and only returned by ReleaseAll, as in the paper).
  int64_t PagesHeld() const { return pages_held_; }

  /// Held pages currently living in the allocator's host spill tier.
  int64_t SpillPagesHeld() const { return spill_pages_held_; }

  /// Migrates held spill pages back into arena pages (allocator
  /// TryPromote) while device pages are available — the eager promotion
  /// run between tasks as pressure drops. Contents are preserved; page
  /// ids in the tables are rewritten in place. Returns pages promoted.
  int64_t PromoteSpilled();

  /// Bytes attributable to this stack: held pages plus the page tables.
  int64_t MemoryBytes() const {
    return pages_held_ * allocator_->page_bytes() +
           static_cast<int64_t>(tables_.size()) * sizeof(PageId);
  }

  /// Returns every held page to the allocator.
  void ReleaseAll();

  /// The paper's optional release heuristic ("if it uses no more than n/4
  /// pages, then we can free the last n/2 pages"): given that the level
  /// currently stores `used_elements`, frees the tail half of its pages
  /// when at most a quarter are in use. Returns pages freed.
  int64_t MaybeShrinkLevel(int level, int64_t used_elements);

  /// Returns every page of one level to the pool (used under memory
  /// pressure for levels whose stored candidates are dead — deeper than
  /// the warp's current position, so the next descent re-extends them
  /// anyway). Returns pages freed.
  int64_t ReleaseLevel(int level);

  /// Pages currently mapped in one level.
  int64_t PagesInLevel(int level) const {
    int64_t count = 0;
    for (int32_t i = 0; i < page_table_capacity_; ++i) {
      count += tables_[level * page_table_capacity_ + i] != kNullPage;
    }
    return count;
  }

 private:
  // Page `page_index` of `level`, requested from the pool on first touch
  // (the leader-elected page request of Alg. 5; one thread per warp here,
  // so the leader is implicit). kNullPage when the pool is dry.
  PageId TouchPage(int level, int64_t page_index) {
    PageId& entry = tables_[level * page_table_capacity_ + page_index];
    if (entry == kNullPage) {
      entry = allocator_->AllocPage();
      if (entry == kNullPage) {
        return kNullPage;
      }
      ++pages_held_;
      if (allocator_->IsSpillPage(entry)) {
        ++spill_pages_held_;
        if (tracer_ != nullptr) {
          tracer_->Event(obs::TraceEvent::kPageSpill, level);
        }
      } else if (tracer_ != nullptr) {
        tracer_->Event(obs::TraceEvent::kPageAcquire, level);
      }
    }
    return entry;
  }

  PageAllocator* allocator_;
  int num_levels_;
  int32_t page_table_capacity_;
  int page_shift_;
  int64_t page_mask_;
  std::vector<PageId> tables_;  // num_levels x page_table_capacity
  int64_t pages_held_ = 0;
  int64_t spill_pages_held_ = 0;
  obs::WarpTracer* tracer_ = nullptr;
};

/// Fixed-capacity array backend.
class ArrayWarpStack {
 public:
  ArrayWarpStack(int num_levels, int64_t level_capacity);

  ArrayWarpStack(const ArrayWarpStack&) = delete;
  ArrayWarpStack& operator=(const ArrayWarpStack&) = delete;
  ArrayWarpStack(ArrayWarpStack&&) noexcept = default;

  /// Writes stack[level][pos]; never pool-limited, so the only failure is
  /// kCapacityExceeded (which retrying cannot fix).
  StackWrite TrySet(int level, int64_t pos, VertexId v) {
    if (pos >= level_capacity_) {
      return StackWrite::kCapacityExceeded;
    }
    data_[level * level_capacity_ + pos] = v;
    return StackWrite::kOk;
  }

  /// Run write (see PagedWarpStack::WriteLevel): one copy; the part past
  /// the level capacity is dropped and reported as kCapacityExceeded.
  LevelWrite WriteLevel(int level, VertexSpan values, int64_t from = 0) {
    const int64_t room = std::max<int64_t>(level_capacity_ - from, 0);
    const int64_t total = static_cast<int64_t>(values.size());
    LevelWrite result;
    result.written = std::min(total, room);
    std::copy_n(values.data(), result.written,
                data_.data() + level * level_capacity_ + from);
    if (result.written < total) {
      result.status = StackWrite::kCapacityExceeded;
    }
    return result;
  }

  VertexId Get(int level, int64_t pos) const {
    return data_[level * level_capacity_ + pos];
  }

  /// The first `size` elements of a level, always in place.
  VertexSpan StoredLevel(int level, int64_t size,
                         std::vector<VertexId>* /*scratch*/) const {
    return VertexSpan(data_.data() + level * level_capacity_,
                      static_cast<size_t>(size));
  }

  int64_t LevelCapacity() const { return level_capacity_; }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(data_.size()) * sizeof(VertexId);
  }

 private:
  int64_t level_capacity_;
  std::vector<VertexId> data_;
};

}  // namespace tdfs

#endif  // TDFS_MEM_WARP_STACK_H_
