// Reusable per-device engine resources for the batch match service.
//
// Every cold RunMatching builds a page pool (default 4096 x 8 KB = 32 MB)
// and a task-queue ring (default 3M ints) per device job; both are
// reserved and committed on first touch, so a cold build costs a few
// mappings. An EngineArena keeps a fixed set of slots — one page
// allocator plus one task queue each — and leases them to device jobs,
// which thread them into the engine through EngineConfig::resources.
//
// Lifecycle invariants (see also EngineResources in core/config.h):
//  * A slot serves one run at a time; Acquire blocks until a slot frees.
//  * The engine adopts a borrowed resource only when its geometry matches
//    the run's config, and resets its stats at adoption so per-run peak
//    counters never leak across runs. Geometry mismatches (e.g. the retry
//    escalation ladder grew page_pool_pages) silently fall back to fresh
//    allocation — reuse is an optimization, never a correctness input.
//  * On lease release the slot is scrubbed: leftover queue tasks from a
//    deadline-aborted or failed run are drained, and (defensively) a pool
//    with pages still checked out is rebuilt rather than reused.
// Under those invariants a warm run is bit-identical to a cold run: the
// engine only ever sees an empty queue and a fully free pool.

#ifndef TDFS_SERVICE_ENGINE_ARENA_H_
#define TDFS_SERVICE_ENGINE_ARENA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/config.h"
#include "mem/page_allocator.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "queue/task_queue.h"

namespace tdfs {

/// Geometry of the pooled resources. Must match the EngineConfig of the
/// runs that will borrow them, or the engine falls back to fresh
/// allocation.
struct ArenaOptions {
  int32_t page_pool_pages = 4096;
  int64_t page_bytes = 8192;
  int32_t queue_capacity_ints = TaskQueue::kDefaultCapacityInts;

  /// Pool only what the config's engine actually uses.
  bool pool_allocator = true;  // StackKind::kPaged
  bool pool_queue = true;      // StealStrategy::kTimeout

  /// Spill tier for the pooled allocators (mirrors
  /// EngineConfig::spill_to_host / max_spill_pages / governor, so adopted
  /// slots behave identically to fresh allocation).
  bool spill_to_host = false;
  int32_t max_spill_pages = 0;
  MemoryGovernor* governor = nullptr;

  static ArenaOptions FromConfig(const EngineConfig& config);
};

class EngineArena {
 public:
  EngineArena(int num_slots, const ArenaOptions& options);

  EngineArena(const EngineArena&) = delete;
  EngineArena& operator=(const EngineArena&) = delete;

  /// RAII slot lease. Move-only; releases (and scrubs) the slot on
  /// destruction. A default-constructed lease is empty.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { Release(); }

    /// The borrowed resources, for EngineConfig::resources. Valid until
    /// the lease is destroyed.
    const EngineResources* resources() const;

    explicit operator bool() const { return arena_ != nullptr; }

    void Release();

   private:
    friend class EngineArena;
    Lease(EngineArena* arena, int slot) : arena_(arena), slot_(slot) {}
    EngineArena* arena_ = nullptr;
    int slot_ = -1;
  };

  /// Blocks until a slot is free. Progress is guaranteed: leases are held
  /// only for the duration of one engine run. `sctx` (when enabled)
  /// receives an "arena_lease" span covering the wait, so slot contention
  /// shows up on the leasing job's timeline.
  Lease Acquire(obs::SpanContext sctx = {});

  /// Returns an empty optional instead of blocking.
  std::optional<Lease> TryAcquire();

  int num_slots() const { return static_cast<int>(slots_.size()); }

  /// Lifetime stats.
  int64_t total_acquires() const {
    return acquires_.load(std::memory_order_relaxed);
  }
  int64_t tasks_scrubbed() const {
    return tasks_scrubbed_.load(std::memory_order_relaxed);
  }
  int64_t slots_rebuilt() const {
    return slots_rebuilt_.load(std::memory_order_relaxed);
  }

  /// Mirrors acquire/scrub counts into `metrics` as
  /// service.arena_{acquires,scrubbed_tasks,slots_rebuilt}.
  void AttachMetrics(obs::MetricsRegistry* metrics);

 private:
  struct Slot {
    std::unique_ptr<PageAllocator> allocator;
    std::unique_ptr<TaskQueue> queue;
    EngineResources resources;
  };

  void Release(int slot_index);

  const ArenaOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<int> free_;

  std::atomic<int64_t> acquires_{0};
  std::atomic<int64_t> tasks_scrubbed_{0};
  std::atomic<int64_t> slots_rebuilt_{0};

  obs::Counter* obs_acquires_ = nullptr;
  obs::Counter* obs_scrubbed_ = nullptr;
  obs::Counter* obs_rebuilt_ = nullptr;
};

}  // namespace tdfs

#endif  // TDFS_SERVICE_ENGINE_ARENA_H_
