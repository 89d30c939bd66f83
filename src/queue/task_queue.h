// The lock-free circular task queue Q_task (Alg. 3 of the paper).
//
// A task is a partial match of at most three data vertices:
//   <v1, v2, v3>  — three matched vertices, or
//   <v1, v2, -2>  — two matched vertices (kNoThirdVertex placeholder),
// stored in three consecutive int slots of a ring buffer of N ints
// (N a multiple of 3). The ring is reserved at construction and committed
// on first touch (see mem/lazy_region.h); its encodings make all-zero the
// empty state, so a fresh mapping is already an empty ring. A slot holds
// `value - kEmptySlot` (wrapping), so 0 means empty.
//
// The queue is operated by warps: `size` is adjusted first as admission
// control, then `back`/`front` are advanced atomically to claim slot
// positions, and finally the slots are handed off with CAS (enqueue waits
// for the slot to be cleared) or exchange (dequeue waits for the slot to
// be filled). This is the protocol of Alg. 3 transcribed onto the vgpu
// atomics shim, with two hardenings:
//  1. Admission uses a CAS loop instead of the paper's add-then-rollback,
//     so `size` is exact at all times. The rollback variant let a dequeue
//     admit itself against a failing enqueue's transient +3 and then wait
//     for a slot fill that no producer owed — a hang once producers
//     stopped.
//  2. Each slot carries a lap sequence number that totally orders its
//     fill/take pairs across ring generations. Without it, a consumer
//     parked mid-dequeue while `front` laps the ring can have its fill
//     stolen by a later consumer on the same position, tearing a task
//     across two producers.

#ifndef TDFS_QUEUE_TASK_QUEUE_H_
#define TDFS_QUEUE_TASK_QUEUE_H_

#include <atomic>
#include <cstdint>

#include "mem/lazy_region.h"
#include "obs/metrics.h"
#include "util/intersect.h"
#include "util/status.h"

namespace tdfs {

/// Slot sentinel: not occupied.
inline constexpr VertexId kEmptySlot = -1;

/// Third-vertex sentinel: the task has only two matched vertices.
inline constexpr VertexId kNoThirdVertex = -2;

/// A decomposed task: a partial match of 2 or 3 data vertices.
struct Task {
  VertexId v1 = kEmptySlot;
  VertexId v2 = kEmptySlot;
  VertexId v3 = kNoThirdVertex;

  bool HasThird() const { return v3 != kNoThirdVertex; }

  bool operator==(const Task&) const = default;
};

class TaskQueue {
 public:
  /// Default capacity from the paper: N = 3 million ints (1M tasks). The
  /// ring and its lap guards reserve 36 MB; a run commits only the prefix
  /// its tickets reach.
  static constexpr int32_t kDefaultCapacityInts = 3'000'000;

  /// `capacity_ints` must be a positive multiple of 3.
  explicit TaskQueue(int32_t capacity_ints = kDefaultCapacityInts);

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Returns false when the queue is full (caller falls back to in-place
  /// processing, Alg. 4 lines 17-20).
  bool Enqueue(const Task& task);

  /// Returns false when the queue is empty.
  bool Dequeue(Task* task);

  /// Number of tasks currently admitted. Exact at any instant (admission
  /// is a CAS loop); the name survives from the paper's approximate
  /// protocol.
  int32_t ApproxSize() const;

  int32_t capacity_ints() const { return capacity_; }

  /// Lifetime counters (relaxed; exact once the queue is quiescent).
  int64_t TotalEnqueued() const {
    return total_enqueued_.load(std::memory_order_relaxed);
  }
  int64_t TotalDequeued() const {
    return total_dequeued_.load(std::memory_order_relaxed);
  }
  int64_t EnqueueFullFailures() const {
    return enqueue_full_.load(std::memory_order_relaxed);
  }

  /// High-water mark of admitted ints (to validate the paper's claim that
  /// queue-first scheduling keeps the queue small).
  int32_t PeakSizeInts() const {
    return peak_size_.load(std::memory_order_relaxed);
  }

  void ResetStats();

  /// Pops and discards every admitted task, then rewinds the front/back
  /// tickets to 0 so the next run starts at slot 0 like a fresh queue
  /// (warm-run traces stay slot-comparable to cold runs). Only the prefix
  /// of the ring the tickets reached is checked and reset; the rest was
  /// never touched and is still zero. For recycling an
  /// idle queue between runs (a deadline-aborted run can leave tasks
  /// behind): call only when no warp is operating on the queue. Unlike
  /// Dequeue, never subject to failpoint injection — scrubbing must not be
  /// fallible. Returns the number of tasks discarded.
  int64_t DrainForReuse();

  /// Ring-position tickets (ints, monotone between drains). Quiescent
  /// diagnostics only: both are 0 after construction and after
  /// DrainForReuse.
  int64_t FrontTicket() const { return front_; }
  int64_t BackTicket() const { return back_; }

  /// Samples queue occupancy (tasks) into `occupancy` on 1 in
  /// kObsSampleEvery successful enqueues/dequeues. Null (the default)
  /// disables sampling. Atomic: under sharded execution sibling shards
  /// can be stealing from this queue while its owner engine attaches.
  void AttachObs(obs::Histogram* occupancy) {
    obs_occupancy_.store(occupancy, std::memory_order_release);
  }

  /// Occupancy sampling period (power of two). The histogram is shared
  /// across every warp; observing it on each operation would make its
  /// cache lines the hottest contention point in the queue.
  static constexpr int64_t kObsSampleEvery = 64;

 private:
  bool DequeueInternal(Task* task);

  int32_t capacity_;
  // Encoded task ints: `value - kEmptySlot`, 0 = empty.
  LazyRegion<int32_t> slots_;
  // Per-slot lap guard: laps_[p] + p is the ticket of the next operation
  // allowed to touch slot p (the enqueue with that ticket; its matching
  // dequeue sees ticket + 1; the next lap's enqueue sees ticket +
  // capacity). Slot p's first enqueue ticket is p, so 0 means pristine.
  LazyRegion<int64_t> laps_;
  // The paper's three control words, operated on through the CUDA-semantics
  // shim like the device-side original. back/front are 64-bit monotone
  // counters (reduced mod N on use) so they cannot wrap mid-run.
  int32_t size_ = 0;
  int64_t back_ = 0;
  int64_t front_ = 0;

  std::atomic<int64_t> total_enqueued_{0};
  std::atomic<int64_t> total_dequeued_{0};
  std::atomic<int64_t> enqueue_full_{0};
  std::atomic<int32_t> peak_size_{0};
  std::atomic<obs::Histogram*> obs_occupancy_{nullptr};
};

}  // namespace tdfs

#endif  // TDFS_QUEUE_TASK_QUEUE_H_
