#include "queue/task_queue.h"

#include <algorithm>

#include "util/failpoint.h"
#include "vgpu/atomics.h"

namespace tdfs {

namespace {
// Back-off while waiting for the matching enqueue/dequeue to touch a slot
// (Alg. 3 uses __nanosleep(10)).
constexpr int64_t kSlotWaitNanos = 10;

// Slot encoding: `value - kEmptySlot` in wrapping arithmetic, so kEmptySlot
// is stored as 0 and every vertex id (including INT32_MAX) round-trips.
constexpr int32_t kEmptyCode = 0;

int32_t EncodeSlot(VertexId value) {
  return static_cast<int32_t>(static_cast<uint32_t>(value) -
                              static_cast<uint32_t>(kEmptySlot));
}

VertexId DecodeSlot(int32_t code) {
  return static_cast<VertexId>(static_cast<uint32_t>(code) +
                               static_cast<uint32_t>(kEmptySlot));
}
}  // namespace

TaskQueue::TaskQueue(int32_t capacity_ints) : capacity_(capacity_ints) {
  TDFS_CHECK_MSG(capacity_ints > 0 && capacity_ints % 3 == 0,
                 "queue capacity must be a positive multiple of 3");
  // All-zero is the empty ring: every slot empty, every lap pristine.
  slots_ = LazyRegion<int32_t>(capacity_ints);
  laps_ = LazyRegion<int64_t>(capacity_ints);
}

bool TaskQueue::Enqueue(const Task& task) {
  if (TDFS_INJECT_FAILURE("queue_enqueue")) {
    // Injected saturation: report full without admitting the task; the
    // caller exercises its in-place fallback (Alg. 4 lines 17-20).
    enqueue_full_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Exact admission on `size` (Alg. 3 lines 4-6, hardened): a CAS loop
  // admits iff the three ints fit, so `size` never transiently overshoots
  // capacity. The original add-then-rollback protocol could admit a
  // dequeue off a failing enqueue's +3; that dequeue then waited for a
  // slot fill only a later producer would deliver — a hang when producers
  // had already stopped (the phantom-admit bug).
  int32_t admitted = vgpu::AtomicLoad(&size_);
  for (;;) {
    if (admitted + 3 > capacity_) {
      enqueue_full_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const int32_t observed = vgpu::AtomicCas(&size_, admitted, admitted + 3);
    if (observed == admitted) {
      break;
    }
    admitted = observed;
  }
  // Claim a slot triple (line 7).
  const int64_t ticket = vgpu::AtomicAdd64(&back_, 3);
  // Hand off the three ints (lines 8-13, hardened with a lap guard). The
  // paper's wait-for-empty CAS is not enough on its own: with a consumer
  // parked mid-dequeue, `front` can lap the ring, and a second consumer
  // landing on the same position could steal the parked one's fill —
  // tearing a task across producers. Each slot therefore carries a lap
  // sequence; an operation proceeds only when the sequence equals its own
  // ticket, which totally orders the slot's fill/take pairs across laps.
  // Laps are stored relative to the position (see laps_).
  const VertexId values[3] = {task.v1, task.v2, task.v3};
  for (int i = 0; i < 3; ++i) {
    const int64_t slot_ticket = ticket + i;
    const int32_t pos = static_cast<int32_t>(slot_ticket % capacity_);
    const int64_t lap = slot_ticket - pos;
    while (vgpu::AtomicLoad64(&laps_[pos]) != lap) {
      vgpu::Nanosleep(kSlotWaitNanos);
    }
    const int32_t prev = vgpu::AtomicExch(&slots_[pos], EncodeSlot(values[i]));
    TDFS_CHECK_MSG(prev == kEmptyCode,
                   "enqueue hand-off found an occupied slot");
    vgpu::AtomicStore64(&laps_[pos], lap + 1);
  }
  const int64_t op_index =
      total_enqueued_.fetch_add(1, std::memory_order_relaxed);
  // Stats only: track the high-water mark of admitted ints. Admission is
  // exact, so a raw load is already within [0, capacity].
  const int32_t size_now = vgpu::AtomicLoad(&size_);
  int32_t peak = peak_size_.load(std::memory_order_relaxed);
  while (size_now > peak && !peak_size_.compare_exchange_weak(
                                peak, size_now, std::memory_order_relaxed)) {
  }
  // Occupancy is a distribution, not a count: sampling 1 in kObsSampleEvery
  // ops keeps its shape while sparing the shared histogram's cache lines
  // from every producer (the histogram is cross-warp; enqueue is hot).
  obs::Histogram* occupancy = obs_occupancy_.load(std::memory_order_acquire);
  if (occupancy != nullptr && (op_index & (kObsSampleEvery - 1)) == 0) {
    occupancy->Observe(size_now / 3);
  }
  return true;
}

bool TaskQueue::Dequeue(Task* task) {
  if (TDFS_INJECT_FAILURE("queue_dequeue")) {
    return false;  // injected empty-queue report; tasks stay admitted
  }
  return DequeueInternal(task);
}

bool TaskQueue::DequeueInternal(Task* task) {
  // Exact admission (Alg. 3 lines 16-18, hardened like Enqueue): admit
  // iff at least one task's worth of ints is present. Every admitted
  // dequeue therefore has a matching admitted enqueue that will fill its
  // slot — the fill wait below is bounded by that producer's progress.
  int32_t admitted = vgpu::AtomicLoad(&size_);
  for (;;) {
    if (admitted < 3) {
      return false;
    }
    const int32_t observed = vgpu::AtomicCas(&size_, admitted, admitted - 3);
    if (observed == admitted) {
      break;
    }
    admitted = observed;
  }
  // Claim a slot triple (line 19).
  const int64_t ticket = vgpu::AtomicAdd64(&front_, 3);
  // Take the three ints, waiting for the enqueuer with the SAME ticket to
  // fill each (lines 20-25, lap-guarded — see Enqueue). Publishing
  // `ticket + capacity` re-arms the slot for the next lap's enqueuer.
  VertexId values[3];
  for (int i = 0; i < 3; ++i) {
    const int64_t slot_ticket = ticket + i;
    const int32_t pos = static_cast<int32_t>(slot_ticket % capacity_);
    const int64_t lap = slot_ticket - pos;
    while (vgpu::AtomicLoad64(&laps_[pos]) != lap + 1) {
      vgpu::Nanosleep(kSlotWaitNanos);
    }
    const int32_t code = vgpu::AtomicExch(&slots_[pos], kEmptyCode);
    TDFS_CHECK_MSG(code != kEmptyCode,
                   "dequeue hand-off found an empty slot");
    values[i] = DecodeSlot(code);
    vgpu::AtomicStore64(&laps_[pos], lap + capacity_);
  }
  task->v1 = values[0];
  task->v2 = values[1];
  task->v3 = values[2];
  const int64_t op_index =
      total_dequeued_.fetch_add(1, std::memory_order_relaxed);
  obs::Histogram* occupancy = obs_occupancy_.load(std::memory_order_acquire);
  if (occupancy != nullptr && (op_index & (kObsSampleEvery - 1)) == 0) {
    occupancy->Observe(vgpu::AtomicLoad(&size_) / 3);
  }
  return true;
}

int64_t TaskQueue::DrainForReuse() {
  Task discarded;
  int64_t drained = 0;
  while (DequeueInternal(&discarded)) {
    ++drained;
  }
  // Rewind the ring to its pristine state so a reused queue starts at slot
  // 0 like a fresh one — warm-run traces stay slot-comparable to cold
  // runs. The caller guarantees quiescence, so plain stores suffice; the
  // slot check is the invariant that the drain really emptied the ring.
  // Positions at or past back_ were never touched since the last rewind
  // and are still zero, so checking and resetting the prefix is total.
  const int64_t touched = std::min<int64_t>(back_, capacity_);
  for (int64_t pos = 0; pos < touched; ++pos) {
    TDFS_CHECK_MSG(slots_[pos] == kEmptyCode,
                   "DrainForReuse left an occupied slot; the queue was not "
                   "quiescent");
    laps_[pos] = 0;
  }
  front_ = 0;
  back_ = 0;
  return drained;
}

int32_t TaskQueue::ApproxSize() const {
  // Admission is exact, so the load is already within [0, capacity].
  return vgpu::AtomicLoad(&size_) / 3;
}

void TaskQueue::ResetStats() {
  total_enqueued_.store(0, std::memory_order_relaxed);
  total_dequeued_.store(0, std::memory_order_relaxed);
  enqueue_full_.store(0, std::memory_order_relaxed);
  peak_size_.store(0, std::memory_order_relaxed);
}

}  // namespace tdfs
