// System-wide memory budget authority.
//
// Every PageAllocator (and therefore every MatchService worker's pool)
// registers its committed arena bytes with a MemoryGovernor; page alloc/free traffic is
// mirrored as in-use deltas. From those two numbers plus outstanding
// admission reservations the governor derives a pressure level:
//
//   kOk    occupancy <  soft_fraction  — admit freely
//   kSoft  occupancy >= soft_fraction  — admit, but make new jobs wait
//   kHard  occupancy >= hard_fraction  — spill tier active / shed load
//
// where occupancy = (in_use + reserved) / budget. Without an explicit
// budget the governor is INERT: pressure reports kOk, every reservation is
// granted, and only the spill byte ceiling applies — so standalone runs
// behave exactly as if no governor existed (committed/in-use are still
// tracked for introspection).
//
// Two cooperating protocols sit on top:
//
//  * Reservations (admission control). MatchService estimates a job's page
//    demand, converts it to bytes, and calls ReserveBytes with a deadline.
//    Reservations are granted when in_use + reserved + request fits under
//    the denominator; otherwise the caller joins a waiters queue and is
//    woken as memory frees, up to the deadline (deadline-expired waiters
//    fail with a timeout instead of blocking forever). Release via the
//    RAII Reservation handle.
//
//  * Spill grants (out-of-core tier). When an arena is dry,
//    the allocator asks TryGrantSpill(bytes) for a host-backed overflow
//    page. Grants are bounded by max_spill_bytes so a runaway query cannot
//    OOM the host; denials surface as alloc misses (and ultimately
//    kResourceExhausted) exactly like a dry pool without spill.
//
// All counters are relaxed atomics on the hot path; the waiters queue uses
// a mutex + condition_variable and is only touched by admission control.

#ifndef TDFS_MEM_MEMORY_GOVERNOR_H_
#define TDFS_MEM_MEMORY_GOVERNOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "obs/metrics.h"
#include "obs/span.h"

namespace tdfs {

/// Memory pressure level (ok -> soft -> hard).
enum class MemPressure { kOk, kSoft, kHard };

const char* MemPressureName(MemPressure p);

class MemoryGovernor {
 public:
  struct Options {
    /// Explicit byte budget; 0 leaves the governor inert (kOk, admit-all).
    int64_t budget_bytes = 0;

    /// Occupancy fractions at which pressure escalates.
    double soft_fraction = 0.75;
    double hard_fraction = 0.95;

    /// Ceiling on host-backed spill bytes outstanding at once.
    int64_t max_spill_bytes = int64_t{1} << 30;  // 1 GiB
  };

  MemoryGovernor();  // default Options
  explicit MemoryGovernor(const Options& options);

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Process-wide default instance (what CLI --mem-budget configures).
  static MemoryGovernor* Global();

  /// `governor`, or the process-global instance when null — how engines
  /// resolve EngineConfig::governor.
  static MemoryGovernor* Resolve(MemoryGovernor* governor) {
    return governor != nullptr ? governor : Global();
  }

  /// Adjusts the explicit budget at runtime (0 = track committed).
  void SetBudgetBytes(int64_t bytes);
  int64_t budget_bytes() const {
    return budget_bytes_.load(std::memory_order_relaxed);
  }
  void SetMaxSpillBytes(int64_t bytes);
  int64_t max_spill_bytes() const {
    return max_spill_bytes_.load(std::memory_order_relaxed);
  }

  // ---- allocator registration ----

  /// Called by PageAllocator construction/destruction with the arena size.
  void RegisterCommitted(int64_t bytes);
  void UnregisterCommitted(int64_t bytes);

  /// Mirrors page alloc (+page_bytes) / free (-page_bytes). Relaxed; hot.
  void NoteInUse(int64_t delta);

  // ---- spill grants ----

  /// Accounts one would-be spill extent. False when the spill ceiling is
  /// reached (the caller must then fail the allocation).
  bool TryGrantSpill(int64_t bytes);
  void ReleaseSpill(int64_t bytes);

  // ---- pressure ----

  MemPressure Pressure() const;

  /// Derates a byte budget by the current pressure (ok: unchanged, soft:
  /// half, hard: quarter) — how the BFS engines shrink level
  /// materialization under pressure while staying exact (tighter budgets
  /// only mean more, smaller batches or an earlier DFS switch).
  int64_t DeratedBudget(int64_t budget_bytes) const;

  // ---- reservations (admission control) ----

  /// RAII reservation handle; releases on destruction. Empty handles are
  /// inert (and what a failed reserve returns).
  class Reservation {
   public:
    Reservation() = default;
    Reservation(Reservation&& other) noexcept { *this = std::move(other); }
    Reservation& operator=(Reservation&& other) noexcept;
    ~Reservation() { Release(); }

    explicit operator bool() const { return governor_ != nullptr; }
    int64_t bytes() const { return bytes_; }

    void Release();

   private:
    friend class MemoryGovernor;
    Reservation(MemoryGovernor* governor, int64_t bytes)
        : governor_(governor), bytes_(bytes) {}
    MemoryGovernor* governor_ = nullptr;
    int64_t bytes_ = 0;
  };

  /// Non-blocking: grants iff in_use + reserved + bytes fits under the
  /// denominator right now. bytes <= 0 grants an empty reservation.
  Reservation TryReserve(int64_t bytes);

  /// Blocking: waits (deadline-aware) for room instead of rejecting.
  /// timeout_ms <= 0 degenerates to TryReserve. Returns an empty handle on
  /// timeout. Waiters are woken whenever memory is released. `sctx` (when
  /// enabled) receives a "mem_reserve" span (arg = bytes) covering the
  /// whole grant-or-wait, so admission stalls land on the job's timeline.
  Reservation ReserveBytes(int64_t bytes, double timeout_ms,
                           obs::SpanContext sctx = {});

  // ---- introspection ----

  struct Snapshot {
    int64_t budget_bytes = 0;
    int64_t committed_bytes = 0;
    int64_t in_use_bytes = 0;
    int64_t reserved_bytes = 0;
    int64_t spilled_bytes = 0;
    int64_t spill_grants = 0;
    int64_t spill_denials = 0;
    int64_t reserve_waits = 0;
    int64_t reserve_timeouts = 0;
    MemPressure pressure = MemPressure::kOk;
  };
  Snapshot GetSnapshot() const;

  int64_t committed_bytes() const {
    return committed_bytes_.load(std::memory_order_relaxed);
  }
  int64_t in_use_bytes() const {
    return in_use_bytes_.load(std::memory_order_relaxed);
  }
  int64_t reserved_bytes() const {
    return reserved_bytes_.load(std::memory_order_relaxed);
  }
  int64_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }

  /// Mirrors governor activity into `metrics` as governor.* counters
  /// (spill_grants, spill_denials, reserve_waits, reserve_timeouts) plus a
  /// governor.pressure histogram sampled on every transition check that
  /// changes level. Null detaches.
  void AttachMetrics(obs::MetricsRegistry* metrics);

 private:
  /// Denominator for occupancy: the explicit budget (0 = inert).
  int64_t Denominator() const;
  bool FitsLocked(int64_t bytes) const;
  void WakeWaiters();
  void SamplePressure();

  const double soft_fraction_;
  const double hard_fraction_;

  std::atomic<int64_t> budget_bytes_;
  std::atomic<int64_t> max_spill_bytes_;
  std::atomic<int64_t> committed_bytes_{0};
  std::atomic<int64_t> in_use_bytes_{0};
  std::atomic<int64_t> reserved_bytes_{0};
  std::atomic<int64_t> spilled_bytes_{0};

  std::atomic<int64_t> spill_grants_{0};
  std::atomic<int64_t> spill_denials_{0};
  std::atomic<int64_t> reserve_waits_{0};
  std::atomic<int64_t> reserve_timeouts_{0};
  std::atomic<int> last_pressure_{0};  // MemPressure as int, for sampling

  /// Guards the waiters queue only; all accounting is atomic.
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;

  std::atomic<obs::Gauge*> obs_committed_bytes_{nullptr};
  std::atomic<obs::Gauge*> obs_in_use_bytes_{nullptr};
  std::atomic<obs::Counter*> obs_pressure_transitions_{nullptr};
  std::atomic<obs::Counter*> obs_spill_grants_{nullptr};
  std::atomic<obs::Counter*> obs_spill_denials_{nullptr};
  std::atomic<obs::Counter*> obs_reserve_waits_{nullptr};
  std::atomic<obs::Counter*> obs_reserve_timeouts_{nullptr};
  std::atomic<obs::Counter*> obs_pressure_soft_{nullptr};
  std::atomic<obs::Counter*> obs_pressure_hard_{nullptr};
};

}  // namespace tdfs

#endif  // TDFS_MEM_MEMORY_GOVERNOR_H_
