// Nested wall-clock spans for the service-side job lifecycle.
//
// Warp rings (obs/trace.h) answer "what did warp 3 do at work-unit 10k";
// they cannot answer "where did this job's 40 ms go" because a job crosses
// subsystems that have no warp: admission, plan-cache compile, governor
// reservation waits, result merge. A SpanLedger records those stages as
// begin/end spans with explicit parent ids, so the whole
// submit → admission → plan → mem-reserve → engine-run → merge → finalize
// chain reconstructs as one tree per job and lands on the same
// Chrome-trace timeline as the warp events (TraceSession owns a ledger
// and merges it into WriteChromeTrace as balanced B/E events).
//
// Recording is cold-path by design — a handful of spans per job, never
// per task or per intersection — so every operation takes one mutex. The
// RAII Span handle ends its record on destruction; ends are matched by
// span id, so out-of-order ends (device slices finishing while the merge
// span is open) are fine. Tracks are timeline rows: one for the service
// control plane per job, one per device slice, so concurrent slices never
// interleave on one row and per-track timestamps stay monotone.
//
// Zero-cost-off: a null SpanLedger (or null SpanContext) makes Begin a
// pointer test returning an inert handle.

#ifndef TDFS_OBS_SPAN_H_
#define TDFS_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace tdfs::obs {

class SpanLedger {
 public:
  struct Record {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    int64_t track = 0;
    int64_t start_ns = 0;  // since ledger epoch
    int64_t end_ns = -1;   // -1 while the span is open
    int64_t arg = 0;
    std::string name;
  };

  struct Options {
    /// Completed + open records retained; older records are dropped
    /// (FIFO) beyond it, with a drop counter keeping exports honest.
    /// (Explicit constructor: gcc rejects a default member initializer
    /// used as a nested-class default argument.)
    int64_t capacity;
    Options() : capacity(int64_t{1} << 16) {}
  };

  explicit SpanLedger(Options options = Options());

  SpanLedger(const SpanLedger&) = delete;
  SpanLedger& operator=(const SpanLedger&) = delete;

  /// Move-only RAII handle; ends the span on destruction (idempotent).
  /// A default-constructed Span is inert.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept {
      if (this != &other) {
        End();
        ledger_ = other.ledger_;
        id_ = other.id_;
        track_ = other.track_;
        other.ledger_ = nullptr;
        other.id_ = 0;
      }
      return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }

    bool active() const { return ledger_ != nullptr; }
    /// Span id for parenting children; 0 when inert.
    uint64_t id() const { return id_; }
    int64_t track() const { return track_; }

    /// Stamps the end timestamp. Idempotent; the handle goes inert.
    void End();
    /// Updates the span's payload (bytes reserved, match count, ...).
    void SetArg(int64_t arg);

   private:
    friend class SpanLedger;
    Span(SpanLedger* ledger, uint64_t id, int64_t track)
        : ledger_(ledger), id_(id), track_(track) {}

    SpanLedger* ledger_ = nullptr;
    uint64_t id_ = 0;
    int64_t track_ = 0;
  };

  /// Opens a span on `track` under `parent` (0 = root). Thread-safe.
  Span Begin(std::string name, int64_t track, uint64_t parent = 0,
             int64_t arg = 0);

  /// Allocates a new timeline row. Rows serialize spans: begin/end pairs
  /// on one row must come from one logical sequence (the export emits
  /// them as a balanced B/E stream per row).
  int64_t NewTrackId(std::string name = "");
  void NameTrack(int64_t track, std::string name);
  std::string TrackName(int64_t track) const;
  int64_t NumTracks() const;

  /// Re-anchors the clock so span timestamps share another component's
  /// epoch (TraceSession aligns the ledger to its own wall epoch).
  void SetEpochNs(int64_t epoch_ns);
  /// Nanoseconds since the ledger epoch.
  int64_t NowNs() const;

  int64_t Size() const;
  int64_t Dropped() const;
  /// Snapshot of retained records, oldest first. Open spans have
  /// end_ns == -1.
  std::vector<Record> Records() const;

 private:
  void EndSpan(uint64_t id);
  void SetSpanArg(uint64_t id, int64_t arg);

  Options options_;
  std::atomic<int64_t> epoch_ns_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::deque<Record> records_;
  int64_t dropped_ = 0;
  std::vector<std::string> track_names_;
};

/// Where a subsystem call should hang its spans: which ledger, which
/// timeline row, which parent span. Passed by value down call chains
/// (PlanCache::GetWithDemand and MemoryGovernor::ReserveBytes take one as
/// a defaulted trailing parameter); a
/// default-constructed context is inert and costs a pointer test.
struct SpanContext {
  SpanLedger* ledger = nullptr;
  int64_t track = 0;
  uint64_t parent = 0;

  bool enabled() const { return ledger != nullptr; }

  SpanLedger::Span Begin(std::string name, int64_t arg = 0) const {
    if (ledger == nullptr) {
      return {};
    }
    return ledger->Begin(std::move(name), track, parent, arg);
  }

  /// The same context reparented under `span` (for nesting deeper calls).
  SpanContext Under(const SpanLedger::Span& span) const {
    return SpanContext{ledger, track, span.id() == 0 ? parent : span.id()};
  }
};

}  // namespace tdfs::obs

#endif  // TDFS_OBS_SPAN_H_
