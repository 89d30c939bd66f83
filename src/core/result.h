// Run results and per-run counters reported by every engine.

#ifndef TDFS_CORE_RESULT_H_
#define TDFS_CORE_RESULT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"

namespace tdfs::obs {
class JsonWriter;
class MetricsRegistry;
}  // namespace tdfs::obs

namespace tdfs {

/// Every RunCounters field, as X(name). ToJson and the round-trip schema
/// test expand this so the export can never silently fall behind the
/// struct: a field added to RunCounters without extending this list fails
/// the static_assert in result.cc.
#define TDFS_RUN_COUNTER_FIELDS(X) \
  X(work_units)                    \
  X(max_warp_work_units)           \
  X(edges_scanned)                 \
  X(initial_tasks)                 \
  X(timeout_splits)                \
  X(tasks_enqueued)                \
  X(tasks_dequeued)                \
  X(queue_full_failures)           \
  X(queue_peak_tasks)              \
  X(steal_attempts)                \
  X(steal_successes)               \
  X(steal_probes)                  \
  X(shard_cross_msgs)              \
  X(shard_halo_hits)               \
  X(shard_remote_reads)            \
  X(shard_cross_steals)            \
  X(kernels_launched)              \
  X(child_warps_launched)          \
  X(stack_bytes_peak)              \
  X(pages_peak)                    \
  X(alloc_misses)                  \
  X(spill_allocs)                  \
  X(spill_pages_peak)              \
  X(spill_promotions)              \
  X(stack_overflow)                \
  X(failpoint_fires)               \
  X(pressure_retries)              \
  X(pressure_pages_released)       \
  X(deferred_tasks)                \
  X(adoption_rejects)              \
  X(attempts)                      \
  X(degraded_mode)                 \
  X(devices_recovered)             \
  X(bfs_batches)                   \
  X(bfs_peak_bytes)                \
  X(preprocess_ms)                 \
  X(prefilter_ms)                  \
  X(prefilter_original_vertices)   \
  X(prefilter_original_edges)      \
  X(prefilter_kept_vertices)       \
  X(prefilter_kept_edges)

/// Counters accumulated over one matching job. All engines fill the fields
/// that apply to them; the rest stay zero. Values are exact once the job
/// has completed.
struct RunCounters {
  /// Abstract work units (set-intersection comparisons and probes). The
  /// machine-independent cost measure used by the virtual clock and for
  /// cross-engine shape comparisons.
  uint64_t work_units = 0;

  /// Work units of the single busiest warp. On a host where warps share
  /// CPU cores, wall time alone cannot expose load imbalance (an idle
  /// virtual warp frees the core for the straggler), so the simulated
  /// parallel makespan is derived from this: see
  /// RunResult::SimulatedGpuMs().
  uint64_t max_warp_work_units = 0;

  /// Directed edges inspected as initial tasks / surviving the edge filter.
  int64_t edges_scanned = 0;
  int64_t initial_tasks = 0;

  // -- timeout strategy --
  int64_t timeout_splits = 0;    // decomposition events
  int64_t tasks_enqueued = 0;    // tasks pushed to Q_task
  int64_t tasks_dequeued = 0;
  int64_t queue_full_failures = 0;
  int64_t queue_peak_tasks = 0;  // high-water mark of Q_task

  // -- half-steal strategy --
  int64_t steal_attempts = 0;
  int64_t steal_successes = 0;
  int64_t steal_probes = 0;  // victim stacks inspected across all attempts

  // -- sharded execution (src/shard/) --
  int64_t shard_cross_msgs = 0;    // initial-edge tasks routed to another
                                   // shard's queue at seeding time
  int64_t shard_halo_hits = 0;     // adjacency rows served from the halo
  int64_t shard_remote_reads = 0;  // adjacency rows fetched from the owner
  int64_t shard_cross_steals = 0;  // tasks dequeued from a sibling shard's
                                   // queue after this shard drained

  // -- new-kernel strategy --
  int64_t kernels_launched = 0;  // child kernels only
  int64_t child_warps_launched = 0;

  // -- memory --
  int64_t stack_bytes_peak = 0;   // sum over warps of stack footprint
  int64_t pages_peak = 0;         // paged backend: peak pages in use
                                  // (both tiers — true page demand)
  int64_t alloc_misses = 0;       // AllocPage calls that returned
                                  // kNullPage (every tier dry)
  int64_t spill_allocs = 0;       // host spill pages allocated
  int64_t spill_pages_peak = 0;   // peak concurrent spill pages
  int64_t spill_promotions = 0;   // spill pages promoted back to arena
  bool stack_overflow = false;    // fixed-capacity backend truncated

  // -- fault tolerance (never silent: Summary() reports degraded runs) --
  int64_t failpoint_fires = 0;     // injected faults observed by this job
  int64_t pressure_retries = 0;    // paged-stack writes retried under
                                   // pool pressure
  int64_t pressure_pages_released = 0;  // pages freed by pressure release
  int64_t deferred_tasks = 0;      // tasks re-enqueued instead of failing
  int64_t adoption_rejects = 0;    // borrowed resources refused because a
                                   // previous borrower leaked pages
  int32_t attempts = 1;            // engine executions per device job
                                   // (>1 = retry/escalation kicked in)
  bool degraded_mode = false;      // ran with pressure measures engaged
  int64_t devices_recovered = 0;   // device slices re-executed to success

  // -- BFS (PBE) engine --
  int64_t bfs_batches = 0;
  int64_t bfs_peak_bytes = 0;

  /// Host-side preprocessing (STMatch's single-core edge filter, EGSM's
  /// index build), charged separately as in Section IV-B.
  double preprocess_ms = 0.0;

  // -- candidate prefiltering (query/candidate_filter.h) --
  /// Host-side candidate-filter build time (part of total_ms, like
  /// preprocess_ms). 0 when prefiltering was off or the filtered view came
  /// prebuilt from the service cache.
  double prefilter_ms = 0.0;
  /// Candidate-induced CSR size vs the original graph; all four are 0 when
  /// prefiltering was off. Shared per run, so MergeFrom takes max.
  int64_t prefilter_original_vertices = 0;
  int64_t prefilter_original_edges = 0;  // undirected
  int64_t prefilter_kept_vertices = 0;
  int64_t prefilter_kept_edges = 0;  // undirected

  /// Merges counters from another (sub-)run into this one.
  void MergeFrom(const RunCounters& other);
};

/// The outcome of one matching job.
struct TimeAttributionSink;  // util/time_attr.h

/// Exported wall-time attribution: where a traced run's time went, per
/// plan cell (matching-order position) and per intersection backend arm
/// nested under its cell. Populated from the engines' sampled
/// TimeAttributionSink (util/time_attr.h) only when the run had a trace
/// session; otherwise empty. `ns` is the raw sampled time; EstimatedNs
/// scales it back up by calls/sampled.
struct TimeAttribution {
  struct CellBucket {
    std::string name;  // "cell0".."cell15", "other"
    uint64_t calls = 0;
    uint64_t sampled = 0;
    uint64_t ns = 0;
  };
  struct ArmBucket {
    std::string cell;  // owning cell bucket name
    std::string arm;   // "merge_simd", "bitmap_gallop", ...
    uint64_t calls = 0;
    uint64_t sampled = 0;
    uint64_t ns = 0;
  };

  std::vector<CellBucket> cells;
  std::vector<ArmBucket> arms;

  bool Empty() const { return cells.empty() && arms.empty(); }

  /// Converts a merged engine sink; zero-call buckets are dropped.
  static TimeAttribution FromSink(const TimeAttributionSink& sink);

  static uint64_t EstimatedNs(uint64_t calls, uint64_t sampled, uint64_t ns);

  /// Key-wise accumulate (multi-device / multi-slice merges).
  void MergeFrom(const TimeAttribution& other);

  /// Collapsed-stack flamegraph lines: "tdfs;cellN[;arm] <estimated_ns>".
  /// The cell line carries the estimated cell time minus its arms' time
  /// (clamped at 0 — the layers sample independently), so stack totals
  /// add up the way flamegraph tooling expects.
  void WriteCollapsed(std::ostream& os) const;

  void ToJson(obs::JsonWriter* w) const;
};

/// Per-shard execution summary of a sharded run (src/shard/). Filled by
/// the shard runner only — empty for ordinary runs. Not part of
/// RunCounters: this is per-shard structure, not a mergeable total.
struct ShardRunStats {
  int shard_id = 0;
  int numa_node = -1;          // arena placement hint (-1 = none)
  int64_t owned_rows = 0;      // vertices this shard owns
  int64_t halo_rows = 0;       // boundary vertices halo-cached here
  int64_t owned_edges = 0;     // directed edges seeded from this shard
  int64_t resident_bytes = 0;  // private CSR + halo + id-map bytes
  int64_t routed_out = 0;      // initial edges routed to other shards
  int64_t routed_in = 0;       // initial edges received from other shards
  // Adjacency fetch traffic (rows and list items), by source tier.
  int64_t local_rows = 0;
  int64_t local_items = 0;
  int64_t halo_rows_fetched = 0;
  int64_t halo_items = 0;
  int64_t remote_rows = 0;
  int64_t remote_items = 0;
  uint64_t work_units = 0;          // this shard's share of total work
  uint64_t max_warp_work_units = 0;
  double simulated_ms = 0.0;        // this shard's SimulatedGpuMs share
};

struct RunResult {
  Status status;

  /// Number of matches (symmetry-broken count unless symmetry breaking was
  /// disabled, in which case every automorphic image is counted).
  uint64_t match_count = 0;

  /// End-to-end wall time including preprocessing.
  double total_ms = 0.0;

  /// Matching-kernel wall time (total_ms - preprocess time).
  double match_ms = 0.0;

  /// Per-device kernel times (multi-device runs). The simulated parallel
  /// makespan is the max entry; see vgpu/device.h.
  std::vector<double> per_device_ms;

  RunCounters counters;

  /// Per-shard stats for sharded runs (empty otherwise); exported under
  /// "per_shard" in ToJson.
  std::vector<ShardRunStats> per_shard;

  /// Per-cell / per-arm wall-time attribution (traced runs only).
  TimeAttribution attribution;

  /// Simulated GPU (warp-parallel) time: the share of the measured wall
  /// time attributable to the busiest warp,
  ///   match_ms * max_warp_work_units / work_units.
  /// If every warp did equal work this is match_ms / num_warps; if one
  /// straggler did everything it is match_ms. Mechanism overheads that
  /// cost time but no work units (stack locks, kernel launches) inflate
  /// match_ms and therefore this value too — exactly the costs the
  /// paper's strategy comparison measures. Falls back to match_ms when no
  /// work was metered.
  double SimulatedGpuMs() const {
    if (counters.work_units == 0 || counters.max_warp_work_units == 0) {
      return match_ms;
    }
    return match_ms * static_cast<double>(counters.max_warp_work_units) /
           static_cast<double>(counters.work_units);
  }

  /// Simulated parallel time across devices: max over per-device simulated
  /// times for multi-device runs, or this run's own simulated time for
  /// single-device runs (so 1-vs-N comparisons use the same metric).
  double SimulatedParallelMs() const {
    if (per_device_ms.empty()) {
      return SimulatedGpuMs();
    }
    double worst = 0.0;
    for (double t : per_device_ms) {
      worst = worst > t ? worst : t;
    }
    return worst;
  }

  /// Short human-readable line for harness output.
  std::string Summary() const;

  /// Machine-readable export: status, match count, timings (including the
  /// simulated metrics), per-device times, every RunCounters field (via
  /// TDFS_RUN_COUNTER_FIELDS), and — when `metrics` is non-null and
  /// non-empty — the run's metrics registry under "metrics".
  void ToJson(obs::JsonWriter* w,
              const obs::MetricsRegistry* metrics = nullptr) const;

  /// ToJson into a pretty-printed string.
  std::string ToJsonString(
      const obs::MetricsRegistry* metrics = nullptr) const;
};

/// Merges the per-device slice results of one job (Fig. 12), in device
/// order. A single slice passes through unchanged. Otherwise the first
/// failed slice is returned as-is (a sequential device loop stops there,
/// so it is also the last slice given); on success the counts are summed,
/// counters and attribution merged, every slice re-executed under retry
/// (attempts > 1) counts as one devices_recovered, per_device_ms holds each
/// slice's SimulatedGpuMs, and match_ms = SimulatedParallelMs(). total_ms
/// is left to the caller, whose clock covers the whole fan-out.
RunResult MergeSlices(std::vector<RunResult> slices);

}  // namespace tdfs

#endif  // TDFS_CORE_RESULT_H_
