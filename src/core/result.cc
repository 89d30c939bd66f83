#include "core/result.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/time_attr.h"

namespace tdfs {

namespace {
// Compile-time completeness check: a mirror struct declared from
// TDFS_RUN_COUNTER_FIELDS has the same members in the same order, so its
// size (padding included) matches RunCounters exactly — until a field is
// added to the struct but not the list.
#define TDFS_FIELD_DECL(name) decltype(RunCounters::name) name;
struct CounterFieldMirror {
  TDFS_RUN_COUNTER_FIELDS(TDFS_FIELD_DECL)
};
#undef TDFS_FIELD_DECL
static_assert(sizeof(CounterFieldMirror) == sizeof(RunCounters),
              "TDFS_RUN_COUNTER_FIELDS is out of sync with RunCounters");
}  // namespace

void RunCounters::MergeFrom(const RunCounters& other) {
  work_units += other.work_units;
  max_warp_work_units =
      std::max(max_warp_work_units, other.max_warp_work_units);
  edges_scanned += other.edges_scanned;
  initial_tasks += other.initial_tasks;
  timeout_splits += other.timeout_splits;
  tasks_enqueued += other.tasks_enqueued;
  tasks_dequeued += other.tasks_dequeued;
  queue_full_failures += other.queue_full_failures;
  queue_peak_tasks = std::max(queue_peak_tasks, other.queue_peak_tasks);
  steal_attempts += other.steal_attempts;
  steal_successes += other.steal_successes;
  steal_probes += other.steal_probes;
  shard_cross_msgs += other.shard_cross_msgs;
  shard_halo_hits += other.shard_halo_hits;
  shard_remote_reads += other.shard_remote_reads;
  shard_cross_steals += other.shard_cross_steals;
  kernels_launched += other.kernels_launched;
  child_warps_launched += other.child_warps_launched;
  stack_bytes_peak += other.stack_bytes_peak;
  pages_peak = std::max(pages_peak, other.pages_peak);
  alloc_misses += other.alloc_misses;
  spill_allocs += other.spill_allocs;
  spill_pages_peak = std::max(spill_pages_peak, other.spill_pages_peak);
  spill_promotions += other.spill_promotions;
  stack_overflow = stack_overflow || other.stack_overflow;
  failpoint_fires += other.failpoint_fires;
  pressure_retries += other.pressure_retries;
  pressure_pages_released += other.pressure_pages_released;
  deferred_tasks += other.deferred_tasks;
  adoption_rejects += other.adoption_rejects;
  attempts = std::max(attempts, other.attempts);
  degraded_mode = degraded_mode || other.degraded_mode;
  devices_recovered += other.devices_recovered;
  bfs_batches += other.bfs_batches;
  bfs_peak_bytes = std::max(bfs_peak_bytes, other.bfs_peak_bytes);
  preprocess_ms += other.preprocess_ms;
  prefilter_ms = std::max(prefilter_ms, other.prefilter_ms);
  prefilter_original_vertices =
      std::max(prefilter_original_vertices, other.prefilter_original_vertices);
  prefilter_original_edges =
      std::max(prefilter_original_edges, other.prefilter_original_edges);
  prefilter_kept_vertices =
      std::max(prefilter_kept_vertices, other.prefilter_kept_vertices);
  prefilter_kept_edges =
      std::max(prefilter_kept_edges, other.prefilter_kept_edges);
}

RunResult MergeSlices(std::vector<RunResult> slices) {
  if (slices.size() == 1) {
    return std::move(slices.front());
  }
  RunResult merged;
  for (RunResult& slice : slices) {
    if (!slice.status.ok()) {
      return std::move(slice);
    }
    if (slice.counters.attempts > 1) {
      ++slice.counters.devices_recovered;
    }
    merged.match_count += slice.match_count;
    // Per-device *simulated* kernel time (see SimulatedGpuMs): devices run
    // back-to-back on this host, so raw wall times would hide both intra-
    // device parallelism and inter-device balance.
    merged.per_device_ms.push_back(slice.SimulatedGpuMs());
    merged.counters.MergeFrom(slice.counters);
    merged.attribution.MergeFrom(slice.attribution);
  }
  merged.match_ms = merged.SimulatedParallelMs();
  return merged;
}

std::string RunResult::Summary() const {
  std::ostringstream oss;
  if (!status.ok()) {
    oss << status.ToString();
    return oss.str();
  }
  oss << "matches=" << match_count << " time_ms=" << match_ms;
  if (counters.preprocess_ms > 0) {
    oss << " (+" << counters.preprocess_ms << "ms preprocess)";
  }
  if (counters.stack_overflow) {
    oss << " [STACK OVERFLOW: count unreliable]";
  }
  if (counters.attempts > 1 || counters.degraded_mode ||
      counters.pressure_retries > 0 || counters.deferred_tasks > 0 ||
      counters.devices_recovered > 0) {
    // A degraded run still produced an exact count, but the operator
    // should see how hard the engine had to work for it — including the
    // faults injected and the pages the pressure path had to claw back.
    oss << " [degraded: attempts=" << counters.attempts
        << " pressure_retries=" << counters.pressure_retries
        << " pages_released=" << counters.pressure_pages_released
        << " deferred=" << counters.deferred_tasks
        << " devices_recovered=" << counters.devices_recovered
        << " failpoint_fires=" << counters.failpoint_fires << "]";
  } else if (counters.failpoint_fires > 0) {
    oss << " [failpoints fired: " << counters.failpoint_fires << "]";
  }
  if (counters.spill_allocs > 0 || counters.alloc_misses > 0) {
    // Out-of-core traffic: the count is exact either way, but the
    // operator should see the run outgrew the device arena.
    oss << " [spill: allocs=" << counters.spill_allocs
        << " peak_pages=" << counters.spill_pages_peak
        << " promotions=" << counters.spill_promotions
        << " alloc_misses=" << counters.alloc_misses << "]";
  }
  return oss.str();
}

uint64_t TimeAttribution::EstimatedNs(uint64_t calls, uint64_t sampled,
                                      uint64_t ns) {
  return TimeAttributionSink::EstimateNs(calls, sampled, ns);
}

TimeAttribution TimeAttribution::FromSink(const TimeAttributionSink& sink) {
  TimeAttribution out;
  const auto cell_name = [](int slot) {
    return slot == TimeAttributionSink::kMaxCells - 1
               ? std::string("other")
               : "cell" + std::to_string(slot);
  };
  for (int c = 0; c < TimeAttributionSink::kMaxCells; ++c) {
    if (sink.cell_calls[c] != 0) {
      out.cells.push_back({cell_name(c), sink.cell_calls[c],
                           sink.cell_sampled[c], sink.cell_ns[c]});
    }
    for (int a = 0; a < kNumIntersectArms; ++a) {
      if (sink.arm_calls[c][a] != 0) {
        out.arms.push_back({cell_name(c), IntersectArmName(a),
                            sink.arm_calls[c][a], sink.arm_sampled[c][a],
                            sink.arm_ns[c][a]});
      }
    }
  }
  return out;
}

void TimeAttribution::MergeFrom(const TimeAttribution& other) {
  for (const CellBucket& theirs : other.cells) {
    CellBucket* mine = nullptr;
    for (CellBucket& candidate : cells) {
      if (candidate.name == theirs.name) {
        mine = &candidate;
        break;
      }
    }
    if (mine == nullptr) {
      cells.push_back(theirs);
    } else {
      mine->calls += theirs.calls;
      mine->sampled += theirs.sampled;
      mine->ns += theirs.ns;
    }
  }
  for (const ArmBucket& theirs : other.arms) {
    ArmBucket* mine = nullptr;
    for (ArmBucket& candidate : arms) {
      if (candidate.cell == theirs.cell && candidate.arm == theirs.arm) {
        mine = &candidate;
        break;
      }
    }
    if (mine == nullptr) {
      arms.push_back(theirs);
    } else {
      mine->calls += theirs.calls;
      mine->sampled += theirs.sampled;
      mine->ns += theirs.ns;
    }
  }
}

void TimeAttribution::WriteCollapsed(std::ostream& os) const {
  for (const CellBucket& cell : cells) {
    const uint64_t cell_est = EstimatedNs(cell.calls, cell.sampled, cell.ns);
    uint64_t arm_total = 0;
    for (const ArmBucket& arm : arms) {
      if (arm.cell == cell.name) {
        arm_total += EstimatedNs(arm.calls, arm.sampled, arm.ns);
      }
    }
    const uint64_t residual = cell_est > arm_total ? cell_est - arm_total : 0;
    if (residual > 0) {
      os << "tdfs;" << cell.name << " " << residual << "\n";
    }
    for (const ArmBucket& arm : arms) {
      if (arm.cell != cell.name) {
        continue;
      }
      const uint64_t est = EstimatedNs(arm.calls, arm.sampled, arm.ns);
      if (est > 0) {
        os << "tdfs;" << cell.name << ";" << arm.arm << " " << est << "\n";
      }
    }
  }
}

void TimeAttribution::ToJson(obs::JsonWriter* w) const {
  w->BeginObject();
  w->Key("cells");
  w->BeginArray();
  for (const CellBucket& cell : cells) {
    w->BeginObject();
    w->KeyValue("name", cell.name);
    w->KeyValue("calls", cell.calls);
    w->KeyValue("sampled", cell.sampled);
    w->KeyValue("ns", cell.ns);
    w->KeyValue("estimated_ns", EstimatedNs(cell.calls, cell.sampled,
                                            cell.ns));
    w->EndObject();
  }
  w->EndArray();
  w->Key("arms");
  w->BeginArray();
  for (const ArmBucket& arm : arms) {
    w->BeginObject();
    w->KeyValue("cell", arm.cell);
    w->KeyValue("arm", arm.arm);
    w->KeyValue("calls", arm.calls);
    w->KeyValue("sampled", arm.sampled);
    w->KeyValue("ns", arm.ns);
    w->KeyValue("estimated_ns", EstimatedNs(arm.calls, arm.sampled,
                                            arm.ns));
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void RunResult::ToJson(obs::JsonWriter* w,
                       const obs::MetricsRegistry* metrics) const {
  w->BeginObject();
  w->Key("status");
  w->BeginObject();
  w->KeyValue("ok", status.ok());
  w->KeyValue("code", StatusCodeName(status.code()));
  w->KeyValue("message", status.message());
  w->EndObject();
  w->KeyValue("match_count", match_count);
  w->KeyValue("total_ms", total_ms);
  w->KeyValue("match_ms", match_ms);
  w->KeyValue("simulated_gpu_ms", SimulatedGpuMs());
  w->KeyValue("simulated_parallel_ms", SimulatedParallelMs());
  w->Key("per_device_ms");
  w->BeginArray();
  for (double t : per_device_ms) {
    w->Value(t);
  }
  w->EndArray();
  w->Key("counters");
  w->BeginObject();
#define TDFS_FIELD_JSON(name) w->KeyValue(#name, counters.name);
  TDFS_RUN_COUNTER_FIELDS(TDFS_FIELD_JSON)
#undef TDFS_FIELD_JSON
  w->EndObject();
  if (!per_shard.empty()) {
    w->Key("per_shard");
    w->BeginArray();
    for (const ShardRunStats& s : per_shard) {
      w->BeginObject();
      w->KeyValue("shard_id", s.shard_id);
      w->KeyValue("numa_node", s.numa_node);
      w->KeyValue("owned_rows", s.owned_rows);
      w->KeyValue("halo_rows", s.halo_rows);
      w->KeyValue("owned_edges", s.owned_edges);
      w->KeyValue("resident_bytes", s.resident_bytes);
      w->KeyValue("routed_out", s.routed_out);
      w->KeyValue("routed_in", s.routed_in);
      w->KeyValue("local_rows", s.local_rows);
      w->KeyValue("local_items", s.local_items);
      w->KeyValue("halo_rows_fetched", s.halo_rows_fetched);
      w->KeyValue("halo_items", s.halo_items);
      w->KeyValue("remote_rows", s.remote_rows);
      w->KeyValue("remote_items", s.remote_items);
      w->KeyValue("work_units", s.work_units);
      w->KeyValue("max_warp_work_units", s.max_warp_work_units);
      w->KeyValue("simulated_ms", s.simulated_ms);
      w->EndObject();
    }
    w->EndArray();
  }
  if (!attribution.Empty()) {
    w->Key("attribution");
    attribution.ToJson(w);
  }
  if (metrics != nullptr && !metrics->Empty()) {
    w->Key("metrics");
    metrics->WriteJson(w);
  }
  w->EndObject();
}

std::string RunResult::ToJsonString(
    const obs::MetricsRegistry* metrics) const {
  std::ostringstream oss;
  obs::JsonWriter w(oss, /*indent=*/2);
  ToJson(&w, metrics);
  oss << "\n";
  return oss.str();
}

}  // namespace tdfs
