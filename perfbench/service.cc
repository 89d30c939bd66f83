// service_mixed: one MatchService on the youtube analog, driven by
// kQueryClients query clients and one update client, all closed loops.
//
// Query clients submit the service patterns and seeded isomorphic
// relabelings of them, so repeats and isomorphs hit the plan cache. The
// update client applies seeded batches to registered continuous queries:
// batch 2j moves the base graph to variant j mod kVariants, batch 2j+1
// moves it back. The graph therefore only ever holds the base or one of
// kVariants variants, each of which the driver rebuilds on its own after
// the run to check every count against a serial RunMatchingRef count.
//
// A traced run alternates untraced and traced phases of kTracePhaseNs; an
// operation is traced when it starts in a traced phase. Traced jobs get a
// root span "service.job" with children "service.submit" (Submit) and
// "service.wait" (future.get); traced updates get "dyn.apply".

#include <memory>
#include <numeric>
#include <set>
#include <thread>

#include "core/matcher.h"
#include "dyn/graph_delta.h"
#include "query/patterns.h"
#include "service/match_service.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tdfs::DatasetId;
using tdfs::Timer;
using tdfs::dyn::EdgePair;
using tdfs::dyn::GraphDelta;

constexpr DatasetId kServiceDataset = DatasetId::kYoutube;
constexpr int kQueryClients = 3;
constexpr int kRelabelings = 3;  // isomorphs per pattern, besides itself
constexpr int kVariants = 8;
constexpr int kBatchInserts = 24;
constexpr int kBatchDeletes = 24;
constexpr int64_t kTracePhaseNs = 500'000'000;

/// Same query with vertex v renamed perm[v].
tdfs::QueryGraph Relabel(const tdfs::QueryGraph& q,
                         const std::vector<int>& perm) {
  tdfs::QueryGraph out(q.NumVertices());
  for (int u = 0; u < q.NumVertices(); ++u) {
    for (int v = u + 1; v < q.NumVertices(); ++v) {
      if (q.HasEdge(u, v)) {
        out.AddEdge(perm[u], perm[v]);
      }
    }
    if (q.IsLabeled()) {
      out.SetVertexLabel(perm[u], q.VertexLabel(u));
    }
  }
  return out;
}

struct PoolQuery {
  size_t slot;  // index into ServiceQueries()
  tdfs::QueryGraph query;
};

std::vector<PoolQuery> MakeQueryPool(tdfs::Xoshiro256ss* rng) {
  std::vector<PoolQuery> pool;
  const std::vector<QuerySpec>& specs = ServiceQueries();
  for (size_t s = 0; s < specs.size(); ++s) {
    const tdfs::QueryGraph base = tdfs::Pattern(specs[s].pattern);
    pool.push_back({s, base});
    for (int r = 0; r < kRelabelings; ++r) {
      std::vector<int> perm(base.NumVertices());
      std::iota(perm.begin(), perm.end(), 0);
      Shuffle(&perm, rng);
      pool.push_back({s, Relabel(base, perm)});
    }
  }
  return pool;
}

/// The seeded update stream: kVariants edge batches against the base
/// graph and their inverses.
struct UpdateStream {
  std::vector<std::vector<EdgePair>> inserts;  // per variant
  std::vector<std::vector<EdgePair>> deletes;
  std::vector<GraphDelta> forward;   // base -> variant
  std::vector<GraphDelta> backward;  // variant -> base

  /// Batch i of the stream.
  const GraphDelta& Batch(int64_t i) const {
    const size_t k = static_cast<size_t>((i / 2) % kVariants);
    return i % 2 == 0 ? forward[k] : backward[k];
  }

  /// Graph state at `version` (batches applied): -1 for the base graph,
  /// else the variant index.
  static int StateAt(int64_t version) {
    return version % 2 == 0 ? -1 : static_cast<int>(((version - 1) / 2) %
                                                    kVariants);
  }
};

UpdateStream MakeUpdateStream(const tdfs::Graph& base,
                              tdfs::Xoshiro256ss* rng) {
  UpdateStream stream;
  for (int k = 0; k < kVariants; ++k) {
    std::set<EdgePair> del;
    while (static_cast<int>(del.size()) < kBatchDeletes) {
      const int64_t e = rng->Range(0, base.NumDirectedEdges() - 1);
      const tdfs::VertexId u = base.EdgeSource(e);
      const tdfs::VertexId v = base.EdgeTarget(e);
      del.emplace(std::min(u, v), std::max(u, v));
    }
    std::set<EdgePair> ins;
    while (static_cast<int>(ins.size()) < kBatchInserts) {
      const auto u =
          static_cast<tdfs::VertexId>(rng->Range(0, base.NumVertices() - 1));
      const auto v =
          static_cast<tdfs::VertexId>(rng->Range(0, base.NumVertices() - 1));
      if (u != v && !base.HasEdge(u, v)) {
        ins.emplace(std::min(u, v), std::max(u, v));
      }
    }
    stream.inserts.emplace_back(ins.begin(), ins.end());
    stream.deletes.emplace_back(del.begin(), del.end());
    stream.forward.push_back(
        GraphDelta::Build(stream.inserts.back(), stream.deletes.back())
            .value());
    stream.backward.push_back(
        GraphDelta::Build(stream.deletes.back(), stream.inserts.back())
            .value());
  }
  return stream;
}

/// Expected counts per (graph state, service pattern): the stored counts
/// for the base graph; for a variant, RunMatchingRef on a graph the driver
/// builds itself from the base edges and the variant's batch.
class StateOracle {
 public:
  StateOracle(const tdfs::Graph& base, const UpdateStream& stream,
              std::vector<uint64_t> base_counts)
      : base_(base), stream_(stream), base_counts_(std::move(base_counts)) {}

  uint64_t Count(int state, size_t slot) {
    if (state < 0) {
      return base_counts_[slot];
    }
    const auto key = std::make_pair(state, slot);
    const auto it = counts_.find(key);
    if (it != counts_.end()) {
      return it->second;
    }
    const tdfs::RunResult r = tdfs::RunMatchingRef(
        Variant(state), tdfs::Pattern(ServiceQueries()[slot].pattern),
        BenchConfig());
    return counts_[key] = r.match_count;
  }

 private:
  const tdfs::Graph& Variant(int k) {
    auto& g = variants_[k];
    if (g == nullptr) {
      const std::set<EdgePair> del(stream_.deletes[k].begin(),
                                   stream_.deletes[k].end());
      tdfs::GraphBuilder builder(base_.NumVertices());
      for (int64_t e = 0; e < base_.NumDirectedEdges(); ++e) {
        const tdfs::VertexId u = base_.EdgeSource(e);
        const tdfs::VertexId v = base_.EdgeTarget(e);
        if (u < v && del.count({u, v}) == 0) {
          builder.AddEdge(u, v);
        }
      }
      for (const EdgePair& e : stream_.inserts[k]) {
        builder.AddEdge(e.first, e.second);
      }
      g = std::make_unique<tdfs::Graph>(builder.Build());
    }
    return *g;
  }

  const tdfs::Graph& base_;
  const UpdateStream& stream_;
  const std::vector<uint64_t> base_counts_;
  std::map<int, std::unique_ptr<tdfs::Graph>> variants_;
  std::map<std::pair<int, size_t>, uint64_t> counts_;
};

struct JobRecord {
  size_t slot = 0;
  int64_t version_before = 0;  // before Submit
  int64_t version_after = 0;   // after Submit returned
  tdfs::Status status;
  uint64_t count = 0;
  double wall_ms = 0.0;
  double submit_ms = 0.0;
  bool traced = false;
  EngineSample engine;
};

struct UpdateRecord {
  int64_t batch = 0;
  tdfs::Result<tdfs::MatchService::BatchUpdateReport> report =
      tdfs::Status::Internal("not run");
  double wall_ms = 0.0;
  bool traced = false;
};

bool InTracedPhase(const RunOptions& options, int64_t start_ns) {
  return options.trace && ((Timer::Now() - start_ns) / kTracePhaseNs) % 2 == 1;
}

}  // namespace

const std::vector<QuerySpec>& ServiceQueries() {
  static const std::vector<QuerySpec> queries = {
      {kServiceDataset, 1}, {kServiceDataset, 2}, {kServiceDataset, 5},
      {kServiceDataset, 6}, {kServiceDataset, 7},
  };
  return queries;
}

const std::vector<QuerySpec>& ContinuousQueries() {
  static const std::vector<QuerySpec> queries = {{kServiceDataset, 1},
                                                 {kServiceDataset, 2}};
  return queries;
}

RunReport RunServiceWorkload(const RunOptions& options) {
  RunReport report;
  const tdfs::EngineConfig config = BenchConfig();
  std::vector<uint64_t> base_counts;
  for (const QuerySpec& q : ServiceQueries()) {
    const uint64_t* count = options.expected->Find(q.Key());
    if (count == nullptr) {
      report.Fail("no expected count for " + q.Key());
      return report;
    }
    base_counts.push_back(*count);
  }
  // Slot in ServiceQueries() of each continuous query.
  std::vector<size_t> continuous_slot;
  for (const QuerySpec& c : ContinuousQueries()) {
    for (size_t s = 0; s < ServiceQueries().size(); ++s) {
      if (ServiceQueries()[s].pattern == c.pattern) {
        continuous_slot.push_back(s);
      }
    }
  }

  // ---- set-up: graph, service, continuous-query registration ----
  std::unique_ptr<tdfs::Graph> graph;
  std::unique_ptr<tdfs::MatchService> service;
  std::vector<int64_t> continuous_ids;
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();  // before the graph it serves
    graph.reset();
    continuous_ids.clear();
    Timer setup_timer;
    graph = std::make_unique<tdfs::Graph>(tdfs::LoadDataset(kServiceDataset));
    load_ms.push_back(setup_timer.ElapsedMillis());
    service = std::make_unique<tdfs::MatchService>(*graph, config);
    for (const QuerySpec& c : ContinuousQueries()) {
      tdfs::Result<int64_t> id =
          service->RegisterContinuousQuery(tdfs::Pattern(c.pattern));
      if (!id.ok()) {
        report.Fail("register " + c.Key() + ": " + id.status().ToString());
        return report;
      }
      continuous_ids.push_back(id.value());
    }
    setup_s.push_back(setup_timer.ElapsedSeconds());
  }
  for (size_t i = 0; i < continuous_ids.size(); ++i) {
    const uint64_t registered =
        service->ContinuousQueryCount(continuous_ids[i]).value();
    if (registered != base_counts[continuous_slot[i]]) {
      report.Fail("registered " + ContinuousQueries()[i].Key() + " count " +
                  std::to_string(registered) + " != expected " +
                  std::to_string(base_counts[continuous_slot[i]]));
    }
  }

  tdfs::Xoshiro256ss rng(options.seed);
  const std::vector<PoolQuery> pool = MakeQueryPool(&rng);
  const UpdateStream stream = MakeUpdateStream(*graph, &rng);
  std::vector<uint64_t> client_seeds;
  for (int c = 0; c < kQueryClients; ++c) {
    client_seeds.push_back(rng());
  }

  // ---- timed window ----
  SpanLog spans;
  std::vector<std::vector<JobRecord>> jobs(kQueryClients);
  std::vector<UpdateRecord> updates;
  const int64_t start = Timer::Now();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kQueryClients; ++c) {
      threads.emplace_back([&, c] {
        tdfs::Xoshiro256ss client_rng(client_seeds[c]);
        std::vector<size_t> order(pool.size());
        std::iota(order.begin(), order.end(), 0);
        for (;;) {
          Shuffle(&order, &client_rng);
          for (size_t i : order) {
            if (Timer::Now() >= deadline) {
              return;
            }
            JobRecord rec;
            rec.slot = pool[i].slot;
            rec.traced = InTracedPhase(options, start);
            rec.version_before = service->GraphVersion();
            const int64_t t0 = Timer::Now();
            std::future<tdfs::RunResult> future =
                service->Submit(pool[i].query);
            const int64_t t1 = Timer::Now();
            rec.version_after = service->GraphVersion();
            const tdfs::RunResult result = future.get();
            const int64_t t2 = Timer::Now();
            rec.status = result.status;
            rec.count = result.match_count;
            rec.wall_ms = Ms(t0, t2);
            rec.submit_ms = Ms(t0, t1);
            rec.engine = EngineSample::From(result);
            if (rec.traced) {
              const uint64_t request = spans.NewRequest();
              const uint64_t root =
                  spans.Record("service.job", 0, request, t0, t2);
              spans.Record("service.submit", root, request, t0, t1);
              spans.Record("service.wait", root, request, t1, t2);
            }
            jobs[c].push_back(std::move(rec));
          }
        }
      });
    }
    threads.emplace_back([&] {
      for (int64_t i = 0; Timer::Now() < deadline; ++i) {
        UpdateRecord rec;
        rec.batch = i;
        rec.traced = InTracedPhase(options, start);
        const int64_t t0 = Timer::Now();
        rec.report = service->ApplyUpdate(stream.Batch(i));
        const int64_t t1 = Timer::Now();
        rec.wall_ms = Ms(t0, t1);
        if (rec.traced) {
          spans.Record("dyn.apply", 0, spans.NewRequest(), t0, t1);
        }
        updates.push_back(std::move(rec));
      }
    });
  }  // joins every client
  const double window_s = Ms(start, Timer::Now()) * 1e-3;

  // ---- correctness, outside the timed window ----
  StateOracle oracle(*graph, stream, base_counts);
  std::vector<const JobRecord*> all_jobs;
  for (const auto& client : jobs) {
    for (const JobRecord& rec : client) {
      all_jobs.push_back(&rec);
    }
  }
  for (const JobRecord* rec : all_jobs) {
    // The job captured its snapshot inside Submit, so its graph is the
    // state at some version between the two reads.
    std::string why = "status " + rec->status.ToString();
    bool ok = false;
    if (rec->status.ok()) {
      why = "count " + std::to_string(rec->count) + " matches no graph state";
      for (int64_t v = rec->version_before; v <= rec->version_after && !ok;
           ++v) {
        ok = rec->count == oracle.Count(UpdateStream::StateAt(v), rec->slot);
      }
    }
    report.Tally(ok, ServiceQueries()[rec->slot].Key() + ": " + why);
  }
  int64_t recount_fallbacks = 0;
  for (const UpdateRecord& rec : updates) {
    std::string why;
    bool ok = rec.report.ok();
    if (!ok) {
      why = rec.report.status().ToString();
    } else {
      const int state = UpdateStream::StateAt(rec.report.value().version);
      ok = rec.report.value().queries.size() == continuous_ids.size();
      why = "report covers the wrong number of continuous queries";
      for (size_t i = 0; i < rec.report.value().queries.size() && ok; ++i) {
        const auto& qd = rec.report.value().queries[i];
        recount_fallbacks += qd.recounted ? 1 : 0;
        const uint64_t want = oracle.Count(state, continuous_slot[i]);
        ok = qd.id == continuous_ids[i] && qd.new_count == want;
        why = "continuous count " + std::to_string(qd.new_count) +
              " != expected " + std::to_string(want);
      }
    }
    report.Tally(ok, "update batch " + std::to_string(rec.batch) + ": " + why);
  }
  // Maintained counts must equal a fresh count on the final snapshot.
  const std::shared_ptr<const tdfs::Graph> final_graph = service->Snapshot();
  const int final_state = UpdateStream::StateAt(service->GraphVersion());
  for (size_t i = 0; i < continuous_ids.size(); ++i) {
    const uint64_t maintained =
        service->ContinuousQueryCount(continuous_ids[i]).value();
    const size_t slot = continuous_slot[i];
    const uint64_t fresh =
        tdfs::RunMatchingRef(*final_graph,
                             tdfs::Pattern(ServiceQueries()[slot].pattern),
                             config)
            .match_count;
    if (maintained != fresh || fresh != oracle.Count(final_state, slot)) {
      report.Fail("final " + ContinuousQueries()[i].Key() + ": maintained " +
                  std::to_string(maintained) + ", fresh " +
                  std::to_string(fresh));
    }
  }

  if (!options.trace) {
    std::vector<double> wall;
    for (const JobRecord* rec : all_jobs) {
      wall.push_back(rec->wall_ms);
    }
    report.Add("setup_s", "s", Median(setup_s));
    report.Add("queries_per_s", "1/s",
               static_cast<double>(all_jobs.size()) / window_s);
    report.Add("query_ms_p50", "ms", Median(wall));
    report.Add("query_ms_p95", "ms", Percentile(wall, 0.95));
    report.Add("peak_rss_mb", "MiB", PeakRssMb());
    return report;
  }

  // ---- per-layer metrics ----
  std::vector<EngineSample> engine;
  std::vector<double> untraced_wall;
  double traced_jobs = 0.0;
  double submit_ms = 0.0;
  double wait_ms = 0.0;
  double residual_ms = 0.0;
  for (const JobRecord* rec : all_jobs) {
    if (!rec->traced) {
      untraced_wall.push_back(rec->wall_ms);
      continue;
    }
    traced_jobs += 1.0;
    submit_ms += rec->submit_ms;
    wait_ms += rec->wall_ms - rec->submit_ms;
    residual_ms += rec->wall_ms - rec->engine.counters.preprocess_ms -
                   rec->engine.kernel_ms;
    engine.push_back(rec->engine);
  }
  const double n = std::max(traced_jobs, 1.0);
  std::vector<double> update_ms;
  std::vector<double> traced_update_ms;
  double delta_plans = 0.0;
  double seed_edges = 0.0;
  for (const UpdateRecord& rec : updates) {
    update_ms.push_back(rec.wall_ms);
    if (rec.traced) {
      traced_update_ms.push_back(rec.wall_ms);
    }
    if (rec.report.ok()) {
      delta_plans += static_cast<double>(rec.report.value().delta_plans_run);
      seed_edges += static_cast<double>(rec.report.value().seed_edges);
    }
  }
  const double batches = std::max<double>(updates.size(), 1.0);
  const tdfs::MatchService::Stats stats = service->GetStats();
  const auto stage_us = [&stats](const char* stage, bool p95) {
    for (const auto& s : stats.stages) {
      if (s.stage == stage) {
        return static_cast<double>(p95 ? s.p95_us : s.p50_us);
      }
    }
    return 0.0;
  };
  const IndexBuildMs builds = TimeIndexBuilds(*graph, config);

  report.Add("graph.load_ms", "ms", Median(load_ms));
  report.Add("graph.label_index_build_ms", "ms", builds.label_index);
  report.Add("graph.hub_bitmap_build_ms", "ms", builds.hub_bitmap);
  // Plan lookups (compiles only on a miss) happen inside Submit; the
  // service's own stage histogram is the only view of them.
  report.Add("query.plan_ms", "ms", stage_us("plan_cache", false) * 1e-3);
  // The service leases a reused arena: no per-job arena or queue set-up.
  report.Add("mem.arena_init_ms", "ms", 0.0);
  report.Add("queue.init_ms", "ms", 0.0);
  report.Add("mem.teardown_ms", "ms", 0.0);
  report.Add("core.residual_ms", "ms", residual_ms / n);
  AddEngineMetrics(engine, config.num_warps, &report);
  report.Add("service.submit_ms", "ms", submit_ms / n);
  report.Add("service.wait_ms", "ms", wait_ms / n);
  for (const char* stage :
       {"queue_wait", "arena_lease", "engine_run", "plan_cache"}) {
    report.Add(std::string("service.") + stage + "_p50_us", "us",
               stage_us(stage, false));
    report.Add(std::string("service.") + stage + "_p95_us", "us",
               stage_us(stage, true));
  }
  const int64_t lookups = stats.plan_cache_hits + stats.plan_cache_misses;
  report.Add("service.plan_cache_hit_ratio", "ratio",
             lookups > 0 ? static_cast<double>(stats.plan_cache_hits) /
                               static_cast<double>(lookups)
                         : 0.0);
  report.Add("service.rejected", "count", static_cast<double>(stats.rejected));
  report.Add("service.reservation_timeouts", "count",
             static_cast<double>(stats.reservation_timeouts));
  report.Add("dyn.apply_ms", "ms", Mean(traced_update_ms));
  report.Add("dyn.update_ms_p50", "ms", Median(update_ms));
  report.Add("dyn.update_ms_p95", "ms", Percentile(update_ms, 0.95));
  report.Add("dyn.delta_plans_run", "count", delta_plans / batches);
  report.Add("dyn.seed_edges", "count", seed_edges / batches);
  report.Add("dyn.recount_fallbacks", "count",
             static_cast<double>(recount_fallbacks));

  // A traced job's children, Submit and future.get, cover its root span.
  CheckSpanSum((submit_ms + wait_ms) / n, Mean(untraced_wall), &report);
  // Throughput by phase, each job counted in the phase it started in.
  const auto elapsed_ns = static_cast<int64_t>(window_s * 1e9);
  const int64_t full = elapsed_ns / kTracePhaseNs;
  const int64_t rest = elapsed_ns % kTracePhaseNs;
  const double untraced_s =
      ((full + 1) / 2 * kTracePhaseNs + (full % 2 == 0 ? rest : 0)) * 1e-9;
  const double traced_s =
      (full / 2 * kTracePhaseNs + (full % 2 == 1 ? rest : 0)) * 1e-9;
  const double untraced_qps = untraced_wall.size() / untraced_s;
  const double traced_qps = traced_jobs / traced_s;
  report.Add("trace.overhead_frac", "frac", 1.0 - traced_qps / untraced_qps);
  if (!options.spans_path.empty() && !spans.WriteJsonl(options.spans_path)) {
    report.Fail("cannot write spans to " + options.spans_path);
  }
  return report;
}

}  // namespace perfbench
