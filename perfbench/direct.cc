// cold_short and heavy_dfs: one client in a closed loop of fresh
// RunMatching calls, the `tdfs match` path.
//
// The loop runs whole rounds, each round every query of the workload once
// in a seeded order, until the run's time is up; whole rounds keep the
// query mix identical across seeds.
//
// A traced run runs every query twice, untraced and traced. A traced query
// makes the same calls RunMatching makes, one at a time, each under its own
// span:
//
//   query             root
//     query.plan      PlanForConfig
//     mem.arena_init  PageAllocator at the config's geometry
//     queue.init      TaskQueue at the config's capacity
//     core.run        RunMatchingPlanned, adopting both via
//                     EngineConfig::resources
//     mem.teardown    destroying the allocator and the queue

#include <map>
#include <memory>
#include <numeric>

#include "core/matcher.h"
#include "mem/page_allocator.h"
#include "query/patterns.h"
#include "queue/task_queue.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tdfs::DatasetId;
using tdfs::Timer;

struct Phases {
  double plan_ms = 0.0;
  double arena_init_ms = 0.0;
  double queue_init_ms = 0.0;
  double run_ms = 0.0;
  double teardown_ms = 0.0;

  double Sum() const {
    return plan_ms + arena_init_ms + queue_init_ms + run_ms + teardown_ms;
  }
};

struct QuerySample {
  double wall_ms = 0.0;  // around RunMatching, or the traced root span
  bool traced = false;
  Phases phases;  // traced samples only
  EngineSample engine;
};

/// One traced query; see the file comment for the span tree.
tdfs::RunResult RunTracedQuery(const tdfs::Graph& graph,
                               const tdfs::QueryGraph& query,
                               const tdfs::EngineConfig& config,
                               SpanLog* spans, Phases* phases) {
  const uint64_t request = spans->NewRequest();
  const int64_t t0 = Timer::Now();
  tdfs::Result<tdfs::MatchPlan> plan =
      tdfs::PlanForConfig(query, config, &graph);
  const int64_t t1 = Timer::Now();
  tdfs::SpillOptions spill;
  spill.enabled = config.spill_to_host;
  spill.max_spill_pages = config.max_spill_pages;
  spill.governor = config.governor;
  auto allocator = std::make_unique<tdfs::PageAllocator>(
      config.page_pool_pages, config.page_bytes, spill);
  const int64_t t2 = Timer::Now();
  auto queue = std::make_unique<tdfs::TaskQueue>(config.queue_capacity_ints);
  const int64_t t3 = Timer::Now();
  tdfs::RunResult result;
  if (plan.ok()) {
    const tdfs::EngineResources resources{allocator.get(), queue.get()};
    tdfs::EngineConfig run_config = config;
    run_config.resources = &resources;
    result = tdfs::RunMatchingPlanned(graph, plan.value(), run_config);
  } else {
    result.status = plan.status();
  }
  const int64_t t4 = Timer::Now();
  allocator.reset();
  queue.reset();
  const int64_t t5 = Timer::Now();

  const uint64_t root = spans->Record("query", 0, request, t0, t5);
  spans->Record("query.plan", root, request, t0, t1);
  spans->Record("mem.arena_init", root, request, t1, t2);
  spans->Record("queue.init", root, request, t2, t3);
  spans->Record("core.run", root, request, t3, t4);
  spans->Record("mem.teardown", root, request, t4, t5);
  *phases = Phases{Ms(t0, t1), Ms(t1, t2), Ms(t2, t3), Ms(t3, t4),
                   Ms(t4, t5)};
  return result;
}

}  // namespace

const std::vector<QuerySpec>& ColdShortQueries() {
  static const std::vector<QuerySpec> queries = [] {
    std::vector<QuerySpec> q;
    for (DatasetId d :
         {DatasetId::kAmazon, DatasetId::kDblp, DatasetId::kYoutube}) {
      for (int p = 1; p <= 7; ++p) {
        q.push_back({d, p});
      }
    }
    for (int p : {1, 2, 5, 6, 7}) {
      q.push_back({DatasetId::kPokec, p});
    }
    for (int p : {12, 13, 16}) {  // labeled patterns on a labeled big graph
      q.push_back({DatasetId::kOrkut, p});
    }
    return q;
  }();
  return queries;
}

const std::vector<QuerySpec>& HeavyDfsQueries() {
  static const std::vector<QuerySpec> queries = {
      {DatasetId::kYoutube, 8},  {DatasetId::kYoutube, 11},
      {DatasetId::kDblp, 8},     {DatasetId::kOrkut, 19},
      {DatasetId::kSinaweibo, 16},
  };
  return queries;
}

RunReport RunDirectWorkload(const RunOptions& options,
                            const std::vector<QuerySpec>& queries) {
  RunReport report;
  const tdfs::EngineConfig config = BenchConfig();

  std::vector<uint64_t> expected;
  for (const QuerySpec& q : queries) {
    const uint64_t* count = options.expected->Find(q.Key());
    if (count == nullptr) {
      report.Fail("no expected count for " + q.Key());
      return report;
    }
    expected.push_back(*count);
  }

  // ---- set-up: generate every graph the workload queries ----
  std::map<DatasetId, tdfs::Graph> graphs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    graphs.clear();
    Timer setup_timer;
    for (const QuerySpec& q : queries) {
      if (graphs.count(q.dataset) == 0) {
        graphs.emplace(q.dataset, tdfs::LoadDataset(q.dataset));
      }
    }
    setup_s.push_back(setup_timer.ElapsedSeconds());
  }
  std::vector<tdfs::QueryGraph> patterns;
  for (const QuerySpec& q : queries) {
    patterns.push_back(tdfs::Pattern(q.pattern));
  }

  // ---- timed loop: whole rounds until the time is up ----
  SpanLog spans;
  tdfs::Xoshiro256ss rng(options.seed);
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<QuerySample> samples;
  const int64_t loop_start = Timer::Now();
  const auto deadline =
      loop_start + static_cast<int64_t>(options.seconds * 1e9);
  int64_t runs = 0;  // queries run so far
  do {
    Shuffle(&order, &rng);
    for (size_t i : order) {
      const tdfs::Graph& graph = graphs.at(queries[i].dataset);
      // A traced run runs each query untraced and traced back to back,
      // flipping which goes first from one query to the next, so drift and
      // the fast/slow alternation of consecutive cold runs (see README.md)
      // fall evenly on both.
      for (int pass = 0; pass < (options.trace ? 2 : 1); ++pass) {
        QuerySample sample;
        sample.traced = options.trace && (runs + pass) % 2 == 1;
        tdfs::RunResult result;
        if (sample.traced) {
          result = RunTracedQuery(graph, patterns[i], config, &spans,
                                  &sample.phases);
          sample.wall_ms = sample.phases.Sum();
        } else {
          const int64_t t0 = Timer::Now();
          result = tdfs::RunMatching(graph, patterns[i], config);
          sample.wall_ms = Ms(t0, Timer::Now());
        }
        std::string why;
        report.Tally(CheckCount(result, expected[i], &why),
                     queries[i].Key() + ": " + why);
        sample.engine = EngineSample::From(result);
        samples.push_back(sample);
      }
      ++runs;
    }
  } while (Timer::Now() < deadline);
  const double loop_s = Ms(loop_start, Timer::Now()) * 1e-3;

  if (!options.trace) {
    std::vector<double> wall;
    for (const QuerySample& s : samples) {
      wall.push_back(s.wall_ms);
    }
    report.Add("setup_s", "s", Median(setup_s));
    report.Add("queries_per_s", "1/s",
               static_cast<double>(samples.size()) / loop_s);
    report.Add("query_ms_p50", "ms", Median(wall));
    report.Add("query_ms_p95", "ms", Percentile(wall, 0.95));
    report.Add("peak_rss_mb", "MiB", PeakRssMb());
    return report;
  }

  // ---- per-layer metrics: means per traced query ----
  Phases phases;  // sums, then means
  double residual_ms = 0.0;
  std::vector<EngineSample> engine;
  std::vector<double> untraced_wall;
  for (const QuerySample& s : samples) {
    if (!s.traced) {
      untraced_wall.push_back(s.wall_ms);
      continue;
    }
    phases.plan_ms += s.phases.plan_ms;
    phases.arena_init_ms += s.phases.arena_init_ms;
    phases.queue_init_ms += s.phases.queue_init_ms;
    phases.run_ms += s.phases.run_ms;
    phases.teardown_ms += s.phases.teardown_ms;
    residual_ms += s.phases.run_ms - s.engine.counters.preprocess_ms -
                   s.engine.kernel_ms;
    engine.push_back(s.engine);
  }
  const auto n = static_cast<double>(engine.size());
  std::map<DatasetId, IndexBuildMs> builds;
  for (const auto& [id, graph] : graphs) {
    builds[id] = TimeIndexBuilds(graph, config);
  }
  std::vector<double> label_ms;
  std::vector<double> bitmap_ms;
  for (const QuerySpec& q : queries) {
    label_ms.push_back(builds[q.dataset].label_index);
    bitmap_ms.push_back(builds[q.dataset].hub_bitmap);
  }
  report.Add("graph.load_ms", "ms", Median(setup_s) * 1e3);
  report.Add("graph.label_index_build_ms", "ms", Mean(label_ms));
  report.Add("graph.hub_bitmap_build_ms", "ms", Mean(bitmap_ms));
  report.Add("query.plan_ms", "ms", phases.plan_ms / n);
  report.Add("mem.arena_init_ms", "ms", phases.arena_init_ms / n);
  report.Add("queue.init_ms", "ms", phases.queue_init_ms / n);
  report.Add("mem.teardown_ms", "ms", phases.teardown_ms / n);
  report.Add("core.residual_ms", "ms", residual_ms / n);
  AddEngineMetrics(engine, config.num_warps, &report);

  // Both sides ran the same queries, so their means compare directly.
  CheckSpanSum(phases.Sum() / n, Mean(untraced_wall), &report);
  report.Add("trace.overhead_frac", "frac",
             1.0 - Mean(untraced_wall) / (phases.Sum() / n));
  if (!options.spans_path.empty() && !spans.WriteJsonl(options.spans_path)) {
    report.Fail("cannot write spans to " + options.spans_path);
  }
  return report;
}

}  // namespace perfbench
