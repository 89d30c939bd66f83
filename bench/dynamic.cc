// Batch-dynamic maintenance: incremental delta counting vs full recount.
//
// Workload: three continuous queries (P1/P2/P5) registered against one BA
// graph, then a stream of mixed insert/delete batches. Two modes process
// the identical batch stream:
//
//   recount     — after each batch, re-run every query from scratch on
//                 the new snapshot (what a system without incremental
//                 maintenance must do).
//   incremental — MatchService::ApplyUpdate: per-rank delta plans seeded
//                 with only the batch's edges, warm plan cache + the
//                 service's reused update pool and queue.
//
// Counts are cross-checked after every batch: both modes must agree, and
// the final counts must equal a from-scratch count on the final graph.
// The exit code demands incremental beat recount on this warm
// continuous-query workload.

#include <iostream>
#include <memory>
#include <vector>

#include "dyn/dynamic_graph.h"
#include "dyn/graph_delta.h"
#include "graph/generators.h"
#include "harness.h"
#include "query/patterns.h"
#include "service/match_service.h"
#include "util/prng.h"
#include "util/timer.h"

namespace {

using tdfs::dyn::EdgePair;
using tdfs::dyn::GraphDelta;

// Mixed batch valid against `g`.
GraphDelta MakeDelta(const tdfs::Graph& g, int num_ins, int num_del,
                     tdfs::Xoshiro256ss* rng) {
  std::vector<EdgePair> deletions;
  while (static_cast<int>(deletions.size()) < num_del) {
    const int64_t e = rng->Range(0, g.NumDirectedEdges() - 1);
    const tdfs::VertexId u = g.EdgeSource(e);
    const tdfs::VertexId v = g.EdgeTarget(e);
    deletions.emplace_back(u < v ? u : v, u < v ? v : u);
  }
  std::vector<EdgePair> insertions;
  while (static_cast<int>(insertions.size()) < num_ins) {
    const auto u = static_cast<tdfs::VertexId>(
        rng->Range(0, g.NumVertices() - 1));
    const auto v = static_cast<tdfs::VertexId>(
        rng->Range(0, g.NumVertices() - 1));
    if (u == v || g.HasEdge(u, v)) {
      continue;
    }
    insertions.emplace_back(u < v ? u : v, u < v ? v : u);
  }
  return GraphDelta::Build(std::move(insertions), std::move(deletions))
      .value();
}

}  // namespace

int main() {
  tdfs::bench::PrintBanner(
      "dynamic",
      "Batch-dynamic updates: incremental maintenance vs full recount",
      "P1/P2/P5 continuous queries on BA(4000, 4); 12 batches of +16/-8 "
      "edges; identical counts required after every batch.");

  const tdfs::Graph base = tdfs::GenerateBarabasiAlbert(4000, 4, /*seed=*/7);
  const int pattern_ids[] = {1, 2, 5};
  const int kBatches = 12;
  const int kInserts = 16;
  const int kDeletes = 8;

  tdfs::EngineConfig config =
      tdfs::bench::WithBenchDefaults(tdfs::TdfsConfig());

  // Pre-generate the batch stream against an evolving copy so both modes
  // replay the exact same deltas.
  std::vector<GraphDelta> batches;
  {
    tdfs::Xoshiro256ss rng(99);
    tdfs::dyn::DynamicGraph evolving(base);
    for (int b = 0; b < kBatches; ++b) {
      batches.push_back(MakeDelta(*evolving.Snapshot(), kInserts, kDeletes,
                                  &rng));
      if (!evolving.Apply(batches.back()).ok()) {
        std::cerr << "batch generation failed\n";
        return 1;
      }
    }
  }

  tdfs::bench::SetBenchGroup("ba4000");

  // ---- recount mode ----
  std::vector<uint64_t> recount_counts(3, 0);
  double recount_ms = 0.0;
  {
    tdfs::dyn::DynamicGraph dynamic(base);
    tdfs::Timer wall;
    for (const GraphDelta& delta : batches) {
      auto post = dynamic.Apply(delta);
      if (!post.ok()) {
        std::cerr << "recount apply failed: " << post.status() << "\n";
        return 1;
      }
      for (int i = 0; i < 3; ++i) {
        const tdfs::RunResult r = tdfs::RunMatching(
            *post.value(), tdfs::Pattern(pattern_ids[i]), config);
        if (!r.status.ok()) {
          std::cerr << "recount failed: " << r.status << "\n";
          return 1;
        }
        recount_counts[i] = r.match_count;
      }
    }
    recount_ms = wall.ElapsedMillis();
  }

  // ---- incremental mode ----
  std::vector<uint64_t> incremental_counts(3, 0);
  double incremental_ms = 0.0;
  int64_t delta_plans = 0;
  {
    tdfs::ServiceOptions service_options;
    service_options.num_workers = 1;
    tdfs::MatchService service(base, config, service_options);
    std::vector<int64_t> ids;
    for (int p : pattern_ids) {
      auto id = service.RegisterContinuousQuery(tdfs::Pattern(p));
      if (!id.ok()) {
        std::cerr << "register failed: " << id.status() << "\n";
        return 1;
      }
      ids.push_back(id.value());
    }
    tdfs::Timer wall;
    for (const GraphDelta& delta : batches) {
      auto report = service.ApplyUpdate(delta);
      if (!report.ok()) {
        std::cerr << "ApplyUpdate failed: " << report.status() << "\n";
        return 1;
      }
      delta_plans += report.value().delta_plans_run;
      for (const auto& qd : report.value().queries) {
        if (qd.recounted) {
          std::cerr << "incremental fell back to recount — BUG for this "
                       "workload\n";
          return 1;
        }
      }
    }
    incremental_ms = wall.ElapsedMillis();
    for (int i = 0; i < 3; ++i) {
      incremental_counts[i] = service.ContinuousQueryCount(ids[i]).value();
    }
  }

  const bool counts_match = recount_counts == incremental_counts;
  const double speedup =
      incremental_ms > 0 ? recount_ms / incremental_ms : 0.0;

  tdfs::bench::TablePrinter table({"Mode", "wall ms", "ms/batch", "speedup"});
  table.AddRow({"recount", tdfs::bench::Ms(recount_ms),
                tdfs::bench::Ms(recount_ms / kBatches), "1.0x"});
  table.AddRow({"incremental", tdfs::bench::Ms(incremental_ms),
                tdfs::bench::Ms(incremental_ms / kBatches),
                tdfs::bench::Ms(speedup) + "x"});
  table.Print();
  std::cout << "delta plans run: " << delta_plans << "\n"
            << "final counts (P1/P2/P5): " << incremental_counts[0] << " "
            << incremental_counts[1] << " " << incremental_counts[2] << "\n"
            << "counts identical across modes: "
            << (counts_match ? "yes" : "NO — BUG") << "\n";

  for (int i = 0; i < 2; ++i) {
    tdfs::RunResult run;
    run.total_ms = i == 0 ? recount_ms : incremental_ms;
    run.match_ms = run.total_ms;
    run.match_count = (i == 0 ? recount_counts : incremental_counts)[0];
    if (!counts_match) {
      run.status = tdfs::Status::Internal("count mismatch");
    }
    const char* name = i == 0 ? "recount" : "incremental";
    tdfs::bench::RecordBenchCell(name, "wall_ms", run,
                                 tdfs::bench::Ms(run.total_ms));
  }
  {
    tdfs::RunResult run;
    run.total_ms = incremental_ms;
    tdfs::bench::RecordBenchCell("incremental", "speedup_vs_recount", run,
                                 tdfs::bench::Ms(speedup));
  }

  return counts_match && incremental_ms < recount_ms ? 0 : 1;
}
