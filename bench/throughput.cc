// Batch-service throughput: cold one-shot runs vs the warm match service.
//
// Workload: a repeated stream of small patterns against one BA graph — the
// query-serving shape the service layer targets. Three rows:
//
//   cold     — sequential RunMatching per job: every job recompiles its
//              plan and builds a fresh page pool (32 MB) and task-queue
//              ring (3M ints), both reserved and committed on first touch.
//   warm-1w  — MatchService with ONE worker: isolates what the plan cache
//              and the worker's reused pool and queue buy, with no added
//              concurrency.
//   warm     — MatchService with the full worker pool: reuse plus
//              concurrent jobs instead of back-to-back execution.
//
// The table reports wall ms for the whole stream and queries/sec per row,
// plus the speedup over cold. Counts are cross-checked: every mode must
// report the identical total match count (resource reuse is bit-exact).

#include <future>
#include <iostream>
#include <vector>

#include "graph/generators.h"
#include "harness.h"
#include "query/patterns.h"
#include "service/match_service.h"
#include "util/timer.h"

namespace {

struct ModeResult {
  double wall_ms = 0.0;
  uint64_t total_matches = 0;
  int64_t jobs_ok = 0;
};

ModeResult RunCold(const tdfs::Graph& graph,
                   const std::vector<tdfs::QueryGraph>& stream,
                   const tdfs::EngineConfig& config) {
  ModeResult mode;
  tdfs::Timer wall;
  for (const tdfs::QueryGraph& query : stream) {
    tdfs::RunResult r = tdfs::RunMatching(graph, query, config);
    if (r.status.ok()) {
      ++mode.jobs_ok;
      mode.total_matches += r.match_count;
    }
  }
  mode.wall_ms = wall.ElapsedMillis();
  return mode;
}

ModeResult RunWarm(const tdfs::Graph& graph,
                   const std::vector<tdfs::QueryGraph>& stream,
                   const tdfs::EngineConfig& config, int workers) {
  ModeResult mode;
  tdfs::ServiceOptions options;
  options.num_workers = workers;
  options.max_pending_jobs = static_cast<int>(stream.size()) + 1;
  tdfs::Timer wall;
  tdfs::MatchService service(graph, config, options);
  std::vector<std::future<tdfs::RunResult>> futures;
  futures.reserve(stream.size());
  for (const tdfs::QueryGraph& query : stream) {
    futures.push_back(service.Submit(query));
  }
  for (auto& future : futures) {
    tdfs::RunResult r = future.get();
    if (r.status.ok()) {
      ++mode.jobs_ok;
      mode.total_matches += r.match_count;
    }
  }
  mode.wall_ms = wall.ElapsedMillis();
  return mode;
}

// The recorder wants a RunResult per cell; synthesize one carrying the
// whole stream's wall time and match total.
tdfs::RunResult AsRunResult(const ModeResult& mode, int64_t jobs) {
  tdfs::RunResult run;
  run.match_count = mode.total_matches;
  run.total_ms = mode.wall_ms;
  run.match_ms = mode.wall_ms;
  if (mode.jobs_ok < jobs) {
    run.status = tdfs::Status::Internal("some jobs failed");
  }
  return run;
}

std::string Qps(const ModeResult& mode, int64_t jobs) {
  if (mode.wall_ms <= 0) {
    return "0";
  }
  const double qps = 1000.0 * static_cast<double>(jobs) / mode.wall_ms;
  return tdfs::bench::Ms(qps);
}

}  // namespace

int main() {
  tdfs::bench::PrintBanner(
      "throughput",
      "Batch service: cold one-shot runs vs warm plan-cache + worker-pool "
      "runs",
      "Stream of 24 jobs cycling P1/P2/P5 on BA(4000, 4); identical total "
      "counts required across modes.");

  tdfs::Graph graph = tdfs::GenerateBarabasiAlbert(4000, 4, /*seed=*/7);
  const int kRepeats = 8;
  const int pattern_ids[] = {1, 2, 5};
  std::vector<tdfs::QueryGraph> stream;
  for (int r = 0; r < kRepeats; ++r) {
    for (int p : pattern_ids) {
      stream.push_back(tdfs::Pattern(p));
    }
  }
  const int64_t jobs = static_cast<int64_t>(stream.size());

  tdfs::EngineConfig config =
      tdfs::bench::WithBenchDefaults(tdfs::TdfsConfig());

  tdfs::bench::SetBenchGroup("ba4000");
  const ModeResult cold = RunCold(graph, stream, config);
  const ModeResult warm1 = RunWarm(graph, stream, config, /*workers=*/1);
  const ModeResult warm = RunWarm(graph, stream, config, /*workers=*/4);

  tdfs::bench::TablePrinter table(
      {"Mode", "wall ms", "jobs/s", "speedup", "matches"});
  const ModeResult* modes[] = {&cold, &warm1, &warm};
  const char* names[] = {"cold", "warm-1w", "warm"};
  for (int i = 0; i < 3; ++i) {
    const ModeResult& mode = *modes[i];
    const double speedup =
        mode.wall_ms > 0 ? cold.wall_ms / mode.wall_ms : 0.0;
    table.AddRow({names[i], tdfs::bench::Ms(mode.wall_ms), Qps(mode, jobs),
                  tdfs::bench::Ms(speedup) + "x",
                  std::to_string(mode.total_matches)});
    tdfs::RunResult run = AsRunResult(mode, jobs);
    tdfs::bench::RecordBenchCell(names[i], "wall_ms", run,
                                 tdfs::bench::Ms(mode.wall_ms));
    tdfs::bench::RecordBenchCell(names[i], "jobs_per_s", run,
                                 Qps(mode, jobs));
  }
  table.Print();

  const bool counts_identical = cold.total_matches == warm1.total_matches &&
                                cold.total_matches == warm.total_matches &&
                                cold.jobs_ok == jobs &&
                                warm1.jobs_ok == jobs && warm.jobs_ok == jobs;
  std::cout << "counts identical across modes: "
            << (counts_identical ? "yes" : "NO — BUG") << "\n";
  return counts_identical && warm.wall_ms < cold.wall_ms ? 0 : 1;
}
