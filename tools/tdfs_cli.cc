// tdfs — command-line front end to the library.
//
//   tdfs generate --type <er|ba|hubba|rmat|pp> --out G.txt [options]
//   tdfs dataset  --name <youtube|pokec|...>   --out G.txt
//   tdfs stats    --graph G.txt
//   tdfs match    --graph G.txt (--pattern P3 | --query Q.txt)
//                 [--engine tdfs|stmatch|egsm|pbe|hybrid|ref]
//                 [--warps N] [--devices D] [--tau MS] [--budget-ms MS]
//   tdfs kclique  --graph G.txt --k 4
//   tdfs mce      --graph G.txt
//
// Graphs are SNAP-style edge lists ("u v" per line); queries use the
// format of query/query_io.h. Run `tdfs help` for this text.

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/kclique.h"
#include "apps/mce.h"
#include "core/hybrid_engine.h"
#include "core/matcher.h"
#include "dyn/dynamic_graph.h"
#include "dyn/graph_delta.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "mem/memory_governor.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "query/patterns.h"
#include "query/query_io.h"
#include "service/match_service.h"
#include "util/prng.h"
#include "util/timer.h"

namespace tdfs::cli {
namespace {

// A malformed numeric flag value. The Args getters throw it and Main turns
// it into an InvalidArgument exit, so a bad value never reaches a command
// as a silent 0 or an out-of-range count.
struct BadFlag {
  Status status;
};

// --key value argument map; positional args rejected. Numeric getters
// parse strictly and throw BadFlag.
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected --flag, got '" + key + "'");
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + key);
      }
      args.values_[key.substr(2)] = argv[++i];
    }
    return args;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetOr(const std::string& key,
                    const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  Result<std::string> Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag --" + key);
    }
    return it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    return GetNumber(key, fallback, "an integer");
  }

  double GetDouble(const std::string& key, double fallback) const {
    return GetNumber(key, fallback, "a number");
  }

  /// A count of warps, devices or workers: an int of at least 1.
  int GetCount(const std::string& key, int fallback) const {
    constexpr int kMax = std::numeric_limits<int>::max();
    const int64_t value = GetInt(key, fallback);
    if (value < 1 || value > kMax) {
      throw BadFlag{Status::InvalidArgument(
          "--" + key + " must be between 1 and " + std::to_string(kMax) +
          ", got " + values_.at(key))};
    }
    return static_cast<int>(value);
  }

 private:
  // The whole value as a number: empty values, trailing text and
  // out-of-range numbers throw.
  template <typename T>
  T GetNumber(const std::string& key, T fallback, const char* what) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    const std::string& text = it->second;
    const char* end = text.data() + text.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      throw BadFlag{Status::InvalidArgument(
          "--" + key + " wants " + what + ", got '" + text + "'")};
    }
    return value;
  }

  std::map<std::string, std::string> values_;
};

// "64M", "2g", "1048576" -> bytes. K/M/G suffixes are binary (1024^n).
Result<int64_t> ParseByteSize(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty byte size");
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0) {
    return Status::InvalidArgument("bad byte size '" + text + "'");
  }
  int64_t scale = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': scale = int64_t{1} << 10; break;
      case 'm': case 'M': scale = int64_t{1} << 20; break;
      case 'g': case 'G': scale = int64_t{1} << 30; break;
      default:
        return Status::InvalidArgument("bad byte suffix '" + text +
                                       "' (want K, M, or G)");
    }
  }
  return static_cast<int64_t>(value * static_cast<double>(scale));
}

void PrintUsage() {
  std::cout <<
      R"(tdfs — depth-first subgraph matching (T-DFS reproduction)

  tdfs generate --type <er|ba|hubba|rmat|pp> --out G.txt
        er:    --vertices N --edges M [--seed S]
        ba:    --vertices N --attach M [--seed S]
        hubba: --vertices N --attach M --hubs H --hub-degree D [--seed S]
        rmat:  --vertices N --edges M [--a 0.57 --b 0.19 --c 0.19] [--seed S]
        pp:    --vertices N --communities C --p-in P --p-out Q [--seed S]
  tdfs dataset --name <amazon|dblp|youtube|...> --out G.txt
  tdfs stats   --graph G.txt
  tdfs match   --graph G.txt (--pattern P1..P22 | --query Q.txt)
               [--engine tdfs|stmatch|egsm|pbe|hybrid|ref] [--warps N]
               [--devices D] [--tau MS] [--tau-units U] [--budget-ms MS]
               [--labels L] [--induced 1]
               [--intersect auto|scalar|simd|bitmap-off]
               [--bitmap-min-degree D]  hub threshold for --intersect auto
               [--planner greedy|cost]  matching-order selection: greedy
                                   degree heuristic, or cost-based search
                                   over data-graph statistics with
                                   per-step backend choices
               [--prefilter off|ldf|neighborhood]  candidate prefiltering:
                                   LDF (label + degree) seeding, optionally
                                   refined by neighborhood-safety pruning;
                                   the engine then runs on the
                                   candidate-induced subgraph
               [--sharding off|hash|greedy]  partitioned execution: each
                   worker owns a shard CSR + private arena/queue; counts
                   stay bit-identical to the shared-CSR run
               [--num-shards S]    shard count (default: --devices)
               [--halo-degree D]   cache boundary vertices of degree <= D
                   in the shard halo (0 disables halos)
               [--numa 0,1,...]    per-shard NUMA node hints
               [--graph-budget B]  per-shard resident budget, e.g. 512M
               [--pages N]         page-arena size (paged stacks)
               [--spill on|off]    host spill tier when the arena is dry
               [--max-spill-pages N] spill ceiling (0 = 32x arena)
               [--mem-budget B]    global memory budget, e.g. 64M, 2G
                                   (0/unset = governor inert)
               [--json out.json | -]   machine-readable run result
               [--trace-out trace.json] Perfetto/chrome://tracing timeline
               [--flame-out flame.txt | -] collapsed-stack per-cell wall
                                   time (feed to flamegraph.pl)
  tdfs batch   --graph G.txt --queries batch.txt
               [--engine tdfs|stmatch|egsm] [--workers W] [--warps N]
               [--devices D] [--deadline-ms MS] [--retries K]
               [--max-pending J] [--cache-capacity C] [--labels L]
               [--out results.json | -]
               [--trace-out trace.json] service spans + warp events
        batch.txt: one query per line — a pattern name (P1..P22) or a
        path to a query file; '#' starts a comment. Jobs run through the
        match service (plan cache + async worker pool, each worker
        reusing its own page pool and task queue); results stream out as
        a JSON array in input order.
        --trace-out merges every job's service-stage spans and warp
        timelines into one Perfetto/chrome://tracing file.
  tdfs stream  --graph G.txt --updates U.txt
               (--pattern P1 | --query Q.txt | --queries batch.txt)
               [--workers W] [--warps N] [--verify 1] [--out out.json | -]
        U.txt: "+ u v" inserts, "- u v" deletes, "commit" closes a
        batch ('#' comments; EOF flushes). Registers the queries as
        continuous, applies each batch, and reports per-batch JSON
        delta counts (lost/gained/new per query). --verify recounts
        from scratch after every batch and fails on any mismatch.
  tdfs stream  --graph G.txt --gen-updates U.txt [--batches B]
               [--inserts I] [--deletes D] [--seed S]
        writes a random update stream valid against G.txt.
  tdfs serve   --graph G.txt [--queries batch.txt | --pattern P1]
               [--metrics-port PORT] [--duration-ms MS] [--slow-ms MS]
               [--workers W] [--warps N] [--devices D]
        replays the workload through the match service while exposing
        live metrics at http://127.0.0.1:PORT/metrics (Prometheus text
        format; port 0 picks an ephemeral port). --slow-ms enables the
        slow-query log with per-stage latency breakdowns.
  tdfs metrics --graph G.txt [--queries batch.txt | --pattern P1]
               [--jobs N]
        one-shot: runs the workload and prints the Prometheus scrape
        page to stdout without binding a port.
  tdfs kclique --graph G.txt --k K [--warps N]
  tdfs mce     --graph G.txt [--warps N]

  Numeric flags take plain numbers (no trailing text); --warps, --devices
  and --workers take integers of at least 1.
)";
}

Result<Graph> LoadGraphArg(const Args& args) {
  TDFS_ASSIGN_OR_RETURN(std::string path, args.Require("graph"));
  TDFS_ASSIGN_OR_RETURN(Graph g, LoadEdgeListText(path));
  const int64_t labels = args.GetInt("labels", 0);
  if (labels > 0) {
    g.AssignUniformLabels(static_cast<int32_t>(labels),
                          static_cast<uint64_t>(args.GetInt("seed", 1)));
  }
  return g;
}

int ReportAndExit(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

int CmdGenerate(const Args& args) {
  auto type = args.Require("type");
  auto out = args.Require("out");
  if (!type.ok()) {
    return ReportAndExit(type.status());
  }
  if (!out.ok()) {
    return ReportAndExit(out.status());
  }
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const int64_t n = args.GetInt("vertices", 10000);
  Graph g;
  const std::string kind = type.value();
  if (kind == "er") {
    g = GenerateErdosRenyi(n, args.GetInt("edges", 4 * n), seed);
  } else if (kind == "ba") {
    g = GenerateBarabasiAlbert(
        n, static_cast<int32_t>(args.GetInt("attach", 4)), seed);
  } else if (kind == "hubba") {
    g = GenerateHubbedPowerLaw(
        n, static_cast<int32_t>(args.GetInt("attach", 4)),
        static_cast<int32_t>(args.GetInt("hubs", 3)),
        args.GetInt("hub-degree", n / 10), seed);
  } else if (kind == "rmat") {
    g = GenerateRmat(n, args.GetInt("edges", 4 * n),
                     args.GetDouble("a", 0.57), args.GetDouble("b", 0.19),
                     args.GetDouble("c", 0.19), seed);
  } else if (kind == "pp") {
    g = GeneratePlantedPartition(
        n, static_cast<int32_t>(args.GetInt("communities", 50)),
        args.GetDouble("p-in", 0.3), args.GetDouble("p-out", 0.001), seed);
  } else {
    return ReportAndExit(
        Status::InvalidArgument("unknown --type '" + kind + "'"));
  }
  Status s = SaveEdgeListText(g, out.value());
  if (!s.ok()) {
    return ReportAndExit(s);
  }
  std::cout << "wrote " << out.value() << ": " << g.Summary() << "\n";
  return 0;
}

int CmdDataset(const Args& args) {
  auto name = args.Require("name");
  auto out = args.Require("out");
  if (!name.ok()) {
    return ReportAndExit(name.status());
  }
  if (!out.ok()) {
    return ReportAndExit(out.status());
  }
  auto id = DatasetFromName(name.value());
  if (!id.ok()) {
    return ReportAndExit(id.status());
  }
  Graph g = LoadDataset(id.value());
  Status s = SaveEdgeListText(g, out.value());
  if (!s.ok()) {
    return ReportAndExit(s);
  }
  std::cout << "wrote " << out.value() << ": " << g.Summary() << "\n";
  if (g.IsLabeled()) {
    std::cout << "note: labels are not stored in edge-list files; reload "
                 "with --labels " << g.NumLabels() << " --seed ...\n";
  }
  return 0;
}

int CmdStats(const Args& args) {
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) {
    return ReportAndExit(graph.status());
  }
  std::cout << graph.value().Summary() << "\n";
  return 0;
}

EngineConfig ConfigFromArgs(const Args& args, EngineConfig config) {
  config.num_warps = args.GetCount("warps", config.num_warps);
  config.num_devices = args.GetCount("devices", config.num_devices);
  config.timeout_ms = args.GetDouble("tau", config.timeout_ms);
  if (args.Has("tau-units")) {
    // Deterministic timeouts: tau in virtual work units instead of wall
    // milliseconds (what the bench harness uses; see bench/harness.h).
    config.clock = ClockKind::kVirtual;
    config.timeout_work_units =
        static_cast<uint64_t>(args.GetInt("tau-units", 0));
  }
  config.max_run_ms = args.GetDouble("budget-ms", config.max_run_ms);
  config.induced = args.GetInt("induced", 0) != 0;
  config.use_reuse = args.GetInt("reuse", config.use_reuse ? 1 : 0) != 0;
  config.use_symmetry_breaking =
      args.GetInt("symmetry", config.use_symmetry_breaking ? 1 : 0) != 0;
  config.use_degree_filter =
      args.GetInt("degree-filter", config.use_degree_filter ? 1 : 0) != 0;
  const std::string stack = args.GetOr("stack", "");
  if (stack == "array") {
    config.stack = StackKind::kArrayMaxDegree;
  } else if (stack == "paged") {
    config.stack = StackKind::kPaged;
  }
  if (args.Has("intersect")) {
    const std::string mode = args.GetOr("intersect", "");
    if (!ParseIntersectMode(mode, &config.intersect)) {
      std::cerr << "warning: unknown --intersect '" << mode
                << "' (want auto|scalar|simd|bitmap-off); keeping "
                << IntersectModeName(config.intersect) << "\n";
    }
  }
  if (args.Has("planner")) {
    const std::string planner = args.GetOr("planner", "");
    if (!ParsePlannerKind(planner, &config.planner)) {
      std::cerr << "warning: unknown --planner '" << planner
                << "' (want greedy|cost); keeping "
                << PlannerKindName(config.planner) << "\n";
    }
  }
  if (args.Has("prefilter")) {
    const std::string prefilter = args.GetOr("prefilter", "");
    if (!ParsePrefilterKind(prefilter, &config.prefilter)) {
      std::cerr << "warning: unknown --prefilter '" << prefilter
                << "' (want off|ldf|neighborhood); keeping "
                << PrefilterKindName(config.prefilter) << "\n";
    }
  }
  config.bitmap_min_degree =
      args.GetInt("bitmap-min-degree", config.bitmap_min_degree);
  config.page_pool_pages = static_cast<int32_t>(
      args.GetInt("pages", config.page_pool_pages));
  if (args.Has("spill")) {
    const std::string spill = args.GetOr("spill", "");
    if (spill == "on" || spill == "1") {
      config.spill_to_host = true;
    } else if (spill == "off" || spill == "0") {
      config.spill_to_host = false;
    } else {
      std::cerr << "warning: unknown --spill '" << spill
                << "' (want on|off); keeping "
                << (config.spill_to_host ? "on" : "off") << "\n";
    }
  }
  config.max_spill_pages = static_cast<int32_t>(
      args.GetInt("max-spill-pages", config.max_spill_pages));
  if (args.Has("sharding")) {
    const std::string sharding = args.GetOr("sharding", "");
    if (!ParseShardingKind(sharding, &config.sharding)) {
      std::cerr << "warning: unknown --sharding '" << sharding
                << "' (want off|hash|greedy); keeping "
                << ShardingKindName(config.sharding) << "\n";
    }
  }
  config.num_shards =
      static_cast<int>(args.GetInt("num-shards", config.num_shards));
  config.shard_halo_max_degree =
      args.GetInt("halo-degree", config.shard_halo_max_degree);
  if (args.Has("numa")) {
    // Comma-separated NUMA node hints; shard s gets numa[s % size].
    config.numa_nodes.clear();
    std::stringstream nodes(args.GetOr("numa", ""));
    std::string node;
    while (std::getline(nodes, node, ',')) {
      if (!node.empty()) {
        config.numa_nodes.push_back(std::atoi(node.c_str()));
      }
    }
  }
  if (args.Has("graph-budget")) {
    auto budget = ParseByteSize(args.GetOr("graph-budget", ""));
    if (budget.ok()) {
      config.graph_budget_bytes = budget.value();
    } else {
      std::cerr << "warning: --graph-budget: " << budget.status() << "\n";
    }
  }
  if (args.Has("mem-budget")) {
    auto budget = ParseByteSize(args.GetOr("mem-budget", ""));
    if (budget.ok()) {
      // The process-global governor: every allocator registers with it,
      // and admission/pressure engage once it has a budget.
      MemoryGovernor::Global()->SetBudgetBytes(budget.value());
    } else {
      std::cerr << "warning: --mem-budget: " << budget.status() << "\n";
    }
  }
  return config;
}

int CmdMatch(const Args& args) {
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) {
    return ReportAndExit(graph.status());
  }
  Result<QueryGraph> query = Status::InvalidArgument(
      "provide exactly one of --pattern or --query");
  if (args.Has("pattern")) {
    auto index = PatternFromName(args.GetOr("pattern", ""));
    if (!index.ok()) {
      return ReportAndExit(index.status());
    }
    query = Pattern(index.value());
  } else if (args.Has("query")) {
    query = LoadQueryFile(args.GetOr("query", ""));
  }
  if (!query.ok()) {
    return ReportAndExit(query.status());
  }

  // Any export flag enables the trace session: --trace-out needs the
  // event rings, --json benefits from the histogram metrics it carries,
  // and --flame-out needs the per-cell time attribution the engine only
  // collects while tracing.
  std::unique_ptr<obs::TraceSession> trace;
  if (args.Has("trace-out") || args.Has("json") || args.Has("flame-out")) {
    trace = std::make_unique<obs::TraceSession>();
  }
  auto with_trace = [&trace](EngineConfig config) {
    config.trace = trace.get();
    return config;
  };

  const std::string engine = args.GetOr("engine", "tdfs");
  RunResult result;
  if (engine == "tdfs") {
    result = RunMatching(graph.value(), query.value(),
                         with_trace(ConfigFromArgs(args, TdfsConfig())));
  } else if (engine == "stmatch") {
    result = RunMatching(graph.value(), query.value(),
                         with_trace(ConfigFromArgs(args, StmatchConfig())));
  } else if (engine == "egsm") {
    result = RunMatching(graph.value(), query.value(),
                         with_trace(ConfigFromArgs(args, EgsmConfig())));
  } else if (engine == "pbe") {
    result = RunMatchingBfs(graph.value(), query.value(),
                            with_trace(ConfigFromArgs(args, PbeConfig())));
  } else if (engine == "hybrid") {
    result =
        RunMatchingHybrid(graph.value(), query.value(),
                          with_trace(ConfigFromArgs(args, TdfsConfig())));
  } else if (engine == "ref") {
    result = RunMatchingRef(graph.value(), query.value(),
                            with_trace(ConfigFromArgs(args, TdfsConfig())));
  } else {
    return ReportAndExit(
        Status::InvalidArgument("unknown --engine '" + engine + "'"));
  }

  // Exports run even for failed jobs: a machine-readable failure (status
  // object, partial counters) is exactly what a harness wants to see.
  if (args.Has("json")) {
    const std::string path = args.GetOr("json", "");
    const std::string doc =
        result.ToJsonString(trace == nullptr ? nullptr : trace->metrics());
    if (path == "-") {
      std::cout << doc;
    } else {
      std::ofstream out(path);
      out << doc;
      if (!out) {
        return ReportAndExit(Status::IOError("cannot write " + path));
      }
      std::cout << "json:         " << path << "\n";
    }
  }
  if (args.Has("trace-out")) {
    const std::string path = args.GetOr("trace-out", "");
    Status s = trace->WriteChromeTraceFile(path);
    if (!s.ok()) {
      return ReportAndExit(s);
    }
    std::cout << "trace:        " << path << " (" << trace->NumTracks()
              << " tracks, " << trace->TotalDropped()
              << " dropped records)\n";
  }
  if (args.Has("flame-out")) {
    // Collapsed-stack per-cell/per-arm wall-time attribution, ready for
    // a flamegraph renderer (one "tdfs;cellN[;arm] <ns>" line each).
    const std::string path = args.GetOr("flame-out", "");
    if (result.attribution.Empty()) {
      std::cerr << "warning: no time attribution collected (run too "
                   "short?); writing empty " << path << "\n";
    }
    if (path == "-") {
      result.attribution.WriteCollapsed(std::cout);
    } else {
      std::ofstream out(path);
      result.attribution.WriteCollapsed(out);
      if (!out) {
        return ReportAndExit(Status::IOError("cannot write " + path));
      }
      std::cout << "flame:        " << path << "\n";
    }
  }
  if (!result.status.ok()) {
    return ReportAndExit(result.status);
  }
  std::cout << "matches:      " << result.match_count << "\n"
            << "wall ms:      " << result.match_ms << "\n"
            << "simulated ms: " << result.SimulatedGpuMs() << "\n"
            << "work units:   " << result.counters.work_units << "\n";
  if (result.counters.tasks_enqueued > 0) {
    std::cout << "queue tasks:  " << result.counters.tasks_enqueued
              << " (peak " << result.counters.queue_peak_tasks << ")\n";
  }
  return 0;
}

// One line of a --queries file: a pattern name or a query-file path.
Result<QueryGraph> LoadBatchQuery(const std::string& spec) {
  auto index = PatternFromName(spec);
  if (index.ok()) {
    return Pattern(index.value());
  }
  return LoadQueryFile(spec);
}

struct QueryList {
  std::vector<std::string> specs;
  std::vector<QueryGraph> queries;
};

// Loads a --queries file: one pattern name or query-file path per line,
// '#' comments.
Result<QueryList> LoadQueriesFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot read " + path);
  }
  QueryList list;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) {
      continue;
    }
    const size_t end = line.find_last_not_of(" \t\r");
    const std::string spec = line.substr(begin, end - begin + 1);
    auto query = LoadBatchQuery(spec);
    if (!query.ok()) {
      return Status::InvalidArgument("query '" + spec +
                                     "': " + query.status().ToString());
    }
    list.specs.push_back(spec);
    list.queries.push_back(std::move(query.value()));
  }
  if (list.queries.empty()) {
    return Status::InvalidArgument("no queries in " + path);
  }
  return list;
}

int CmdBatch(const Args& args) {
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) {
    return ReportAndExit(graph.status());
  }
  auto queries_path = args.Require("queries");
  if (!queries_path.ok()) {
    return ReportAndExit(queries_path.status());
  }
  auto loaded = LoadQueriesFile(queries_path.value());
  if (!loaded.ok()) {
    return ReportAndExit(loaded.status());
  }
  std::vector<std::string>& specs = loaded.value().specs;
  std::vector<QueryGraph>& queries = loaded.value().queries;

  EngineConfig config;
  const std::string engine = args.GetOr("engine", "tdfs");
  if (engine == "tdfs") {
    config = ConfigFromArgs(args, TdfsConfig());
  } else if (engine == "stmatch") {
    config = ConfigFromArgs(args, StmatchConfig());
  } else if (engine == "egsm") {
    config = ConfigFromArgs(args, EgsmConfig());
  } else {
    return ReportAndExit(Status::InvalidArgument(
        "unknown --engine '" + engine + "' (batch runs DFS engines)"));
  }
  config.retry.max_attempts =
      static_cast<int>(args.GetInt("retries", config.retry.max_attempts));

  // One session for the whole batch: every job's service spans and warp
  // tracks land on a single merged timeline.
  std::unique_ptr<obs::TraceSession> trace;
  if (args.Has("trace-out")) {
    trace = std::make_unique<obs::TraceSession>();
    config.trace = trace.get();
  }

  ServiceOptions service_options;
  service_options.num_workers =
      args.GetCount("workers", service_options.num_workers);
  service_options.max_pending_jobs = static_cast<int>(
      args.GetInt("max-pending", service_options.max_pending_jobs));
  service_options.plan_cache_capacity =
      args.GetInt("cache-capacity", service_options.plan_cache_capacity);
  service_options.default_deadline_ms = args.GetDouble("deadline-ms", 0.0);

  Timer wall;
  MatchService service(graph.value(), config, service_options);
  std::vector<std::future<RunResult>> futures;
  futures.reserve(queries.size());
  for (const QueryGraph& query : queries) {
    futures.push_back(service.Submit(query));
  }
  std::vector<RunResult> results;
  results.reserve(futures.size());
  int64_t ok_jobs = 0;
  uint64_t total_matches = 0;
  for (auto& future : futures) {
    results.push_back(future.get());
    if (results.back().status.ok()) {
      ++ok_jobs;
      total_matches += results.back().match_count;
    }
  }
  const double wall_ms = wall.ElapsedMillis();
  const MatchService::Stats stats = service.GetStats();

  if (trace != nullptr) {
    const std::string path = args.GetOr("trace-out", "");
    Status s = trace->WriteChromeTraceFile(path);
    if (!s.ok()) {
      return ReportAndExit(s);
    }
    std::cout << "trace:        " << path << " (" << trace->NumTracks()
              << " tracks, " << trace->TotalDropped() << " dropped, "
              << trace->spans()->Size() << " spans)\n";
  }

  // JSON array of per-job objects, in input order.
  if (args.Has("out")) {
    const std::string path = args.GetOr("out", "");
    std::ostringstream doc;
    obs::JsonWriter w(doc);
    w.BeginArray();
    for (size_t i = 0; i < results.size(); ++i) {
      w.BeginObject();
      w.KeyValue("query", specs[i]);
      w.Key("result");
      results[i].ToJson(&w);
      w.EndObject();
    }
    w.EndArray();
    if (path == "-") {
      std::cout << doc.str() << "\n";
    } else {
      std::ofstream out(path);
      out << doc.str() << "\n";
      if (!out) {
        return ReportAndExit(Status::IOError("cannot write " + path));
      }
      std::cout << "json:         " << path << "\n";
    }
  }

  std::cout << "jobs:         " << results.size() << " (" << ok_jobs
            << " ok)\n"
            << "matches:      " << total_matches << "\n"
            << "wall ms:      " << wall_ms << "\n"
            << "jobs/s:       "
            << (wall_ms > 0 ? 1000.0 * static_cast<double>(results.size()) /
                                  wall_ms
                            : 0.0)
            << "\n"
            << "plan cache:   " << stats.plan_cache_hits << " hits / "
            << stats.plan_cache_misses << " misses\n";
  const int failed = static_cast<int>(results.size()) - ok_jobs;
  return failed == 0 ? 0 : 1;
}

// ---- tdfs serve / tdfs metrics: Prometheus scrape endpoint ----

// Resolves the query workload for serve/metrics: --queries file,
// --pattern / --query, or the P1 default.
Result<QueryList> ServeQueries(const Args& args) {
  if (args.Has("queries")) {
    return LoadQueriesFile(args.GetOr("queries", ""));
  }
  QueryList list;
  if (args.Has("query")) {
    TDFS_ASSIGN_OR_RETURN(QueryGraph q,
                          LoadQueryFile(args.GetOr("query", "")));
    list.specs.push_back(args.GetOr("query", ""));
    list.queries.push_back(std::move(q));
    return list;
  }
  const std::string name = args.GetOr("pattern", "P1");
  TDFS_ASSIGN_OR_RETURN(int index, PatternFromName(name));
  list.specs.push_back(name);
  list.queries.push_back(Pattern(index));
  return list;
}

int CmdServe(const Args& args) {
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) {
    return ReportAndExit(graph.status());
  }
  auto queries = ServeQueries(args);
  if (!queries.ok()) {
    return ReportAndExit(queries.status());
  }
  EngineConfig config = ConfigFromArgs(args, TdfsConfig());
  ServiceOptions options;
  options.num_workers = args.GetCount("workers", options.num_workers);
  options.slow_query_ms = args.GetDouble("slow-ms", options.slow_query_ms);
  const int port = static_cast<int>(args.GetInt("metrics-port", 0));
  const double duration_ms = args.GetDouble("duration-ms", 10000.0);

  MatchService service(graph.value(), config, options);
  Status status = service.StartMetricsServer(port);
  if (!status.ok()) {
    return ReportAndExit(status);
  }
  std::cout << "metrics:      http://127.0.0.1:" << service.metrics_port()
            << "/metrics (" << duration_ms << " ms)\n";

  // Replay the workload round-robin, keeping a small pipeline in flight,
  // so scrapes observe a live service rather than an idle one.
  const size_t num_queries = queries.value().queries.size();
  Timer wall;
  std::deque<std::future<RunResult>> inflight;
  size_t next = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  const auto drain_one = [&] {
    RunResult r = inflight.front().get();
    inflight.pop_front();
    ++completed;
    if (!r.status.ok()) {
      ++failed;
    }
  };
  while (wall.ElapsedMillis() < duration_ms) {
    while (inflight.size() < 8) {
      inflight.push_back(
          service.Submit(queries.value().queries[next % num_queries]));
      ++next;
    }
    drain_one();
  }
  while (!inflight.empty()) {
    drain_one();
  }
  service.StopMetricsServer();

  const MatchService::Stats stats = service.GetStats();
  std::cout << "jobs:         " << completed << " (" << failed
            << " failed)\n"
            << "jobs/s:       "
            << (wall.ElapsedMillis() > 0
                    ? 1000.0 * static_cast<double>(completed) /
                          wall.ElapsedMillis()
                    : 0.0)
            << "\n";
  for (const MatchService::Stats::StageStats& stage : stats.stages) {
    std::cout << "stage " << stage.stage << ": n=" << stage.count
              << " p50=" << stage.p50_us << "us p95=" << stage.p95_us
              << "us p99=" << stage.p99_us << "us max=" << stage.max_us
              << "us\n";
  }
  return failed == 0 ? 0 : 1;
}

int CmdMetrics(const Args& args) {
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) {
    return ReportAndExit(graph.status());
  }
  auto queries = ServeQueries(args);
  if (!queries.ok()) {
    return ReportAndExit(queries.status());
  }
  EngineConfig config = ConfigFromArgs(args, TdfsConfig());
  obs::MetricsRegistry registry;
  int failed = 0;
  {
    MatchService service(graph.value(), config, ServiceOptions{});
    service.AttachMetrics(&registry);
    const int64_t jobs = std::max<int64_t>(args.GetInt("jobs", 1), 1);
    std::vector<std::future<RunResult>> futures;
    for (int64_t i = 0; i < jobs; ++i) {
      for (const QueryGraph& query : queries.value().queries) {
        futures.push_back(service.Submit(query));
      }
    }
    for (auto& future : futures) {
      if (!future.get().status.ok()) {
        ++failed;
      }
    }
  }
  // One-shot scrape page on stdout: exactly what GET /metrics would
  // serve, without binding a port.
  std::cout << obs::RenderPrometheusText(registry);
  return failed == 0 ? 0 : 1;
}

// ---- tdfs stream: batch-dynamic updates with continuous queries ----

// Updates file: one op per line — "+ u v" inserts, "- u v" deletes,
// "commit" closes the batch; '#' starts a comment; EOF flushes any
// pending ops as a final batch.
Result<std::vector<dyn::GraphDelta>> LoadUpdates(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot read " + path);
  }
  std::vector<dyn::GraphDelta> batches;
  std::vector<dyn::EdgePair> inserts;
  std::vector<dyn::EdgePair> deletes;
  const auto flush = [&]() -> Status {
    if (inserts.empty() && deletes.empty()) {
      return Status::OK();
    }
    auto delta = dyn::GraphDelta::Build(std::move(inserts),
                                        std::move(deletes));
    if (!delta.ok()) {
      return delta.status();
    }
    batches.push_back(std::move(delta.value()));
    inserts.clear();
    deletes.clear();
    return Status::OK();
  };
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream tokens(line);
    std::string op;
    if (!(tokens >> op)) {
      continue;
    }
    if (op == "commit") {
      if (Status s = flush(); !s.ok()) {
        return s;
      }
      continue;
    }
    VertexId u, v;
    if ((op != "+" && op != "-") || !(tokens >> u >> v)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": expected '+ u v', '- u v', or "
                                     "'commit', got '" +
                                     line + "'");
    }
    (op == "+" ? inserts : deletes).emplace_back(u, v);
  }
  if (Status s = flush(); !s.ok()) {
    return s;
  }
  return batches;
}

// Writes a random updates file guaranteed valid against `graph` when the
// batches are applied in order.
Status GenerateUpdates(const Graph& graph, const std::string& path,
                       int batches, int inserts, int deletes,
                       uint64_t seed) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot write " + path);
  }
  out << "# generated update stream: " << batches << " batches, +"
      << inserts << " -" << deletes << " edges per batch, seed " << seed
      << "\n";
  Xoshiro256ss rng(seed);
  dyn::DynamicGraph dynamic(graph);
  for (int b = 0; b < batches; ++b) {
    const std::shared_ptr<const Graph> g = dynamic.Snapshot();
    std::vector<dyn::EdgePair> ins;
    std::vector<dyn::EdgePair> del;
    std::set<dyn::EdgePair> used;
    int attempts = 0;
    while (static_cast<int>(del.size()) < deletes &&
           ++attempts < 100000 && g->NumDirectedEdges() > 0) {
      const int64_t e = rng.Range(0, g->NumDirectedEdges() - 1);
      VertexId u = g->EdgeSource(e);
      VertexId v = g->EdgeTarget(e);
      if (u > v) {
        std::swap(u, v);
      }
      if (used.insert({u, v}).second) {
        del.emplace_back(u, v);
      }
    }
    attempts = 0;
    while (static_cast<int>(ins.size()) < inserts && ++attempts < 100000) {
      VertexId u = static_cast<VertexId>(rng.Range(0, g->NumVertices() - 1));
      VertexId v = static_cast<VertexId>(rng.Range(0, g->NumVertices() - 1));
      if (u == v) {
        continue;
      }
      if (u > v) {
        std::swap(u, v);
      }
      if (g->HasEdge(u, v) || !used.insert({u, v}).second) {
        continue;
      }
      ins.emplace_back(u, v);
    }
    auto delta = dyn::GraphDelta::Build(ins, del);
    if (!delta.ok()) {
      return delta.status();
    }
    for (const dyn::EdgePair& e : delta.value().insertions()) {
      out << "+ " << e.first << " " << e.second << "\n";
    }
    for (const dyn::EdgePair& e : delta.value().deletions()) {
      out << "- " << e.first << " " << e.second << "\n";
    }
    out << "commit\n";
    if (!dynamic.Apply(delta.value()).ok()) {
      return Status::Internal("generated batch failed to apply");
    }
  }
  if (!out) {
    return Status::IOError("cannot write " + path);
  }
  std::cout << "updates:      " << path << " (" << batches
            << " batches)\n";
  return Status::OK();
}

int CmdStream(const Args& args) {
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) {
    return ReportAndExit(graph.status());
  }

  if (args.Has("gen-updates")) {
    Status s = GenerateUpdates(
        graph.value(), args.GetOr("gen-updates", ""),
        static_cast<int>(args.GetInt("batches", 10)),
        static_cast<int>(args.GetInt("inserts", 8)),
        static_cast<int>(args.GetInt("deletes", 4)),
        static_cast<uint64_t>(args.GetInt("seed", 1)));
    return s.ok() ? 0 : ReportAndExit(s);
  }

  auto updates_path = args.Require("updates");
  if (!updates_path.ok()) {
    return ReportAndExit(updates_path.status());
  }
  auto batches = LoadUpdates(updates_path.value());
  if (!batches.ok()) {
    return ReportAndExit(batches.status());
  }

  // Queries: --pattern / --query (one), or --queries (file of specs).
  std::vector<std::string> specs;
  if (args.Has("pattern") || args.Has("query")) {
    specs.push_back(args.GetOr("pattern", args.GetOr("query", "")));
  } else if (args.Has("queries")) {
    std::ifstream in(args.GetOr("queries", ""));
    if (!in) {
      return ReportAndExit(
          Status::IOError("cannot read " + args.GetOr("queries", "")));
    }
    std::string line;
    while (std::getline(in, line)) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) {
        line = line.substr(0, hash);
      }
      std::istringstream tokens(line);
      std::string spec;
      if (tokens >> spec) {
        specs.push_back(spec);
      }
    }
  }
  if (specs.empty()) {
    return ReportAndExit(Status::InvalidArgument(
        "stream needs --pattern, --query, or --queries"));
  }

  EngineConfig config = ConfigFromArgs(args, TdfsConfig());
  ServiceOptions service_options;
  service_options.num_workers =
      args.GetCount("workers", service_options.num_workers);

  MatchService service(graph.value(), config, service_options);
  std::vector<int64_t> ids;
  for (const std::string& spec : specs) {
    auto query = LoadBatchQuery(spec);
    if (!query.ok()) {
      return ReportAndExit(Status::InvalidArgument(
          "query '" + spec + "': " + query.status().ToString()));
    }
    auto id = service.RegisterContinuousQuery(query.value());
    if (!id.ok()) {
      return ReportAndExit(id.status());
    }
    ids.push_back(id.value());
    auto count = service.ContinuousQueryCount(id.value());
    std::cout << "register:     " << spec << " = "
              << (count.ok() ? std::to_string(count.value()) : "?")
              << " matches\n";
  }

  const bool verify = args.GetInt("verify", 0) != 0;
  std::ostringstream doc;
  obs::JsonWriter json(doc);
  json.BeginArray();
  Timer wall;
  int failed = 0;
  for (size_t b = 0; b < batches.value().size(); ++b) {
    const dyn::GraphDelta& delta = batches.value()[b];
    auto report = service.ApplyUpdate(delta);
    if (!report.ok()) {
      std::cerr << "batch " << b << ": " << report.status() << "\n";
      ++failed;
      continue;
    }
    json.BeginObject();
    json.KeyValue("version", report.value().version);
    json.KeyValue("inserted", report.value().edges_inserted);
    json.KeyValue("deleted", report.value().edges_deleted);
    json.KeyValue("delta_plans_run", report.value().delta_plans_run);
    json.KeyValue("seed_edges", report.value().seed_edges);
    json.KeyValue("total_ms", report.value().total_ms);
    json.Key("queries");
    json.BeginArray();
    for (size_t i = 0; i < report.value().queries.size(); ++i) {
      const MatchService::QueryDelta& qd = report.value().queries[i];
      json.BeginObject();
      json.KeyValue("query", specs[i]);
      json.KeyValue("old_count", qd.old_count);
      json.KeyValue("lost", qd.lost);
      json.KeyValue("gained", qd.gained);
      json.KeyValue("new_count", qd.new_count);
      if (qd.recounted) {
        json.KeyValue("recounted", true);
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();

    std::cout << "batch " << report.value().version << ":      "
              << delta.Summary();
    for (size_t i = 0; i < report.value().queries.size(); ++i) {
      const MatchService::QueryDelta& qd = report.value().queries[i];
      std::cout << "  " << specs[i] << ": " << qd.old_count << " -"
                << qd.lost << " +" << qd.gained << " = " << qd.new_count;
    }
    std::cout << " (" << report.value().total_ms << " ms)\n";

    if (verify) {
      for (size_t i = 0; i < ids.size(); ++i) {
        auto query = LoadBatchQuery(specs[i]);
        const RunResult full =
            RunMatching(*service.Snapshot(), query.value(), config);
        auto maintained = service.ContinuousQueryCount(ids[i]);
        if (!full.status.ok() || !maintained.ok() ||
            full.match_count != maintained.value()) {
          std::cerr << "VERIFY FAILED batch " << b << " query " << specs[i]
                    << ": incremental "
                    << (maintained.ok()
                            ? std::to_string(maintained.value())
                            : "?")
                    << " vs recount "
                    << (full.status.ok() ? std::to_string(full.match_count)
                                         : full.status.ToString())
                    << "\n";
          ++failed;
        }
      }
    }
  }
  json.EndArray();
  const double wall_ms = wall.ElapsedMillis();

  if (args.Has("out")) {
    const std::string path = args.GetOr("out", "");
    if (path == "-") {
      std::cout << doc.str() << "\n";
    } else {
      std::ofstream out(path);
      out << doc.str() << "\n";
      if (!out) {
        return ReportAndExit(Status::IOError("cannot write " + path));
      }
      std::cout << "json:         " << path << "\n";
    }
  }
  std::cout << "batches:      " << batches.value().size() << " ("
            << (batches.value().size() - failed) << " ok)\n"
            << "final ver:    " << service.GraphVersion() << "\n"
            << "wall ms:      " << wall_ms << "\n";
  if (verify && failed == 0) {
    std::cout << "verify:       all batches match full recounts\n";
  }
  return failed == 0 ? 0 : 1;
}

int CmdKClique(const Args& args) {
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) {
    return ReportAndExit(graph.status());
  }
  const int k = static_cast<int>(args.GetInt("k", 3));
  RunResult result = CountKCliques(graph.value(), k,
                                   ConfigFromArgs(args, TdfsConfig()));
  if (!result.status.ok()) {
    return ReportAndExit(result.status);
  }
  std::cout << k << "-cliques: " << result.match_count << " ("
            << result.match_ms << " ms)\n";
  return 0;
}

int CmdMce(const Args& args) {
  auto graph = LoadGraphArg(args);
  if (!graph.ok()) {
    return ReportAndExit(graph.status());
  }
  RunResult result =
      CountMaximalCliques(graph.value(), ConfigFromArgs(args, TdfsConfig()));
  if (!result.status.ok()) {
    return ReportAndExit(result.status);
  }
  std::cout << "maximal cliques: " << result.match_count << " ("
            << result.match_ms << " ms)\n";
  return 0;
}

int RunCommand(const std::string& command, const Args& args) {
  if (command == "generate") {
    return CmdGenerate(args);
  }
  if (command == "dataset") {
    return CmdDataset(args);
  }
  if (command == "stats") {
    return CmdStats(args);
  }
  if (command == "match") {
    return CmdMatch(args);
  }
  if (command == "batch") {
    return CmdBatch(args);
  }
  if (command == "serve") {
    return CmdServe(args);
  }
  if (command == "metrics") {
    return CmdMetrics(args);
  }
  if (command == "stream") {
    return CmdStream(args);
  }
  if (command == "kclique") {
    return CmdKClique(args);
  }
  if (command == "mce") {
    return CmdMce(args);
  }
  std::cerr << "unknown command '" << command << "'\n";
  PrintUsage();
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "help" ||
      std::string(argv[1]) == "--help") {
    PrintUsage();
    return argc < 2 ? 1 : 0;
  }
  auto args = Args::Parse(argc, argv, 2);
  if (!args.ok()) {
    return ReportAndExit(args.status());
  }
  try {
    return RunCommand(argv[1], args.value());
  } catch (const BadFlag& bad) {
    return ReportAndExit(bad.status);
  }
}

}  // namespace
}  // namespace tdfs::cli

int main(int argc, char** argv) { return tdfs::cli::Main(argc, argv); }
