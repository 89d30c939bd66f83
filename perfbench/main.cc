// Wall-clock benchmark driver for T-DFS.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --expected FILE [--spans FILE] [--commit SHA]
//   perfbench_driver --self-test --expected FILE
//   perfbench_driver --write-expected FILE
//
// A run prints a host/build stamp, then every metric of its mode by name
// with its unit, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics, traced runs the
// per-layer ones. perfbench/run.py builds this binary and runs it.

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/matcher.h"
#include "query/patterns.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"queries_per_s", "1/s"},
    {"query_ms_p50", "ms"},    {"query_ms_p95", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.load_ms", "ms"},
    {"graph.label_index_build_ms", "ms"},
    {"graph.hub_bitmap_build_ms", "ms"},
    {"query.plan_ms", "ms"},
    {"mem.arena_init_ms", "ms"},
    {"mem.teardown_ms", "ms"},
    {"queue.init_ms", "ms"},
    {"core.preprocess_ms", "ms"},
    {"core.kernel_ms", "ms"},
    {"core.residual_ms", "ms"},
    {"core.work_units", "count"},
    {"core.work_units_per_ms", "count/ms"},
    {"core.warp_imbalance", "ratio"},
    {"core.timeout_splits", "count"},
    {"core.simulated_gpu_ms", "ms"},
    {"queue.tasks_enqueued", "count"},
    {"queue.full_failures", "count"},
    {"queue.peak_tasks", "count"},
    {"mem.pages_peak", "count"},
    {"mem.alloc_misses", "count"},
    {"mem.spill_allocs", "count"},
    {"service.submit_ms", "ms"},
    {"service.wait_ms", "ms"},
    {"service.queue_wait_p50_us", "us"},
    {"service.queue_wait_p95_us", "us"},
    {"service.arena_lease_p50_us", "us"},
    {"service.arena_lease_p95_us", "us"},
    {"service.engine_run_p50_us", "us"},
    {"service.engine_run_p95_us", "us"},
    {"service.plan_cache_p50_us", "us"},
    {"service.plan_cache_p95_us", "us"},
    {"service.plan_cache_hit_ratio", "ratio"},
    {"service.rejected", "count"},
    {"service.reservation_timeouts", "count"},
    {"dyn.apply_ms", "ms"},
    {"dyn.update_ms_p50", "ms"},
    {"dyn.update_ms_p95", "ms"},
    {"dyn.delta_plans_run", "count"},
    {"dyn.seed_edges", "count"},
    {"dyn.recount_fallbacks", "count"},
    {"trace.overhead_frac", "frac"},
    {"trace.span_sum_err_frac", "frac"},
    {"ops.failed_frac", "frac"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string expected;
  std::string spans;
  std::string commit = "unknown";
  bool self_test = false;
  std::string write_expected;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload cold_short|heavy_dfs|"
               "service_mixed --seed N --seconds S --trace 0|1 --expected "
               "FILE [--spans FILE] [--commit SHA]\n"
               "       perfbench_driver --self-test --expected FILE\n"
               "       perfbench_driver --write-expected FILE\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--write-expected") {
      args.write_expected = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  return args;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

/// Shortest text that reads back as exactly `v`.
std::string Number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Every query any workload runs, each once.
std::vector<QuerySpec> AllQueries() {
  std::vector<QuerySpec> all;
  std::set<std::string> seen;
  for (const auto* list : {&ColdShortQueries(), &HeavyDfsQueries(),
                           &ServiceQueries(), &ContinuousQueries()}) {
    for (const QuerySpec& q : *list) {
      if (seen.insert(q.Key()).second) {
        all.push_back(q);
      }
    }
  }
  return all;
}

/// Counts every query with RunMatchingRef. With `stored`, compares against
/// it and returns the number of mismatches; otherwise fills *out.
int RecountAll(const ExpectedCounts* stored, ExpectedCounts* out) {
  std::map<tdfs::DatasetId, tdfs::Graph> graphs;
  int mismatches = 0;
  for (const QuerySpec& q : AllQueries()) {
    auto it = graphs.find(q.dataset);
    if (it == graphs.end()) {
      it = graphs.emplace(q.dataset, tdfs::LoadDataset(q.dataset)).first;
    }
    const tdfs::RunResult ref =
        tdfs::RunMatchingRef(it->second, tdfs::Pattern(q.pattern),
                             BenchConfig());
    if (!ref.status.ok()) {
      std::cout << q.Key() << ": RunMatchingRef failed: "
                << ref.status.ToString() << "\n";
      ++mismatches;
      continue;
    }
    if (out != nullptr) {
      out->Set(q.Key(), ref.match_count);
    }
    const uint64_t* want = stored != nullptr ? stored->Find(q.Key()) : nullptr;
    const bool ok = stored == nullptr || (want != nullptr && *want == ref.match_count);
    std::cout << std::left << std::setw(16) << q.Key() << " ref "
              << ref.match_count << (ok ? "" : "  MISMATCH with stored")
              << std::endl;
    mismatches += ok ? 0 : 1;
  }
  return mismatches;
}

/// Recomputes the stored counts, then shows the gate rejecting a wrong
/// expected count and a failed run.
int SelfTest(const ExpectedCounts& stored) {
  int failures = RecountAll(&stored, nullptr);
  if (stored.all().size() != AllQueries().size()) {
    std::cout << "stored counts cover " << stored.all().size()
              << " queries, the workloads run " << AllQueries().size() << "\n";
    ++failures;
  }
  const QuerySpec probe{tdfs::DatasetId::kDblp, 1};
  const tdfs::Graph graph = tdfs::LoadDataset(probe.dataset);
  const tdfs::QueryGraph query = tdfs::Pattern(probe.pattern);
  const uint64_t* want = stored.Find(probe.Key());
  const tdfs::RunResult run = tdfs::RunMatching(graph, query, BenchConfig());
  std::string why;
  const bool accepts_right = want != nullptr && CheckCount(run, *want, &why);
  const bool rejects_wrong =
      want != nullptr && !CheckCount(run, *want + 1, &why);
  tdfs::EngineConfig aborted = BenchConfig();
  aborted.max_run_ms = 1e-6;
  const tdfs::RunResult cut = tdfs::RunMatching(graph, query, aborted);
  const bool rejects_failed = want != nullptr && !CheckCount(cut, *want, &why);
  std::cout << "gate accepts the stored count:        "
            << (accepts_right ? "yes" : "NO") << "\n"
            << "gate rejects a wrong expected count:   "
            << (rejects_wrong ? "yes" : "NO") << "\n"
            << "gate rejects a deadline-aborted run:   "
            << (rejects_failed ? "yes" : "NO") << "\n";
  failures += accepts_right && rejects_wrong && rejects_failed ? 0 : 1;
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << std::endl;
  return failures == 0 ? 0 : 1;
}

int RunWorkload(const Args& args, const ExpectedCounts& expected) {
  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace == 1;
  options.expected = &expected;
  options.spans_path = args.spans;

  std::cout << "# perfbench workload=" << args.workload
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << args.trace << "\n"
            << "# host nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << CpuModel() << "\" build=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER << "\" commit="
            << args.commit << " warps=" << BenchConfig().num_warps
            << std::endl;

  RunReport report;
  if (args.workload == "cold_short") {
    report = RunDirectWorkload(options, ColdShortQueries());
  } else if (args.workload == "heavy_dfs") {
    report = RunDirectWorkload(options, HeavyDfsQueries());
  } else if (args.workload == "service_mixed") {
    report = RunServiceWorkload(options);
  } else {
    Usage("unknown workload " + args.workload);
  }
  if (report.attempted == 0) {
    for (const std::string& e : report.errors) {
      std::cerr << "error: " << e << "\n";
    }
    std::cerr << "perfbench_driver: no operation ran\n";
    return 1;
  }

  // Report exactly the metric set of this mode, in BENCHMARK.json order;
  // per-layer metrics a workload does not exercise read 0.
  const std::span<const MetricDef> defs =
      options.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
  if (options.trace) {
    report.Add("ops.failed_frac", "frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted));
  }
  std::map<std::string, Metric> by_name;
  for (const Metric& m : report.metrics) {
    const bool defined = std::any_of(defs.begin(), defs.end(),
        [&m](const MetricDef& d) { return m.name == d.name; });
    if (!defined) {
      std::cerr << "internal error: undefined metric " << m.name << "\n";
      return 1;
    }
    by_name[m.name] = m;
  }
  std::vector<Metric> out;
  for (const MetricDef& def : defs) {
    const auto it = by_name.find(def.name);
    if (it == by_name.end() && !options.trace) {
      std::cerr << "internal error: " << def.name << " not measured\n";
      return 1;
    }
    if (it != by_name.end() && it->second.unit != def.unit) {
      std::cerr << "internal error: " << def.name << " reported in "
                << it->second.unit << ", defined in " << def.unit << "\n";
      return 1;
    }
    out.push_back({def.name, def.unit,
                   it == by_name.end() ? 0.0 : it->second.value});
  }

  std::cout << "# attempted=" << report.attempted
            << " failed=" << report.failed
            << " correct=" << (report.correct ? "true" : "false") << "\n";
  for (const std::string& e : report.errors) {
    std::cout << "# error: " << e << "\n";
  }
  for (const Metric& m : out) {
    std::cout << std::left << std::setw(32) << m.name << " "
              << std::setw(14) << Number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << out[i].name
              << "\": {\"value\": " << Number(out[i].value)
              << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (!args.write_expected.empty()) {
    ExpectedCounts counts;
    const int failures = RecountAll(nullptr, &counts);
    if (failures != 0 || !counts.Write(args.write_expected)) {
      std::cerr << "perfbench_driver: could not write expected counts\n";
      return 1;
    }
    return 0;
  }
  ExpectedCounts expected;
  std::string error;
  if (args.expected.empty() || !expected.Load(args.expected, &error)) {
    Usage(args.expected.empty() ? "--expected is required" : error);
  }
  if (args.self_test) {
    return SelfTest(expected);
  }
  if (args.workload.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    Usage("--workload, --seconds > 0 and --trace 0|1 are required");
  }
  return RunWorkload(args, expected);
}
