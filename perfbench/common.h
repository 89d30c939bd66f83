// Shared pieces of the wall-clock benchmark driver: run options, the
// correctness gate, order statistics, the metric set a run reports, and the
// in-memory span log of a traced run.
//
// The driver links the tdfs libraries and calls only their public entry
// points; every timing here is taken by the driver around those calls.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/result.h"
#include "graph/datasets.h"
#include "util/prng.h"

namespace perfbench {

/// Set-up is repeated this many times per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// One (dataset, pattern) query of a workload.
struct QuerySpec {
  tdfs::DatasetId dataset;
  int pattern;

  /// "youtube/P8": the key of the expected-count file.
  std::string Key() const;
};

/// RefEngine-derived match counts keyed by QuerySpec::Key(), stored with
/// the benchmark (expected_counts.txt: one "key count" pair per line).
class ExpectedCounts {
 public:
  /// Reads `path`; false (with a message in *error) when the file is
  /// missing or malformed.
  bool Load(const std::string& path, std::string* error);
  bool Write(const std::string& path) const;

  /// Stored count for `key`, or nullptr when the file has none.
  const uint64_t* Find(const std::string& key) const;
  void Set(const std::string& key, uint64_t count) { counts_[key] = count; }
  const std::map<std::string, uint64_t>& all() const { return counts_; }

 private:
  std::map<std::string, uint64_t> counts_;
};

/// The correctness gate applied to every operation: a non-OK status or a
/// count other than `expected` fails it. On failure *why says which.
bool CheckCount(const tdfs::RunResult& result, uint64_t expected,
                std::string* why);

/// Engine configuration of every workload: TdfsConfig() defaults with one
/// warp per host core (what `tdfs match --warps <nproc>` runs).
tdfs::EngineConfig BenchConfig();

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  const ExpectedCounts* expected = nullptr;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// One reported metric, named as in BENCHMARK.json.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Outcome of one workload run: the operation tally, correctness, and the
/// metrics of the run's mode (end-to-end untraced, per-layer traced).
struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;  // first few failure descriptions
  std::vector<Metric> metrics;

  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// Marks the run incorrect and keeps the first few reasons.
  void Fail(const std::string& why);
  /// Counts one operation, failing the run when `ok` is false.
  void Tally(bool ok, const std::string& why);
};

/// What one finished engine run reports, kept per traced operation.
struct EngineSample {
  double kernel_ms = 0.0;  // RunResult::match_ms (wall, single device)
  double simulated_gpu_ms = 0.0;
  tdfs::RunCounters counters;

  static EngineSample From(const tdfs::RunResult& result);
};

/// Adds the engine-side per-layer metrics (core.*, queue.*, mem.* counters)
/// over `samples`: per-operation means, and work rates as ratios of sums.
void AddEngineMetrics(const std::vector<EngineSample>& samples,
                      int num_warps, RunReport* report);

/// A traced run fails when the mean sum of a traced operation's child
/// spans differs from the mean untraced operation time by more than this
/// share (the query_ms_p50 bound in BENCHMARK.json).
inline constexpr double kSpanSumBound = 0.25;

/// Reports trace.span_sum_err_frac and applies kSpanSumBound.
void CheckSpanSum(double traced_children_ms, double untraced_ms,
                  RunReport* report);

/// One graph's index build times (median of kSetupReps builds each), for
/// the graph-layer metrics of a traced run.
struct IndexBuildMs {
  double label_index = 0.0;
  double hub_bitmap = 0.0;
};
IndexBuildMs TimeIndexBuilds(const tdfs::Graph& graph,
                             const tdfs::EngineConfig& config);

// ---- order statistics ----
double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

/// Milliseconds between two tdfs::Timer::Now() stamps.
inline double Ms(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Deterministic Fisher-Yates shuffle (std::shuffle's draw sequence is
/// library-defined; this one is fixed by the seed alone).
template <typename T>
void Shuffle(std::vector<T>* v, tdfs::Xoshiro256ss* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// In-memory span log of a traced run. A span covers one driver call into
/// a layer; spans of one request share `request`, and `parent` names the
/// enclosing span (0 for a request's root). Thread-safe.
class SpanLog {
 public:
  /// Records a finished span and returns its id (never 0).
  uint64_t Record(std::string_view name, uint64_t parent, uint64_t request,
                  int64_t start_ns, int64_t end_ns);
  /// Fresh request id.
  uint64_t NewRequest();
  /// Writes one JSON object per span; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_request_ = 1;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
