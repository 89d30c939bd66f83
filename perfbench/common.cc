#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "graph/hub_bitmap.h"
#include "graph/label_index.h"
#include "query/patterns.h"
#include "util/timer.h"

namespace perfbench {

std::string QuerySpec::Key() const {
  return tdfs::DatasetName(dataset) + "/" + tdfs::PatternName(pattern);
}

bool ExpectedCounts::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read expected counts from " + path;
    return false;
  }
  counts_.clear();
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    uint64_t count = 0;
    if (!(fields >> key >> count)) {
      *error = path + ":" + std::to_string(line_no) + ": expected 'key count'";
      return false;
    }
    counts_[key] = count;
  }
  return true;
}

bool ExpectedCounts::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "# Symmetry-broken match counts from RunMatchingRef (the serial\n"
         "# oracle) with the benchmark's engine config. Regenerate with\n"
         "#   python3 perfbench/run.py --write-expected\n";
  for (const auto& [key, count] : counts_) {
    out << key << " " << count << "\n";
  }
  return static_cast<bool>(out);
}

const uint64_t* ExpectedCounts::Find(const std::string& key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? nullptr : &it->second;
}

bool CheckCount(const tdfs::RunResult& result, uint64_t expected,
                std::string* why) {
  if (!result.status.ok()) {
    *why = "status " + result.status.ToString();
    return false;
  }
  if (result.match_count != expected) {
    *why = "count " + std::to_string(result.match_count) + " != expected " +
           std::to_string(expected);
    return false;
  }
  return true;
}

tdfs::EngineConfig BenchConfig() {
  tdfs::EngineConfig config = tdfs::TdfsConfig();
  config.num_warps =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return config;
}

void RunReport::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(why);
  }
}

void RunReport::Tally(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) {
    ++failed;
    Fail(why);
  }
}

EngineSample EngineSample::From(const tdfs::RunResult& result) {
  return EngineSample{result.match_ms, result.SimulatedGpuMs(),
                      result.counters};
}

void AddEngineMetrics(const std::vector<EngineSample>& samples,
                      int num_warps, RunReport* report) {
  const double n = samples.empty() ? 1.0 : static_cast<double>(samples.size());
  double preprocess_ms = 0.0;
  double kernel_ms = 0.0;
  double simulated_ms = 0.0;
  double work = 0.0;
  double max_warp_work = 0.0;
  tdfs::RunCounters sum;
  for (const EngineSample& s : samples) {
    preprocess_ms += s.counters.preprocess_ms;
    kernel_ms += s.kernel_ms;
    simulated_ms += s.simulated_gpu_ms;
    work += static_cast<double>(s.counters.work_units);
    max_warp_work += static_cast<double>(s.counters.max_warp_work_units);
    sum.timeout_splits += s.counters.timeout_splits;
    sum.tasks_enqueued += s.counters.tasks_enqueued;
    sum.queue_full_failures += s.counters.queue_full_failures;
    sum.queue_peak_tasks += s.counters.queue_peak_tasks;
    sum.pages_peak += s.counters.pages_peak;
    sum.alloc_misses += s.counters.alloc_misses;
    sum.spill_allocs += s.counters.spill_allocs;
  }
  const auto mean = [n](auto total) { return static_cast<double>(total) / n; };
  report->Add("core.preprocess_ms", "ms", preprocess_ms / n);
  report->Add("core.kernel_ms", "ms", kernel_ms / n);
  report->Add("core.work_units", "count", work / n);
  report->Add("core.work_units_per_ms", "count/ms",
              kernel_ms > 0 ? work / kernel_ms : 0.0);
  // Busiest warp's work times the warp count over the total: 1 = balanced.
  report->Add("core.warp_imbalance", "ratio",
              work > 0 ? max_warp_work * num_warps / work : 0.0);
  report->Add("core.timeout_splits", "count", mean(sum.timeout_splits));
  report->Add("core.simulated_gpu_ms", "ms", simulated_ms / n);
  report->Add("queue.tasks_enqueued", "count", mean(sum.tasks_enqueued));
  report->Add("queue.full_failures", "count", mean(sum.queue_full_failures));
  report->Add("queue.peak_tasks", "count", mean(sum.queue_peak_tasks));
  report->Add("mem.pages_peak", "count", mean(sum.pages_peak));
  report->Add("mem.alloc_misses", "count", mean(sum.alloc_misses));
  report->Add("mem.spill_allocs", "count", mean(sum.spill_allocs));
}

void CheckSpanSum(double traced_children_ms, double untraced_ms,
                  RunReport* report) {
  const double err = std::abs(traced_children_ms - untraced_ms) / untraced_ms;
  if (!(err <= kSpanSumBound)) {
    report->Fail("trace: mean child-span sum " +
                 std::to_string(traced_children_ms) +
                 " ms vs untraced mean " + std::to_string(untraced_ms) +
                 " ms");
  }
  report->Add("trace.span_sum_err_frac", "frac", err);
}

IndexBuildMs TimeIndexBuilds(const tdfs::Graph& graph,
                             const tdfs::EngineConfig& config) {
  std::vector<double> label_ms;
  std::vector<double> bitmap_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tdfs::Timer label_timer;
    const tdfs::LabelIndex index(graph);
    label_ms.push_back(label_timer.ElapsedMillis());
    // The engine builds the bitmaps over the plain CSR unless the config
    // routes neighbor access through the label index.
    tdfs::Timer bitmap_timer;
    const tdfs::HubBitmapIndex bitmaps = tdfs::HubBitmapIndex::Build(
        graph, config.use_label_index ? &index : nullptr,
        config.bitmap_min_degree);
    bitmap_ms.push_back(bitmap_timer.ElapsedMillis());
  }
  return {Median(label_ms), Median(bitmap_ms)};
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) {
    return v[mid];
  }
  const double upper = v[mid];
  return (upper + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t SpanLog::Record(std::string_view name, uint64_t parent,
                         uint64_t request, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(
      Span{id, parent, request, std::string(name), start_ns, end_ns});
  return id;
}

uint64_t SpanLog::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
