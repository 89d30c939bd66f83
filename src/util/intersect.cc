#include "util/intersect.h"

#include <algorithm>
#include <cstdlib>

#include "util/intersect_simd.h"

namespace tdfs {

namespace {

// Work cost of one binary search over n elements.
uint64_t LogCost(size_t n) { return BinarySearchLogCost(n); }

// Shared galloping traversal: calls on_match(v) for each v in A ∩ B.
// Requires |a| <= |b|. The early break when the gallop runs off the end of
// `b` skips the tail of `a` entirely — no later element can match.
template <typename OnMatch>
void GallopVisit(VertexSpan a, VertexSpan b, WorkCounter* work,
                 OnMatch&& on_match) {
  size_t pos = 0;
  for (VertexId v : a) {
    pos = GallopLowerBound(b, pos, v, work);
    if (pos == b.size()) {
      break;
    }
    if (b[pos] == v) {
      on_match(v);
      ++pos;
    }
  }
}

// Shared linear-merge traversal: calls on_match(v) for each v in A ∩ B.
template <typename OnMatch>
void MergeVisit(VertexSpan a, VertexSpan b, WorkCounter* work,
                OnMatch&& on_match) {
  size_t i = 0;
  size_t j = 0;
  uint64_t steps = 0;
  while (i < a.size() && j < b.size()) {
    ++steps;
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      on_match(a[i]);
      ++i;
      ++j;
    }
  }
  if (work != nullptr) {
    work->Add(steps);
  }
}

void ScalarMergeInto(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                     WorkCounter* work) {
  MergeVisit(a, b, work, [out](VertexId v) { out->push_back(v); });
}

size_t ScalarMergeCount(VertexSpan a, VertexSpan b, WorkCounter* work) {
  size_t count = 0;
  MergeVisit(a, b, work, [&count](VertexId) { ++count; });
  return count;
}

void ScalarGallopInto(VertexSpan small, VertexSpan large,
                      std::vector<VertexId>* out, WorkCounter* work) {
  GallopVisit(small, large, work, [out](VertexId v) { out->push_back(v); });
}

size_t ScalarGallopCount(VertexSpan small, VertexSpan large,
                         WorkCounter* work) {
  size_t count = 0;
  GallopVisit(small, large, work, [&count](VertexId) { ++count; });
  return count;
}

constexpr IntersectKernels kScalarKernels = {
    SimdLevel::kScalar, &ScalarMergeInto, &ScalarMergeCount,
    &ScalarGallopInto, &ScalarGallopCount};

// TDFS_SIMD caps (never raises) the CPUID-detected level so fallback paths
// are testable on any machine: "off"/"scalar" force scalar, "sse" caps at
// SSE4.2, anything else ("avx2", "auto", unset) leaves detection alone.
SimdLevel EnvSimdCap() {
  const char* env = std::getenv("TDFS_SIMD");
  if (env == nullptr) {
    return SimdLevel::kAvx2;
  }
  const std::string_view spec(env);
  if (spec == "off" || spec == "scalar" || spec == "0") {
    return SimdLevel::kScalar;
  }
  if (spec == "sse") {
    return SimdLevel::kSse;
  }
  return SimdLevel::kAvx2;
}

SimdLevel DetectSimdLevelOnce() {
  SimdLevel hw = SimdLevel::kScalar;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    hw = SimdLevel::kAvx2;
  } else if (__builtin_cpu_supports("sse4.2")) {
    hw = SimdLevel::kSse;
  }
#endif
  const SimdLevel cap = EnvSimdCap();
  return static_cast<int>(cap) < static_cast<int>(hw) ? cap : hw;
}

}  // namespace

bool SortedContains(VertexSpan hay, VertexId v, WorkCounter* work) {
  if (work != nullptr) {
    work->Add(LogCost(hay.size()));
  }
  return std::binary_search(hay.begin(), hay.end(), v);
}

size_t GallopLowerBound(VertexSpan hay, size_t from, VertexId v,
                        WorkCounter* work) {
  size_t n = hay.size();
  if (from >= n || hay[from] >= v) {
    if (work != nullptr) {
      work->Add(1);
    }
    return from;
  }
  // Exponential probe.
  size_t step = 1;
  size_t lo = from;
  size_t hi = from + step;
  uint64_t probes = 1;
  while (hi < n && hay[hi] < v) {
    lo = hi;
    step <<= 1;
    hi = from + step;
    ++probes;
  }
  hi = std::min(hi, n);
  // Binary search in (lo, hi].
  size_t result = std::lower_bound(hay.begin() + lo + 1, hay.begin() + hi, v) -
                  hay.begin();
  if (work != nullptr) {
    work->Add(probes + LogCost(hi - lo));
  }
  return result;
}

uint64_t MergeStepsWork(VertexSpan a, VertexSpan b, size_t matches) {
  // MergeVisit runs one step per iteration and each iteration advances i,
  // j, or (on a match) both, so steps = i_final + j_final - matches. The
  // terminal positions only depend on which input exhausts first: the
  // other side stops right after the last element <= the exhausted side's
  // back (i.e. at upper_bound of it).
  if (a.empty() || b.empty()) {
    return 0;
  }
  size_t i_final;
  size_t j_final;
  if (a.back() == b.back()) {
    i_final = a.size();
    j_final = b.size();
  } else if (a.back() < b.back()) {
    i_final = a.size();
    j_final = std::upper_bound(b.begin(), b.end(), a.back()) - b.begin();
  } else {
    j_final = b.size();
    i_final = std::upper_bound(a.begin(), a.end(), b.back()) - a.begin();
  }
  return static_cast<uint64_t>(i_final) + static_cast<uint64_t>(j_final) -
         static_cast<uint64_t>(matches);
}

uint64_t GallopProbeWork(size_t from, size_t r, size_t n) {
  // GallopLowerBound's early branch (from >= n, or hay[from] >= v which is
  // exactly r == from) charges a single probe.
  if (from >= n || r == from) {
    return 1;
  }
  // Otherwise the exponential probe doubles `step` from 1 while
  // hay[from + step] < v, i.e. while from + step < min(n, r): it runs once
  // per power of two <= d = min(n, r) - from - 1, which is bit_width(d)
  // times. The binary refinement then covers (lo, hi] between the last two
  // probes, hi clamped to n.
  const size_t d = std::min(n, r) - from - 1;
  const int p = std::bit_width(d);
  const size_t lo = p == 0 ? from : from + (size_t{1} << (p - 1));
  const size_t hi = std::min(from + (size_t{1} << p), n);
  return 1 + static_cast<uint64_t>(p) + LogCost(hi - lo);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse:
      return "sse";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = DetectSimdLevelOnce();
  return level;
}

const IntersectKernels& KernelsForLevel(SimdLevel level) {
  const SimdLevel detected = DetectedSimdLevel();
  if (static_cast<int>(level) > static_cast<int>(detected)) {
    level = detected;
  }
  if (level == SimdLevel::kAvx2) {
    const IntersectKernels* avx2 = Avx2IntersectKernels();
    if (avx2 != nullptr) {
      return *avx2;
    }
    level = SimdLevel::kSse;
  }
  if (level == SimdLevel::kSse) {
    const IntersectKernels* sse = SseIntersectKernels();
    if (sse != nullptr) {
      return *sse;
    }
  }
  return kScalarKernels;
}

const IntersectKernels& ProcessKernels() {
  static const IntersectKernels& kernels = KernelsForLevel(DetectedSimdLevel());
  return kernels;
}

const char* IntersectModeName(IntersectMode mode) {
  switch (mode) {
    case IntersectMode::kAuto:
      return "auto";
    case IntersectMode::kScalar:
      return "scalar";
    case IntersectMode::kSimd:
      return "simd";
    case IntersectMode::kBitmapOff:
      return "bitmap-off";
  }
  return "unknown";
}

bool ParseIntersectMode(std::string_view name, IntersectMode* mode) {
  if (name == "auto") {
    *mode = IntersectMode::kAuto;
  } else if (name == "scalar") {
    *mode = IntersectMode::kScalar;
  } else if (name == "simd") {
    *mode = IntersectMode::kSimd;
  } else if (name == "bitmap-off") {
    *mode = IntersectMode::kBitmapOff;
  } else {
    return false;
  }
  return true;
}

void IntersectMerge(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                    WorkCounter* work) {
  ProcessKernels().merge(a, b, out, work);
}

void IntersectBinary(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                     WorkCounter* work) {
  // Probe each element of the smaller list against the larger one, the way
  // the 32 lanes of a warp would.
  if (a.size() > b.size()) {
    std::swap(a, b);
  }
  for (VertexId v : a) {
    if (SortedContains(b, v, work)) {
      out->push_back(v);
    }
  }
}

void IntersectGallop(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                     WorkCounter* work) {
  if (a.size() > b.size()) {
    std::swap(a, b);
  }
  ProcessKernels().gallop(a, b, out, work);
}

void IntersectAuto(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                   WorkCounter* work) {
  if (a.size() > b.size()) {
    std::swap(a, b);
  }
  const IntersectKernels& kernels = ProcessKernels();
  if (UseGallopKernel(a.size(), b.size())) {
    kernels.gallop(a, b, out, work);
  } else {
    kernels.merge(a, b, out, work);
  }
}

size_t IntersectCount(VertexSpan a, VertexSpan b, WorkCounter* work) {
  if (a.size() > b.size()) {
    std::swap(a, b);
  }
  const IntersectKernels& kernels = ProcessKernels();
  if (UseGallopKernel(a.size(), b.size())) {
    return kernels.gallop_count(a, b, work);
  }
  return kernels.merge_count(a, b, work);
}

void DifferenceMerge(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                     WorkCounter* work) {
  size_t i = 0;
  size_t j = 0;
  uint64_t steps = 0;
  while (i < a.size()) {
    ++steps;
    if (j == b.size() || a[i] < b[j]) {
      out->push_back(a[i]);
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  if (work != nullptr) {
    work->Add(steps);
  }
}

}  // namespace tdfs
