// Sorted-set intersection kernels.
//
// Candidate computation in subgraph matching (Eq. (1) of the paper) is a
// chain of intersections of sorted adjacency lists. On the GPU the threads
// of a warp intersect A ∩ B by probing each element of A against B with
// binary search ("warp-style"); on skewed size ratios galloping search is
// preferable, and for similar sizes a linear merge wins. All kernels
// optionally meter their work (element comparisons) so the virtual-GPU
// substrate can account deterministic costs.
//
// The merge and gallop kernels come in scalar and SIMD (SSE4.2 / AVX2)
// flavours, selected once at startup from CPUID (see DetectedSimdLevel).
// Work metering is backend-invariant: every backend charges the number of
// element comparisons the *scalar* kernel would have performed (computed in
// closed form, see MergeStepsWork / GallopProbeWork), never SIMD lanes, so
// work_units, max_warp_work_units and the simulated-GPU time metric stay
// comparable across backends and with committed BENCH_*.json history.

#ifndef TDFS_UTIL_INTERSECT_H_
#define TDFS_UTIL_INTERSECT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace tdfs {

/// Vertex identifier. Negative values are reserved for sentinels
/// (kEmptySlot, kNoThirdVertex in the task queue).
using VertexId = int32_t;

using VertexSpan = std::span<const VertexId>;

struct TimeAttributionSink;  // util/time_attr.h

/// Accumulates abstract work units (element comparisons / probes). Used by
/// the virtual clock for deterministic timeout tests and by benches for
/// machine-independent cost reporting.
///
/// When wall-time attribution is on (tracing enabled), the owning warp
/// points `attr` at its per-warp sink and keeps `attr_cell` set to the
/// plan cell being extended; intersection dispatch then charges sampled
/// kernel time to (cell, arm). Both fields are ignored by Add, so work
/// accounting stays backend- and tracing-invariant.
struct WorkCounter {
  uint64_t units = 0;
  TimeAttributionSink* attr = nullptr;
  int32_t attr_cell = -1;
  void Add(uint64_t n) { units += n; }
};

/// Returns true iff `v` occurs in sorted `hay`. Adds O(log |hay|) work.
bool SortedContains(VertexSpan hay, VertexId v, WorkCounter* work = nullptr);

/// Lower bound index of `v` in sorted `hay` starting from `from`.
size_t GallopLowerBound(VertexSpan hay, size_t from, VertexId v,
                        WorkCounter* work = nullptr);

/// Linear merge intersection. Appends A ∩ B to `out`.
void IntersectMerge(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                    WorkCounter* work = nullptr);

/// Binary-search intersection: probes each element of the smaller input
/// against the larger, mirroring the warp-per-intersection GPU kernel.
/// Appends A ∩ B to `out`.
void IntersectBinary(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                     WorkCounter* work = nullptr);

/// Galloping intersection for heavily skewed inputs. Appends A ∩ B to `out`.
void IntersectGallop(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                     WorkCounter* work = nullptr);

/// Size ratio beyond which the auto kernels switch from linear merge to
/// galloping search; 32x mirrors the warp-width heuristic commonly used by
/// GPU matching kernels.
inline constexpr size_t kGallopSizeRatio = 32;

/// The kernel selection shared by IntersectAuto and IntersectCount: true
/// when inputs of these sizes (small <= large) should use the galloping
/// kernel. Exposed so tests can pin the boundary both callers share.
inline bool UseGallopKernel(size_t small_size, size_t large_size) {
  return small_size > 0 && large_size / small_size >= kGallopSizeRatio;
}

/// Chooses a kernel from the size ratio (UseGallopKernel): merge for
/// comparable sizes, galloping when one side is much smaller. Appends
/// A ∩ B to `out`.
void IntersectAuto(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                   WorkCounter* work = nullptr);

/// Counts |A ∩ B| without materializing the result.
size_t IntersectCount(VertexSpan a, VertexSpan b,
                      WorkCounter* work = nullptr);

/// Appends (A \ B) to `out` — the independent set-difference pass that the
/// paper identifies as STMatch's costly way of removing already-matched
/// vertices. Kept as a library primitive so the STMatch baseline can
/// reproduce that behaviour.
void DifferenceMerge(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                     WorkCounter* work = nullptr);

// ---------------------------------------------------------------------------
// Backend-invariant work models.
//
// The SIMD and bitmap backends do not follow the scalar pointer trajectory,
// so they cannot count comparisons incrementally. These closed forms
// reproduce the scalar charges exactly; the differential tests in
// tests/intersect_backend_test.cc pin formula == incremental count.
// ---------------------------------------------------------------------------

/// Work cost of one binary search over n elements: 1 + floor(log2 n) probes
/// (1 for n <= 1), i.e. the bit width of n (of 1 when n is 0). The charge
/// used by SortedContains and by the binary refinement inside
/// GallopLowerBound.
inline uint64_t BinarySearchLogCost(size_t n) {
  return static_cast<uint64_t>(std::bit_width(n | 1));
}

/// Exact number of loop steps the scalar MergeVisit(a, b) executes when the
/// intersection has `matches` elements. Both inputs must be strictly
/// ascending. Computed from the terminal merge positions in O(log) time.
uint64_t MergeStepsWork(VertexSpan a, VertexSpan b, size_t matches);

/// Exact charge of GallopLowerBound(hay, from, v) given only the result
/// index `r` (the returned lower bound) and n = |hay| — no element accesses.
/// Valid because within the exponential probe loop hay[hi] < v iff hi < r,
/// which makes the loop's trip count a bit width (closed form, O(1)).
uint64_t GallopProbeWork(size_t from, size_t r, size_t n);

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch.
// ---------------------------------------------------------------------------

/// Instruction-set tier of an intersection kernel table. Ordered: a level
/// implies every lower one.
enum class SimdLevel : int {
  kScalar = 0,
  kSse = 1,   // SSE4.2 shuffle-network merge, 4-wide probes
  kAvx2 = 2,  // AVX2 shuffle-network merge, 8-wide probes
};

const char* SimdLevelName(SimdLevel level);

/// Highest level this process may use: CPUID capped by the TDFS_SIMD
/// environment variable ("off"/"scalar", "sse", "avx2"/"auto"; the cap can
/// only lower the detected level, never raise it — so forcing "avx2" on an
/// SSE-only machine still yields kSse). Resolved once, on first call.
SimdLevel DetectedSimdLevel();

/// One backend's kernel set. `merge`/`merge_count` take (a, b) as given;
/// `gallop`/`gallop_count` require |small| <= |large| (callers pre-swap).
/// All meter scalar-equivalent work.
struct IntersectKernels {
  SimdLevel level;
  void (*merge)(VertexSpan a, VertexSpan b, std::vector<VertexId>* out,
                WorkCounter* work);
  size_t (*merge_count)(VertexSpan a, VertexSpan b, WorkCounter* work);
  void (*gallop)(VertexSpan small, VertexSpan large,
                 std::vector<VertexId>* out, WorkCounter* work);
  size_t (*gallop_count)(VertexSpan small, VertexSpan large,
                         WorkCounter* work);
};

/// Kernel table for `level`, clamped to DetectedSimdLevel(). The scalar
/// table is always available.
const IntersectKernels& KernelsForLevel(SimdLevel level);

/// The table used by the free IntersectMerge/Gallop/Auto/Count functions:
/// KernelsForLevel(DetectedSimdLevel()).
const IntersectKernels& ProcessKernels();

// ---------------------------------------------------------------------------
// Engine-facing backend selection knob (EngineConfig::intersect).
// ---------------------------------------------------------------------------

/// Intersection backend policy for a matching run.
enum class IntersectMode : int {
  kAuto = 0,       // best detected SIMD kernels + hub bitmap index
  kScalar = 1,     // scalar kernels only, no bitmaps (reference behaviour)
  kSimd = 2,       // best detected SIMD kernels, bitmaps disabled
  kBitmapOff = 3,  // alias of kSimd kept for CLI/scripts readability
};

const char* IntersectModeName(IntersectMode mode);

/// Parses "auto" / "scalar" / "simd" / "bitmap-off". Returns false on
/// unknown names, leaving *mode untouched.
bool ParseIntersectMode(std::string_view name, IntersectMode* mode);

/// True when runs under `mode` build and consult the hub bitmap index.
inline bool UsesHubBitmaps(IntersectMode mode) {
  return mode == IntersectMode::kAuto;
}

/// Kernel table a run under `mode` should bind.
inline const IntersectKernels& KernelsForMode(IntersectMode mode) {
  return mode == IntersectMode::kScalar ? KernelsForLevel(SimdLevel::kScalar)
                                        : ProcessKernels();
}

}  // namespace tdfs

#endif  // TDFS_UTIL_INTERSECT_H_
