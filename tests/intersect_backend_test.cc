// Differential tests for the pluggable intersection backends: every SIMD
// level and the bitmap arms must produce byte-identical outputs AND
// byte-identical WorkCounter charges versus the scalar reference kernels —
// the property that keeps work_units/simulated-GPU time comparable across
// machines with different vector units.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/matcher.h"
#include "graph/generators.h"
#include "graph/hub_bitmap.h"
#include "query/patterns.h"
#include "util/intersect.h"
#include "util/prng.h"

namespace tdfs {
namespace {

using Vec = std::vector<VertexId>;

Vec SortedSet(Xoshiro256ss& rng, size_t n, VertexId universe) {
  Vec v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<VertexId>(rng.Below(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

Vec Reference(const Vec& a, const Vec& b) {
  Vec out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// The category pairs ISSUE calls out: empty, disjoint, subset, hub-sized,
// and sizes straddling the 32x gallop-selection threshold.
std::vector<std::pair<Vec, Vec>> CategoryPairs() {
  Xoshiro256ss rng(20260807);
  std::vector<std::pair<Vec, Vec>> pairs;
  pairs.push_back({{}, {}});
  pairs.push_back({{}, SortedSet(rng, 64, 1000)});
  pairs.push_back({SortedSet(rng, 64, 1000), {}});
  {
    Vec lo, hi;  // fully disjoint ranges
    for (VertexId v = 0; v < 50; ++v) lo.push_back(v);
    for (VertexId v = 1000; v < 1100; ++v) hi.push_back(v);
    pairs.push_back({lo, hi});
  }
  {
    Vec big = SortedSet(rng, 300, 4000);  // strict subset
    Vec sub;
    for (size_t i = 0; i < big.size(); i += 3) sub.push_back(big[i]);
    pairs.push_back({sub, big});
  }
  // Hub-sized: small probe against a large dense list.
  pairs.push_back({SortedSet(rng, 40, 50'000), SortedSet(rng, 8000, 50'000)});
  pairs.push_back(
      {SortedSet(rng, 3000, 50'000), SortedSet(rng, 9000, 50'000)});
  // Threshold boundary: |b| around 32 * |a| flips UseGallopKernel.
  for (size_t nb : {32 * 8 - 1, 32 * 8, 32 * 8 + 1}) {
    pairs.push_back({SortedSet(rng, 8, 2000), SortedSet(rng, nb, 2000)});
  }
  // SIMD-width tails: sizes around multiples of the 4/8-lane blocks.
  for (size_t na : {1, 7, 8, 9, 15, 16, 17, 31}) {
    pairs.push_back({SortedSet(rng, na, 300), SortedSet(rng, na + 5, 300)});
  }
  // Random mixed sizes.
  for (int i = 0; i < 30; ++i) {
    const size_t na = 1 + rng.Below(500);
    const size_t nb = 1 + rng.Below(500);
    pairs.push_back({SortedSet(rng, na, 600), SortedSet(rng, nb, 600)});
  }
  return pairs;
}

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kSse) {
    levels.push_back(SimdLevel::kSse);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

TEST(SimdDispatchTest, DetectionAndClamping) {
  // KernelsForLevel never hands out kernels above the detected level.
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kSse, SimdLevel::kAvx2}) {
    EXPECT_LE(static_cast<int>(KernelsForLevel(l).level),
              static_cast<int>(DetectedSimdLevel()));
  }
  EXPECT_EQ(KernelsForLevel(SimdLevel::kScalar).level, SimdLevel::kScalar);
  EXPECT_EQ(ProcessKernels().level, DetectedSimdLevel());
}

TEST(SimdDispatchTest, ParseIntersectMode) {
  IntersectMode m = IntersectMode::kAuto;
  EXPECT_TRUE(ParseIntersectMode("scalar", &m));
  EXPECT_EQ(m, IntersectMode::kScalar);
  EXPECT_TRUE(ParseIntersectMode("simd", &m));
  EXPECT_EQ(m, IntersectMode::kSimd);
  EXPECT_TRUE(ParseIntersectMode("bitmap-off", &m));
  EXPECT_EQ(m, IntersectMode::kBitmapOff);
  EXPECT_TRUE(ParseIntersectMode("auto", &m));
  EXPECT_EQ(m, IntersectMode::kAuto);
  EXPECT_FALSE(ParseIntersectMode("vectorish", &m));
  EXPECT_EQ(m, IntersectMode::kAuto);  // untouched on failure
  EXPECT_STREQ(IntersectModeName(IntersectMode::kAuto), "auto");
  EXPECT_TRUE(UsesHubBitmaps(IntersectMode::kAuto));
  EXPECT_FALSE(UsesHubBitmaps(IntersectMode::kSimd));
  EXPECT_FALSE(UsesHubBitmaps(IntersectMode::kScalar));
  EXPECT_FALSE(UsesHubBitmaps(IntersectMode::kBitmapOff));
}

TEST(BackendDifferentialTest, MergeKernelsMatchScalarOutputAndWork) {
  const IntersectKernels& scalar = KernelsForLevel(SimdLevel::kScalar);
  for (const auto& [a, b] : CategoryPairs()) {
    Vec want;
    WorkCounter want_work;
    scalar.merge(VertexSpan(a), VertexSpan(b), &want, &want_work);
    EXPECT_EQ(want, Reference(a, b));
    for (SimdLevel level : AvailableLevels()) {
      const IntersectKernels& k = KernelsForLevel(level);
      Vec got = {12345};  // pre-seeded: kernels must append, not clear
      WorkCounter got_work;
      k.merge(VertexSpan(a), VertexSpan(b), &got, &got_work);
      ASSERT_EQ(got.size(), want.size() + 1)
          << "level=" << SimdLevelName(level) << " |a|=" << a.size()
          << " |b|=" << b.size();
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin() + 1));
      EXPECT_EQ(got_work.units, want_work.units)
          << "merge work diverged at level " << SimdLevelName(level)
          << " |a|=" << a.size() << " |b|=" << b.size();
      WorkCounter count_work;
      EXPECT_EQ(k.merge_count(VertexSpan(a), VertexSpan(b), &count_work),
                want.size());
      EXPECT_EQ(count_work.units, want_work.units);
    }
  }
}

TEST(BackendDifferentialTest, GallopKernelsMatchScalarOutputAndWork) {
  const IntersectKernels& scalar = KernelsForLevel(SimdLevel::kScalar);
  for (auto [a, b] : CategoryPairs()) {
    if (a.size() > b.size()) {
      std::swap(a, b);  // gallop kernels require |small| <= |large|
    }
    Vec want;
    WorkCounter want_work;
    scalar.gallop(VertexSpan(a), VertexSpan(b), &want, &want_work);
    EXPECT_EQ(want, Reference(a, b));
    for (SimdLevel level : AvailableLevels()) {
      const IntersectKernels& k = KernelsForLevel(level);
      Vec got;
      WorkCounter got_work;
      k.gallop(VertexSpan(a), VertexSpan(b), &got, &got_work);
      EXPECT_EQ(got, want) << "level=" << SimdLevelName(level);
      EXPECT_EQ(got_work.units, want_work.units)
          << "gallop work diverged at level " << SimdLevelName(level)
          << " |a|=" << a.size() << " |b|=" << b.size();
      WorkCounter count_work;
      EXPECT_EQ(k.gallop_count(VertexSpan(a), VertexSpan(b), &count_work),
                want.size());
      EXPECT_EQ(count_work.units, want_work.units);
    }
  }
}

TEST(WorkModelTest, MergeStepsWorkMatchesScalarCounter) {
  const IntersectKernels& scalar = KernelsForLevel(SimdLevel::kScalar);
  for (const auto& [a, b] : CategoryPairs()) {
    Vec out;
    WorkCounter incremental;
    scalar.merge(VertexSpan(a), VertexSpan(b), &out, &incremental);
    EXPECT_EQ(MergeStepsWork(VertexSpan(a), VertexSpan(b), out.size()),
              incremental.units)
        << "|a|=" << a.size() << " |b|=" << b.size();
  }
}

// The loop forms the closed-form work models replaced, kept as references.
uint64_t LoopBinarySearchLogCost(size_t n) {
  uint64_t cost = 1;
  while (n > 1) {
    n >>= 1;
    ++cost;
  }
  return cost;
}

uint64_t LoopGallopProbeWork(size_t from, size_t r, size_t n) {
  if (from >= n || r == from) {
    return 1;
  }
  size_t step = 1;
  size_t lo = from;
  size_t hi = from + step;
  uint64_t probes = 1;
  while (hi < n && hi < r) {
    lo = hi;
    step <<= 1;
    hi = from + step;
    ++probes;
  }
  hi = std::min(hi, n);
  return probes + LoopBinarySearchLogCost(hi - lo);
}

TEST(WorkModelTest, BinarySearchLogCostMatchesLoopForm) {
  for (size_t n = 0; n < (size_t{1} << 14); ++n) {
    ASSERT_EQ(BinarySearchLogCost(n), LoopBinarySearchLogCost(n))
        << "n=" << n;
  }
}

TEST(WorkModelTest, GallopProbeWorkMatchesLoopForm) {
  // Every (from, r, n) a lower bound can produce: from <= r <= n, plus the
  // from >= n early exit. Mismatches are tallied, not asserted one by one,
  // to keep ~22M comparisons fast.
  uint64_t mismatches = 0;
  std::string first;
  for (size_t n = 0; n <= 512; ++n) {
    for (size_t from = 0; from <= n + 1; ++from) {
      for (size_t r = from; r <= std::max(from, n); ++r) {
        if (GallopProbeWork(from, r, n) != LoopGallopProbeWork(from, r, n) &&
            mismatches++ == 0) {
          first = "from=" + std::to_string(from) + " r=" +
                  std::to_string(r) + " n=" + std::to_string(n);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

TEST(WorkModelTest, GallopProbeWorkMatchesGallopLowerBound) {
  // GallopProbeWork(from, r, n) must replay, by index arithmetic alone,
  // exactly what GallopLowerBound charges its WorkCounter.
  Xoshiro256ss rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec hay = SortedSet(rng, 1 + rng.Below(800), 3000);
    for (int probe = 0; probe < 40; ++probe) {
      const VertexId v = static_cast<VertexId>(rng.Below(3100));
      const size_t from = rng.Below(hay.size() + 1);
      WorkCounter charged;
      const size_t r = GallopLowerBound(VertexSpan(hay), from, v, &charged);
      EXPECT_EQ(GallopProbeWork(from, r, hay.size()), charged.units)
          << "from=" << from << " r=" << r << " n=" << hay.size();
    }
  }
}

// ---------------------------------------------------------------------------
// Bitmap arms.
// ---------------------------------------------------------------------------

TEST(BackendDifferentialTest, BitmapArmsMatchScalarOnHubLists) {
  const Graph g = GenerateHubbedPowerLaw(2500, 2, 6, 700, 11);
  const int64_t threshold = 128;
  const HubBitmapIndex bitmaps = HubBitmapIndex::Build(g, nullptr, threshold);
  ASSERT_GT(bitmaps.num_bitmaps(), 0u);
  const IntersectKernels& scalar = KernelsForLevel(SimdLevel::kScalar);
  Xoshiro256ss rng(5);
  int hubs_checked = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const VertexSpan nbrs = g.Neighbors(v);
    const HubBitmapView* bm = bitmaps.Find(v, kNoLabel);
    if (g.Degree(v) < threshold) {
      EXPECT_EQ(bm, nullptr);
      continue;
    }
    ASSERT_NE(bm, nullptr) << "hub " << v << " missing a bitmap";
    // A full-row bitmap must not answer label-filtered lookups.
    EXPECT_EQ(bitmaps.Find(v, Label{0}), nullptr);
    ++hubs_checked;
    for (size_t probe_size : {size_t{3}, size_t{40}, nbrs.size()}) {
      const Vec probe =
          SortedSet(rng, probe_size, static_cast<VertexId>(g.NumVertices()));
      // Merge arm.
      Vec want, got;
      WorkCounter want_work, got_work;
      scalar.merge(VertexSpan(probe), nbrs, &want, &want_work);
      BitmapMergeInto(VertexSpan(probe), nbrs, *bm, &got, &got_work);
      EXPECT_EQ(got, want);
      EXPECT_EQ(got_work.units, want_work.units) << "merge, hub " << v;
      WorkCounter cw;
      EXPECT_EQ(BitmapMergeCount(VertexSpan(probe), nbrs, *bm, &cw),
                want.size());
      EXPECT_EQ(cw.units, want_work.units);
      // Gallop arm.
      Vec gwant, ggot;
      WorkCounter gwant_work, ggot_work;
      scalar.gallop(VertexSpan(probe), nbrs, &gwant, &gwant_work);
      BitmapGallopInto(VertexSpan(probe), nbrs, *bm, &ggot, &ggot_work);
      EXPECT_EQ(ggot, gwant);
      EXPECT_EQ(ggot_work.units, gwant_work.units) << "gallop, hub " << v;
      WorkCounter gcw;
      EXPECT_EQ(BitmapGallopCount(VertexSpan(probe), nbrs, *bm, &gcw),
                gwant.size());
      EXPECT_EQ(gcw.units, gwant_work.units);
    }
  }
  EXPECT_GE(hubs_checked, 6);
}

TEST(BackendDifferentialTest, DispatchAutoMatchesScalarDispatch) {
  const Graph g = GenerateHubbedPowerLaw(2000, 2, 4, 600, 3);
  const HubBitmapIndex bitmaps = HubBitmapIndex::Build(g, nullptr, 64);
  ASSERT_FALSE(bitmaps.empty());
  const IntersectDispatch reference;  // scalar, no bitmaps
  std::vector<IntersectDispatch> backends;
  backends.emplace_back(IntersectMode::kAuto, &bitmaps);
  backends.emplace_back(IntersectMode::kSimd, &bitmaps);  // bitmaps ignored
  backends.emplace_back(IntersectMode::kScalar, &bitmaps);
  EXPECT_TRUE(backends[0].bitmaps_enabled());
  EXPECT_FALSE(backends[1].bitmaps_enabled());
  Xoshiro256ss rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const VertexId owner = static_cast<VertexId>(
        rng.Below(static_cast<uint64_t>(g.NumVertices())));
    const VertexSpan nbrs = g.Neighbors(owner);
    if (nbrs.empty()) {
      continue;
    }
    const Vec a = SortedSet(rng, 1 + rng.Below(300),
                            static_cast<VertexId>(g.NumVertices()));
    Vec want;
    WorkCounter want_work;
    reference.Auto(VertexSpan(a), nbrs, owner, kNoLabel, &want, &want_work);
    for (const IntersectDispatch& d : backends) {
      Vec got;
      WorkCounter got_work;
      d.Auto(VertexSpan(a), nbrs, owner, kNoLabel, &got, &got_work);
      EXPECT_EQ(got, want);
      EXPECT_EQ(got_work.units, want_work.units)
          << "owner=" << owner << " |a|=" << a.size()
          << " |nbrs|=" << nbrs.size();
      WorkCounter count_work;
      EXPECT_EQ(d.Count(VertexSpan(a), nbrs, owner, kNoLabel, &count_work),
                want.size());
      EXPECT_EQ(count_work.units, want_work.units);
    }
  }
}

TEST(BackendDifferentialTest, StoredBaseAllArmsAllBackends) {
  const Graph g = GenerateHubbedPowerLaw(3000, 2, 4, 900, 23);
  const HubBitmapIndex bitmaps = HubBitmapIndex::Build(g, nullptr, 64);
  ASSERT_FALSE(bitmaps.empty());
  const IntersectDispatch reference;
  std::vector<IntersectDispatch> backends;
  backends.emplace_back(IntersectMode::kAuto, &bitmaps);
  backends.emplace_back(IntersectMode::kSimd, &bitmaps);
  Xoshiro256ss rng(31);
  // Pick a hub owner so the bitmap arm actually engages, plus a light one.
  VertexId hub = -1, light = -1;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (bitmaps.Find(v, kNoLabel) != nullptr && hub < 0) hub = v;
    if (g.Degree(v) > 0 && g.Degree(v) < 64 && light < 0) light = v;
  }
  ASSERT_GE(hub, 0);
  ASSERT_GE(light, 0);
  for (VertexId owner : {hub, light}) {
    const VertexSpan list = g.Neighbors(owner);
    // Base sizes driving all three arms: list*32 < base (binary-search),
    // base < list/32 (probe), and comparable (merge).
    const std::vector<size_t> base_sizes = {
        list.size() * 40 + 7, std::max<size_t>(1, list.size() / 40),
        std::max<size_t>(4, list.size())};
    for (size_t base_size : base_sizes) {
      const Vec base =
          SortedSet(rng, base_size, static_cast<VertexId>(g.NumVertices()));
      Vec want;
      WorkCounter want_work;
      IntersectStoredBase(reference, VertexSpan(base), list, owner, kNoLabel,
                          &want, &want_work);
      // The legacy overload is the scalar path — must agree with the
      // explicit scalar dispatch.
      Vec legacy;
      WorkCounter legacy_work;
      IntersectStoredBase(VertexSpan(base), list, &legacy, &legacy_work);
      EXPECT_EQ(legacy, want);
      EXPECT_EQ(legacy_work.units, want_work.units);
      for (const IntersectDispatch& d : backends) {
        Vec got;
        WorkCounter got_work;
        IntersectStoredBase(d, VertexSpan(base), list, owner, kNoLabel, &got,
                            &got_work);
        EXPECT_EQ(got, want) << "owner=" << owner << " base=" << base.size()
                             << " list=" << list.size();
        EXPECT_EQ(got_work.units, want_work.units)
            << "owner=" << owner << " base=" << base.size()
            << " list=" << list.size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level invariance: identical match counts AND identical work_units
// across every backend mode, on a hub-heavy graph where bitmaps engage.
// ---------------------------------------------------------------------------

TEST(BackendInvarianceTest, EngineWorkUnitsIdenticalAcrossModes) {
  const Graph g = GenerateHubbedPowerLaw(800, 2, 4, 300, 42);
  const QueryGraph q = Pattern(3);
  auto run = [&](IntersectMode mode) {
    EngineConfig c = TdfsConfig();
    // One warp: with more, which warp picks up which decomposed task is a
    // scheduling race, so max_warp_work_units is not run-deterministic
    // (total work_units is — see the smoke checks in scripts/check.sh).
    c.num_warps = 1;
    c.clock = ClockKind::kVirtual;  // deterministic decomposition
    c.timeout_work_units = 1 << 14;
    c.intersect = mode;
    c.bitmap_min_degree = 64;
    return RunMatching(g, q, c);
  };
  const RunResult want = run(IntersectMode::kScalar);
  ASSERT_TRUE(want.status.ok());
  for (IntersectMode mode : {IntersectMode::kAuto, IntersectMode::kSimd,
                             IntersectMode::kBitmapOff}) {
    const RunResult got = run(mode);
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(got.match_count, want.match_count) << IntersectModeName(mode);
    EXPECT_EQ(got.counters.work_units, want.counters.work_units)
        << IntersectModeName(mode);
    EXPECT_EQ(got.counters.max_warp_work_units,
              want.counters.max_warp_work_units)
        << IntersectModeName(mode);
  }
}

TEST(BackendInvarianceTest, BfsEngineInvariantAcrossModes) {
  const Graph g = GenerateHubbedPowerLaw(600, 2, 3, 250, 7);
  const QueryGraph q = Pattern(2);
  auto run = [&](IntersectMode mode) {
    EngineConfig c = PbeConfig();
    c.num_warps = 2;
    c.intersect = mode;
    c.bitmap_min_degree = 64;
    return RunMatchingBfs(g, q, c);
  };
  const RunResult want = run(IntersectMode::kScalar);
  ASSERT_TRUE(want.status.ok());
  for (IntersectMode mode : {IntersectMode::kAuto, IntersectMode::kSimd}) {
    const RunResult got = run(mode);
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(got.match_count, want.match_count);
    EXPECT_EQ(got.counters.work_units, want.counters.work_units)
        << IntersectModeName(mode);
  }
}

// Satellite regression: EGSM mode fetches label-filtered neighbor spans
// through the LabelIndex; hub bitmaps must key per (vertex, label) there —
// a full-row bitmap would over-match. Counts must equal the oracle.
TEST(BackendInvarianceTest, EgsmLabelIndexWithHubsMatchesOracle) {
  Graph g = GenerateHubbedPowerLaw(700, 2, 4, 280, 13);
  g.AssignUniformLabels(3, 99);
  for (int p : {1, 3, 5}) {
    const QueryGraph q = Pattern(p);
    EngineConfig egsm = EgsmConfig();
    egsm.num_warps = 2;
    egsm.intersect = IntersectMode::kAuto;
    egsm.bitmap_min_degree = 32;  // low threshold: per-label buckets qualify
    const RunResult got = RunMatching(g, q, egsm);
    ASSERT_TRUE(got.status.ok());
    // Same config for the oracle: EGSM counts every automorphic image
    // (its preset has no symmetry breaking), so the plans must match.
    const RunResult want = RunMatchingRef(g, q, egsm);
    ASSERT_TRUE(want.status.ok());
    EXPECT_EQ(got.match_count, want.match_count) << "P" << p;
    // And the scalar backend agrees on count under the same config.
    EngineConfig scalar = egsm;
    scalar.intersect = IntersectMode::kScalar;
    const RunResult sc = RunMatching(g, q, scalar);
    ASSERT_TRUE(sc.status.ok());
    EXPECT_EQ(sc.match_count, want.match_count) << "P" << p;
  }
}

}  // namespace
}  // namespace tdfs
