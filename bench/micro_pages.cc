// Microbenchmark: the lock-free page allocator and the paged-vs-array
// stack access paths (the indirection cost behind Tables VI/VIII).

#include <benchmark/benchmark.h>

#include <vector>

#include "mem/page_allocator.h"
#include "mem/warp_stack.h"

namespace tdfs {
namespace {

void BM_PageAllocFree(benchmark::State& state) {
  PageAllocator alloc(1024);
  for (auto _ : state) {
    PageId p = alloc.AllocPage();
    benchmark::DoNotOptimize(p);
    alloc.FreePage(p);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PageAllocFree);

void BM_PageAllocFreeContended(benchmark::State& state) {
  // Shared across the benchmark's threads (see micro_queue.cc).
  static PageAllocator* alloc = new PageAllocator(4096);
  std::vector<PageId> held;
  held.reserve(8);
  for (auto _ : state) {
    if (held.size() < 8) {
      PageId p = alloc->AllocPage();
      if (p != kNullPage) {
        held.push_back(p);
      }
    } else {
      alloc->FreePage(held.back());
      held.pop_back();
    }
  }
  for (PageId p : held) {
    alloc->FreePage(p);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
// Fixed iterations: see micro_queue.cc (threaded calibration on few cores).
BENCHMARK(BM_PageAllocFreeContended)->Threads(2)->Threads(8)
    ->Iterations(50000)->UseRealTime();

void BM_PagedStackWriteRead(benchmark::State& state) {
  const int64_t n = state.range(0);
  PageAllocator alloc(256);
  PagedWarpStack stack(&alloc, 4);
  for (auto _ : state) {
    for (int64_t i = 0; i < n; ++i) {
      stack.TrySet(2, i, static_cast<VertexId>(i));
    }
    VertexId sum = 0;
    for (int64_t i = 0; i < n; ++i) {
      sum += stack.Get(2, i);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_PagedStackWriteRead)->Arg(64)->Arg(2048)->Arg(65536);

// The same traffic as whole-level page runs (WriteLevel, StoredLevel), as
// the DFS engine now moves levels: one table lookup and copy per page.
void BM_PagedStackRunWriteRead(benchmark::State& state) {
  const int64_t n = state.range(0);
  PageAllocator alloc(256);
  PagedWarpStack stack(&alloc, 4);
  std::vector<VertexId> values(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    values[i] = static_cast<VertexId>(i);
  }
  std::vector<VertexId> scratch;
  for (auto _ : state) {
    stack.WriteLevel(2, VertexSpan(values));
    VertexId sum = 0;
    for (VertexId v : stack.StoredLevel(2, n, &scratch)) {
      sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_PagedStackRunWriteRead)->Arg(64)->Arg(2048)->Arg(65536);

void BM_ArrayStackWriteRead(benchmark::State& state) {
  const int64_t n = state.range(0);
  ArrayWarpStack stack(4, 65536);
  for (auto _ : state) {
    for (int64_t i = 0; i < n; ++i) {
      stack.TrySet(2, i, static_cast<VertexId>(i));
    }
    VertexId sum = 0;
    for (int64_t i = 0; i < n; ++i) {
      sum += stack.Get(2, i);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_ArrayStackWriteRead)->Arg(64)->Arg(2048)->Arg(65536);

}  // namespace
}  // namespace tdfs

BENCHMARK_MAIN();
