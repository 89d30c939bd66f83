#include "core/config.h"

#include <algorithm>
#include <limits>

#include "mem/page_allocator.h"

namespace tdfs {

bool RetryableFailure(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kInternal;
}

void ApplyRetryEscalation(EngineConfig* cfg, int next_attempt,
                          const Status& failure) {
  if (!cfg->retry.escalate ||
      failure.code() != StatusCode::kResourceExhausted) {
    return;
  }
  if (next_attempt == 2) {
    cfg->release_stack_pages = true;
  } else if (next_attempt == 3) {
    const int64_t grown = static_cast<int64_t>(cfg->page_pool_pages) *
                          std::max(cfg->retry.pool_growth_factor, 2);
    cfg->page_pool_pages = static_cast<int32_t>(
        std::min<int64_t>(grown, std::numeric_limits<int32_t>::max()));
  } else {
    cfg->stack = StackKind::kArrayMaxDegree;  // always fits
  }
}

std::unique_ptr<PageAllocator> MakePageAllocator(const EngineConfig& config) {
  return std::make_unique<PageAllocator>(
      config.page_pool_pages, config.page_bytes,
      SpillOptions{config.spill_to_host, config.max_spill_pages,
                   config.governor});
}

const char* StealStrategyName(StealStrategy s) {
  switch (s) {
    case StealStrategy::kTimeout:
      return "timeout";
    case StealStrategy::kHalfSteal:
      return "half-steal";
    case StealStrategy::kNewKernel:
      return "new-kernel";
    case StealStrategy::kNone:
      return "none";
  }
  return "?";
}

const char* StackKindName(StackKind s) {
  switch (s) {
    case StackKind::kPaged:
      return "paged";
    case StackKind::kArrayMaxDegree:
      return "array-dmax";
    case StackKind::kArrayFixed:
      return "array-fixed";
  }
  return "?";
}

EngineConfig TdfsConfig() {
  return EngineConfig{};  // the defaults are T-DFS
}

EngineConfig StmatchConfig() {
  EngineConfig config;
  config.steal = StealStrategy::kHalfSteal;
  config.stack = StackKind::kArrayMaxDegree;  // paper sets capacity to d_max
                                              // "unless otherwise stated"
  config.host_side_edge_filter = true;
  config.separate_vertex_removal = true;
  config.use_reuse = false;  // reuse is the T-DFS/GPU-reuse-line opt [30]
  return config;
}

EngineConfig EgsmConfig() {
  EngineConfig config;
  config.steal = StealStrategy::kNewKernel;
  config.stack = StackKind::kArrayMaxDegree;
  config.use_symmetry_breaking = false;  // "EGSM ... does not conduct
                                         // automorphism check" (Sec. IV-B)
  config.use_label_index = true;
  config.use_reuse = false;
  return config;
}

EngineConfig PbeConfig() {
  EngineConfig config;
  config.steal = StealStrategy::kNone;
  return config;
}

}  // namespace tdfs
