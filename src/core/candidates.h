// Candidate computation shared by all engines (Eq. 1 + optimizations).
//
// For a position `pos` with matched prefix match[0..pos), the candidate set
// is the intersection of the neighbor lists of the matched backward
// neighbors, label-filtered for the query vertex at `pos`. With reuse
// enabled the chain starts from the stored candidates of an earlier
// position (Fig. 7). Neighbor lists come either from the CSR graph or, for
// the EGSM baseline, from the label index.
//
// All intersections route through an IntersectDispatch (scalar, SIMD, or
// hub-bitmap backend per EngineConfig::intersect). Work metering is
// backend-invariant, so candidates AND work_units are identical whichever
// backend runs.

#ifndef TDFS_CORE_CANDIDATES_H_
#define TDFS_CORE_CANDIDATES_H_

#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/hub_bitmap.h"
#include "graph/label_index.h"
#include "query/plan.h"
#include "query/query_graph.h"
#include "util/intersect.h"

namespace tdfs {

/// Ping-pong buffers reused across candidate computations by one warp;
/// `base` holds a stored level gathered across pages (StoredLevel).
struct CandidateScratch {
  std::vector<VertexId> a;
  std::vector<VertexId> b;
  std::vector<VertexId> base;
};

/// Per-position IntersectDispatch routing for one compiled plan.
///
/// The run-level EngineConfig::intersect mode remains the default for
/// every position; positions the cost planner pinned via
/// MatchPlan::step_backend get their own dispatch (scalar where expected
/// lists are tiny, SIMD without bitmap probing mid-range, the full
/// bitmap-capable dispatch on expected hub steps). Two invariants:
///
///  * Forced-scalar runs (IntersectMode::kScalar — the differential
///    oracle mode) ignore the table entirely: every position stays on the
///    scalar reference dispatch.
///  * Backend routing never changes candidates or work_units (the work
///    model is backend-invariant), so any table resolves to the same
///    counts — only wall-clock differs.
class StepDispatchTable {
 public:
  /// Scalar everywhere (reference behaviour).
  StepDispatchTable() = default;

  StepDispatchTable(const MatchPlan& plan, IntersectMode mode,
                    const HubBitmapIndex* bitmaps)
      : run_(mode, bitmaps) {
    if (mode == IntersectMode::kScalar || plan.step_backend.empty()) {
      return;
    }
    table_.reserve(plan.step_backend.size());
    for (StepBackend backend : plan.step_backend) {
      switch (backend) {
        case StepBackend::kScalar:
          table_.push_back(IntersectDispatch());
          break;
        case StepBackend::kSimd:
          table_.push_back(
              IntersectDispatch(IntersectMode::kSimd, /*bitmaps=*/nullptr));
          break;
        case StepBackend::kInherit:
        case StepBackend::kBitmap:
          // kBitmap resolves to the run dispatch: under kAuto the bitmap
          // arm engages exactly on hub lists, and an explicit
          // simd/bitmap-off run mode keeps bitmaps disabled (the user's
          // switch wins over the planner's hint).
          table_.push_back(run_);
          break;
      }
    }
  }

  /// The run-level dispatch (positions outside the table, stored-base
  /// reuse of untabled plans, count-only probes).
  const IntersectDispatch& run() const { return run_; }

  /// Dispatch for the intersection chain at `pos`.
  const IntersectDispatch& At(int pos) const {
    return table_.empty() || pos < 0 ||
                   pos >= static_cast<int>(table_.size())
               ? run_
               : table_[pos];
  }

 private:
  IntersectDispatch run_;
  std::vector<IntersectDispatch> table_;
};

namespace internal {

/// Appends the elements of `in` whose data-graph label equals `label`.
inline void CopyWithLabelFilter(const Graph& graph, VertexSpan in,
                                Label label, std::vector<VertexId>* out,
                                WorkCounter* work) {
  if (work != nullptr) {
    work->Add(in.size());
  }
  if (label == kNoLabel) {
    out->insert(out->end(), in.begin(), in.end());
    return;
  }
  for (VertexId v : in) {
    if (graph.VertexLabel(v) == label) {
      out->push_back(v);
    }
  }
}

}  // namespace internal

/// Fetches the (label-filtered when indexed) neighbor list used for one
/// backward position. Shared by the direct and reuse-based chains.
inline VertexSpan BackwardNeighborList(const Graph& graph,
                                       const LabelIndex* index,
                                       VertexId matched, Label label,
                                       WorkCounter* work) {
  if (index != nullptr) {
    // One extra indirection per access: the CT-index cost the paper
    // charges EGSM with.
    if (work != nullptr) {
      work->Add(2);
    }
    return index->NeighborsWithLabel(matched, label);
  }
  return graph.Neighbors(matched);
}

/// Intersects a stored stack level `base` (a span over the page it lies in,
/// or its page-by-page gather when it spans pages — see StoredLevel in
/// mem/warp_stack.h) with a sorted neighbor list, appending to `out`.
/// Chooses between merge, probing the list into the base (binary search),
/// and probing the base into the list, by the 32x size-ratio heuristic.
/// The base must be sorted ascending and duplicate-free, which stored
/// candidate sets are (they are intersections of sorted lists).
///
/// `list_owner`/`list_label` identify whose adjacency bucket `list` is so
/// the bitmap backend can engage (owner -1 when it is not an adjacency
/// list). The merge arm runs the dispatch's merge kernel (SIMD or bitmap
/// where available) on the base in place; the binary-search and probe arms
/// keep their scalar loops, whose step charges define the work model.
inline void IntersectStoredBase(const IntersectDispatch& isect,
                                VertexSpan base, VertexSpan list,
                                VertexId list_owner, Label list_label,
                                std::vector<VertexId>* out,
                                WorkCounter* work) {
  if (base.empty() || list.empty()) {
    return;
  }
  const size_t base_size = base.size();
  uint64_t steps = 0;
  if (list.size() * 32 < base_size) {
    // Small list: binary-search each element in the stored base.
    size_t lo = 0;
    for (VertexId x : list) {
      size_t l = lo;
      size_t r = base_size;
      while (l < r) {
        const size_t m = l + (r - l) / 2;
        ++steps;
        if (base[m] < x) {
          l = m + 1;
        } else {
          r = m;
        }
      }
      if (l < base_size && base[l] == x) {
        out->push_back(x);
        lo = l + 1;
      } else {
        lo = l;
      }
      ++steps;
      if (lo >= base_size) {
        break;
      }
    }
  } else if (base_size < list.size() / 32) {
    // Small base: probe each stored element against the list. A bitmap
    // over the list answers each probe in O(1) but charges the same
    // binary-search cost SortedContains would.
    const HubBitmapView* bm = isect.Bitmap(list_owner, list_label);
    for (VertexId v : base) {
      ++steps;
      if (bm != nullptr) {
        if (work != nullptr) {
          work->Add(BinarySearchLogCost(list.size()));
        }
        if (bm->Test(v)) {
          out->push_back(v);
        }
      } else if (SortedContains(list, v, work)) {
        out->push_back(v);
      }
    }
  } else if (const HubBitmapView* bm = isect.Bitmap(list_owner, list_label);
             bm != nullptr) {
    // Comparable sizes: merge. Every kernel charges the scalar merge's
    // step count (MergeStepsWork), so the backend never moves work_units.
    BitmapMergeInto(base, list, *bm, out, work);
  } else {
    isect.kernels().merge(base, list, out, work);
  }
  if (work != nullptr) {
    work->Add(steps);
  }
}

/// Scalar-backend overload (no bitmap).
inline void IntersectStoredBase(VertexSpan base, VertexSpan list,
                                std::vector<VertexId>* out,
                                WorkCounter* work) {
  IntersectStoredBase(IntersectDispatch(), base, list, /*list_owner=*/-1,
                      kNoLabel, out, work);
}

/// Computes the candidates of `pos` into `out` (cleared first) from the
/// backward neighbor lists alone. The plan must NOT designate a reuse
/// source for `pos` — engines with stored stacks handle the reuse path
/// themselves via IntersectStoredBase, so that the stored level is read in
/// place rather than copied (the whole point of Fig. 7's optimization).
/// When `index` is non-null, neighbor lists are fetched per label bucket
/// (already filtered); otherwise CSR lists are used and the label filter is
/// applied to the final result.
inline void ComputeCandidates(const Graph& graph, const LabelIndex* index,
                              const MatchPlan& plan, const VertexId* match,
                              int pos, const IntersectDispatch& isect,
                              CandidateScratch* scratch,
                              std::vector<VertexId>* out,
                              WorkCounter* work) {
  TDFS_CHECK_MSG(plan.reuse_source[pos] < 0,
                 "reuse-source positions are computed by the engine");
  out->clear();
  const Label label = plan.label_filter[pos];
  const std::vector<int>& backward = plan.backward[pos];
  // Bitmaps are keyed the way the spans were fetched: per label bucket
  // behind an index, full CSR rows otherwise.
  const Label lookup_label = index != nullptr ? label : kNoLabel;

  struct OwnedList {
    VertexSpan span;
    VertexId owner;
  };
  // Ascending size so the intersection shrinks as early as possible. The
  // insertion is stable: equal-size lists keep their backward order, which
  // fixes the chain — and so work_units — for any tie.
  OwnedList lists[QueryGraph::kMaxQueryVertices];
  size_t num_lists = 0;
  for (int b : backward) {
    const OwnedList entry{
        BackwardNeighborList(graph, index, match[b], label, work), match[b]};
    size_t at = num_lists++;
    for (; at > 0 && entry.span.size() < lists[at - 1].span.size(); --at) {
      lists[at] = lists[at - 1];
    }
    lists[at] = entry;
  }

  // Labels already applied when reading through the index; with CSR lists
  // the *smallest* list is label-filtered up front ("we also filter
  // candidates based on their labels during subgraph extension",
  // Section III), which shrinks the whole intersection chain and makes
  // every later result label-correct for free.
  const bool need_label_pass = index == nullptr && label != kNoLabel;

  if (num_lists == 1) {
    internal::CopyWithLabelFilter(graph, lists[0].span,
                                  need_label_pass ? label : kNoLabel, out,
                                  work);
    return;
  }
  std::vector<VertexId>* current = &scratch->a;
  std::vector<VertexId>* next = &scratch->b;
  size_t first_unmerged = 2;
  if (need_label_pass) {
    scratch->a.clear();
    internal::CopyWithLabelFilter(graph, lists[0].span, label, &scratch->a,
                                  work);
    first_unmerged = 1;
  } else {
    scratch->a.clear();
    isect.Auto(lists[0].span, lists[1].span, lists[1].owner, lookup_label,
               &scratch->a, work);
  }
  for (size_t l = first_unmerged; l < num_lists; ++l) {
    next->clear();
    isect.Auto(VertexSpan(*current), lists[l].span, lists[l].owner,
               lookup_label, next, work);
    std::swap(current, next);
    if (current->empty()) {
      break;
    }
  }
  out->insert(out->end(), current->begin(), current->end());
}

/// Scalar-backend compatibility overload.
inline void ComputeCandidates(const Graph& graph, const LabelIndex* index,
                              const MatchPlan& plan, const VertexId* match,
                              int pos, CandidateScratch* scratch,
                              std::vector<VertexId>* out,
                              WorkCounter* work) {
  ComputeCandidates(graph, index, plan, match, pos, IntersectDispatch(),
                    scratch, out, work);
}

}  // namespace tdfs

#endif  // TDFS_CORE_CANDIDATES_H_
