/**
 * @file
 * Per-call kernel selection.  The dispatcher orders each pairwise
 * operation small-list-first, then picks bitmap (a hub row on the
 * probed side, at any size ratio), galloping (ratio >= kGallopRatio)
 * or merging — vectorized variants when the SIMD tier is live and
 * the driving list clears kSimdMinSize — or obeys a forced
 * KernelMode for A/B runs.  Every path returns the canonical
 * merge-equivalent charge, so mode choice is invisible to the cost
 * model.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

const char *
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::Merge:
        return "merge";
      case KernelKind::Gallop:
        return "gallop";
      case KernelKind::Bitmap:
        return "bitmap";
      case KernelKind::SimdMerge:
        return "simd_merge";
      case KernelKind::SimdGallop:
        return "simd_gallop";
    }
    KHUZDUL_PANIC("unreachable kernel kind");
}

const char *
kernelModeName(KernelMode mode)
{
    switch (mode) {
      case KernelMode::Auto:
        return "auto";
      case KernelMode::Merge:
        return "merge";
      case KernelMode::Gallop:
        return "gallop";
      case KernelMode::Bitmap:
        return "bitmap";
      case KernelMode::Simd:
        return "simd";
    }
    KHUZDUL_PANIC("unreachable kernel mode");
}

KernelMode
parseKernelMode(const std::string &name)
{
    if (name == "auto")
        return KernelMode::Auto;
    if (name == "merge")
        return KernelMode::Merge;
    if (name == "gallop")
        return KernelMode::Gallop;
    if (name == "bitmap")
        return KernelMode::Bitmap;
    if (name == "simd")
        return KernelMode::Simd;
    KHUZDUL_FATAL("unknown kernel mode '" << name
                  << "' (expected auto|merge|gallop|bitmap|simd)");
}

const std::uint64_t *
KernelDispatcher::rowFor(const ListRef &ref) const
{
    if (!graph_ || ref.source == kInvalidVertex)
        return nullptr;
    return graph_->hubBitmapRow(ref.source);
}

KernelDispatcher::Choice
KernelDispatcher::chooseIntersect(const ListRef &small,
                                  const ListRef &large)
{
    const bool wide = simd_ && small.size() >= kSimdMinSize;
    Choice choice{KernelKind::Merge, nullptr};
    switch (mode_) {
      case KernelMode::Merge:
        break;
      case KernelMode::Gallop:
        choice.kind = KernelKind::Gallop;
        break;
      case KernelMode::Bitmap:
        if ((choice.row = rowFor(large)))
            choice.kind = KernelKind::Bitmap;
        break;
      case KernelMode::Simd:
        if (large.size() >= kGallopRatio * small.size()
            && !small.list.empty())
            choice.kind =
                wide ? KernelKind::SimdGallop : KernelKind::Gallop;
        else if (wide)
            choice.kind = KernelKind::SimdMerge;
        break;
      case KernelMode::Auto:
        if (small.list.empty())
            break; // trivial; merge returns immediately
        // A hub row wins at any size ratio: one bit test per driving
        // element beats every scan of the probed list end to end
        // (DESIGN.md §5.6).
        if ((choice.row = rowFor(large))) {
            choice.kind = KernelKind::Bitmap;
        } else if (large.size() >= kGallopRatio * small.size()) {
            // Scalar gallop, deliberately: the sweep shows the
            // vectorized landing window losing to the plain binary
            // narrow at every ratio >= kGallopRatio (the probe loads
            // cost more than the <= 3 scalar steps they replace).
            // SimdGallop stays reachable via KernelMode::Simd.
            choice.kind = KernelKind::Gallop;
        } else if (wide) {
            choice.kind = KernelKind::SimdMerge;
        }
        break;
    }
    ++counters_.calls[static_cast<std::size_t>(choice.kind)];
    return choice;
}

KernelDispatcher::Choice
KernelDispatcher::chooseSubtract(const ListRef &a, const ListRef &b)
{
    // Subtraction is not symmetric: a is the base, only b can play
    // the probed (hub) role.
    Choice choice{KernelKind::Merge, nullptr};
    switch (mode_) {
      case KernelMode::Merge:
        break;
      case KernelMode::Gallop:
        choice.kind = KernelKind::Gallop;
        break;
      case KernelMode::Bitmap:
        if ((choice.row = rowFor(b)))
            choice.kind = KernelKind::Bitmap;
        break;
      case KernelMode::Simd:
        if (!a.list.empty() && !b.list.empty()
            && b.size() >= kGallopRatio * a.size())
            choice.kind = simd_ && a.size() >= kSimdMinSize
                ? KernelKind::SimdGallop
                : KernelKind::Gallop;
        break;
      case KernelMode::Auto:
        if (a.list.empty() || b.list.empty())
            break;
        if ((choice.row = rowFor(b)))
            choice.kind = KernelKind::Bitmap; // see chooseIntersect
        else if (b.size() >= kGallopRatio * a.size())
            choice.kind = KernelKind::Gallop; // see chooseIntersect
        break;
    }
    ++counters_.calls[static_cast<std::size_t>(choice.kind)];
    return choice;
}

WorkItems
KernelDispatcher::intersectInto(const ListRef &a, const ListRef &b,
                                std::vector<VertexId> &out)
{
    const ListRef &small = a.size() <= b.size() ? a : b;
    const ListRef &large = a.size() <= b.size() ? b : a;
    const Choice c = chooseIntersect(small, large);
    switch (c.kind) {
      case KernelKind::Gallop:
        return gallopIntersectInto(small.list, large.list, out);
      case KernelKind::Bitmap:
        return bitmapIntersectInto(small.list, large.list, c.row, out);
      case KernelKind::SimdMerge:
        return simdMergeIntersectInto(small.list, large.list, out);
      case KernelKind::SimdGallop:
        return simdGallopIntersectInto(small.list, large.list, out);
      case KernelKind::Merge:
        break;
    }
    return core::intersectInto(small.list, large.list, out);
}

WorkItems
KernelDispatcher::intersectCount(const ListRef &a, const ListRef &b,
                                 Count &count)
{
    const ListRef &small = a.size() <= b.size() ? a : b;
    const ListRef &large = a.size() <= b.size() ? b : a;
    const Choice c = chooseIntersect(small, large);
    switch (c.kind) {
      case KernelKind::Gallop:
        return gallopIntersectCount(small.list, large.list, count);
      case KernelKind::Bitmap:
        return bitmapIntersectCount(small.list, large.list, c.row,
                                    count);
      case KernelKind::SimdMerge:
        return simdMergeIntersectCount(small.list, large.list, count);
      case KernelKind::SimdGallop:
        return simdGallopIntersectCount(small.list, large.list, count);
      case KernelKind::Merge:
        break;
    }
    return core::intersectCount(small.list, large.list, count);
}

WorkItems
KernelDispatcher::intersectCountAbove(const ListRef &a, const ListRef &b,
                                      VertexId bound, Count &total,
                                      Count &above)
{
    const ListRef &small = a.size() <= b.size() ? a : b;
    const ListRef &large = a.size() <= b.size() ? b : a;
    const Choice c = chooseIntersect(small, large);
    switch (c.kind) {
      case KernelKind::Gallop:
        return gallopIntersectCountAbove(small.list, large.list, bound,
                                         total, above);
      case KernelKind::Bitmap:
        return bitmapIntersectCountAbove(small.list, large.list, c.row,
                                         bound, total, above);
      case KernelKind::SimdMerge:
        return simdMergeIntersectCountAbove(small.list, large.list,
                                            bound, total, above);
      case KernelKind::SimdGallop:
        return simdGallopIntersectCountAbove(small.list, large.list,
                                             bound, total, above);
      case KernelKind::Merge:
        break;
    }
    return core::intersectCountAbove(small.list, large.list, bound,
                                     total, above);
}

WorkItems
KernelDispatcher::subtractInto(const ListRef &a, const ListRef &b,
                               std::vector<VertexId> &out)
{
    const Choice c = chooseSubtract(a, b);
    switch (c.kind) {
      case KernelKind::Gallop:
        return gallopSubtractInto(a.list, b.list, out);
      case KernelKind::Bitmap:
        return bitmapSubtractInto(a.list, b.list, c.row, out);
      case KernelKind::SimdGallop:
        return simdGallopSubtractInto(a.list, b.list, out);
      case KernelKind::SimdMerge: // never chosen for subtraction
      case KernelKind::Merge:
        break;
    }
    return core::subtractInto(a.list, b.list, out);
}

WorkItems
KernelDispatcher::subtractCountAbove(const ListRef &a, const ListRef &b,
                                     VertexId bound, Count &total,
                                     Count &above)
{
    const Choice c = chooseSubtract(a, b);
    switch (c.kind) {
      case KernelKind::Gallop:
        return gallopSubtractCountAbove(a.list, b.list, bound, total,
                                        above);
      case KernelKind::Bitmap:
        return bitmapSubtractCountAbove(a.list, b.list, c.row, bound,
                                        total, above);
      case KernelKind::SimdGallop:
        return simdGallopSubtractCountAbove(a.list, b.list, bound,
                                            total, above);
      case KernelKind::SimdMerge: // never chosen for subtraction
      case KernelKind::Merge:
        break;
    }
    return core::subtractCountAbove(a.list, b.list, bound, total,
                                    above);
}

WorkItems
KernelDispatcher::intersectMany(std::span<const ListRef> lists,
                                std::vector<VertexId> &out,
                                std::vector<VertexId> &scratch)
{
    KHUZDUL_CHECK(!lists.empty() && lists.size() <= 8,
                  "intersectMany needs 1..8 lists");
    std::array<ListRef, 8> sorted;
    std::copy(lists.begin(), lists.end(), sorted.begin());
    detail::sortBySizeStable(sorted.data(), lists.size());
    if (lists.size() == 1) {
        // Same convention as the free function: a materialized copy
        // charges one WorkItem per element.
        out.assign(sorted[0].list.begin(), sorted[0].list.end());
        return out.size();
    }
    WorkItems work = intersectInto(sorted[0], sorted[1], out);
    for (std::size_t k = 2; k < lists.size(); ++k) {
        if (out.empty())
            break;
        scratch.clear();
        work += intersectInto(ListRef(out), sorted[k], scratch);
        out.swap(scratch);
    }
    return work;
}

WorkItems
KernelDispatcher::intersectManyCount(std::span<const ListRef> lists,
                                     Count &count,
                                     std::vector<VertexId> &scratch_a,
                                     std::vector<VertexId> &scratch_b)
{
    KHUZDUL_CHECK(!lists.empty(), "intersectManyCount needs >= 1 list");
    if (lists.size() == 1) {
        count = lists[0].size();
        return 0;
    }
    if (lists.size() == 2)
        return intersectCount(lists[0], lists[1], count);
    WorkItems work = intersectMany(lists.first(lists.size() - 1),
                                   scratch_a, scratch_b);
    Count final_count = 0;
    work += intersectCount(ListRef(scratch_a), lists.back(),
                           final_count);
    count = final_count;
    return work;
}

} // namespace core
} // namespace khuzdul
