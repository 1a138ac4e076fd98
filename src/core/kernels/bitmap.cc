/**
 * @file
 * Hub-bitmap kernels: when one side of a set operation is the full
 * neighbor list of a hub vertex whose dense bitset was precomputed
 * (Graph::buildHubBitmaps), the smaller list drives and each element
 * costs one O(1) bit test — no merge scan over the (large) hub list.
 * When the SIMD tier is live the bit tests run word-parallel, eight
 * driving elements per gather (detail::simdBitmap*), and the
 * count-above forms fold the >= bound test into that one gather
 * pass.  Charges stay canonical merge-equivalent work.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>

namespace khuzdul
{
namespace core
{

namespace
{

inline bool
testBit(const std::uint64_t *row, VertexId v)
{
    return (row[v >> 6] >> (v & 63)) & 1u;
}

/** True when @p a runs on the word-parallel gather path: the one
 *  SIMD-availability test of a bitmap kernel call. */
bool
gatherPath(std::span<const VertexId> a)
{
    return a.size() >= kSimdMinSize && simdAvailable();
}

/** Elements of @p a whose bit is set in @p row (scalar). */
Count
rowMembers(std::span<const VertexId> a, const std::uint64_t *row)
{
    Count count = 0;
    for (const VertexId x : a)
        count += testBit(row, x);
    return count;
}

/** Split of @p a at the first element >= @p bound. */
std::size_t
splitAt(std::span<const VertexId> a, VertexId bound)
{
    return static_cast<std::size_t>(
        std::lower_bound(a.begin(), a.end(), bound) - a.begin());
}

} // namespace

WorkItems
bitmapIntersectInto(std::span<const VertexId> a,
                    std::span<const VertexId> hub_list,
                    const std::uint64_t *row, std::vector<VertexId> &out)
{
    const WorkItems work = canonicalIntersectWork(a, hub_list);
    if (gatherPath(a)) {
        detail::simdBitmapFilter(a, row, /*keep_members=*/true, out);
        return work;
    }
    out.clear();
    for (const VertexId x : a)
        if (testBit(row, x))
            out.push_back(x);
    return work;
}

WorkItems
bitmapIntersectCount(std::span<const VertexId> a,
                     std::span<const VertexId> hub_list,
                     const std::uint64_t *row, Count &count)
{
    count = gatherPath(a) ? detail::simdBitmapCount(a, row)
                          : rowMembers(a, row);
    return canonicalIntersectWork(a, hub_list);
}

WorkItems
bitmapIntersectCountAbove(std::span<const VertexId> a,
                          std::span<const VertexId> hub_list,
                          const std::uint64_t *row, VertexId bound,
                          Count &total, Count &above)
{
    if (gatherPath(a)) {
        detail::simdBitmapCountAbove(a, row, /*keep_members=*/true,
                                     bound, total, above);
    } else {
        const std::size_t split = splitAt(a, bound);
        above = rowMembers(a.subspan(split), row);
        total = rowMembers(a.first(split), row) + above;
    }
    return canonicalIntersectWork(a, hub_list);
}

WorkItems
bitmapSubtractInto(std::span<const VertexId> a,
                   std::span<const VertexId> hub_list,
                   const std::uint64_t *row, std::vector<VertexId> &out)
{
    const WorkItems work = canonicalSubtractWork(a, hub_list);
    if (gatherPath(a)) {
        detail::simdBitmapFilter(a, row, /*keep_members=*/false, out);
        return work;
    }
    out.clear();
    for (const VertexId x : a)
        if (!testBit(row, x))
            out.push_back(x);
    return work;
}

WorkItems
bitmapSubtractCountAbove(std::span<const VertexId> a,
                         std::span<const VertexId> hub_list,
                         const std::uint64_t *row, VertexId bound,
                         Count &total, Count &above)
{
    if (gatherPath(a)) {
        detail::simdBitmapCountAbove(a, row, /*keep_members=*/false,
                                     bound, total, above);
    } else {
        const std::size_t split = splitAt(a, bound);
        above = (a.size() - split) - rowMembers(a.subspan(split), row);
        total = split - rowMembers(a.first(split), row) + above;
    }
    return canonicalSubtractWork(a, hub_list);
}

} // namespace core
} // namespace khuzdul
