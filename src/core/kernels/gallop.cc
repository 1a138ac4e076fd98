/**
 * @file
 * Galloping (exponential-probe binary search) kernels for skewed
 * list-size ratios: the smaller list drives, each of its elements
 * located in the larger list in O(log gap) from a moving cursor.
 * A hub list of 10k against a candidate list of 12 costs ~12 log 10k
 * probes instead of the merge's ~10k comparisons; the charge stays
 * the canonical merge-equivalent work.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>

namespace khuzdul
{
namespace core
{

namespace
{

/**
 * First position in [first, last) with value >= x, found by
 * doubling probes from @p first then binary search in the bracketed
 * range — O(log distance) instead of O(log |list|).
 */
const VertexId *
gallopLowerBound(const VertexId *first, const VertexId *last, VertexId x)
{
    if (first == last || *first >= x)
        return first;
    // Invariant: first[lo] < x; first + hi is the probe.
    std::size_t lo = 0;
    std::size_t hi = 1;
    while (first + hi < last && first[hi] < x) {
        lo = hi;
        hi <<= 1;
    }
    const VertexId *begin = first + lo + 1;
    const VertexId *end = first + hi < last ? first + hi + 1 : last;
    return std::lower_bound(begin, end, x);
}

/** Elements of @p a found in [cursor, end), advancing @p cursor. */
Count
gallopMatches(std::span<const VertexId> a, const VertexId *&cursor,
              const VertexId *end)
{
    Count count = 0;
    for (const VertexId x : a) {
        cursor = gallopLowerBound(cursor, end, x);
        if (cursor == end)
            break;
        if (*cursor == x) {
            ++count;
            ++cursor;
        }
    }
    return count;
}

/** Elements of @p a not found in [cursor, end), advancing
 *  @p cursor. */
Count
gallopMisses(std::span<const VertexId> a, const VertexId *&cursor,
             const VertexId *end)
{
    Count count = 0;
    for (const VertexId x : a) {
        cursor = gallopLowerBound(cursor, end, x);
        if (cursor != end && *cursor == x)
            ++cursor;
        else
            ++count;
    }
    return count;
}

} // namespace

WorkItems
gallopIntersectInto(std::span<const VertexId> a,
                    std::span<const VertexId> b,
                    std::vector<VertexId> &out)
{
    out.clear();
    const WorkItems work = canonicalIntersectWork(a, b);
    const VertexId *cursor = b.data();
    const VertexId *const end = cursor + b.size();
    for (const VertexId x : a) {
        cursor = gallopLowerBound(cursor, end, x);
        if (cursor == end)
            break;
        if (*cursor == x) {
            out.push_back(x);
            ++cursor;
        }
    }
    return work;
}

WorkItems
gallopIntersectCount(std::span<const VertexId> a,
                     std::span<const VertexId> b, Count &count)
{
    const VertexId *cursor = b.data();
    count = gallopMatches(a, cursor, b.data() + b.size());
    return canonicalIntersectWork(a, b);
}

WorkItems
gallopIntersectCountAbove(std::span<const VertexId> a,
                          std::span<const VertexId> b, VertexId bound,
                          Count &total, Count &above)
{
    // The driving list splits at the bound; the cursor carries over.
    const std::size_t split = static_cast<std::size_t>(
        std::lower_bound(a.begin(), a.end(), bound) - a.begin());
    const VertexId *cursor = b.data();
    const VertexId *const end = cursor + b.size();
    const Count below = gallopMatches(a.first(split), cursor, end);
    above = gallopMatches(a.subspan(split), cursor, end);
    total = below + above;
    return canonicalIntersectWork(a, b);
}

WorkItems
gallopSubtractInto(std::span<const VertexId> a,
                   std::span<const VertexId> b,
                   std::vector<VertexId> &out)
{
    out.clear();
    const WorkItems work = canonicalSubtractWork(a, b);
    const VertexId *cursor = b.data();
    const VertexId *const end = cursor + b.size();
    for (const VertexId x : a) {
        cursor = gallopLowerBound(cursor, end, x);
        if (cursor != end && *cursor == x)
            ++cursor;
        else
            out.push_back(x);
    }
    return work;
}

WorkItems
gallopSubtractCountAbove(std::span<const VertexId> a,
                         std::span<const VertexId> b, VertexId bound,
                         Count &total, Count &above)
{
    const std::size_t split = static_cast<std::size_t>(
        std::lower_bound(a.begin(), a.end(), bound) - a.begin());
    const VertexId *cursor = b.data();
    const VertexId *const end = cursor + b.size();
    const Count below = gallopMisses(a.first(split), cursor, end);
    above = gallopMisses(a.subspan(split), cursor, end);
    total = below + above;
    return canonicalSubtractWork(a, b);
}

} // namespace core
} // namespace khuzdul
