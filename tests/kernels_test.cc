/**
 * @file
 * Differential and property tests for the set-kernel suite
 * (core/kernels): every kernel must agree element-for-element with
 * the reference two-pointer merge and charge the identical canonical
 * WorkItems on randomized and adversarial inputs; the dispatcher
 * must be mode-invariant in outputs and charges; the count-above
 * kernels must agree with merge-then-filter; the hub-bitmap
 * index must be correct, capped and deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/kernels/kernels.hh"
#include "graph/generators.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace
{

std::vector<VertexId>
sortedUnique(std::vector<VertexId> values)
{
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()),
                 values.end());
    return values;
}

std::vector<VertexId>
randomList(std::size_t size, VertexId universe, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<VertexId> list(size);
    for (auto &v : list)
        v = static_cast<VertexId>(rng.nextBounded(universe));
    return sortedUnique(std::move(list));
}

/** Adversarial (a, b) pairs: empties, extreme skew, overlap at span
 *  boundaries (equal first/last elements), disjoint ranges, dense
 *  all-common lists. */
std::vector<std::pair<std::vector<VertexId>, std::vector<VertexId>>>
adversarialPairs()
{
    std::vector<std::pair<std::vector<VertexId>, std::vector<VertexId>>>
        pairs;
    pairs.push_back({{}, {}});
    pairs.push_back({{}, {1, 2, 3}});
    pairs.push_back({{5}, {1, 2, 3, 4, 5, 6, 7, 8, 9}});
    pairs.push_back({{9}, {1, 2, 3}});           // a past b's end
    pairs.push_back({{1, 2, 3}, {4, 5, 6}});     // disjoint, adjacent
    pairs.push_back({{4, 5, 6}, {1, 2, 3}});     // disjoint, reversed
    pairs.push_back({{1, 100}, randomList(5000, 1 << 16, 3)});
    // Boundary-equal elements: spans meeting exactly at their ends.
    pairs.push_back({{1, 2, 3, 10}, {10, 11, 12}});
    pairs.push_back({{10, 11, 12}, {1, 2, 3, 10}});
    pairs.push_back({{1, 5, 9}, {1, 5, 9}});     // identical lists
    // Dense common prefix, then divergence.
    std::vector<VertexId> dense_a;
    std::vector<VertexId> dense_b;
    for (VertexId v = 0; v < 600; ++v) {
        dense_a.push_back(v);
        dense_b.push_back(v < 300 ? v : v + 1000);
    }
    pairs.push_back({dense_a, dense_b});
    // Extreme skew: 3 elements vs 100k.
    pairs.push_back({{7, 70'000, 99'999},
                     randomList(100'000, 1 << 20, 17)});
    return pairs;
}

void
expectKernelAgreement(std::span<const VertexId> a,
                      std::span<const VertexId> b)
{
    std::vector<VertexId> ref;
    std::vector<VertexId> out;
    Count count = 0;
    const core::WorkItems work = core::intersectInto(a, b, ref);

    EXPECT_EQ(core::canonicalIntersectWork(a, b), work);
    EXPECT_EQ(core::intersectCount(a, b, count), work);
    EXPECT_EQ(count, ref.size());

    EXPECT_EQ(core::gallopIntersectInto(a, b, out), work);
    EXPECT_EQ(out, ref);
    EXPECT_EQ(core::gallopIntersectCount(a, b, count), work);
    EXPECT_EQ(count, ref.size());

    EXPECT_EQ(core::simdMergeIntersectInto(a, b, out), work);
    EXPECT_EQ(out, ref);
    EXPECT_EQ(core::simdMergeIntersectCount(a, b, count), work);
    EXPECT_EQ(count, ref.size());

    EXPECT_EQ(core::simdGallopIntersectInto(a, b, out), work);
    EXPECT_EQ(out, ref);
    EXPECT_EQ(core::simdGallopIntersectCount(a, b, count), work);
    EXPECT_EQ(count, ref.size());

    // Subtraction: gallop and SIMD gallop against the reference.
    std::vector<VertexId> sub_ref;
    const core::WorkItems sub_work = core::subtractInto(a, b, sub_ref);
    EXPECT_EQ(core::canonicalSubtractWork(a, b), sub_work);
    EXPECT_EQ(core::gallopSubtractInto(a, b, out), sub_work);
    EXPECT_EQ(out, sub_ref);
    EXPECT_EQ(core::simdGallopSubtractInto(a, b, out), sub_work);
    EXPECT_EQ(out, sub_ref);
}

TEST(Kernels, AdversarialPairsAgree)
{
    for (const auto &[a, b] : adversarialPairs()) {
        SCOPED_TRACE("sizes " + std::to_string(a.size()) + " x "
                     + std::to_string(b.size()));
        expectKernelAgreement(a, b);
        expectKernelAgreement(b, a);
    }
}

TEST(Kernels, RandomizedPairsAgree)
{
    Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t size_a = rng.nextBounded(400);
        const std::size_t size_b = 1 + rng.nextBounded(4000);
        const VertexId universe =
            1 + static_cast<VertexId>(rng.nextBounded(8000));
        const auto a = randomList(size_a, universe, 1000 + trial);
        const auto b = randomList(size_b, universe, 2000 + trial);
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectKernelAgreement(a, b);
    }
}

/**
 * Exhaustive residue/alignment sweep for the SIMD tier: the AVX2
 * merge consumes 8-wide blocks with a scalar tail and the gallop
 * probe loads an 8-lane window, so every tail residue mod 8 (0..7)
 * of BOTH lists and misaligned span starts must agree byte-for-byte
 * with the scalar kernels, including empty and singleton lists.
 */
TEST(Kernels, SimdResidueAndAlignmentSweep)
{
    for (const std::size_t base_a : {0ul, 8ul, 64ul, 248ul})
        for (std::size_t ra = 0; ra < 8; ++ra)
            for (const std::size_t base_b : {0ul, 8ul, 512ul})
                for (std::size_t rb = 0; rb < 8; rb += 3) {
                    const std::size_t na = base_a + ra;
                    const std::size_t nb = base_b + rb;
                    const auto a = randomList(na, 2048, 7000 + na);
                    const auto b = randomList(nb, 2048, 8000 + nb);
                    SCOPED_TRACE("sizes " + std::to_string(a.size())
                                 + " x " + std::to_string(b.size()));
                    expectKernelAgreement(a, b);
                    // Misaligned starts: drop the first element so
                    // the span no longer begins on the vector's
                    // natural boundary.
                    if (!a.empty() && !b.empty())
                        expectKernelAgreement(
                            std::span<const VertexId>(a).subspan(1),
                            std::span<const VertexId>(b).subspan(1));
                }
}

/**
 * The host-side kill switch must force the scalar fallback inside an
 * AVX2 binary with byte-identical outputs and charges — this is the
 * same code path a non-AVX2 host takes, so the sweep proves the
 * fallback cannot rot even when CI only has wide machines.
 */
TEST(Kernels, SimdKillSwitchFallbackIsByteIdentical)
{
    const bool was_available = core::simdAvailable();
    const auto a = randomList(517, 4096, 31);   // residue 5
    const auto b = randomList(4096, 8192, 32);  // skewed partner

    std::vector<VertexId> simd_out, scalar_out;
    const core::WorkItems w_on =
        core::simdMergeIntersectInto(a, b, simd_out);

    core::setSimdEnabled(false);
    EXPECT_FALSE(core::simdAvailable());
    const core::WorkItems w_off =
        core::simdMergeIntersectInto(a, b, scalar_out);
    EXPECT_EQ(w_on, w_off);
    EXPECT_EQ(simd_out, scalar_out);

    // The whole agreement battery must also hold with the tier off.
    expectKernelAgreement(a, b);
    expectKernelAgreement(b, a);

    core::setSimdEnabled(true);
    EXPECT_EQ(core::simdAvailable(), was_available);
    if (!was_available)
        return; // scalar-only build/host: nothing more to compare
    expectKernelAgreement(a, b);

    const core::WorkItems w_back =
        core::simdGallopIntersectInto(a, b, simd_out);
    core::setSimdEnabled(false);
    EXPECT_EQ(core::simdGallopIntersectInto(a, b, scalar_out), w_back);
    EXPECT_EQ(simd_out, scalar_out);
    core::setSimdEnabled(true);
}

/**
 * Word-parallel bitmap probes (gather + variable shift) vs. the
 * scalar bit-test loop, across driving-list residues and both filter
 * polarities (intersect keeps members, subtract drops them).
 */
TEST(Kernels, SimdBitmapPathMatchesScalarOnHubLists)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    const std::uint64_t *row = g.hubBitmapRow(hub);
    ASSERT_NE(row, nullptr);
    const auto hub_list = g.neighbors(hub);

    for (std::size_t size = core::kSimdMinSize;
         size < core::kSimdMinSize + 8; ++size) {
        const auto a = randomList(size, g.numVertices(), 600 + size);
        SCOPED_TRACE("driver size " + std::to_string(a.size()));

        std::vector<VertexId> ref, out;
        Count count = 0;
        const core::WorkItems work =
            core::intersectInto(a, hub_list, ref);
        EXPECT_EQ(core::bitmapIntersectInto(a, hub_list, row, out),
                  work);
        EXPECT_EQ(out, ref);
        EXPECT_EQ(core::bitmapIntersectCount(a, hub_list, row, count),
                  work);
        EXPECT_EQ(count, ref.size());

        std::vector<VertexId> sub_ref;
        const core::WorkItems sub_work =
            core::subtractInto(a, hub_list, sub_ref);
        EXPECT_EQ(core::bitmapSubtractInto(a, hub_list, row, out),
                  sub_work);
        EXPECT_EQ(out, sub_ref);

        // Same inputs with the tier off: identical bytes and charges.
        core::setSimdEnabled(false);
        EXPECT_EQ(core::bitmapIntersectInto(a, hub_list, row, out),
                  work);
        EXPECT_EQ(out, ref);
        EXPECT_EQ(core::bitmapSubtractInto(a, hub_list, row, out),
                  sub_work);
        EXPECT_EQ(out, sub_ref);
        core::setSimdEnabled(true);
    }
}

TEST(Kernels, BitmapKernelsMatchReferenceOnHubLists)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    ASSERT_GT(g.hubBitmapCount(), 0u);
    Rng rng(7);
    int tested = 0;
    for (VertexId v = 0; v < g.numVertices() && tested < 50; ++v) {
        const std::uint64_t *row = g.hubBitmapRow(v);
        if (!row)
            continue;
        ++tested;
        const auto hub_list = g.neighbors(v);
        const auto a = randomList(1 + rng.nextBounded(64),
                                  g.numVertices(), 300 + v);
        std::vector<VertexId> ref;
        std::vector<VertexId> out;
        Count count = 0;
        const core::WorkItems work =
            core::intersectInto(a, hub_list, ref);
        EXPECT_EQ(core::bitmapIntersectInto(a, hub_list, row, out),
                  work);
        EXPECT_EQ(out, ref);
        EXPECT_EQ(core::bitmapIntersectCount(a, hub_list, row, count),
                  work);
        EXPECT_EQ(count, ref.size());

        std::vector<VertexId> sub_ref;
        const core::WorkItems sub_work =
            core::subtractInto(a, hub_list, sub_ref);
        EXPECT_EQ(core::bitmapSubtractInto(a, hub_list, row, out),
                  sub_work);
        EXPECT_EQ(out, sub_ref);
    }
    EXPECT_EQ(tested, 50);
}

TEST(Kernels, DispatcherIsModeInvariant)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    ASSERT_NE(g.hubBitmapRow(hub), nullptr);

    const core::ListRef hub_ref(g.neighbors(hub), hub);
    const auto small = randomList(24, g.numVertices(), 42);
    std::vector<VertexId> ref;
    std::vector<VertexId> out;
    const core::WorkItems work =
        core::intersectInto(small, hub_ref.list, ref);

    for (const core::KernelMode mode :
         {core::KernelMode::Auto, core::KernelMode::Merge,
          core::KernelMode::Gallop, core::KernelMode::Bitmap,
          core::KernelMode::Simd}) {
        core::KernelDispatcher dispatcher(mode, &g);
        EXPECT_EQ(dispatcher.intersectInto(core::ListRef(small),
                                           hub_ref, out),
                  work)
            << core::kernelModeName(mode);
        EXPECT_EQ(out, ref) << core::kernelModeName(mode);
        EXPECT_EQ(dispatcher.counters().total(), 1u);
    }
}

TEST(Kernels, DispatcherCountersAttributeKernels)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    // The 4-element driver below must reach the gallop ratio against
    // the hub list once its source is dropped.
    static_assert(core::kGallopRatio * 4 <= 32);
    ASSERT_GE(g.degree(hub), 32u);

    core::KernelDispatcher dispatcher(core::KernelMode::Auto, &g);
    std::vector<VertexId> out;

    // Tiny vs hub with a row: bitmap.
    const auto tiny = randomList(4, g.numVertices(), 1);
    dispatcher.intersectInto(core::ListRef(tiny),
                             {g.neighbors(hub), hub}, out);
    EXPECT_EQ(dispatcher.counters()[core::KernelKind::Bitmap], 1u);

    // Same skew but no source vertex: gallop.
    dispatcher.intersectInto(core::ListRef(tiny),
                             core::ListRef(g.neighbors(hub)), out);
    EXPECT_EQ(dispatcher.counters()[core::KernelKind::Gallop], 1u);

    // Near-equal large lists: SIMD merge when the tier is live,
    // plain merge otherwise.
    const auto a = randomList(500, 4096, 2);
    const auto b = randomList(500, 4096, 3);
    dispatcher.intersectInto(core::ListRef(a), core::ListRef(b), out);
    if (core::simdAvailable())
        EXPECT_EQ(dispatcher.counters()[core::KernelKind::SimdMerge],
                  1u);
    else
        EXPECT_EQ(dispatcher.counters()[core::KernelKind::Merge], 1u);

    // Tiny near-equal lists (below kSimdMinSize): reference merge.
    const core::KernelCounters before = dispatcher.counters();
    const auto sa = randomList(8, 64, 4);
    const auto sb = randomList(8, 64, 5);
    dispatcher.intersectInto(core::ListRef(sa), core::ListRef(sb), out);
    EXPECT_EQ(dispatcher.counters()[core::KernelKind::Merge],
              before[core::KernelKind::Merge] + 1);
}

TEST(Kernels, ManyListFoldsMatchAcrossDispatchAndReference)
{
    Rng rng(55);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 1 + rng.nextBounded(5);
        std::vector<std::vector<VertexId>> storage;
        for (std::size_t i = 0; i < n; ++i)
            storage.push_back(randomList(1 + rng.nextBounded(800),
                                         2000, 70 * trial + i));
        std::vector<std::span<const VertexId>> spans(storage.begin(),
                                                     storage.end());
        std::vector<core::ListRef> refs(storage.begin(), storage.end());

        std::vector<VertexId> ref_out, out, scratch;
        const core::WorkItems ref_work = core::intersectMany(
            {spans.data(), spans.size()}, ref_out, scratch);

        core::KernelDispatcher dispatcher;
        EXPECT_EQ(dispatcher.intersectMany({refs.data(), refs.size()},
                                           out, scratch),
                  ref_work)
            << "trial " << trial;
        EXPECT_EQ(out, ref_out) << "trial " << trial;

        Count ref_count = 0, count = 0;
        std::vector<VertexId> sa, sb;
        const core::WorkItems ref_count_work = core::intersectManyCount(
            {spans.data(), spans.size()}, ref_count, sa, sb);
        EXPECT_EQ(dispatcher.intersectManyCount(
                      {refs.data(), refs.size()}, count, sa, sb),
                  ref_count_work)
            << "trial " << trial;
        EXPECT_EQ(count, ref_count) << "trial " << trial;
    }
}

TEST(Kernels, SingleListConventionsCopyChargesAndProbeIsFree)
{
    const auto list = randomList(100, 1000, 8);
    std::vector<std::span<const VertexId>> spans = {list};
    std::vector<VertexId> out, scratch;
    // The materialized pass-through copy charges 1 WorkItem/element.
    EXPECT_EQ(core::intersectMany({spans.data(), 1}, out, scratch),
              list.size());
    EXPECT_EQ(out, list);
    // The count-only size probe is O(1) and charges nothing.
    Count count = 0;
    std::vector<VertexId> sa, sb;
    EXPECT_EQ(core::intersectManyCount({spans.data(), 1}, count, sa,
                                       sb),
              0u);
    EXPECT_EQ(count, list.size());
}

TEST(Kernels, ContainsAgreesAcrossCutoff)
{
    for (const std::size_t size :
         {0ul, 1ul, 31ul, 32ul, 33ul, 500ul}) {
        const auto list = randomList(size, 700, 60 + size);
        for (VertexId v = 0; v < 700; v += 7) {
            const bool expected = std::binary_search(list.begin(),
                                                     list.end(), v);
            EXPECT_EQ(core::containsLinear(list, v), expected);
            EXPECT_EQ(core::containsBinary(list, v), expected);
            EXPECT_EQ(core::contains(list, v), expected);
        }
    }
}

TEST(Kernels, HubBitmapAdmissionIsCappedAndHottestFirst)
{
    const Graph g = gen::rmat(4096, 60000, 0.6, 0.15, 0.15, 21);
    const std::size_t row_bytes = ((g.numVertices() + 63) / 64) * 8;

    // Uncapped: every vertex at/above threshold has a row.
    g.buildHubBitmaps(16, 1ull << 30);
    std::size_t eligible = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const bool has_row = g.hubBitmapRow(v) != nullptr;
        EXPECT_EQ(has_row, g.degree(v) >= 16) << "vertex " << v;
        eligible += g.degree(v) >= 16;
    }
    EXPECT_EQ(g.hubBitmapCount(), eligible);
    EXPECT_EQ(g.hubBitmapBytes(), eligible * row_bytes);
    ASSERT_GT(eligible, 8u);

    // Capped to 8 rows: only the 8 hottest keep rows, and no vertex
    // with a row is colder than any vertex without one.
    g.buildHubBitmaps(16, 8 * row_bytes);
    EXPECT_EQ(g.hubBitmapCount(), 8u);
    EXPECT_LE(g.hubBitmapBytes(), 8 * row_bytes);
    EdgeId coldest_admitted = ~EdgeId{0};
    EdgeId hottest_rejected = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (g.hubBitmapRow(v))
            coldest_admitted = std::min(coldest_admitted, g.degree(v));
        else if (g.degree(v) >= 16)
            hottest_rejected = std::max(hottest_rejected, g.degree(v));
    }
    EXPECT_GE(coldest_admitted, hottest_rejected);

    // Zero cap disables the index entirely.
    g.buildHubBitmaps(16, 0);
    EXPECT_EQ(g.hubBitmapCount(), 0u);
    EXPECT_EQ(g.hubBitmapBytes(), 0u);
    EXPECT_EQ(g.hubBitmapRow(0), nullptr);
}

/** Bounds that split a result every way: 0, below the smallest
 *  input element, equal to an element of each list (and of the
 *  result when there is one), mid-range, and past the largest. */
std::vector<VertexId>
boundsFor(std::span<const VertexId> a, std::span<const VertexId> b,
          std::span<const VertexId> result)
{
    std::vector<VertexId> bounds = {0};
    VertexId lo = ~VertexId{0};
    VertexId hi = 0;
    for (const auto list : {a, b}) {
        if (list.empty())
            continue;
        lo = std::min(lo, list.front());
        hi = std::max(hi, list.back());
        bounds.push_back(list[list.size() / 2]);
    }
    if (hi == 0 && lo == ~VertexId{0})
        return {0, 1};
    if (lo > 0)
        bounds.push_back(lo - 1);
    if (!result.empty())
        bounds.push_back(result[result.size() / 3]);
    bounds.push_back(lo + (hi - lo) / 2);
    bounds.push_back(hi + 1);
    return bounds;
}

Count
countAtLeast(const std::vector<VertexId> &list, VertexId bound)
{
    return static_cast<Count>(
        list.end() - std::lower_bound(list.begin(), list.end(), bound));
}

using CountAboveKernel = core::WorkItems (*)(std::span<const VertexId>,
                                             std::span<const VertexId>,
                                             VertexId, Count &, Count &);

/** Every free count-above kernel against merge-then-filter. */
void
expectCountAboveAgreement(std::span<const VertexId> a,
                          std::span<const VertexId> b)
{
    std::vector<VertexId> inter;
    std::vector<VertexId> diff;
    const core::WorkItems inter_work = core::intersectInto(a, b, inter);
    const core::WorkItems diff_work = core::subtractInto(a, b, diff);
    const std::pair<const char *, CountAboveKernel> intersects[] = {
        {"merge", core::intersectCountAbove},
        {"gallop", core::gallopIntersectCountAbove},
        {"simd_merge", core::simdMergeIntersectCountAbove},
        {"simd_gallop", core::simdGallopIntersectCountAbove}};
    const std::pair<const char *, CountAboveKernel> subtracts[] = {
        {"merge", core::subtractCountAbove},
        {"gallop", core::gallopSubtractCountAbove},
        {"simd_gallop", core::simdGallopSubtractCountAbove}};
    for (const VertexId bound : boundsFor(a, b, inter)) {
        SCOPED_TRACE("bound " + std::to_string(bound));
        for (const auto &[name, kernel] : intersects) {
            Count total = 7;
            Count above = 7;
            EXPECT_EQ(kernel(a, b, bound, total, above), inter_work)
                << name;
            EXPECT_EQ(total, inter.size()) << name;
            EXPECT_EQ(above, countAtLeast(inter, bound)) << name;
        }
        for (const auto &[name, kernel] : subtracts) {
            Count total = 7;
            Count above = 7;
            EXPECT_EQ(kernel(a, b, bound, total, above), diff_work)
                << name;
            EXPECT_EQ(total, diff.size()) << name;
            EXPECT_EQ(above, countAtLeast(diff, bound)) << name;
        }
    }
}

/**
 * Count-above kernels (count-only terminal levels) against
 * merge-then-filter on every pair of sizes 0..40 — each 8-lane tail
 * residue of both lists — with the SIMD tier on and off.
 */
TEST(Kernels, CountAboveMatchesMergeThenFilter)
{
    for (const bool simd : {true, false}) {
        core::setSimdEnabled(simd);
        for (std::size_t na = 0; na <= 40; ++na)
            for (std::size_t nb = 0; nb <= 40; ++nb) {
                const VertexId universe =
                    static_cast<VertexId>(2 * (na + nb) + 8);
                const auto a = randomList(na, universe, 100 * na + nb);
                const auto b =
                    randomList(nb, universe, 50000 + 100 * nb + na);
                SCOPED_TRACE("simd " + std::to_string(simd) + " sizes "
                             + std::to_string(a.size()) + " x "
                             + std::to_string(b.size()));
                expectCountAboveAgreement(a, b);
            }
        for (const auto &[a, b] : adversarialPairs()) {
            expectCountAboveAgreement(a, b);
            expectCountAboveAgreement(b, a);
        }
    }
    core::setSimdEnabled(true);
}

TEST(Kernels, BitmapCountAboveMatchesMergeThenFilterOnHubRows)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    int hubs = 0;
    for (VertexId v = 0; v < g.numVertices() && hubs < 6; ++v) {
        const std::uint64_t *row = g.hubBitmapRow(v);
        if (!row)
            continue;
        ++hubs;
        const auto hub_list = g.neighbors(v);
        for (const bool simd : {true, false}) {
            core::setSimdEnabled(simd);
            for (std::size_t na = 0; na <= 40; ++na) {
                const auto a =
                    randomList(na, g.numVertices(), 900 + 41 * v + na);
                std::vector<VertexId> inter;
                std::vector<VertexId> diff;
                const core::WorkItems inter_work =
                    core::intersectInto(a, hub_list, inter);
                const core::WorkItems diff_work =
                    core::subtractInto(a, hub_list, diff);
                for (const VertexId bound : boundsFor(a, hub_list, inter)) {
                    SCOPED_TRACE("hub " + std::to_string(v) + " simd "
                                 + std::to_string(simd) + " size "
                                 + std::to_string(a.size()) + " bound "
                                 + std::to_string(bound));
                    Count total = 7;
                    Count above = 7;
                    EXPECT_EQ(core::bitmapIntersectCountAbove(
                                  a, hub_list, row, bound, total, above),
                              inter_work);
                    EXPECT_EQ(total, inter.size());
                    EXPECT_EQ(above, countAtLeast(inter, bound));
                    EXPECT_EQ(core::bitmapSubtractCountAbove(
                                  a, hub_list, row, bound, total, above),
                              diff_work);
                    EXPECT_EQ(total, diff.size());
                    EXPECT_EQ(above, countAtLeast(diff, bound));
                }
            }
        }
    }
    core::setSimdEnabled(true);
    EXPECT_EQ(hubs, 6);

    // The fused SIMD pass (gather bit AND max_epu32 >= mask, scalar
    // tail): driving lists of 16 and more, with bounds on and just
    // past every driving element (so inside each SIMD block and
    // inside the tail), below the minimum, above the maximum and with
    // the high bit set (the compare must be unsigned).
    hubs = 0;
    for (VertexId v = 0; v < g.numVertices() && hubs < 3; ++v) {
        const std::uint64_t *row = g.hubBitmapRow(v);
        if (!row)
            continue;
        ++hubs;
        const auto hub_list = g.neighbors(v);
        for (const std::size_t na : {16u, 17u, 23u, 24u, 31u, 64u, 257u}) {
            const auto a = randomList(na, g.numVertices(), 7 * v + na);
            ASSERT_GE(a.size(), core::kSimdMinSize);
            std::vector<VertexId> inter;
            std::vector<VertexId> diff;
            const core::WorkItems inter_work =
                core::intersectInto(a, hub_list, inter);
            const core::WorkItems diff_work =
                core::subtractInto(a, hub_list, diff);
            std::vector<VertexId> bounds = {0, a.back() + 1,
                                            VertexId{1} << 31,
                                            ~VertexId{0}};
            if (a.front() > 0)
                bounds.push_back(a.front() - 1);
            for (const VertexId x : a) {
                bounds.push_back(x);
                bounds.push_back(x + 1);
            }
            for (const bool simd : {true, false}) {
                core::setSimdEnabled(simd);
                for (const VertexId bound : bounds) {
                    SCOPED_TRACE("hub " + std::to_string(v) + " simd "
                                 + std::to_string(simd) + " size "
                                 + std::to_string(a.size()) + " bound "
                                 + std::to_string(bound));
                    Count total = 7;
                    Count above = 7;
                    EXPECT_EQ(core::bitmapIntersectCountAbove(
                                  a, hub_list, row, bound, total, above),
                              inter_work);
                    EXPECT_EQ(total, inter.size());
                    EXPECT_EQ(above, countAtLeast(inter, bound));
                    EXPECT_EQ(core::bitmapSubtractCountAbove(
                                  a, hub_list, row, bound, total, above),
                              diff_work);
                    EXPECT_EQ(total, diff.size());
                    EXPECT_EQ(above, countAtLeast(diff, bound));
                }
            }
        }
    }
    core::setSimdEnabled(true);
    EXPECT_EQ(hubs, 3);
}

/**
 * Auto probes a hub row on the probed side (the larger list for ∩,
 * b for a \ b) at any size ratio, near-equal sizes included, for
 * every dispatched operation.  Without a row the same pairs keep
 * the size-ratio ladder: gallop, then simd_merge, then merge.
 */
TEST(Kernels, AutoProbesHubRowAtAnySizeRatio)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    ASSERT_NE(g.hubBitmapRow(hub), nullptr);
    const auto hub_list = g.neighbors(hub);
    ASSERT_GE(hub_list.size(), 8 * 2 * core::kSimdMinSize);

    using core::KernelKind;
    for (const bool simd : {true, false}) {
        core::setSimdEnabled(simd);
        for (const std::size_t ratio : {1u, 2u, 3u, 8u}) {
            const auto drive = randomList(hub_list.size() / ratio,
                                          g.numVertices(), 70 + ratio);
            ASSERT_EQ(hub_list.size() / drive.size(), ratio);
            // Strictly smaller, so the hub list is the larger side
            // whichever argument order a call uses.
            ASSERT_LT(drive.size(), hub_list.size());
            ASSERT_GE(drive.size(), core::kSimdMinSize);
            SCOPED_TRACE("simd " + std::to_string(simd) + " ratio "
                         + std::to_string(ratio));
            const VertexId bound = drive[drive.size() / 2];
            std::vector<VertexId> inter;
            std::vector<VertexId> diff;
            const core::WorkItems inter_work =
                core::intersectInto(drive, hub_list, inter);
            const core::WorkItems diff_work =
                core::subtractInto(drive, hub_list, diff);

            // Runs all five operations against @p probed; returns
            // the dispatcher's per-kind tallies.
            const auto dispatchAll = [&](const core::ListRef &probed) {
                core::KernelDispatcher d(core::KernelMode::Auto, &g);
                const core::ListRef driver(drive);
                std::vector<VertexId> out;
                Count count = 0;
                Count total = 0;
                Count above = 0;
                EXPECT_EQ(d.intersectInto(driver, probed, out),
                          inter_work);
                EXPECT_EQ(out, inter);
                EXPECT_EQ(d.intersectCount(probed, driver, count),
                          inter_work);
                EXPECT_EQ(count, inter.size());
                EXPECT_EQ(d.intersectCountAbove(driver, probed, bound,
                                                total, above),
                          inter_work);
                EXPECT_EQ(total, inter.size());
                EXPECT_EQ(above, countAtLeast(inter, bound));
                EXPECT_EQ(d.subtractInto(driver, probed, out),
                          diff_work);
                EXPECT_EQ(out, diff);
                EXPECT_EQ(d.subtractCountAbove(driver, probed, bound,
                                               total, above),
                          diff_work);
                EXPECT_EQ(total, diff.size());
                EXPECT_EQ(above, countAtLeast(diff, bound));
                EXPECT_EQ(d.counters().total(), 5u);
                return d.counters();
            };

            const core::KernelCounters with_row =
                dispatchAll(core::ListRef(hub_list, hub));
            EXPECT_EQ(with_row[KernelKind::Bitmap], 5u);

            // No row: the hub list without its source.
            const core::KernelCounters no_row =
                dispatchAll(core::ListRef(hub_list));
            EXPECT_EQ(no_row[KernelKind::Bitmap], 0u);
            if (ratio >= core::kGallopRatio) {
                EXPECT_EQ(no_row[KernelKind::Gallop], 5u);
            } else {
                // Subtraction never takes simd_merge; the tier may be
                // off, compiled out or missing from the CPU.
                const bool live = core::simdAvailable();
                EXPECT_EQ(no_row[KernelKind::SimdMerge], live ? 3u : 0u);
                EXPECT_EQ(no_row[KernelKind::Merge], live ? 2u : 5u);
            }
        }
    }
    core::setSimdEnabled(true);
}

/**
 * Through the dispatcher, in every mode with the SIMD tier on and
 * off: a count-above call ticks exactly one counter, the same kind
 * the materializing call on the same inputs ticks, and charges the
 * same canonical work.
 */
TEST(Kernels, DispatcherCountAboveTicksOnceAndChargesLikeMaterializing)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    ASSERT_NE(g.hubBitmapRow(hub), nullptr);
    const core::ListRef hub_ref(g.neighbors(hub), hub);
    const auto wide = randomList(600, g.numVertices(), 71);
    const auto peer = randomList(500, g.numVertices(), 72);

    for (const bool simd : {true, false}) {
        core::setSimdEnabled(simd);
        for (const core::KernelMode mode :
             {core::KernelMode::Auto, core::KernelMode::Merge,
              core::KernelMode::Gallop, core::KernelMode::Bitmap,
              core::KernelMode::Simd}) {
            for (std::size_t na = 0; na <= 40; na += 5) {
                const auto small = randomList(na, g.numVertices(), na);
                const core::ListRef small_ref(small);
                const std::pair<core::ListRef, core::ListRef> pairs[] = {
                    {small_ref, hub_ref},
                    {hub_ref, small_ref},
                    {small_ref, core::ListRef(wide)},
                    {core::ListRef(wide), core::ListRef(peer)}};
                for (const auto &[a, b] : pairs) {
                    SCOPED_TRACE(std::string(core::kernelModeName(mode))
                                 + " simd " + std::to_string(simd)
                                 + " sizes " + std::to_string(a.size())
                                 + " x " + std::to_string(b.size()));
                    std::vector<VertexId> inter;
                    std::vector<VertexId> diff;
                    core::KernelDispatcher into(mode, &g);
                    const core::WorkItems inter_work =
                        into.intersectInto(a, b, inter);
                    const core::WorkItems diff_work =
                        into.subtractInto(a, b, diff);
                    for (const VertexId bound :
                         boundsFor(a.list, b.list, inter)) {
                        core::KernelDispatcher counted(mode, &g);
                        Count total = 0;
                        Count above = 0;
                        EXPECT_EQ(counted.intersectCountAbove(
                                      a, b, bound, total, above),
                                  inter_work);
                        EXPECT_EQ(total, inter.size());
                        EXPECT_EQ(above, countAtLeast(inter, bound));
                        EXPECT_EQ(counted.counters().total(), 1u);
                        EXPECT_EQ(counted.subtractCountAbove(
                                      a, b, bound, total, above),
                                  diff_work);
                        EXPECT_EQ(total, diff.size());
                        EXPECT_EQ(above, countAtLeast(diff, bound));
                        EXPECT_EQ(counted.counters().calls,
                                  into.counters().calls);
                        EXPECT_EQ(counted.counters().total(), 2u);
                    }
                }
            }
        }
    }
    core::setSimdEnabled(true);
}

TEST(Kernels, ModeNamesRoundTrip)
{
    for (const core::KernelMode mode :
         {core::KernelMode::Auto, core::KernelMode::Merge,
          core::KernelMode::Gallop, core::KernelMode::Bitmap,
          core::KernelMode::Simd})
        EXPECT_EQ(core::parseKernelMode(core::kernelModeName(mode)),
                  mode);
    EXPECT_THROW(core::parseKernelMode("avx2"), FatalError);
    EXPECT_THROW(core::parseKernelMode("blocked"), FatalError);
}

} // namespace
} // namespace khuzdul
