/**
 * @file
 * Unit tests for the engine's building blocks: set kernels, the
 * chunk arena, the horizontal (collision-dropping) table, the
 * data caches with every replacement policy and the exact charge
 * replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "core/cache.hh"
#include "core/charge_replay.hh"
#include "core/chunk.hh"
#include "core/horizontal.hh"
#include "core/kernels/kernels.hh"
#include "graph/generators.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace
{

using core::ChargeReplay;
using core::Chunk;
using core::DataCache;
using core::HorizontalTable;

std::vector<VertexId>
sortedList(std::initializer_list<VertexId> values)
{
    return values;
}

TEST(Intersect, PairBasics)
{
    std::vector<VertexId> out;
    core::intersectInto(sortedList({1, 3, 5, 7}),
                        sortedList({2, 3, 4, 7, 9}), out);
    EXPECT_EQ(out, sortedList({3, 7}));
    core::intersectInto(sortedList({1, 2}), sortedList({3, 4}), out);
    EXPECT_TRUE(out.empty());
    core::intersectInto({}, sortedList({1}), out);
    EXPECT_TRUE(out.empty());
}

TEST(Intersect, CountMatchesMaterialized)
{
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<VertexId> a;
        std::vector<VertexId> b;
        for (int i = 0; i < 300; ++i) {
            if (rng.coin(0.4))
                a.push_back(i);
            if (rng.coin(0.4))
                b.push_back(i);
        }
        std::vector<VertexId> out;
        core::intersectInto(a, b, out);
        Count count = 0;
        core::intersectCount(a, b, count);
        EXPECT_EQ(count, out.size());
    }
}

TEST(Intersect, SubtractBasics)
{
    std::vector<VertexId> out;
    core::subtractInto(sortedList({1, 2, 3, 4, 5}),
                       sortedList({2, 4, 6}), out);
    EXPECT_EQ(out, sortedList({1, 3, 5}));
    core::subtractInto(sortedList({1, 2}), {}, out);
    EXPECT_EQ(out, sortedList({1, 2}));
}

TEST(Intersect, ManyListsFoldCorrectly)
{
    const auto a = sortedList({1, 2, 3, 4, 5, 6, 7, 8});
    const auto b = sortedList({2, 4, 6, 8, 10});
    const auto c = sortedList({4, 8, 12});
    std::array<std::span<const VertexId>, 3> lists{a, b, c};
    std::vector<VertexId> out;
    std::vector<VertexId> scratch;
    core::intersectMany({lists.data(), 3}, out, scratch);
    EXPECT_EQ(out, sortedList({4, 8}));
    Count count = 0;
    std::vector<VertexId> s2;
    core::intersectManyCount({lists.data(), 3}, count, out, s2);
    EXPECT_EQ(count, 2u);
}

TEST(Intersect, SingleListPassesThrough)
{
    const auto a = sortedList({5, 9});
    std::array<std::span<const VertexId>, 1> lists{a};
    std::vector<VertexId> out;
    std::vector<VertexId> scratch;
    core::intersectMany({lists.data(), 1}, out, scratch);
    EXPECT_EQ(out, a);
}

TEST(Intersect, ContainsBinarySearch)
{
    const auto list = sortedList({2, 4, 8, 16});
    EXPECT_TRUE(core::contains(list, 8));
    EXPECT_FALSE(core::contains(list, 7));
    EXPECT_FALSE(core::contains({}, 1));
}

TEST(Chunk, AppendAndRecover)
{
    Chunk chunk(1 << 20);
    const auto i0 = chunk.add(10, core::kNoParent, true);
    const auto i1 = chunk.add(20, i0, false);
    EXPECT_EQ(chunk.size(), 2u);
    EXPECT_EQ(chunk.vertex(i1), 20u);
    EXPECT_EQ(chunk.parent(i1), i0);
    EXPECT_TRUE(chunk.needsFetch(i0));
    EXPECT_FALSE(chunk.needsFetch(i1));
}

TEST(Chunk, FrontierColumnsExposeContiguousLayout)
{
    // The level-wise frontier layout: vertex/parent columns are
    // index-aligned spans over the whole chunk, and the fetch list is
    // the ascending index column of exactly the entries added with
    // needs_fetch — the fetch phase walks it as one contiguous run.
    Chunk chunk(1 << 20);
    const auto i0 = chunk.add(10, core::kNoParent, true);
    const auto i1 = chunk.add(20, i0, false);
    const auto i2 = chunk.add(30, i0, true);
    const auto i3 = chunk.add(40, i1, true);

    const auto verts = chunk.vertexColumn();
    const auto parents = chunk.parentColumn();
    ASSERT_EQ(verts.size(), chunk.size());
    ASSERT_EQ(parents.size(), chunk.size());
    for (std::uint32_t i = 0; i < chunk.size(); ++i) {
        EXPECT_EQ(verts[i], chunk.vertex(i));
        EXPECT_EQ(parents[i], chunk.parent(i));
    }

    const auto fetch = chunk.fetchList();
    EXPECT_EQ(std::vector<std::uint32_t>(fetch.begin(), fetch.end()),
              (std::vector<std::uint32_t>{i0, i2, i3}));
    EXPECT_TRUE(std::is_sorted(fetch.begin(), fetch.end()));

    chunk.reset();
    EXPECT_TRUE(chunk.fetchList().empty());
    EXPECT_TRUE(chunk.vertexColumn().empty());
}

TEST(Chunk, BudgetGatesFullness)
{
    Chunk chunk(Chunk::kEntryBytes * 3);
    EXPECT_FALSE(chunk.full());
    chunk.add(1, core::kNoParent, false);
    chunk.add(2, core::kNoParent, false);
    EXPECT_FALSE(chunk.full());
    chunk.add(3, core::kNoParent, false);
    EXPECT_TRUE(chunk.full());
    chunk.reset();
    EXPECT_FALSE(chunk.full());
    EXPECT_EQ(chunk.size(), 0u);
}

TEST(Chunk, SharedResultsAreReadableByAllSiblings)
{
    Chunk chunk(1 << 20);
    const auto a = chunk.add(1, core::kNoParent, false);
    const auto b = chunk.add(2, core::kNoParent, false);
    const auto result = sortedList({7, 8, 9});
    const auto offset = chunk.appendResult(result);
    chunk.setResultRef(a, offset, 3);
    chunk.setResultRef(b, offset, 3);
    EXPECT_EQ(std::vector<VertexId>(chunk.result(a).begin(),
                                    chunk.result(a).end()),
              result);
    EXPECT_EQ(chunk.result(b).data(), chunk.result(a).data());
}

TEST(Chunk, FetchedBytesCountTowardBudget)
{
    Chunk chunk(100);
    chunk.add(1, core::kNoParent, true);
    EXPECT_FALSE(chunk.full());
    chunk.addFetchedBytes(80);
    EXPECT_TRUE(chunk.full());
}

TEST(Horizontal, HitClaimDropSemantics)
{
    HorizontalTable table(64);
    const auto first = table.offer(5);
    EXPECT_EQ(first, HorizontalTable::Probe::Claimed);
    EXPECT_EQ(table.offer(5), HorizontalTable::Probe::Hit);
    // Find a colliding vertex (same slot, different id).
    VertexId collider = kInvalidVertex;
    for (VertexId v = 6; v < 100'000; ++v) {
        if (v != 5 && mix64(v) % 64 == mix64(5) % 64) {
            collider = v;
            break;
        }
    }
    ASSERT_NE(collider, kInvalidVertex);
    EXPECT_EQ(table.offer(collider), HorizontalTable::Probe::Dropped);
    table.clear();
    EXPECT_EQ(table.offer(collider), HorizontalTable::Probe::Claimed);
}

TEST(Cache, StaticRespectsDegreeThresholdAndFreeze)
{
    const Graph g = gen::star(100); // hub degree 99, leaves 1
    DataCache cache(g, core::CachePolicy::Static, 1 << 10, 10);
    EXPECT_FALSE(cache.insert(5));  // leaf: below threshold
    EXPECT_TRUE(cache.insert(0));   // hub qualifies
    EXPECT_TRUE(cache.lookup(0));
    EXPECT_FALSE(cache.lookup(5));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, StaticFreezesWhenFull)
{
    const Graph g = gen::complete(32); // all degrees 31 (124B each)
    DataCache cache(g, core::CachePolicy::Static, 300, 4);
    EXPECT_TRUE(cache.insert(0));
    EXPECT_TRUE(cache.insert(1));
    EXPECT_FALSE(cache.insert(2)); // would exceed capacity: freeze
    EXPECT_TRUE(cache.fullForever());
    EXPECT_FALSE(cache.insert(3)); // frozen forever
    EXPECT_TRUE(cache.lookup(0));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    const Graph g = gen::complete(32);
    DataCache cache(g, core::CachePolicy::Lru, 300, 0);
    cache.insert(0);
    cache.insert(1);
    EXPECT_TRUE(cache.lookup(0)); // 0 is now most recent
    cache.insert(2);              // evicts 1
    EXPECT_TRUE(cache.lookup(0));
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, MruEvictsMostRecentlyUsed)
{
    const Graph g = gen::complete(32);
    DataCache cache(g, core::CachePolicy::Mru, 300, 0);
    cache.insert(0);
    cache.insert(1);
    EXPECT_TRUE(cache.lookup(0)); // 0 becomes most recent
    cache.insert(2);              // evicts 0
    EXPECT_FALSE(cache.lookup(0));
    EXPECT_TRUE(cache.lookup(1));
}

TEST(Cache, FifoAndLifoEvictionOrder)
{
    const Graph g = gen::complete(32);
    DataCache fifo(g, core::CachePolicy::Fifo, 300, 0);
    fifo.insert(0);
    fifo.insert(1);
    fifo.insert(2); // evicts 0 (first in)
    EXPECT_FALSE(fifo.lookup(0));
    EXPECT_TRUE(fifo.lookup(1));

    DataCache lifo(g, core::CachePolicy::Lifo, 300, 0);
    lifo.insert(0);
    lifo.insert(1);
    lifo.insert(2); // evicts 1 (last in)
    EXPECT_TRUE(lifo.lookup(0));
    EXPECT_FALSE(lifo.lookup(1));
}

TEST(Cache, ZeroCapacityDisables)
{
    const Graph g = gen::complete(8);
    DataCache cache(g, core::CachePolicy::Static, 0, 0);
    EXPECT_EQ(cache.policy(), core::CachePolicy::None);
    EXPECT_FALSE(cache.insert(0));
    EXPECT_FALSE(cache.lookup(0));
}

TEST(Cache, OversizedListIsRejectedWithoutEvictionStorm)
{
    const Graph g = gen::star(1000); // hub list ~4KB
    DataCache cache(g, core::CachePolicy::Lru, 64, 0);
    cache.insert(5); // leaf fits
    EXPECT_FALSE(cache.insert(0)); // hub larger than whole cache
    EXPECT_TRUE(cache.lookup(5));  // nothing was evicted for it
}

/** The loop ChargeReplay stands in for. */
double
chargeLoop(double x, double first, double second, bool pair, Count n)
{
    for (Count i = 0; i < n; ++i) {
        x += first;
        if (pair)
            x += second;
    }
    return x;
}

TEST(ChargeReplay, MatchesTheLoopBitForBit)
{
    Rng rng(20260417);
    const auto uniform = [&](double lo, double hi) {
        return lo + (hi - lo) * rng.nextDouble();
    };
    const auto constant = [&]() -> double {
        switch (rng.nextBounded(8)) {
        case 0: return 0.0;
        case 1: return 1.0;
        case 2: return 0.8; // a tie in [2,4)
        case 3: return 0.75;
        case 4: return std::ldexp(uniform(0.5, 1.0),
                                  -60 - static_cast<int>(
                                      rng.nextBounded(40)));
        case 5: return std::ldexp(uniform(1.0, 2.0),
                                  40 + static_cast<int>(
                                      rng.nextBounded(12)));
        case 6: return uniform(0.0, 10.0);
        default:
            return std::ldexp(uniform(1.0, 2.0),
                              static_cast<int>(rng.nextBounded(80)) - 50);
        }
    };
    const auto start = [&]() -> double {
        switch (rng.nextBounded(7)) {
        case 0: return 0.0;
        case 1: return static_cast<double>(rng.nextBounded(1 << 20));
        case 2: return static_cast<double>(
                    (std::uint64_t{1} << 53) - rng.nextBounded(1 << 16));
        case 3: return static_cast<double>(rng.nextBounded(5000)) * 1.2;
        case 4: return uniform(0.0, 1e6);
        case 5: { // just below a power of two
            const double p = std::ldexp(
                1.0, static_cast<int>(rng.nextBounded(70)) - 10);
            return rng.nextBounded(2) ? std::nextafter(p, 0.0)
                                      : p - uniform(0.0, 4.0) * p / 64;
        }
        default: // subnormal
            return std::numeric_limits<double>::denorm_min()
                * static_cast<double>(1 + rng.nextBounded(1 << 30));
        }
    };
    const auto rounds = [&]() -> Count {
        const std::uint64_t r = rng.nextBounded(10000);
        if (r < 5000)
            return rng.nextBounded(2 * ChargeReplay::kShortRun + 1);
        if (r < 7000) // around the zero-prefix cutoff
            return ChargeReplay::kZeroPrefix - 4 + rng.nextBounded(9);
        if (r < 9995)
            return rng.nextBounded(2000);
        return rng.nextBounded((1 << 20) + 1);
    };

    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    // The engine's constants first, then random pairs.
    for (int trial = 0; trial < 300; ++trial) {
        const double first = trial == 0 ? 1.0 : constant();
        const double second = trial == 0 ? 0.8 : constant();
        const ChargeReplay single(first);
        const ChargeReplay pair(first, second);
        for (int i = 0; i < 3400; ++i, ++cases) {
            const double x = start();
            const Count n = i == 0 ? (1 << 20) : rounds();
            const bool paired = i % 2 == 0;
            const double got = (paired ? pair : single).apply(x, n);
            const double want = chargeLoop(x, first, second, paired, n);
            if (std::bit_cast<std::uint64_t>(got)
                != std::bit_cast<std::uint64_t>(want)) {
                if (++mismatches <= 5)
                    ADD_FAILURE()
                        << std::hexfloat << "x=" << x << " first=" << first
                        << " second=" << second << " paired=" << paired
                        << " n=" << n << ": " << got << " != " << want;
            }
        }
    }
    EXPECT_GE(cases, 1000000u);
    EXPECT_EQ(mismatches, 0u);
}

TEST(ChargeReplay, StepsTiesNegativesAndNonFinitesLikeTheLoop)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double first : {1.0, 0.8, -0.8, -0.0, inf, nan})
        for (const double second : {0.8, 0.0, -1.0, inf})
            for (const double x : {0.0, -0.0, 2.0, 3.9, -5.5, inf, nan,
                                   0x1p52, 0x1p53})
                for (const Count n : {Count{0}, Count{16}, Count{1000},
                                      Count{70000}}) {
                    const ChargeReplay single(first);
                    const ChargeReplay pair(first, second);
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                                  single.apply(x, n)),
                              std::bit_cast<std::uint64_t>(
                                  chargeLoop(x, first, 0, false, n)));
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                                  pair.apply(x, n)),
                              std::bit_cast<std::uint64_t>(
                                  chargeLoop(x, first, second, true, n)))
                        << x << " " << first << " " << second << " " << n;
                }
}

} // namespace
} // namespace khuzdul
