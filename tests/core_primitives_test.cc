/**
 * @file
 * Unit tests for the engine's building blocks: set kernels, the
 * chunk arena, the horizontal (collision-dropping) table and the
 * data caches with every replacement policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "core/cache.hh"
#include "core/chunk.hh"
#include "core/horizontal.hh"
#include "core/kernels/kernels.hh"
#include "graph/generators.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace
{

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

} // namespace
} // namespace khuzdul
