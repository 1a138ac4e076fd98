/**
 * @file
 * Google-benchmark microbenchmarks for the engine's hot primitives:
 * sorted-list intersection and count-above kernels, the horizontal
 * dedup table, chunk arena append/reset, cache probes and plan
 * compilation.
 */

#include <benchmark/benchmark.h>

#include "core/cache.hh"
#include "core/chunk.hh"
#include "core/horizontal.hh"
#include "core/kernels/kernels.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "support/rng.hh"

namespace
{

using namespace khuzdul;

std::vector<VertexId>
sortedRandomList(std::size_t size, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<VertexId> list(size);
    for (auto &v : list)
        v = static_cast<VertexId>(rng.nextBounded(1 << 20));
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return list;
}

void
BM_IntersectPair(benchmark::State &state)
{
    const auto a = sortedRandomList(state.range(0), 1);
    const auto b = sortedRandomList(state.range(0), 2);
    std::vector<VertexId> out;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::intersectInto(a, b, out));
    }
    state.SetItemsProcessed(state.iterations()
                            * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectPair)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_IntersectCount(benchmark::State &state)
{
    const auto a = sortedRandomList(state.range(0), 3);
    const auto b = sortedRandomList(state.range(0), 4);
    for (auto _ : state) {
        Count count = 0;
        benchmark::DoNotOptimize(core::intersectCount(a, b, count));
    }
    state.SetItemsProcessed(state.iterations()
                            * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectCount)->Arg(1024)->Arg(16384);

void
BM_IntersectMany(benchmark::State &state)
{
    std::vector<std::vector<VertexId>> lists;
    for (int i = 0; i < state.range(0); ++i)
        lists.push_back(sortedRandomList(4096, 10 + i));
    std::vector<std::span<const VertexId>> spans(lists.begin(),
                                                 lists.end());
    std::vector<VertexId> out;
    std::vector<VertexId> scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::intersectMany({spans.data(), spans.size()}, out,
                                scratch));
    }
}
BENCHMARK(BM_IntersectMany)->Arg(2)->Arg(4)->Arg(6);

/**
 * Skewed-ratio intersections: a small list against one range(0)
 * times larger.  Run per kernel so the crossover points behind the
 * dispatch heuristics (kGallopRatio) are visible side by side.
 */
void
BM_IntersectSkewMerge(benchmark::State &state)
{
    const auto small = sortedRandomList(256, 21);
    const auto large =
        sortedRandomList(256 * state.range(0), 22);
    std::vector<VertexId> out;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::intersectInto(small, large, out));
    state.SetItemsProcessed(state.iterations()
                            * (small.size() + large.size()));
}
BENCHMARK(BM_IntersectSkewMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_IntersectSkewGallop(benchmark::State &state)
{
    const auto small = sortedRandomList(256, 21);
    const auto large =
        sortedRandomList(256 * state.range(0), 22);
    std::vector<VertexId> out;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::gallopIntersectInto(small, large, out));
    state.SetItemsProcessed(state.iterations()
                            * (small.size() + large.size()));
}
BENCHMARK(BM_IntersectSkewGallop)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_IntersectSkewDispatch(benchmark::State &state)
{
    const auto small = sortedRandomList(256, 21);
    const auto large =
        sortedRandomList(256 * state.range(0), 22);
    core::KernelDispatcher dispatcher;
    std::vector<VertexId> out;
    for (auto _ : state)
        benchmark::DoNotOptimize(dispatcher.intersectInto(
            core::ListRef(small), core::ListRef(large), out));
    state.SetItemsProcessed(state.iterations()
                            * (small.size() + large.size()));
}
BENCHMARK(BM_IntersectSkewDispatch)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/** AVX2 block merge on near-equal lists (scalar fallback when the
 *  host lacks AVX2 — compare against BM_IntersectPair). */
void
BM_IntersectSimdMerge(benchmark::State &state)
{
    const auto a = sortedRandomList(state.range(0), 1);
    const auto b = sortedRandomList(state.range(0), 2);
    std::vector<VertexId> out;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::simdMergeIntersectInto(a, b, out));
    state.SetItemsProcessed(state.iterations()
                            * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectSimdMerge)->Arg(64)->Arg(1024)->Arg(16384);

/** SIMD gallop on the skew sweep (compare BM_IntersectSkewGallop). */
void
BM_IntersectSkewSimdGallop(benchmark::State &state)
{
    const auto small = sortedRandomList(256, 21);
    const auto large =
        sortedRandomList(256 * state.range(0), 22);
    std::vector<VertexId> out;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::simdGallopIntersectInto(small, large, out));
    state.SetItemsProcessed(state.iterations()
                            * (small.size() + large.size()));
}
BENCHMARK(BM_IntersectSkewSimdGallop)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

/** A skewed rmat graph with hub rows, and its highest-degree
 *  vertex. */
std::pair<Graph, VertexId>
hubGraph()
{
    Graph g = gen::rmat(16384, 262144, 0.6, 0.15, 0.15, 11);
    g.buildHubBitmaps(32, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    return {std::move(g), hub};
}

/** A sorted driving list of vertices of @p g: a bitmap row covers
 *  only the graph's vertex range. */
std::vector<VertexId>
driverFor(const Graph &g, std::size_t size, std::uint64_t seed)
{
    auto list = sortedRandomList(size, seed);
    for (VertexId &v : list)
        v %= g.numVertices();
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return list;
}

/** Bitmap kernel against a real hub row on a skewed rmat graph. */
void
BM_IntersectBitmapHub(benchmark::State &state)
{
    const auto [g, hub] = hubGraph();
    const auto small = driverFor(g, state.range(0), 23);
    const auto hub_list = g.neighbors(hub);
    const std::uint64_t *row = g.hubBitmapRow(hub);
    std::vector<VertexId> out;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::bitmapIntersectInto(
            small, hub_list, row, out));
    state.SetItemsProcessed(state.iterations()
                            * (small.size() + hub_list.size()));
}
BENCHMARK(BM_IntersectBitmapHub)->Arg(16)->Arg(64)->Arg(256);

/**
 * Count-above kernels (count-only terminal levels): |a ∩ b| and how
 * many of its elements are >= a bound, in one pass.  Each row pairs
 * with the materializing row of the same kernel above; the bound
 * sits at the driving list's median.
 */
void
BM_IntersectCountAboveMerge(benchmark::State &state)
{
    const auto a = sortedRandomList(state.range(0), 1);
    const auto b = sortedRandomList(state.range(0), 2);
    const VertexId bound = a[a.size() / 2];
    for (auto _ : state) {
        Count total = 0;
        Count above = 0;
        benchmark::DoNotOptimize(
            core::intersectCountAbove(a, b, bound, total, above));
    }
    state.SetItemsProcessed(state.iterations()
                            * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectCountAboveMerge)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_IntersectCountAboveSimd(benchmark::State &state)
{
    const auto a = sortedRandomList(state.range(0), 1);
    const auto b = sortedRandomList(state.range(0), 2);
    const VertexId bound = a[a.size() / 2];
    for (auto _ : state) {
        Count total = 0;
        Count above = 0;
        benchmark::DoNotOptimize(core::simdMergeIntersectCountAbove(
            a, b, bound, total, above));
    }
    state.SetItemsProcessed(state.iterations()
                            * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectCountAboveSimd)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_IntersectCountAboveGallop(benchmark::State &state)
{
    const auto small = sortedRandomList(256, 21);
    const auto large =
        sortedRandomList(256 * state.range(0), 22);
    const VertexId bound = small[small.size() / 2];
    for (auto _ : state) {
        Count total = 0;
        Count above = 0;
        benchmark::DoNotOptimize(core::gallopIntersectCountAbove(
            small, large, bound, total, above));
    }
    state.SetItemsProcessed(state.iterations()
                            * (small.size() + large.size()));
}
BENCHMARK(BM_IntersectCountAboveGallop)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

void
BM_IntersectCountAboveBitmap(benchmark::State &state)
{
    const auto [g, hub] = hubGraph();
    const auto small = driverFor(g, state.range(0), 23);
    const auto hub_list = g.neighbors(hub);
    const std::uint64_t *row = g.hubBitmapRow(hub);
    const VertexId bound = small[small.size() / 2];
    for (auto _ : state) {
        Count total = 0;
        Count above = 0;
        benchmark::DoNotOptimize(core::bitmapIntersectCountAbove(
            small, hub_list, row, bound, total, above));
    }
    state.SetItemsProcessed(state.iterations()
                            * (small.size() + hub_list.size()));
}
BENCHMARK(BM_IntersectCountAboveBitmap)->Arg(16)->Arg(64)->Arg(256);

/**
 * Membership probe at list sizes around kContainsLinearCutoff: the
 * linear/binary pair this sweep sizes the cutoff from, plus the
 * dispatching contains() itself.
 */
void
BM_ContainsLinear(benchmark::State &state)
{
    const auto list = sortedRandomList(state.range(0), 31);
    Rng rng(32);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::containsLinear(
            list, static_cast<VertexId>(rng.nextBounded(1 << 20))));
}
BENCHMARK(BM_ContainsLinear)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void
BM_ContainsBinary(benchmark::State &state)
{
    const auto list = sortedRandomList(state.range(0), 31);
    Rng rng(32);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::containsBinary(
            list, static_cast<VertexId>(rng.nextBounded(1 << 20))));
}
BENCHMARK(BM_ContainsBinary)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void
BM_Contains(benchmark::State &state)
{
    const auto list = sortedRandomList(state.range(0), 31);
    Rng rng(32);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::contains(
            list, static_cast<VertexId>(rng.nextBounded(1 << 20))));
}
BENCHMARK(BM_Contains)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void
BM_HorizontalTable(benchmark::State &state)
{
    core::HorizontalTable table(1 << 15);
    Rng rng(7);
    std::vector<VertexId> vertices(4096);
    for (auto &v : vertices)
        v = static_cast<VertexId>(rng.nextBounded(1 << 16));
    for (auto _ : state) {
        table.clear();
        for (const VertexId v : vertices)
            benchmark::DoNotOptimize(table.offer(v));
    }
    state.SetItemsProcessed(state.iterations() * vertices.size());
}
BENCHMARK(BM_HorizontalTable);

void
BM_ChunkAppendReset(benchmark::State &state)
{
    core::Chunk chunk(64 << 20);
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < 4096; ++i)
            chunk.add(i, i / 8, true);
        chunk.reset();
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ChunkAppendReset);

void
BM_StaticCacheProbe(benchmark::State &state)
{
    const Graph g = gen::rmat(4096, 32768, 0.55, 0.2, 0.2, 5);
    core::DataCache cache(g, core::CachePolicy::Static,
                          g.sizeBytes() / 4, 16);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        cache.insert(v);
    Rng rng(9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(
            static_cast<VertexId>(rng.nextBounded(g.numVertices()))));
    }
}
BENCHMARK(BM_StaticCacheProbe);

void
BM_LruCacheProbe(benchmark::State &state)
{
    const Graph g = gen::rmat(4096, 32768, 0.55, 0.2, 0.2, 5);
    core::DataCache cache(g, core::CachePolicy::Lru,
                          g.sizeBytes() / 4, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        cache.insert(v);
    Rng rng(9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(
            static_cast<VertexId>(rng.nextBounded(g.numVertices()))));
    }
}
BENCHMARK(BM_LruCacheProbe);

void
BM_CompilePlanAutomine(benchmark::State &state)
{
    const Pattern p = Pattern::clique(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(compileAutomine(p, {}));
}
BENCHMARK(BM_CompilePlanAutomine);

void
BM_CompilePlanGraphPi(benchmark::State &state)
{
    const Pattern p = Pattern::clique(4);
    const GraphProfile profile{100000.0, 20.0};
    for (auto _ : state)
        benchmark::DoNotOptimize(compileGraphPi(p, profile, {}));
}
BENCHMARK(BM_CompilePlanGraphPi);

} // namespace

BENCHMARK_MAIN();
