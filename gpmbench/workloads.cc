#include "workloads.hh"

#include <algorithm>
#include <bit>

#include "graph/generators.hh"
#include "support/rng.hh"

namespace gpmbench
{

namespace
{

// The datasets.cc stand-in recipes the workloads re-seed.
const Recipe kLiveJournal{"lj", 16'000, 110'000, 0.55, 0.2, 0.2, 1003};
const Recipe kMiCo{"mc", 4'000, 55'000, 0.45, 0.2, 0.2, 1001};

/** bench_common.hh's standInEngineConfig: 8 nodes x 2 sockets = 16
 *  execution units, 1 MB chunks, 15% static cache. */
core::EngineConfig
standInConfig(unsigned host_threads)
{
    core::EngineConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(8);
    config.chunkBytes = 1ull << 20;
    config.cacheFraction = 0.15;
    config.cacheDegreeThreshold = 32;
    config.hostThreads = host_threads;
    return config;
}

} // namespace

EdgeList
rmatEdges(const Recipe &recipe, std::uint64_t seed)
{
    // The recipe's own edge stream, drawn exactly as gen::rmat draws
    // it at the recipe's seed (the reference run checks this).
    const int levels = std::bit_width(
        std::bit_ceil<std::uint64_t>(recipe.vertices)) - 1;
    Rng rng(recipe.seed);
    std::vector<VertexId> relabel(recipe.vertices);
    for (VertexId v = 0; v < recipe.vertices; ++v)
        relabel[v] = v;
    for (VertexId v = recipe.vertices - 1; v > 0; --v)
        std::swap(relabel[v],
                  relabel[static_cast<VertexId>(rng.nextBounded(v + 1))]);
    EdgeList edges;
    edges.reserve(recipe.edges);
    for (EdgeId i = 0; i < recipe.edges; ++i) {
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        for (int level = 0; level < levels; ++level) {
            const double r = rng.nextDouble();
            u <<= 1;
            v <<= 1;
            if (r < recipe.a) {
            } else if (r < recipe.a + recipe.b) {
                v |= 1;
            } else if (r < recipe.a + recipe.b + recipe.c) {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        edges.emplace_back(relabel[u % recipe.vertices],
                           relabel[v % recipe.vertices]);
    }
    const std::vector<VertexId> ids = seededIds(recipe, seed);
    for (auto &[u, v] : edges) {
        u = ids[u];
        v = ids[v];
    }
    return edges;
}

std::vector<VertexId>
seededIds(const Recipe &recipe, std::uint64_t seed)
{
    std::vector<VertexId> ids(recipe.vertices);
    for (VertexId v = 0; v < recipe.vertices; ++v)
        ids[v] = v;
    if (seed == recipe.seed)
        return ids;
    // Shuffle ids only among vertices of equal degree.
    const Graph g = gen::rmat(recipe.vertices, recipe.edges, recipe.a,
                              recipe.b, recipe.c, recipe.seed);
    std::vector<VertexId> order = ids;
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId x, VertexId y) {
                         return g.degree(x) < g.degree(y);
                     });
    Rng rng(seed);
    std::size_t begin = 0;
    while (begin < order.size()) {
        std::size_t end = begin + 1;
        while (end < order.size()
               && g.degree(order[end]) == g.degree(order[begin]))
            ++end;
        std::vector<VertexId> slot(order.begin() + begin, order.begin() + end);
        for (std::size_t i = slot.size() - 1; i > 0; --i)
            std::swap(slot[i], slot[rng.nextBounded(i + 1)]);
        for (std::size_t i = begin; i < end; ++i)
            ids[order[i]] = slot[i - begin];
        begin = end;
    }
    return ids;
}

Workload
workloadByName(const std::string &name, unsigned host_threads)
{
    Workload w;
    w.name = name;
    if (name == "clique_lj") {
        // Kernel-bound: bitmap and SIMD-merge intersections dominate,
        // few 1 MB chunks, small memory.
        w.recipe = kLiveJournal;
        w.style = engines::CompilerStyle::GraphPi;
        w.config = standInConfig(host_threads);
        w.queries = {{"TC", Pattern::triangle(), false},
                     {"4-CC", Pattern::clique(4), false},
                     {"5-CC", Pattern::clique(5), false}};
    } else if (name == "cycle_lj") {
        // Memory-bound: huge non-clique candidate sets, accept()
        // filtering, induced subtraction and buffered probe events.
        w.recipe = kLiveJournal;
        w.style = engines::CompilerStyle::Automine;
        w.config = standInConfig(host_threads);
        w.queries = {{"4-cycle", Pattern::cycleOf(4), false},
                     {"3-MC.path", Pattern::pathOf(3), true},
                     {"3-MC.triangle", Pattern::triangle(), true}};
    } else if (name == "serve_mix") {
        // Fixed per-query costs: thousands of tiny 4 KB chunks per
        // query (bench_common.hh's cacheRegimeConfig), the eight-shape
        // mix of bench_service cycled, four virtual clients.
        w.recipe = kMiCo;
        w.style = engines::CompilerStyle::Automine;
        w.config = standInConfig(host_threads);
        w.config.chunkBytes = 4ull << 10;
        w.config.cacheFraction = 0.45;
        w.config.cacheDegreeThreshold = 64;
        const std::vector<Query> shapes = {
            {"triangle", Pattern::triangle(), false},
            {"path3", Pattern::pathOf(3), false},
            {"cycle4", Pattern::cycleOf(4), false},
            {"diamond", Pattern::diamond(), false},
            {"tailed", Pattern::tailedTriangle(), false},
            {"clique4", Pattern::clique(4), false},
            {"star4", Pattern::starOf(4), false},
            {"path4", Pattern::pathOf(4), false}};
        for (int round = 0; round < 4; ++round)
            w.queries.insert(w.queries.end(), shapes.begin(),
                             shapes.end());
        w.served = true;
        w.clients = 4;
    } else if (name == "degraded_steal") {
        // The fault, recovery and steal paths: node 7 runs at 1/6
        // bandwidth both ways, three links drop one message each and
        // unit 5 crashes at its second level-1 chunk.  64 KB chunks
        // are small enough for that chunk to exist.  The query list is
        // bench_steal's application set, so the latency percentiles
        // fall inside one query's samples rather than on one short
        // query's tail.
        w.recipe = kLiveJournal;
        w.style = engines::CompilerStyle::GraphPi;
        w.config = standInConfig(host_threads);
        w.config.chunkBytes = 64ull << 10;
        w.config.stealEnabled = true;
        for (const char *spec :
             {"degrade:7-*:factor=6:from=0", "degrade:*-7:factor=6:from=0",
              "drop:0-1:msg=2", "drop:2-3:msg=3", "drop:4-6:msg=2",
              "crash:5:level=1:chunk=2"})
            w.config.faults.add(spec);
        w.queries = {{"TC", Pattern::triangle(), false},
                     {"3-MC.path", Pattern::pathOf(3), true},
                     {"3-MC.triangle", Pattern::triangle(), true},
                     {"4-CC", Pattern::clique(4), false},
                     {"5-CC", Pattern::clique(5), false}};
        w.expectFaultPath = true;
    } else {
        w.name.clear();
    }
    return w;
}

engines::CompilerStyle
otherStyle(engines::CompilerStyle style)
{
    return style == engines::CompilerStyle::GraphPi
        ? engines::CompilerStyle::Automine
        : engines::CompilerStyle::GraphPi;
}

} // namespace gpmbench
