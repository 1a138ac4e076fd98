/**
 * @file
 * The benchmark's workloads: which graph recipe, compiler style,
 * engine configuration and query list each one runs, and why (see
 * METRICS.md for the layer each workload is meant to load).
 */

#ifndef GPMBENCH_WORKLOADS_HH
#define GPMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "engines/khuzdul_system.hh"
#include "pattern/pattern.hh"
#include "support/types.hh"

namespace gpmbench
{

using namespace khuzdul;

/** An R-MAT stand-in recipe of graph/datasets.cc, re-seedable. */
struct Recipe
{
    std::string abbr;
    VertexId vertices = 0;
    EdgeId edges = 0;
    double a = 0, b = 0, c = 0;
    /** The recipe's own seed in datasets.cc (the default --seed). */
    std::uint64_t seed = 0;
};

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/**
 * The raw edge records of @p recipe's graph with its vertex ids
 * permuted by seededIds(recipe, seed).  Generating them apart from
 * the build keeps edge generation out of the timed set-up.
 */
EdgeList rmatEdges(const Recipe &recipe, std::uint64_t seed);

/**
 * The id each recipe vertex gets at @p seed: identity at the
 * recipe's own seed, else a seeded uniform permutation.  Every seed
 * gives a graph isomorphic to the recipe's, so seeds vary vertex
 * placement (hash partition, id-based symmetry breaking, orientation
 * ties) but not the pattern counts or degree sequence.
 */
std::vector<VertexId> seededIds(const Recipe &recipe, std::uint64_t seed);

/** One query of a pass: a pattern and how it is matched. */
struct Query
{
    std::string name;
    Pattern pattern;
    bool induced = false;
};

struct Workload
{
    std::string name;
    Recipe recipe;
    engines::CompilerStyle style = engines::CompilerStyle::GraphPi;
    /** Graph half (GraphSetup) plus session half; hostThreads is
     *  the host's processor count. */
    core::EngineConfig config;
    /** The query list of one pass. */
    std::vector<Query> queries;
    /** Served through one QueryService by a closed loop of
     *  `clients` virtual clients, instead of run one by one. */
    bool served = false;
    unsigned clients = 0;
    /** Non-vacuity: every pass must crash a unit, steal and retry. */
    bool expectFaultPath = false;
};

/** The workload @p name; empty name when unknown. */
Workload workloadByName(const std::string &name, unsigned host_threads);

/** The other compiler style (correctness reference). */
engines::CompilerStyle otherStyle(engines::CompilerStyle style);

} // namespace gpmbench

#endif // GPMBENCH_WORKLOADS_HH
