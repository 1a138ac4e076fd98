/**
 * @file
 * Frequent Subgraph Mining (§7.1): find every labeled pattern with
 * at most a given number of edges whose MNI (minimum-image) support
 * reaches a threshold.  Mining is level-wise over edge count with
 * anti-monotone pruning (MNI support never grows when a pattern is
 * extended), and support is computed from the engine's UDF stream
 * of embeddings with automorphism-orbit domain merging.
 *
 * The miner is backend-agnostic so the same algorithm runs on the
 * distributed Khuzdul systems and on single-machine baselines.
 */

#ifndef KHUZDUL_APPS_FSM_HH
#define KHUZDUL_APPS_FSM_HH

#include <vector>

#include "core/visitor.hh"
#include "engines/khuzdul_system.hh"
#include "graph/graph.hh"
#include "pattern/pattern.hh"
#include "sim/cost_model.hh"

namespace khuzdul
{
namespace apps
{

/** FSM parameters (the paper mines patterns with <= 3 edges). */
struct FsmConfig
{
    Count minSupport = 1;
    int maxEdges = 3;
};

/** One frequent pattern with its MNI support. */
struct FrequentPattern
{
    Pattern pattern;
    Count support = 0;
};

/** Mining outcome plus evaluation counters. */
struct FsmResult
{
    std::vector<FrequentPattern> frequent;
    Count patternsEvaluated = 0;
};

/**
 * Enumeration backend: runs a pattern's embedding stream through a
 * visitor.  The pattern is labeled; plans must use full symmetry
 * breaking (the miner merges domains over orbits itself).
 */
class FsmBackend
{
  public:
    virtual ~FsmBackend() = default;

    /**
     * Enumerate embeddings of @p p through @p visitor.
     * @return the position-indexed (matching-order) pattern, which
     *         the caller needs to interpret the visitor's tuples.
     */
    virtual Pattern enumerate(const Pattern &p,
                              core::MatchVisitor *visitor) = 0;
};

/** Backend running on a Khuzdul system (k-Automine / k-GraphPi). */
class KhuzdulFsmBackend : public FsmBackend
{
  public:
    explicit KhuzdulFsmBackend(engines::KhuzdulSystem &system)
        : system_(&system)
    {}

    Pattern enumerate(const Pattern &p,
                      core::MatchVisitor *visitor) override;

  private:
    engines::KhuzdulSystem *system_;
};

/**
 * Backend running the single-machine DFS interpreter; accumulates
 * modeled work for runtime reporting.
 */
class SingleMachineFsmBackend : public FsmBackend
{
  public:
    explicit SingleMachineFsmBackend(const Graph &g)
        : graph_(&g)
    {}

    Pattern enumerate(const Pattern &p,
                      core::MatchVisitor *visitor) override;

    /** Work counted so far (price with sim::CostModel::workNs). */
    const sim::WorkTally &work() const { return work_; }

  private:
    const Graph *graph_;
    sim::WorkTally work_;
};

/**
 * MNI support of one pattern: enumerate through @p backend and
 * report the orbit-merged minimum image size.
 */
Count mniSupport(FsmBackend &backend, const Pattern &p);

/** Level-wise FSM over labeled patterns. */
FsmResult mineFrequentSubgraphs(FsmBackend &backend, const Graph &g,
                                const FsmConfig &config);

} // namespace apps
} // namespace khuzdul

#endif // KHUZDUL_APPS_FSM_HH
