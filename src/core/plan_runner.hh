/**
 * @file
 * Single-machine DFS plan interpreter.  This is the nested-loop
 * execution the paper's Figure 1 shows — the code shape Automine
 * and GraphPi compile to.  It backs the single-machine baselines
 * (AutomineIH, the Peregrine/Pangolin-like engines), the
 * replicated-graph GraphPi baseline, and the per-tree computation
 * of G-thinker.  Only the recursion lives here: each loop level is
 * core/extender's PlanStep, the same step the distributed engine's
 * chunked explorer runs, so both paths charge identical work.
 */

#ifndef KHUZDUL_CORE_PLAN_RUNNER_HH
#define KHUZDUL_CORE_PLAN_RUNNER_HH

#include <span>

#include "core/extender.hh"
#include "core/visitor.hh"
#include "graph/graph.hh"
#include "pattern/plan.hh"
#include "sim/cost_model.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/**
 * Work and result counters of one runner invocation.  The work
 * counts are a sim::WorkTally (price with CostModel::workNs):
 * kernel items, candidates checked and partial embeddings (internal
 * tree nodes) visited; `terminals` stays 0, as no baseline charges
 * a terminal invocation.
 */
struct RunnerResult : sim::WorkTally
{
    /** Matches found, before dividing by plan.countDivisor. */
    std::int64_t rawCount = 0;

    /** Adds @p other in; the raw count is checked (addRawCount). */
    void
    accumulate(const RunnerResult &other)
    {
        rawCount =
            addRawCount(rawCount, other.rawCount, "a runner result");
        *this += other;
    }
};

/**
 * Enumerate the embedding trees rooted at @p roots under @p plan.
 *
 * @param visitor optional; called per complete embedding (requires
 *        a plan without IEP and with countDivisor == 1).
 * @param hooks optional enumeration observer.
 */
RunnerResult runPlanDfs(const Graph &g, const ExtendPlan &plan,
                        std::span<const VertexId> roots,
                        MatchVisitor *visitor = nullptr,
                        RunnerHooks *hooks = nullptr);

/** Convenience: run from every vertex and apply the divisor. */
Count countWithPlan(const Graph &g, const ExtendPlan &plan);

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_PLAN_RUNNER_HH
