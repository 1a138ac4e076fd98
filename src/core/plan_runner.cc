#include "core/plan_runner.hh"

#include <array>
#include <vector>

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

namespace
{

/** Recursive interpreter state shared across levels. */
struct Runner
{
    const ExtendPlan &plan;
    MatchVisitor *visitor;
    RunnerResult result;

    /** Baselines always run the adaptive dispatcher; charges are
     *  canonical, so their items match the pre-kernel runner. */
    PlanStep step;

    /** Candidate set each level was drawn from (VCS source). */
    std::array<std::vector<VertexId>, kMaxPatternSize> candidates{};

    IepMasks iep;
    CandidateTally tally;

    Runner(const Graph &graph, const ExtendPlan &p, MatchVisitor *vis,
           RunnerHooks *hooks)
        : plan(p), visitor(vis),
          step(graph, p, KernelMode::Auto, hooks)
    {}

    /** Build position @p t's candidates, each of which the caller
     *  then checks. */
    void
    buildCandidates(int t)
    {
        result.items +=
            step.buildCandidates(t, candidates[t - 1], candidates[t]);
        result.checks += candidates[t].size();
    }

    /** Terminal IEP block: count the suffix by inclusion-exclusion. */
    void
    terminalIep(int prefix_len)
    {
        step.iepMasks(prefix_len, candidates[prefix_len - 1], iep);
        for (std::size_t m = 0; m < plan.iep.masks.size(); ++m)
            result.items += iep.work[m];
        result.rawCount = addRawCount(
            result.rawCount, foldIep(plan.iep, iep.sizes),
            "the DFS runner");
    }

    /** Terminal without IEP: count position n-1 candidates, or
     *  scan them when a visitor needs the matches or the level is
     *  not countable. */
    void
    terminalScan()
    {
        const int t = plan.pattern.size() - 1;
        if (!visitor && step.countable(t)) {
            result.items += step.countCandidates(
                t, candidates[t - 1], candidates[t], tally);
            result.checks += tally.total;
            result.rawCount = addRawCount(
                result.rawCount,
                rawCountOf(tally.accepted(), "the DFS runner"),
                "the DFS runner");
            return;
        }
        buildCandidates(t);
        for (const VertexId candidate : candidates[t]) {
            if (!step.accept(t, candidate))
                continue;
            ++result.rawCount;
            if (visitor) {
                step.vertices[t] = candidate;
                visitor->match({step.vertices.data(),
                                static_cast<std::size_t>(t + 1)});
            }
        }
    }

    void
    recurse(int level)
    {
        ++result.embeddings;
        const int n = plan.pattern.size();
        const int prefix_len = plan.numMaterializedLevels();
        if (plan.hasIep && level == prefix_len - 1) {
            terminalIep(prefix_len);
            return;
        }
        if (!plan.hasIep && level == n - 2) {
            terminalScan();
            return;
        }
        const int t = level + 1;
        buildCandidates(t);
        // candidates[t] is iterated by index because deeper levels
        // reuse it (VCS) via candidates[t] itself; reallocation is
        // impossible since buildCandidates(t') with t' > t writes
        // other slots.
        for (std::size_t i = 0; i < candidates[t].size(); ++i) {
            const VertexId candidate = candidates[t][i];
            if (!step.accept(t, candidate))
                continue;
            step.vertices[t] = candidate;
            recurse(t);
        }
    }
};

} // namespace

RunnerResult
runPlanDfs(const Graph &g, const ExtendPlan &plan,
           std::span<const VertexId> roots, MatchVisitor *visitor,
           RunnerHooks *hooks)
{
    const int n = plan.pattern.size();
    KHUZDUL_REQUIRE(n >= 1, "plan has no levels");
    if (visitor) {
        KHUZDUL_REQUIRE(!plan.hasIep,
                        "visitors cannot observe IEP-folded embeddings");
        KHUZDUL_REQUIRE(plan.countDivisor == 1,
                        "visitors need complete symmetry breaking");
    }
    Runner runner(g, plan, visitor, hooks);
    const PlanLevel &root = plan.levels[0];
    for (const VertexId v : roots) {
        if (root.hasLabelFilter && g.label(v) != root.labelFilter)
            continue;
        runner.step.vertices[0] = v;
        if (n == 1) {
            ++runner.result.rawCount;
            ++runner.result.embeddings;
            if (visitor)
                visitor->match({runner.step.vertices.data(), 1});
            continue;
        }
        runner.recurse(0);
    }
    return runner.result;
}

Count
countWithPlan(const Graph &g, const ExtendPlan &plan)
{
    std::vector<VertexId> roots(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        roots[v] = v;
    const RunnerResult result = runPlanDfs(g, plan, roots);
    KHUZDUL_CHECK(result.rawCount >= 0, "negative raw count");
    KHUZDUL_CHECK(result.rawCount % plan.countDivisor == 0,
                  "raw count " << result.rawCount
                  << " not divisible by divisor " << plan.countDivisor);
    return static_cast<Count>(result.rawCount / plan.countDivisor);
}

} // namespace core
} // namespace khuzdul
