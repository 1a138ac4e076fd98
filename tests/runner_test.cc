/**
 * @file
 * Tests for the DFS plan runner and the brute-force oracle itself:
 * closed-form counts on structured graphs, visitor semantics, work
 * accounting, the plan step's overflow-checked IEP fold and
 * raw-count sums, and its counted-level tallies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>

#include "core/extender.hh"
#include "core/plan_runner.hh"
#include "graph/generators.hh"
#include "pattern/bruteforce.hh"
#include "pattern/planner.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace
{

Count
binomial(Count n, Count k)
{
    if (k > n)
        return 0;
    Count result = 1;
    for (Count i = 0; i < k; ++i)
        result = result * (n - i) / (i + 1);
    return result;
}

TEST(BruteForce, TrianglesInCompleteGraph)
{
    const Graph g = gen::complete(7);
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::triangle(), false),
              binomial(7, 3));
}

TEST(BruteForce, CliquesInCompleteGraph)
{
    const Graph g = gen::complete(8);
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::clique(4), false),
              binomial(8, 4));
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::clique(5), false),
              binomial(8, 5));
}

TEST(BruteForce, NoTrianglesInCycle)
{
    const Graph g = gen::cycle(10);
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::triangle(), false), 0u);
    // A C10 contains exactly one embedding of C10.
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::cycleOf(5), false), 0u);
}

TEST(BruteForce, WedgesInStar)
{
    const Graph g = gen::star(6); // hub + 5 leaves
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::pathOf(3), false),
              binomial(5, 2));
}

TEST(BruteForce, PathsInPath)
{
    const Graph g = gen::path(10);
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::pathOf(4), false), 7u);
}

TEST(BruteForce, InducedVersusNonInduced)
{
    const Graph g = gen::complete(5);
    // K5 has C(5,3) triangles but no induced wedge.
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::pathOf(3), true), 0u);
    EXPECT_GT(brute::countEmbeddings(g, Pattern::pathOf(3), false), 0u);
}

TEST(BruteForce, LabeledMatchRespectsLabels)
{
    Graph g = gen::cycle(4);
    g.setLabels({0, 1, 0, 1});
    Pattern edge01(2, {{0, 1}});
    edge01.setLabel(0, 0);
    edge01.setLabel(1, 1);
    EXPECT_EQ(brute::countEmbeddings(g, edge01, false), 4u);
    Pattern edge00(2, {{0, 1}});
    edge00.setLabel(0, 0);
    edge00.setLabel(1, 0);
    EXPECT_EQ(brute::countEmbeddings(g, edge00, false), 0u);
}

TEST(Runner, MatchesClosedFormsOnStructuredGraphs)
{
    const Graph k8 = gen::complete(8);
    for (int k = 3; k <= 5; ++k) {
        const auto plan = compileAutomine(Pattern::clique(k), {});
        EXPECT_EQ(core::countWithPlan(k8, plan), binomial(8, k));
    }
    const Graph c12 = gen::cycle(12);
    const auto cycle_plan = compileAutomine(Pattern::cycleOf(4), {});
    EXPECT_EQ(core::countWithPlan(c12, cycle_plan), 0u);
    const Graph grid = gen::grid(4, 5);
    // Each unit square of the grid is a 4-cycle: 3x4 squares.
    EXPECT_EQ(core::countWithPlan(grid, cycle_plan), 12u);
}

TEST(Runner, SingleVertexAndEdgePatterns)
{
    const Graph g = gen::rmat(100, 300, 0.5, 0.2, 0.2, 9);
    const auto v_plan = compileAutomine(Pattern(1), {});
    EXPECT_EQ(core::countWithPlan(g, v_plan), g.numVertices());
    const auto e_plan = compileAutomine(Pattern::pathOf(2), {});
    EXPECT_EQ(core::countWithPlan(g, e_plan), g.numEdges());
}

TEST(Runner, VisitorSeesEveryEmbeddingOnce)
{
    const Graph g = gen::complete(6);
    const auto plan = compileAutomine(Pattern::triangle(), {});
    std::set<std::set<VertexId>> seen;
    class Collect : public core::MatchVisitor
    {
      public:
        explicit Collect(std::set<std::set<VertexId>> &out) : out_(out) {}
        void
        match(std::span<const VertexId> positions) override
        {
            std::set<VertexId> key(positions.begin(), positions.end());
            EXPECT_EQ(key.size(), positions.size()) << "repeated vertex";
            EXPECT_TRUE(out_.insert(key).second) << "duplicate embedding";
        }

      private:
        std::set<std::set<VertexId>> &out_;
    } collector(seen);
    std::vector<VertexId> roots(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        roots[v] = v;
    core::runPlanDfs(g, plan, roots, &collector);
    EXPECT_EQ(seen.size(), 20u); // C(6,3)
}

TEST(Runner, VisitorRejectsIepPlans)
{
    const Graph g = gen::complete(5);
    GraphProfile profile{5.0, 4.0};
    const auto plan = compileGraphPi(Pattern::triangle(), profile, {});
    ASSERT_TRUE(plan.hasIep);
    class Nop : public core::MatchVisitor
    {
        void match(std::span<const VertexId>) override {}
    } visitor;
    std::vector<VertexId> roots{0};
    EXPECT_THROW(core::runPlanDfs(g, plan, roots, &visitor), FatalError);
}

TEST(Runner, WorkCountersArePopulated)
{
    const Graph g = gen::rmat(300, 2400, 0.55, 0.2, 0.2, 4);
    const auto plan = compileAutomine(Pattern::clique(4), {});
    std::vector<VertexId> roots(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        roots[v] = v;
    const auto result = core::runPlanDfs(g, plan, roots);
    EXPECT_GT(result.items, 0u);
    EXPECT_GT(result.checks, 0u);
    EXPECT_GT(result.embeddings, g.numVertices());
    EXPECT_EQ(result.terminals, 0u);
}

TEST(Runner, HooksObserveEdgeListAccesses)
{
    const Graph g = gen::complete(5);
    const auto plan = compileAutomine(Pattern::triangle(), {});
    class CountAccess : public core::RunnerHooks
    {
      public:
        Count accesses = 0;
        void onEdgeListAccess(VertexId) override { ++accesses; }
    } hooks;
    std::vector<VertexId> roots(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        roots[v] = v;
    core::runPlanDfs(g, plan, roots, nullptr, &hooks);
    EXPECT_GT(hooks.accesses, 0u);
}

TEST(Runner, PartialRootsCoverSubsetOfTrees)
{
    const Graph g = gen::complete(6);
    const auto plan = compileAutomine(Pattern::triangle(), {});
    // Restrictions force v0 < v1 < v2, so trees rooted at the three
    // smallest vertices contain all triangles of {0..3}.
    std::vector<VertexId> all(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        all[v] = v;
    const auto full = core::runPlanDfs(g, plan, all);
    std::vector<VertexId> half{0, 1, 2};
    const auto partial = core::runPlanDfs(g, plan, half);
    EXPECT_LT(partial.rawCount, full.rawCount);
    EXPECT_GT(partial.rawCount, 0);
}

/** An IEP block of one @p coefficient x prod(sizes[maskIndex]) term
 *  per entry of @p terms. */
IepBlock
iepOf(std::initializer_list<IepBlock::Term> terms)
{
    IepBlock iep;
    iep.terms.assign(terms);
    return iep;
}

std::string
foldError(const IepBlock &iep, std::span<const std::int64_t> sizes)
{
    try {
        core::foldIep(iep, sizes);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(PlanStep, IepFoldJustBelowInt64LimitIsExact)
{
    // floor(sqrt(2^63 - 1)) = 3037000499: the square still fits.
    const std::int64_t root = 3037000499;
    const std::array<std::int64_t, 2> sizes{root, root};
    EXPECT_EQ(core::foldIep(iepOf({{1, {0, 1}}}), sizes),
              root * root);
    // Two terms summing to exactly INT64_MAX, one to INT64_MIN.
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    const std::array<std::int64_t, 2> halves{max / 2, max / 2 + 1};
    EXPECT_EQ(core::foldIep(iepOf({{1, {0}}, {1, {1}}}), halves), max);
    EXPECT_EQ(core::foldIep(iepOf({{-1, {0}}, {-1, {1}}, {-1, {}}}),
                            halves),
              std::numeric_limits<std::int64_t>::min());
}

TEST(PlanStep, IepFoldOverflowRaisesFatalErrorNamingTheTerm)
{
    const std::int64_t root = 3037000500; // root^2 > INT64_MAX
    const std::array<std::int64_t, 2> sizes{root, root};
    // Product overflow in the second term.
    const IepBlock product = iepOf({{1, {0}}, {1, {0, 1}}});
    EXPECT_THROW(core::foldIep(product, sizes), FatalError);
    EXPECT_NE(foldError(product, sizes).find("IEP term 1"),
              std::string::npos);
    // The coefficient multiply overflows too, not only the sizes.
    const std::array<std::int64_t, 1> big{
        std::numeric_limits<std::int64_t>::max() / 2 + 1};
    EXPECT_NE(foldError(iepOf({{2, {0}}}), big).find("IEP term 0"),
              std::string::npos);
    // Each term fits; their sum does not.
    const std::array<std::int64_t, 2> halves{
        std::numeric_limits<std::int64_t>::max() / 2 + 1,
        std::numeric_limits<std::int64_t>::max() / 2 + 1};
    EXPECT_NE(foldError(iepOf({{1, {0}}, {1, {1}}}), halves)
                  .find("IEP term 1"),
              std::string::npos);
}

std::string
rawCountError(const std::function<void()> &sum)
{
    try {
        sum();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(PlanStep, RawCountSumsAreCheckedAtTheInt64Edges)
{
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(core::addRawCount(max - 1, 1, "execution unit", 3), max);
    EXPECT_EQ(core::addRawCount(min + 1, -1, "execution unit", 3), min);
    EXPECT_EQ(core::addRawCount(max, min, "the DFS runner"), -1);
    EXPECT_EQ(core::rawCountOf(static_cast<Count>(max), "the DFS runner"),
              max);

    EXPECT_NE(rawCountError([&] {
                  core::addRawCount(max, 1, "execution unit", 5);
              }).find("execution unit 5 overflows"),
              std::string::npos);
    EXPECT_NE(rawCountError([&] {
                  core::addRawCount(min, -1, "execution unit", 0);
              }).find("execution unit 0 overflows"),
              std::string::npos);
    EXPECT_NE(rawCountError([&] {
                  core::rawCountOf(static_cast<Count>(max) + 1,
                                   "execution unit", 2);
              }).find("execution unit 2 overflows"),
              std::string::npos);
    EXPECT_NE(rawCountError([&] {
                  core::addRawCount(max, max, "the DFS runner");
              }).find("raw count of the DFS runner overflows"),
              std::string::npos);

    core::RunnerResult sum;
    sum.rawCount = max;
    core::RunnerResult one;
    one.rawCount = 1;
    EXPECT_THROW(sum.accumulate(one), FatalError);
    one.rawCount = -1;
    sum.accumulate(one);
    EXPECT_EQ(sum.rawCount, max - 1);
}

/**
 * Walks every prefix of @p plan over @p g and, at each countable
 * level, checks countCandidates' tally against the set that
 * buildCandidates materializes: the same size and work items,
 * `below` = the candidates under the restriction bound, `rejected`
 * = the unrestricted matched vertices at or above it, and
 * accepted() = the candidates accept() keeps.
 */
struct TallyWalk
{
    const ExtendPlan &plan;
    core::PlanStep step;
    std::array<std::vector<VertexId>, kMaxPatternSize> candidates{};
    std::vector<VertexId> scratch;
    Count levels = 0;
    Count below = 0;
    Count rejected = 0;

    TallyWalk(const Graph &g, const ExtendPlan &p)
        : plan(p), step(g, p, core::KernelMode::Auto)
    {}

    void
    check(int t)
    {
        core::CandidateTally tally;
        const core::WorkItems counted =
            step.countCandidates(t, candidates[t - 1], scratch, tally);
        const core::WorkItems built =
            step.buildCandidates(t, candidates[t - 1], candidates[t]);
        const std::vector<VertexId> &set = candidates[t];
        const PlanLevel &level = plan.levels[t];
        VertexId bound = 0;
        for (int j = 0; j < t; ++j)
            if ((level.greaterThanMask >> j) & 1u)
                bound = std::max(bound, step.vertices[j] + 1);
        Count expect_below = 0;
        Count expect_rejected = 0;
        Count expect_accepted = 0;
        for (const VertexId c : set) {
            expect_accepted += step.accept(t, c);
            if (c < bound) {
                ++expect_below;
                continue;
            }
            for (int j = 0; j < t; ++j)
                if (step.vertices[j] == c) {
                    ++expect_rejected;
                    break;
                }
        }
        ASSERT_EQ(counted, built) << "level " << t;
        ASSERT_EQ(tally.total, set.size()) << "level " << t;
        ASSERT_EQ(tally.below, expect_below) << "level " << t;
        ASSERT_EQ(tally.rejected, expect_rejected) << "level " << t;
        ASSERT_EQ(tally.accepted(), expect_accepted) << "level " << t;
        ++levels;
        below += tally.below;
        rejected += tally.rejected;
    }

    void
    walk(int level)
    {
        const int t = level + 1;
        if (t >= plan.pattern.size())
            return;
        if (step.countable(t)) {
            check(t);
            if (testing::Test::HasFatalFailure())
                return;
        } else {
            step.buildCandidates(t, candidates[t - 1], candidates[t]);
        }
        for (std::size_t i = 0; i < candidates[t].size(); ++i) {
            const VertexId candidate = candidates[t][i];
            if (!step.accept(t, candidate))
                continue;
            step.vertices[t] = candidate;
            walk(t);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
};

TEST(PlanStep, CountedLevelTallyMatchesTheBuiltSet)
{
    const Graph g = gen::rmat(120, 700, 0.55, 0.2, 0.2, 31);
    const GraphProfile profile = GraphProfile::fromGraph(g);
    Count levels = 0;
    Count below = 0;
    Count rejected = 0;
    for (const bool induced : {false, true}) {
        PlanOptions options;
        options.induced = induced;
        options.useIep = false;
        for (const Pattern &p :
             {Pattern::triangle(), Pattern::pathOf(3),
              Pattern::cycleOf(4), Pattern::diamond(),
              Pattern::tailedTriangle(), Pattern::starOf(4),
              Pattern::pathOf(4)}) {
            for (const ExtendPlan &plan :
                 {compileAutomine(p, options),
                  compileGraphPi(p, profile, options)}) {
                SCOPED_TRACE(p.toString() + " induced="
                             + std::to_string(induced));
                TallyWalk walk(g, plan);
                for (VertexId v = 0; v < g.numVertices(); ++v) {
                    walk.step.vertices[0] = v;
                    walk.walk(0);
                    ASSERT_FALSE(HasFatalFailure());
                }
                levels += walk.levels;
                below += walk.below;
                rejected += walk.rejected;
            }
        }
    }
    // Every kind of rejection occurred.
    EXPECT_GT(levels, 0u);
    EXPECT_GT(below, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace khuzdul
