#include "apps/fsm.hh"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "core/plan_runner.hh"
#include "pattern/isomorphism.hh"
#include "pattern/planner.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace apps
{

namespace
{

/** Collects per-position vertex domains from the embedding stream. */
class DomainVisitor : public core::MatchVisitor
{
  public:
    explicit DomainVisitor(int positions)
        : domains_(positions)
    {}

    void
    match(std::span<const VertexId> positions) override
    {
        for (std::size_t i = 0; i < positions.size(); ++i)
            domains_[i].insert(positions[i]);
    }

    /**
     * MNI support: minimum domain size after merging domains over
     * the automorphism orbits of the positioned pattern (needed
     * because symmetry breaking keeps only canonical embeddings).
     */
    Count
    support(const Pattern &positioned) const
    {
        const auto autos = iso::automorphisms(positioned);
        const int n = positioned.size();
        std::vector<bool> done(n, false);
        Count result = std::numeric_limits<Count>::max();
        for (int i = 0; i < n; ++i) {
            if (done[i])
                continue;
            std::unordered_set<VertexId> merged;
            for (const auto &sigma : autos) {
                const int j = sigma[i];
                if (!done[j]) {
                    merged.insert(domains_[j].begin(),
                                  domains_[j].end());
                    done[j] = true;
                }
            }
            result = std::min(result,
                              static_cast<Count>(merged.size()));
        }
        return result;
    }

  private:
    std::vector<std::unordered_set<VertexId>> domains_;
};

} // namespace

Pattern
KhuzdulFsmBackend::enumerate(const Pattern &p,
                             core::MatchVisitor *visitor)
{
    PlanOptions options;
    options.useIep = false;
    options.symmetryBreaking = true;
    const ExtendPlan plan = system_->compile(p, options);
    system_->engine().run(plan, visitor);
    return plan.pattern;
}

Pattern
SingleMachineFsmBackend::enumerate(const Pattern &p,
                                   core::MatchVisitor *visitor)
{
    PlanOptions options;
    options.useIep = false;
    const ExtendPlan plan = compileAutomine(p, options);
    std::vector<VertexId> roots(graph_->numVertices());
    for (VertexId v = 0; v < graph_->numVertices(); ++v)
        roots[v] = v;
    work_ += core::runPlanDfs(*graph_, plan, roots, visitor);
    return plan.pattern;
}

Count
mniSupport(FsmBackend &backend, const Pattern &p)
{
    DomainVisitor visitor(p.size());
    const Pattern positioned = backend.enumerate(p, &visitor);
    return visitor.support(positioned);
}

FsmResult
mineFrequentSubgraphs(FsmBackend &backend, const Graph &g,
                      const FsmConfig &config)
{
    KHUZDUL_REQUIRE(g.labeled(), "FSM needs a labeled graph");
    KHUZDUL_REQUIRE(config.maxEdges >= 1 && config.maxEdges <= 3,
                    "FSM mines patterns with 1..3 edges (like the "
                    "paper's evaluation)");
    const Label num_labels = g.numLabels();

    FsmResult result;
    std::vector<Pattern> frontier;

    // Level 1: all labeled single edges.
    for (Label a = 0; a < num_labels; ++a) {
        for (Label b = a; b < num_labels; ++b) {
            Pattern edge(2, {{0, 1}});
            edge.setLabel(0, a);
            edge.setLabel(1, b);
            ++result.patternsEvaluated;
            const Count support = mniSupport(backend, edge);
            if (support >= config.minSupport) {
                result.frequent.push_back({edge, support});
                frontier.push_back(edge);
            }
        }
    }

    // Level-wise extension with anti-monotone pruning: every
    // frequent (e+1)-edge pattern extends some frequent e-edge
    // pattern by one edge (closing a cycle or attaching a new
    // labeled leaf), so growing only from the frequent frontier is
    // complete.
    for (int edges = 2; edges <= config.maxEdges; ++edges) {
        std::map<iso::CanonicalCode, Pattern> candidates;
        for (const Pattern &parent : frontier) {
            const int n = parent.size();
            // Close a cycle between existing vertices.
            for (int u = 0; u < n; ++u) {
                for (int v = u + 1; v < n; ++v) {
                    if (parent.hasEdge(u, v))
                        continue;
                    Pattern child = parent;
                    child.addEdge(u, v);
                    candidates.emplace(iso::canonicalCode(child),
                                       child);
                }
            }
            // Attach a new labeled vertex.
            if (n < kMaxPatternSize) {
                for (int u = 0; u < n; ++u) {
                    for (Label l = 0; l < num_labels; ++l) {
                        Pattern child(n + 1);
                        for (int a = 0; a < n; ++a) {
                            child.setLabel(a, parent.label(a));
                            for (int b = a + 1; b < n; ++b)
                                if (parent.hasEdge(a, b))
                                    child.addEdge(a, b);
                        }
                        child.setLabel(n, l);
                        child.addEdge(u, n);
                        candidates.emplace(iso::canonicalCode(child),
                                           child);
                    }
                }
            }
        }
        frontier.clear();
        for (const auto &[code, candidate] : candidates) {
            ++result.patternsEvaluated;
            const Count support = mniSupport(backend, candidate);
            if (support >= config.minSupport) {
                result.frequent.push_back({candidate, support});
                frontier.push_back(candidate);
            }
        }
    }
    return result;
}

} // namespace apps
} // namespace khuzdul
