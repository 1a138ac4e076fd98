/**
 * @file
 * The plan step: one loop level of the generated nested loop (the
 * paper's EXTEND, §3) and the only definition of its math.  PlanStep
 * materializes candidate sets (with vertical computation sharing,
 * §5.1) or, at a count-only terminal level, counts them, applies
 * the plan's per-candidate filters, and sizes and folds the IEP
 * terminal block.  Both execution paths drive it: the
 * single-machine DFS runner (core/plan_runner) directly, and the
 * chunked distributed engine through PlanExtender, which recovers an
 * embedding's vertices from the parent-pointer chain and counts the
 * step's operations into the caller's sim::WorkTally.
 *
 * Nothing here prices work: the step returns integer WorkItems,
 * both drivers count operations in a sim::WorkTally, and that is
 * priced once (sim::CostModel::workNs), so the runner's sums and
 * the engine's modeled charges come from one set of kernel calls.
 */

#ifndef KHUZDUL_CORE_EXTENDER_HH
#define KHUZDUL_CORE_EXTENDER_HH

#include <array>
#include <bit>
#include <limits>
#include <span>
#include <vector>

#include "core/chunk.hh"
#include "core/kernels/kernels.hh"
#include "core/visitor.hh"
#include "graph/graph.hh"
#include "pattern/plan.hh"
#include "sim/cost_model.hh"
#include "sim/stats.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Observation hooks for baseline engines built on the runner. */
class RunnerHooks
{
  public:
    virtual ~RunnerHooks() = default;

    /** The enumeration just read the edge list of @p v. */
    virtual void onEdgeListAccess(VertexId v) { (void)v; }
};

/** Bound on an IEP block's masks: they are distinct subsets of the
 *  prefix, one per suffix block, so at most 15 for 8-vertex
 *  patterns. */
inline constexpr std::size_t kMaxIepMasks = 32;

/** Candidate-set size and charged work of every IEP mask. */
struct IepMasks
{
    std::array<std::int64_t, kMaxIepMasks> sizes{};
    std::array<WorkItems, kMaxIepMasks> work{};
};

/**
 * Sum of coefficient x product of mask sizes over the plan's IEP
 * terms: the raw-count contribution of one matched prefix.  Every
 * multiply and add is checked; overflow raises FatalError naming
 * the term instead of wrapping.
 */
std::int64_t foldIep(const IepBlock &iep,
                     std::span<const std::int64_t> sizes);

/** Raise FatalError: a raw count of @p owner (with @p index when
 *  >= 0) left the int64 range. */
[[noreturn]] void rawCountOverflow(const char *owner, std::int64_t index);

/**
 * @p sum + @p term for raw counts (int64: IEP terms may be
 * negative).  Checked like foldIep: overflow raises FatalError
 * naming @p owner and @p index instead of wrapping.
 */
inline std::int64_t
addRawCount(std::int64_t sum, std::int64_t term, const char *owner,
            std::int64_t index = -1)
{
    std::int64_t out = 0;
    if (__builtin_add_overflow(sum, term, &out)) [[unlikely]]
        rawCountOverflow(owner, index);
    return out;
}

/** A Count tally as a raw-count term, checked like addRawCount. */
inline std::int64_t
rawCountOf(Count count, const char *owner, std::int64_t index = -1)
{
    if (count > static_cast<Count>(
            std::numeric_limits<std::int64_t>::max())) [[unlikely]]
        rawCountOverflow(owner, index);
    return static_cast<std::int64_t>(count);
}

/**
 * A counted terminal level (PlanStep::countCandidates): the size of
 * the candidate set buildCandidates would have built, how many of
 * its candidates fall below the restriction bound, and how many
 * matched vertices at or above the bound it still holds.  accept()
 * rejects exactly those candidates.
 */
struct CandidateTally
{
    Count total = 0;
    Count below = 0;
    Count rejected = 0;

    Count
    accepted() const
    {
        return total - below - rejected;
    }
};

/** One EXTEND loop level over a plan: candidates, filter, IEP. */
class PlanStep
{
  public:
    /** @param hooks optional edge-list observer (baselines only). */
    PlanStep(const Graph &g, const ExtendPlan &plan,
             KernelMode kernel_mode, RunnerHooks *hooks = nullptr);

    /** vertices[i] = graph vertex matched at position i. */
    std::array<VertexId, kMaxPatternSize> vertices{};

    /**
     * Materialize the candidate set for position @p t into @p out,
     * given matched positions 0..t-1.  @p stored is the candidate
     * set position t-1 was drawn from (used when the plan level
     * reuses it, §5.1).
     */
    WorkItems
    buildCandidates(int t, std::span<const VertexId> stored,
                    std::vector<VertexId> &out)
    {
        return runLevel(t, stored, out, nullptr);
    }

    /**
     * Whether countCandidates may stand in for buildCandidates plus
     * accept() at position @p t when no visitor needs the matches:
     * the level has no label filter, and either it runs no set
     * operation or every unrestricted earlier position is a
     * dependency (a vertex is never in its own edge list, so only
     * the bound can reject a candidate of a counted operation).
     */
    bool
    countable(int t) const
    {
        return (countable_ >> t) & 1u;
    }

    /**
     * Count form of buildCandidates for a countable level: the same
     * set operations, hooks, kernel ticks and charges, but the last
     * operation only counts (one count-above kernel call) and the
     * candidates accept() would reject are tallied in @p tally.
     * @p scratch receives the intermediate results.
     */
    WorkItems
    countCandidates(int t, std::span<const VertexId> stored,
                    std::vector<VertexId> &scratch,
                    CandidateTally &tally)
    {
        return runLevel(t, stored, scratch, &tally);
    }

    /**
     * Per-candidate filters (restrictions, labels, distinctness) for
     * position @p t; valid after buildCandidates(t).  A candidate
     * above every restricted position's vertex is distinct from
     * them, so only unrestricted positions need an equality test.
     */
    bool
    accept(int t, VertexId candidate) const
    {
        if (candidate < lowerBound_[t])
            return false;
        const PlanLevel &level = plan_->levels[t];
        if (level.hasLabelFilter
            && graph_->label(candidate) != level.labelFilter)
            return false;
        const PositionMask unrestricted =
            ~level.greaterThanMask & ((1u << t) - 1);
        for (PositionMask m = unrestricted; m != 0; m &= m - 1)
            if (vertices[std::countr_zero(m)] == candidate)
                return false;
        return true;
    }

    /**
     * Size every IEP mask over the matched prefix (GraphPi, §IEP),
     * excluding already-matched vertices; fold with foldIep.
     * @p stored is the candidate set position prefix_len-1 was drawn
     * from (vertical sharing into the IEP block).
     */
    void iepMasks(int prefix_len, std::span<const VertexId> stored,
                  IepMasks &out);

    /** Per-kind tallies of the kernels dispatched so far. */
    const KernelCounters &
    kernelCounters() const
    {
        return dispatcher_.counters();
    }

  private:
    /**
     * The level's set operations in order — the one sequencing both
     * forms share.  The base set is the reused parent result or the
     * smallest dependency list; the other dependency lists are
     * intersected in, then the exclusions subtracted.  Without
     * @p tally every result is materialized and the last lands in
     * @p out; with it the last operation is counted instead.
     */
    WorkItems runLevel(int t, std::span<const VertexId> stored,
                       std::vector<VertexId> &out,
                       CandidateTally *tally);

    /** Tally a set no operation is left to count: rank the bound in
     *  it and look up the unrestricted matched vertices. */
    void rankCandidates(int t, std::span<const VertexId> set,
                        CandidateTally &tally) const;

    /** The edge list of @p v, reported to the hooks when set. */
    ListRef
    edgeList(VertexId v)
    {
        if (hooks_)
            hooks_->onEdgeListAccess(v);
        return {graph_->neighbors(v), v};
    }

    const Graph *graph_;
    const ExtendPlan *plan_;
    RunnerHooks *hooks_;
    KernelDispatcher dispatcher_;
    PositionMask countable_ = 0; ///< bit t: countable(t)

    /** lowerBound_[t]: smallest candidate position t's restrictions
     *  admit (1 + the largest restricted vertex, or 0). */
    std::array<VertexId, kMaxPatternSize> lowerBound_{};
    std::array<ListRef, kMaxPatternSize> listBuf_{};
    std::vector<VertexId> scratchA_;
    std::vector<VertexId> scratchB_;
};

/**
 * Per-unit chunked extension: vertex recovery plus operation
 * counting.  Each call adds its embedding's work to a caller-owned
 * tally: the kernels' items (candidate sets and IEP masks), one
 * check per candidate, one embedding per child and one terminal per
 * match or per IEP fold.  The counted terminal adds the same
 * integers the scan would, so both paths price identically.
 */
class PlanExtender
{
  public:
    /** @param unit the execution unit (named on count overflow). */
    PlanExtender(const Graph &g, const ExtendPlan &plan,
                 KernelMode kernel_mode, unsigned unit)
        : plan_(&plan), step_(g, plan, kernel_mode), unit_(unit)
    {}

    /** Extend non-terminal embedding (@p level, @p idx) of
     *  @p chunks, appending accepted children to @p child. */
    void extendInner(const std::vector<Chunk> &chunks, Chunk &child,
                     int level, std::uint32_t idx, sim::WorkTally &work,
                     sim::NodeStats &stats);

    /**
     * Terminal extension of embedding (@p level, @p idx): IEP fold,
     * count (PlanStep::countCandidates) or scan, delivering matches
     * to @p visitor when set.
     * @return the raw-count contribution.
     */
    std::int64_t extendTerminal(const std::vector<Chunk> &chunks,
                                int level, std::uint32_t idx,
                                MatchVisitor *visitor,
                                sim::WorkTally &work,
                                sim::NodeStats &stats);

    /** Per-kind tallies of the kernels dispatched so far. */
    const KernelCounters &
    kernelCounters() const
    {
        return step_.kernelCounters();
    }

  private:
    /**
     * Walk parent pointers to recover the embedding's vertices.
     *
     * Children of one parent are contiguous in a chunk (the frontier
     * columns are filled in extension order), so sibling runs share
     * the whole recovered prefix: when the previous recovery at this
     * level had the same parent index the walk is skipped and only
     * the last vertex is refreshed.  The cached prefix can never go
     * stale across chunk refills — before any same-level recovery
     * can see a refilled chunk, an extension at the level above has
     * already re-run recovery there and retagged the cache.
     */
    void
    recoverVertices(const std::vector<Chunk> &chunks, int level,
                    std::uint32_t idx)
    {
        const std::uint32_t parent = chunks[level].parent(idx);
        if (level == prefixLevel_ && parent == prefixParent_
            && parent != kNoParent) {
            step_.vertices[level] = chunks[level].vertex(idx);
            return;
        }
        const std::span<const VertexId> col =
            chunks[level].vertexColumn();
        step_.vertices[level] = col[idx];
        std::uint32_t cursor = parent;
        for (int l = level - 1; l >= 0; --l) {
            step_.vertices[l] = chunks[l].vertex(cursor);
            cursor = chunks[l].parent(cursor);
        }
        prefixLevel_ = level;
        prefixParent_ = parent;
    }

    /** Build position @p t's candidates, each of which the caller
     *  then checks. */
    void
    buildCandidates(int t, std::span<const VertexId> stored,
                    sim::WorkTally &work, sim::NodeStats &stats)
    {
        if (plan_->levels[t].reuseParent)
            ++stats.verticalReuses;
        work.items += step_.buildCandidates(t, stored, candidates_);
        work.checks += candidates_.size();
    }

    const ExtendPlan *plan_;
    PlanStep step_;
    unsigned unit_;

    std::vector<VertexId> candidates_;
    CandidateTally tally_;
    IepMasks iep_;
    int prefixLevel_ = -1;          ///< level of the cached prefix
    std::uint32_t prefixParent_ = kNoParent;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_EXTENDER_HH
