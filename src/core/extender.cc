#include "core/extender.hh"

#include <algorithm>

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

std::int64_t
foldIep(const IepBlock &iep, std::span<const std::int64_t> sizes)
{
    std::int64_t raw = 0;
    for (std::size_t i = 0; i < iep.terms.size(); ++i) {
        const IepBlock::Term &term = iep.terms[i];
        std::int64_t product = term.coefficient;
        bool overflow = false;
        for (const int mask_idx : term.maskIndex)
            overflow |= __builtin_mul_overflow(product, sizes[mask_idx],
                                               &product);
        overflow = overflow || __builtin_add_overflow(raw, product, &raw);
        if (overflow)
            KHUZDUL_FATAL("IEP term " << i << " (coefficient "
                          << term.coefficient
                          << ") overflows the int64 raw count");
    }
    return raw;
}

void
rawCountOverflow(const char *owner, std::int64_t index)
{
    if (index >= 0)
        KHUZDUL_FATAL("raw count of " << owner << " " << index
                      << " overflows int64");
    KHUZDUL_FATAL("raw count of " << owner << " overflows int64");
}

PlanStep::PlanStep(const Graph &g, const ExtendPlan &plan,
                   KernelMode kernel_mode, RunnerHooks *hooks)
    : graph_(&g), plan_(&plan), hooks_(hooks),
      dispatcher_(kernel_mode, &g)
{
    for (int t = 1; t < plan.pattern.size(); ++t) {
        const PlanLevel &level = plan.levels[t];
        const PositionMask prior = (1u << t) - 1;
        const int ops = level.reuseParent
            ? std::popcount((level.extraDepMask | level.extraAntiMask)
                            & prior)
            : std::popcount(level.depMask & prior) - 1
                + std::popcount(level.antiMask & prior);
        const PositionMask unrestricted =
            ~level.greaterThanMask & prior;
        if (!level.hasLabelFilter
            && (ops == 0 || (unrestricted & ~level.depMask) == 0))
            countable_ |= 1u << t;
    }
}

WorkItems
PlanStep::runLevel(int t, std::span<const VertexId> stored,
                   std::vector<VertexId> &out, CandidateTally *tally)
{
    const PlanLevel &level = plan_->levels[t];
    const PositionMask prior = (1u << t) - 1;
    VertexId lower = 0;
    for (int j = 0; j < t; ++j)
        if ((level.greaterThanMask >> j) & 1u)
            lower = std::max(lower, vertices[j] + 1);
    lowerBound_[t] = lower;

    // Every list the level reads, in hook order: the dependency
    // lists (only the extras on top of a reused result), then the
    // induced-matching exclusions.
    const bool reuse = level.reuseParent;
    const PositionMask deps =
        (reuse ? level.extraDepMask : level.depMask) & prior;
    const PositionMask anti =
        (reuse ? level.extraAntiMask : level.antiMask) & prior;
    std::size_t lists = 0;
    for (PositionMask m = deps; m != 0; m &= m - 1)
        listBuf_[lists++] = edgeList(vertices[std::countr_zero(m)]);
    const std::size_t intersects = lists;
    for (PositionMask m = anti; m != 0; m &= m - 1)
        listBuf_[lists++] = edgeList(vertices[std::countr_zero(m)]);

    // The base set.  Vertical computation sharing starts from the
    // parent's stored result; otherwise the dependency lists fold
    // smallest-first (stable on size ties) to keep intermediates
    // tight.  An aliased base is free in the model: its transfer
    // was charged by the provider layer (kernels.hh).
    ListRef base(stored);
    std::size_t op = 0;
    if (!reuse) {
        detail::sortBySizeStable(listBuf_.data(), intersects);
        base = listBuf_[0];
        op = 1;
    }
    const ListRef *cur = &base;
    ListRef result;
    WorkItems work = 0;
    for (; op < lists; ++op) {
        const bool subtract = op >= intersects;
        // The fold stops intersecting once its running result is
        // empty; exclusions still run.
        const bool skip =
            !subtract && !reuse && op >= 2 && cur->list.empty();
        if (tally && op + 1 == lists) {
            Count total = 0;
            Count above = 0;
            if (!skip)
                work += subtract
                    ? dispatcher_.subtractCountAbove(
                          *cur, listBuf_[op], lower, total, above)
                    : dispatcher_.intersectCountAbove(
                          *cur, listBuf_[op], lower, total, above);
            tally->total = total;
            tally->below = total - above;
            tally->rejected = 0;
            return work;
        }
        if (skip)
            continue;
        // Kernels size their output themselves; not clearing first
        // lets a resizing kernel skip re-zeroing the kept prefix.
        work += subtract
            ? dispatcher_.subtractInto(*cur, listBuf_[op], scratchB_)
            : dispatcher_.intersectInto(*cur, listBuf_[op], scratchB_);
        out.swap(scratchB_);
        result = ListRef(out);
        cur = &result;
    }
    if (tally)
        rankCandidates(t, cur->list, *tally);
    else if (cur != &result)
        out.assign(cur->list.begin(), cur->list.end());
    return work;
}

void
PlanStep::rankCandidates(int t, std::span<const VertexId> set,
                         CandidateTally &tally) const
{
    const PlanLevel &level = plan_->levels[t];
    const auto from =
        std::lower_bound(set.begin(), set.end(), lowerBound_[t]);
    tally.total = set.size();
    tally.below = static_cast<Count>(from - set.begin());
    tally.rejected = 0;
    // A dependency's vertex is never in its own edge list, and a
    // restricted one sits below the bound.
    const PositionMask unrestricted =
        ~level.greaterThanMask & ~level.depMask & ((1u << t) - 1);
    for (PositionMask m = unrestricted; m != 0; m &= m - 1) {
        const VertexId v = vertices[std::countr_zero(m)];
        const auto it = std::lower_bound(from, set.end(), v);
        if (it != set.end() && *it == v)
            ++tally.rejected;
    }
}

void
PlanStep::iepMasks(int prefix_len, std::span<const VertexId> stored,
                   IepMasks &out)
{
    const IepBlock &iep = plan_->iep;
    for (std::size_t m = 0; m < iep.masks.size(); ++m) {
        std::size_t lists = 0;
        PositionMask mask = iep.masks[m];
        if (!iep.maskReuse.empty() && iep.maskReuse[m]) {
            // Vertical sharing into the IEP block: start from the
            // last prefix level's stored candidate set.
            listBuf_[lists++] = ListRef(stored);
            mask = iep.maskExtra[m];
        }
        for (int j = 0; j < prefix_len; ++j)
            if ((mask >> j) & 1u)
                listBuf_[lists++] = edgeList(vertices[j]);
        Count count = 0;
        out.work[m] = dispatcher_.intersectManyCount(
            {listBuf_.data(), lists}, count, scratchA_, scratchB_);
        std::int64_t size = static_cast<std::int64_t>(count);
        // Candidate sets must exclude already-matched vertices.
        for (int j = 0; j < prefix_len; ++j) {
            bool inside = true;
            for (std::size_t l = 0; l < lists && inside; ++l)
                inside = contains(listBuf_[l].list, vertices[j]);
            if (inside)
                --size;
        }
        out.sizes[m] = size;
    }
}

void
PlanExtender::extendInner(const std::vector<Chunk> &chunks,
                          Chunk &child, int level, std::uint32_t idx,
                          sim::WorkTally &work, sim::NodeStats &stats)
{
    recoverVertices(chunks, level, idx);
    const int t = level + 1;
    const PlanLevel &next = plan_->levels[t];
    buildCandidates(t, chunks[t - 1].result(idx), work, stats);
    // Siblings share one stored copy of the candidate set; it is
    // appended lazily when the first child materializes.
    std::uint32_t result_offset = 0;
    bool result_stored = false;
    for (const VertexId candidate : candidates_) {
        if (!step_.accept(t, candidate))
            continue;
        const std::uint32_t child_idx =
            child.add(candidate, idx, next.fetchEdgeList);
        ++work.embeddings;
        if (next.storeResult) {
            if (!result_stored) {
                result_offset = child.appendResult(candidates_);
                result_stored = true;
            }
            child.setResultRef(
                child_idx, result_offset,
                static_cast<std::uint32_t>(candidates_.size()));
        }
    }
}

std::int64_t
PlanExtender::extendTerminal(const std::vector<Chunk> &chunks,
                             int level, std::uint32_t idx,
                             MatchVisitor *visitor,
                             sim::WorkTally &work,
                             sim::NodeStats &stats)
{
    recoverVertices(chunks, level, idx);
    if (plan_->hasIep) {
        const IepBlock &iep = plan_->iep;
        step_.iepMasks(level + 1, chunks[level].result(idx), iep_);
        for (std::size_t m = 0; m < iep.masks.size(); ++m) {
            if (!iep.maskReuse.empty() && iep.maskReuse[m])
                ++stats.verticalReuses;
            work.items += iep_.work[m];
        }
        ++work.terminals;
        return foldIep(iep, iep_.sizes);
    }
    const int t = plan_->pattern.size() - 1;
    const std::span<const VertexId> stored = chunks[t - 1].result(idx);
    if (!visitor && step_.countable(t)) {
        if (plan_->levels[t].reuseParent)
            ++stats.verticalReuses;
        work.items += step_.countCandidates(t, stored, candidates_, tally_);
        work.checks += tally_.total;
        work.terminals += tally_.accepted();
        return rawCountOf(tally_.accepted(), "execution unit", unit_);
    }
    buildCandidates(t, stored, work, stats);
    std::int64_t raw = 0;
    for (const VertexId candidate : candidates_) {
        if (!step_.accept(t, candidate))
            continue;
        ++raw;
        ++work.terminals;
        if (visitor) {
            step_.vertices[t] = candidate;
            visitor->match({step_.vertices.data(),
                            static_cast<std::size_t>(t + 1)});
        }
    }
    return raw;
}

} // namespace core
} // namespace khuzdul
