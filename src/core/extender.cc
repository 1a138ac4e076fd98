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

WorkItems
PlanStep::buildCandidates(int t, std::span<const VertexId> stored,
                          std::vector<VertexId> &out)
{
    const PlanLevel &level = plan_->levels[t];
    VertexId lower = 0;
    for (int j = 0; j < t; ++j)
        if ((level.greaterThanMask >> j) & 1u)
            lower = std::max(lower, vertices[j] + 1);
    lowerBound_[t] = lower;
    WorkItems work = 0;
    PositionMask dep = level.depMask;
    if (level.reuseParent) {
        // Vertical computation sharing: start from the parent's
        // stored result instead of re-intersecting its deps.
        out.assign(stored.begin(), stored.end());
        dep = level.extraDepMask;
    } else {
        std::size_t lists = 0;
        for (int j = 0; j < t; ++j)
            if ((dep >> j) & 1u)
                listBuf_[lists++] = edgeList(vertices[j]);
        if (lists == 1) {
            // Aliasing one already-fetched edge list: the transfer
            // was charged by the provider layer, so the working copy
            // is free in the model (charging convention, kernels.hh).
            out.assign(listBuf_[0].list.begin(), listBuf_[0].list.end());
        } else {
            work += dispatcher_.intersectMany({listBuf_.data(), lists},
                                              out, scratchA_);
        }
        dep = 0;
    }
    // Extra deps of a reused result are folded in one by one.
    for (int j = 0; j < t; ++j) {
        if ((dep >> j) & 1u) {
            scratchB_.clear();
            work += dispatcher_.intersectInto(
                ListRef(out), edgeList(vertices[j]), scratchB_);
            out.swap(scratchB_);
        }
    }
    // Induced matching: remove neighbors of non-adjacent earlier
    // positions.
    const PositionMask anti = level.reuseParent ? level.extraAntiMask
                                                : level.antiMask;
    for (int j = 0; j < t; ++j) {
        if ((anti >> j) & 1u) {
            scratchB_.clear();
            work += dispatcher_.subtractInto(
                ListRef(out), edgeList(vertices[j]), scratchB_);
            out.swap(scratchB_);
        }
    }
    return work;
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
                          sim::NodeStats &stats)
{
    recoverVertices(chunks, level, idx);
    const int t = level + 1;
    const PlanLevel &next = plan_->levels[t];
    buildCandidates(t, chunks[t - 1].result(idx), stats);
    // Siblings share one stored copy of the candidate set; it is
    // appended lazily when the first child materializes.
    std::uint32_t result_offset = 0;
    bool result_stored = false;
    for (const VertexId candidate : candidates_) {
        workNs_ += cost_->candidateCheckNs;
        if (!step_.accept(t, candidate))
            continue;
        const std::uint32_t child_idx =
            child.add(candidate, idx, next.fetchEdgeList);
        ++stats.embeddingsCreated;
        workNs_ += cost_->embeddingCreateNs;
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
                             sim::NodeStats &stats)
{
    recoverVertices(chunks, level, idx);
    if (plan_->hasIep) {
        const IepBlock &iep = plan_->iep;
        step_.iepMasks(level + 1, chunks[level].result(idx), iep_);
        // Charged per mask, in mask order: the modeled sum must not
        // be regrouped.
        for (std::size_t m = 0; m < iep.masks.size(); ++m) {
            if (!iep.maskReuse.empty() && iep.maskReuse[m])
                ++stats.verticalReuses;
            stats.intersectionItems += iep_.work[m];
            workNs_ += static_cast<double>(iep_.work[m])
                * cost_->intersectPerItemNs;
        }
        workNs_ += cost_->terminalNs;
        return foldIep(iep, iep_.sizes);
    }
    const int t = plan_->pattern.size() - 1;
    buildCandidates(t, chunks[t - 1].result(idx), stats);
    std::int64_t raw = 0;
    for (const VertexId candidate : candidates_) {
        workNs_ += cost_->candidateCheckNs;
        if (!step_.accept(t, candidate))
            continue;
        ++raw;
        workNs_ += cost_->terminalNs;
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
