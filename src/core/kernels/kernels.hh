/**
 * @file
 * Adaptive sorted-list set-kernel suite: the computational heart of
 * pattern-aware enumeration (every extension is an intersection of
 * active edge lists, §3.1).  Five interchangeable kernels implement
 * each set operation:
 *
 *   - Merge: the reference two-pointer merge (the modeled machine);
 *   - Gallop: exponential-probe binary search driven by the smaller
 *     list, for skewed size ratios (hub vs. candidate lists);
 *   - Bitmap: per-element bit tests against a precomputed hub-vertex
 *     bitset stored on the Graph (Graph::buildHubBitmaps), with a
 *     word-parallel gather fast path when the SIMD tier is live;
 *   - SimdMerge: AVX2 shuffle-based all-pairs block merge for
 *     near-equal sizes (8x8 lane comparisons + table-driven lane
 *     compaction);
 *   - SimdGallop: galloping search whose landing window is resolved
 *     with one 8-lane vector compare instead of the final binary
 *     search steps.
 *
 * The SIMD tier is compiled per-function (target("avx2")) and gated
 * at runtime behind CPU-feature detection (simdAvailable()): on
 * hosts or builds without AVX2 every entry point falls back to the
 * scalar kernels with byte-identical outputs and charges.
 *
 * A KernelDispatcher picks the kernel per call (or obeys a forced
 * KernelMode for A/B runs): bitmap whenever the probed list has a
 * hub row, at any size ratio; otherwise gallop, SIMD merge or merge
 * by size ratio and driving-list size.
 *
 * Besides materializing (…Into) and counting (…Count) forms, every
 * kind has count-above forms for count-only terminal levels:
 * |a ∩ b| or |a \ b| plus how many of those elements are >= a
 * bound, in one pass (SIMD merge: a max_epu32 >= mask ANDed with
 * the match mask; SIMD bitmap: the same mask folded into the
 * gather loop; gallop and scalar bitmap: the driving list split at
 * the bound).
 *
 * ## Charging convention (canonical work)
 *
 * Kernels return WorkItems — the modeled compute charge consumed by
 * sim::CostModel.  The charge is *canonical*: every kernel reports
 * the element count the reference two-pointer merge would have
 * consumed on the same inputs, regardless of how few elements the
 * kernel actually touched.  For strictly-sorted duplicate-free
 * spans (the CSR invariant) that count has a closed form evaluated
 * with one binary search (canonicalIntersectWork /
 * canonicalSubtractWork), so modeled makespans, RunStats and every
 * EXPERIMENTS.md shape are bit-identical no matter which kernel
 * ran; only host wall-clock changes.  Operations that copy rather
 * than merge charge one WorkItem per element copied (the
 * intersectMany single-list pass-through); O(1) reads (the
 * intersectManyCount single-list size probe) charge 0.  Count-above
 * calls charge the canonical work of their full inputs, the same as
 * the materializing call, however the bound splits them.  Callers
 * that alias an already-materialized list instead of copying charge
 * nothing — the transfer was already charged by the provider layer.
 *
 * All kernels require strictly ascending, duplicate-free inputs and
 * produce outputs that are element-for-element identical to the
 * reference merge.
 */

#ifndef KHUZDUL_CORE_KERNELS_KERNELS_HH
#define KHUZDUL_CORE_KERNELS_KERNELS_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Work units charged by a kernel (canonical merge elements). */
using WorkItems = std::uint64_t;

/** The kernel that executed one set operation. */
enum class KernelKind : std::uint8_t
{
    Merge,      ///< reference two-pointer merge
    Gallop,     ///< galloping binary search (skewed ratios)
    Bitmap,     ///< hub-vertex bitset probe (Graph::hubBitmapRow)
    SimdMerge,  ///< AVX2 shuffle-based block merge
    SimdGallop, ///< galloping search with vectorized landing window
};

inline constexpr std::size_t kNumKernelKinds = 5;

/** Stable lowercase name ("merge", ..., "simd_merge", "simd_gallop"). */
const char *kernelKindName(KernelKind kind);

/** Dispatcher policy: adaptive, or one kernel forced for A/B. */
enum class KernelMode : std::uint8_t
{
    Auto,   ///< pick per call from size ratio + bitmap availability
    Merge,  ///< always the reference merge (the modeled machine)
    Gallop, ///< always galloping search
    Bitmap, ///< bitmap wherever a hub row exists, else merge
    Simd,   ///< SIMD tier wherever it applies (scalar when unavailable)
};

/** Stable lowercase name ("auto", "merge", "gallop", "bitmap", "simd"). */
const char *kernelModeName(KernelMode mode);

/** Parse a --kernel value; aborts on unknown names. */
KernelMode parseKernelMode(const std::string &name);

/** Per-kind dispatch tallies (pairwise kernel executions). */
struct KernelCounters
{
    std::array<std::uint64_t, kNumKernelKinds> calls{};

    std::uint64_t
    operator[](KernelKind kind) const
    {
        return calls[static_cast<std::size_t>(kind)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t c : calls)
            sum += c;
        return sum;
    }
};

/**
 * A sorted list plus its provenance: when the span is exactly the
 * full neighbor list N(source) the dispatcher can substitute the
 * source's hub bitmap.  Intermediate results carry no source.
 */
struct ListRef
{
    std::span<const VertexId> list;
    VertexId source = kInvalidVertex;

    ListRef() = default;
    ListRef(std::span<const VertexId> l, VertexId src = kInvalidVertex)
        : list(l), source(src)
    {}
    ListRef(const std::vector<VertexId> &l) : list(l) {}

    std::size_t size() const { return list.size(); }
};

/** @name Canonical (merge-equivalent) work, in closed form
 *
 * What the reference two-pointer loop would consume on
 * strictly-sorted duplicate-free inputs, computed with one binary
 * search instead of running the merge.
 */
/// @{
WorkItems canonicalIntersectWork(std::span<const VertexId> a,
                                 std::span<const VertexId> b);
WorkItems canonicalSubtractWork(std::span<const VertexId> a,
                                std::span<const VertexId> b);
/// @}

/** @name Reference merge kernels (today's modeled machine)
 *
 * These free functions are the canonical implementations: every
 * other kernel must match their output element-for-element and
 * their WorkItems exactly.
 */
/// @{

/** out = a ∩ b (out may not alias inputs). */
WorkItems intersectInto(std::span<const VertexId> a,
                        std::span<const VertexId> b,
                        std::vector<VertexId> &out);

/** |a ∩ b| without materializing. */
WorkItems intersectCount(std::span<const VertexId> a,
                         std::span<const VertexId> b, Count &count);

/** out = a \ b (sorted difference; induced matching). */
WorkItems subtractInto(std::span<const VertexId> a,
                       std::span<const VertexId> b,
                       std::vector<VertexId> &out);

/**
 * Count-above kernels (count-only terminal levels): @p total =
 * |a ∩ b| (or |a \ b|) and @p above = how many of those elements
 * are >= @p bound, in one pass and without materializing.  The
 * charge is the canonical work of the full inputs, the same as
 * intersectInto / subtractInto on them.
 */
WorkItems intersectCountAbove(std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              VertexId bound, Count &total,
                              Count &above);
WorkItems subtractCountAbove(std::span<const VertexId> a,
                             std::span<const VertexId> b,
                             VertexId bound, Count &total, Count &above);

/**
 * out = intersection of all @p lists (1..8), folded smallest-first
 * (stable on size ties) to keep intermediates tight.  A single list
 * is copied into @p out and charged one WorkItem per element copied.
 */
WorkItems intersectMany(std::span<const std::span<const VertexId>> lists,
                        std::vector<VertexId> &out,
                        std::vector<VertexId> &scratch);

/**
 * |intersection of all lists| without materializing the result.
 * Both scratch buffers are clobbered.  A single list is an O(1)
 * size probe and charges 0.
 */
WorkItems intersectManyCount(
    std::span<const std::span<const VertexId>> lists, Count &count,
    std::vector<VertexId> &scratch_a, std::vector<VertexId> &scratch_b);
/// @}

/** @name Membership probe
 *
 * Linear scan below kContainsLinearCutoff (branch-predictable, no
 * pipeline flush from the halving loop), binary search above; the
 * cutoff is benchmarked in micro_core (BM_Contains*).
 */
/// @{
inline constexpr std::size_t kContainsLinearCutoff = 32;

bool contains(std::span<const VertexId> list, VertexId v);
bool containsLinear(std::span<const VertexId> list, VertexId v);
bool containsBinary(std::span<const VertexId> list, VertexId v);
/// @}

/** @name Alternative kernels (dispatched; also exposed for bench) */
/// @{
/** Galloping kernels; @p a should be the smaller (driving) list. */
WorkItems gallopIntersectInto(std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              std::vector<VertexId> &out);
WorkItems gallopIntersectCount(std::span<const VertexId> a,
                               std::span<const VertexId> b,
                               Count &count);
WorkItems gallopSubtractInto(std::span<const VertexId> a,
                             std::span<const VertexId> b,
                             std::vector<VertexId> &out);
WorkItems gallopIntersectCountAbove(std::span<const VertexId> a,
                                    std::span<const VertexId> b,
                                    VertexId bound, Count &total,
                                    Count &above);
WorkItems gallopSubtractCountAbove(std::span<const VertexId> a,
                                   std::span<const VertexId> b,
                                   VertexId bound, Count &total,
                                   Count &above);

/**
 * Bitmap kernels: @p hub_list is N(h) and @p row its bitmap words
 * (Graph::hubBitmapRow(h)); the smaller list @p a drives.
 */
WorkItems bitmapIntersectInto(std::span<const VertexId> a,
                              std::span<const VertexId> hub_list,
                              const std::uint64_t *row,
                              std::vector<VertexId> &out);
WorkItems bitmapIntersectCount(std::span<const VertexId> a,
                               std::span<const VertexId> hub_list,
                               const std::uint64_t *row, Count &count);
WorkItems bitmapSubtractInto(std::span<const VertexId> a,
                             std::span<const VertexId> hub_list,
                             const std::uint64_t *row,
                             std::vector<VertexId> &out);
WorkItems bitmapIntersectCountAbove(std::span<const VertexId> a,
                                    std::span<const VertexId> hub_list,
                                    const std::uint64_t *row,
                                    VertexId bound, Count &total,
                                    Count &above);
WorkItems bitmapSubtractCountAbove(std::span<const VertexId> a,
                                   std::span<const VertexId> hub_list,
                                   const std::uint64_t *row,
                                   VertexId bound, Count &total,
                                   Count &above);
/// @}

/** @name SIMD tier (AVX2, runtime-detected)
 *
 * Output and charge byte-identical to the reference merge; when the
 * tier is unavailable (build-time KHUZDUL_NO_SIMD, non-x86, or the
 * CPU lacks AVX2) every entry point transparently runs the matching
 * scalar kernel.
 */
/// @{

/** True when AVX2 code paths were compiled into this binary. */
bool simdCompiled();

/** True when compiled AND the CPU reports AVX2 AND not disabled. */
bool simdAvailable();

/**
 * Host-side kill switch (tests/bench force the scalar fallback in an
 * AVX2 binary to prove byte-identical outputs).  Dispatchers snapshot
 * availability at construction, so toggle before building an engine.
 */
void setSimdEnabled(bool enabled);

WorkItems simdMergeIntersectInto(std::span<const VertexId> a,
                                 std::span<const VertexId> b,
                                 std::vector<VertexId> &out);
WorkItems simdMergeIntersectCount(std::span<const VertexId> a,
                                  std::span<const VertexId> b,
                                  Count &count);
WorkItems simdMergeIntersectCountAbove(std::span<const VertexId> a,
                                       std::span<const VertexId> b,
                                       VertexId bound, Count &total,
                                       Count &above);

/** SIMD galloping kernels; @p a is the smaller (driving) list. */
WorkItems simdGallopIntersectInto(std::span<const VertexId> a,
                                  std::span<const VertexId> b,
                                  std::vector<VertexId> &out);
WorkItems simdGallopIntersectCount(std::span<const VertexId> a,
                                   std::span<const VertexId> b,
                                   Count &count);
WorkItems simdGallopSubtractInto(std::span<const VertexId> a,
                                 std::span<const VertexId> b,
                                 std::vector<VertexId> &out);
WorkItems simdGallopIntersectCountAbove(std::span<const VertexId> a,
                                        std::span<const VertexId> b,
                                        VertexId bound, Count &total,
                                        Count &above);
WorkItems simdGallopSubtractCountAbove(std::span<const VertexId> a,
                                       std::span<const VertexId> b,
                                       VertexId bound, Count &total,
                                       Count &above);

namespace detail
{
/** Word-parallel bitmap row probes (gather + variable shift).
 *  Precondition: simdAvailable() — the bitmap kernels test it once
 *  per call and these entry points do not test it again. */
Count simdBitmapCount(std::span<const VertexId> a,
                      const std::uint64_t *row);
void simdBitmapFilter(std::span<const VertexId> a,
                      const std::uint64_t *row, bool keep_members,
                      std::vector<VertexId> &out);
/** One gather pass: @p total = elements of @p a whose row bit equals
 *  @p keep_members, @p above = how many of those are >= @p bound. */
void simdBitmapCountAbove(std::span<const VertexId> a,
                          const std::uint64_t *row, bool keep_members,
                          VertexId bound, Count &total, Count &above);

/** Stable smallest-first ordering of @p n lists: insertion sort is
 *  branch-light at fold sizes (<= 8) and, unlike std::sort,
 *  guarantees a deterministic order on size ties. */
template <typename List>
void
sortBySizeStable(List *lists, std::size_t n)
{
    for (std::size_t i = 1; i < n; ++i) {
        const List key = lists[i];
        std::size_t j = i;
        while (j > 0 && lists[j - 1].size() > key.size()) {
            lists[j] = lists[j - 1];
            --j;
        }
        lists[j] = key;
    }
}
} // namespace detail
/// @}

/** @name Dispatch heuristics (size-ratio thresholds)
 *
 * A hub row on the probed side (the larger list for ∩, b for a \ b)
 * selects Bitmap before any threshold applies, at every size ratio:
 * whole-workload runs on lj (DESIGN.md §5.6) showed the bit tests
 * beating every scan of the probed list, near-equal sizes included.
 * Without a row the thresholds come from the BENCH_kernels.json
 * calibration sweep: gallop's crossover against merge sits between
 * ratio 4 (merge wins 1.15x) and ratio 15 (gallop wins 1.7x), so
 * the gallop threshold is 8.  On the skew branch Auto prefers
 * *scalar* gallop: the sweep shows SimdGallop's vectorized landing
 * window losing to the plain binary narrow at every ratio >=
 * kGallopRatio, so under Auto the SIMD tier engages only as
 * SimdMerge (near-equal sizes) and the word-parallel bitmap path;
 * SimdGallop stays reachable through KernelMode::Simd and the
 * benchmarks.
 */
/// @{
/** Gallop when the larger list is >= this multiple of the smaller. */
inline constexpr std::size_t kGallopRatio = 8;
/** SIMD kernels engage when the driving list has at least this many
 *  elements (below this the vector setup outweighs the win). */
inline constexpr std::size_t kSimdMinSize = 16;
/// @}

/**
 * Per-call kernel selection.  One dispatcher per execution unit
 * (PlanExtender / plan-runner instance); counters attribute every
 * pairwise set operation to the kernel that executed it.  Charged
 * WorkItems are canonical (see file header), so the choice of mode
 * never changes modeled time or stats — only wall-clock.
 */
class KernelDispatcher
{
  public:
    explicit KernelDispatcher(KernelMode mode = KernelMode::Auto,
                              const Graph *graph = nullptr)
        : mode_(mode), graph_(graph), simd_(simdAvailable())
    {}

    KernelMode mode() const { return mode_; }

    const KernelCounters &counters() const { return counters_; }

    WorkItems intersectInto(const ListRef &a, const ListRef &b,
                            std::vector<VertexId> &out);
    WorkItems intersectCount(const ListRef &a, const ListRef &b,
                             Count &count);
    WorkItems subtractInto(const ListRef &a, const ListRef &b,
                           std::vector<VertexId> &out);

    /** Count forms of intersectInto / subtractInto: @p total
     *  elements, @p above of them >= @p bound.  The same kernel
     *  choice, one counter tick and the same canonical charge as
     *  the materializing call on the same inputs. */
    WorkItems intersectCountAbove(const ListRef &a, const ListRef &b,
                                  VertexId bound, Count &total,
                                  Count &above);
    WorkItems subtractCountAbove(const ListRef &a, const ListRef &b,
                                 VertexId bound, Count &total,
                                 Count &above);

    /** Smallest-first folds mirroring the reference free functions
     *  (identical fold order, hence identical canonical charges). */
    WorkItems intersectMany(std::span<const ListRef> lists,
                            std::vector<VertexId> &out,
                            std::vector<VertexId> &scratch);
    WorkItems intersectManyCount(std::span<const ListRef> lists,
                                 Count &count,
                                 std::vector<VertexId> &scratch_a,
                                 std::vector<VertexId> &scratch_b);

  private:
    /** Hub bitmap of @p ref's source, or nullptr. */
    const std::uint64_t *rowFor(const ListRef &ref) const;

    /** The kernel one set operation runs, plus the hub row it
     *  probes when that kernel is Bitmap. */
    struct Choice
    {
        KernelKind kind;
        const std::uint64_t *row;
    };

    /** Kernel for small ∩ large (small.size() <= large.size()),
     *  ticked in the counters. */
    Choice chooseIntersect(const ListRef &small, const ListRef &large);

    /** Kernel for a \ b, ticked in the counters. */
    Choice chooseSubtract(const ListRef &a, const ListRef &b);

    KernelMode mode_;
    const Graph *graph_;
    bool simd_; ///< simdAvailable() snapshot at construction
    KernelCounters counters_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_KERNELS_KERNELS_HH
