/**
 * @file
 * Exact jump-ahead of a modeled charge chain.  A counted terminal
 * level (core/extender) must leave the modeled ledger exactly where
 * the per-candidate scan would: `n` rounds of `x += first` (checks
 * below the bound) or of `x += first; x += second` (accepted
 * candidates), each add rounded to nearest-even.  `n x cost` rounds
 * differently, so ChargeReplay reproduces the loop's result bit for
 * bit in O(binades) instead of O(n) adds.
 *
 * Within one binade [2^e, 2^(e+1)) every double is a multiple of its
 * ulp u, so `x + c` is `x + round_u(c)` unless `c mod u == u/2` (a
 * tie, e.g. 0.8 in [2,4), which rounds by the parity of x).  While
 * the sum stays in the binade, k rounds are one integer add on the
 * bit pattern: bits + k (d1 + d2), where d = round_u(c) / u comes
 * from integer ops on the constants' bits (precomputed for a window
 * of binades).  The round that leaves the binade, ties, zero,
 * subnormal or negative x, and negative or non-finite constants
 * step the loop itself.  Two fast paths come first: integral x and
 * constants (exact below 2^53), and x == 0, answered from a short
 * prefix of the chain from zero.  Runs shorter than kShortRun keep
 * the plain loop, which is faster there.
 */

#ifndef KHUZDUL_CORE_CHARGE_REPLAY_HH
#define KHUZDUL_CORE_CHARGE_REPLAY_HH

#include <array>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/types.hh"

// The jump argument is IEEE binary64 arithmetic with every add
// rounded to double; extended-precision evaluation would make the
// loop itself drift from it (and the modeled dump with it).
static_assert(std::numeric_limits<double>::is_iec559
                  && FLT_EVAL_METHOD == 0,
              "charge replay needs IEEE doubles evaluated as doubles");

namespace khuzdul
{
namespace core
{

/** n rounds of `x += first` (or `x += first; x += second`), exact. */
class ChargeReplay
{
  public:
    /** Runs shorter than this are stepped (BM_ChargeReplay). */
    static constexpr Count kShortRun = 16;
    /** Rounds of the chain from zero kept (kZeroPrefix doubles). */
    static constexpr std::size_t kZeroPrefix = 256;

    /** Rounds of `x += step`. */
    explicit ChargeReplay(double step);

    /** Rounds of `x += first; x += second`. */
    ChargeReplay(double first, double second);

    /** @p x after @p rounds rounds, bit-identical to the loop. */
    double
    apply(double x, Count rounds) const
    {
        if (rounds < kShortRun) [[likely]] {
            if (pair_) {
                for (Count i = 0; i < rounds; ++i) {
                    x += first_.value;
                    x += second_.value;
                }
            } else {
                for (Count i = 0; i < rounds; ++i)
                    x += first_.value;
            }
            return x;
        }
        return jump(x, rounds);
    }

  private:
    /** Binades with a precomputed step, from 2^-8 up to 2^56. */
    static constexpr unsigned kWindowLo = 1023 - 8;
    static constexpr unsigned kWindow = 64;

    /** One constant, decoded once: value = significand x
     *  2^(exponent - 1075). */
    struct Addend
    {
        double value = 0;
        std::uint64_t significand = 0;
        int exponent = 1;
    };

    static Addend decode(double value);

    /** @p c rounded to the ulp of binade @p exponent (biased), in
     *  ulps; false on a tie. */
    static bool roundIn(int exponent, const Addend &c,
                        std::uint64_t &units);

    /** perRound: the round must be stepped (a tie, or an x or
     *  constant the jump does not cover). */
    static constexpr std::uint64_t kStep = ~std::uint64_t{0};

    /** Ulps one round adds in binade @p exponent (biased, sign bit
     *  included), or kStep. */
    std::uint64_t perRound(unsigned exponent) const;

    /** Classify the constants, fill the window and build the zero
     *  prefix. */
    void init();

    /** apply() for @p rounds >= kShortRun (so never 0). */
    double jump(double x, Count rounds) const;

    double
    step(double x) const
    {
        x += first_.value;
        if (pair_)
            x += second_.value;
        return x;
    }

    Addend first_;
    Addend second_; ///< +0 when unpaired
    bool pair_ = false;
    /** Both constants are non-negative finite (jumpable). */
    bool positive_ = false;
    /** Both constants are integers below 2^53; their round's sum. */
    bool integral_ = false;
    std::uint64_t integralSum_ = 0;
    /** window_[e - kWindowLo] = perRound(e). */
    std::array<std::uint64_t, kWindow> window_{};
    /** zero_[i]: the chain from +0 after i rounds (non-integral
     *  positive constants only). */
    std::vector<double> zero_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_CHARGE_REPLAY_HH
