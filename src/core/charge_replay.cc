#include "core/charge_replay.hh"

#include <bit>

namespace khuzdul
{
namespace core
{

namespace
{

constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;

std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Whether @p x is an integer in [0, 2^53]; @p out = its value. */
bool
integralValue(double x, std::uint64_t &out)
{
    if (!(x >= 0 && x <= static_cast<double>(kTwo53)))
        return false;
    out = static_cast<std::uint64_t>(x);
    return static_cast<double>(out) == x;
}

/** Non-negative (sign bit clear) and finite. */
bool
positiveFinite(double c)
{
    return bitsOf(c) < (std::uint64_t{0x7ff} << 52);
}

} // namespace

ChargeReplay::Addend
ChargeReplay::decode(double value)
{
    const std::uint64_t bits = bitsOf(value);
    const int exponent = static_cast<int>((bits >> 52) & 0x7ff);
    Addend c;
    c.value = value;
    c.significand = bits & kFraction;
    // Zero and subnormals share the first normal binade's ulp.
    if (exponent != 0) {
        c.significand |= std::uint64_t{1} << 52;
        c.exponent = exponent;
    }
    return c;
}

ChargeReplay::ChargeReplay(double step)
    : first_(decode(step))
{
    init();
}

ChargeReplay::ChargeReplay(double first, double second)
    : first_(decode(first)), second_(decode(second)), pair_(true)
{
    init();
}

void
ChargeReplay::init()
{
    positive_ = positiveFinite(first_.value)
        && positiveFinite(second_.value);
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    integral_ = positive_ && integralValue(first_.value, a)
        && integralValue(second_.value, b);
    integralSum_ = a + b;
    for (unsigned slot = 0; slot < kWindow; ++slot)
        window_[slot] = perRound(kWindowLo + slot);
    if (!positive_ || integral_)
        return;
    zero_.resize(kZeroPrefix);
    double x = 0;
    for (double &entry : zero_) {
        entry = x;
        x = step(x);
    }
}

bool
ChargeReplay::roundIn(int exponent, const Addend &c,
                      std::uint64_t &units)
{
    const int shift = c.exponent - exponent;
    if (shift >= 0) {
        // Past 2^10 ulps per significand bit the constant outruns
        // the binade (2^52 ulps) in one round: report a step the
        // caller cannot take.
        units = shift > 10 ? kTwo53 : c.significand << shift;
        return true;
    }
    const int down = -shift;
    if (down > 53) {
        units = 0; // below half an ulp, never a tie
        return true;
    }
    const std::uint64_t half = std::uint64_t{1} << (down - 1);
    const std::uint64_t rem = c.significand & ((half << 1) - 1);
    units = (c.significand >> down) + (rem > half ? 1 : 0);
    return rem != half;
}

double
ChargeReplay::jump(double x, Count rounds) const
{
    std::uint64_t start = 0;
    if (integral_ && integralValue(x, start)) {
        // Every partial sum is an integer <= the total <= 2^53, so
        // every add is exact.
        std::uint64_t total = 0;
        if (!__builtin_mul_overflow(rounds, integralSum_, &total)
            && !__builtin_add_overflow(total, start, &total)
            && total <= kTwo53)
            return static_cast<double>(total);
    }
    if (x == 0 && !zero_.empty()) {
        // -0 joins +0 after one round of non-negative constants.
        if (rounds < zero_.size())
            return zero_[rounds];
        x = zero_.back();
        rounds -= zero_.size() - 1;
    }
    while (rounds > 0) {
        std::uint64_t bits = bitsOf(x);
        const unsigned exponent = static_cast<unsigned>(bits >> 52);
        const unsigned slot = exponent - kWindowLo;
        const std::uint64_t per =
            slot < kWindow ? window_[slot] : perRound(exponent);
        if (per == 0)
            return x; // both constants round away: a fixed point
        const std::uint64_t room = kFraction - (bits & kFraction);
        // Most runs end inside the binade: skip the divide.
        std::uint64_t all = 0;
        if (!__builtin_mul_overflow(rounds, per, &all) && all <= room)
            return std::bit_cast<double>(bits + all);
        // Jump to the binade's last round, then step the one that
        // leaves it (kStep jumps nowhere and steps).
        const std::uint64_t k = room / per;
        bits += k * per;
        rounds -= k + 1;
        const double next = step(std::bit_cast<double>(bits));
        if (bitsOf(next) == bits)
            return next; // a fixed point stays one
        x = next;
    }
    return x;
}

std::uint64_t
ChargeReplay::perRound(unsigned exponent) const
{
    // A set sign bit lands negative x above 2046.
    if (!positive_ || exponent < 1 || exponent > 2046)
        return kStep;
    std::uint64_t first = 0;
    std::uint64_t second = 0;
    if (!roundIn(static_cast<int>(exponent), first_, first)
        || (pair_ && !roundIn(static_cast<int>(exponent), second_,
                              second)))
        return kStep;
    return first + second;
}

} // namespace core
} // namespace khuzdul
