/**
 * @file
 * Precomputed XOR-fold plans: the hash-once form of foldBits() and
 * HistoryRegister::foldedLow() for predictors that fold the same
 * widths on every lookup.
 *
 * foldBits(v, b) XORs the b-bit chunks of v, one loop iteration per
 * non-zero chunk. A plan does the same reduction as a halving tree
 * whose shift/mask steps are worked out once, from the input width
 * and b, at construction: x = (x ^ (x >> s)) & m, at most six steps
 * for any b >= 1, with no division and no data-dependent trip count
 * on the hot path.
 *
 * Folding is XOR-linear — fold(a ^ b) == fold(a) ^ fold(b) — so a
 * caller may fold a shared term (a mixed PC) once per width and XOR
 * in per-table terms folded separately, or precomputed.
 */

#ifndef PCBP_COMMON_FOLD_PLAN_HH
#define PCBP_COMMON_FOLD_PLAN_HH

#include <array>
#include <cstdint>

#include "common/bit_utils.hh"
#include "common/history_register.hh"

namespace pcbp
{

/** XOR-fold of a value of at most @c width bits down to @c bits. */
class FoldPlan
{
  public:
    /** The empty plan folds everything to 0 bits. */
    FoldPlan() = default;

    /**
     * @param width Significant input bits (0..64); bits above it must
     *        be zero in every input, except that width 64 takes any
     *        value.
     * @param bits Output width; 0 yields 0, >= width is the identity.
     */
    FoldPlan(unsigned width, unsigned bits) : outMask(maskBits(bits))
    {
        pcbp_assert(width <= 64);
        if (bits == 0 || bits >= width)
            return;
        // chunks = ceil(width / bits) live chunks. Each step XORs the
        // upper half of the live chunks onto the lower half and masks
        // off the rest, so an odd count never folds a chunk twice.
        // Every shift is below width, hence below 64.
        unsigned chunks = (width + bits - 1) / bits;
        while (chunks > 1) {
            const unsigned half = (chunks + 1) / 2;
            pcbp_assert(numSteps < maxSteps);
            shifts[numSteps] = static_cast<std::uint8_t>(half * bits);
            masks[numSteps] = maskBits(half * bits);
            ++numSteps;
            chunks = half;
        }
    }

    /** Fold @p v; equals foldBits(v, bits) for any in-width @p v. */
    std::uint64_t
    operator()(std::uint64_t v) const
    {
        for (unsigned i = 0; i < numSteps; ++i)
            v = (v ^ (v >> shifts[i])) & masks[i];
        return v & outMask;
    }

  private:
    /** ceil(log2(64)): the step count for 1-bit outputs. */
    static constexpr unsigned maxSteps = 6;

    std::array<std::uint64_t, maxSteps> masks{};
    std::array<std::uint8_t, maxSteps> shifts{};
    unsigned numSteps = 0;
    std::uint64_t outMask = 0;
};

/**
 * Fold of a HistoryRegister's youngest @c n bits down to @c bits:
 * equals HistoryRegister::foldedLow(n, bits). Above 64 bits the
 * reference folds each word separately with chunks aligned at the
 * word start; by XOR-linearity that is one 64-bit fold of
 * word0 ^ (word1 & mask(n - 64)).
 */
class HistoryFold
{
  public:
    HistoryFold() = default;

    HistoryFold(unsigned n, unsigned bits)
        : lowMask(maskBits(n < 64 ? n : 64)),
          highMask(n > 64 ? maskBits(n - 64) : 0),
          plan(n < 64 ? n : 64, bits)
    {
        pcbp_assert(n <= HistoryRegister::capacity);
    }

    std::uint64_t
    operator()(const HistoryRegister &h) const
    {
        return plan((h.word0() & lowMask) ^ (h.word1() & highMask));
    }

  private:
    std::uint64_t lowMask = 0;
    std::uint64_t highMask = 0;
    FoldPlan plan;
};

} // namespace pcbp

#endif // PCBP_COMMON_FOLD_PLAN_HH
