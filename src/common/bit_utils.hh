/**
 * @file
 * Small bit-manipulation helpers used by predictor index/tag hashing.
 */

#ifndef PCBP_COMMON_BIT_UTILS_HH
#define PCBP_COMMON_BIT_UTILS_HH

#include <cstdint>

#include "common/logging.hh"

namespace pcbp
{

/** Return a mask with the low @p n bits set (n in [0, 64]). */
constexpr std::uint64_t
maskBits(unsigned n)
{
    return n >= 64 ? ~std::uint64_t(0) : ((std::uint64_t(1) << n) - 1);
}

/** True iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Base-2 logarithm of a power of two. */
constexpr unsigned
log2Floor(std::uint64_t v)
{
    unsigned r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

/**
 * Fold a wide value down to @p bits bits by XORing successive
 * @p bits -wide chunks. Used to hash long histories into table
 * indices without discarding any input bits.
 */
constexpr std::uint64_t
foldBits(std::uint64_t v, unsigned bits)
{
    if (bits == 0)
        return 0;
    if (bits >= 64)
        return v;
    std::uint64_t folded = 0;
    while (v != 0) {
        folded ^= v & maskBits(bits);
        v >>= bits;
    }
    return folded;
}

/** Reverse the bit order of a 64-bit value (bit 0 <-> bit 63). */
constexpr std::uint64_t
bitReverse64(std::uint64_t v)
{
    v = ((v >> 1) & 0x5555555555555555ULL) |
        ((v & 0x5555555555555555ULL) << 1);
    v = ((v >> 2) & 0x3333333333333333ULL) |
        ((v & 0x3333333333333333ULL) << 2);
    v = ((v >> 4) & 0x0f0f0f0f0f0f0f0fULL) |
        ((v & 0x0f0f0f0f0f0f0f0fULL) << 4);
    return __builtin_bswap64(v);
}

/**
 * foldBits for values known to populate most of the 64-bit range
 * (e.g.\ mix64 output): identical result, but the chunk count is
 * computed from the width instead of testing v against zero each
 * iteration, so the loop has a fixed trip count the compiler can
 * unroll and the fold runs branch-free on the hash hot path.
 */
constexpr std::uint64_t
foldBitsFixed(std::uint64_t v, unsigned bits)
{
    if (bits == 0)
        return 0;
    if (bits >= 64)
        return v;
    std::uint64_t folded = 0;
    for (unsigned s = 0; s < 64; s += bits)
        folded ^= v >> s;
    return folded & maskBits(bits);
}

/**
 * Mix a 64-bit value (splitmix64 finalizer). Cheap, high-quality
 * avalanche used to decorrelate tag hashes from index hashes.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Seznec-style skewing function for gskew banks: one step of an
 * n-bit Galois LFSR (shift right, feed the LSB back into taps at
 * bits n-1 and n-2). Bijective over the low @p n bits; the three
 * bank indices of gskew combine skewH and skewHInv so that two
 * inputs colliding in one bank are spread apart in the others.
 *
 * The feedback XOR is applied through a mask, not a branch: the
 * feedback bit is a hash bit, so a branch on it would mispredict
 * about half the time on the gskew hot path. Callers validate @p n
 * once (GSkew's constructor); here it is a debug assertion.
 */
constexpr std::uint64_t
skewH(std::uint64_t v, unsigned n)
{
    pcbp_dassert(n >= 2 && n <= 63);
    const std::uint64_t mask = maskBits(n);
    const std::uint64_t taps =
        (std::uint64_t(1) << (n - 1)) | (std::uint64_t(1) << (n - 2));
    v &= mask;
    const std::uint64_t fb = v & 1;
    return ((v >> 1) ^ (taps & (0 - fb))) & mask;
}

/** Inverse of skewH over the low @p n bits. */
constexpr std::uint64_t
skewHInv(std::uint64_t v, unsigned n)
{
    pcbp_dassert(n >= 2 && n <= 63);
    const std::uint64_t mask = maskBits(n);
    const std::uint64_t taps =
        (std::uint64_t(1) << (n - 1)) | (std::uint64_t(1) << (n - 2));
    v &= mask;
    // The shifted-out feedback bit is visible at bit n-1: v >> 1 has a
    // zero there, so after the conditional tap XOR it equals fb.
    const std::uint64_t fb = (v >> (n - 1)) & 1;
    const std::uint64_t r = v ^ (taps & (0 - fb));
    return ((r << 1) | fb) & mask;
}

} // namespace pcbp

#endif // PCBP_COMMON_BIT_UTILS_HH
