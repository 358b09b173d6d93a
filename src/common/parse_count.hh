/**
 * @file
 * Checked parsing of non-negative decimal counts — the one parser
 * behind every numeric CLI flag and `.sweep` value, so no
 * user-reachable number can wrap, truncate, or abort the process —
 * and of the few non-negative real-valued flags (fractions).
 */

#ifndef PCBP_COMMON_PARSE_COUNT_HH
#define PCBP_COMMON_PARSE_COUNT_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "common/logging.hh"

namespace pcbp
{

/**
 * @p s as a count in [0, @p max]: decimal digits only — no sign,
 * whitespace or trailing text — and no overflow. nullopt otherwise.
 */
inline std::optional<std::uint64_t>
parseCount(std::string_view s,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

/**
 * parseCount for a command-line flag: a bad value is fatal (message
 * naming @p flag, exit code 1).
 */
inline std::uint64_t
parseCountFlag(std::string_view flag, std::string_view s,
               std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::optional<std::uint64_t> v = parseCount(s, max);
    if (!v)
        pcbp_fatal("bad value '", s, "' for ", flag,
                   " (expected an integer in [0, ", max, "])");
    return *v;
}

/**
 * @p s as a finite real >= 0: the whole string must parse (decimal or
 * exponent form; no sign, whitespace, "inf" or "nan"). nullopt
 * otherwise.
 */
inline std::optional<double>
parseNonNegative(std::string_view s)
{
    double v = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || s[0] == '-' || ec != std::errc() || ptr != end ||
        !std::isfinite(v))
        return std::nullopt;
    return v;
}

/** parseNonNegative for a command-line flag: a bad value is fatal. */
inline double
parseNonNegativeFlag(std::string_view flag, std::string_view s)
{
    const std::optional<double> v = parseNonNegative(s);
    if (!v)
        pcbp_fatal("bad value '", s, "' for ", flag,
                   " (expected a finite number >= 0)");
    return *v;
}

} // namespace pcbp

#endif // PCBP_COMMON_PARSE_COUNT_HH
