/**
 * @file
 * Host-side measurement helpers for the benchmark harness: wall and
 * CPU clocks, per-phase peak resident memory, file digests, medians,
 * and a flat JSON writer for the result line.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic wall-clock seconds. */
double wallNow();

/** User+system CPU seconds of the whole process (every thread). */
double cpuNow();

/**
 * Reset the process's peak-RSS watermark (VmHWM) so the next
 * peakRssMb() covers only what ran since. Where the kernel does not
 * allow it, the peak covers the process life.
 */
void resetPeakRss();

/** Peak resident memory in MiB since the last resetPeakRss(). */
double peakRssMb();

/** 64-bit FNV-1a, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** Whole file as bytes (fatal when unreadable). */
std::string readFile(const std::string &path);

/** 16-hex-digit rendering of a digest. */
std::string hex64(std::uint64_t v);

/** Median of a non-empty sample. */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1] of a non-empty sample. */
double quantile(std::vector<double> v, double q);

/** A metric as reported: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** `{"name": {"value": v, "unit": "u"}, ...}` with full precision. */
std::string metricsJson(const MetricMap &metrics);

/** JSON string literal (quotes and escapes). */
std::string jsonString(const std::string &s);

/** Number with all significant digits (%.17g; fatal if non-finite). */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
