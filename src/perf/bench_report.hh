/**
 * @file
 * Benchmark artifacts: the `BENCH_<name>.json` format, the Markdown
 * summary table, and baseline comparison.
 *
 * The JSON schema is deterministic: a fixed `"schema"` tag
 * ("pcbp-bench-1"), a fixed key set emitted in a fixed order, and
 * fixed-precision number formatting — only the measured values vary
 * between runs. That is what lets tests pin the schema with a golden
 * (numbers normalized), lets `compare` parse any artifact any
 * revision of the tool wrote, and keeps diffs between committed
 * before/after artifacts readable. Like the sweep store's reader,
 * the parser here reads exactly this schema — it is not a general
 * JSON parser.
 *
 * Comparison semantics: benchmarks are joined by name; a benchmark
 * regresses when its current throughput drops more than `threshold`
 * (a fraction) below the baseline's. Benchmarks present on only one
 * side are reported but never gate, and runs with different
 * quick/scale settings are flagged as incomparable (gating on them
 * would be noise, not signal).
 */

#ifndef PCBP_PERF_BENCH_REPORT_HH
#define PCBP_PERF_BENCH_REPORT_HH

#include <string>
#include <vector>

#include "perf/bench.hh"
#include "report/table.hh"

namespace pcbp
{

/** One benchmark run as persisted in a BENCH_<name>.json. */
struct BenchRun
{
    /** Run label (the <name> of the artifact filename). */
    std::string name;

    bool quick = false;

    /** PCBP_BENCH_SCALE in effect. */
    double scale = 1.0;

    /** Timed repetitions per benchmark. */
    unsigned repeats = 0;

    /** Workload override for engine/timing benches ("" = default). */
    std::string workload;

    std::vector<BenchResult> results;

    /** Assemble from a finished `run` invocation. */
    static BenchRun fromResults(const std::string &name,
                                const BenchContext &ctx,
                                std::vector<BenchResult> results);
};

/** Serialize per the pcbp-bench-1 schema (see the file comment). */
std::string benchRunToJson(const BenchRun &run);

/**
 * Parse a pcbp-bench-1 document (fatal with the offending detail on
 * anything else — including a future schema tag).
 */
BenchRun benchRunFromJson(const std::string &text);

/** Read and parse an artifact file (fatal if unreadable). */
BenchRun loadBenchRun(const std::string &path);

/** The Markdown summary table for one run (reusing ReportTable). */
ReportTable benchRunTable(const BenchRun &run);

/**
 * Create @p dir, parents included, to receive a run's artifacts.
 * Fatal (exit 1) with a `cannot create` message naming @p dir when
 * it cannot be made, so `pcbp_bench run --out` refuses a bad
 * directory before it measures anything.
 */
void makeBenchOutDir(const std::string &dir);

/**
 * Write @p run into the existing @p dir as `BENCH_<name>.json` plus
 * the `.md` summary table; returns their shared path stem. Fatal on
 * a failed write.
 */
std::string writeBenchRun(const BenchRun &run, const std::string &dir);

/** Write @p content to @p path; fatal on any failure. */
void writeFileOrDie(const std::string &path, const std::string &content);

/** One benchmark's baseline/current comparison. */
struct BenchDelta
{
    std::string name;

    /** Throughputs in items/s; 0 when missing on that side. */
    double baseline = 0.0;
    double current = 0.0;

    /** current/baseline - 1; 0 when either side is missing. */
    double delta = 0.0;

    bool missingBaseline = false;
    bool missingCurrent = false;

    /** delta < -threshold (never set for missing sides). */
    bool regression = false;
};

/** Comparison of a current run against a baseline. */
struct BenchComparison
{
    std::vector<BenchDelta> deltas;

    /** quick/scale/workload differ — numbers are not comparable. */
    bool incomparable = false;

    /** Any per-benchmark regression beyond the threshold. */
    bool regressed = false;
};

/**
 * Join @p current against @p baseline by benchmark name and flag
 * regressions beyond @p threshold (fraction, e.g. 0.10 = 10%).
 */
BenchComparison compareBenchRuns(const BenchRun &baseline,
                                 const BenchRun &current,
                                 double threshold);

/** The Markdown comparison table (reusing ReportTable). */
ReportTable benchComparisonTable(const BenchComparison &cmp,
                                 double threshold);

/**
 * Serialize a comparison as a machine-readable summary (schema
 * "pcbp-bench-compare-1"). Every delta appears — including
 * benchmarks present on only one side, carrying their
 * `missing_baseline` / `missing_current` flags — so a CI artifact of
 * the comparison is self-describing: the stderr "benchmark sets
 * differ" lines have an in-band counterpart (`mismatched` plus the
 * flagged rows), and the gate verdicts (`regressed`, per-row
 * `regression`) are recorded next to the threshold that produced
 * them. Same determinism rules as the run schema: fixed key set,
 * fixed order, fixed-precision numbers.
 */
std::string benchComparisonToJson(const BenchComparison &cmp,
                                  double threshold);

} // namespace pcbp

#endif // PCBP_PERF_BENCH_REPORT_HH
