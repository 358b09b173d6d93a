/**
 * @file
 * The benchmark's workloads. Each is a closed loop in one process: an
 * iteration starts only when the previous one has finished its store
 * or report. Every iteration goes through the library's public entry
 * points (runRepro, runSweep), and the audit re-executes stored cells
 * through runAccuracy/runTiming on their own.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"
#include "sweep/sweep_spec.hh"

namespace pcbp
{
class SpanTracer;
class StatRegistry;
} // namespace pcbp

namespace perfbench
{

/** Correctness operations: attempted, failed, and what failed. */
struct Audit
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Count one operation; a false @p ok records @p what. */
    void check(bool ok, const std::string &what);
};

/** Library observability hooks a traced iteration passes down. */
struct Hooks
{
    pcbp::StatRegistry *stats = nullptr;
    pcbp::SpanTracer *tracer = nullptr;
};

/** What the per-layer ladder runs on for this workload. */
struct LadderInput
{
    /** A registry recipe whose CFG the ladder walks. */
    pcbp::Workload walk;

    /** A PCBPTRC2 file of the same kind of stream ("" = none); when
     *  set, the engine rungs replay it instead of walking. */
    std::string trace;
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Registry first touch, grid resolution, input files; @p dir is
     *  this process's scratch directory for inputs. */
    virtual void setup(const std::string &dir) = 0;

    /** Every grid cell one iteration completes. */
    virtual const std::vector<pcbp::SweepCell> &cells() const = 0;

    /** Worker threads an iteration uses. */
    virtual unsigned jobs() const { return 1; }

    /**
     * One timed iteration into the fresh directory @p dir; returns
     * the digest of its simulated output (store bytes, REPRO.md).
     */
    virtual std::uint64_t run(const std::string &dir,
                              const Hooks &hooks) = 0;

    /** Store files the last run() in @p dir left behind. */
    virtual std::vector<std::string>
    storePaths(const std::string &dir) const = 0;

    /**
     * Re-execute a seed-chosen sample of the stored cells in @p dir on
     * their own and byte-compare, plus workload-specific checks.
     * Spans go to @p spans when non-null.
     */
    virtual void audit(const std::string &dir, Audit &audit,
                       SpanLog *spans) = 0;

    /** Input of the per-layer ladder. */
    virtual LadderInput ladderInput() const = 0;

    /** Whether the workload's inputs depend on the seed. */
    virtual bool seeded() const = 0;
};

/** Factory by workload name (nullptr when unknown). */
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name,
                                            std::uint64_t seed);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
