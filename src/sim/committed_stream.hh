/**
 * @file
 * Streaming committed-branch sources.
 *
 * Both simulators consume the architectural (committed) branch
 * stream strictly at their commit/resolve pointers, plus a small
 * lookahead for the oracle-future-bit ablation. Precomputing the
 * whole stream into a std::vector<CommittedBranch> therefore wastes
 * O(run length) memory for O(pipeline) worth of liveness — and caps
 * how long a run can be. A CommittedStream produces records on
 * demand into a sliding window: the consumer reads records by
 * absolute index with at(), and releases everything older than its
 * commit pointer with release(), so resident memory is bounded by
 * pipeline depth + future-bit lookahead regardless of run length.
 *
 * Backends:
 *  - ProgramWalkStream: walks a Program's CFG architecturally on the
 *    fly (the default path; replaces walkProgram's eager vector).
 *  - TraceFileStream: chunked replay of a PCBPTRC1 binary trace file
 *    (see workload/trace.hh), making externally recorded committed
 *    streams a workload class of their own.
 *  - CompressedTraceStream: block-decoded replay of a PCBPTRC2
 *    compressed indexed trace (workload/trace2.hh) over an
 *    mmap-backed reader, one block decode per block of records.
 *  - PrecomputedStream: wraps an in-memory vector; used by the
 *    equivalence tests that pin the streaming path to the historical
 *    precomputed-vector behavior.
 *
 * Trace-file consumers should construct through openTraceStream(),
 * which sniffs the magic and picks the backend.
 *
 * See DESIGN.md §4 for how the streams plug into the spec core.
 */

#ifndef PCBP_SIM_COMMITTED_STREAM_HH
#define PCBP_SIM_COMMITTED_STREAM_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "workload/cfg.hh"
#include "workload/trace2.hh"

namespace pcbp
{

class StatRegistry;

/**
 * A monotone window over the committed branch stream.
 *
 * Usage contract: at(i) is valid for any i not yet released; records
 * below the release floor are gone for good (asserted). Streams are
 * single-use — construct a fresh one per run.
 *
 * The resident window is a power-of-two ring buffer and the
 * window-hit path of at()/release() is inline: both simulators call
 * them once per committed branch, so the common case — the record is
 * already resident — must cost an index mask, not an out-of-line
 * call into deque bookkeeping. Production (the virtual produceNext)
 * happens on the atSlow() refill path only.
 */
class CommittedStream
{
  public:
    virtual ~CommittedStream() = default;

    CommittedStream(const CommittedStream &) = delete;
    CommittedStream &operator=(const CommittedStream &) = delete;

    /**
     * Record at absolute index @p idx, producing records on demand.
     * Returns nullptr once @p idx is at or past the end of the
     * stream. The pointer is invalidated by the next at()/release().
     */
    const CommittedBranch *
    at(std::uint64_t idx)
    {
        pcbp_dassert(idx >= base, "reading a released committed record");
        if (idx - base < count) {
            return &window[static_cast<std::size_t>(head + (idx - base)) &
                           (window.size() - 1)];
        }
        // Not a cold path: atSlow() produces only up to @p idx, so
        // every record is first read through here (refills ==
        // produced on every workload).
        ++refillCount;
        return atSlow(idx);
    }

    /** Allow records at indices below @p idx to be discarded. */
    void
    release(std::uint64_t idx)
    {
        while (base < idx && count > 0) {
            head = (head + 1) & (window.size() - 1);
            ++base;
            --count;
        }
    }

    /** Total records this stream will produce. */
    virtual std::uint64_t length() const = 0;

    /** Records currently resident in the window. */
    std::size_t windowSize() const { return count; }

    /** High-water mark of the window — the memory bound under test. */
    std::size_t windowPeak() const { return peak; }

    /** Records produced so far (window base + window size). */
    std::uint64_t produced() const { return base + count; }

    /** Times at() fell off the window onto the refill path. */
    std::uint64_t refills() const { return refillCount; }

    /** Backend identifier for stats ("program_walk", ...). */
    virtual const char *backendName() const = 0;

    /**
     * Export backend-specific host counters (trace.store.* for the
     * compressed backend) into the *host* section of @p reg. Host
     * stats describe this execution, never the simulated work, so
     * backends may differ here without breaking any byte-identity
     * contract (see obs/stat_registry.hh). Default: nothing.
     */
    virtual void exportHostStats(StatRegistry &) const {}

  protected:
    CommittedStream() : window(kInitialWindow) {}

    /** Produce the next record; false once the stream is done. */
    virtual bool produceNext(CommittedBranch &out) = 0;

  private:
    static constexpr std::size_t kInitialWindow = 64;

    /** Refill the window up to @p idx (or the end of the stream). */
    const CommittedBranch *atSlow(std::uint64_t idx);

    /** Double the ring (record order preserved); stays 2^n. */
    void growWindow();

    std::vector<CommittedBranch> window; //!< 2^n ring buffer
    std::size_t head = 0;                //!< ring slot of `base`
    std::size_t count = 0;               //!< resident records
    std::uint64_t base = 0;              //!< absolute index of `head`
    std::size_t peak = 0;
    std::uint64_t refillCount = 0;
    bool ended = false;
};

/**
 * On-the-fly architectural CFG walker: exactly walkProgram(), one
 * branch at a time. Validates and resets the program's walk state on
 * construction; the committed path is independent of the predictor
 * (behaviors read only committed state), so lazy production yields
 * records identical to the eager walk.
 */
class ProgramWalkStream : public CommittedStream
{
  public:
    /** Walk @p program for up to @p limit branches. */
    ProgramWalkStream(Program &program, std::uint64_t limit);

    std::uint64_t length() const override { return limit; }
    const char *backendName() const override { return "program_walk"; }

  protected:
    bool produceNext(CommittedBranch &out) override;

  private:
    Program &program;
    std::uint64_t limit;
    BlockId cur;
    std::uint64_t walked = 0;
};

/**
 * Chunked replayer of a PCBPTRC1 trace file (workload/trace.hh):
 * reads @p chunk_records records worth of bytes per fread, so replay
 * of a billion-branch trace touches O(chunk) memory. Fatal on
 * malformed or truncated files.
 */
class TraceFileStream : public CommittedStream
{
  public:
    explicit TraceFileStream(const std::string &path,
                             std::size_t chunk_records = 4096);

    ~TraceFileStream() override;

    std::uint64_t length() const override { return count; }
    const char *backendName() const override { return "trace_file"; }

  protected:
    bool produceNext(CommittedBranch &out) override;

  private:
    std::FILE *file = nullptr;
    std::uint64_t count = 0;
    std::uint64_t decoded = 0;
    std::vector<unsigned char> buf;
    std::size_t bufPos = 0;
    std::size_t bufLen = 0;
};

/**
 * Block-decoded replayer of a PCBPTRC2 compressed trace
 * (workload/trace2.hh) over the mmap-backed Trace2Reader: each block
 * of records is decoded once, when the stream first reads into it.
 */
class CompressedTraceStream : public CommittedStream
{
  public:
    explicit CompressedTraceStream(const std::string &path);

    std::uint64_t length() const override { return reader->recordCount(); }
    const char *backendName() const override { return "trace2"; }

    void exportHostStats(StatRegistry &reg) const override;

  protected:
    bool produceNext(CommittedBranch &out) override;

  private:
    std::shared_ptr<const Trace2Reader> reader;
    std::vector<CommittedBranch> block; //!< decoded-block cache
    std::uint64_t blockIdx = ~std::uint64_t(0); //!< cached block
    std::uint64_t decoded = 0; //!< next ordinal to produce
    std::uint64_t blockDecodes = 0;
};

/**
 * Open a trace file of either format as a replay stream, sniffing
 * the magic: CompressedTraceStream for PCBPTRC2, TraceFileStream for
 * PCBPTRC1. Fatal on malformed files.
 */
std::unique_ptr<CommittedStream> openTraceStream(const std::string &path);

/** In-memory stream over an already-materialized trace. */
class PrecomputedStream : public CommittedStream
{
  public:
    explicit PrecomputedStream(std::vector<CommittedBranch> trace)
        : trace(std::move(trace))
    {
    }

    std::uint64_t length() const override { return trace.size(); }
    const char *backendName() const override { return "precomputed"; }

  protected:
    bool produceNext(CommittedBranch &out) override;

  private:
    std::vector<CommittedBranch> trace;
    std::uint64_t next = 0;
};

} // namespace pcbp

#endif // PCBP_SIM_COMMITTED_STREAM_HH
