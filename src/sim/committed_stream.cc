#include "sim/committed_stream.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/stat_registry.hh"
#include "workload/trace.hh"

namespace pcbp
{

void
CommittedStream::growWindow()
{
    std::vector<CommittedBranch> bigger(window.size() * 2);
    for (std::size_t i = 0; i < count; ++i)
        bigger[i] = window[(head + i) & (window.size() - 1)];
    window = std::move(bigger);
    head = 0;
}

const CommittedBranch *
CommittedStream::atSlow(std::uint64_t idx)
{
    pcbp_assert(idx >= base, "reading a released committed record");
    while (!ended && base + count <= idx) {
        if (count == window.size())
            growWindow();
        CommittedBranch r;
        if (!produceNext(r)) {
            ended = true;
            break;
        }
        window[(head + count) & (window.size() - 1)] = r;
        ++count;
        peak = std::max(peak, count);
    }
    if (idx < base + count)
        return &window[(head + static_cast<std::size_t>(idx - base)) &
                       (window.size() - 1)];
    return nullptr;
}

ProgramWalkStream::ProgramWalkStream(Program &program_,
                                     std::uint64_t limit_)
    : program(program_), limit(limit_), cur(program_.entry())
{
    program.validate();
    program.resetWalk();
}

bool
ProgramWalkStream::produceNext(CommittedBranch &out)
{
    if (walked >= limit)
        return false;
    const BasicBlock &b = program.block(cur);
    const bool taken = program.evalOutcome(cur);
    out = {cur, b.branchPc, taken, b.numUops};
    cur = program.successor(cur, taken);
    ++walked;
    return true;
}

TraceFileStream::TraceFileStream(const std::string &path,
                                 std::size_t chunk_records)
{
    pcbp_assert(chunk_records >= 1);
    // One open: the header read validates the magic and leaves the
    // file positioned at the first record.
    file = openTraceFile(path, count);
    buf.resize(chunk_records * tracefmt::recordBytes);
}

TraceFileStream::~TraceFileStream()
{
    if (file)
        std::fclose(file);
}

bool
TraceFileStream::produceNext(CommittedBranch &out)
{
    if (decoded >= count)
        return false;
    if (bufPos >= bufLen) {
        const std::uint64_t remaining = count - decoded;
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining,
                                    buf.size() / tracefmt::recordBytes));
        if (std::fread(buf.data(), tracefmt::recordBytes, want, file) !=
            want) {
            pcbp_fatal("trace file truncated");
        }
        bufPos = 0;
        bufLen = want * tracefmt::recordBytes;
    }
    out = tracefmt::decodeRecord(buf.data() + bufPos);
    bufPos += tracefmt::recordBytes;
    ++decoded;
    return true;
}

CompressedTraceStream::CompressedTraceStream(const std::string &path)
    : reader(Trace2Reader::open(path))
{
}

bool
CompressedTraceStream::produceNext(CommittedBranch &out)
{
    if (decoded >= reader->recordCount())
        return false;
    const std::uint64_t b = reader->blockOfOrdinal(decoded);
    if (b != blockIdx) {
        reader->decodeBlock(b, block);
        blockIdx = b;
        ++blockDecodes;
    }
    out = block[static_cast<std::size_t>(
        decoded - b * reader->recordsPerBlock())];
    ++decoded;
    return true;
}

void
CompressedTraceStream::exportHostStats(StatRegistry &reg) const
{
    reg.addHost("trace.store.blocks_decoded", blockDecodes);
    reg.setHostMax("trace.store.bytes_mapped", reader->mappedBytes());
}

std::unique_ptr<CommittedStream>
openTraceStream(const std::string &path)
{
    if (isTrace2File(path))
        return std::make_unique<CompressedTraceStream>(path);
    return std::make_unique<TraceFileStream>(path);
}

bool
PrecomputedStream::produceNext(CommittedBranch &out)
{
    if (next >= trace.size())
        return false;
    out = trace[static_cast<std::size_t>(next++)];
    return true;
}

} // namespace pcbp
