/**
 * @file
 * PCBPTRC2 format-level property tests (DESIGN.md §13).
 *
 * The compressed indexed trace store earns its place only if it is
 * *invisible* to everything downstream:
 *
 * - lossless: random programs and adversarial random record payloads
 *   (dictionary exceptions included) survive PCBPTRC1 -> PCBPTRC2 ->
 *   PCBPTRC1 round trips, with the back-conversion byte-identical to
 *   the original file;
 * - stream-equivalent: CompressedTraceStream yields the exact record
 *   sequence TraceFileStream yields, through the generic dispatch
 *   entry point;
 * - O(1) seek: landing on an arbitrary ordinal via the footer index
 *   (blockOfOrdinal + decodeBlock) decodes exactly one block, and a
 *   stream's blocksDecoded counter is exported as trace.store.*
 *   host stats;
 * - compact: >= 4x smaller than PCBPTRC1 on a recorded CFG-walk
 *   trace (the full 10M-branch criterion runs in test_longrun.cc);
 * - identified: `pcbp_trace info` output is deterministic and its
 *   schema is pinned by a golden.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "obs/stat_registry.hh"
#include "sim/committed_stream.hh"
#include "sim/driver.hh"
#include "workload/generator.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

std::string
tmpPath(const char *stem)
{
    return testing::TempDir() + stem;
}

std::vector<unsigned char>
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

WorkloadRecipe
traceRecipe(std::uint64_t seed)
{
    WorkloadRecipe r;
    r.name = "trc2-" + std::to_string(seed);
    r.seed = seed;
    r.targetBlocks = 150 + unsigned(seed % 5) * 40;
    r.numChains = 4;
    r.numPhaseChains = 2;
    return r;
}

/** Adversarial payloads: extremes, id holes, and repeated block ids
 *  with *different* pc/uops, which force the per-record dictionary
 *  exception path a genuine CFG walk never takes. */
std::vector<CommittedBranch>
randomRecords(Rng &rng, std::size_t n)
{
    std::vector<CommittedBranch> t;
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        CommittedBranch r;
        switch (rng.nextBelow(8)) {
          case 0:
            r.block = 0;
            break;
          case 1:
            r.block = 0xffffffffu;
            break;
          default:
            r.block = BlockId(rng.nextBelow(64));
        }
        r.pc = rng.nextBelow(4) == 0 ? rng.next()
                                     : 0x400000 + (Addr(r.block) << 4);
        r.taken = rng.nextBool(0.5);
        r.numUops = rng.nextBelow(8) == 0
                        ? 0xffffffffu
                        : std::uint32_t(rng.nextBelow(64));
        t.push_back(r);
    }
    return t;
}

void
expectSameRecords(const std::vector<CommittedBranch> &a,
                  const std::vector<CommittedBranch> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].block, b[i].block) << "record " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "record " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "record " << i;
        ASSERT_EQ(a[i].numUops, b[i].numUops) << "record " << i;
    }
}

// --------------------------------------------------- lossless store

TEST(Trace2, RandomProgramWalkRoundTripsThroughConversion)
{
    const std::string v1 = tmpPath("t2_walk.pcbptrc");
    const std::string v2 = tmpPath("t2_walk.pcbptrc2");
    const std::string back = tmpPath("t2_walk_back.pcbptrc");

    for (const std::uint64_t seed : {3u, 77u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Program p = generateProgram(traceRecipe(seed));
        const auto walk = walkProgram(p, 20000);
        saveTrace(v1, walk);

        EXPECT_EQ(convertTraceFile(v1, v2, true), walk.size());
        EXPECT_TRUE(isTrace2File(v2));
        EXPECT_FALSE(isTrace2File(v1));
        EXPECT_EQ(traceFileCount(v2), walk.size());

        // The generic loader dispatches on the magic: both files
        // deliver the identical record sequence.
        expectSameRecords(loadTrace(v2), walk);

        // Back-conversion is byte-identical, not merely equivalent.
        EXPECT_EQ(convertTraceFile(v2, back, false), walk.size());
        EXPECT_EQ(slurpBytes(back), slurpBytes(v1));

        // A CFG walk revisits each static branch with fixed pc/uops,
        // so the dictionary covers every record: expect real
        // compression, not just parity (>= 4x is the PR criterion).
        const auto info = Trace2Reader::open(v2)->info();
        const std::uint64_t v1_bytes =
            tracefmt::headerBytes + walk.size() * tracefmt::recordBytes;
        EXPECT_GE(double(v1_bytes) / double(info.fileBytes), 4.0);
    }
    std::remove(v1.c_str());
    std::remove(v2.c_str());
    std::remove(back.c_str());
}

TEST(Trace2, AdversarialRecordsRoundTripAtEveryBlockGeometry)
{
    const std::string v2 = tmpPath("t2_adv.pcbptrc2");
    Rng rng(20240);
    for (const std::uint32_t rpb : {1u, 3u, 64u, 4096u}) {
        for (int iter = 0; iter < 4; ++iter) {
            SCOPED_TRACE("rpb " + std::to_string(rpb) + " iter " +
                         std::to_string(iter));
            const auto records =
                randomRecords(rng, std::size_t(rng.nextBelow(700)));
            {
                Trace2Writer w(v2, rpb);
                for (const auto &r : records)
                    w.append(r);
                w.finish();
                EXPECT_EQ(w.written(), records.size());
            }
            expectSameRecords(loadTrace(v2), records);

            const auto reader = Trace2Reader::open(v2);
            EXPECT_EQ(reader->recordCount(), records.size());
            EXPECT_EQ(reader->numBlocks(),
                      (records.size() + rpb - 1) / rpb);
        }
    }
    std::remove(v2.c_str());
}

TEST(Trace2, EmptyTraceRoundTrips)
{
    const std::string v2 = tmpPath("t2_empty.pcbptrc2");
    {
        Trace2Writer w(v2);
        w.finish();
    }
    EXPECT_TRUE(isTrace2File(v2));
    EXPECT_EQ(traceFileCount(v2), 0u);
    EXPECT_TRUE(loadTrace(v2).empty());
    EXPECT_EQ(Trace2Reader::open(v2)->numBlocks(), 0u);
    std::remove(v2.c_str());
}

TEST(Trace2, SummariesAgreeAcrossFormats)
{
    const std::string v1 = tmpPath("t2_sum.pcbptrc");
    const std::string v2 = tmpPath("t2_sum.pcbptrc2");
    Program p = generateProgram(traceRecipe(11));
    saveTrace(v1, walkProgram(p, 9000));
    convertTraceFile(v1, v2, true);

    const TraceSummary a = summarizeTraceFile(v1);
    const TraceSummary b = summarizeTraceFile(v2);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    EXPECT_EQ(a.staticBranches, b.staticBranches);
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

// ------------------------------------------------- stream equivalence

TEST(Trace2, CompressedStreamMatchesTraceFileStreamRecordForRecord)
{
    const std::string v1 = tmpPath("t2_stream.pcbptrc");
    const std::string v2 = tmpPath("t2_stream.pcbptrc2");
    Program p = generateProgram(traceRecipe(21));
    const auto walk = walkProgram(p, 15000);
    saveTrace(v1, walk);
    convertTraceFile(v1, v2, true, 512);

    auto a = openTraceStream(v1);
    auto b = openTraceStream(v2);
    EXPECT_STREQ(a->backendName(), "trace_file");
    EXPECT_STREQ(b->backendName(), "trace2");
    ASSERT_EQ(a->length(), walk.size());
    ASSERT_EQ(b->length(), walk.size());

    for (std::uint64_t i = 0; i < walk.size(); ++i) {
        const CommittedBranch *ra = a->at(i);
        const CommittedBranch *rb = b->at(i);
        ASSERT_NE(ra, nullptr);
        ASSERT_NE(rb, nullptr);
        ASSERT_EQ(ra->block, rb->block) << "record " << i;
        ASSERT_EQ(ra->pc, rb->pc) << "record " << i;
        ASSERT_EQ(ra->taken, rb->taken) << "record " << i;
        ASSERT_EQ(ra->numUops, rb->numUops) << "record " << i;
        a->release(i);
        b->release(i);
    }
    EXPECT_EQ(a->at(walk.size()), nullptr);
    EXPECT_EQ(b->at(walk.size()), nullptr);
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

// ------------------------------------------------------- O(1) seek

TEST(Trace2, IndexSeekDecodesAtMostOneBlock)
{
    const std::string v1 = tmpPath("t2_seek.pcbptrc");
    const std::string v2 = tmpPath("t2_seek.pcbptrc2");
    Program p = generateProgram(traceRecipe(41));
    const auto walk = walkProgram(p, 10000);
    saveTrace(v1, walk);
    constexpr std::uint32_t rpb = 128;
    convertTraceFile(v1, v2, true, rpb);

    // Land on random ordinals through the footer index: the block
    // the index names holds the ordinal's true record at its offset,
    // wherever in the file it lives.
    const auto reader = Trace2Reader::open(v2);
    Rng rng(99);
    std::vector<CommittedBranch> block;
    for (int iter = 0; iter < 20; ++iter) {
        const std::uint64_t ordinal = rng.nextBelow(walk.size());
        const std::uint64_t b = reader->blockOfOrdinal(ordinal);
        EXPECT_EQ(b, ordinal / rpb);
        reader->decodeBlock(b, block);
        ASSERT_EQ(block.size(), reader->blockLength(b));
        const CommittedBranch &r = block[ordinal - b * rpb];
        ASSERT_EQ(r.block, walk[std::size_t(ordinal)].block)
            << "ordinal " << ordinal;
        ASSERT_EQ(r.pc, walk[std::size_t(ordinal)].pc);
        ASSERT_EQ(r.taken, walk[std::size_t(ordinal)].taken);
        ASSERT_EQ(r.numUops, walk[std::size_t(ordinal)].numUops);
    }
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

// ------------------------------------------------ replay + host stats

TEST(Trace2, EngineReplayMatchesAcrossFormatsAndExportsStoreStats)
{
    const std::string v1 = tmpPath("t2_replay.pcbptrc");
    const std::string v2 = tmpPath("t2_replay.pcbptrc2");
    Program src = generateProgram(traceRecipe(51));
    saveTrace(v1, walkProgram(src, 8000));
    convertTraceFile(v1, v2, true, 1024);

    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8);
    EngineConfig cfg;
    cfg.warmupBranches = 800;
    cfg.measureBranches = 7200;

    const auto replay = [&](const std::string &path, StatRegistry &reg) {
        Program p = reconstructProgramFromTrace(path, "t2-replay");
        auto h = spec.build();
        EngineConfig c = cfg;
        c.statsOut = &reg;
        auto stream = openTraceStream(path);
        return Engine(p, *h, c).run(*stream);
    };

    StatRegistry ra, rb;
    const EngineStats sa = replay(v1, ra);
    const EngineStats sb = replay(v2, rb);
    EXPECT_EQ(sa.committedBranches, sb.committedBranches);
    EXPECT_EQ(sa.committedUops, sb.committedUops);
    EXPECT_EQ(sa.finalMispredicts, sb.finalMispredicts);
    EXPECT_EQ(sa.criticOverrides, sb.criticOverrides);

    // The backends differ only where they are allowed to: the sim
    // section's backend tag, and the host-only trace.store.* block.
    EXPECT_EQ(ra.simValue("stream.produced"),
              rb.simValue("stream.produced"));
    EXPECT_EQ(ra.simValue("stream.backend.trace_file"), 1u);
    EXPECT_EQ(rb.simValue("stream.backend.trace2"), 1u);
    EXPECT_EQ(ra.toJson().find("trace.store."), std::string::npos);
    EXPECT_NE(rb.toJson().find("\"trace.store.blocks_decoded\""),
              std::string::npos);
    EXPECT_NE(rb.toJson().find("\"trace.store.bytes_mapped\""),
              std::string::npos);
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

// ----------------------------------------------------- info schema

TEST(Trace2, InfoRenderingIsDeterministicAndSchemaStable)
{
    const std::string v1 = tmpPath("t2_info.pcbptrc");
    const std::string v2 = tmpPath("t2_info.pcbptrc2");
    Program p = generateProgram(traceRecipe(61));
    saveTrace(v1, walkProgram(p, 5000));
    convertTraceFile(v1, v2, true);

    const std::string a = renderTraceInfo(v2);
    EXPECT_EQ(a, renderTraceInfo(v2)) << "info must be deterministic";

    // Schema: the exact key sequence `pcbp_trace info` promises (the
    // CI trace-smoke job greps the same keys from the CLI).
    const auto keysOf = [](const std::string &body) {
        std::vector<std::string> keys;
        std::istringstream is(body);
        std::string line;
        while (std::getline(is, line))
            keys.push_back(line.substr(0, line.find(' ')));
        return keys;
    };
    const std::vector<std::string> v2Keys = {
        "format",      "version",          "records",
        "records_per_block", "blocks",     "static_branches",
        "file_bytes",  "index_bytes",      "bytes_per_record",
        "v1_bytes",    "ratio_vs_v1",
    };
    EXPECT_EQ(keysOf(a), v2Keys);
    const std::vector<std::string> v1Keys = {
        "format", "records", "file_bytes", "bytes_per_record"};
    EXPECT_EQ(keysOf(renderTraceInfo(v1)), v1Keys);

    // No path leakage: moving the file cannot change the output.
    const std::string moved = tmpPath("t2_info_moved.bin");
    ASSERT_EQ(std::rename(v2.c_str(), moved.c_str()), 0);
    EXPECT_EQ(renderTraceInfo(moved), a);

    std::remove(v1.c_str());
    std::remove(moved.c_str());
}

} // namespace
} // namespace pcbp
