/**
 * @file
 * Long-run smoke (ctest label: slow): ten million committed branches
 * through the streaming core, asserting the committed-stream window
 * — the only structure whose size could scale with run length —
 * stays bounded by the pipeline, so memory is independent of branch
 * count. The precomputed-vector path this replaced would have
 * allocated ~170MB here (and ~17GB at a billion branches); the
 * stream holds a few dozen records.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "sim/committed_stream.hh"
#include "sim/driver.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

TEST(LongRun, TenMillionBranchesConstantMemory)
{
    const Workload &w = workloadByName("mm.mpeg");
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B8KB);

    EngineConfig cfg;
    cfg.warmupBranches = 100000;
    cfg.measureBranches = 9900000;

    Program p = buildProgram(w);
    auto h = spec.build();
    Engine engine(p, *h, cfg);
    ProgramWalkStream stream(p, 10000000);
    const EngineStats st = engine.run(stream);

    EXPECT_EQ(st.committedBranches, 9900000u);
    EXPECT_GT(st.committedUops, st.committedBranches);
    // O(pipeline) resident stream: the window never grew past
    // pipeline depth + lookahead, over a 10M-branch run.
    EXPECT_LE(stream.windowPeak(),
              std::size_t(cfg.pipelineDepth) + 8 + 1);
}

TEST(LongRun, HybridMillionBranchesBoundedWindow)
{
    const Workload &w = workloadByName("serv.tpcc");
    const auto spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    EngineConfig cfg;
    cfg.warmupBranches = 50000;
    cfg.measureBranches = 950000;

    Program p = buildProgram(w);
    auto h = spec.build();
    Engine engine(p, *h, cfg);
    ProgramWalkStream stream(p, 1000000);
    const EngineStats st = engine.run(stream);

    EXPECT_EQ(st.committedBranches, 950000u);
    EXPECT_GT(st.criticOverrides, 0u);
    EXPECT_LE(stream.windowPeak(),
              std::size_t(cfg.pipelineDepth) + 8 + 1);
}

/**
 * The PCBPTRC2 acceptance criterion at full scale: a ten-million-
 * branch recorded trace compresses at least 4x against the v1 flat
 * file, and the footer index makes any seek O(1) — one block decode
 * to land anywhere in 10M records, checked at both ends and the
 * middle of the file. Recording and conversion both stream, so this
 * test's memory stays O(block), not O(trace).
 */
TEST(LongRun, TenMillionBranchTraceCompressesAndSeeksO1)
{
    const std::string v1 =
        testing::TempDir() + "longrun_10m.pcbptrc";
    const std::string v2 = v1 + "2";
    constexpr std::uint64_t kBranches = 10000000;

    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    {
        TraceWriter rec(v1);
        ProgramWalkStream stream(p, kBranches);
        for (std::uint64_t i = 0; i < kBranches; ++i) {
            const CommittedBranch *r = stream.at(i);
            ASSERT_NE(r, nullptr);
            rec.append(*r);
            stream.release(i + 1);
        }
        rec.finish();
        ASSERT_EQ(rec.written(), kBranches);
    }

    ASSERT_EQ(convertTraceFile(v1, v2, true), kBranches);
    const auto reader = Trace2Reader::open(v2);
    const Trace2Info info = reader->info();
    EXPECT_EQ(info.recordCount, kBranches);
    const std::uint64_t v1_bytes =
        tracefmt::headerBytes + kBranches * tracefmt::recordBytes;
    EXPECT_GE(double(v1_bytes) / double(info.fileBytes), 4.0)
        << "v2 is only " << info.fileBytes << " bytes vs " << v1_bytes;

    // O(1) landing anywhere in the 10M records: the footer index
    // names the one block holding each ordinal, and decoding that
    // block alone reaches it.
    const std::uint64_t rpb = reader->recordsPerBlock();
    std::vector<CommittedBranch> block;
    for (const std::uint64_t ordinal :
         {std::uint64_t(0), kBranches / 2, kBranches - 1}) {
        const std::uint64_t b = reader->blockOfOrdinal(ordinal);
        reader->decodeBlock(b, block);
        EXPECT_LT(ordinal - b * rpb, block.size()) << "ordinal " << ordinal;
    }

    // Spot-check the tail read from its landing block against a
    // fresh walk of the same program: the index lands on the true
    // records, not just *some* block.
    {
        Program q = buildProgram(w);
        ProgramWalkStream ref(q, kBranches);
        const std::uint64_t ordinal = kBranches - 5000;
        for (std::uint64_t i = 0; i < ordinal; ++i) {
            ASSERT_NE(ref.at(i), nullptr);
            ref.release(i + 1);
        }
        std::uint64_t b = reader->blockOfOrdinal(ordinal);
        reader->decodeBlock(b, block);
        for (std::uint64_t i = ordinal; i < kBranches; ++i) {
            if (reader->blockOfOrdinal(i) != b) {
                b = reader->blockOfOrdinal(i);
                reader->decodeBlock(b, block);
            }
            const CommittedBranch *a = ref.at(i);
            ASSERT_NE(a, nullptr);
            const CommittedBranch &r = block[std::size_t(i - b * rpb)];
            ASSERT_EQ(a->block, r.block) << "record " << i;
            ASSERT_EQ(a->pc, r.pc) << "record " << i;
            ASSERT_EQ(a->taken, r.taken) << "record " << i;
            ASSERT_EQ(a->numUops, r.numUops) << "record " << i;
            ref.release(i + 1);
        }
    }
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

} // namespace
} // namespace pcbp
