/**
 * @file
 * Robustness and failure-injection tests: invalid configurations
 * must fail loudly (panic/fatal), corrupted inputs must be rejected,
 * and boundary conditions must hold.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/future_bits.hh"
#include "common/logging.hh"
#include "core/tag_filter.hh"
#include "predictors/factory.hh"
#include "predictors/fusion.hh"
#include "predictors/gshare.hh"
#include "sim/driver.hh"
#include "sweep/runner.hh"
#include "sweep/sweep_spec.hh"
#include "workload/trace.hh"

namespace pcbp
{
namespace
{

// --------------------------------------------------- invalid configs die

TEST(RobustnessDeath, GshareRequiresPowerOfTwo)
{
    EXPECT_DEATH(Gshare(1000, 12), "gshare size must be 2\\^n");
}

TEST(RobustnessDeath, TagFilterBounds)
{
    EXPECT_DEATH(TagFilter(63, 4, 10, 18), "filter sets must be 2\\^n");
    EXPECT_DEATH(TagFilter(64, 4, 2, 18), "tag_bits");
}

TEST(RobustnessDeath, FusionNeedsComponents)
{
    std::vector<DirectionPredictorPtr> one;
    one.push_back(makeProphet(ProphetKind::Bimodal, Budget::B2KB));
    EXPECT_DEATH(FusionHybrid(std::move(one), 1024),
                 "fusion wants 2-4 components");
}

TEST(RobustnessDeath, UnknownSpecStringsAreFatal)
{
    EXPECT_DEATH(makeProphet("ittage:8KB"), "unknown predictor kind");
    EXPECT_DEATH(makeProphet("gshare:7KB"), "unknown budget");
    EXPECT_DEATH(parseCriticKind("oracle"), "unknown critic kind");
    EXPECT_DEATH(workloadByName("spec2006.gcc"), "unknown workload");
}

TEST(RobustnessDeath, HybridRequiresProphet)
{
    HybridConfig cfg;
    EXPECT_DEATH(ProphetCriticHybrid(nullptr, nullptr, cfg),
                 "a hybrid needs a prophet");
}

// ------------------------------------------------- .sweep numeric values

/** An out-of-range integer is a located fatal, not an uncaught
 *  std::out_of_range abort. */
TEST(RobustnessDeath, SweepSpecOverflowingIntegerIsFatal)
{
    EXPECT_EXIT(SweepSpec::parse("branches = 99999999999999999999999\n"),
                testing::ExitedWithCode(1), "sweep: line 1: bad value");
    EXPECT_EXIT(SweepSpec::parse("name = x\n"
                                 "warmup = 100, 18446744073709551616\n"),
                testing::ExitedWithCode(1), "sweep: line 2: bad value");
}

/** future_bits beyond FutureBits::capacity is rejected at parse
 *  time, before the hybrid constructor's panic can fire. */
TEST(RobustnessDeath, SweepSpecFutureBitsBeyondCapacityIsFatal)
{
    EXPECT_EXIT(SweepSpec::parse("name = x\nfuture_bits = 9999\n"),
                testing::ExitedWithCode(1),
                "sweep: line 2: bad value '9999' for 'future_bits'");
    EXPECT_EXIT(SweepSpec::parse("future_bits = 8, " +
                                 std::to_string(FutureBits::capacity + 1) +
                                 "\n"),
                testing::ExitedWithCode(1), "sweep: line 1: bad value");
    const SweepSpec edge = SweepSpec::parse(
        "future_bits = " + std::to_string(FutureBits::capacity) + "\n" +
        "workloads = mm.mpeg\n");
    EXPECT_EQ(edge.axes.futureBits,
              std::vector<unsigned>{FutureBits::capacity});
}

/** filter_tag_bits outside {0, 4..16} is rejected at parse time,
 *  before TagFilter's constructor assert can abort the process. */
TEST(RobustnessDeath, SweepSpecFilterTagBitsOutOfRangeIsFatal)
{
    EXPECT_EXIT(SweepSpec::parse("name = x\nfilter_tag_bits = 3\n"),
                testing::ExitedWithCode(1),
                "sweep: line 2: bad value '3' for 'filter_tag_bits'");
    EXPECT_EXIT(SweepSpec::parse("filter_tag_bits = 8, 17\n"),
                testing::ExitedWithCode(1),
                "sweep: line 1: bad value '17' for 'filter_tag_bits'");
    EXPECT_EXIT(SweepSpec::parse("filter_tag_bits = 1\n"),
                testing::ExitedWithCode(1), "sweep: line 1: bad value");
    const SweepSpec edge =
        SweepSpec::parse("filter_tag_bits = 0, 4, 16\n"
                         "workloads = mm.mpeg\n");
    EXPECT_EQ(edge.axes.filterTagBits,
              (std::vector<unsigned>{0, 4, 16}));
}

/**
 * A trace ends: a cell whose warmup reaches the trace's record count
 * has an empty measured window. The grid is fatal before any cell
 * runs, naming the workload, the warmup and the record count; a cell
 * whose window the end only truncates still runs and stores what it
 * measured.
 */
TEST(RobustnessDeath, SweepWarmupPastTraceEndIsFatal)
{
    const std::string path =
        testing::TempDir() + "pcbp_short_ladder.pcbptrc";
    {
        Program p = buildProgram(workloadByName("mm.mpeg"));
        saveTrace(path, walkProgram(p, 5000));
    }
    SweepSpec spec = SweepSpec::parse("name = short\n"
                                      "prophet = gshare\n"
                                      "critic = none\n"
                                      "branches = 2000\n"
                                      "warmup = 4000, 5000\n"
                                      "workloads = trace:" +
                                      path + "\n");
    EXPECT_EXIT(spec.cells(), testing::ExitedWithCode(1),
                "sweep: spec 'short', workload 'trace:.*': warmup 5000 "
                "is at or past the trace's 5000 records");
    EXPECT_EXIT(
        {
            ResultStore store;
            runSweep(spec, store);
        },
        testing::ExitedWithCode(1), "measured window is empty");

    spec.warmups = {4000, 4999};
    ResultStore store;
    SweepRunOptions opt;
    opt.jobs = 1;
    runSweep(spec, store, opt);
    ASSERT_EQ(store.all().size(), 2u);
    EXPECT_EQ(store.all()[0].measureBranches, 2000u);
    EXPECT_EQ(store.all()[0].committedBranches, 1000u);
    EXPECT_EQ(store.all()[1].measureBranches, 2000u);
    EXPECT_EQ(store.all()[1].committedBranches, 1u);
    std::remove(path.c_str());
}

// ------------------------------------------------------ corrupted traces

TEST(TraceRobustness, MissingFileIsFatal)
{
    EXPECT_DEATH(loadTrace("/nonexistent/dir/foo.trace"),
                 "cannot open");
}

TEST(TraceRobustness, BadMagicIsFatal)
{
    const std::string path = "/tmp/pcbp_badmagic.trace";
    {
        std::ofstream f(path, std::ios::binary);
        f << "NOTATRACEFILE-------";
    }
    EXPECT_DEATH(loadTrace(path), "not a pcbp trace");
    std::remove(path.c_str());
}

TEST(TraceRobustness, TruncatedFileIsFatal)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    auto trace = walkProgram(p, 100);
    const std::string path = "/tmp/pcbp_trunc.trace";
    saveTrace(path, trace);
    // Chop the file in half.
    {
        std::ifstream in(path, std::ios::binary);
        std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size() / 2));
    }
    EXPECT_DEATH(loadTrace(path), "truncated");
    std::remove(path.c_str());
}

TEST(TraceRobustness, EmptyTraceRoundTrips)
{
    const std::string path = "/tmp/pcbp_empty.trace";
    saveTrace(path, {});
    EXPECT_TRUE(loadTrace(path).empty());
    std::remove(path.c_str());
}

// ------------------------------------------------------------ boundaries

TEST(Boundaries, MinimalEngineRun)
{
    // The smallest legal configuration still runs to completion.
    Program p("mini");
    BasicBlock a;
    a.branchPc = 0x1000;
    a.numUops = 1;
    a.takenTarget = 0;
    a.fallthroughTarget = 0;
    a.behavior = std::make_unique<BiasedBehavior>(1.0, 1);
    p.addBlock(std::move(a));
    p.validate();

    auto h = prophetAlone(ProphetKind::Bimodal, Budget::B2KB).build();
    EngineConfig cfg;
    cfg.pipelineDepth = 2;
    cfg.measureBranches = 10;
    cfg.warmupBranches = 0;
    const EngineStats st = Engine(p, *h, cfg).run();
    EXPECT_EQ(st.committedBranches, 10u);
    EXPECT_EQ(st.committedUops, 10u);
}

TEST(Boundaries, TwelveFutureBitsAtMinimumDepth)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                        CriticKind::TaggedGshare, Budget::B2KB, 12)
                 .build();
    EngineConfig cfg;
    cfg.pipelineDepth = 13; // minimum legal: futureBits + 1
    cfg.measureBranches = 5000;
    cfg.warmupBranches = 500;
    const EngineStats st = Engine(p, *h, cfg).run();
    EXPECT_EQ(st.committedBranches, 5000u);
    // With depth == bits + 1 most critiques are forced partial (the
    // queue can never hold 12 younger predictions when resolving).
    EXPECT_GT(st.partialCritiques, 0u);
}

TEST(Boundaries, HugeBlocksDontBreakTiming)
{
    // Blocks larger than the fetch width stream over several cycles.
    Program p("big-blocks");
    for (int i = 0; i < 2; ++i) {
        BasicBlock b;
        b.branchPc = 0x1000 + 16 * i;
        b.numUops = 100;
        b.takenTarget = static_cast<BlockId>(1 - i);
        b.fallthroughTarget = static_cast<BlockId>(1 - i);
        b.behavior = std::make_unique<BiasedBehavior>(1.0, 1 + i);
        p.addBlock(std::move(b));
    }
    p.validate();
    auto h = prophetAlone(ProphetKind::Bimodal, Budget::B2KB).build();
    TimingConfig cfg;
    cfg.measureBranches = 500;
    cfg.warmupBranches = 50;
    const TimingStats st = TimingSim(p, *h, cfg).run();
    EXPECT_EQ(st.committedBranches, 500u);
    EXPECT_NEAR(st.upc(), 6.0, 0.5)
        << "long straight blocks should saturate the 6-uop machine";
}

TEST(Boundaries, ZeroWarmupMeasuresEverything)
{
    const Workload &w = workloadByName("fp.swim");
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B8KB);
    EngineConfig cfg;
    cfg.measureBranches = 2000;
    cfg.warmupBranches = 0;
    const EngineStats st = runAccuracy(w, spec, cfg);
    EXPECT_EQ(st.committedBranches, 2000u);
    EXPECT_GE(st.btbMisses, 1u) << "cold BTB misses are visible";
}

TEST(Boundaries, BenchScaleFloorsAtUsableSizes)
{
    // engineConfigFor never produces degenerate run lengths.
    const Workload &w = workloadByName("fp.swim");
    const EngineConfig cfg = engineConfigFor(w);
    EXPECT_GE(cfg.measureBranches, 1000u);
    EXPECT_GE(cfg.warmupBranches, 100u);
}

} // namespace
} // namespace pcbp
