/**
 * @file
 * Unit tests for the spec-core speculation queue (the timing model's
 * FTQ) and the cycle-level timing model: bounds, bandwidth limits,
 * flush behavior, and agreement with the accuracy engine on what
 * commits.
 */

#include <gtest/gtest.h>

#include "obs/stat_registry.hh"
#include "predictors/static_pred.hh"
#include "sim/driver.hh"
#include "sim/spec_core.hh"
#include "sim/timing.hh"
#include "workload/generator.hh"

namespace pcbp
{
namespace
{

/** Two-block always-taken loop for queue-mechanics tests. */
Program
loopProgram()
{
    Program p("loop");
    for (int i = 0; i < 2; ++i) {
        BasicBlock b;
        b.branchPc = 0x1000 + i * 16;
        b.numUops = 8;
        b.takenTarget = static_cast<BlockId>(1 - i);
        b.fallthroughTarget = static_cast<BlockId>(1 - i);
        b.behavior = std::make_unique<BiasedBehavior>(1.0, i + 1);
        p.addBlock(std::move(b));
    }
    p.validate();
    return p;
}

// --------------------------------------------- spec-core queue (FTQ)

TEST(SpecCoreQueue, FetchFillsFifoInSpeculationOrder)
{
    Program p = loopProgram();
    auto h = prophetAlone(ProphetKind::AlwaysTaken, Budget::B2KB).build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());

    for (int i = 0; i < 4; ++i) {
        auto &e = core.fetchNext();
        e.payload.uopsLeft = e.numUops;
    }
    EXPECT_EQ(core.queueSize(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(core.at(i).traceIdx, i);
        EXPECT_EQ(core.at(i).block, BlockId(i % 2));
        EXPECT_EQ(core.at(i).payload.uopsLeft, 8u);
    }
    const auto head = core.popFront();
    EXPECT_EQ(head.traceIdx, 0u);
    EXPECT_EQ(core.front().traceIdx, 1u);
    EXPECT_EQ(core.queueSize(), 3u);
}

TEST(SpecCoreQueue, OldestUncriticized)
{
    Program p = loopProgram();
    auto h = prophetAlone(ProphetKind::AlwaysTaken, Budget::B2KB).build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());

    for (int i = 0; i < 4; ++i)
        core.fetchNext();
    core.at(0).critiqued = true;
    core.at(1).critiqued = true;
    auto idx = core.oldestUncriticized();
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, 2u);

    core.at(2).critiqued = true;
    core.at(3).critiqued = true;
    EXPECT_FALSE(core.oldestUncriticized().has_value());
}

TEST(SpecCoreQueue, OverrideFlushesYoungerAndRedirects)
{
    // An always-taken program with an always-not-taken prophet and a
    // tagged-gshare critic: once the critic learns, its disagree
    // critique must flush every younger queued prediction.
    Program p = loopProgram();
    auto h = hybridSpec(ProphetKind::AlwaysNotTaken, Budget::B2KB,
                        CriticKind::TaggedGshare, Budget::B2KB, 2)
                 .build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());

    // Train the critic: fetch, critique, commit a few rounds.
    for (int round = 0; round < 64; ++round) {
        while (core.queueSize() < 6)
            core.fetchNext();
        if (!core.front().critiqued)
            core.critique(0);
        auto r = core.popFront();
        core.commitTrain(r, true);
        if (r.finalPred != true) {
            core.clearQueue();
            core.recoverAndRedirect(r, true);
        }
    }

    while (core.queueSize() < 6)
        core.fetchNext();
    ASSERT_FALSE(core.front().critiqued);
    const CritiqueOutcome out = core.critique(0);
    ASSERT_TRUE(out.overrode) << "trained critic must disagree";
    EXPECT_EQ(out.squashed, 5u);
    EXPECT_EQ(core.queueSize(), 1u);
    EXPECT_TRUE(core.front().critiqued);
    EXPECT_TRUE(core.front().finalPred);
    EXPECT_EQ(core.specIndex(), core.front().traceIdx + 1);
}

TEST(SpecCoreQueue, ClearQueueEmpties)
{
    Program p = loopProgram();
    auto h = prophetAlone(ProphetKind::AlwaysTaken, Budget::B2KB).build();
    SpecCoreConfig cc;
    cc.useBtb = false;
    SpecCore<FtqPayload> core(p, *h, cc);
    core.beginRun(nullptr, 0, p.entry());
    core.fetchNext();
    core.fetchNext();
    EXPECT_EQ(core.queueSize(), 2u);
    core.clearQueue();
    EXPECT_TRUE(core.queueEmpty());
}

// ----------------------------------------------------------------- Timing

TimingConfig
smallTiming(std::uint64_t branches = 20000)
{
    TimingConfig cfg;
    cfg.measureBranches = branches;
    cfg.warmupBranches = branches / 10;
    return cfg;
}

TEST(Timing, UpcBoundedByMachineWidth)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    auto h = prophetAlone(ProphetKind::Perceptron, Budget::B16KB).build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_GT(st.upc(), 0.5);
    EXPECT_LE(st.upc(), 6.0) << "cannot beat the 6-uop fetch width";
}

TEST(Timing, CommitsConfiguredWork)
{
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto h = prophetAlone(ProphetKind::Gshare, Budget::B8KB).build();
    const auto cfg = smallTiming(10000);
    TimingSim sim(p, *h, cfg);
    const TimingStats st = sim.run();
    EXPECT_EQ(st.committedBranches, cfg.measureBranches);
    EXPECT_GT(st.committedUops, st.committedBranches * 4);
}

TEST(Timing, BetterPredictionHigherUpc)
{
    const Workload &w = workloadByName("int.crafty");
    Program p1 = buildProgram(w);
    auto good =
        prophetAlone(ProphetKind::Perceptron, Budget::B32KB).build();
    const double upc_good =
        TimingSim(p1, *good, smallTiming()).run().upc();

    Program p2 = buildProgram(w);
    auto bad =
        prophetAlone(ProphetKind::AlwaysNotTaken, Budget::B2KB).build();
    const double upc_bad =
        TimingSim(p2, *bad, smallTiming()).run().upc();

    EXPECT_GT(upc_good, upc_bad * 1.2)
        << "mispredict flushes must cost cycles";
}

TEST(Timing, FetchedAtLeastCommitted)
{
    const Workload &w = workloadByName("web.jbb");
    Program p = buildProgram(w);
    auto h = prophetAlone(ProphetKind::Gshare, Budget::B8KB).build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_GE(st.fetchedUops + 64, st.committedUops)
        << "every committed uop was fetched (within measure-window "
           "boundary fuzz)";
    EXPECT_GE(st.fetchedUops, st.wrongPathFetchedUops);
}

TEST(Timing, MispredictsCauseWrongPathFetch)
{
    const Workload &w = workloadByName("serv.tpcc");
    Program p = buildProgram(w);
    auto h = prophetAlone(ProphetKind::Gshare, Budget::B2KB).build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_GT(st.finalMispredicts, 0u);
    EXPECT_GT(st.wrongPathFetchedUops, 0u);
}

TEST(Timing, CriticOverridesHappenInFtq)
{
    const Workload &w = workloadByName("int.crafty");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                        CriticKind::TaggedGshare, Budget::B8KB, 8)
                 .build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_GT(st.criticOverrides, 0u);
    EXPECT_GT(st.ftqEntriesFlushedByCritic, 0u);
}

TEST(Timing, PartialCritiquesRareAtEightBits)
{
    // §5's claim: <0.1% of the time the cache needs a prediction
    // whose critique lacks its future bits (8 fb, prophet 2x faster
    // than the critic). Allow some slack for our smaller runs.
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                        CriticKind::TaggedGshare, Budget::B8KB, 8)
                 .build();
    TimingSim sim(p, *h, smallTiming());
    const TimingStats st = sim.run();
    EXPECT_LT(double(st.partialCritiques) / double(st.committedBranches),
              0.02);
}

TEST(Timing, DeterministicAcrossRuns)
{
    const Workload &w = workloadByName("ws.cad");
    const auto spec =
        hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 4);
    Program p1 = buildProgram(w);
    auto h1 = spec.build();
    const TimingStats a = TimingSim(p1, *h1, smallTiming()).run();
    Program p2 = buildProgram(w);
    auto h2 = spec.build();
    const TimingStats b = TimingSim(p2, *h2, smallTiming()).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.finalMispredicts, b.finalMispredicts);
}

/** Commit-order event recording tap. */
struct RecordingSink : CommitSink
{
    std::vector<CommitEvent> events;

    void onCommit(const CommitEvent &e) override { events.push_back(e); }
};

/**
 * Run @p cfg twice on fresh {program, predictor} pairs from
 * @p recipe: once over the program's own walk with a stats registry
 * attached, once over the precomputed committed path without one.
 * Both runs must commit the same events in the same order and count
 * the same stats. The first run exports into @p reg.
 */
void
expectDeterministicTiming(const WorkloadRecipe &recipe,
                          const HybridSpec &spec, TimingConfig cfg,
                          StatRegistry &reg)
{
    RecordingSink walked_sink;
    TimingConfig walked_cfg = cfg;
    walked_cfg.commitSink = &walked_sink;
    walked_cfg.statsOut = &reg;
    Program p1 = generateProgram(recipe);
    auto h1 = spec.build();
    const TimingStats a = TimingSim(p1, *h1, walked_cfg).run();

    RecordingSink replay_sink;
    cfg.commitSink = &replay_sink;
    Program p2 = generateProgram(recipe);
    auto h2 = spec.build();
    PrecomputedStream replay(
        walkProgram(p2, cfg.warmupBranches + cfg.measureBranches));
    const TimingStats b = TimingSim(p2, *h2, cfg).run(replay);

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.committedBranches, b.committedBranches);
    EXPECT_EQ(a.finalMispredicts, b.finalMispredicts);
    EXPECT_EQ(a.fetchedUops, b.fetchedUops);
    EXPECT_EQ(a.wrongPathFetchedUops, b.wrongPathFetchedUops);
    EXPECT_EQ(a.criticOverrides, b.criticOverrides);
    EXPECT_EQ(a.ftqEntriesFlushedByCritic, b.ftqEntriesFlushedByCritic);
    EXPECT_EQ(a.partialCritiques, b.partialCritiques);
    EXPECT_EQ(a.ftqEmptyCycles, b.ftqEmptyCycles);
    EXPECT_EQ(walked_sink.events.size(),
              cfg.warmupBranches + cfg.measureBranches);
    EXPECT_EQ(walked_sink.events.size(), replay_sink.events.size());
    for (std::size_t i = 0; i < walked_sink.events.size() &&
                            i < replay_sink.events.size();
         ++i) {
        const CommitEvent &x = walked_sink.events[i];
        const CommitEvent &y = replay_sink.events[i];
        ASSERT_EQ(x.index, y.index) << "at commit " << i;
        ASSERT_EQ(x.block, y.block) << "at commit " << i;
        ASSERT_EQ(x.pc, y.pc) << "at commit " << i;
        ASSERT_EQ(x.numUops, y.numUops) << "at commit " << i;
        ASSERT_EQ(x.btbHit, y.btbHit) << "at commit " << i;
        ASSERT_EQ(x.prophetPred, y.prophetPred) << "at commit " << i;
        ASSERT_EQ(x.finalPred, y.finalPred) << "at commit " << i;
        ASSERT_EQ(x.critiqueProvided, y.critiqueProvided)
            << "at commit " << i;
        ASSERT_EQ(x.criticOverrode, y.criticOverrode)
            << "at commit " << i;
        ASSERT_EQ(x.outcome, y.outcome) << "at commit " << i;
    }
}

/** A small randomized CFG workload; deterministic per seed. */
WorkloadRecipe
stressRecipe(std::uint64_t seed)
{
    WorkloadRecipe r;
    r.name = "timing-stress-" + std::to_string(seed);
    r.seed = seed;
    r.targetBlocks = 140 + unsigned(seed % 5) * 25;
    r.numChains = 4;
    r.numPhaseChains = 2;
    return r;
}

TimingConfig
stressTiming()
{
    TimingConfig cfg;
    cfg.measureBranches = 4000;
    cfg.warmupBranches = 600;
    return cfg;
}

/**
 * Checkpoint-slab growth: an FTQ deeper than the spec core's initial
 * slab capacity forces mid-run reallocation, and the run stays
 * deterministic through it (absolute indices survive the regrowth).
 */
TEST(Timing, DeterministicThroughCheckpointSlabGrowth)
{
    TimingConfig cfg = stressTiming();
    cfg.ftqSize = 96; // > the initial 64-entry slab
    StatRegistry reg;
    expectDeterministicTiming(
        stressRecipe(35),
        hybridSpec(ProphetKind::Perceptron, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8),
        cfg, reg);
    EXPECT_GE(reg.simValue("core.slab_growths"), 1u);
}

/**
 * Recovery-heavy run: a tiny prophet on a phase-churning workload
 * flushes constantly, with wrong-path state in flight at almost
 * every cycle; every recovery must replay identically.
 */
TEST(Timing, DeterministicOnRecoveryHeavyWorkload)
{
    WorkloadRecipe recipe = stressRecipe(36);
    recipe.numPhaseChains = 6; // churn: phases invalidate history
    StatRegistry reg;
    expectDeterministicTiming(
        recipe,
        hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                   CriticKind::FilteredPerceptron, Budget::B2KB, 12),
        stressTiming(), reg);
    EXPECT_GE(reg.simValue("core.recoveries"), 100u);
}

TEST(Timing, FtqDeeperThanFutureBitsRequired)
{
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto h = hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                        CriticKind::TaggedGshare, Budget::B2KB, 12)
                 .build();
    TimingConfig cfg = smallTiming();
    cfg.ftqSize = 8;
    EXPECT_DEATH(TimingSim(p, *h, cfg),
                 "FTQ must be deeper than the future-bit count");
}

TEST(Timing, AgreesWithEngineOnCommittedWork)
{
    // The two simulators share the committed path: same workload,
    // same branch count => same committed uops.
    const Workload &w = workloadByName("fp.ammp");
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B8KB);

    EngineConfig ecfg;
    ecfg.measureBranches = 15000;
    ecfg.warmupBranches = 1500;
    Program p1 = buildProgram(w);
    auto h1 = spec.build();
    const EngineStats es = Engine(p1, *h1, ecfg).run();

    TimingConfig tcfg;
    tcfg.measureBranches = 15000;
    tcfg.warmupBranches = 1500;
    Program p2 = buildProgram(w);
    auto h2 = spec.build();
    const TimingStats ts = TimingSim(p2, *h2, tcfg).run();

    EXPECT_EQ(es.committedBranches, ts.committedBranches);
    EXPECT_NEAR(double(es.committedUops), double(ts.committedUops),
                double(es.committedUops) * 0.01);
}

} // namespace
} // namespace pcbp
