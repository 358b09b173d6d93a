/**
 * @file
 * Chain equivalence tests (DESIGN.md §11).
 *
 * The chain executor rests on one claim: an accuracy run of
 * (warmup, measure) is a window of any longer run of the same
 * configuration, so one Engine run serves every member of a warmup
 * ladder. These tests pin it registry-wide:
 *
 * - for every factory prophet and every critic kind, a three-member
 *   accuracy chain equals three direct Engine runs, field by field
 *   and in every statsOut export — also with a pipeline deeper than
 *   the checkpoint slab, on a recovery-heavy workload, with a member
 *   clamped at a trace's end, with a longest run that is not the
 *   largest warmup, and with per-branch collection;
 * - runAccuracyChain must equal one directly constructed Engine run
 *   per cell (a chain of one included), and the sweep runner's
 *   stores — `--cell-stats` blocks included — must be byte-identical
 *   with forking on or off, at any job count. Timing cells never
 *   chain, so a timing warmup ladder stores the same bytes either
 *   way.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/stat_registry.hh"
#include "sim/driver.hh"
#include "sweep/runner.hh"
#include "workload/generator.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

/** Commit-order event recording tap. */
struct RecordingSink : CommitSink
{
    std::vector<CommitEvent> events;

    void onCommit(const CommitEvent &e) override { events.push_back(e); }
};

/** A small randomized CFG workload; deterministic per seed. */
WorkloadRecipe
forkRecipe(std::uint64_t seed)
{
    WorkloadRecipe r;
    r.name = "fork-" + std::to_string(seed);
    r.seed = seed;
    r.targetBlocks = 140 + unsigned(seed % 5) * 25;
    r.numChains = 4;
    r.numPhaseChains = 2;
    return r;
}

void
expectSameEvents(const std::vector<CommitEvent> &a,
                 const std::vector<CommitEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].index, b[i].index) << "at commit " << i;
        ASSERT_EQ(a[i].block, b[i].block) << "at commit " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "at commit " << i;
        ASSERT_EQ(a[i].numUops, b[i].numUops) << "at commit " << i;
        ASSERT_EQ(a[i].btbHit, b[i].btbHit) << "at commit " << i;
        ASSERT_EQ(a[i].prophetPred, b[i].prophetPred)
            << "at commit " << i;
        ASSERT_EQ(a[i].finalPred, b[i].finalPred) << "at commit " << i;
        ASSERT_EQ(a[i].critiqueProvided, b[i].critiqueProvided)
            << "at commit " << i;
        ASSERT_EQ(a[i].criticOverrode, b[i].criticOverrode)
            << "at commit " << i;
        ASSERT_EQ(a[i].outcome, b[i].outcome) << "at commit " << i;
    }
}

void
expectSameStats(const EngineStats &a, const EngineStats &b)
{
    EXPECT_EQ(a.committedBranches, b.committedBranches);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.finalMispredicts, b.finalMispredicts);
    EXPECT_EQ(a.prophetMispredicts, b.prophetMispredicts);
    EXPECT_EQ(a.btbMisses, b.btbMisses);
    EXPECT_EQ(a.criticOverrides, b.criticOverrides);
    EXPECT_EQ(a.squashedPredictions, b.squashedPredictions);
    EXPECT_EQ(a.wrongPathBranches, b.wrongPathBranches);
    EXPECT_EQ(a.wrongPathUops, b.wrongPathUops);
    EXPECT_EQ(a.partialCritiques, b.partialCritiques);
    for (const CritiqueClass cls :
         {CritiqueClass::CorrectAgree, CritiqueClass::CorrectDisagree,
          CritiqueClass::IncorrectAgree,
          CritiqueClass::IncorrectDisagree, CritiqueClass::CorrectNone,
          CritiqueClass::IncorrectNone})
        EXPECT_EQ(a.critiques.get(cls), b.critiques.get(cls));
    EXPECT_EQ(a.flushDistance.count(), b.flushDistance.count());
    EXPECT_EQ(a.flushDistance.buckets(), b.flushDistance.buckets());
    EXPECT_EQ(a.flushDistance.mean(), b.flushDistance.mean());
    ASSERT_EQ(a.perBranch.size(), b.perBranch.size());
    for (std::size_t i = 0; i < a.perBranch.size(); ++i) {
        EXPECT_EQ(a.perBranch[i].pc, b.perBranch[i].pc);
        EXPECT_EQ(a.perBranch[i].execs, b.perBranch[i].execs);
        EXPECT_EQ(a.perBranch[i].prophetWrong, b.perBranch[i].prophetWrong);
        EXPECT_EQ(a.perBranch[i].finalWrong, b.perBranch[i].finalWrong);
    }
}

// -------------------------------------------------- chain drivers

/**
 * The chain driver's reference: one directly constructed Engine run
 * over @p w's own stream. runAccuracy is itself a chain of one, so
 * it cannot serve as an independent reference.
 */
EngineStats
directRun(const Workload &w, const HybridSpec &spec,
          const EngineConfig &cfg)
{
    Program p = buildProgram(w);
    auto h = spec.build();
    Engine engine(p, *h, cfg);
    if (w.tracePath.empty())
        return engine.run();
    return engine.run(*openTraceStream(w.tracePath));
}

// ----------------------------------------------- accuracy windows

/** A CFG workload built from @p recipe. */
Workload
forkWorkload(const WorkloadRecipe &recipe)
{
    Workload w;
    w.name = recipe.name;
    w.suite = "FORK";
    w.recipe = recipe;
    return w;
}

/**
 * Three run lengths of one configuration. The longest run (warmup
 * 200, ending at 5200) is not the largest warmup (1200), and the
 * largest warmup ends first.
 */
std::vector<EngineConfig>
windowLadder(const EngineConfig &base)
{
    std::vector<EngineConfig> configs;
    for (const auto &[wb, mb] :
         {std::pair<std::uint64_t, std::uint64_t>{600, 4000},
          {200, 5000},
          {1200, 1500}}) {
        EngineConfig cfg = base;
        cfg.warmupBranches = wb;
        cfg.measureBranches = mb;
        configs.push_back(cfg);
    }
    return configs;
}

/**
 * runAccuracyChain over @p configs equals one direct Engine run per
 * config: the returned stats field by field, and each member's
 * statsOut export (engine.*, core.*, stream.*, predictor.*).
 * @return the chain's stats.
 */
std::vector<EngineStats>
expectChainMatchesDirectRuns(const Workload &w, const HybridSpec &spec,
                             std::vector<EngineConfig> configs)
{
    std::vector<StatRegistry> chain_regs(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        configs[i].statsOut = &chain_regs[i];
    ChainObs obs;
    const std::vector<EngineStats> chained =
        runAccuracyChain(w, spec, configs, &obs);
    EXPECT_EQ(obs.snapshots, configs.size() - 1);
    EXPECT_EQ(chained.size(), configs.size());

    for (std::size_t i = 0; i < chained.size(); ++i) {
        SCOPED_TRACE("member " + std::to_string(i));
        StatRegistry direct_reg;
        EngineConfig cfg = configs[i];
        cfg.statsOut = &direct_reg;
        expectSameStats(chained[i], directRun(w, spec, cfg));
        EXPECT_EQ(chain_regs[i].simJson(), direct_reg.simJson());
    }
    return chained;
}

/** Every factory prophet: a chain of three windows, exact. */
TEST(Fork, AccuracyChainMatchesDirectRunsForEveryProphet)
{
    const Workload w = forkWorkload(forkRecipe(31));
    for (const ProphetKind kind : allProphetKinds()) {
        SCOPED_TRACE(prophetKindName(kind));
        expectChainMatchesDirectRuns(
            w, prophetAlone(kind, Budget::B2KB), windowLadder({}));
    }
}

/** Every critic kind riding on two prophets, same contract. */
TEST(Fork, AccuracyChainMatchesDirectRunsForEveryCritic)
{
    const Workload w = forkWorkload(forkRecipe(32));
    for (const CriticKind critic : allCriticKinds()) {
        for (const ProphetKind prophet :
             {ProphetKind::Gshare, ProphetKind::Tage}) {
            SCOPED_TRACE(criticKindName(critic) + " on " +
                         prophetKindName(prophet));
            expectChainMatchesDirectRuns(
                w,
                hybridSpec(prophet, Budget::B2KB, critic, Budget::B2KB,
                           8),
                windowLadder({}));
        }
    }
}

/**
 * Checkpoint-slab growth: a pipeline deeper than the spec core's
 * initial slab capacity reallocates mid-run, inside some windows and
 * before others.
 */
TEST(Fork, AccuracyChainSurvivesCheckpointSlabGrowth)
{
    EngineConfig base;
    base.pipelineDepth = 96; // > the initial 64-entry slab
    expectChainMatchesDirectRuns(
        forkWorkload(forkRecipe(35)),
        hybridSpec(ProphetKind::Perceptron, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8),
        windowLadder(base));
}

/**
 * Recovery-heavy windows: a tiny prophet on a phase-churning
 * workload flushes constantly, so window edges routinely land on a
 * flush, whose flush-side counts belong to the window it opens.
 */
TEST(Fork, AccuracyChainSurvivesRecoveryHeavyWorkload)
{
    WorkloadRecipe recipe = forkRecipe(36);
    recipe.numPhaseChains = 6; // churn: phases invalidate history
    expectChainMatchesDirectRuns(
        forkWorkload(recipe),
        hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                   CriticKind::FilteredPerceptron, Budget::B2KB, 12),
        windowLadder({}));
}

/**
 * Window edges on a flush, checked against the commit-event stream
 * of a tapped full run rather than against another windowed run
 * (Engine::run is itself a single window). A run warmed for w
 * branches counts the flush of branch w-1, which lands after the
 * commit cursor reaches w, and a run ending at e counts the flush of
 * branch e-1; the edges below sit on mispredicted branches.
 */
TEST(Fork, AccuracyChainWindowEdgesOnFlushes)
{
    const Workload w = forkWorkload(forkRecipe(39));
    const HybridSpec spec =
        hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8);

    RecordingSink sink;
    EngineConfig probe;
    probe.warmupBranches = 0;
    probe.measureBranches = 6000;
    probe.commitSink = &sink;
    directRun(w, spec, probe);
    ASSERT_EQ(sink.events.size(), 6000u);
    std::vector<std::uint64_t> flushes;
    for (const CommitEvent &e : sink.events)
        if (e.finalPred != e.outcome && e.index >= 500)
            flushes.push_back(e.index);
    ASSERT_GE(flushes.size(), 3u);

    std::vector<EngineConfig> configs(3);
    configs[0].warmupBranches = flushes[0] + 1;
    configs[0].measureBranches = flushes[2] - flushes[0];
    configs[1].warmupBranches = flushes[1] + 1;
    configs[1].measureBranches = 4000;
    configs[2].warmupBranches = 100;
    configs[2].measureBranches = flushes[1] + 1 - 100;
    const std::vector<EngineStats> chained =
        expectChainMatchesDirectRuns(w, spec, configs);
    ASSERT_EQ(chained.size(), 3u);

    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("member " + std::to_string(i));
        const std::uint64_t start = configs[i].warmupBranches;
        const std::uint64_t end = start + configs[i].measureBranches;
        std::uint64_t uops = 0;
        std::uint64_t flushed = 0;
        for (const CommitEvent &e : sink.events) {
            if (e.index >= start && e.index < end)
                uops += e.numUops;
            if (e.index + 1 >= start && e.index < end &&
                e.finalPred != e.outcome)
                ++flushed;
        }
        EXPECT_EQ(chained[i].committedBranches, end - start);
        EXPECT_EQ(chained[i].committedUops, uops);
        EXPECT_EQ(chained[i].finalMispredicts, flushed);
    }
}

/**
 * The canonical is the longest run, not the largest warmup: the
 * chain simulates once to 5200 branches, and every other member's
 * full warmup counts as saved.
 */
TEST(Fork, AccuracyChainCanonicalIsTheLongestRun)
{
    const Workload w = forkWorkload(forkRecipe(37));
    const std::vector<EngineConfig> configs = windowLadder({});
    ChainObs obs;
    runAccuracyChain(w, prophetAlone(ProphetKind::Gshare, Budget::B2KB),
                     configs, &obs);
    EXPECT_EQ(obs.snapshots, 2u);
    EXPECT_EQ(obs.warmupBranchesSaved, 600u + 1200u);
}

/** Per-branch collection rides through windows, member by member. */
TEST(Fork, AccuracyChainCollectsPerBranch)
{
    std::vector<EngineConfig> configs = windowLadder({});
    configs[0].collectPerBranch = true;
    configs[2].collectPerBranch = true;
    const std::vector<EngineStats> chained =
        expectChainMatchesDirectRuns(
            forkWorkload(forkRecipe(38)),
            hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                       CriticKind::TaggedGshare, Budget::B2KB, 8),
            configs);
    ASSERT_EQ(chained.size(), 3u);
    EXPECT_FALSE(chained[0].perBranch.empty());
    EXPECT_TRUE(chained[1].perBranch.empty());
    EXPECT_FALSE(chained[2].perBranch.empty());
}

/** runAccuracyChain == one direct Engine run per config. */
TEST(Fork, AccuracyChainMatchesIndividualRuns)
{
    const Workload &w = workloadByName("int.crafty");
    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    std::vector<EngineConfig> configs;
    for (const std::uint64_t wb : {500ull, 1500ull, 3000ull}) {
        EngineConfig cfg;
        cfg.warmupBranches = wb;
        cfg.measureBranches = 2000;
        configs.push_back(cfg);
    }

    ChainObs obs;
    const std::vector<EngineStats> chained =
        runAccuracyChain(w, spec, configs, &obs);
    EXPECT_EQ(obs.snapshots, configs.size() - 1);
    EXPECT_GT(obs.warmupBranchesSaved, 0u);

    ASSERT_EQ(chained.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectSameStats(chained[i],
                        directRun(w, spec, configs[i]));
    }
}

/**
 * A chain of one never forks, so none of the fork restrictions
 * apply: oracle future bits, a commit tap and a zero warmup ride
 * through it, and the events and stats equal a direct Engine::run().
 */
TEST(Fork, SingleMemberChainMatchesDirectRunWithOracleAndSink)
{
    const Workload &w = workloadByName("int.crafty");
    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    for (const std::uint64_t wb : {0ull, 500ull}) {
        SCOPED_TRACE("warmup " + std::to_string(wb));
        EngineConfig cfg;
        cfg.warmupBranches = wb;
        cfg.measureBranches = 3000;
        cfg.oracleFutureBits = true;

        RecordingSink direct_sink;
        EngineConfig direct_cfg = cfg;
        direct_cfg.commitSink = &direct_sink;
        const EngineStats direct =
            directRun(w, spec, direct_cfg);

        RecordingSink chain_sink;
        EngineConfig chain_cfg = cfg;
        chain_cfg.commitSink = &chain_sink;
        ChainObs obs;
        const std::vector<EngineStats> chained =
            runAccuracyChain(w, spec, {chain_cfg}, &obs);

        ASSERT_EQ(chained.size(), 1u);
        EXPECT_EQ(obs.snapshots, 0u);
        EXPECT_EQ(obs.warmupBranchesSaved, 0u);
        EXPECT_FALSE(direct_sink.events.empty());
        expectSameEvents(chain_sink.events, direct_sink.events);
        expectSameStats(chained[0], direct);
    }
}

// ------------------------------------------------- runner parity

/**
 * The end-to-end contract the executor advertises: the persisted
 * store of a shared-warmup grid is byte-identical with forking on or
 * off, at any job count — accuracy and timing grids alike (a timing
 * grid never chains, so its two plans run the same simulations).
 */
TEST(Fork, SweepStoreBytesIdenticalForkVsReplay)
{
    for (const bool timing : {false, true}) {
        SweepSpec spec;
        spec.name = timing ? "fork-parity-t" : "fork-parity-a";
        spec.timing = timing;
        spec.axes.prophets = {ProphetKind::Gshare};
        spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
        spec.workloads = {"mm.mpeg", "web.jbb"};
        spec.branches = timing ? 4000 : 3000;
        spec.warmups = {400, 900, 1400};

        auto runWith = [&](bool fork, unsigned jobs) {
            ResultStore store;
            SweepRunOptions opt;
            opt.fork = fork;
            opt.jobs = jobs;
            runSweep(spec, store, opt);
            return ResultStore::exportJson(store.all());
        };

        SCOPED_TRACE(timing ? "timing" : "accuracy");
        const std::string replay = runWith(false, 1);
        EXPECT_EQ(runWith(true, 1), replay);
        EXPECT_EQ(runWith(true, 4), replay);
    }
}

// -------------------------------------- compressed-trace workloads

/** Record a CFG walk, keep it in both formats; paths live for the
 *  whole process because workloadByName caches `trace:` entries. */
struct RecordedTracePair
{
    std::string v1;
    std::string v2;

    RecordedTracePair(std::uint64_t seed, std::uint64_t branches)
    {
        v1 = testing::TempDir() + "fork_trace_" + std::to_string(seed) +
             ".pcbptrc";
        v2 = v1 + "2";
        Program p = generateProgram(forkRecipe(seed));
        saveTrace(v1, walkProgram(p, branches));
        convertTraceFile(v1, v2, true, 256);
    }
};

/**
 * The chain driver on a PCBPTRC2 workload: a shared warmup ladder
 * read as windows of one compressed-trace replay must equal per-cell
 * linear replays — and the whole ladder must be format-invariant
 * against the same chain on the v1 flat file.
 */
TEST(Fork, AccuracyChainMatchesIndividualRunsOnCompressedTrace)
{
    const RecordedTracePair t(61, 6000);
    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8);

    std::vector<EngineConfig> configs;
    for (const std::uint64_t wb : {500ull, 1500ull, 3000ull}) {
        EngineConfig cfg;
        cfg.warmupBranches = wb;
        cfg.measureBranches = 2000;
        configs.push_back(cfg);
    }

    const Workload &w2 = workloadByName("trace:" + t.v2);
    ChainObs obs;
    const std::vector<EngineStats> chained =
        runAccuracyChain(w2, spec, configs, &obs);
    EXPECT_EQ(obs.snapshots, configs.size() - 1);
    EXPECT_GT(obs.warmupBranchesSaved, 0u);

    const Workload &w1 = workloadByName("trace:" + t.v1);
    const std::vector<EngineStats> chained_v1 =
        runAccuracyChain(w1, spec, configs);

    ASSERT_EQ(chained.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectSameStats(chained[i],
                        directRun(w2, spec, configs[i]));
        expectSameStats(chained[i], chained_v1[i]);
    }
}

/**
 * The sweep executor end to end on a compressed trace: persisted
 * ResultStore bytes identical with forking on or off, at any job
 * count — and identical to the same sweep over the v1 file modulo
 * the workload name embedded in the store keys.
 */
TEST(Fork, SweepStoreBytesIdenticalForkVsReplayOnCompressedTrace)
{
    const RecordedTracePair t(71, 5000);
    SweepSpec spec;
    spec.name = "fork-parity-trc2";
    spec.axes.prophets = {ProphetKind::Gshare};
    spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
    spec.workloads = {"trace:" + t.v2};
    spec.branches = 2500;
    spec.warmups = {400, 900, 1400};

    auto runWith = [&](bool fork, unsigned jobs) {
        ResultStore store;
        SweepRunOptions opt;
        opt.fork = fork;
        opt.jobs = jobs;
        runSweep(spec, store, opt);
        return ResultStore::exportJson(store.all());
    };

    const std::string replay = runWith(false, 1);
    EXPECT_EQ(runWith(true, 1), replay);
    EXPECT_EQ(runWith(true, 4), replay);
}

/**
 * Windows at a trace's end: a member whose run passes the last
 * record is clamped there, a member whose warmup ends exactly at the
 * last record keeps that record's flush-side counts, and a member
 * whose warmup passes the end reads zero — each exactly as its own
 * run over the trace does.
 */
TEST(Fork, AccuracyChainClampsWindowsAtTraceEnd)
{
    const RecordedTracePair t(79, 6000);
    const Workload &w = workloadByName("trace:" + t.v2);
    std::vector<EngineConfig> configs;
    for (const auto &[wb, mb] :
         {std::pair<std::uint64_t, std::uint64_t>{500, 2000},
          {3000, 5000},
          {6000, 100},
          {6500, 1000}}) {
        EngineConfig cfg;
        cfg.warmupBranches = wb;
        cfg.measureBranches = mb;
        configs.push_back(cfg);
    }
    const std::vector<EngineStats> chained = expectChainMatchesDirectRuns(
        w,
        hybridSpec(ProphetKind::Gshare, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8),
        configs);
    ASSERT_EQ(chained.size(), 4u);
    EXPECT_EQ(chained[0].committedBranches, 2000u);
    EXPECT_EQ(chained[1].committedBranches, 3000u);
    EXPECT_EQ(chained[2].committedBranches, 0u);
    EXPECT_EQ(chained[3].committedBranches, 0u);
    EXPECT_EQ(chained[3].finalMispredicts, 0u);
}

/** Read a whole file (empty if missing). */
std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/**
 * `--cell-stats` stores: each cell's persisted sim scalars (engine.*
 * windowed, core.*, stream.*, predictor.* at its own end) are
 * byte-identical with forking on or off, on a CFG workload and on a
 * PCBPTRC2 recording of it.
 */
TEST(Fork, CellStatsStoresIdenticalForkVsReplay)
{
    const std::string v1 = testing::TempDir() + "fork_cell_stats.pcbptrc";
    const std::string v2 = v1 + "2";
    {
        Program p = buildProgram(workloadByName("int.parser"));
        saveTrace(v1, walkProgram(p, 8000));
        convertTraceFile(v1, v2, true, 256);
    }

    for (const std::string &workload : {std::string("int.parser"),
                                        "trace:" + v2}) {
        SCOPED_TRACE(workload);
        SweepSpec spec;
        spec.name = "fork-cell-stats";
        spec.axes.prophets = {ProphetKind::Gshare};
        spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
        spec.workloads = {workload};
        spec.branches = 3000;
        spec.warmups = {400, 900, 1400};

        const auto storeBytes = [&](bool fork, unsigned jobs) {
            const std::string path =
                testing::TempDir() + "fork_cell_stats.jsonl";
            std::remove(path.c_str());
            {
                ResultStore store(path);
                SweepRunOptions opt;
                opt.fork = fork;
                opt.jobs = jobs;
                opt.cellStats = true;
                runSweep(spec, store, opt);
            }
            const std::string bytes = slurp(path);
            std::remove(path.c_str());
            return bytes;
        };

        const std::string replay = storeBytes(false, 1);
        ASSERT_NE(replay.find("\"predictor."), std::string::npos)
            << "no per-cell stats block";
        EXPECT_EQ(storeBytes(true, 1), replay);
        EXPECT_EQ(storeBytes(true, 3), replay);
    }
}

} // namespace
} // namespace pcbp
