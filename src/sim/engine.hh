/**
 * @file
 * The wrong-path-capable branch-prediction engine.
 *
 * This is the accuracy simulator (no timing): it models an in-order
 * speculative front end with a bounded number of in-flight branches.
 * The prophet runs ahead along its own predicted path through the
 * *CFG* — so, when the final prediction of a branch turns out wrong,
 * the future bits the critic consumed were genuinely produced on the
 * wrong path, exactly as §6 of the paper requires. Recovery restores
 * the checkpointed BHR/BOR and redirects fetch; the mispredicted
 * branch itself commits and trains the critic with its critique-time
 * BOR (§3.3).
 *
 * The speculative protocol itself — predict, gather, critique,
 * recover, commit-train — lives in the shared SpecCore
 * (sim/spec_core.hh); the engine layers the accuracy-run policy and
 * statistics on top. The committed (architectural) path arrives
 * through a CommittedStream (branch behaviors read only committed
 * state, so the correct path is provably independent of the
 * predictor, as in real hardware): by default an on-the-fly CFG
 * walk, optionally any other stream — and only a pipeline-deep
 * window of it is ever resident, so run length does not affect
 * memory.
 */

#ifndef PCBP_SIM_ENGINE_HH
#define PCBP_SIM_ENGINE_HH

#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "core/critique.hh"
#include "core/prophet_critic.hh"
#include "sim/committed_stream.hh"
#include "sim/spec_core.hh"
#include "workload/cfg.hh"

namespace pcbp
{

/** Accuracy-engine configuration. */
struct EngineConfig
{
    /** Maximum in-flight branches (models pipeline depth). */
    unsigned pipelineDepth = 24;

    /** Model the BTB of §5 (miss = fall-through, allocate at commit). */
    bool useBtb = true;
    std::size_t btbEntries = 4096;
    unsigned btbWays = 4;

    /**
     * Ablation: feed the critic correct-path outcomes as future bits
     * instead of the prophet's wrong-path predictions. §6 argues this
     * is oracle information a real machine does not have; the
     * ablation bench quantifies the inflation.
     */
    bool oracleFutureBits = false;

    /** Collect per-static-branch statistics (trace explorer). */
    bool collectPerBranch = false;

    /**
     * Optional commit-path tap (H2P analytics, differential tests):
     * receives every committed branch in commit order, warmup
     * included. Not owned; must outlive the engine.
     */
    CommitSink *commitSink = nullptr;

    /** Committed branches measured (after warmup). */
    std::uint64_t measureBranches = 250000;

    /** Committed branches of warmup before measuring. */
    std::uint64_t warmupBranches = 25000;

    /**
     * Optional stats registry: when set, the run exports its
     * counters — engine.*, core.* (spec-core protocol events),
     * stream.*, predictor.* — into it at end of run (of its own
     * window, in Engine::runWindows), and the spec core counts
     * protocol events as it goes (obs/probes.hh; off the
     * hot path either way). Not owned; null = no collection.
     */
    StatRegistry *statsOut = nullptr;
};

/** Per-static-branch accuracy record. */
struct PerBranchStat
{
    Addr pc = 0;
    std::uint64_t execs = 0;
    std::uint64_t prophetWrong = 0;
    std::uint64_t finalWrong = 0;
};

/** Counters produced by an engine run (measured window only). */
struct EngineStats
{
    std::uint64_t committedBranches = 0;
    std::uint64_t committedUops = 0;

    /** Final-prediction mispredicts == pipeline flushes. */
    std::uint64_t finalMispredicts = 0;

    /** Prophet-prediction mispredicts on committed branches. */
    std::uint64_t prophetMispredicts = 0;

    /** Committed branches that missed the BTB when fetched. */
    std::uint64_t btbMisses = 0;

    /** Explicit disagree critiques. */
    std::uint64_t criticOverrides = 0;

    /** Prophet predictions flushed from the FTQ by overrides. */
    std::uint64_t squashedPredictions = 0;

    /** Branches/uops squashed by pipeline flushes (wrong path). */
    std::uint64_t wrongPathBranches = 0;
    std::uint64_t wrongPathUops = 0;

    /** Critiques generated with fewer than the configured bits. */
    std::uint64_t partialCritiques = 0;

    /** §7.3 critique distribution. */
    CritiqueCounts critiques;

    /** Distribution of uops between pipeline flushes. */
    Histogram flushDistance{64, 512};

    /** Optional per-static-branch stats, sorted by finalWrong. */
    std::vector<PerBranchStat> perBranch;

    double
    mispPerKuops() const
    {
        return committedUops == 0
                   ? 0.0
                   : 1000.0 * double(finalMispredicts) /
                         double(committedUops);
    }

    double
    mispRate() const
    {
        return committedBranches == 0
                   ? 0.0
                   : double(finalMispredicts) / double(committedBranches);
    }

    double
    prophetMispRate() const
    {
        return committedBranches == 0
                   ? 0.0
                   : double(prophetMispredicts) /
                         double(committedBranches);
    }

    double
    uopsPerFlush() const
    {
        return finalMispredicts == 0
                   ? double(committedUops)
                   : double(committedUops) / double(finalMispredicts);
    }
};

class Engine
{
  public:
    /**
     * @param program The CFG speculation runs through.
     * @param hybrid The predictor under test (prophet-only or full
     *        prophet/critic).
     * @param config Engine configuration.
     */
    Engine(Program &program, ProphetCriticHybrid &hybrid,
           const EngineConfig &config);

    /**
     * Run the configured number of branches over the program's own
     * committed walk (streamed, O(pipeline) memory) and return stats.
     */
    EngineStats run();

    /**
     * Run against an explicit committed stream (trace replay, tests,
     * equivalence checks). @p committed must agree with the CFG:
     * successor(block, outcome) is the next committed block. The run
     * length is the configured branch budget capped by the stream.
     * This is runWindows() with the engine's own configuration as
     * the only window.
     */
    EngineStats run(CommittedStream &committed);

    /**
     * Windowed run (DESIGN.md §11): simulate @p committed once, to
     * the end of the longest window, and return one EngineStats per
     * member of @p windows, in order. Run lengths gate only which
     * events are counted, never the simulated trajectory, so member
     * [w, w+m) reads exactly what a run(committed) configured with
     * its own lengths would: the counters at the end of the commit
     * that brings the commit cursor to min(w+m, stream length),
     * minus those at the moment the cursor reaches w (after branch
     * w-1's commit-side counts, before its flush-side ones). Each
     * member's statsOut receives its export at its own end (engine.*
     * windowed; core.*, stream.* and predictor.* as they read at
     * that moment) and its collectPerBranch fills its perBranch.
     *
     * Members supply run lengths and stats plumbing only; everything
     * that shapes the trajectory (pipeline depth, BTB geometry,
     * oracle bits, commit sink) must equal this engine's
     * configuration. Oracle future bits read the stream up to the
     * run's end, so an oracle engine takes a single window.
     */
    std::vector<EngineStats> runWindows(
        CommittedStream &committed,
        const std::vector<EngineConfig> &windows);

    /** Committed branches so far. */
    std::uint64_t committedSoFar() const { return commitIdx; }

  private:
    using Inflight = SpecRecord<EnginePayload>;

    /** One member of a windowed run and its start snapshot. */
    struct Window
    {
        const EngineConfig *cfg = nullptr;
        std::uint64_t start = 0; //!< commit count that opens it
        std::uint64_t end = 0;   //!< commit count that closes it
        EngineStats base;        //!< counters at start
        std::unordered_map<Addr, PerBranchStat> perBranchBase;
    };

    bool critiqueAt(std::size_t idx);
    void critiqueReady();
    void resolveOldest(CommittedStream &committed);
    void openWindows();
    void closeWindows(CommittedStream &committed,
                      std::vector<EngineStats> &out);
    EngineStats windowStats(const Window &w) const;
    void exportStats(StatRegistry &reg, const EngineStats &s,
                     CommittedStream &committed);

    Program &program;
    ProphetCriticHybrid &hybrid;
    EngineConfig cfg;
    SpecCore<EnginePayload> core;
    SpecCoreObs coreObs;

    std::uint64_t totalBranches = 0;
    std::uint64_t commitIdx = 0;
    std::uint64_t uopsSinceFlush = 0;

    /**
     * Events count only while some window is open: a window reads
     * its end values minus its start values and stays open over
     * that whole span, so an event outside every window belongs to
     * none. A single window counts exactly its own measured events.
     */
    bool measuring() const { return openCount > 0; }

    /** Counters of every event while measuring(). */
    EngineStats stats;
    std::size_t openCount = 0; //!< windows opened, not yet closed
    bool collectPerBranch = false;
    std::unordered_map<Addr, PerBranchStat> perBranchMap;

    std::vector<Window> windows;
    std::uint64_t nextOpen = 0;  //!< next Window::start to snapshot
    std::uint64_t nextClose = 0; //!< next Window::end to report
};

} // namespace pcbp

#endif // PCBP_SIM_ENGINE_HH
