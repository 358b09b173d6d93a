#include "sim/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

namespace
{

SpecCoreConfig
coreConfig(const EngineConfig &cfg)
{
    SpecCoreConfig c;
    c.useBtb = cfg.useBtb;
    c.btbEntries = cfg.btbEntries;
    c.btbWays = cfg.btbWays;
    c.oracleFutureBits = cfg.oracleFutureBits;
    c.commitSink = cfg.commitSink;
    return c;
}

} // namespace

Engine::Engine(Program &program_, ProphetCriticHybrid &hybrid_,
               const EngineConfig &config)
    : program(program_), hybrid(hybrid_), cfg(config),
      core(program_, hybrid_, coreConfig(config))
{
    pcbp_assert(cfg.pipelineDepth >= 2);
    pcbp_assert(cfg.pipelineDepth > hybrid.numFutureBits(),
                "pipeline depth must exceed the future-bit count");
}

bool
Engine::critiqueAt(std::size_t idx)
{
    const CritiqueOutcome out = core.critique(idx);
    if (out.bitsGathered < hybrid.numFutureBits() && measuring())
        ++stats.partialCritiques;
    if (out.overrode && measuring()) {
        ++stats.criticOverrides;
        stats.squashedPredictions += out.squashed;
    }
    return out.overrode;
}

void
Engine::critiqueReady()
{
    if (!hybrid.hasCritic())
        return;
    const unsigned want = std::max(1u, hybrid.numFutureBits());

    // Issue critiques oldest-first, resuming at the core's cached
    // oldest-uncritiqued cursor instead of rescanning the pipeline.
    for (std::optional<std::size_t> idx = core.oldestUncriticized();
         idx; idx = core.nextUncritiqued(*idx + 1)) {
        if (core.futureBitsAvailable(*idx) < want)
            break; // younger branches have even fewer bits
        if (critiqueAt(*idx))
            break; // override squashed the younger entries
    }
}

void
Engine::resolveOldest(CommittedStream &committed)
{
    pcbp_assert(!core.queueEmpty());

    // §5: the consumer needs this prediction now; if the critique is
    // still pending, generate it from the future bits available.
    if (!core.front().critiqued && core.front().btbHit &&
        hybrid.hasCritic()) {
        critiqueAt(0);
    }

    // Read the record in place and drop it: the pooled slot (and this
    // reference) stays valid until the next fetchNext(), and skipping
    // popFront()'s by-value copy saves a two-register checkpoint move
    // per commit.
    const Inflight &r = core.front();
    core.dropFront();

    const CommittedBranch *cb = committed.at(commitIdx);
    pcbp_assert(cb != nullptr, "committed stream ended mid-run");

    // Invariant: the oldest in-flight branch is on the correct path.
    pcbp_assert(r.traceIdx == commitIdx,
                "oldest branch not at the commit point");
    pcbp_assert(r.block == cb->block,
                "oldest branch diverged from the architectural path");

    const bool outcome = cb->taken;
    const bool prophet_correct =
        r.btbHit ? (r.prophetPred == outcome) : !outcome;

    // Non-speculative commit-time training (§3.2); for critiqued
    // branches this uses the critique-time BOR, wrong-path future
    // bits included (§3.3).
    core.commitTrain(r, outcome);

    const bool mispredicted = r.finalPred != outcome;

    if (measuring()) {
        ++stats.committedBranches;
        stats.committedUops += r.numUops;
        if (!r.btbHit)
            ++stats.btbMisses;
        if (r.btbHit && !prophet_correct)
            ++stats.prophetMispredicts;
        if (r.btbHit && hybrid.hasCritic() && r.decision) {
            const bool provided = r.decision->provided;
            const bool agreed =
                !provided || r.decision->finalPrediction == r.prophetPred;
            stats.critiques.record(
                classifyCritique(prophet_correct, provided, agreed));
        }
        if (collectPerBranch) {
            auto &pb = perBranchMap[r.pc];
            pb.pc = r.pc;
            ++pb.execs;
            if (r.btbHit && !prophet_correct)
                ++pb.prophetWrong;
            if (mispredicted)
                ++pb.finalWrong;
        }
    }

    ++commitIdx;

    // A window opens between the commit-side and the flush-side
    // counts of the branch that reaches its start: a run warmed for
    // w branches measures the flush that branch w-1 causes.
    if (commitIdx == nextOpen)
        openWindows();

    if (mispredicted) {
        if (measuring()) {
            ++stats.finalMispredicts;
            stats.flushDistance.sample(uopsSinceFlush);
            stats.wrongPathBranches += core.queueSize();
            for (std::size_t i = 0; i < core.queueSize(); ++i)
                stats.wrongPathUops += core.at(i).numUops;
        }
        uopsSinceFlush = 0;
        core.clearQueue();
        core.recoverAndRedirect(r, outcome);
    } else {
        uopsSinceFlush += r.numUops;
    }

    // Everything at or above commitIdx may still be read (oracle
    // lookahead); older records are dead.
    committed.release(commitIdx);
}

EngineStats
Engine::run()
{
    ProgramWalkStream stream(program,
                             cfg.warmupBranches + cfg.measureBranches);
    return run(stream);
}

EngineStats
Engine::run(CommittedStream &committed)
{
    return std::move(runWindows(committed, {cfg}).front());
}

namespace
{

/** @p now minus the counters of the earlier snapshot @p then. */
EngineStats
statsSince(const EngineStats &now, const EngineStats &then)
{
    EngineStats d = now;
    d.committedBranches -= then.committedBranches;
    d.committedUops -= then.committedUops;
    d.finalMispredicts -= then.finalMispredicts;
    d.prophetMispredicts -= then.prophetMispredicts;
    d.btbMisses -= then.btbMisses;
    d.criticOverrides -= then.criticOverrides;
    d.squashedPredictions -= then.squashedPredictions;
    d.wrongPathBranches -= then.wrongPathBranches;
    d.wrongPathUops -= then.wrongPathUops;
    d.partialCritiques -= then.partialCritiques;
    for (std::size_t c = 0; c < numCritiqueClasses; ++c)
        d.critiques.counts[c] -= then.critiques.counts[c];
    d.flushDistance.subtract(then.flushDistance);
    return d;
}

} // namespace

std::vector<EngineStats>
Engine::runWindows(CommittedStream &committed,
                   const std::vector<EngineConfig> &members)
{
    pcbp_assert(!members.empty());
    pcbp_assert(members.size() == 1 || !cfg.oracleFutureBits,
                "oracle future bits read up to the run's end; an "
                "oracle engine takes a single window");

    windows.assign(members.size(), Window{});
    totalBranches = 0;
    openCount = 0;
    collectPerBranch = false;
    bool any_stats_out = false;
    for (std::size_t i = 0; i < members.size(); ++i) {
        const EngineConfig &m = members[i];
        pcbp_assert(m.pipelineDepth == cfg.pipelineDepth &&
                        m.useBtb == cfg.useBtb &&
                        m.btbEntries == cfg.btbEntries &&
                        m.btbWays == cfg.btbWays &&
                        m.oracleFutureBits == cfg.oracleFutureBits &&
                        m.commitSink == cfg.commitSink,
                    "window configuration changes simulated behavior");
        Window &w = windows[i];
        w.cfg = &m;
        w.start = m.warmupBranches;
        w.end = std::min(m.warmupBranches + m.measureBranches,
                         committed.length());
        totalBranches = std::max(totalBranches, w.end);
        collectPerBranch |= m.collectPerBranch;
        any_stats_out |= m.statsOut != nullptr;
    }

    const CommittedBranch *first = committed.at(0);
    coreObs = SpecCoreObs{};
    core.attachObs(any_stats_out ? &coreObs : nullptr);
    core.beginRun(cfg.oracleFutureBits ? &committed : nullptr,
                  totalBranches,
                  first ? first->block : program.entry());
    commitIdx = 0;
    uopsSinceFlush = 0;
    stats = EngineStats{};
    perBranchMap.clear();

    std::vector<EngineStats> out(members.size());
    openWindows();
    closeWindows(committed, out);
    while (commitIdx < totalBranches) {
        while (core.queueSize() < cfg.pipelineDepth)
            core.fetchNext();
        critiqueReady();
        resolveOldest(committed);
        if (commitIdx == nextClose)
            closeWindows(committed, out);
    }
    windows.clear();
    return out;
}

void
Engine::openWindows()
{
    nextOpen = ~std::uint64_t(0);
    for (Window &w : windows) {
        // A window starting past its end never opens: it reads zero.
        if (w.start > w.end)
            continue;
        if (w.start == commitIdx) {
            ++openCount;
            w.base = stats;
            if (w.cfg->collectPerBranch)
                w.perBranchBase = perBranchMap;
        } else if (w.start > commitIdx) {
            nextOpen = std::min(nextOpen, w.start);
        }
    }
}

void
Engine::closeWindows(CommittedStream &committed,
                     std::vector<EngineStats> &out)
{
    nextClose = ~std::uint64_t(0);
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const Window &w = windows[i];
        if (w.end == commitIdx) {
            if (w.start <= w.end)
                --openCount;
            out[i] = windowStats(w);
            if (w.cfg->statsOut)
                exportStats(*w.cfg->statsOut, out[i], committed);
        } else if (w.end > commitIdx) {
            nextClose = std::min(nextClose, w.end);
        }
    }
}

EngineStats
Engine::windowStats(const Window &w) const
{
    if (w.start > w.end)
        return EngineStats{};
    EngineStats s = statsSince(stats, w.base);
    if (!w.cfg->collectPerBranch)
        return s;

    for (const auto &[pc, now] : perBranchMap) {
        PerBranchStat pb = now;
        const auto it = w.perBranchBase.find(pc);
        if (it != w.perBranchBase.end()) {
            pb.execs -= it->second.execs;
            pb.prophetWrong -= it->second.prophetWrong;
            pb.finalWrong -= it->second.finalWrong;
        }
        if (pb.execs > 0)
            s.perBranch.push_back(pb);
    }
    std::sort(s.perBranch.begin(), s.perBranch.end(),
              [](const PerBranchStat &a, const PerBranchStat &b) {
                  if (a.finalWrong != b.finalWrong)
                      return a.finalWrong > b.finalWrong;
                  return a.pc < b.pc;
              });
    return s;
}

void
Engine::exportStats(StatRegistry &reg, const EngineStats &s,
                    CommittedStream &committed)
{
    reg.add("engine.committed_branches", s.committedBranches);
    reg.add("engine.committed_uops", s.committedUops);
    reg.add("engine.final_mispredicts", s.finalMispredicts);
    reg.add("engine.prophet_mispredicts", s.prophetMispredicts);
    reg.add("engine.btb_misses", s.btbMisses);
    reg.add("engine.critic_overrides", s.criticOverrides);
    reg.add("engine.squashed_predictions", s.squashedPredictions);
    reg.add("engine.wrong_path_branches", s.wrongPathBranches);
    reg.add("engine.wrong_path_uops", s.wrongPathUops);
    reg.add("engine.partial_critiques", s.partialCritiques);
    for (std::size_t c = 0; c < numCritiqueClasses; ++c) {
        reg.add("engine.critique." +
                    critiqueClassName(static_cast<CritiqueClass>(c)),
                s.critiques.counts[c]);
    }
    reg.hist("engine.flush_distance_uops", s.flushDistance);

    coreObs.exportTo(reg, "core");

    reg.add(std::string("stream.backend.") + committed.backendName(), 1);
    reg.add("stream.refills", committed.refills());
    reg.add("stream.produced", committed.produced());
    reg.setMax("stream.window_peak", committed.windowPeak());
    committed.exportHostStats(reg);

    hybrid.exportStats(reg, "predictor");
}

} // namespace pcbp
