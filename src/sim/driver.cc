#include "sim/driver.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace pcbp
{

std::string
HybridSpec::label() const
{
    std::string s = budgetName(prophetBudget) + " " +
                    prophetKindName(prophet);
    if (critic) {
        s += " + " + budgetName(criticBudget) + " " +
             criticKindName(*critic);
    }
    return s;
}

std::unique_ptr<ProphetCriticHybrid>
HybridSpec::build() const
{
    HybridConfig cfg;
    cfg.numFutureBits = critic ? futureBits : 0;
    cfg.speculativeHistoryUpdate = speculativeHistory;
    cfg.repairHistory = repairHistory;
    return std::make_unique<ProphetCriticHybrid>(
        makeProphet(prophet, prophetBudget),
        critic ? makeCritic(*critic, criticBudget, filterTagBits)
               : nullptr,
        cfg);
}

HybridSpec
prophetAlone(ProphetKind kind, Budget budget)
{
    HybridSpec s;
    s.prophet = kind;
    s.prophetBudget = budget;
    s.critic.reset();
    s.futureBits = 0;
    return s;
}

HybridSpec
hybridSpec(ProphetKind prophet, Budget prophet_budget, CriticKind critic,
           Budget critic_budget, unsigned future_bits)
{
    HybridSpec s;
    s.prophet = prophet;
    s.prophetBudget = prophet_budget;
    s.critic = critic;
    s.criticBudget = critic_budget;
    s.futureBits = future_bits;
    return s;
}

double
benchScale()
{
    static const double scale = [] {
        const char *env = std::getenv("PCBP_BENCH_SCALE");
        if (!env)
            return 1.0;
        const double v = std::atof(env);
        if (v <= 0.0) {
            pcbp_warn("ignoring PCBP_BENCH_SCALE='", env, "'");
            return 1.0;
        }
        return v;
    }();
    return scale;
}

EngineConfig
engineConfigFor(const Workload &w)
{
    EngineConfig cfg;
    cfg.measureBranches = static_cast<std::uint64_t>(
        double(w.simBranches) * benchScale());
    cfg.warmupBranches = static_cast<std::uint64_t>(
        double(w.warmupBranches) * benchScale());
    cfg.measureBranches = std::max<std::uint64_t>(cfg.measureBranches,
                                                  1000);
    cfg.warmupBranches = std::max<std::uint64_t>(cfg.warmupBranches, 100);
    return cfg;
}

EngineStats
runAccuracy(const Workload &w, const HybridSpec &spec)
{
    return runAccuracy(w, spec, engineConfigFor(w));
}

EngineStats
runAccuracy(const Workload &w, const HybridSpec &spec,
            const EngineConfig &config)
{
    return std::move(runAccuracyChain(w, spec, {config}).front());
}

H2PReport
runH2P(const Workload &w, const HybridSpec &spec,
       const EngineConfig &config, const H2PConfig &h2p)
{
    pcbp_assert(config.commitSink == nullptr,
                "runH2P owns the commit tap; profile through your own "
                "sink instead of passing one here");
    H2PProfiler profiler(config.warmupBranches);
    EngineConfig cfg = config;
    cfg.commitSink = &profiler;
    runAccuracy(w, spec, cfg);
    H2PReport report = profiler.report(h2p);
    report.workload = w.name;
    report.config = spec.label();
    return report;
}

H2PReport
runH2P(const Workload &w, const HybridSpec &spec, const H2PConfig &h2p)
{
    return runH2P(w, spec, engineConfigFor(w), h2p);
}

std::vector<EngineStats>
runAccuracyChain(const Workload &w, const HybridSpec &spec,
                 const std::vector<EngineConfig> &configs,
                 ChainObs *obs)
{
    pcbp_assert(!configs.empty());
    if (configs.size() > 1) {
        for (const EngineConfig &c : configs) {
            pcbp_assert(c.commitSink == nullptr,
                        "a commit tap sees one run's commits; sink "
                        "cells run as chains of one");
            pcbp_assert(!c.oracleFutureBits,
                        "oracle cells run as chains of one");
            pcbp_assert(c.warmupBranches >= 1,
                        "chaining a cell with no warmup saves nothing");
        }
    }

    // The canonical member runs longest; every member, the canonical
    // included, is a window of that one run.
    const auto runLength = [](const EngineConfig &c) {
        return c.warmupBranches + c.measureBranches;
    };
    const auto canon = std::max_element(
        configs.begin(), configs.end(),
        [&](const EngineConfig &a, const EngineConfig &b) {
            return runLength(a) < runLength(b);
        });

    Program program = buildProgram(w);
    auto hybrid = spec.build();
    Engine engine(program, *hybrid, *canon);
    std::vector<EngineStats> results;
    if (!w.tracePath.empty()) {
        results = engine.runWindows(*openTraceStream(w.tracePath),
                                    configs);
    } else {
        ProgramWalkStream stream(program, runLength(*canon));
        results = engine.runWindows(stream, configs);
    }

    if (obs) {
        for (auto it = configs.begin(); it != configs.end(); ++it) {
            if (it == canon)
                continue;
            ++obs->snapshots;
            obs->warmupBranchesSaved += it->warmupBranches;
        }
    }
    return results;
}

std::vector<EngineStats>
runSet(const std::vector<const Workload *> &set, const HybridSpec &spec)
{
    std::vector<EngineStats> results(set.size());
    ThreadPool::shared().parallelFor(set.size(), [&](std::size_t i) {
        results[i] = runAccuracy(*set[i], spec);
    });
    return results;
}

AggregateResult
runSetAggregated(const std::vector<const Workload *> &set,
                 const HybridSpec &spec)
{
    return aggregate(runSet(set, spec));
}

TimingConfig
timingConfigFor(const Workload &w)
{
    TimingConfig cfg;
    // Timing runs are ~10x slower per branch than accuracy runs, so
    // use a third of the workload's accuracy budget.
    cfg.measureBranches = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(double(w.simBranches) / 3.0 *
                                   benchScale()),
        1000);
    cfg.warmupBranches =
        std::max<std::uint64_t>(cfg.measureBranches / 10, 100);
    return cfg;
}

TimingStats
runTiming(const Workload &w, const HybridSpec &spec)
{
    return runTiming(w, spec, timingConfigFor(w));
}

TimingStats
runTiming(const Workload &w, const HybridSpec &spec,
          const TimingConfig &config)
{
    Program program = buildProgram(w);
    auto hybrid = spec.build();
    TimingSim sim(program, *hybrid, config);
    if (w.tracePath.empty())
        return sim.run();
    return sim.run(*openTraceStream(w.tracePath));
}

std::vector<TimingStats>
runTimingSet(const std::vector<const Workload *> &set,
             const HybridSpec &spec)
{
    std::vector<TimingStats> results(set.size());
    ThreadPool::shared().parallelFor(set.size(), [&](std::size_t i) {
        results[i] = runTiming(*set[i], spec);
    });
    return results;
}

double
meanUpc(const std::vector<TimingStats> &runs)
{
    if (runs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : runs)
        sum += r.upc();
    return sum / double(runs.size());
}

} // namespace pcbp
