#include "ladder.hh"

#include <cstdio>
#include <functional>
#include <vector>

#include "core/presets.hh"
#include "obs/stat_registry.hh"
#include "predictors/factory.hh"
#include "sim/committed_stream.hh"
#include "sim/driver.hh"
#include "sim/engine.hh"
#include "sim/timing.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace perfbench
{

using namespace pcbp;

namespace
{

/** Committed records per rung (the engine rungs commit this many). */
constexpr std::uint64_t kRecords = 1000000;

/** Timing-model commits per rung (the model is ~5x slower). */
constexpr std::uint64_t kTimingCommits = 200000;

/** Repetitions per rung; the metric is the median. */
constexpr int kReps = 3;

/** Keeps rung results observable so no loop is optimized away. */
volatile std::uint64_t sink = 0;

/**
 * Time @p body kReps times as spans named @p name; @p body returns the
 * items it processed. Returns the median nanoseconds per item.
 */
double
rung(SpanLog &spans, const std::string &name,
     const std::function<std::uint64_t()> &body)
{
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
        const int id = spans.open(name);
        const std::uint64_t items = body();
        spans.close(id, items);
        const Span &s = spans.all()[id];
        ns.push_back(items ? s.seconds() * 1e9 / double(items) : 0.0);
    }
    return median(ns);
}

/** Drain @p stream front to back; returns the records read. */
std::uint64_t
drain(CommittedStream &stream)
{
    std::uint64_t i = 0, acc = 0;
    while (const CommittedBranch *r = stream.at(i)) {
        acc += r->pc ^ r->taken;
        stream.release(++i);
    }
    sink = sink + acc;
    return i;
}

/** The committed stream of @p in (trace if present, else the walk). */
std::unique_ptr<CommittedStream>
openStream(const LadderInput &in, Program &program, std::uint64_t n)
{
    if (!in.trace.empty())
        return openTraceStream(in.trace);
    return std::make_unique<ProgramWalkStream>(program, n);
}

/** Program the engine rungs speculate through. */
Program
ladderProgram(const LadderInput &in)
{
    if (!in.trace.empty())
        return reconstructProgramFromTrace(in.trace, "trace:" + in.trace);
    return buildProgram(in.walk);
}

/** One full Engine::run of @p spec over @p in; returns commits. */
std::uint64_t
engineRun(const LadderInput &in, const HybridSpec &spec,
          StatRegistry *stats)
{
    Program program = ladderProgram(in);
    auto hybrid = spec.build();
    EngineConfig cfg = engineConfigFor(in.walk);
    cfg.warmupBranches = kRecords / 10;
    cfg.measureBranches = kRecords - cfg.warmupBranches;
    cfg.statsOut = stats;
    Engine engine(program, *hybrid, cfg);
    auto stream = openStream(in, program, kRecords);
    engine.run(*stream);
    return engine.committedSoFar();
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

void
runLadder(const LadderInput &in, bool timing, const std::string &dir,
          SpanLog &spans, MetricMap &out)
{
    const int ladder = spans.open("ladder");

    // Stream rungs, and the records every predictor rung replays.
    Program walked = buildProgram(in.walk);
    out["sim.stream.walk_ns_per_rec"] = {
        rung(spans, "sim.stream.walk",
             [&] {
                 ProgramWalkStream s(walked, kRecords);
                 return drain(s);
             }),
        "ns"};
    std::vector<CommittedBranch> recs;
    recs.reserve(kRecords);
    {
        auto s = openStream(in, walked, kRecords);
        for (std::uint64_t i = 0; const CommittedBranch *r = s->at(i);) {
            recs.push_back(*r);
            s->release(++i);
        }
    }

    double streamNs = out["sim.stream.walk_ns_per_rec"].value;
    out["sim.stream.trace2_ns_per_rec"] = {0.0, "ns"};
    out["workload.trace2_write_ns_per_rec"] = {0.0, "ns"};
    if (!in.trace.empty()) {
        streamNs = rung(spans, "sim.stream.trace2", [&] {
            auto s = openTraceStream(in.trace);
            return drain(*s);
        });
        out["sim.stream.trace2_ns_per_rec"] = {streamNs, "ns"};
        const std::string scratch = dir + "/ladder-write.pcbptrc2";
        out["workload.trace2_write_ns_per_rec"] = {
            rung(spans, "workload.trace2_write",
                 [&] {
                     Trace2Writer w(scratch);
                     for (const CommittedBranch &r : recs)
                         w.append(r);
                     w.finish();
                     return w.written();
                 }),
            "ns"};
        std::remove(scratch.c_str());
    }

    // Prophet lookup+update per committed record, history fed with
    // the outcomes; gshare's lookup alone prices the extra fetch-time
    // lookups the engine makes per commit.
    for (const ProphetKind kind :
         {ProphetKind::Gshare, ProphetKind::GSkew, ProphetKind::Perceptron,
          ProphetKind::Tage, ProphetKind::Bimodal}) {
        const std::string name = prophetKindName(kind);
        out["predictors." + name + ".ns_per_op"] = {
            rung(spans, "predictors." + name,
                 [&] {
                     auto p = makeProphet(kind, Budget::B8KB);
                     HistoryRegister h;
                     std::uint64_t acc = 0;
                     for (const CommittedBranch &r : recs) {
                         acc += p->predict(r.pc, h);
                         p->update(r.pc, h, r.taken);
                         h.shiftIn(r.taken);
                     }
                     sink = sink + acc;
                     return recs.size();
                 }),
            "ns"};
    }
    const double lookupNs =
        rung(spans, "predictors.gshare.lookup", [&] {
            auto p = makeProphet(ProphetKind::Gshare, Budget::B8KB);
            HistoryRegister h;
            std::uint64_t acc = 0;
            for (const CommittedBranch &r : recs) {
                acc += p->predict(r.pc, h);
                h.shiftIn(r.taken);
            }
            sink = sink + acc;
            return recs.size();
        });

    // The hybrid's per-branch event sequence on the committed path:
    // predict, critique with the next outcomes as future bits,
    // override/recover as the decision demands, commit. Run once with
    // the t.gshare critic and once without; the difference is the
    // critic's critique/train share of each event.
    const auto eventPath = [&](std::unique_ptr<ProphetCriticHybrid> h) {
        FutureBits fb;
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const CommittedBranch &r = recs[i];
            BranchContext ctx;
            const bool pred = h->predictBranch(r.pc, ctx);
            fb.clear();
            fb.push(pred);
            for (std::size_t k = 1; k < h->numFutureBits(); ++k)
                fb.push(i + k < recs.size() && recs[i + k].taken);
            const CritiqueDecision d = h->critiqueBranch(r.pc, ctx, pred, fb);
            if (d.overrode)
                h->overrideRedirect(ctx, d.finalPrediction);
            if (d.finalPrediction != r.taken)
                h->recoverMispredict(ctx, r.taken);
            h->commitBranch(r.pc, ctx, d, r.taken);
            acc += d.finalPrediction;
        }
        sink = sink + acc;
        return std::uint64_t(recs.size());
    };
    const double hybridNs = rung(spans, "core.hybrid", [&] {
        return eventPath(makeHybrid(ProphetKind::Gshare, Budget::B8KB,
                                    CriticKind::TaggedGshare, Budget::B8KB,
                                    8));
    });
    const double aloneNs = rung(spans, "core.hybrid.no_critic", [&] {
        return eventPath(makeProphetOnly(ProphetKind::Gshare, Budget::B8KB));
    });
    out["core.hybrid.ns_per_event"] = {hybridNs, "ns"};
    out["core.critic.t_gshare.ns_per_op"] = {hybridNs - aloneNs, "ns"};

    // Full engine runs; the prophet-only rung's protocol counters give
    // the multiplicities the rungs below are scaled by.
    StatRegistry reg;
    const HybridSpec prophetOnly = prophetAlone(ProphetKind::Gshare,
                                                Budget::B8KB);
    const HybridSpec hybrid = hybridSpec(ProphetKind::Gshare, Budget::B8KB,
                                         CriticKind::TaggedGshare,
                                         Budget::B8KB, 8);
    const double engineNs = rung(spans, "sim.engine.prophet", [&] {
        reg = StatRegistry();
        return engineRun(in, prophetOnly, &reg);
    });
    out["sim.engine.prophet_ns_per_commit"] = {engineNs, "ns"};
    out["sim.engine.hybrid_ns_per_commit"] = {
        rung(spans, "sim.engine.hybrid",
             [&] { return engineRun(in, hybrid, nullptr); }),
        "ns"};
    const double fetches = ratio(double(reg.simValue("core.fetches")),
                                 double(reg.simValue("core.commits")));
    out["sim.engine.fetches_per_commit"] = {fetches, "count"};
    out["sim.engine.wrong_path_per_commit"] = {
        ratio(double(reg.simValue("engine.wrong_path_branches")),
              double(reg.simValue("engine.committed_branches"))),
        "count"};
    const double opNs = out["predictors.gshare.ns_per_op"].value;
    out["sim.spec_core.residual_ns_per_commit"] = {
        engineNs - streamNs - opNs - lookupNs * (fetches - 1.0), "ns"};

    out["sim.timing.ns_per_commit"] = {0.0, "ns"};
    if (timing) {
        out["sim.timing.ns_per_commit"] = {
            rung(spans, "sim.timing",
                 [&] {
                     Program program = buildProgram(in.walk);
                     auto h = hybrid.build();
                     TimingConfig cfg = timingConfigFor(in.walk);
                     cfg.warmupBranches = kTimingCommits / 10;
                     cfg.measureBranches =
                         kTimingCommits - cfg.warmupBranches;
                     TimingSim sim(program, *h, cfg);
                     sim.run();
                     return sim.committedSoFar();
                 }),
            "ns"};
    }
    spans.close(ladder, recs.size());
}

} // namespace perfbench
