#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "report/repro.hh"
#include "sim/committed_stream.hh"
#include "sim/driver.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "util.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace pcbp;

void
Audit::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
}

namespace
{

/** A cell re-executed on its own (runAccuracy/runTiming), as persisted. */
CellResult
reExecute(const SweepCell &cell, const Workload &workload)
{
    if (cell.timing) {
        return CellResult::fromTimingRun(
            cell, runTiming(workload, cell.spec, cell.timingConfig()));
    }
    return CellResult::fromRun(
        cell, runAccuracy(workload, cell.spec, cell.engineConfig()));
}

/** Byte-compare one stored cell with its standalone re-execution. */
void
checkCell(const SweepCell &cell, const ResultStore &store, Audit &audit)
{
    const CellResult *stored = store.find(cell.key());
    audit.check(stored != nullptr &&
                    stored->toJson() ==
                        reExecute(cell, *cell.workload).toJson(),
                "re-executed cell differs from the store: " + cell.key());
}

/** Check @p n cells of @p cells, chosen by @p rng, against @p store. */
void
checkSample(const std::vector<SweepCell> &cells, const ResultStore &store,
            std::size_t n, Rng &rng, Audit &audit)
{
    for (std::size_t i = 0; i < n; ++i)
        checkCell(cells[rng.nextBelow(cells.size())], store, audit);
}

std::uint64_t
digestFiles(const std::vector<std::string> &paths)
{
    std::uint64_t h = fnv1a("");
    for (const std::string &p : paths)
        h = fnv1a(readFile(p), h);
    return h;
}

/** runSweep of @p spec into a fresh file store under @p dir. */
std::uint64_t
runGrid(const SweepSpec &spec, std::size_t expected, const std::string &dir,
        const Hooks &hooks)
{
    fs::create_directories(dir);
    const std::string path = dir + "/grid.jsonl";
    ResultStore store(path);
    SweepRunOptions opt;
    opt.jobs = 1;
    opt.fork = true;
    opt.stats = hooks.stats;
    opt.tracer = hooks.tracer;
    const SweepRunSummary s = runSweep(spec, store, opt);
    if (s.executedCells != expected)
        pcbp_fatal("perfbench: ", spec.name, " executed ",
                   s.executedCells, " of ", expected, " cells");
    return digestFiles({path});
}

// ------------------------------------------------------------ repro

/**
 * A default-scale reproduction of four figures: the researcher's path
 * to REPRO.md. Its inputs are the paper's fixed registry, so the seed
 * picks only the audit sample.
 */
class Repro : public BenchWorkload
{
  public:
    explicit Repro(std::uint64_t seed) : seed(seed) {}

    void
    setup(const std::string &) override
    {
        for (const FigureDef *f : figuresByIds(kFigures))
            for (const SweepSpec &spec : f->sweeps(FigureOptions{}))
                for (SweepCell &cell : spec.cells()) {
                    figureOf.push_back(f->id);
                    grid.push_back(std::move(cell));
                }
    }

    const std::vector<SweepCell> &cells() const override { return grid; }

    unsigned
    jobs() const override
    {
        return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    }

    std::uint64_t
    run(const std::string &dir, const Hooks &hooks) override
    {
        ReproOptions opts;
        opts.figures = kFigures;
        opts.outDir = dir;
        opts.jobs = jobs();
        opts.fork = true;
        opts.stats = hooks.stats;
        opts.tracer = hooks.tracer;
        const ReproSummary s = runRepro(opts);
        if (!s.complete || s.executedCells != grid.size())
            pcbp_fatal("perfbench: repro executed ", s.executedCells,
                       " of ", grid.size(), " cells");
        std::vector<std::string> files = {dir + "/REPRO.md"};
        for (const std::string &p : storePaths(dir))
            files.push_back(p);
        return digestFiles(files);
    }

    std::vector<std::string>
    storePaths(const std::string &dir) const override
    {
        std::vector<std::string> out;
        for (const std::string &id : kFigures)
            out.push_back(dir + "/store/" + id + ".jsonl");
        return out;
    }

    void
    audit(const std::string &dir, Audit &audit, SpanLog *spans) override
    {
        // One seed-chosen cell per figure, so accuracy, timing and
        // fork-chained cells are all re-executed.
        Rng rng(seed ^ 0x524550524fULL);
        for (const std::string &id : kFigures) {
            const ResultStore store(dir + "/store/" + id + ".jsonl");
            std::vector<std::size_t> mine;
            for (std::size_t i = 0; i < grid.size(); ++i)
                if (figureOf[i] == id)
                    mine.push_back(i);
            checkCell(grid[mine[rng.nextBelow(mine.size())]], store,
                      audit);
        }

        // A render-only pass over the finished stores must reproduce
        // REPRO.md byte for byte.
        const std::string report = dir + "/REPRO.md";
        const std::string before = readFile(report);
        ReproOptions opts;
        opts.figures = kFigures;
        opts.outDir = dir;
        opts.renderOnly = true;
        bool complete = false;
        {
            Scope span(spans, "report.render");
            complete = runRepro(opts).complete;
            span.done(1);
        }
        audit.check(complete && readFile(report) == before,
                    "render-only REPRO.md differs from the run's");
    }

    LadderInput
    ladderInput() const override
    {
        return {workloadByName("gcc"), ""};
    }

    bool seeded() const override { return false; }

  private:
    inline static const std::vector<std::string> kFigures = {
        "fig5", "headline", "fig9", "warmup"};

    std::uint64_t seed;
    std::vector<SweepCell> grid;
    std::vector<std::string> figureOf; //!< figure id per grid cell
};

// ----------------------------------------------------- prophet-grid

/**
 * Prophet-only accuracy cells of five predictors at two budgets over
 * one seed-chosen workload per suite, each walked from its CFG: no
 * critic, fork chain, timing model or trace file on the path.
 */
class ProphetGrid : public BenchWorkload
{
  public:
    explicit ProphetGrid(std::uint64_t seed) : seed(seed) {}

    void
    setup(const std::string &) override
    {
        Rng rng(seed);
        spec.name = "prophet-grid";
        spec.axes.prophets = {ProphetKind::Gshare, ProphetKind::GSkew,
                              ProphetKind::Perceptron, ProphetKind::Tage,
                              ProphetKind::Bimodal};
        spec.axes.prophetBudgets = {Budget::B8KB, Budget::B16KB};
        spec.axes.critics = {std::nullopt};
        spec.branches = kMeasure;
        spec.workloads.clear();
        for (const std::string &suite : allSuites()) {
            const auto members = suiteWorkloads(suite);
            spec.workloads.push_back(
                members[rng.nextBelow(members.size())]->name);
        }
        grid = spec.cells();
    }

    const std::vector<SweepCell> &cells() const override { return grid; }

    std::uint64_t
    run(const std::string &dir, const Hooks &hooks) override
    {
        return runGrid(spec, grid.size(), dir, hooks);
    }

    std::vector<std::string>
    storePaths(const std::string &dir) const override
    {
        return {dir + "/grid.jsonl"};
    }

    void
    audit(const std::string &dir, Audit &audit, SpanLog *) override
    {
        Rng rng(seed ^ 0x475249440aULL);
        const ResultStore store(dir + "/grid.jsonl");
        checkSample(grid, store, 3, rng, audit);
    }

    LadderInput
    ladderInput() const override
    {
        return {*grid.front().workload, ""};
    }

    bool seeded() const override { return true; }

  private:
    /** Measured branches per cell (warmup a tenth of it). */
    static constexpr std::uint64_t kMeasure = 100000;

    std::uint64_t seed;
    SweepSpec spec;
    std::vector<SweepCell> grid;
};

// ----------------------------------------------------- trace-ladder

/**
 * A ten-step warmup ladder over PCBPTRC2 traces recorded at setup from
 * three registry recipes re-seeded by the seed: trace decode and fork
 * clone/seek on the path, CFG walking off it.
 */
class TraceLadder : public BenchWorkload
{
  public:
    explicit TraceLadder(std::uint64_t seed) : seed(seed) {}

    void
    setup(const std::string &dir) override
    {
        const std::string traceDir = dir + "/traces";
        fs::create_directories(traceDir);
        spec.name = "trace-ladder";
        spec.axes.prophets = {ProphetKind::Gshare};
        spec.axes.prophetBudgets = {Budget::B8KB};
        spec.axes.critics = {std::nullopt, CriticKind::TaggedGshare};
        spec.axes.criticBudgets = {Budget::B8KB};
        spec.axes.futureBits = {8};
        spec.branches = kMeasure;
        spec.warmups.clear();
        for (std::uint64_t i = 1; i <= kSteps; ++i)
            spec.warmups.push_back(i * kWarmupStep);
        spec.workloads.clear();

        for (const char *base : kBases) {
            Workload w = workloadByName(base);
            w.recipe.seed = Rng(seed ^ w.recipe.seed).next();
            w.name = std::string(base) + "-s" + std::to_string(seed);
            const std::string v1 = traceDir + "/" + w.name + ".pcbptrc";
            const std::string v2 = v1 + "2";
            {
                Program program = buildProgram(w);
                ProgramWalkStream stream(program, kTraceBranches);
                TraceWriter writer(v1);
                for (std::uint64_t i = 0; i < kTraceBranches; ++i) {
                    writer.append(*stream.at(i));
                    stream.release(i + 1);
                }
                writer.finish();
            }
            convertTraceFile(v1, v2, true);
            fs::remove(v1);
            recipes.push_back(w);
            traces.push_back(v2);
            spec.workloads.push_back("trace:" + v2);
        }
        grid = spec.cells();
    }

    const std::vector<SweepCell> &cells() const override { return grid; }

    std::uint64_t
    run(const std::string &dir, const Hooks &hooks) override
    {
        return runGrid(spec, grid.size(), dir, hooks);
    }

    std::vector<std::string>
    storePaths(const std::string &dir) const override
    {
        return {dir + "/grid.jsonl"};
    }

    void
    audit(const std::string &dir, Audit &audit, SpanLog *) override
    {
        Rng rng(seed ^ 0x54524143ULL);
        const ResultStore store(dir + "/grid.jsonl");
        checkSample(grid, store, 3, rng, audit);

        // The same recipe walked from its CFG must give the same cell
        // as the replayed trace, checked on every trace's shortest
        // prophet-only rung (no critic reads wrong-path bits there).
        // Wrong-path uops are left out: in the program rebuilt from a
        // trace, edges the trace never took fall back to the block's
        // other successor (reconstructProgramFromTrace), so wrong-path
        // walks cross other blocks than the recipe's CFG would.
        const auto committedPath = [](CellResult r) {
            r.wrongPathUops = 0;
            return r.toJson();
        };
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const SweepCell *cell = nullptr;
            for (const SweepCell &c : grid)
                if (c.workload->tracePath == traces[t] && !c.spec.critic &&
                    (!cell || c.warmupBranches < cell->warmupBranches))
                    cell = &c;
            const CellResult *stored = store.find(cell->key());
            audit.check(stored && committedPath(*stored) ==
                                      committedPath(
                                          reExecute(*cell, recipes[t])),
                        "trace replay differs from the CFG walk of " +
                            recipes[t].name);
        }
    }

    LadderInput
    ladderInput() const override
    {
        return {recipes.front(), traces.front()};
    }

    bool seeded() const override { return true; }

  private:
    static constexpr const char *kBases[] = {"int.parser", "mm.mpeg",
                                             "serv.tpcc"};
    static constexpr std::uint64_t kTraceBranches = 500000;
    static constexpr std::uint64_t kSteps = 10;
    static constexpr std::uint64_t kWarmupStep = 40000;
    static constexpr std::uint64_t kMeasure =
        kTraceBranches - kSteps * kWarmupStep;

    std::uint64_t seed;
    SweepSpec spec;
    std::vector<SweepCell> grid;
    std::vector<Workload> recipes; //!< the re-seeded registry recipes
    std::vector<std::string> traces; //!< their PCBPTRC2 recordings
};

} // namespace

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "repro")
        return std::make_unique<Repro>(seed);
    if (name == "prophet-grid")
        return std::make_unique<ProphetGrid>(seed);
    if (name == "trace-ladder")
        return std::make_unique<TraceLadder>(seed);
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"repro", "prophet-grid",
                                                   "trace-ladder"};
    return names;
}

} // namespace perfbench
