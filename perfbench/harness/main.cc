/**
 * @file
 * pcbp_perfbench: the repository benchmark's measuring program.
 *
 *   pcbp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --work DIR [--spans-out FILE] [--setup-only]
 *
 * --trace 0 runs timed iterations of the workload (closed loop, one
 * after another) until S seconds have passed, audits the last one,
 * and reports the end-to-end metrics. --trace 1 runs one warm-up
 * iteration, alternates untraced and traced iterations for S seconds,
 * then runs the per-layer ladder and reports the per-layer metrics;
 * its spans go to --spans-out.
 * --setup-only measures set-up alone (one sample of setup_s).
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, metrics. The line before it, prefixed `perfbench-info `,
 * records the seed, the simulated-output digest and PCBP_SIMD.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "obs/span_trace.hh"
#include "obs/stat_registry.hh"
#include "predictors/simd.hh"
#include "sweep/result_store.hh"
#include "ladder.hh"
#include "spans.hh"
#include "util.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string work;
    std::string spansOut;
    bool setupOnly = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pcbp_perfbench: " << why
              << "\nusage: pcbp_perfbench --workload NAME --seed N"
                 " --seconds S --trace 0|1 --work DIR"
                 " [--spans-out FILE] [--setup-only]\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage(flag + " wants a non-negative integer, got '" + v + "'");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(f + " needs a value");
        const std::string v = argv[++i];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = parseUint(f, v);
        else if (f == "--seconds")
            a.seconds = double(parseUint(f, v));
        else if (f == "--trace")
            a.trace = parseUint(f, v) != 0;
        else if (f == "--work")
            a.work = v;
        else if (f == "--spans-out")
            a.spansOut = v;
        else
            usage("unknown flag " + f);
    }
    if (a.workload.empty() || a.work.empty())
        usage("--workload and --work are required");
    return a;
}

/**
 * PCBP_BENCH_SCALE rescales every simulated run length, so any value
 * but 1 measures a different program: refuse it.
 */
void
guardEnvironment()
{
    const char *scale = std::getenv("PCBP_BENCH_SCALE");
    if (scale && std::strtod(scale, nullptr) != 1.0) {
        std::cerr << "pcbp_perfbench: PCBP_BENCH_SCALE=" << scale
                  << " changes the simulated run lengths; unset it (or"
                     " set it to 1) to benchmark\n";
        std::exit(2);
    }
}

/** A host counter from a pcbp-stats-1 document (0 when absent). */
double
hostValue(const std::string &statsJson, const std::string &key)
{
    const std::size_t host = statsJson.find("\"host\":");
    if (host == std::string::npos)
        return 0.0;
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = statsJson.find(needle, host);
    if (at == std::string::npos)
        return 0.0;
    return std::strtod(statsJson.c_str() + at + needle.size(), nullptr);
}

/**
 * Durations in ms of the library tracer's sweep-unit spans (cat
 * "cell", or "chain" for a fork chain run as one unit), paired per
 * thread track from the B/E events of its pcbp-trace-1 document.
 */
std::vector<double>
unitSpanMs(const std::string &traceJson)
{
    const auto field = [](const std::string &line, const std::string &key) {
        const std::string needle = "\"" + key + "\":";
        const std::size_t at = line.find(needle);
        if (at == std::string::npos)
            return std::string();
        std::size_t b = at + needle.size();
        if (line[b] == '"') {
            const std::size_t e = line.find('"', b + 1);
            return line.substr(b + 1, e - b - 1);
        }
        const std::size_t e = line.find_first_of(",}", b);
        return line.substr(b, e - b);
    };
    std::map<std::string, std::vector<std::pair<std::string, double>>> open;
    std::vector<double> ms;
    std::size_t pos = 0;
    while (pos < traceJson.size()) {
        std::size_t eol = traceJson.find('\n', pos);
        if (eol == std::string::npos)
            eol = traceJson.size();
        const std::string line = traceJson.substr(pos, eol - pos);
        pos = eol + 1;
        const std::string ph = field(line, "ph");
        if (ph != "B" && ph != "E")
            continue;
        auto &stack = open[field(line, "tid")];
        const double ts = std::strtod(field(line, "ts").c_str(), nullptr);
        if (ph == "B") {
            stack.emplace_back(field(line, "cat"), ts);
        } else if (!stack.empty()) {
            const auto [cat, start] = stack.back();
            stack.pop_back();
            if (cat == "cell" || cat == "chain")
                ms.push_back((ts - start) / 1000.0);
        }
    }
    return ms;
}

/** One measured iteration: wall, CPU, peak RSS, output digest. */
struct Sample
{
    double wall = 0.0;
    double cpu = 0.0;
    double rssMb = 0.0;
    std::uint64_t digest = 0;
};

Sample
iterate(BenchWorkload &wl, const std::string &dir, const Hooks &hooks)
{
    fs::remove_all(dir);
    resetPeakRss();
    Sample s;
    const double w0 = wallNow(), c0 = cpuNow();
    s.digest = wl.run(dir, hooks);
    s.wall = wallNow() - w0;
    s.cpu = cpuNow() - c0;
    s.rssMb = peakRssMb();
    return s;
}

std::uint64_t
gridBranches(const BenchWorkload &wl)
{
    std::uint64_t n = 0;
    for (const pcbp::SweepCell &c : wl.cells())
        n += c.warmupBranches + c.measureBranches;
    return n;
}

/** Every iteration's digest must equal the first's. */
void
checkDigests(const std::vector<Sample> &samples, Audit &audit)
{
    for (std::size_t i = 1; i < samples.size(); ++i)
        audit.check(samples[i].digest == samples[0].digest,
                    "iteration " + std::to_string(i) +
                        " produced different simulated output");
}

/** End-to-end metrics over the untraced samples. */
void
endToEnd(const BenchWorkload &wl, const std::vector<Sample> &samples,
         double setupS, MetricMap &out)
{
    std::vector<double> wall, cpu, rss, rate;
    const double branches = double(gridBranches(wl));
    for (const Sample &s : samples) {
        wall.push_back(s.wall);
        cpu.push_back(s.cpu);
        rss.push_back(s.rssMb);
        rate.push_back(branches / s.wall);
    }
    out["wall_s"] = {median(wall), "s"};
    out["branches_per_s"] = {median(rate), "1/s"};
    out["cpu_s"] = {median(cpu), "s"};
    out["peak_rss_mb"] = {median(rss), "MB"};
    out["setup_s"] = {setupS, "s"};
}

/** Per-layer metrics of the traced pass and the layer ladder. */
void
perLayer(BenchWorkload &wl, const std::string &runDir,
         const std::string &work, const pcbp::StatRegistry &reg,
         const pcbp::SpanTracer &tracer, double tracedWall,
         double overhead, SpanLog &spans, Audit &audit, MetricMap &out)
{
    const std::string stats = reg.toJson();
    out["trace_overhead_frac"] = {overhead, "fraction"};

    // Sweep runner, fork and pool, from the library's own counters.
    std::vector<double> unitMs = unitSpanMs(tracer.toJson());
    if (unitMs.empty())
        unitMs.push_back(0.0);
    out["sweep.cell_ms_p50"] = {quantile(unitMs, 0.5), "ms"};
    out["sweep.cell_ms_p90"] = {quantile(unitMs, 0.9), "ms"};
    std::uint64_t warmups = 0;
    for (const pcbp::SweepCell &c : wl.cells())
        warmups += c.warmupBranches;
    out["sweep.fork.warmup_saved_frac"] = {
        hostValue(stats, "sweep.fork.warmup_branches_saved") /
            double(warmups),
        "fraction"};
    out["sweep.fork.snapshots"] = {hostValue(stats, "sweep.fork.snapshots"),
                                   "count"};
    out["common.pool.idle_frac"] = {
        hostValue(stats, "pool.idle_ns") /
            (1e9 * tracedWall * double(wl.jobs())),
        "fraction"};
    out["common.pool.steals"] = {hostValue(stats, "pool.steals"), "count"};

    // Stream counters merged over every cell of the traced pass.
    const double produced = double(reg.simValue("stream.produced"));
    out["sim.stream.refills_per_rec"] = {
        produced ? double(reg.simValue("stream.refills")) / produced : 0.0,
        "count"};
    out["sim.stream.window_peak"] = {
        double(reg.simValue("stream.window_peak")), "count"};

    // Program construction, once per distinct workload of the grid.
    {
        std::vector<const pcbp::Workload *> programs;
        for (const pcbp::SweepCell &c : wl.cells())
            if (std::find(programs.begin(), programs.end(), c.workload) ==
                programs.end())
                programs.push_back(c.workload);
        const int id = spans.open("workload.build_program");
        for (const pcbp::Workload *w : programs) {
            Scope one(&spans, "workload.build_program." + w->name);
            pcbp::Program p = pcbp::buildProgram(*w);
            one.done(1);
        }
        spans.close(id, programs.size());
        out["workload.build_program_ms"] = {
            spans.all()[id].seconds() * 1e3 / double(programs.size()),
            "ms"};
    }

    // Store replay and append, over the traced pass's stores: each
    // store is reloaded, then appended cell by cell to a fresh copy.
    {
        std::vector<std::vector<pcbp::CellResult>> results;
        const auto paths = wl.storePaths(runDir);
        const int load = spans.open("sweep.store.load");
        for (const std::string &p : paths)
            results.push_back(pcbp::ResultStore(p).all());
        spans.close(load, paths.size());
        out["sweep.store.load_ms"] = {spans.all()[load].seconds() * 1e3,
                                      "ms"};

        std::uint64_t puts = 0;
        const int put = spans.open("sweep.store.put");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::string copy =
                work + "/put-probe" + std::to_string(i) + ".jsonl";
            fs::remove(copy);
            pcbp::ResultStore store(copy);
            for (const pcbp::CellResult &r : results[i])
                store.put(r);
            puts += results[i].size();
        }
        spans.close(put, puts);
        out["sweep.store.put_us"] = {
            spans.all()[put].seconds() * 1e6 / double(puts), "us"};
    }

    // Audit (the render-only pass is the report layer's span).
    wl.audit(runDir, audit, &spans);
    out["report.render_ms"] = {0.0, "ms"};
    for (const Span &s : spans.all())
        if (s.name == "report.render")
            out["report.render_ms"] = {s.seconds() * 1e3, "ms"};

    bool timing = false;
    for (const pcbp::SweepCell &c : wl.cells())
        timing = timing || c.timing;
    runLadder(wl.ladderInput(), timing, work, spans, out);
}

void
printReport(const Args &a, const BenchWorkload &wl, const Audit &audit,
            const MetricMap &metrics, std::uint64_t digest,
            const std::vector<Sample> &samples)
{
    const std::size_t iterations = samples.size();
    const char *simd = std::getenv("PCBP_SIMD");
    const std::string simdNote =
        simd ? std::string(" (PCBP_SIMD=") + simd + ")" : "";
    std::printf("perfbench: workload %s, seed %llu (%s), %zu iteration(s),"
                " SIMD %s%s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                wl.seeded() ? "inputs drawn from the seed"
                            : "inputs fixed; seed picks the audit sample",
                iterations, pcbp::simd::levelName(), simdNote.c_str());
    for (const auto &[name, m] : metrics)
        std::printf("  %-42s %18.6f %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  untraced iteration wall_s:");
    for (const Sample &s : samples)
        std::printf(" %.3f", s.wall);
    std::printf("\n");
    std::printf("  audit: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(audit.attempted),
                static_cast<unsigned long long>(audit.failed));
    for (const std::string &f : audit.failures)
        std::printf("  FAILED: %s\n", f.c_str());
    std::printf("perfbench-info {\"workload\": %s, \"seed\": %llu,"
                " \"seed_varies_inputs\": %s, \"digest\": \"%s\","
                " \"pcbp_simd\": %s, \"simd_level\": \"%s\","
                " \"iterations\": %zu, \"cells\": %zu}\n",
                jsonString(a.workload).c_str(),
                static_cast<unsigned long long>(a.seed),
                wl.seeded() ? "true" : "false", hex64(digest).c_str(),
                simd ? jsonString(simd).c_str() : "null",
                pcbp::simd::levelName(), iterations, wl.cells().size());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,"
                " \"metrics\": %s}\n",
                audit.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(audit.attempted),
                static_cast<unsigned long long>(audit.failed),
                metricsJson(metrics).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const double start = wallNow();
    const Args a = parseArgs(argc, argv);
    guardEnvironment();

    auto wl = makeWorkload(a.workload, a.seed);
    if (!wl)
        usage("unknown workload '" + a.workload + "'");
    fs::create_directories(a.work);
    wl->setup(a.work + "/inputs");
    const double setupS = wallNow() - start;
    if (a.setupOnly) {
        std::printf("{\"setup_s\": %s}\n", jsonNumber(setupS).c_str());
        return 0;
    }

    const std::string runDir = a.work + "/iteration";
    Audit audit;
    MetricMap metrics;
    std::vector<Sample> plain;
    const double t0 = wallNow();
    if (!a.trace) {
        do {
            plain.push_back(iterate(*wl, runDir, {}));
        } while (wallNow() - t0 < a.seconds);
        checkDigests(plain, audit);
        wl->audit(runDir, audit, nullptr);
        endToEnd(*wl, plain, setupS, metrics);
    } else {
        // An untimed warm-up pass takes the process's cold start, so
        // trace_overhead_frac does not charge it to the first untraced
        // pass. Then untraced and traced passes alternate; the last
        // traced pass's registry and tracer feed the per-layer numbers.
        SpanLog spans;
        const int root = spans.open("run");
        std::vector<double> tracedWall;
        std::unique_ptr<pcbp::StatRegistry> reg;
        std::unique_ptr<pcbp::SpanTracer> tracer;
        std::vector<Sample> all = {iterate(*wl, runDir, {})};
        do {
            plain.push_back(iterate(*wl, runDir, {}));
            all.push_back(plain.back());
            reg = std::make_unique<pcbp::StatRegistry>();
            tracer = std::make_unique<pcbp::SpanTracer>();
            const int id = spans.open("iteration.traced");
            all.push_back(iterate(*wl, runDir, {reg.get(), tracer.get()}));
            spans.close(id, wl->cells().size());
            tracedWall.push_back(all.back().wall);
        } while (wallNow() - t0 < a.seconds);
        checkDigests(all, audit);
        std::vector<double> plainWall;
        for (const Sample &s : plain)
            plainWall.push_back(s.wall);
        perLayer(*wl, runDir, a.work, *reg, *tracer, tracedWall.back(),
                 median(tracedWall) / median(plainWall) - 1.0, spans,
                 audit, metrics);
        spans.close(root, all.size());
        if (!a.spansOut.empty())
            spans.writeFile(a.spansOut);
    }
    printReport(a, *wl, audit, metrics, plain.front().digest, plain);
    return 0;
}
