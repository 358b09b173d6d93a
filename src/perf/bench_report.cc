#include "perf/bench_report.hh"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/driver.hh"

namespace pcbp
{

namespace
{

constexpr const char *kSchema = "pcbp-bench-1";

/**
 * Minimal field extraction for the fixed pcbp-bench-1 schema (same
 * spirit as the sweep store's reader: not a general JSON parser).
 * Keys are unique within the region searched, so a plain scan for
 * `"key":` is unambiguous.
 */
std::string
rawField(const std::string &obj, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = obj.find(needle);
    if (pos == std::string::npos)
        pcbp_fatal("bench JSON: missing field '", key, "'");
    std::size_t i = pos + needle.size();
    while (i < obj.size() && (obj[i] == ' ' || obj[i] == '\n'))
        ++i;
    std::size_t end = i;
    if (i < obj.size() && obj[i] == '"') {
        // Honor backslash escapes: the writer's jsonEscape emits \"
        // and \\ inside strings.
        end = i + 1;
        while (end < obj.size() && obj[end] != '"') {
            end += obj[end] == '\\' ? 2 : 1;
        }
        if (end >= obj.size())
            pcbp_fatal("bench JSON: unterminated string for '", key, "'");
        return obj.substr(i, end - i + 1);
    }
    while (end < obj.size() &&
           (std::isdigit(static_cast<unsigned char>(obj[end])) ||
            obj[end] == '-' || obj[end] == '+' || obj[end] == '.' ||
            obj[end] == 'e' || obj[end] == 'E' || obj[end] == 'a' ||
            obj[end] == 'l' || obj[end] == 'r' || obj[end] == 't' ||
            obj[end] == 'u' || obj[end] == 'f' || obj[end] == 's')) {
        ++end; // numbers plus the literals true/false
    }
    if (end == i)
        pcbp_fatal("bench JSON: empty value for '", key, "'");
    return obj.substr(i, end - i);
}

std::string
stringField(const std::string &obj, const std::string &key)
{
    const std::string raw = rawField(obj, key);
    if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"')
        pcbp_fatal("bench JSON: expected string for '", key, "'");
    std::string out;
    for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
        if (raw[i] == '\\' && i + 2 < raw.size())
            ++i;
        out += raw[i];
    }
    return out;
}

double
numberField(const std::string &obj, const std::string &key)
{
    return std::atof(rawField(obj, key).c_str());
}

bool
boolField(const std::string &obj, const std::string &key)
{
    const std::string raw = rawField(obj, key);
    if (raw == "true")
        return true;
    if (raw == "false")
        return false;
    pcbp_fatal("bench JSON: expected bool for '", key, "'");
}

} // namespace

BenchRun
BenchRun::fromResults(const std::string &name, const BenchContext &ctx,
                      std::vector<BenchResult> results_)
{
    BenchRun run;
    run.name = name;
    run.quick = ctx.quick;
    run.scale = benchScale();
    run.repeats = ctx.measureOptions().repeats;
    run.workload = ctx.workload;
    run.results = std::move(results_);
    return run;
}

std::string
benchRunToJson(const BenchRun &run)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"" << kSchema << "\",\n"
       << "  \"name\": \"" << jsonEscape(run.name) << "\",\n"
       << "  \"quick\": " << (run.quick ? "true" : "false") << ",\n"
       << "  \"scale\": " << fmtDouble(run.scale, 4) << ",\n"
       << "  \"repeats\": " << run.repeats << ",\n"
       << "  \"workload\": \"" << jsonEscape(run.workload) << "\",\n"
       << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const BenchResult &r = run.results[i];
        os << "    {\"name\": \"" << jsonEscape(r.name) << "\""
           << ", \"group\": \"" << jsonEscape(r.group) << "\""
           << ", \"unit\": \"" << jsonEscape(r.unit) << "\""
           << ", \"items_per_rep\": " << r.m.itemsPerRep
           << ", \"ns_median\": " << fmtDouble(r.m.nsMedian, 0)
           << ", \"ns_min\": " << fmtDouble(r.m.nsMin, 0)
           << ", \"ns_max\": " << fmtDouble(r.m.nsMax, 0)
           << ", \"cycles_median\": " << fmtDouble(r.m.cyclesMedian, 0)
           << ", \"throughput\": " << fmtDouble(r.m.throughput(), 3)
           << "}" << (i + 1 < run.results.size() ? "," : "") << "\n";
    }
    os << "  ]\n"
       << "}\n";
    return os.str();
}

BenchRun
benchRunFromJson(const std::string &text)
{
    const std::size_t list = text.find("\"benchmarks\":");
    if (list == std::string::npos)
        pcbp_fatal("bench JSON: missing 'benchmarks' array");
    const std::string head = text.substr(0, list);

    if (stringField(head, "schema") != kSchema) {
        pcbp_fatal("bench JSON: unsupported schema '",
                   stringField(head, "schema"), "' (want ", kSchema,
                   ")");
    }

    BenchRun run;
    run.name = stringField(head, "name");
    run.quick = boolField(head, "quick");
    run.scale = numberField(head, "scale");
    run.repeats = static_cast<unsigned>(numberField(head, "repeats"));
    run.workload = stringField(head, "workload");

    // One flat object per benchmark: scan brace pairs in the array.
    std::size_t pos = text.find('[', list);
    const std::size_t endList = text.rfind(']');
    if (pos == std::string::npos || endList == std::string::npos)
        pcbp_fatal("bench JSON: malformed 'benchmarks' array");
    while (true) {
        const std::size_t open = text.find('{', pos);
        if (open == std::string::npos || open > endList)
            break;
        const std::size_t close = text.find('}', open);
        if (close == std::string::npos)
            pcbp_fatal("bench JSON: unterminated benchmark object");
        const std::string obj = text.substr(open, close - open + 1);

        BenchResult r;
        r.name = stringField(obj, "name");
        r.group = stringField(obj, "group");
        r.unit = stringField(obj, "unit");
        r.m.itemsPerRep = static_cast<std::uint64_t>(
            numberField(obj, "items_per_rep"));
        r.m.nsMedian = numberField(obj, "ns_median");
        r.m.nsMin = numberField(obj, "ns_min");
        r.m.nsMax = numberField(obj, "ns_max");
        r.m.cyclesMedian = numberField(obj, "cycles_median");
        r.m.repeats = run.repeats;
        run.results.push_back(std::move(r));
        pos = close + 1;
    }
    return run;
}

BenchRun
loadBenchRun(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        pcbp_fatal("cannot read bench artifact '", path, "'");
    std::ostringstream os;
    os << in.rdbuf();
    return benchRunFromJson(os.str());
}

ReportTable
benchRunTable(const BenchRun &run)
{
    ReportTable t("bench_" + run.name,
                  "pcbp_bench results (" + run.name + ")",
                  {"benchmark", "group", "items/rep", "median ms",
                   "min ms", "max ms", "Mitems/s"});
    t.addNote("median of " + std::to_string(run.repeats) +
              " repetitions, 1 warmup; " +
              (run.quick ? "quick" : "full") + " mode, scale " +
              fmtDouble(run.scale, 2) +
              (run.workload.empty() ? ""
                                    : ", workload " + run.workload));
    for (const BenchResult &r : run.results) {
        t.addRow({r.name, r.group, std::to_string(r.m.itemsPerRep),
                  fmtDouble(r.m.nsMedian / 1e6, 2),
                  fmtDouble(r.m.nsMin / 1e6, 2),
                  fmtDouble(r.m.nsMax / 1e6, 2),
                  fmtDouble(r.m.throughput() / 1e6, 3)});
    }
    return t;
}

void
makeBenchOutDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (!ec && !fs::is_directory(dir, ec))
        ec = std::make_error_code(std::errc::not_a_directory);
    if (ec)
        pcbp_fatal("bench: cannot create '", dir, "': ", ec.message());
}

std::string
writeBenchRun(const BenchRun &run, const std::string &dir)
{
    const std::string stem = dir + "/BENCH_" + run.name;
    writeFileOrDie(stem + ".json", benchRunToJson(run));
    writeFileOrDie(stem + ".md", benchRunTable(run).toMarkdown());
    return stem;
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        pcbp_fatal("cannot write '", path, "'");
    out << content;
    if (!out.flush())
        pcbp_fatal("short write to '", path, "'");
}

BenchComparison
compareBenchRuns(const BenchRun &baseline, const BenchRun &current,
                 double threshold)
{
    BenchComparison cmp;
    cmp.incomparable = baseline.quick != current.quick ||
                       baseline.scale != current.scale ||
                       baseline.workload != current.workload;

    for (const BenchResult &cur : current.results) {
        BenchDelta d;
        d.name = cur.name;
        d.current = cur.m.throughput();
        const BenchResult *base = nullptr;
        for (const BenchResult &b : baseline.results)
            if (b.name == cur.name)
                base = &b;
        if (!base) {
            d.missingBaseline = true;
        } else {
            d.baseline = base->m.throughput();
            if (d.baseline > 0.0) {
                d.delta = d.current / d.baseline - 1.0;
                d.regression = d.delta < -threshold;
            }
        }
        cmp.deltas.push_back(d);
    }
    for (const BenchResult &b : baseline.results) {
        bool found = false;
        for (const BenchResult &c : current.results)
            found = found || c.name == b.name;
        if (!found) {
            BenchDelta d;
            d.name = b.name;
            d.baseline = b.m.throughput();
            d.missingCurrent = true;
            cmp.deltas.push_back(d);
        }
    }

    for (const BenchDelta &d : cmp.deltas)
        cmp.regressed = cmp.regressed || d.regression;
    return cmp;
}

ReportTable
benchComparisonTable(const BenchComparison &cmp, double threshold)
{
    ReportTable t("bench_compare", "pcbp_bench compare",
                  {"benchmark", "baseline Mitems/s", "current Mitems/s",
                   "delta", "verdict"});
    t.addNote("regression threshold: " +
              fmtDouble(threshold * 100.0, 1) + "% throughput drop");
    if (cmp.incomparable) {
        t.addNote("WARNING: quick/scale/workload differ between runs "
                  "— numbers are not comparable");
    }
    for (const BenchDelta &d : cmp.deltas) {
        std::string delta = "-";
        std::string verdict = "ok";
        if (d.missingBaseline) {
            verdict = "new (no baseline)";
        } else if (d.missingCurrent) {
            verdict = "missing in current";
        } else {
            delta = fmtDouble(d.delta * 100.0, 1) + "%";
            if (d.regression)
                verdict = "REGRESSION";
            else if (d.delta > threshold)
                verdict = "improved";
        }
        t.addRow({d.name,
                  d.missingBaseline ? "-" : fmtDouble(d.baseline / 1e6, 3),
                  d.missingCurrent ? "-" : fmtDouble(d.current / 1e6, 3),
                  delta, verdict});
    }
    return t;
}

std::string
benchComparisonToJson(const BenchComparison &cmp, double threshold)
{
    std::size_t mismatched = 0;
    for (const BenchDelta &d : cmp.deltas)
        mismatched += (d.missingBaseline || d.missingCurrent) ? 1 : 0;

    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"pcbp-bench-compare-1\",\n"
       << "  \"threshold\": " << fmtDouble(threshold, 4) << ",\n"
       << "  \"incomparable\": "
       << (cmp.incomparable ? "true" : "false") << ",\n"
       << "  \"regressed\": " << (cmp.regressed ? "true" : "false")
       << ",\n"
       << "  \"mismatched\": " << mismatched << ",\n"
       << "  \"deltas\": [\n";
    for (std::size_t i = 0; i < cmp.deltas.size(); ++i) {
        const BenchDelta &d = cmp.deltas[i];
        os << "    {\"name\": \"" << jsonEscape(d.name) << "\""
           << ", \"baseline\": " << fmtDouble(d.baseline, 3)
           << ", \"current\": " << fmtDouble(d.current, 3)
           << ", \"delta\": " << fmtDouble(d.delta, 6)
           << ", \"missing_baseline\": "
           << (d.missingBaseline ? "true" : "false")
           << ", \"missing_current\": "
           << (d.missingCurrent ? "true" : "false")
           << ", \"regression\": "
           << (d.regression ? "true" : "false") << "}"
           << (i + 1 < cmp.deltas.size() ? "," : "") << "\n";
    }
    os << "  ]\n"
       << "}\n";
    return os.str();
}

} // namespace pcbp
