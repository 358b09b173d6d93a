#include "spans.hh"

#include <fstream>

#include "common/logging.hh"
#include "util.hh"

namespace perfbench
{

int
SpanLog::open(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.start = wallNow();
    spans.push_back(std::move(s));
    stack.push_back(int(spans.size() - 1));
    return stack.back();
}

void
SpanLog::close(int id, std::uint64_t count)
{
    pcbp_assert(!stack.empty() && stack.back() == id,
                "perfbench: spans must close innermost first");
    stack.pop_back();
    spans[id].end = wallNow();
    spans[id].count = count;
}

double
SpanLog::selfSeconds(int id) const
{
    double self = spans[id].seconds();
    for (const Span &s : spans)
        if (s.parent == id)
            self -= s.seconds();
    return self;
}

std::string
SpanLog::toJson() const
{
    const double t0 = spans.empty() ? 0.0 : spans.front().start;
    std::string out = "{\"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out += std::string(i ? ",\n  " : "\n  ") +
               "{\"name\": " + jsonString(s.name) +
               ", \"parent\": " + std::to_string(s.parent) +
               ", \"start_s\": " + jsonNumber(s.start - t0) +
               ", \"end_s\": " + jsonNumber(s.end - t0) +
               ", \"self_s\": " + jsonNumber(selfSeconds(int(i))) +
               ", \"count\": " + std::to_string(s.count) + "}";
    }
    return out + "\n]}\n";
}

void
SpanLog::writeFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << toJson();
    if (!f.flush())
        pcbp_fatal("perfbench: cannot write ", path);
}

} // namespace perfbench
