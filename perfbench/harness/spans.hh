/**
 * @file
 * The harness's own span log. Every span is recorded by benchmark
 * code around one call into a layer's public functions: its name,
 * its parent span, start and end, and a count of the work items the
 * call processed (records, ops, commits, cells), so a layer's cost
 * per item is measured where the work happened. Spans stay in memory
 * and are written out once, when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    int parent = -1;         //!< index of the enclosing span, -1 = root
    double start = 0.0;      //!< wallNow() seconds
    double end = 0.0;
    std::uint64_t count = 0; //!< work items processed inside the span

    double seconds() const { return end - start; }
};

class SpanLog
{
  public:
    /** Open a span under the innermost open one; returns its id. */
    int open(const std::string &name);

    /** Close span @p id, crediting it @p count work items. */
    void close(int id, std::uint64_t count = 0);

    /** Duration minus the time covered by direct children. */
    double selfSeconds(int id) const;

    const std::vector<Span> &all() const { return spans; }

    /** `{"spans": [{"name", "parent", "start_s", "end_s", "self_s",
     *  "count"}, ...]}`, start times relative to the first span. */
    std::string toJson() const;

    /** Write toJson() to @p path (fatal on I/O failure). */
    void writeFile(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span on an optional log; count set by done(). */
class Scope
{
  public:
    Scope(SpanLog *log, const std::string &name)
        : log(log), id(log ? log->open(name) : -1)
    {
    }

    ~Scope()
    {
        if (log)
            log->close(id, count);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Credit the span with @p n work items. */
    void done(std::uint64_t n) { count = n; }

  private:
    SpanLog *log;
    int id;
    std::uint64_t count = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
