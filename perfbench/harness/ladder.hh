/**
 * @file
 * The per-layer ladder: the same committed records run through
 * successively more of the stack — stream drain, prophet
 * lookup/update, the hybrid's event path without and with its critic
 * (critique/train), the full Engine::run, and (when the workload has
 * timing cells) the TimingSim — each rung a span around public layer
 * calls, credited with the items it processed.
 */

#ifndef PERFBENCH_LADDER_HH
#define PERFBENCH_LADDER_HH

#include <string>

#include "spans.hh"
#include "util.hh"
#include "workloads.hh"

namespace perfbench
{

/**
 * Run every rung on @p in (scratch files under @p dir) and add the
 * `sim.stream.*`, `workload.trace2_write_*`, `predictors.*`,
 * `core.*`, `sim.engine.*`, `sim.spec_core.*` and `sim.timing.*`
 * metrics to @p out. Rungs a workload does not exercise (trace
 * decode without a trace, timing without timing cells) report 0.
 */
void runLadder(const LadderInput &in, bool timing, const std::string &dir,
               SpanLog &spans, MetricMap &out);

} // namespace perfbench

#endif // PERFBENCH_LADDER_HH
