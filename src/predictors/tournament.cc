#include "predictors/tournament.hh"

#include <algorithm>

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

Tournament::Tournament(DirectionPredictorPtr c0, DirectionPredictorPtr c1,
                       std::size_t chooser_entries)
    : comp0(std::move(c0)),
      comp1(std::move(c1)),
      chooser(chooser_entries, SatCounter(2, 1)),
      chooserIndexBits(log2Floor(chooser_entries))
{
    pcbp_assert(comp0 && comp1);
    pcbp_assert(isPowerOfTwo(chooser_entries));
}

std::size_t
Tournament::chooseIndex(Addr pc) const
{
    return foldBits(pc >> 2, chooserIndexBits);
}

bool
Tournament::predict(Addr pc, const HistoryRegister &hist)
{
    const bool use1 = chooser[chooseIndex(pc)].taken();
    return use1 ? comp1->predict(pc, hist) : comp0->predict(pc, hist);
}

void
Tournament::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    const bool p0 = comp0->predict(pc, hist);
    const bool p1 = comp1->predict(pc, hist);
    // Chooser trains toward the component that was right when they
    // disagree.
    if (p0 != p1)
        chooser[chooseIndex(pc)].update(p1 == taken);
    comp0->update(pc, hist, taken);
    comp1->update(pc, hist, taken);
}

void
Tournament::reset()
{
    comp0->reset();
    comp1->reset();
    for (auto &c : chooser)
        c.set(1);
}

std::size_t
Tournament::sizeBits() const
{
    return comp0->sizeBits() + comp1->sizeBits() + chooser.size() * 2;
}

unsigned
Tournament::historyLength() const
{
    return std::max(comp0->historyLength(), comp1->historyLength());
}

std::string
Tournament::name() const
{
    return "tournament(" + comp0->name() + "," + comp1->name() + ")";
}

} // namespace pcbp
