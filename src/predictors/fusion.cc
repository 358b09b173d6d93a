#include "predictors/fusion.hh"

#include <algorithm>

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

FusionHybrid::FusionHybrid(std::vector<DirectionPredictorPtr> components,
                           std::size_t fusion_entries)
    : comps(std::move(components)),
      fusion(fusion_entries, SatCounter(2, 1)),
      indexBits(log2Floor(fusion_entries))
{
    pcbp_assert(comps.size() >= 2 && comps.size() <= 4,
                "fusion wants 2-4 components");
    pcbp_assert(isPowerOfTwo(fusion_entries));
    pcbp_assert(indexBits > comps.size(),
                "fusion table too small for the prediction vector");
}

unsigned
FusionHybrid::predVector(Addr pc, const HistoryRegister &hist)
{
    unsigned v = 0;
    for (std::size_t i = 0; i < comps.size(); ++i)
        v |= static_cast<unsigned>(comps[i]->predict(pc, hist)) << i;
    return v;
}

std::size_t
FusionHybrid::fusionIndex(Addr pc, unsigned pred_vector) const
{
    // Prediction vector in the low bits; address bits above it.
    const unsigned n = static_cast<unsigned>(comps.size());
    const std::uint64_t a = foldBits(pc >> 2, indexBits - n);
    return ((a << n) | pred_vector) & maskBits(indexBits);
}

bool
FusionHybrid::predict(Addr pc, const HistoryRegister &hist)
{
    return fusion[fusionIndex(pc, predVector(pc, hist))].taken();
}

void
FusionHybrid::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    // The fusion table trains on the mapping seen at prediction
    // time; components train as usual.
    fusion[fusionIndex(pc, predVector(pc, hist))].update(taken);
    for (auto &c : comps)
        c->update(pc, hist, taken);
}

void
FusionHybrid::reset()
{
    for (auto &c : comps)
        c->reset();
    for (auto &f : fusion)
        f.set(1);
}

std::size_t
FusionHybrid::sizeBits() const
{
    std::size_t bits = fusion.size() * 2;
    for (const auto &c : comps)
        bits += c->sizeBits();
    return bits;
}

unsigned
FusionHybrid::historyLength() const
{
    unsigned h = 0;
    for (const auto &c : comps)
        h = std::max(h, c->historyLength());
    return h;
}

std::string
FusionHybrid::name() const
{
    std::string s = "fusion(";
    for (std::size_t i = 0; i < comps.size(); ++i) {
        if (i)
            s += ",";
        s += comps[i]->name();
    }
    return s + ")";
}

} // namespace pcbp
