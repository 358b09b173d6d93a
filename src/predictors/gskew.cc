#include "predictors/gskew.hh"

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace pcbp
{

GSkew::GSkew(std::size_t entries_per_bank, unsigned history_bits)
    : bim(entries_per_bank, 2, 1), g0(entries_per_bank, 2, 1),
      g1(entries_per_bank, 2, 1), meta(entries_per_bank, 2, 2),
      histBits(history_bits), indexBits(log2Floor(entries_per_bank)),
      pcFold(64, indexBits), histFold(history_bits, indexBits)
{
    pcbp_assert(isPowerOfTwo(entries_per_bank),
                "gskew bank size must be 2^n");
    pcbp_assert(indexBits >= 2, "gskew banks need at least 4 entries");
}

GSkew::Probe
GSkew::probe(Addr pc, const HistoryRegister &hist) const
{
    const std::uint64_t a = pcFold(pc >> 2);
    const std::uint64_t h = histFold(hist);
    const std::uint64_t mask = maskBits(indexBits);
    const std::uint64_t skew_h = skewH(h, indexBits);
    Probe p;
    p.bim = a;
    // Skewing: two bijections of the two components so that a pair
    // (a, h) colliding in G0 maps elsewhere in G1.
    p.g0 = (skewH(a, indexBits) ^ skewHInv(h, indexBits) ^ h) & mask;
    p.g1 = (skewHInv(a, indexBits) ^ skew_h ^ a) & mask;
    p.meta = (a ^ skew_h) & mask;

    BankView &v = p.view;
    v.bim = bim.taken(p.bim);
    v.g0 = g0.taken(p.g0);
    v.g1 = g1.taken(p.g1);
    const int votes = int(v.bim) + int(v.g0) + int(v.g1);
    v.majority = votes >= 2;
    v.useMajority = meta.taken(p.meta);
    v.final_ = v.useMajority ? v.majority : v.bim;
    return p;
}

GSkew::BankView
GSkew::banks(Addr pc, const HistoryRegister &hist) const
{
    return probe(pc, hist).view;
}

bool
GSkew::predict(Addr pc, const HistoryRegister &hist)
{
    return probe(pc, hist).view.final_;
}

void
GSkew::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    const Probe p = probe(pc, hist);
    const BankView &v = p.view;

    // META learns which side to trust whenever the two sides differ.
    if (v.bim != v.majority)
        meta.update(p.meta, v.majority == taken);

    if (v.final_ == taken) {
        // Partial update: strengthen only the banks that took part in
        // the correct prediction and agreed with the outcome.
        if (v.useMajority) {
            if (v.bim == taken)
                bim.update(p.bim, taken);
            if (v.g0 == taken)
                g0.update(p.g0, taken);
            if (v.g1 == taken)
                g1.update(p.g1, taken);
        } else {
            bim.update(p.bim, taken);
        }
    } else {
        // Mispredict: re-educate all direction banks.
        bim.update(p.bim, taken);
        g0.update(p.g0, taken);
        g1.update(p.g1, taken);
    }
}

void
GSkew::reset()
{
    bim.fill(1);
    g0.fill(1);
    g1.fill(1);
    meta.fill(2);
}

std::size_t
GSkew::sizeBits() const
{
    return (bim.size() + g0.size() + g1.size() + meta.size()) * 2;
}

std::string
GSkew::name() const
{
    return "2Bc-gskew-" + std::to_string(sizeBytes() / 1024) + "KB";
}

} // namespace pcbp
