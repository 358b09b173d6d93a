/**
 * @file
 * YAGS predictor (Eden & Mudge): a bimodal choice table provides the
 * default direction; two small tagged caches store only the
 * exceptions (taken-biased branches that are sometimes not taken,
 * and vice versa). Mentioned by the paper as a de-aliased design of
 * the same class as 2Bc-gskew; included as an extension prophet.
 */

#ifndef PCBP_PREDICTORS_YAGS_HH
#define PCBP_PREDICTORS_YAGS_HH

#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class Yags final : public DirectionPredictor
{
  public:
    /**
     * @param choice_entries Bimodal choice-table entries (2^n).
     * @param cache_entries Entries in each direction cache (2^n).
     * @param tag_bits Tag width of the direction caches.
     * @param history_bits History bits hashed into cache indices.
     */
    Yags(std::size_t choice_entries, std::size_t cache_entries,
         unsigned tag_bits, unsigned history_bits);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    void reset() override;

    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return histBits; }
    std::string name() const override;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        SatCounter ctr{2, 1};
    };

    std::size_t cacheIndex(Addr pc, const HistoryRegister &hist) const;
    std::uint16_t tagOf(Addr pc) const;

    std::vector<SatCounter> choice;
    std::vector<Entry> takenCache;    // exceptions when choice says NT
    std::vector<Entry> notTakenCache; // exceptions when choice says T
    unsigned tagBits;
    unsigned histBits;
    unsigned choiceIndexBits;
    unsigned cacheIndexBits;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_YAGS_HH
