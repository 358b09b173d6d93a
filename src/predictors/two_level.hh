/**
 * @file
 * GAs-style two-level adaptive predictor (Yeh & Patt): a global
 * history register concatenated with branch-address bits selects a
 * 2-bit counter from the pattern history table.
 */

#ifndef PCBP_PREDICTORS_TWO_LEVEL_HH
#define PCBP_PREDICTORS_TWO_LEVEL_HH

#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class TwoLevel final : public DirectionPredictor
{
  public:
    /**
     * @param addr_bits Branch-address bits in the PHT index.
     * @param history_bits Global-history bits in the PHT index.
     *
     * The PHT has 2^(addr_bits + history_bits) 2-bit counters.
     */
    TwoLevel(unsigned addr_bits, unsigned history_bits);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    void reset() override;

    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return histBits; }
    std::string name() const override;

  private:
    std::size_t index(Addr pc, const HistoryRegister &hist) const;

    std::vector<SatCounter> table;
    unsigned addrBits;
    unsigned histBits;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_TWO_LEVEL_HH
