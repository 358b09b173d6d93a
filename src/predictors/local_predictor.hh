/**
 * @file
 * Local two-level predictor (PAg style, as in the Alpha 21264 local
 * component): a table of per-branch local histories indexes a shared
 * pattern table of 2-bit counters.
 *
 * Local history is updated at training time (commit), so it needs no
 * checkpoint/repair; this models a retired-local-history design and
 * is documented as such (the paper's components are all global-
 * history predictors, this one is an extension prophet).
 */

#ifndef PCBP_PREDICTORS_LOCAL_PREDICTOR_HH
#define PCBP_PREDICTORS_LOCAL_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class LocalPredictor final : public DirectionPredictor
{
  public:
    /**
     * @param num_histories Local-history table entries (2^n).
     * @param local_bits Bits of local history per branch.
     */
    LocalPredictor(std::size_t num_histories, unsigned local_bits);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    void reset() override;

    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return 0; }
    std::string name() const override;

  private:
    std::size_t histIndex(Addr pc) const;

    std::vector<std::uint32_t> localHist;
    std::vector<SatCounter> pht;
    unsigned localBits;
    unsigned histIndexBits;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_LOCAL_PREDICTOR_HH
