/**
 * @file
 * McFarling tournament hybrid: two component predictors and a
 * selector table of 2-bit counters that learns, per branch, which
 * component to trust. This is the conventional selection-based
 * hybrid the paper contrasts with prophet/critic operation (both
 * components are accessed in parallel with the same history).
 */

#ifndef PCBP_PREDICTORS_TOURNAMENT_HH
#define PCBP_PREDICTORS_TOURNAMENT_HH

#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class Tournament final : public DirectionPredictor
{
  public:
    /**
     * @param c0 First component (selected when the chooser counter
     *        is low).
     * @param c1 Second component (selected when high).
     * @param chooser_entries Selector table size (2^n).
     */
    Tournament(DirectionPredictorPtr c0, DirectionPredictorPtr c1,
               std::size_t chooser_entries);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    void reset() override;
    std::size_t sizeBits() const override;
    unsigned historyLength() const override;
    std::string name() const override;

  private:
    std::size_t chooseIndex(Addr pc) const;

    DirectionPredictorPtr comp0, comp1;
    std::vector<SatCounter> chooser;
    unsigned chooserIndexBits;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_TOURNAMENT_HH
