/**
 * @file
 * Static baselines: always-taken and always-not-taken. Useful as
 * floors in comparisons and as trivial components in tests.
 */

#ifndef PCBP_PREDICTORS_STATIC_PRED_HH
#define PCBP_PREDICTORS_STATIC_PRED_HH

#include "predictors/predictor.hh"

namespace pcbp
{

class StaticPredictor final : public DirectionPredictor
{
  public:
    explicit StaticPredictor(bool predict_taken)
        : predTaken(predict_taken)
    {
    }

    bool predict(Addr, const HistoryRegister &) override
    {
        return predTaken;
    }

    void update(Addr, const HistoryRegister &, bool) override {}
    void reset() override {}


    std::size_t sizeBits() const override { return 0; }
    unsigned historyLength() const override { return 0; }

    std::string
    name() const override
    {
        return predTaken ? "always-taken" : "always-not-taken";
    }

  private:
    bool predTaken;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_STATIC_PRED_HH
