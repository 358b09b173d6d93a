/**
 * @file
 * Fusion hybrid (Loh & Henry, PACT'02) — the related-work design §2
 * of the paper contrasts with selection hybrids and with
 * prophet/critic operation. Instead of *picking* one component, the
 * fusion table maps the vector of all component predictions (plus
 * address bits) to a final prediction, so every component contributes
 * to every prediction.
 */

#ifndef PCBP_PREDICTORS_FUSION_HH
#define PCBP_PREDICTORS_FUSION_HH

#include <vector>

#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class FusionHybrid final : public DirectionPredictor
{
  public:
    /**
     * @param components Component predictors (2-4).
     * @param fusion_entries Fusion-table entries (power of two; each
     *        entry is a 2-bit counter indexed by component
     *        predictions + address bits).
     */
    FusionHybrid(std::vector<DirectionPredictorPtr> components,
                 std::size_t fusion_entries);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    void reset() override;
    std::size_t sizeBits() const override;
    unsigned historyLength() const override;
    std::string name() const override;

  private:
    std::size_t fusionIndex(Addr pc, unsigned pred_vector) const;
    unsigned predVector(Addr pc, const HistoryRegister &hist);

    std::vector<DirectionPredictorPtr> comps;
    std::vector<SatCounter> fusion;
    unsigned indexBits;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_FUSION_HH
