/**
 * @file
 * 2Bc-gskew predictor (Seznec & Michaud), the de-aliased hybrid used
 * by the Compaq Alpha EV8. Four banks of 2-bit counters:
 *
 * - BIM: a bimodal bank indexed by branch address;
 * - G0, G1: gshare-like banks indexed by skewed hashes of
 *   (address, global history);
 * - META: a meta-predictor bank choosing between BIM and the
 *   majority vote of {BIM, G0, G1} (the e-gskew prediction).
 *
 * The partial update policy follows the original: on a correct
 * prediction only the participating, agreeing banks are
 * strengthened; on a mispredict all direction banks are re-educated;
 * META is updated whenever BIM and the majority vote disagree.
 *
 * Each predict()/update() folds the address and the history once,
 * through fold plans built at construction (common/fold_plan.hh),
 * and derives all four bank indices from the two folds; the banks
 * are one-byte SatCounterTables (DESIGN.md §12).
 */

#ifndef PCBP_PREDICTORS_GSKEW_HH
#define PCBP_PREDICTORS_GSKEW_HH

#include "common/fold_plan.hh"
#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

class GSkew final : public DirectionPredictor
{
  public:
    /**
     * @param entries_per_bank Entries in each of the 4 banks
     *        (power of two).
     * @param history_bits Global-history bits hashed into G0/G1/META.
     */
    GSkew(std::size_t entries_per_bank, unsigned history_bits);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    void reset() override;

    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return histBits; }
    std::string name() const override;

    /** Per-bank predictions, exposed for tests. */
    struct BankView
    {
        bool bim, g0, g1, majority, useMajority, final_;
    };
    BankView banks(Addr pc, const HistoryRegister &hist) const;

  private:
    /** The four bank indices of one branch, and what they read. */
    struct Probe
    {
        std::size_t bim, g0, g1, meta;
        BankView view;
    };
    Probe probe(Addr pc, const HistoryRegister &hist) const;

    SatCounterTable bim, g0, g1, meta;
    unsigned histBits;
    unsigned indexBits;
    FoldPlan pcFold;      //!< address to indexBits
    HistoryFold histFold; //!< histBits of history to indexBits
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_GSKEW_HH
