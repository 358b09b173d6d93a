/**
 * @file
 * Redundant-history skewed perceptron (Seznec, IRISA TR-1554) — one
 * of the predictors §9 of the paper suggests trying as a prophet or
 * critic. Several small perceptron banks are selected by *different*
 * hashes of the branch address (and, for the skewed banks, of a slice
 * of the history); their outputs are summed. Redundancy de-aliases
 * the weight storage the same way gskew de-aliases counter tables.
 */

#ifndef PCBP_PREDICTORS_SKEWED_PERCEPTRON_HH
#define PCBP_PREDICTORS_SKEWED_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "predictors/predictor.hh"
#include "predictors/simd.hh"

namespace pcbp
{

class SkewedPerceptron final : public DirectionPredictor
{
  public:
    /**
     * @param rows_per_bank Weight rows in each of the 3 banks.
     * @param history_bits History bits (split across banks; each
     *        bank sees the full history but owns a third of the
     *        weight budget).
     */
    SkewedPerceptron(std::size_t rows_per_bank, unsigned history_bits);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    void reset() override;

    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return histBits; }
    std::string name() const override;

    /** Summed dot-product output (prediction = output >= 0). */
    int output(Addr pc, const HistoryRegister &hist) const;

  private:
    std::size_t rowOf(unsigned bank, Addr pc,
                      const HistoryRegister &hist) const;

    static constexpr unsigned numBanks = 3;

    /**
     * Per-bank history weights, one padded row per (bank, row) pair
     * (rowStride bytes, pad weights 0 — see perceptron.hh for the
     * SoA layout this shares).
     */
    std::vector<std::int8_t> weights;
    /** Bias weights, one per (bank, row) pair. */
    std::vector<std::int8_t> biases;
    std::size_t rowsPerBank;
    unsigned histBits;
    std::size_t rowStride;
    int theta;
    simd::DotFn dot;
    simd::TrainFn train;
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_SKEWED_PERCEPTRON_HH
