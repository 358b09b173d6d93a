/**
 * @file
 * TAGE predictor (Seznec & Michaud, "A case for (partially) TAgged
 * GEometric history length branch predictors", JILP 2006): a bimodal
 * base predictor backed by several partially-tagged tables indexed
 * with geometrically increasing global history lengths.
 *
 * Prediction comes from the *provider* — the longest-history table
 * whose tag matches — with the next matching table (or the base) as
 * the *alternate*. Each tagged entry carries a signed prediction
 * counter, a tag, and a usefulness counter; allocation on a
 * mispredict claims a not-useful entry in a longer-history table,
 * and the usefulness counters age away periodically so the tables
 * keep adapting across program phases.
 *
 * Each predict()/update() hashes the branch once: the fold plans
 * (common/fold_plan.hh, DESIGN.md §12) are built at construction,
 * lookup() computes every table's index and tag, and update()
 * reuses them for the provider, allocation and decay writes.
 *
 * This is the repro's "modern baseline" prophet ("Branch Prediction
 * Is Not a Solved Problem" measures H2P misses against exactly this
 * class of predictor); it plugs into the factory/budget machinery
 * like every other DirectionPredictor and can serve as the prophet
 * inside the prophet/critic hybrid unchanged.
 */

#ifndef PCBP_PREDICTORS_TAGE_HH
#define PCBP_PREDICTORS_TAGE_HH

#include <vector>

#include "common/fold_plan.hh"
#include "common/sat_counter.hh"
#include "predictors/predictor.hh"

namespace pcbp
{

/** One tagged component table's geometry. */
struct TageTableConfig
{
    std::size_t entries = 1024; //!< power of two
    unsigned tagBits = 8;
    unsigned historyLength = 8; //!< global history bits folded in
};

/** Whole-predictor geometry. */
struct TageConfig
{
    /** Bimodal base table entries (2-bit counters); power of two. */
    std::size_t baseEntries = 4096;

    /** Tagged tables, shortest history first (strictly increasing). */
    std::vector<TageTableConfig> tables;

    /** Width of the tagged-entry prediction counters. */
    unsigned counterBits = 3;

    /** Width of the per-entry usefulness counters. */
    unsigned usefulBits = 2;

    /**
     * Updates between usefulness-aging events; every period the
     * usefulness counters are halved so stale entries become
     * reclaimable. 0 disables aging.
     */
    std::uint64_t usefulResetPeriod = 1u << 18;
};

class Tage final : public DirectionPredictor
{
  public:
    explicit Tage(const TageConfig &config);

    bool predict(Addr pc, const HistoryRegister &hist) override;
    void update(Addr pc, const HistoryRegister &hist, bool taken) override;
    void reset() override;

    std::size_t sizeBits() const override;
    unsigned historyLength() const override { return maxHistory; }
    std::string name() const override;

    /** Geometry plus per-bank provider mix and allocation churn. */
    void exportStats(StatRegistry &reg,
                     const std::string &prefix) const override;

    /** Number of tagged component tables (tests/reporting). */
    std::size_t numTables() const { return tables.size(); }

  private:
    /**
     * One tagged component in structure-of-arrays form (DESIGN.md
     * §12): the lookup walk touches tags only until a match, so a
     * row probe costs a 2-byte load instead of dragging the whole
     * {ctr, tag, useful} struct through the cache.
     *
     * The hashing is planned at construction (common/fold_plan.hh):
     * the history folds to indexBits, tagBits and tagBits - 1, the
     * table's salt pre-folded to indexBits, and which of the shared
     * PC folds (one per distinct width) feeds the index and the tag.
     */
    struct Table
    {
        TageTableConfig cfg;
        unsigned indexBits = 0;
        SatCounterTable ctrs;            //!< prediction counters
        std::vector<std::uint16_t> tags; //!< tagBits <= 16
        SatCounterTable useful;          //!< replacement victim filter

        HistoryFold histIndex, histTag, histTagShort;
        std::uint64_t saltFold = 0; //!< folded historyLength salt
        unsigned pcIndexFold = 0;   //!< slot in pcFolds for indexBits
        unsigned pcTagFold = 0;     //!< slot in pcFolds for tagBits
    };

    /** One table's hashes for the branch being looked up. */
    struct Probe
    {
        std::uint32_t index = 0;
        std::uint16_t tag = 0;
    };

    /** Provider/alternate lookup shared by predict() and update(). */
    struct Match
    {
        int provider = -1;  //!< table index, -1 = base
        int alternate = -1; //!< next-longest hit, -1 = base
        bool providerPred = false;
        bool alternatePred = false;
        bool prediction = false; //!< final (after use-alt-on-weak)
        /** Provider entry looked weakly/newly allocated. */
        bool providerWeak = false;
        std::size_t baseIndex = 0;
    };

    /**
     * Hash every table once into probes, then walk them longest
     * history first. update() reuses the probes for the provider,
     * allocation and decay writes.
     */
    Match lookup(Addr pc, const HistoryRegister &hist);
    void agePeriodically();

    SatCounterTable base;
    std::vector<Table> tables;
    TageConfig cfg;
    FoldPlan baseFold;
    unsigned maxHistory = 0;

    /** Distinct PC fold widths, and the lookup's scratch results. */
    std::vector<FoldPlan> pcPlans;
    std::vector<std::uint64_t> pcFolds;
    std::vector<Probe> probes; //!< per table, filled by lookup()

    /**
     * USE_ALT_ON_NA (Seznec): when newly-allocated provider entries
     * have been less accurate than the alternate lately, trust the
     * alternate for weak providers. Single global 4-bit counter.
     */
    SatCounter useAltOnWeak{4, 8};

    std::uint64_t updates = 0;
    /** Updates left until the next aging; 0 when aging is off. */
    std::uint64_t untilAging = 0;

    /**
     * Update-path bookkeeping (once per commit — cold next to the
     * predict path, so these stay on unconditionally). All pure
     * functions of the call sequence; exported by exportStats().
     */
    std::vector<std::uint64_t> providerCommits; //!< per tagged table
    std::uint64_t baseCommits = 0;   //!< base was the provider
    std::uint64_t altOnWeakUses = 0; //!< weak provider, alt trusted
    std::uint64_t allocations = 0;   //!< new tagged entries claimed
    std::uint64_t allocFailures = 0; //!< every candidate useful: decay
    std::uint64_t agings = 0;        //!< usefulness halving events
};

} // namespace pcbp

#endif // PCBP_PREDICTORS_TAGE_HH
