#include "predictors/tage.hh"

#include <algorithm>

#include "common/bit_utils.hh"
#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace pcbp
{

Tage::Tage(const TageConfig &config)
    : cfg(config), baseFold(64, log2Floor(config.baseEntries))
{
    pcbp_assert(isPowerOfTwo(cfg.baseEntries),
                "tage base size must be 2^n");
    pcbp_assert(!cfg.tables.empty(), "tage needs tagged tables");
    pcbp_assert(cfg.counterBits >= 2 && cfg.usefulBits >= 1);

    base = SatCounterTable(cfg.baseEntries, 2, 1);

    // One PC fold per distinct width, shared by every table that
    // indexes or tags at that width.
    std::vector<unsigned> pc_widths;
    auto pcFoldSlot = [&](unsigned bits) {
        const auto it =
            std::find(pc_widths.begin(), pc_widths.end(), bits);
        if (it != pc_widths.end())
            return unsigned(it - pc_widths.begin());
        pc_widths.push_back(bits);
        pcPlans.emplace_back(64, bits);
        return unsigned(pc_widths.size() - 1);
    };

    unsigned prev_hist = 0;
    for (const TageTableConfig &tc : cfg.tables) {
        pcbp_assert(isPowerOfTwo(tc.entries),
                    "tage table size must be 2^n");
        pcbp_assert(tc.historyLength > prev_hist,
                    "tage histories must strictly increase");
        pcbp_assert(tc.historyLength <= HistoryRegister::capacity);
        pcbp_assert(tc.tagBits >= 4 && tc.tagBits <= 16);
        prev_hist = tc.historyLength;

        Table t;
        t.cfg = tc;
        t.indexBits = log2Floor(tc.entries);
        t.ctrs = SatCounterTable(tc.entries, cfg.counterBits,
                                 (1u << (cfg.counterBits - 1)) - 1);
        t.tags.assign(tc.entries, 0);
        t.useful = SatCounterTable(tc.entries, cfg.usefulBits, 0);

        // Index: fold(mix ^ salt) ^ fold(hist) at indexBits; the
        // salt mixes the history length in to decorrelate banks.
        // Tag: two different-width folds of the same history
        // decorrelate it from the index (Seznec's CSR1/CSR2 pair).
        const unsigned n = tc.historyLength;
        t.histIndex = HistoryFold(n, t.indexBits);
        t.histTag = HistoryFold(n, tc.tagBits);
        t.histTagShort = HistoryFold(n, tc.tagBits - 1);
        t.saltFold = foldBits(n * 0x9e3779b9ull, t.indexBits);
        t.pcIndexFold = pcFoldSlot(t.indexBits);
        t.pcTagFold = pcFoldSlot(tc.tagBits);
        tables.push_back(std::move(t));
    }
    maxHistory = cfg.tables.back().historyLength;
    pcFolds.assign(pcPlans.size(), 0);
    probes.assign(tables.size(), Probe{});
    providerCommits.assign(tables.size(), 0);
    untilAging = cfg.usefulResetPeriod;
}

Tage::Match
Tage::lookup(Addr pc, const HistoryRegister &hist)
{
    const std::uint64_t mixed = mix64(pc >> 2);
    for (std::size_t j = 0; j < pcPlans.size(); ++j)
        pcFolds[j] = pcPlans[j](mixed);
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const Table &t = tables[i];
        probes[i].index = static_cast<std::uint32_t>(
            pcFolds[t.pcIndexFold] ^ t.saltFold ^ t.histIndex(hist));
        probes[i].tag = static_cast<std::uint16_t>(
            pcFolds[t.pcTagFold] ^ t.histTag(hist) ^
            (t.histTagShort(hist) << 1));
    }

    Match m;
    m.baseIndex = baseFold(pc >> 2);
    m.alternatePred = base.taken(m.baseIndex);
    m.providerPred = m.alternatePred;
    for (int i = int(tables.size()) - 1; i >= 0; --i) {
        const Table &t = tables[i];
        const Probe &p = probes[i];
        if (t.tags[p.index] != p.tag)
            continue;
        if (m.provider < 0) {
            m.provider = i;
            m.providerPred = t.ctrs.taken(p.index);
            // "Newly allocated" signature: weak counter, no proven
            // usefulness yet.
            const unsigned mid = t.ctrs.maxValue() / 2;
            const unsigned v = t.ctrs.value(p.index);
            m.providerWeak = t.useful.value(p.index) == 0 &&
                             (v == mid || v == mid + 1);
        } else {
            m.alternate = i;
            m.alternatePred = t.ctrs.taken(p.index);
            break;
        }
    }
    m.prediction = (m.provider >= 0 && m.providerWeak &&
                    useAltOnWeak.taken())
                       ? m.alternatePred
                       : m.providerPred;
    return m;
}

bool
Tage::predict(Addr pc, const HistoryRegister &hist)
{
    return lookup(pc, hist).prediction;
}

void
Tage::update(Addr pc, const HistoryRegister &hist, bool taken)
{
    const Match m = lookup(pc, hist);

    if (m.provider >= 0)
        ++providerCommits[std::size_t(m.provider)];
    else
        ++baseCommits;
    if (m.provider >= 0 && m.providerWeak && useAltOnWeak.taken())
        ++altOnWeakUses;

    if (m.provider >= 0) {
        Table &t = tables[m.provider];
        const std::size_t idx = probes[m.provider].index;

        // Track whether the alternate would have done better on weak
        // providers (drives the use-alt-on-weak policy).
        if (m.providerWeak && m.providerPred != m.alternatePred)
            useAltOnWeak.update(m.alternatePred == taken);

        // Usefulness rewards the provider only where it beats the
        // alternate; a provider the alternate matches is replaceable.
        if (m.providerPred != m.alternatePred)
            t.useful.update(idx, m.providerPred == taken);

        t.ctrs.update(idx, taken);

        // The base keeps learning when it was (or backs) the
        // alternate, so freshly allocated entries fall back well.
        if (m.alternate < 0)
            base.update(m.baseIndex, taken);
    } else {
        base.update(m.baseIndex, taken);
    }

    // Allocate into a longer-history table when the final prediction
    // missed: first not-useful entry wins; if every candidate is
    // useful, decay them all so the next miss can allocate (Seznec).
    if (m.prediction != taken &&
        m.provider + 1 < int(tables.size())) {
        bool allocated = false;
        for (std::size_t i = std::size_t(m.provider + 1);
             i < tables.size(); ++i) {
            Table &t = tables[i];
            const Probe &p = probes[i];
            if (t.useful.value(p.index) != 0)
                continue;
            t.tags[p.index] = p.tag;
            t.ctrs.setWeak(p.index, taken);
            t.useful.set(p.index, 0);
            allocated = true;
            break;
        }
        if (allocated) {
            ++allocations;
        } else {
            ++allocFailures;
            for (std::size_t i = std::size_t(m.provider + 1);
                 i < tables.size(); ++i) {
                tables[i].useful.decrement(probes[i].index);
            }
        }
    }

    ++updates;
    agePeriodically();
}

void
Tage::agePeriodically()
{
    // Counting down spares a division per update; untilAging stays 0
    // (never fires) when aging is off.
    if (untilAging == 0 || --untilAging != 0)
        return;
    untilAging = cfg.usefulResetPeriod;
    ++agings;
    for (Table &t : tables)
        for (std::size_t i = 0; i < t.useful.size(); ++i)
            t.useful.set(i, t.useful.value(i) >> 1);
}

void
Tage::reset()
{
    base.fill(1);
    for (Table &t : tables) {
        t.ctrs.fill((1u << (cfg.counterBits - 1)) - 1);
        std::fill(t.tags.begin(), t.tags.end(), 0);
        t.useful.fill(0);
    }
    useAltOnWeak.set(8);
    updates = 0;
    untilAging = cfg.usefulResetPeriod;
    providerCommits.assign(tables.size(), 0);
    baseCommits = 0;
    altOnWeakUses = 0;
    allocations = 0;
    allocFailures = 0;
    agings = 0;
}

std::size_t
Tage::sizeBits() const
{
    std::size_t bits = base.size() * 2;
    for (const Table &t : tables)
        bits += t.tags.size() *
                (cfg.counterBits + cfg.usefulBits + t.cfg.tagBits);
    return bits;
}

std::string
Tage::name() const
{
    return "tage" + std::to_string(tables.size()) + "-" +
           std::to_string(sizeBytes() / 1024) + "KB";
}

void
Tage::exportStats(StatRegistry &reg, const std::string &prefix) const
{
    DirectionPredictor::exportStats(reg, prefix);
    reg.add(prefix + ".updates", updates);
    reg.add(prefix + ".base_commits", baseCommits);
    reg.add(prefix + ".alt_on_weak_uses", altOnWeakUses);
    reg.add(prefix + ".allocations", allocations);
    reg.add(prefix + ".alloc_failures", allocFailures);
    reg.add(prefix + ".agings", agings);
    for (std::size_t i = 0; i < tables.size(); ++i) {
        reg.add(prefix + ".bank" + std::to_string(i) +
                    ".provider_commits",
                providerCommits[i]);
    }
}

} // namespace pcbp
