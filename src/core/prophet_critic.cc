#include "core/prophet_critic.hh"

#include "common/logging.hh"

namespace pcbp
{

ProphetCriticHybrid::ProphetCriticHybrid(DirectionPredictorPtr prophet_,
                                         FilteredPredictorPtr critic_,
                                         HybridConfig config)
    : prophet(std::move(prophet_)),
      critic(std::move(critic_)),
      cfg(config)
{
    pcbp_assert(prophet != nullptr, "a hybrid needs a prophet");
    pcbp_assert(cfg.numFutureBits <= FutureBits::capacity,
                "future-bit count exceeds the FutureBits capacity");
}

bool
ProphetCriticHybrid::predictBranch(Addr pc, BranchContext &ctx)
{
    ctx.bhrBefore = liveBhr;
    ctx.borBefore = liveBor;
    const bool pred = prophet->predict(pc, liveBhr);
    // Speculative history update (§3.2): the prophet's prediction
    // enters its own BHR and the critic's BOR immediately.
    if (cfg.speculativeHistoryUpdate) {
        liveBhr.shiftIn(pred);
        liveBor.shiftIn(pred);
    }
    return pred;
}

CritiqueDecision
ProphetCriticHybrid::critiqueBranch(Addr pc, const BranchContext &ctx,
                                    bool prophet_pred,
                                    const FutureBits &future_bits)
{
    pcbp_assert(future_bits.size() <= std::max(cfg.numFutureBits, 1u),
                "more future bits than configured");
    pcbp_assert(cfg.numFutureBits == 0 || !future_bits.empty(),
                "the first future bit is the branch's own prediction");

    CritiqueDecision d;

    if (!critic) {
        d.provided = false;
        d.finalPrediction = prophet_pred;
        d.borAtCritique = ctx.borBefore;
        return d;
    }

    // With numFutureBits == 0 the critic operates like a
    // conventional overriding component: same history as the
    // prophet, no future information.
    if (cfg.numFutureBits == 0) {
        d.borAtCritique = ctx.borBefore;
    } else {
        d.borAtCritique = buildCritiqueBor(ctx.borBefore, future_bits);
    }

    const CritiqueResult r = critic->critique(pc, d.borAtCritique);
    d.provided = r.provided;
    d.finalPrediction = r.provided ? r.taken : prophet_pred;
    d.overrode = r.provided && (d.finalPrediction != prophet_pred);
    return d;
}

void
ProphetCriticHybrid::overrideRedirect(const BranchContext &ctx,
                                      bool final_prediction)
{
    if (!cfg.speculativeHistoryUpdate)
        return; // registers were never advanced speculatively
    liveBhr = ctx.bhrBefore;
    liveBor = ctx.borBefore;
    liveBhr.shiftIn(final_prediction);
    liveBor.shiftIn(final_prediction);
}

void
ProphetCriticHybrid::recoverMispredict(const BranchContext &ctx,
                                       bool outcome)
{
    if (!cfg.speculativeHistoryUpdate)
        return;
    if (!cfg.repairHistory) {
        // Ablation: leave the polluted speculative bits in place.
        return;
    }
    // §3.3: restore from the checkpoint and insert the mispredicted
    // branch's correct outcome.
    liveBhr = ctx.bhrBefore;
    liveBor = ctx.borBefore;
    liveBhr.shiftIn(outcome);
    liveBor.shiftIn(outcome);
}

void
ProphetCriticHybrid::commitBranch(
    Addr pc, const BranchContext &ctx,
    const std::optional<CritiqueDecision> &decision, bool outcome)
{
    // Pattern tables update non-speculatively at commit (§3.2), with
    // the same history context used at prediction time.
    prophet->update(pc, ctx.bhrBefore, outcome);

    if (!cfg.speculativeHistoryUpdate) {
        // Retired-history ablation: outcomes enter the registers
        // only now.
        liveBhr.shiftIn(outcome);
        liveBor.shiftIn(outcome);
    }

    if (critic && decision) {
        const bool mispredicted = decision->finalPrediction != outcome;
        // §3.3: train with the BOR value used to generate the
        // critique — it contains the wrong-path future bits when the
        // prophet went down the wrong path.
        critic->train(pc, decision->borAtCritique, outcome, mispredicted);
    }
}

void
ProphetCriticHybrid::reset()
{
    prophet->reset();
    if (critic)
        critic->reset();
    liveBhr.reset();
    liveBor.reset();
}

std::size_t
ProphetCriticHybrid::sizeBits() const
{
    return prophet->sizeBits() + (critic ? critic->sizeBits() : 0);
}

std::string
ProphetCriticHybrid::name() const
{
    if (!critic)
        return prophet->name();
    return prophet->name() + "+" + critic->name() + "@" +
           std::to_string(cfg.numFutureBits) + "fb";
}

void
ProphetCriticHybrid::exportStats(StatRegistry &reg,
                                 const std::string &prefix) const
{
    prophet->exportStats(reg, prefix + ".prophet");
    if (critic)
        critic->exportStats(reg, prefix + ".critic");
}

} // namespace pcbp
