#include "check/soak.hh"

#include <algorithm>

#include "analysis/order_harness.hh"
#include "check/spec.hh"
#include "common/errors.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{

namespace
{

const std::vector<SpecField<SoakSpec>> &
soakFields()
{
    using S = SoakSpec;
    static const std::vector<SpecField<S>> fields = {
        tokenField("scheme", &S::scheme, schemeToken, schemeFromToken),
        nameField("workload", &S::workload, workloadKnown),
        uintField("seed", &S::seed),
        uintField("num_cores", &S::numCores, 1, kMaxCores),
        uintField("warmup_tx", &S::warmupTx),
        uintField("phases", &S::phases),
        uintField("tx_per_phase", &S::txPerPhase),
        realField("fault_prob", &S::faultProb),
        realField("escalation", &S::escalation),
        uintField("recover_threads", &S::recoverThreads),
    };
    return fields;
}

/** Shrink candidates of @p s, in the order shrinkSoak() tries them. */
std::vector<SoakSpec>
shrinkCandidates(const SoakSpec &s)
{
    std::vector<SoakSpec> out;
    if (s.phases > 1) {
        SoakSpec cand = s;
        cand.phases = std::max(1u, s.phases / 2);
        // Dropping early phases changes which faults exist; keep the
        // ramp's tail by raising the base probability to where the
        // removed phases would have escalated it.
        for (unsigned p = cand.phases; p < s.phases; ++p)
            cand.faultProb *= cand.escalation;
        out.push_back(cand);
    }
    if (s.txPerPhase > 1) {
        out.push_back(s);
        out.back().txPerPhase /= 2;
    }
    if (s.warmupTx > 0) {
        out.push_back(s);
        out.back().warmupTx /= 2;
    }
    return out;
}

} // namespace

std::string
SoakSpec::toJson() const
{
    return writeSpec(*this, soakFields());
}

bool
SoakSpec::fromJson(const std::string &text, SoakSpec *out,
                   std::string *err)
{
    return specFromJson(text, soakFields(), out, err);
}

SoakResult
runSoak(const SoakSpec &spec, const Progress &progress)
{
    SoakResult res;

    SystemConfig cfg = smallCheckConfig(spec.numCores, spec.seed);
    cfg.ft.enabled = true;
    const std::string cell =
        std::string(schemeToken(spec.scheme)) + "/" + spec.workload;
    CheckRig rig(cfg, spec.scheme, spec.workload, false, cell);
    System &sys = rig.sys();

    // Runtime faults never touch occupied cells, so committed data must
    // always survive.
    auto oracle = [&](const std::string &when) {
        res.violated = !rig.oracle(when, &res.detail);
        return !res.violated;
    };

    auto sampleGauges = [&]() {
        const ControllerGauges g = sys.controller().sampleGauges();
        res.retiredUnits = g.retiredUnits;
        res.correctedWords = g.correctedWords;
        res.degradedFraction = g.degradedFraction;
        res.readRetries = sys.nvm().readRetries();
        res.uncorrectableReads = sys.nvm().uncorrectableReads();
    };

    rig.driver().runRounds(spec.warmupTx);

    double prob = spec.faultProb;
    for (unsigned phase = 0; phase < spec.phases;
         ++phase, prob *= spec.escalation) {
        if (progress)
            progress(cell + " phase " + std::to_string(phase) +
                     "/" + std::to_string(spec.phases));

        SoakPhaseStats ph;
        ph.faultProb = prob;
        rig.installRuntimeFaults(prob, phase);
        // Admission rejects skip the transaction; a mid-transaction
        // unwind crashes and recovers onto the survivor state, which
        // must still hold every commit.
        rig.driver().runRounds(
            spec.txPerPhase, [&](unsigned c, const TxRejected *rj) {
                if (!rj)
                    return true;
                if (!rig.resolveReject(*rj, c, spec.recoverThreads)) {
                    ++ph.rejectedAdmission;
                    return true;
                }
                ++ph.rejectedMidTx;
                ++ph.recoveries;
                return oracle("after mid-transaction unwind recovery");
            });

        res.rejectedAdmission += ph.rejectedAdmission;
        res.rejectedMidTx += ph.rejectedMidTx;
        res.recoveries += ph.recoveries;
        res.phases.push_back(ph);

        if (res.violated ||
            !oracle("end of phase " + std::to_string(phase))) {
            sampleGauges();
            return res;
        }
    }

    // Final endurance check: power-cycle on the fully accumulated
    // damage and make sure recovery (retired units skipped, retirement
    // bitmap reloaded) still restores every committed transaction.
    sys.crash();
    sys.recover(spec.recoverThreads);
    ++res.recoveries;
    rig.dropPendingShadows();
    oracle("after final crash + recovery");
    sampleGauges();
    return res;
}

SoakSpec
shrinkSoak(const SoakSpec &failing, std::string *detail,
           const Progress &progress)
{
    auto violates = [&progress](const SoakSpec &cand, std::string *d) {
        const SoakResult r = runSoak(cand, progress);
        *d = r.detail;
        return r.violated;
    };
    return shrinkSpec(failing, 32, shrinkCandidates, violates, detail);
}

} // namespace hoopnvm
