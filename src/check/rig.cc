#include "check/rig.hh"

#include <algorithm>
#include <utility>

#include "workloads/registry.hh"

namespace hoopnvm
{

CheckRig::CheckRig(const SystemConfig &cfg, Scheme scheme,
                   const std::string &workload, bool tornWrites,
                   std::string label)
    : label_(std::move(label)), sys_(cfg, scheme)
{
    // Fault draws only consult the seed once faults or torn writes
    // exist, so seeding unconditionally changes nothing else.
    sys_.nvm().faults().setSeed(cfg.seed ^ 0x7ea55eedULL);
    if (tornWrites)
        sys_.nvm().faults().setTornWrites(true);

    WorkloadParams params;
    params.valueBytes = 64;
    params.scale = 128;
    auto factory = makeWorkload(workload, params);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        wls_.push_back(factory(sys_, c));
        wls_.back()->setup();
    }
}

void
CheckRig::runRounds(std::uint64_t first, std::uint64_t rounds)
{
    for (std::uint64_t txi = first; txi < first + rounds; ++txi) {
        for (auto &wl : wls_)
            wl->runTransaction(txi);
        sys_.maintenance();
    }
}

void
CheckRig::installRuntimeFaults(double prob, unsigned salt)
{
    // Escalation ramps multiply without bound; a saturated phase just
    // means every free word is faulty.
    prob = std::min(prob, 1.0);
    FaultModel &fm = sys_.nvm().faults();
    std::size_t i = salt;
    for (const auto &range : sys_.controller().freeMediaRanges()) {
        const MediaFaultKind kind = (i & 1)
                                        ? MediaFaultKind::StuckAtOne
                                        : MediaFaultKind::StuckAtZero;
        // Stripe the extent, never more than a handful of fault ranges
        // per extent (classifying a word walks the range list), and
        // lead with the uncorrectable stripe: allocators and the
        // scrubber consume extents front-first, so damage at the front
        // is what short check windows actually reach.
        const Addr len = range.second - range.first;
        const Addr stripe =
            std::max<Addr>(8192, (len / 8 + 7) / 8 * 8);
        unsigned s = 0;
        for (Addr lo = range.first; lo < range.second;
             lo += stripe, ++s) {
            const Addr hi = std::min(range.second, lo + stripe);
            fm.addMediaFault(lo, hi, kind, prob,
                             (s & 1) ? 1 : 3);
        }
        ++i;
    }
    fm.addMediaFault(0, sys_.config().homeBytes, MediaFaultKind::BitFlip,
                     prob * 0.5, 2);
}

void
CheckRig::dropPendingShadows()
{
    for (auto &wl : wls_)
        wl->dropPendingShadow();
}

bool
CheckRig::resolveReject(const TxRejected &rj, unsigned core,
                        unsigned recoverThreads)
{
    if (rj.cause == RejectCause::CapacityDegraded) {
        wls_[core]->dropPendingShadow();
        return false;
    }
    sys_.crash();
    sys_.recover(recoverThreads);
    dropPendingShadows();
    return true;
}

bool
CheckRig::oracle(const std::string &when, std::string *detail)
{
    for (unsigned c = 0; c < numCores(); ++c) {
        Workload &wl = *wls_[c];
        bool ok = wl.verify();
        if (!ok && wl.hasPendingShadow()) {
            wl.applyPendingShadow();
            ok = wl.verify();
        } else {
            wl.dropPendingShadow();
        }
        std::string why;
        if (!ok) {
            why = "committed state lost or phantom data surfaced (" +
                  when + ")";
        } else if (!wl.verifyStructure(&why)) {
            why = "structural invariant broken (" + when + "): " + why;
        } else {
            continue;
        }
        *detail = label_ + " core " + std::to_string(c) + ": " + why;
        return false;
    }
    return true;
}

} // namespace hoopnvm
