#include "check/rig.hh"

#include <algorithm>
#include <utility>

namespace hoopnvm
{

CheckRig::CheckRig(const SystemConfig &cfg, Scheme scheme,
                   const std::string &workload, bool tornWrites,
                   std::string label)
    : label_(std::move(label)), sys_(cfg, scheme),
      driver_(sys_, makeWorkload(workload, {.valueBytes = 64,
                                            .scale = 128}))
{
    // Fault draws only consult the seed once faults or torn writes
    // exist, so seeding unconditionally changes nothing else. The
    // workloads' setup() only pokes, which draws nothing, so seeding
    // after it changes nothing either.
    sys_.nvm().faults().setSeed(cfg.seed ^ 0x7ea55eedULL);
    if (tornWrites)
        sys_.nvm().faults().setTornWrites(true);
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
    for (unsigned c = 0; c < driver_.numCores(); ++c)
        driver_.wl(c).dropPendingShadow();
}

bool
CheckRig::resolveReject(const TxRejected &rj, unsigned core,
                        unsigned recoverThreads)
{
    if (rj.cause == RejectCause::CapacityDegraded) {
        driver_.wl(core).dropPendingShadow();
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
    for (unsigned c = 0; c < driver_.numCores(); ++c) {
        Workload &wl = driver_.wl(c);
        bool same = wl.verify();
        if (!same && wl.hasPendingShadow()) {
            wl.applyPendingShadow();
            same = wl.verify();
        } else {
            wl.dropPendingShadow();
        }
        if (!finishCore(c, same, when, detail))
            return false;
    }
    return true;
}

CheckRig::Verdict
CheckRig::judge(System &image, unsigned *core, const std::string &when,
                std::string *detail)
{
    for (unsigned c = *core; c < driver_.numCores(); ++c) {
        Workload &wl = driver_.wl(c);
        wl.rebind(image);
        const bool same = wl.verify();
        const bool pending = !same && wl.hasPendingShadow();
        const bool ok = pending || finishCore(c, same, when, detail);
        wl.rebind(sys_);
        if (pending) {
            *core = c;
            return Verdict::Pending;
        }
        if (!ok)
            return Verdict::Fail;
    }
    return Verdict::Pass;
}

bool
CheckRig::finishCore(unsigned c, bool same, const std::string &when,
                     std::string *detail)
{
    std::string why;
    if (!same) {
        why = "committed state lost or phantom data surfaced (" + when +
              ")";
    } else if (!driver_.wl(c).verifyStructure(&why)) {
        why = "structural invariant broken (" + when + "): " + why;
    } else {
        return true;
    }
    *detail = label_ + " core " + std::to_string(c) + ": " + why;
    return false;
}

} // namespace hoopnvm
