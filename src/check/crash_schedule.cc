#include "check/crash_schedule.hh"

#include "check/spec.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{

namespace
{

const std::vector<SpecField<CrashStep>> &
stepFields()
{
    static const std::vector<SpecField<CrashStep>> fields = {
        tokenField("kind", &CrashStep::kind, crashPointKindToken,
                   crashPointKindFromToken),
        uintField("countdown", &CrashStep::countdown),
        uintField("recovery_countdown", &CrashStep::recoveryCountdown),
    };
    return fields;
}

std::string
writeSteps(const CrashSchedule &s)
{
    std::string out = "[";
    for (std::size_t i = 0; i < s.steps.size(); ++i)
        out += (i ? ",\n    " : "\n    ") +
               writeSpec(s.steps[i], stepFields(), true);
    return out + (s.steps.empty() ? "]" : "\n  ]");
}

bool
readSteps(const JsonValue &v, CrashSchedule *s, std::string *why)
{
    if (v.kind != JsonValue::Kind::Array)
        return false;
    for (const JsonValue &item : v.items) {
        CrashStep step;
        if (!readSpec(item, stepFields(), &step, why))
            return false;
        s->steps.push_back(step);
    }
    return true;
}

const std::vector<SpecField<CrashSchedule>> &
scheduleFields()
{
    using S = CrashSchedule;
    static const std::vector<SpecField<S>> fields = {
        tokenField("scheme", &S::scheme, schemeToken, schemeFromToken),
        nameField("workload", &S::workload, workloadKnown),
        uintField("seed", &S::seed),
        uintField("num_cores", &S::numCores, 1, kMaxCores),
        uintField("warmup_tx", &S::warmupTx),
        uintField("run_tx", &S::runTx),
        uintField("recover_threads", &S::recoverThreads),
        boolField("torn_writes", &S::tornWrites),
        realField("runtime_fault_prob", &S::runtimeFaultProb),
        boolField("break_commit_fence", &S::breakCommitFence),
        boolField("ordering", &S::ordering),
        {"steps", writeSteps, readSteps},
    };
    return fields;
}

} // namespace

bool
crashPointKindFromToken(const std::string &token, CrashPointKind *out)
{
    for (unsigned k = 0; k < kNumCrashPointKinds; ++k) {
        if (token == crashPointKindToken(static_cast<CrashPointKind>(k))) {
            *out = static_cast<CrashPointKind>(k);
            return true;
        }
    }
    return false;
}

std::string
CrashSchedule::toJson() const
{
    return writeSpec(*this, scheduleFields());
}

bool
CrashSchedule::fromJson(const std::string &text, CrashSchedule *out,
                        std::string *err)
{
    return specFromJson(text, scheduleFields(), out, err);
}

} // namespace hoopnvm
