#include "fleet/fleet.hh"

#include <algorithm>
#include <memory>

#include "check/spec.hh"
#include "common/rng.hh"
#include "fleet/arrivals.hh"
#include "fleet/chaos.hh"
#include "fleet/client_policy.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{
namespace
{

/** Stateless 64-bit finalizer (splitmix64) for tenant routing. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Summarize a tick-valued histogram into nanosecond quantiles. */
LatencySummary
summarizeLatency(const Histogram &h)
{
    LatencySummary s;
    s.count = h.count();
    if (s.count == 0)
        return s;
    const double k = static_cast<double>(kTicksPerNs);
    s.p50Ns = h.quantile(0.5) / k;
    s.p95Ns = h.quantile(0.95) / k;
    s.p99Ns = h.quantile(0.99) / k;
    s.p999Ns = h.quantile(0.999) / k;
    s.maxNs = static_cast<double>(h.max()) / k;
    s.meanNs = h.mean() / k;
    return s;
}

const std::vector<SpecField<FleetSpec>> &
fleetFields()
{
    using S = FleetSpec;
    static const std::vector<SpecField<S>> fields = {
        tokenField("scheme", &S::scheme, schemeToken, schemeFromToken),
        nameField("workload", &S::workload, workloadKnown),
        nameField("chaos_profile", &S::chaosProfile, chaosProfileKnown),
        uintField("seed", &S::seed),
        uintField("shards", &S::shards),
        uintField("cores_per_shard", &S::coresPerShard, 1, kMaxCores),
        uintField("requests", &S::requests),
        uintField("warmup_tx", &S::warmupTx),
        uintField("recover_threads", &S::recoverThreads),
        uintField("max_attempts", &S::maxAttempts),
        realField("backoff_base_ns", &S::backoffBaseNs),
        realField("deadline_ns", &S::deadlineNs),
        realField("mean_interarrival_ns", &S::meanInterarrivalNs),
        realField("think_ns", &S::thinkNs),
        uintField("tenants", &S::tenants),
        realField("tenant_theta", &S::tenantTheta, 1.0),
        uintField("connections", &S::connections),
        realField("churn_prob", &S::churnProb, 1.0),
        uintField("chaos_events_per_shard", &S::chaosEventsPerShard),
        realField("fault_prob", &S::faultProb),
        boolField("inject_ack_before_durable",
                  &S::injectAckBeforeDurable),
    };
    return fields;
}

/** Shrink candidates of @p s, in the order shrinkFleet() tries them. */
std::vector<FleetSpec>
shrinkCandidates(const FleetSpec &s)
{
    std::vector<FleetSpec> out;
    if (s.requests > 16) {
        out.push_back(s);
        out.back().requests = std::max<std::uint64_t>(16, s.requests / 2);
    }
    if (s.shards > 1) {
        out.push_back(s);
        out.back().shards /= 2;
    }
    if (s.chaosEventsPerShard > 0) {
        out.push_back(s);
        out.back().chaosEventsPerShard /= 2;
    }
    if (s.warmupTx > 0) {
        out.push_back(s);
        out.back().warmupTx /= 2;
    }
    return out;
}

} // namespace

std::string
FleetSpec::toJson() const
{
    return writeSpec(*this, fleetFields());
}

bool
FleetSpec::fromJson(const std::string &text, FleetSpec *out,
                    std::string *err)
{
    return specFromJson(text, fleetFields(), out, err);
}

FleetResult
runFleet(const FleetSpec &spec, const Progress &progress)
{
    FleetResult res;
    res.requests = spec.requests;
    if (spec.shards == 0 || spec.coresPerShard == 0)
        return res;

    // ---- Build the shard fleet (each its own System + workloads) ----
    std::vector<std::unique_ptr<FleetShard>> shards;
    for (unsigned s = 0; s < spec.shards; ++s) {
        ShardConfig sc;
        sc.scheme = spec.scheme;
        sc.workload = spec.workload;
        sc.numCores = spec.coresPerShard;
        // Distinct per-shard seeds: sibling shards must not be clones
        // of each other, or a data-dependent bug fires in lockstep.
        sc.seed = spec.seed + 0x100003ULL * (s + 1);
        sc.recoverThreads = spec.recoverThreads;
        sc.warmupTx = spec.warmupTx;
        sc.injectAckBeforeDurable =
            spec.injectAckBeforeDurable && s == 0;
        shards.push_back(std::make_unique<FleetShard>(s, sc));
        shards.back()->warmup();
    }

    // ---- Generate the open-loop arrival schedule ----
    ArrivalConfig ac;
    ac.seed = spec.seed ^ 0xa55a5aa5ULL;
    ac.meanInterarrival =
        std::max<Tick>(1, nsToTicks(spec.meanInterarrivalNs));
    ac.thinkTicks = nsToTicks(spec.thinkNs);
    ac.tenants = std::max(1u, spec.tenants);
    ac.tenantTheta = spec.tenantTheta;
    ac.connections = std::max(1u, spec.connections);
    ac.churnProb = spec.churnProb;
    ArrivalGenerator gen(ac);
    std::vector<Arrival> arrivals;
    arrivals.reserve(spec.requests);
    for (std::uint64_t i = 0; i < spec.requests; ++i)
        arrivals.push_back(gen.next());
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival &a, const Arrival &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  return a.seq < b.seq;
              });

    // ---- Expand the chaos schedule over the traffic horizon ----
    const Tick horizon =
        arrivals.empty() ? 0 : arrivals.back().at + 1;
    ChaosTuning tuning;
    tuning.eventsPerShard = spec.chaosEventsPerShard;
    tuning.faultProb = spec.faultProb;
    std::vector<ChaosEvent> chaos = expandChaosProfile(
        spec.chaosProfile, spec.shards, horizon, spec.seed, tuning);
    if (spec.injectAckBeforeDurable) {
        // The self-test needs crashes on the buggy shard to expose the
        // non-durable ack. Force several across the traffic window —
        // whether a specific crash tears the undurable commit record
        // depends on what was in flight, so one shot is not enough.
        for (unsigned k = 1; k <= 3; ++k) {
            ChaosEvent ev;
            ev.at = horizon * k / 4;
            ev.shard = 0;
            ev.kind = ChaosKind::Crash;
            ev.salt = 10'000 + k;
            chaos.push_back(ev);
        }
        std::sort(chaos.begin(), chaos.end(),
                  [](const ChaosEvent &a, const ChaosEvent &b) {
                      if (a.at != b.at)
                          return a.at < b.at;
                      if (a.shard != b.shard)
                          return a.shard < b.shard;
                      return a.salt < b.salt;
                  });
    }

    // ---- Client state ----
    RetryPolicy policy;
    policy.maxAttempts = std::max(1u, spec.maxAttempts);
    policy.backoffBase = std::max<Tick>(1, nsToTicks(spec.backoffBaseNs));
    policy.deadlineTicks = nsToTicks(spec.deadlineNs);
    Rng retryRng(spec.seed ^ 0xb0ffb0ffULL);

    // Per-shard, per-core backlog horizon in fleet ticks: the earliest
    // tick a new request on that core could start. Decoupled from the
    // Systems' internal clocks — a System advances core time only when
    // it actually serves.
    std::vector<std::vector<Tick>> busyUntil(
        spec.shards, std::vector<Tick>(spec.coresPerShard, 0));

    // Cumulative client-activity gauges per shard, fed into each
    // shard's controller so its epoch sampler captures the
    // degradation timeline alongside the capacity gauges.
    std::vector<ClientActivity> act(spec.shards);

    std::size_t chaosIdx = 0;
    std::uint64_t seq = 0;

    // Apply chaos events the fleet clock has passed. Events land
    // between requests (a documented approximation — the schedule
    // stays deterministic and every event still fires mid-traffic).
    auto applyChaosUpTo = [&](Tick now) {
        while (chaosIdx < chaos.size() && chaos[chaosIdx].at <= now) {
            const ChaosEvent &ev = chaos[chaosIdx++];
            FleetShard &sh = *shards[ev.shard];
            switch (ev.kind) {
              case ChaosKind::Crash:
                if (!sh.chaosCrash(ev.at, &res.detail))
                    res.violated = true;
                // The crash wiped the queue's context; nothing can
                // start before the recovery completes.
                for (Tick &b : busyUntil[ev.shard])
                    b = std::max(b, sh.unavailableUntil());
                break;
              case ChaosKind::Stall:
                sh.chaosStall(ev.at, ev.durationTicks);
                break;
              case ChaosKind::FaultRamp:
                sh.chaosFaultRamp(ev.faultProb, ev.salt);
                break;
            }
            if (progress)
                progress("chaos " +
                         std::string(chaosKindName(ev.kind)) +
                         " shard " + std::to_string(ev.shard) + " @" +
                         std::to_string(ev.at));
            if (res.violated)
                return;
        }
    };

    // ---- Dispatch loop ----
    const std::uint64_t tenth =
        std::max<std::uint64_t>(1, arrivals.size() / 10);
    for (std::size_t i = 0; i < arrivals.size() && !res.violated;
         ++i) {
        const Arrival &a = arrivals[i];
        if (progress && i % tenth == 0)
            progress("request " + std::to_string(i) + "/" +
                     std::to_string(arrivals.size()));
        applyChaosUpTo(a.at);
        if (res.violated)
            break;

        const unsigned s =
            static_cast<unsigned>(mix64(a.tenant) % spec.shards);
        const CoreId core = static_cast<CoreId>(
            mix64(a.tenant ^ 0x9e3779b97f4a7c15ULL) %
            spec.coresPerShard);
        FleetShard &sh = *shards[s];

        Tick t = a.at;
        unsigned attempts = 0;
        ClientOutcome outcome = ClientOutcome::Rejected;

        auto backoffOrGiveUp = [&](Tick floorTick,
                                   ClientOutcome onExhaust) {
            ++attempts;
            if (attempts >= policy.maxAttempts) {
                outcome = onExhaust;
                return false;
            }
            const Tick b =
                retryBackoffTicks(policy, attempts - 1, retryRng);
            ++act[s].retryAttempts;
            act[s].backoffTicks += b;
            t = std::max(floorTick, t + b);
            return true;
        };

        for (;;) {
            if (pastDeadline(policy, a.at, t)) {
                outcome = ClientOutcome::TxTimeout;
                ++act[s].deadlineMisses;
                break;
            }
            if (!sh.availableAt(t)) {
                if (!backoffOrGiveUp(sh.unavailableUntil(),
                                     ClientOutcome::Rejected))
                    break;
                continue;
            }
            const Tick start = std::max(
                {t, busyUntil[s][core], sh.unavailableUntil()});
            if (!sh.admit(start - t)) {
                ++act[s].shedAdmissions;
                if (!backoffOrGiveUp(t, ClientOutcome::Shed))
                    break;
                continue;
            }

            // Feed the cumulative client gauges in before serving so
            // the shard's next epoch sample reflects them.
            sh.noteClientActivity(act[s]);
            const ServeResult sr = sh.serve(core, seq++, &res.detail);
            if (!res.detail.empty()) {
                res.violated = true;
                break;
            }
            const Tick done = start + sr.serviceTicks;
            busyUntil[s][core] = done;

            if (sr.status == ServeStatus::Acked) {
                sh.recordLatency(done - a.at);
                if (pastDeadline(policy, a.at, done)) {
                    // The commit is durable and acked — late, not
                    // lost. Count the miss; the outcome stays Acked.
                    ++act[s].deadlineMisses;
                }
                outcome = ClientOutcome::Acked;
                break;
            }
            if (sr.status == ServeStatus::RejectedMidTx) {
                // The unwind crash+recovered the shard: unavailable
                // until recovery completes, then the client retries.
                sh.beginUnavailability(done, sr.recoveryTicks);
                for (Tick &b : busyUntil[s])
                    b = std::max(b, sh.unavailableUntil());
                if (!backoffOrGiveUp(sh.unavailableUntil(),
                                     ClientOutcome::Rejected))
                    break;
                continue;
            }
            // Admission-time TxRejected (capacity degraded).
            if (!backoffOrGiveUp(done, ClientOutcome::Rejected))
                break;
        }

        if (res.violated)
            break;
        switch (outcome) {
          case ClientOutcome::Acked:
            ++res.acked;
            break;
          case ClientOutcome::Rejected:
            ++res.rejected;
            break;
          case ClientOutcome::TxTimeout:
            ++res.timedOut;
            break;
          case ClientOutcome::Shed:
            ++res.shed;
            break;
        }
    }

    // ---- Drain + probe phase ----
    if (!res.violated) {
        if (progress)
            progress("drain + probe");
        // Fire any chaos events still pending, then let every queue
        // and unavailability window drain.
        applyChaosUpTo(kNeverTick - 1);
    }
    if (!res.violated) {
        for (unsigned s = 0; s < spec.shards; ++s) {
            FleetShard &sh = *shards[s];
            // A drained shard sees zero backlog; the hysteresis gate
            // must re-open no matter how degraded the shard got.
            sh.admit(0);
            if (!sh.admitting()) {
                res.violated = true;
                res.detail = "shard " + std::to_string(s) +
                             " not re-admitted after drain";
                break;
            }
            // Probe: every core serves one more transaction, proving
            // the shard is live after all its recoveries.
            for (CoreId c = 0; c < spec.coresPerShard && !res.violated;
                 ++c) {
                const ServeResult sr = sh.serve(c, seq++, &res.detail);
                if (!res.detail.empty()) {
                    res.violated = true;
                    break;
                }
                if (sr.status == ServeStatus::RejectedMidTx) {
                    res.violated = true;
                    res.detail = "shard " + std::to_string(s) +
                                 " probe transaction unwound after "
                                 "drain";
                    break;
                }
            }
            if (res.violated)
                break;
            if (!sh.oracle("end of run", &res.detail)) {
                res.violated = true;
                break;
            }
        }
    }

    // ---- Reports (always emitted, also for violating runs) ----
    Histogram fleetH;
    for (unsigned s = 0; s < spec.shards; ++s) {
        FleetShard &sh = *shards[s];
        sh.noteClientActivity(act[s]);
        FleetShardReport rep;
        rep.shard = s;
        rep.counters = sh.counters();
        rep.retryAttempts = act[s].retryAttempts;
        rep.backoffTicks = act[s].backoffTicks;
        rep.deadlineMisses = act[s].deadlineMisses;
        rep.shedAdmissions = act[s].shedAdmissions;
        rep.admittingAtEnd = sh.admitting();
        const ControllerGauges g = sh.system().controller().gauges();
        rep.retiredUnits = g.retiredUnits;
        rep.degradedFraction = g.degradedFraction;
        rep.latency = summarizeLatency(sh.latency());
        fleetH.merge(sh.latency());

        res.retryAttempts += rep.retryAttempts;
        res.backoffTicks += rep.backoffTicks;
        res.deadlineMisses += rep.deadlineMisses;
        res.shedAdmissions += rep.shedAdmissions;
        res.recoveries += rep.counters.recoveries;
        res.chaosCrashes += rep.counters.chaosCrashes;
        res.stallWindows += rep.counters.stallWindows;
        res.faultRamps += rep.counters.faultRamps;
        res.shards.push_back(rep);
    }
    res.latency = summarizeLatency(fleetH);
    return res;
}

FleetSpec
shrinkFleet(const FleetSpec &failing, std::string *detail,
            const Progress &progress)
{
    auto violates = [&progress](const FleetSpec &cand, std::string *d) {
        const FleetResult r = runFleet(cand, progress);
        *d = r.detail;
        return r.violated;
    };
    return shrinkSpec(failing, 24, shrinkCandidates, violates, detail);
}

} // namespace hoopnvm
