#include "workloads/registry.hh"

#include <algorithm>
#include <iterator>

#include "common/host_profiler.hh"
#include "common/logging.hh"
#include "sim/clock_tracker.hh"
#include "workloads/btree_wl.hh"
#include "workloads/hashmap_wl.hh"
#include "workloads/queue_wl.hh"
#include "workloads/rbtree_wl.hh"
#include "workloads/interference_wl.hh"
#include "workloads/tpcc.hh"
#include "workloads/vector_wl.hh"
#include "workloads/ycsb.hh"

namespace hoopnvm
{

namespace
{

TxContext
contextFor(System &sys, CoreId core)
{
    return TxContext(sys, core,
                     sys.config().seed * 7919 + core * 104729 + 1);
}

} // namespace

WorkloadFactory
makeWorkload(const std::string &name, const WorkloadParams &p)
{
    if (name == "vector") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<VectorWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale);
        };
    }
    if (name == "hashmap") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<HashmapWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale);
        };
    }
    if (name == "queue") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<QueueWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale);
        };
    }
    if (name == "rbtree") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<RbTreeWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale * 4);
        };
    }
    if (name == "btree") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<BTreeWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale * 4);
        };
    }
    if (name == "ycsb") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<YcsbWorkload>(
                contextFor(sys, core), p.valueBytes, p.scale,
                p.ycsbUpdateRatio, p.ycsbTheta);
        };
    }
    if (name == "interference") {
        InterferenceParams ip;
        ip.valueBytes = p.valueBytes;
        ip.scale = p.scale;
        ip.readMix = p.interferenceReadMix;
        ip.saturation = p.interferenceSaturation;
        ip.logAppendsPerTx = p.roleLogAppendsPerTx;
        ip.pointReadsPerTx = p.rolePointReadsPerTx;
        ip.scanItemsPerTx = p.roleScanItemsPerTx;
        ip.gcOverwritesPerTx = p.roleGcOverwritesPerTx;
        return [ip](System &sys, CoreId core) {
            return std::make_unique<InterferenceWorkload>(
                contextFor(sys, core), ip);
        };
    }
    if (name == "tpcc") {
        return [p](System &sys, CoreId core) {
            return std::make_unique<TpccWorkload>(
                contextFor(sys, core), p.scale, p.scale);
        };
    }
    // lint: fatal-in-txpath-ok (config-time lookup of a workload name, not an admission path; see the logging.hh fatal audit)
    HOOP_FATAL("unknown workload '%s'", name.c_str());
}

bool
workloadKnown(const std::string &name)
{
    return name == "interference" ||
           std::find(std::begin(kTableIIIWorkloads),
                     std::end(kTableIIIWorkloads),
                     name) != std::end(kTableIIIWorkloads);
}

std::vector<WorkloadSpec>
syntheticSuite(const WorkloadParams &p)
{
    std::vector<WorkloadSpec> suite = fullSuite(p);
    suite.resize(5); // YCSB and TPC-C close the Table III list
    return suite;
}

std::vector<WorkloadSpec>
fullSuite(const WorkloadParams &p)
{
    std::vector<WorkloadSpec> suite;
    for (const char *name : kTableIIIWorkloads)
        suite.push_back({name, makeWorkload(name, p)});
    return suite;
}

RunOutcome
runWorkload(System &sys, const WorkloadFactory &factory,
            std::uint64_t tx_per_core)
{
    const unsigned n_cores = sys.config().numCores;
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(n_cores);
    for (unsigned c = 0; c < n_cores; ++c) {
        workloads.push_back(factory(sys, c));
        workloads.back()->setup();
    }

    sys.beginMeasurement();
    std::vector<std::uint64_t> done(n_cores, 0);
    std::uint64_t remaining = tx_per_core * n_cores;

    // Next-core selection. The fast path keeps the runnable cores'
    // clocks in an incremental min-tracker (finished cores drop out
    // via disable()); its argMin() returns the lowest-indexed minimum,
    // matching the reference scan's tie-break exactly, so both paths
    // execute transactions in the identical order
    // (clock_tracker_test.cc asserts the equivalence on randomized
    // sequences). A transaction only advances the clock of the core it
    // runs on, so re-arming just that slot keeps the tracker exact.
    const bool fast = sys.config().fastPath;
    ClockTracker runnable(fast ? n_cores : 0);
    if (fast) {
        for (unsigned c = 0; c < n_cores; ++c)
            runnable.set(c, sys.core(c).clock());
    }

    while (remaining > 0) {
        // Advance the core that is furthest behind in simulated time.
        unsigned next = n_cores;
        if (fast) {
            next = static_cast<unsigned>(runnable.argMin());
        } else {
            Tick best = ~Tick{0};
            for (unsigned c = 0; c < n_cores; ++c) {
                if (done[c] >= tx_per_core)
                    continue;
                if (sys.core(c).clock() < best) {
                    best = sys.core(c).clock();
                    next = c;
                }
            }
        }
        HOOP_ASSERT(next < n_cores, "no runnable core");
        {
            HostTimer ht(HostProfiler::kExecute);
            workloads[next]->runTransaction(done[next]);
        }
        ++done[next];
        --remaining;
        if (fast) {
            if (done[next] >= tx_per_core)
                runnable.disable(next);
            else
                runnable.set(next, sys.core(next).clock());
        }
        {
            HostTimer ht(HostProfiler::kMaintenance);
            sys.maintenance();
        }
    }
    {
        HostTimer ht(HostProfiler::kDrain);
        sys.finalize();
    }

    RunOutcome out;
    out.metrics = sys.metrics();
    out.verified = true;
    {
        HostTimer ht(HostProfiler::kVerify);
        // The run is finalized: nothing mutates simulated state during
        // verification, so batched debug reads are safe.
        sys.caches().beginDebugBatch();
        for (const auto &wl : workloads)
            out.verified = out.verified && wl->verify();
        sys.caches().endDebugBatch();
    }
    return out;
}

} // namespace hoopnvm
